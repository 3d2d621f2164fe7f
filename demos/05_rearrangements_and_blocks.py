#!/usr/bin/env python3
"""Rearrangement stress tests and blocked oscillations.

Every rearrangement of a short series is enumerated to find the worst one;
adversarial plans are built for a longer series (greedy prefix growth,
which on an orthonormal system is the decreasing-|a_n| order, and block
reversal); and the blocked oscillation of each double-exponential
block is compared with its 8 sqrt(block mass) bound, for both adversarial
plans in one call: block_oscillations takes a batch of rearrangements as
one (P, n) array of 0-based orders, the array all_orders_l2 takes too.
"""

import math

import numpy as np

from orthoseries import (AdversarialStrategy, Check, PermutationPlan,
                         SequenceSpec, SystemKind, SystemSpec, TrialConfig,
                         adversarial_permutation, generate, permuted_majorant,
                         run_suite, tandori_blocks)
from orthoseries.majorants import block_oscillations

print("=== exhaustive sweep over all 720 rearrangements, n = 6 ===")
cfg = TrialConfig(system_specs=(SystemSpec(SystemKind.RADEMACHER, 6),),
                  checks={Check.EXHAUSTIVE_PERM}, exhaustive_n=6,
                  coeff_spec=SequenceSpec.from_values(1.0 / np.arange(1, 7)))
res = run_suite(cfg).results[Check.EXHAUSTIVE_PERM]
print(f"maximal-inequality bound holds for every plan: {res.passed} ({res.n_cases} orders)")
print(f"worst rearrangement: {res.worst_case['worst_permutation']} "
      f"(ratio {res.worst_ratio:.4f})")

print("\n=== adversarial plans on a seeded system, n = 16 ===")
_, _, system = generate(SystemSpec(SystemKind.RANDOM_QR, 16, resolution=16,
                                   fiber_dim=1, seed=5))
rng = np.random.Generator(np.random.PCG64(11))
coeffs = rng.standard_normal(16) / np.arange(1, 17)
greedy = adversarial_permutation(system, coeffs, 16,
                                 AdversarialStrategy.GREEDY_MAX_PREFIX)
reversal = adversarial_permutation(system, coeffs, 16,
                                   AdversarialStrategy.BLOCK_REVERSAL)
print("greedy order:  ", greedy.order)
print("block reversal:", reversal.order)
rhs = (2 + math.log2(16)) * math.sqrt(float(np.sum(coeffs ** 2)))
for plan in (PermutationPlan.identity(16), PermutationPlan.seeded_shuffle(16, 3),
             greedy, reversal):
    l2 = permuted_majorant(system, coeffs, plan).l2_norm
    print(f"  {plan.describe():24s} majorant {l2:.4f} <= bound {rhs:.4f}")

print("\n=== blocked oscillations under the greedy and block-reversal plans ===")
blocks = tandori_blocks(16)
# one batch: a row of 0-based indices per plan
orders = np.array([greedy.order, reversal.order]) - 1
for k in range(blocks.k_max + 1):
    osc = block_oscillations(system, coeffs, orders, k)
    print(f"  block {k} [{osc.lo},{osc.hi}] ({osc.hi - osc.lo + 1} terms): "
          f"||delta|| = {osc.l2[0]:.4f} greedy, {osc.l2[1]:.4f} reversal <= {osc.bound:.4f}")
