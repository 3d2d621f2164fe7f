#!/usr/bin/env python3
"""Rearrangement stress tests and blocked oscillations.

Every rearrangement of a short series is enumerated to find the worst one;
adversarial orders are built for a longer series (greedy prefix growth,
which on an orthonormal system is the decreasing-|a_n| order, and block
reversal); and the blocked oscillation of each double-exponential
block is compared with its 8 sqrt(block mass) bound, for both adversarial
orders in one call.  Every rearrangement is a 0-based order array: one
order for permuted_majorant, and a (P, n) array of them for
block_oscillations and all_orders_l2.  The orders are printed 1-based.
"""

import math

import numpy as np

from orthoseries import (AdversarialStrategy, Check, SequenceSpec, SystemKind,
                         SystemSpec, TrialConfig, adversarial_permutation, generate,
                         permuted_majorant, run_suite, tandori_blocks)
from orthoseries.majorants import block_oscillations
from orthoseries.systems import seeded_rng

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
print("greedy order:  ", tuple((greedy + 1).tolist()))
print("block reversal:", tuple((reversal + 1).tolist()))
rhs = (2 + math.log2(16)) * math.sqrt(float(np.sum(coeffs ** 2)))
for label, order in (("identity", np.arange(16)),
                     ("seeded-shuffle(3)", seeded_rng(3).permutation(16)),
                     ("greedy-adversarial", greedy), ("block-reversal", reversal)):
    l2 = permuted_majorant(system, coeffs, order).l2_norm
    print(f"  {label:24s} majorant {l2:.4f} <= bound {rhs:.4f}")

print("\n=== blocked oscillations under the greedy and block-reversal plans ===")
blocks = tandori_blocks(16)
# one batch: a row per order
orders = np.stack([greedy, reversal])
for k in range(blocks.k_max + 1):
    osc = block_oscillations(system, coeffs, orders, k)
    print(f"  block {k} [{osc.lo},{osc.hi}] ({osc.hi - osc.lo + 1} terms): "
          f"||delta|| = {osc.l2[0]:.4f} greedy, {osc.l2[1]:.4f} reversal <= {osc.bound:.4f}")
