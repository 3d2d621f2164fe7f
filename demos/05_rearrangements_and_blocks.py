#!/usr/bin/env python3
"""Rearrangement stress tests and blocked oscillations.

Every rearrangement of a short series is enumerated to find the worst one;
adversarial plans are built for a longer series (greedy prefix growth,
which on an orthonormal system is the decreasing-|a_n| order, and block
reversal); and the blocked oscillation of each double-exponential
block is compared with its 8 sqrt(block mass) bound.
"""

import math

import numpy as np

from orthoseries import (AdversarialStrategy, PermutationPlan, SystemKind,
                         SystemSpec, adversarial_permutation,
                         exhaustive_permutation_check, generate,
                         permuted_majorant, tandori_blocks, tandori_delta)

print("=== exhaustive sweep over all 720 rearrangements, n = 6 ===")
_, _, system = generate(SystemSpec(SystemKind.RADEMACHER, 6))
coeffs = 1.0 / np.arange(1, 7)
res = exhaustive_permutation_check(system, coeffs, 6)
print(f"maximal-inequality bound holds for every plan: {res.passed}")
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

print("\n=== blocked oscillations under the greedy plan ===")
blocks = tandori_blocks(16)
for k in range(blocks.k_max + 1):
    osc = tandori_delta(system, coeffs, greedy, k)
    print(f"  block {k} [{osc.lo},{osc.hi}] ({osc.indicator_count} terms): "
          f"||delta|| = {osc.l2:.4f} <= {osc.bound:.4f}")
