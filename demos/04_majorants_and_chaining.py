#!/usr/bin/env python3
"""Partial-sum majorants, the dyadic decomposition, and the chaining bounds.

Shows the streaming majorant against its materializing oracle, the binary
block decomposition behind the maximal inequality, and the three tracked
chaining bounds with their constants 2, 4 (squared), and 4.
"""

import math

import numpy as np

from orthoseries import (SystemKind, SystemSpec, chaining_diagnostics,
                         dyadic_decomposition, dyadic_pointwise_bound,
                         generate, majorant, oracle_majorant)

print("=== majorant of a Rademacher prefix family ===")
_, _, system = generate(SystemSpec(SystemKind.RADEMACHER, 3))
coeffs = np.array([1.0, 0.5, 0.25])
prof = majorant(system, coeffs)
print("pointwise sup over prefixes:", prof.values)
print("first prefix attaining it:  ", prof.argmax_prefix)
print("L2 norm:", prof.l2_norm)
check = oracle_majorant(system, coeffs)
print("materializing oracle agrees bit for bit:",
      bool(np.array_equal(prof.values, check.values)))

print("\n=== binary decomposition of prefix lengths ===")
for j in (5, 7, 8):
    d = dyadic_decomposition(j, 3)
    pretty = " ".join(f"({lo},{hi}]" for lo, hi in d.blocks)
    print(f"  j={j}: bits {d.bits} -> blocks {pretty}")

h = np.ones((3, 1))
lhs, rhs = dyadic_pointwise_bound(h, 2)
print(f"\npointwise bound for three unit steps, r=2: {lhs:.0f} <= {rhs:.0f}")

print("\n=== chaining diagnostics on a seeded system, n = 127 ===")
_, _, system = generate(SystemSpec(SystemKind.RANDOM_QR, 127, resolution=127,
                                   fiber_dim=1, seed=7))
coeffs = 1.0 / np.arange(1, 128)
diag = chaining_diagnostics(system, coeffs)
print(f"log-squared mass L = {diag.weyl_mass:.6f}")
print(f"block norms        : {np.round(diag.block_norms, 4)}")
print(f"sum of block norms = {diag.block_norm_sum:.4f} <= 2 sqrt(L) = "
      f"{diag.block_norm_sum_bound:.4f}")
print(f"within-block square sum = {diag.inner_sq_sum:.4f} <= 4 L = "
      f"{diag.inner_sq_bound:.4f}")
print(f"majorant L2 = {diag.majorant_l2:.4f} <= 4 sqrt(L) = "
      f"{diag.majorant_bound:.4f}")
print(f"dyadic-prefix sup = {diag.dyadic_sup_l2:.4f} "
      f"(triangle step: {diag.majorant_l2:.4f} <= "
      f"{diag.dyadic_sup_l2 + math.sqrt(diag.inner_sq_sum):.4f})")
