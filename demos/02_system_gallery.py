#!/usr/bin/env python3
"""Gallery of the built-in orthonormal system generators.

Every kind is generated, validated against its Gram matrix, and described.
Identical specs always reproduce bit-identical systems (PCG64 streams for
the seeded kind).
"""

import numpy as np

from orthoseries import Field, SystemKind, SystemSpec, generate, validate_ons

SPECS = [
    SystemSpec(SystemKind.STANDARD_BASIS, 6),
    SystemSpec(SystemKind.RADEMACHER, 4),
    SystemSpec(SystemKind.HAAR, 6),
    SystemSpec(SystemKind.RANDOM_QR, 12, resolution=8, fiber_dim=2, seed=42),
    SystemSpec(SystemKind.RANDOM_QR, 6, resolution=8, fiber_dim=1, seed=7,
               field=Field.COMPLEX),
    SystemSpec(SystemKind.TENSOR_VECTOR, 9, fiber_dim=3),
    SystemSpec(SystemKind.VARYING_DIM, 8),
]

for spec in SPECS:
    space, fibers, system = generate(spec)
    ok, report = validate_ons(system, 1e-10)
    dims = sorted(set(int(d) for d in fibers.dims))
    print(f"{spec.describe():42s} atoms={space.n_atoms:4d} fiber dims={dims} "
          f"orthonormal={ok} max|G-I|={max(report.max_offdiag_abs, report.max_diag_dev):.2e}")

print("\nRademacher sign patterns on their exact dyadic grid:")
_, _, rad = generate(SystemSpec(SystemKind.RADEMACHER, 3))
for n, row in enumerate(rad.values, start=1):
    print(f"  r_{n}: {''.join('+' if v > 0 else '-' for v in row)}")

print("\nDeterminism: regenerating the seeded system gives the same bits:",
      np.array_equal(generate(SPECS[3])[2].values, generate(SPECS[3])[2].values))
