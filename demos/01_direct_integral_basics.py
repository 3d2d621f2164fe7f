#!/usr/bin/env python3
"""Tour of the discrete direct-integral substrate.

Builds a tiny measure space whose atoms carry fibers of different
dimensions, computes weighted inner products and norms, and inspects a
Gram matrix with its spectral (Riesz) bounds.
"""

import numpy as np

from orthoseries import (DirectIntegralElement, Field, HilbertCollection,
                         MeasureSpace, OrthonormalSystem, gram_matrix,
                         inner_product, norm, validate_ons)

print("=== a three-atom space with fibers R^1, R^2, R^3 ===")
space = MeasureSpace(weights=np.array([2.0, 0.5, 1.0]))
fibers = HilbertCollection(dims=np.array([1, 2, 3]))
print("weights:", space.weights, " total mass:", space.total_mass)
print("fiber dims:", fibers.dims, " flat dimension:", fibers.total_dim)

f = DirectIntegralElement.from_blocks([[1.0], [2.0, 0.0], [0.0, 1.0, 1.0]])
g = DirectIntegralElement.from_blocks([[1.0], [0.0, 2.0], [1.0, 1.0, 0.0]])

print("\n<f, g> = sum_i mu_i <f_i, g_i> =", inner_product(f, g, space, fibers))
print("||f|| =", norm(f, space, fibers))
print("||g|| =", norm(g, space, fibers))

print("\n=== Gram matrix of a hand-built pair ===")
c = 1.0 / np.sqrt(2.0)
space2 = MeasureSpace(weights=np.ones(2))
fibers2 = HilbertCollection(dims=np.ones(2, dtype=int))
phi1 = DirectIntegralElement.from_blocks([[1.0], [0.0]])
phi2 = DirectIntegralElement.from_blocks([[c], [c]])
# a system carries its own space and fibers, so the Gram matrix and the
# orthonormality test read the measure from it
pair = OrthonormalSystem.from_elements(space2, fibers2, [phi1, phi2])
report = gram_matrix(pair)
print("gram:\n", report.gram)
print("riesz bounds:", (report.riesz_lower, report.riesz_upper),
      " (unit vectors, but not orthogonal)")
ok, _ = validate_ons(pair, tol=1e-10)
print("orthonormal at tol 1e-10?", ok)

print("\n=== complex fibers conjugate in the second slot ===")
cf = HilbertCollection(dims=np.array([1]), field=Field.COMPLEX)
cs = MeasureSpace(weights=np.array([1.0]))
u = DirectIntegralElement.from_blocks([[1.0 + 2.0j]], field=Field.COMPLEX)
v = DirectIntegralElement.from_blocks([[0.0 + 1.0j]], field=Field.COMPLEX)
print("<u, v> =", inner_product(u, v, cs, cf))
print("<v, u> =", inner_product(v, u, cs, cf), " (conjugates)")
print("<u, u> =", inner_product(u, u, cs, cf), " (exactly real)")
