import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from orthoseries import (DirectIntegralElement, Field, HilbertCollection,
                         MeasureSpace, OrthonormalSystem, StructuralError,
                         SystemKind, SystemSpec, generate, gram_matrix,
                         inner_product, norm, validate_ons)
from orthoseries.direct_integral import expanded_weights, gershgorin_bounds
from orthoseries.verify import _conditioned_mix, default_config

from conftest import non_hermitian_gram_system, random_element, random_space, rng

SRC = Path(__file__).resolve().parent.parent / "src"

# every stock kind at the default sizes, then the benchmark's large-n systems
STOCK_AND_LARGE_N = list(default_config().system_specs) + [
    SystemSpec(SystemKind.HAAR, 1024),
    SystemSpec(SystemKind.RANDOM_QR, 640, resolution=320, fiber_dim=2, seed=1001),
    SystemSpec(SystemKind.VARYING_DIM, 600),
]


def oracle_inner(weights, f_blocks, g_blocks):
    """Independent inner product: plain per-atom loops, fsum at the end."""
    parts = []
    for w, fb, gb in zip(weights, f_blocks, g_blocks):
        parts.append(w * sum(x * np.conj(y) for x, y in zip(fb, gb)))
    return sum(parts)


def element(blocks, field=Field.REAL):
    return DirectIntegralElement.from_blocks(blocks, field=field)


def pair(weights, dims, field=Field.REAL):
    return (MeasureSpace(weights=np.asarray(weights, dtype=float)),
            HilbertCollection(dims=np.asarray(dims, dtype=np.int64), field=field))


class TestInnerProduct:
    def test_zero_element(self):
        space, fibers = pair([1.0, 1.0], [1, 1])
        z = DirectIntegralElement.zero(fibers)
        assert inner_product(z, z, space, fibers) == 0.0

    def test_disjoint_supports(self):
        space, fibers = pair([1.0, 1.0], [1, 1])
        f = element([[3.0], [0.0]])
        g = element([[0.0], [4.0]])
        assert inner_product(f, g, space, fibers) == 0.0

    def test_weighted_mixed_dims(self):
        # by hand: 2*(1*1) + 0.5*(2*0 + 0*2) = 2
        space, fibers = pair([2.0, 0.5], [1, 2])
        f = element([[1.0], [2.0, 0.0]])
        g = element([[1.0], [0.0, 2.0]])
        assert inner_product(f, g, space, fibers) == 2.0

    def test_matches_oracle_on_random_pairs(self):
        gen = rng(101)
        for trial in range(200):
            space, fibers = random_space(gen, complex_field=bool(trial % 2))
            f = random_element(gen, fibers)
            g = random_element(gen, fibers)
            got = inner_product(f, g, space, fibers)
            want = oracle_inner(space.weights, f.blocks, g.blocks)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-14)

    def test_conjugate_symmetry(self):
        gen = rng(7)
        for _ in range(50):
            space, fibers = random_space(gen, complex_field=True)
            f = random_element(gen, fibers)
            g = random_element(gen, fibers)
            assert inner_product(f, g, space, fibers) == pytest.approx(
                np.conj(inner_product(g, f, space, fibers)), rel=1e-13, abs=1e-15)

    def test_self_inner_product_real_nonnegative(self):
        gen = rng(8)
        for _ in range(50):
            space, fibers = random_space(gen, complex_field=True)
            f = random_element(gen, fibers)
            val = inner_product(f, f, space, fibers)
            assert val.imag == 0.0
            assert val.real >= 0.0

    def test_shape_mismatch_names_atom(self):
        space, fibers = pair([1.0, 1.0], [1, 2])
        f = element([[1.0], [1.0]])  # atom 1 has length 1, needs 2
        with pytest.raises(StructuralError, match="atom 1"):
            inner_product(f, f, space, fibers)

    def test_cauchy_schwarz(self):
        gen = rng(55)
        for trial in range(300):
            space, fibers = random_space(gen, complex_field=bool(trial % 3 == 0))
            f = random_element(gen, fibers)
            g = random_element(gen, fibers)
            lhs = abs(inner_product(f, g, space, fibers))
            rhs = norm(f, space, fibers) * norm(g, space, fibers)
            assert lhs <= rhs * (1 + 1e-12) + 1e-300


class TestNorm:
    def test_zero(self):
        space, fibers = pair([1.0], [2])
        assert norm(DirectIntegralElement.zero(fibers), space, fibers) == 0.0

    def test_three_four_five(self):
        space, fibers = pair([1.0, 1.0], [1, 1])
        assert norm(element([[3.0], [4.0]]), space, fibers) == 5.0

    def test_weighted(self):
        space, fibers = pair([4.0], [1])
        assert norm(element([[1.0]]), space, fibers) == 2.0

    def test_zero_weight_atoms_are_ignored(self):
        # mass sits only on atom 0; a nonzero block on the null atom is invisible
        space, fibers = pair([1.0, 0.0], [1, 1])
        f = element([[3.0], [7.0]])
        assert norm(f, space, fibers) == 3.0
        zero_on_support = element([[0.0], [9.0]])
        assert norm(zero_on_support, space, fibers) == 0.0


class TestGram:
    def test_standard_basis_identity(self, std3):
        _, _, system = std3
        rep = gram_matrix(system)
        assert np.array_equal(rep.gram, np.eye(3))
        assert rep.riesz_lower == pytest.approx(1.0, abs=1e-12)
        assert rep.riesz_upper == pytest.approx(1.0, abs=1e-12)

    def test_scaled_single_vector(self):
        space, fibers = pair([1.0], [1])
        rep = gram_matrix(OrthonormalSystem.from_elements(space, fibers, [element([[2.0]])]))
        assert rep.gram[0][0] == 4.0
        assert rep.riesz_lower == pytest.approx(4.0, abs=1e-12)
        assert rep.riesz_upper == pytest.approx(4.0, abs=1e-12)

    def test_two_by_two_hand_eigenvalues(self):
        # gram [[1, c], [c, 1]] has eigenvalues 1 -+ c with c = 1/sqrt(2)
        space, fibers = pair([1.0, 1.0], [1, 1])
        c = 1.0 / math.sqrt(2.0)
        phi1 = element([[1.0], [0.0]])
        phi2 = element([[c], [c]])
        rep = gram_matrix(OrthonormalSystem.from_elements(space, fibers, [phi1, phi2]))
        assert rep.gram[0][1] == pytest.approx(c, rel=1e-15)
        assert rep.riesz_lower == pytest.approx(1.0 - c, rel=1e-12)
        assert rep.riesz_upper == pytest.approx(1.0 + c, rel=1e-12)

    def test_empty_system_rejected(self):
        space, fibers = pair([1.0], [1])
        with pytest.raises(StructuralError):
            OrthonormalSystem.from_elements(space, fibers, [])

    def test_large_system_bounds_reproducible(self):
        # the dense eigendecomposition runs at every size, including n = 600
        spec = SystemSpec(SystemKind.STANDARD_BASIS, 600)
        space, fibers, system = generate(spec)
        rep = gram_matrix(system)
        assert rep.riesz_lower == pytest.approx(1.0, abs=1e-9)
        assert rep.riesz_upper == pytest.approx(1.0, abs=1e-9)
        # a mixed system with singular values in [1, 4] has Gram spectrum in
        # [1, 16]; repeated calls must give bitwise-equal bounds
        space, fibers, system = generate(SystemSpec(SystemKind.VARYING_DIM, 600))
        values, _ = _conditioned_mix(rng(600), system.values, 4.0)
        mixed = OrthonormalSystem(space, fibers, values)
        first, second = (gram_matrix(mixed) for _ in range(2))
        assert first.riesz_lower == second.riesz_lower
        assert first.riesz_upper == second.riesz_upper
        assert first.riesz_lower == pytest.approx(1.0, abs=1e-9)
        assert first.riesz_upper == pytest.approx(16.0, abs=1e-9)

    @pytest.mark.parametrize("spec", STOCK_AND_LARGE_N, ids=lambda spec: spec.describe())
    def test_fields_equal_the_direct_formulas(self, spec):
        # every GramReport field against the formulas written out on whole
        # n x n arrays, on the system and on a mix of it (off-diagonal mass)
        space, fibers, system = generate(spec)
        mixed = OrthonormalSystem(space, fibers,
                                  _conditioned_mix(rng(601), system.values, 4.0)[0])
        for ons in (system, mixed):
            V = ons.values
            G = (V * expanded_weights(space, fibers)) @ V.conj().T
            eig = np.linalg.eigvalsh(0.5 * (G + G.conj().T))
            off = G - np.diag(np.diagonal(G))
            rep = gram_matrix(ons)
            assert np.array_equal(rep.gram, G)
            assert rep.max_offdiag_abs == (float(np.max(np.abs(off))) if len(ons) > 1 else 0.0)
            assert rep.max_diag_dev == float(np.max(np.abs(np.real(np.diagonal(G)) - 1.0)))
            assert (rep.riesz_lower, rep.riesz_upper) == (float(eig[0]), float(eig[-1]))

    def test_gram_spectrum_needs_no_scipy(self):
        # a fresh interpreter, so modules imported by other tests do not count
        code = ("import sys\n"
                "from orthoseries import SystemKind, SystemSpec, generate, gram_matrix\n"
                "space, fibers, system = generate(SystemSpec(SystemKind.STANDARD_BASIS, 600))\n"
                "gram_matrix(system)\n"
                "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestGershgorinBounds:
    @pytest.mark.parametrize("spec", STOCK_AND_LARGE_N, ids=lambda spec: spec.describe())
    def test_contain_the_eigvalsh_spectrum(self, spec):
        # on the system and on a mix of it, whose Gram matrix carries mass off
        # the diagonal and spreads its spectrum over [1, 16].  The reference is
        # eigvalsh of H - I, whose rounding scales with |H - I| (exact on a
        # near-identity H's diagonal).  eigvalsh of H itself errs by more than
        # such an H's discs are wide: on Haar n=64 it gives lambda_min - 1 =
        # -2.9e-15, where every disc lies in [1 - 3.3e-16, 1 + 8.9e-16]
        space, fibers, system = generate(spec)
        mixed = OrthonormalSystem(space, fibers,
                                  _conditioned_mix(rng(602), system.values, 4.0)[0])
        for ons in (system, mixed):
            G = gram_matrix(ons).gram
            shifted = np.linalg.eigvalsh(0.5 * (G + G.conj().T) - np.eye(len(ons)))
            lower, upper = gershgorin_bounds(ons)
            assert lower - 1.0 <= shifted[0] and shifted[-1] <= upper - 1.0

    def test_exact_identity_keeps_its_bits(self):
        _, _, system = generate(SystemSpec(SystemKind.STANDARD_BASIS, 64))
        assert gershgorin_bounds(system) == (1.0, 1.0)

    def test_two_by_two_discs(self):
        # G = [[2, 1], [1, 2]]: both discs are [1, 3]; the radius 1 grows to
        # 1 + 2^-52, then each end moves out by one ulp
        space, fibers = pair([1.0, 1.0, 1.0], [1, 1, 1])
        ons = OrthonormalSystem(space, fibers, np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]))
        assert gershgorin_bounds(ons) == (1.0 - 3 * 2.0 ** -53, 3.0 + 2.0 ** -51)

    def test_nan_off_the_diagonal_makes_both_bounds_nan(self):
        # G[0, 1] = inf - inf is NaN while G[1, 1] = 2 is finite: row 1's
        # disc must not be read as [2, 2]
        space, fibers = pair([1.0, 1.0], [1, 1])
        ons = OrthonormalSystem(space, fibers, np.array([[np.inf, -np.inf], [1.0, 1.0]]))
        with np.errstate(invalid="ignore"):
            lower, upper = gershgorin_bounds(ons)
        assert math.isnan(lower) and math.isnan(upper)

    def test_non_hermitian_gram_raises(self):
        # a direct caller's system is input: both Gram paths refuse it
        system = non_hermitian_gram_system()
        for gram in (gram_matrix, gershgorin_bounds):
            with pytest.raises(StructuralError, match="not Hermitian"):
                gram(system)


class TestValidateOns:
    def test_exact_basis(self, std3):
        _, _, system = std3
        ok, rep = validate_ons(system, tol=1e-12)
        assert ok
        assert rep.max_offdiag_abs == 0.0

    def test_oblique_pair_fails(self):
        space, fibers = pair([1.0, 1.0], [1, 1])
        c = 1.0 / math.sqrt(2.0)
        system = OrthonormalSystem.from_elements(
            space, fibers, [element([[1.0], [0.0]]), element([[c], [c]])])
        ok, rep = validate_ons(system, tol=1e-12)
        assert not ok
        assert rep.max_offdiag_abs == pytest.approx(c, rel=1e-15)

    def test_random_qr_system(self):
        _, _, system = generate(
            SystemSpec(SystemKind.RANDOM_QR, 8, resolution=16, fiber_dim=2, seed=42))
        ok, _ = validate_ons(system, tol=1e-10)
        assert ok

    def test_reads_the_systems_own_measure(self):
        # Haar n=4 is orthonormal under its own uniform weights; the same rows
        # under the weights (1, 0, 0, 0) are not, and their Gram matrix is
        # that measure's
        space, fibers, system = generate(SystemSpec(SystemKind.HAAR, 4))
        assert validate_ons(system)[0]
        point = OrthonormalSystem(MeasureSpace(weights=np.array([1.0, 0.0, 0.0, 0.0])),
                                  fibers, system.values)
        ok, rep = validate_ons(point)
        assert not ok
        first = system.values[:, 0]
        assert np.array_equal(rep.gram, np.outer(first, first))

    def test_bad_tolerance(self, std3):
        _, _, system = std3
        with pytest.raises(ValueError):
            validate_ons(system, tol=0.0)


class TestParseval:
    def test_on_validated_systems(self):
        gen = rng(13)
        for trial in range(40):
            spec = SystemSpec(SystemKind.RANDOM_QR, int(gen.integers(1, 20)),
                              resolution=8, fiber_dim=4, seed=trial,
                              field=Field.COMPLEX if trial % 2 else Field.REAL)
            space, fibers, system = generate(spec)
            b = gen.standard_normal(len(system))
            if fibers.field is Field.COMPLEX:
                b = b + 1j * gen.standard_normal(len(system))
            combo = b.astype(system.values.dtype) @ system.values
            el = DirectIntegralElement(values=combo, fibers=fibers)
            lhs = norm(el, space, fibers) ** 2
            rhs = float(np.sum(np.abs(b) ** 2))
            assert lhs == pytest.approx(rhs, rel=1e-10)


class TestRieszBoundsOfValidatedSystems:
    def test_within_1e9_of_one(self):
        # spectrum bounds of any validated system sit at 1 to within 1e-9
        # (absolute, on the unit-diagonal Gram)
        for trial in range(10):
            spec = SystemSpec(SystemKind.RANDOM_QR, 12, resolution=6,
                              fiber_dim=3, seed=trial)
            _, _, system = generate(spec)
            ok, rep = validate_ons(system, tol=1e-10)
            assert ok
            assert abs(rep.riesz_lower - 1.0) <= 1e-9
            assert abs(rep.riesz_upper - 1.0) <= 1e-9


class TestInvariantsOfTypes:
    def test_weights_must_be_nonnegative(self):
        with pytest.raises(StructuralError):
            MeasureSpace(weights=np.array([1.0, -0.5]))

    def test_some_mass_required(self):
        with pytest.raises(StructuralError):
            MeasureSpace(weights=np.zeros(3))

    def test_dims_positive(self):
        with pytest.raises(StructuralError, match="atom 1"):
            HilbertCollection(dims=np.array([1, 0]))

    def test_complex_element_in_real_collection(self):
        space, fibers = pair([1.0], [1])
        f = element([[1.0 + 1j]], field=Field.COMPLEX)
        with pytest.raises(StructuralError):
            f.conform(space, fibers)

    @pytest.mark.parametrize("field", [None, Field.REAL])
    def test_complex_blocks_in_a_real_collection_are_refused(self, field):
        kw = {} if field is None else {"field": field}
        with pytest.raises(StructuralError, match="complex values with a real fiber collection"):
            DirectIntegralElement.from_blocks([[1 + 1j]], **kw)

    def test_complex_element_of_a_real_collection_is_refused_when_built(self):
        with pytest.raises(StructuralError, match="complex values with a real fiber collection"):
            DirectIntegralElement(np.array([1j]), HilbertCollection(dims=[1]))

    def test_element_values_must_fit_the_layout(self):
        fibers = HilbertCollection(dims=[1, 2])
        for values in (np.zeros(2), np.zeros(4), np.zeros((1, 3))):
            with pytest.raises(StructuralError, match="are not 1-d rows of 3 coordinates"):
                DirectIntegralElement(values, fibers)

    def test_from_blocks_builds_its_collection(self):
        f = element([[1], [2.0, 3.0]], field=Field.COMPLEX)
        assert f.fibers.dims.tolist() == [1, 2] and f.fibers.field is Field.COMPLEX
        assert f.values.dtype == np.complex128 and not f.values.flags.writeable
        with pytest.raises(StructuralError, match="atom 1: fiber dimension 0"):
            element([[1.0], []])

    def test_system_rows_carry_the_systems_collection(self, std3):
        _, fibers, system = std3
        for n in range(len(system)):
            assert system[n].fibers is system.fibers is fibers
            assert np.array_equal(system[n].values, system.values[n])

    def test_arrays_are_readonly(self, std3):
        space, fibers, system = std3
        with pytest.raises(ValueError):
            system.values[0, 0] = 5.0
        with pytest.raises(ValueError):
            space.weights[0] = 2.0

    def test_blocks_roundtrip(self):
        f = element([[1.0], [2.0, 3.0]])
        assert [list(b) for b in f.blocks] == [[1.0], [2.0, 3.0]]
        assert f.n_atoms == 2

    def test_offsets_and_total_dim_are_computed_once(self):
        fibers = HilbertCollection(dims=[3, 1, 2], field=Field.COMPLEX)
        offsets = fibers.offsets
        assert fibers.offsets is offsets
        assert offsets.tolist() == [0, 3, 4, 6] and offsets.dtype == np.int64
        assert not offsets.flags.writeable
        with pytest.raises(ValueError):
            offsets[1] = 0
        assert fibers.total_dim == 6 and type(fibers.total_dim) is int
        assert "offsets" not in repr(fibers)
