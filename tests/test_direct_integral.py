import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from orthoseries import (DirectIntegralElement, Field, HilbertCollection,
                         MeasureSpace, OrthonormalSystem, StructuralError,
                         SystemKind, SystemSpec, generate, gram_matrix,
                         inner_product, norm, validate_ons)
import orthoseries.direct_integral as di
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


def measure(weights):
    return MeasureSpace(weights=np.asarray(weights, dtype=float))


def pair(weights, dims, field=Field.REAL):
    return (measure(weights),
            HilbertCollection(dims=np.asarray(dims, dtype=np.int64), field=field))


class TestInnerProduct:
    def test_zero_element(self):
        space, fibers = pair([1.0, 1.0], [1, 1])
        z = DirectIntegralElement.zero(fibers)
        assert inner_product(z, z, space) == 0.0

    def test_disjoint_supports(self):
        space = measure([1.0, 1.0])
        f = element([[3.0], [0.0]])
        g = element([[0.0], [4.0]])
        assert inner_product(f, g, space) == 0.0

    def test_weighted_mixed_dims(self):
        # by hand: 2*(1*1) + 0.5*(2*0 + 0*2) = 2
        space = measure([2.0, 0.5])
        f = element([[1.0], [2.0, 0.0]])
        g = element([[1.0], [0.0, 2.0]])
        assert inner_product(f, g, space) == 2.0

    def test_matches_oracle_on_random_pairs(self):
        gen = rng(101)
        for trial in range(200):
            space, fibers = random_space(gen, complex_field=bool(trial % 2))
            f = random_element(gen, fibers)
            g = random_element(gen, fibers)
            got = inner_product(f, g, space)
            want = oracle_inner(space.weights, f.blocks, g.blocks)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-14)

    def test_conjugate_symmetry(self):
        gen = rng(7)
        for _ in range(50):
            space, fibers = random_space(gen, complex_field=True)
            f = random_element(gen, fibers)
            g = random_element(gen, fibers)
            assert inner_product(f, g, space) == pytest.approx(
                np.conj(inner_product(g, f, space)), rel=1e-13, abs=1e-15)

    def test_self_inner_product_real_nonnegative(self):
        gen = rng(8)
        for _ in range(50):
            space, fibers = random_space(gen, complex_field=True)
            f = random_element(gen, fibers)
            val = inner_product(f, f, space)
            assert val.imag == 0.0
            assert val.real >= 0.0

    def test_shape_mismatch_names_atom(self):
        space = measure([1.0, 1.0, 1.0])
        f = element([[1.0], [1.0], [1.0]])
        g = element([[1.0], [1.0, 0.0], [1.0]])  # atom 1 is 2-dimensional in g only
        for a, b in ((f, g), (g, f)):
            with pytest.raises(StructuralError, match="atom 1: fiber dims"):
                inner_product(a, b, space)

    def test_atom_count_must_match_the_space(self):
        f = element([[1.0], [2.0]])
        for space in (measure([1.0]), measure([1.0, 1.0, 1.0])):
            with pytest.raises(StructuralError, match="fiber collection has 2 atoms"):
                inner_product(f, f, space)
            with pytest.raises(StructuralError, match="fiber collection has 2 atoms"):
                norm(f, space)

    def test_reads_the_elements_own_collection(self):
        # elements built on separate but equal collections share one layout
        space = measure([2.0, 0.5])
        f = element([[1.0], [2.0, 0.0]])
        g = DirectIntegralElement(np.array([1.0, 0.0, 2.0]),
                                  HilbertCollection(dims=np.array([1, 2])))
        assert f.fibers is not g.fibers
        assert inner_product(f, g, space) == 2.0

    def test_cauchy_schwarz(self):
        gen = rng(55)
        for trial in range(300):
            space, fibers = random_space(gen, complex_field=bool(trial % 3 == 0))
            f = random_element(gen, fibers)
            g = random_element(gen, fibers)
            lhs = abs(inner_product(f, g, space))
            rhs = norm(f, space) * norm(g, space)
            assert lhs <= rhs * (1 + 1e-12) + 1e-300


class TestNorm:
    def test_zero(self):
        space, fibers = pair([1.0], [2])
        assert norm(DirectIntegralElement.zero(fibers), space) == 0.0

    def test_three_four_five(self):
        space = measure([1.0, 1.0])
        assert norm(element([[3.0], [4.0]]), space) == 5.0

    def test_weighted(self):
        space = measure([4.0])
        assert norm(element([[1.0]]), space) == 2.0

    def test_zero_weight_atoms_are_ignored(self):
        # mass sits only on atom 0; a nonzero block on the null atom is invisible
        space = measure([1.0, 0.0])
        f = element([[3.0], [7.0]])
        assert norm(f, space) == 3.0
        zero_on_support = element([[0.0], [9.0]])
        assert norm(zero_on_support, space) == 0.0


class TestGram:
    def test_standard_basis_identity(self, std3):
        _, _, system = std3
        rep = gram_matrix(system)
        assert np.array_equal(rep.gram, np.eye(3))
        assert rep.riesz_lower == pytest.approx(1.0, abs=1e-12)
        assert rep.riesz_upper == pytest.approx(1.0, abs=1e-12)

    def test_scaled_single_vector(self):
        space = measure([1.0])
        rep = gram_matrix(OrthonormalSystem.from_elements(space, [element([[2.0]])]))
        assert rep.gram[0][0] == 4.0
        assert rep.riesz_lower == pytest.approx(4.0, abs=1e-12)
        assert rep.riesz_upper == pytest.approx(4.0, abs=1e-12)

    def test_two_by_two_hand_eigenvalues(self):
        # gram [[1, c], [c, 1]] has eigenvalues 1 -+ c with c = 1/sqrt(2)
        space = measure([1.0, 1.0])
        c = 1.0 / math.sqrt(2.0)
        phi1 = element([[1.0], [0.0]])
        phi2 = element([[c], [c]])
        rep = gram_matrix(OrthonormalSystem.from_elements(space, [phi1, phi2]))
        assert rep.gram[0][1] == pytest.approx(c, rel=1e-15)
        assert rep.riesz_lower == pytest.approx(1.0 - c, rel=1e-12)
        assert rep.riesz_upper == pytest.approx(1.0 + c, rel=1e-12)

    def test_empty_system_rejected(self):
        space = measure([1.0])
        with pytest.raises(StructuralError):
            OrthonormalSystem.from_elements(space, [])

    def test_from_elements_reads_their_collection(self):
        space = measure([1.0, 1.0])
        fibers = HilbertCollection(dims=np.array([1, 2]), field=Field.COMPLEX)
        phi = DirectIntegralElement(np.array([1.0, 0.0, 0.0]), fibers)
        system = OrthonormalSystem.from_elements(space, [phi])
        assert system.fibers is fibers
        assert system.values.dtype == np.complex128

    def test_from_elements_names_the_atom_whose_layouts_differ(self):
        space = measure([1.0, 1.0, 1.0])
        first = element([[1.0], [0.0], [0.0]])
        other = element([[0.0], [1.0], [0.0, 0.0]])
        with pytest.raises(StructuralError, match="atom 2: fiber dims 1 and 2 differ"):
            OrthonormalSystem.from_elements(space, [first, first, other])

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

    @pytest.mark.parametrize("sign", [1, -1], ids=["upper-end-tight", "lower-end-tight"])
    def test_tight_discs_contain_the_exact_spectrum(self, sign):
        # G = (1 - sign c) I + sign c 11^T, as Cholesky rows on n atoms of
        # weight 1, has the exact eigenvalues 1 + sign (n - 1) c (once) and
        # 1 - sign c, and 1 + sign (n - 1) c lies at an end of every disc, so
        # a bound narrower than Gershgorin's misses it (a halved radius by
        # 0.375).  The 1e-12 margin covers the rounding of the computed G
        n, c = 6, 0.15
        gram = (1.0 - sign * c) * np.eye(n) + sign * c * np.ones((n, n))
        space, fibers = pair([1.0] * n, [1] * n)
        ons = OrthonormalSystem(space, fibers, np.linalg.cholesky(gram))
        lower, upper = gershgorin_bounds(ons)
        eig = (1.0 + sign * (n - 1) * c, 1.0 - sign * c)
        assert lower <= min(eig) + 1e-12 and max(eig) - 1e-12 <= upper

    @pytest.mark.parametrize("budget", ["default", 1])
    def test_row_blocks_keep_the_bits_of_the_whole_hermitian_part(self, budget, monkeypatch):
        # H, its diagonal and its radii formed a block of rows at a time (one
        # row at budget 1) against the whole H formed at once
        if budget != "default":
            monkeypatch.setattr(di, "GRAM_ROW_BUDGET", budget)
        specs = [SystemSpec(SystemKind.RANDOM_QR, 48, resolution=48, seed=603,
                            field=Field.COMPLEX), SystemSpec(SystemKind.VARYING_DIM, 40)]
        for spec in specs:
            space, fibers, system = generate(spec)
            mixed = OrthonormalSystem(space, fibers,
                                      _conditioned_mix(rng(604), system.values, 4.0)[0])
            for ons in (system, mixed):
                G = gram_matrix(ons).gram
                H = np.conj(G.T, order="C")
                H += G
                H *= 0.5
                r = np.abs(H)
                np.fill_diagonal(r, 0.0)
                r = r.sum(axis=1) * (1.0 + len(ons) * 2.0 ** -53)
                d = np.real(np.diagonal(H))
                want = (float(np.min(np.where(r > 0, np.nextafter(d - r, -np.inf), d - r))),
                        float(np.max(np.where(r > 0, np.nextafter(d + r, np.inf), d + r))))
                assert gershgorin_bounds(ons) == want

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


def complex_haar_pattern(n, kind):
    """A complex system with Haar n's nonzero values: Haar's rows times one
    seeded unit phase per atom ("phased-haar": Haar's Gram matrix, whose
    products need their conj), or complex Gaussian values
    ("gaussian-on-haar": complex Gram entries off the diagonal)."""
    space, fibers, system = generate(SystemSpec(SystemKind.HAAR, n))
    gen = rng(605)
    if kind == "phased-haar":
        values = system.values * np.exp(1j * gen.uniform(0.0, 2.0 * np.pi, fibers.total_dim))
    else:
        draw = gen.standard_normal(system.values.shape) + 1j * gen.standard_normal(system.values.shape)
        values = np.where(system.values != 0, draw, 0)
    return OrthonormalSystem(space, HilbertCollection(dims=fibers.dims, field=Field.COMPLEX), values)


def block_diagonal(n, b, field=Field.REAL):
    """n orthonormal functions on n atoms of mass 1, in diagonal blocks of b
    random orthonormal rows: each coordinate has b nonzero values, so the
    coordinate-sharing pairs number n b^2."""
    gen = rng(606)
    values = np.zeros((n, n), dtype=field.dtype)
    for lo in range(0, n, b):
        draw = gen.standard_normal((b, b))
        if field is Field.COMPLEX:
            draw = draw + 1j * gen.standard_normal((b, b))
        values[lo:lo + b, lo:lo + b] = np.linalg.qr(draw)[0]
    return OrthonormalSystem(*pair([1.0] * n, [1] * n, field), values)


def both_paths(ons):
    """(diag, radii) of the sparse and of the dense path."""
    V, w = ons.values, expanded_weights(ons.space, ons.fibers)
    return di._sparse_discs(V, w), di._hermitian_gram(V, w)[1:]


@pytest.fixture
def paths_taken(monkeypatch):
    """The names of the paths gershgorin_bounds takes, in call order."""
    taken = []
    for name in ("_sparse_discs", "_hermitian_gram"):
        def spy(V, w, _name=name, _real=getattr(di, name)):
            taken.append(_name)
            return _real(V, w)
        monkeypatch.setattr(di, name, spy)
    return taken


# every stock kind, the sparse large-n systems and two complex sparse systems
SPARSE_PATH_CASES = list(default_config().system_specs) + [
    SystemSpec(SystemKind.HAAR, 1024), SystemSpec(SystemKind.VARYING_DIM, 600),
    "phased-haar", "gaussian-on-haar"]


class TestSparseGershgorin:
    @pytest.mark.parametrize("case", SPARSE_PATH_CASES,
                             ids=lambda case: getattr(case, "describe", lambda: case)())
    def test_paths_agree_and_contain_the_spectrum(self, case):
        # the sparse path's diagonal and radii are the dense path's within the
        # rounding of their sums, on the system and, at n = 64, on a mix of it
        # (every coordinate full, off-diagonal mass); both paths' bounds
        # contain the spectrum, as in TestGershgorinBounds
        ons = complex_haar_pattern(512, case) if isinstance(case, str) else generate(case)[2]
        systems = [ons]
        if len(ons) <= 64:
            systems.append(OrthonormalSystem(
                ons.space, ons.fibers, _conditioned_mix(rng(607), ons.values, 4.0)[0]))
        for ons in systems:
            V, w = ons.values, expanded_weights(ons.space, ons.fibers)
            A = (np.abs(V) * w) @ np.abs(V).T
            tol = 4.0 * (V.shape[1] + len(ons)) * 2.0 ** -53 * A.sum(axis=1)
            (diag, radii), (dense_diag, dense_radii) = both_paths(ons)
            assert np.all(np.abs(diag - dense_diag) <= tol)
            assert np.all(np.abs(radii - dense_radii) <= tol)
            G = gram_matrix(ons).gram
            shifted = np.linalg.eigvalsh(0.5 * (G + G.conj().T) - np.eye(len(ons)))
            for d, r in ((diag, radii), (dense_diag, dense_radii)):
                lower, upper = di._disc_ends(d, r)
                assert lower - 1.0 <= shifted[0] and shifted[-1] <= upper - 1.0

    @pytest.mark.parametrize("case", ["standard-basis", "varying-dim", "one-atom"])
    def test_exact_systems_keep_their_bits(self, case):
        # single-term or exact sums: both paths give the same bits
        if case == "one-atom":
            ons = OrthonormalSystem(*pair([0.3], [1]), np.array([[0.6], [0.8]]))
        else:
            ons = generate(SystemSpec(SystemKind(case), 64))[2]
        (diag, radii), (dense_diag, dense_radii) = both_paths(ons)
        assert np.array_equal(diag, dense_diag) and np.array_equal(radii, dense_radii)

    def test_stock_and_large_n_systems_take_the_path_the_rule_names(self, paths_taken):
        # 4 P <= n^2: standard basis and varying-dim are sparse, and so are
        # large-n's Haar and varying-dim; every random-qr system (the complex
        # one of default.json too), Rademacher, tensor-vector and Haar n=64
        # (4 P = 12,544 > 4,096) are dense
        specs = list(default_config().system_specs) + STOCK_AND_LARGE_N[-3:]
        sparse = {SystemKind.STANDARD_BASIS, SystemKind.VARYING_DIM}
        for spec in specs:
            paths_taken.clear()
            gershgorin_bounds(generate(spec)[2])
            large_haar = spec.kind is SystemKind.HAAR and spec.n_functions == 1024
            want = "_sparse_discs" if spec.kind in sparse or large_haar else "_hermitian_gram"
            assert paths_taken == [want], spec.describe()

    def test_the_rules_boundary(self, paths_taken):
        # blocks of 8 on 256 coordinates: 4 P = 4 * 256 * 64 = n^2; blocks of
        # 16 are over the boundary
        for b, want in ((8, "_sparse_discs"), (16, "_hermitian_gram")):
            paths_taken.clear()
            gershgorin_bounds(block_diagonal(256, b))
            assert paths_taken == [want]

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    def test_peak_memory_at_the_boundary_is_no_higher_than_dense(self, field):
        ons = block_diagonal(256, 8, field)
        V, w = ons.values, expanded_weights(ons.space, ons.fibers)
        peaks = []
        for path in (di._sparse_discs, di._hermitian_gram):
            tracemalloc.start()
            try:
                path(V, w)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= peaks[1]

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_a_value_that_is_not_finite_gives_nan_bounds(self, bad, paths_taken):
        # NaN takes the sparse path; an infinite value the dense one, whose
        # products inf * 0 with the other rows' zeros are NaN
        values = np.eye(8)
        values[3, 3] = bad
        ons = OrthonormalSystem(*pair([1.0] * 8, [1] * 8), values)
        with np.errstate(invalid="ignore"):
            lower, upper = gershgorin_bounds(ons)
        assert math.isnan(lower) and math.isnan(upper)
        assert paths_taken == ["_sparse_discs" if math.isnan(bad) else "_hermitian_gram"]

    def test_non_hermitian_gram_is_refused(self):
        system = non_hermitian_gram_system()
        with pytest.raises(StructuralError, match="not Hermitian"):
            di._sparse_discs(system.values, expanded_weights(system.space, system.fibers))

    def test_no_nonzero_value(self):
        ons = OrthonormalSystem(*pair([1.0, 1.0], [1, 1]), np.zeros((3, 2)))
        assert gershgorin_bounds(ons) == (0.0, 0.0)


class TestValidateOns:
    def test_exact_basis(self, std3):
        _, _, system = std3
        ok, rep = validate_ons(system, tol=1e-12)
        assert ok
        assert rep.max_offdiag_abs == 0.0

    def test_oblique_pair_fails(self):
        space = measure([1.0, 1.0])
        c = 1.0 / math.sqrt(2.0)
        system = OrthonormalSystem.from_elements(
            space, [element([[1.0], [0.0]]), element([[c], [c]])])
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
            lhs = norm(el, space) ** 2
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

    @pytest.mark.parametrize("weights", [np.ones((2, 2)), np.ones(0)], ids=["2-d", "empty"])
    def test_weights_must_be_a_nonempty_row(self, weights):
        with pytest.raises(StructuralError, match="weights must be a nonempty 1-d array"):
            MeasureSpace(weights=weights)

    def test_dims_must_be_nonempty(self):
        with pytest.raises(StructuralError, match="dims must be a nonempty 1-d array"):
            HilbertCollection(dims=[])

    def test_dims_positive(self):
        with pytest.raises(StructuralError, match="atom 1"):
            HilbertCollection(dims=np.array([1, 0]))

    def test_complex_element_in_real_collection(self):
        # a complex element and a real one have no common collection
        space = measure([1.0])
        f = element([[1.0 + 1j]], field=Field.COMPLEX)
        g = element([[1.0]])
        for a, b in ((f, g), (g, f)):
            with pytest.raises(StructuralError, match="elements used together"):
                inner_product(a, b, space)
        with pytest.raises(StructuralError, match="complex and real elements used together"):
            OrthonormalSystem.from_elements(space, [f, g])

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

    def test_collections_and_elements_compare_by_identity(self):
        # generated __eq__/__hash__ over their arrays raised ValueError and
        # TypeError; equal layouts are compared with np.array_equal instead
        twins = [(HilbertCollection(dims=[1, 2]), HilbertCollection(dims=[1, 2])),
                 (element([[1.0], [2.0, 3.0]]), element([[1.0], [2.0, 3.0]]))]
        for a, b in twins:
            assert a == a and a != b and not a == b
            assert hash(a) == hash(a) and len({a, b}) == 2

    def test_measure_spaces_compare_by_identity(self):
        # as for the collections: a generated __eq__ over the weights raised
        # ValueError, and __hash__ TypeError
        a, b = MeasureSpace(weights=[1.0, 2.0]), MeasureSpace(weights=[1.0, 2.0])
        assert a == a and a != b and not a == b
        assert hash(a) == hash(a) and len({a, b}) == 2

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
