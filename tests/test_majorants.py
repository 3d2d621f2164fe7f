import dataclasses
import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import orthoseries.majorants as mj
from orthoseries import (AdversarialStrategy, ContractError, Field,
                         HilbertCollection, MeasureSpace, OrthonormalSystem,
                         StructuralError, SystemKind, SystemSpec, adversarial_permutation,
                         chaining_diagnostics, dyadic_decomposition,
                         dyadic_pointwise_bound, generate, majorant,
                         permuted_majorant, prefix_sum, tandori_blocks,
                         tandori_delta, validate_ons)
from orthoseries.direct_integral import expanded_weights
from orthoseries.summation import compensated_sum
from orthoseries.systems import seeded_rng
from orthoseries.verify import default_config

from conftest import rng


# ---------------------------------------------------------------------------
# independent oracles


def brute_majorant(system, coeffs, n):
    """Materialize every prefix with plain loops; per-atom maxima directly."""
    coeffs = np.asarray(coeffs, dtype=system.values.dtype)
    m = system.space.n_atoms
    offsets = system.fibers.offsets
    best = np.full(m, -1.0)
    arg = np.zeros(m, dtype=int)
    for j in range(1, n + 1):
        flat = np.zeros(system.values.shape[1], dtype=system.values.dtype)
        for i in range(j):
            flat = flat + coeffs[i] * system.values[i]
        for atom in range(m):
            seg = flat[offsets[atom]:offsets[atom + 1]]
            val = math.sqrt(float(np.sum(np.abs(seg) ** 2)))
            if val > best[atom]:
                best[atom] = val
                arg[atom] = j
    l2 = math.sqrt(math.fsum(float(w) * v * v
                             for w, v in zip(system.space.weights, best)))
    return best, arg, l2


def brute_dyadic_rhs(h, r):
    """Triple-loop evaluation of the dyadic block right-hand side."""
    h = np.atleast_2d(np.asarray(h))
    full = np.zeros(((1 << r), h.shape[1]), dtype=h.dtype)
    full[:h.shape[0]] = h
    total = 0.0
    for k in range(r + 1):
        size = 1 << (r - k)
        for p in range(1 << k):
            block = full[p * size:(p + 1) * size]
            s = np.zeros(h.shape[1], dtype=h.dtype)
            for row in block:
                s = s + row
            total += float(np.sum(np.abs(s) ** 2))
    return (r + 1) * total


def brute_delta(system, coeffs, order, k, n):
    """All-pairs oscillation over the block-filtered permuted series."""
    lo, hi = tandori_blocks(n).ranges[k]
    a = np.array(coeffs, dtype=system.values.dtype)
    a[:2] = 0
    prefixes = [np.zeros(system.values.shape[1], dtype=system.values.dtype)]
    for src in order[:n]:
        if lo - 1 <= src < hi:
            prefixes.append(prefixes[-1] + a[src] * system.values[src])
    offsets = system.fibers.offsets
    m = system.space.n_atoms
    out = np.zeros(m)
    for atom in range(m):
        seg = slice(offsets[atom], offsets[atom + 1])
        best = 0.0
        for i in range(len(prefixes)):
            for j in range(i + 1, len(prefixes)):
                diff = prefixes[j][seg] - prefixes[i][seg]
                best = max(best, float(np.sum(np.abs(diff) ** 2)))
        out[atom] = math.sqrt(best)
    return out


def per_atom_diameters(prefixes, offsets):
    """All-pairs diameters one atom at a time: sum_k (x_ik - x_jk)^2 added in
    coordinate order on real coordinates (complex as (re, im) pairs).  The
    kernel must reproduce its bits exactly, candidate filter or not."""
    if prefixes.dtype.kind == "c":
        prefixes, offsets = prefixes.view(np.float64), 2 * offsets
    m = prefixes.shape[0]
    out = np.zeros(offsets.size - 1)
    for i in range(offsets.size - 1):
        pts = prefixes[:, offsets[i]:offsets[i + 1]]
        d2 = np.zeros((m, m))
        for k in range(pts.shape[1]):
            t = pts[:, k, None] - pts[None, :, k]
            d2 += t * t
        out[i] = math.sqrt(d2.max())
    return out


def per_step_greedy(system, coeffs, n):
    """The greedy adversary by its definition, recomputing <v, phi_j> from V
    at every step, as a 0-based list: on untied draws, the reference that the
    decreasing-|a_n| sort of ``adversarial_permutation`` reproduces by
    Parseval."""
    a = np.asarray(coeffs, dtype=system.values.dtype)
    V = system.values[:n]
    Vc = np.conj(V) if V.dtype.kind == "c" else V
    w = expanded_weights(system.space, system.fibers)
    fn_sq = np.real(np.sum(w * np.abs(V) ** 2, axis=1))
    mask = np.ones(n, dtype=bool)
    v = np.zeros(V.shape[1], dtype=V.dtype)
    v_sq = 0.0
    order = []
    for _ in range(n):
        ips = (w * v) @ Vc.T
        scores = v_sq + 2.0 * np.real(np.conj(a[:n]) * ips) + np.abs(a[:n]) ** 2 * fn_sq
        scores[~mask] = -np.inf
        pick = int(np.argmax(scores))
        mask[pick] = False
        order.append(pick)
        v = v + a[pick] * V[pick]
        v_sq = float(np.real(np.sum(w * np.abs(v) ** 2)))
    return order


# The per-term loops the prefix sweep replaced.  Their bits are the
# reference the sweep must reproduce exactly.


def reduceat_sq_norms(flat, offsets):
    mag = flat.real ** 2 + flat.imag ** 2 if flat.dtype.kind == "c" else flat ** 2
    return np.add.reduceat(mag, offsets[:-1], axis=-1)


def weighted_l2(system, sq):
    return math.sqrt(max(float(np.sum(system.space.weights * sq)), 0.0))


def per_term_profile(system, coeffs, order):
    """One running sum advanced a term at a time; (values, argmax, l2)."""
    a = np.asarray(coeffs, dtype=system.values.dtype)
    V = system.values
    running = np.zeros(V.shape[1], dtype=V.dtype)
    best = arg = None
    for pos, idx in enumerate(order):
        running += a[idx] * V[idx]
        sq = reduceat_sq_norms(running, system.fibers.offsets)
        if best is None:
            best, arg = sq, np.ones(sq.size, dtype=np.int64)
        else:
            upd = sq > best
            best[upd] = sq[upd]
            arg[upd] = pos + 1
    return np.sqrt(best), arg, weighted_l2(system, best)


def per_term_chaining(system, coeffs):
    """Every ChainingDiagnostics field, from a running and a within-block sum
    advanced a term at a time over the m coefficients given, zero-padded to
    the first length n = 2^(K+1) - 1 >= m; the terms go on to the end of the
    block or of the system, whichever comes first."""
    m_given = len(coeffs)
    K = 0
    while (1 << (K + 1)) - 1 < m_given:
        K += 1
    n = (1 << (K + 1)) - 1
    a = np.zeros(n, dtype=system.values.dtype)
    a[:m_given] = coeffs
    V = system.values
    offsets = system.fibers.offsets
    m = system.space.n_atoms
    running = np.zeros(V.shape[1], dtype=V.dtype)
    best_sq, dyad_sq = np.zeros(m), np.zeros(m)
    block_norms, block_coeff_sq, inner_sup = np.empty(K + 1), np.empty(K + 1), np.empty(K + 1)
    for k in range(K + 1):
        lo, hi = 1 << k, (1 << (k + 1)) - 1
        inner = np.zeros_like(running)
        inner_sq = np.zeros(m)
        for j in range(lo, min(hi, len(system)) + 1):
            term = a[j - 1] * V[j - 1]
            running += term
            inner += term
            np.maximum(best_sq, reduceat_sq_norms(running, offsets), out=best_sq)
            np.maximum(inner_sq, reduceat_sq_norms(inner, offsets), out=inner_sq)
        np.maximum(dyad_sq, reduceat_sq_norms(running, offsets), out=dyad_sq)
        block_norms[k] = weighted_l2(system, reduceat_sq_norms(inner, offsets))
        block_coeff_sq[k] = compensated_sum(np.abs(a[lo - 1:hi]) ** 2)
        inner_sup[k] = weighted_l2(system, inner_sq)
    weyl_mass = compensated_sum(np.abs(a[:n]) ** 2
                                * np.log2(np.arange(1, n + 1, dtype=float) + 1.0) ** 2)
    return dict(
        n=n, k_max=K, block_norms=block_norms, block_coeff_sq=block_coeff_sq,
        inner_sup_norms=inner_sup, dyadic_sup_l2=weighted_l2(system, dyad_sq),
        majorant_l2=weighted_l2(system, best_sq), weyl_mass=weyl_mass,
        block_norm_sum=compensated_sum(block_norms),
        block_norm_sum_bound=2.0 * math.sqrt(weyl_mass),
        inner_sq_sum=compensated_sum(inner_sup ** 2),
        inner_sq_bound=4.0 * weyl_mass, majorant_bound=4.0 * math.sqrt(weyl_mass))


def per_term_delta(system, coeffs, order, k, n):
    """(values, doubled_one_sided, l2) of block k: the scalar-real envelope
    loop and the cumsum vector branch."""
    a = np.array(coeffs, dtype=system.values.dtype)
    a[:2] = 0
    lo, hi = tandori_blocks(n).ranges[k]
    src = [s for s in order[:n] if lo - 1 <= s < hi]
    V = system.values
    offsets = system.fibers.offsets
    m = system.space.n_atoms
    if np.all(system.fibers.dims == 1) and V.dtype.kind != "c":
        running, hi_env, lo_env, one_sided = (np.zeros(m) for _ in range(4))
        for i in src:
            running = running + a[i] * V[i]
            np.maximum(hi_env, running, out=hi_env)
            np.minimum(lo_env, running, out=lo_env)
            np.maximum(one_sided, np.abs(running), out=one_sided)
        values, doubled = hi_env - lo_env, 2.0 * one_sided
    else:
        prefixes = np.zeros((len(src) + 1, V.shape[1]), dtype=V.dtype)
        np.cumsum(a[src, None] * V[src], axis=0, out=prefixes[1:])
        values = mj._pointwise_diameters(prefixes, offsets)
        doubled = 2.0 * np.sqrt(reduceat_sq_norms(prefixes[1:], offsets).max(axis=0))
    return values, doubled, weighted_l2(system, values ** 2)


def random_coeffs(system, seed):
    gen = rng(seed)
    b = gen.standard_normal(len(system))
    if system.fibers.field is Field.COMPLEX:
        b = b + 1j * gen.standard_normal(len(system))
    return b


# ---------------------------------------------------------------------------
# prefix sums and majorants


class TestPrefixSum:
    def test_single_zero_coefficient(self, std3):
        _, _, system = std3
        el = prefix_sum(system, [0.0])
        assert np.all(el.values == 0)

    def test_standard_basis_expansion(self, std3):
        _, _, system = std3
        el = prefix_sum(system, [3.0, 4.0])
        assert list(el.values) == [3.0, 4.0, 0.0]

    def test_rademacher_sign_addition(self):
        _, _, system = generate(SystemSpec(SystemKind.RADEMACHER, 2))
        el = prefix_sum(system, [1.0, 1.0])
        assert list(el.values) == [2.0, 0.0, 0.0, -2.0]

    def test_out_of_range(self, std3):
        _, _, system = std3
        with pytest.raises(ContractError):
            prefix_sum(system, [1.0, 1.0, 1.0, 1.0])


class TestMajorant:
    def test_standard_basis_example(self):
        _, _, system = generate(SystemSpec(SystemKind.STANDARD_BASIS, 2))
        prof = majorant(system, [3.0, 4.0])
        assert list(prof.values) == [3.0, 4.0]
        assert prof.l2_norm == 5.0
        assert list(prof.argmax_prefix) == [1, 2]

    def test_zero_coefficients(self, std3):
        _, _, system = std3
        prof = majorant(system, np.zeros(3))
        assert np.all(prof.values == 0)
        assert prof.l2_norm == 0.0

    def test_rademacher_example(self):
        _, _, system = generate(SystemSpec(SystemKind.RADEMACHER, 2))
        prof = majorant(system, [1.0, 1.0])
        assert list(prof.values) == [2.0, 1.0, 1.0, 2.0]
        assert prof.l2_norm == pytest.approx(math.sqrt(2.5), rel=1e-15)

    def test_matches_brute_force(self):
        gen = rng(17)
        kinds = [SystemKind.STANDARD_BASIS, SystemKind.HAAR,
                 SystemKind.RANDOM_QR, SystemKind.VARYING_DIM]
        for trial in range(30):
            kind = kinds[trial % len(kinds)]
            n = int(gen.integers(1, 9))
            kw = {"resolution": 4, "fiber_dim": 2, "seed": trial} \
                if kind is SystemKind.RANDOM_QR else {}
            _, _, system = generate(SystemSpec(kind, n, **kw))
            b = gen.standard_normal(n)
            prof = majorant(system, b)
            values, arg, l2 = brute_majorant(system, b, n)
            assert prof.values == pytest.approx(values, rel=1e-13, abs=1e-15)
            assert np.array_equal(prof.argmax_prefix, arg)
            assert prof.l2_norm == pytest.approx(l2, rel=1e-13)

    def test_first_prefix_lower_bound(self):
        gen = rng(3)
        _, _, system = generate(SystemSpec(SystemKind.HAAR, 8))
        for _ in range(20):
            b = gen.standard_normal(8)
            prof = majorant(system, b)
            first = np.abs(prefix_sum(system, b[:1]).values)
            per_atom_first = np.sqrt(np.add.reduceat(first ** 2,
                                                     system.fibers.offsets[:-1]))
            assert np.all(prof.values >= per_atom_first - 1e-15)

    def test_argmax_is_first_achiever(self):
        # two prefixes attain the same pointwise value at atom 0
        _, _, system = generate(SystemSpec(SystemKind.STANDARD_BASIS, 2))
        prof = majorant(system, [1.0, 1.0])
        assert prof.argmax_prefix[0] == 1

    def test_monotone_in_prefix_count(self):
        gen = rng(23)
        _, _, system = generate(
            SystemSpec(SystemKind.RANDOM_QR, 16, resolution=8, fiber_dim=2, seed=5))
        b = gen.standard_normal(16)
        norms = [majorant(system, b[:n]).l2_norm for n in range(1, 17)]
        assert np.all(np.diff(norms) >= 0)

    def test_complex_coefficients_on_real_system_rejected(self, std3):
        _, _, system = std3
        with pytest.raises(StructuralError):
            majorant(system, np.array([1j, 0, 0]))

    def test_zero_weight_atom_pointwise_but_not_l2(self):
        # null atoms still get pointwise profile values; the L2 norm
        # ignores them
        from orthoseries import HilbertCollection, MeasureSpace, OrthonormalSystem
        space = MeasureSpace(weights=np.array([1.0, 0.0]))
        fibers = HilbertCollection(dims=np.array([1, 1]))
        system = OrthonormalSystem(space, fibers, np.array([[1.0, 5.0]]))
        assert validate_ons(system, 1e-12)[0]
        prof = majorant(system, [2.0])
        assert list(prof.values) == [2.0, 10.0]
        assert prof.l2_norm == 2.0


# ---------------------------------------------------------------------------
# dyadic decomposition and pointwise bound


class TestDyadicDecomposition:
    def test_five_of_eight(self):
        d = dyadic_decomposition(5, 3)
        assert d.bits == (0, 1, 0, 1)
        assert d.blocks == ((0, 4), (4, 5))

    def test_seven_of_eight(self):
        assert dyadic_decomposition(7, 3).blocks == ((0, 4), (4, 6), (6, 7))

    def test_full_range_single_block(self):
        for r in range(0, 8):
            d = dyadic_decomposition(1 << r, r)
            assert d.blocks == ((0, 1 << r),)

    def test_exhaustive_partition_up_to_r10(self):
        for r in range(0, 11):
            for j in range(1, (1 << r) + 1):
                d = dyadic_decomposition(j, r)
                assert len(d.blocks) <= r + 1
                assert sum(bit << (r - k) for k, bit in enumerate(d.bits)) == j
                cursor = 0
                for lo, hi in d.blocks:
                    assert lo == cursor
                    cursor = hi
                assert cursor == j
                sizes = [hi - lo for lo, hi in d.blocks]
                assert sizes == [1 << (r - k) for k, b in enumerate(d.bits) if b]

    def test_sampled_partition_up_to_r16(self):
        gen = rng(61)
        for r in range(11, 17):
            for j in gen.integers(1, (1 << r) + 1, size=50):
                d = dyadic_decomposition(int(j), r)
                assert len(d.blocks) <= r + 1
                assert d.blocks[0][0] == 0
                assert d.blocks[-1][1] == j

    def test_rejects_out_of_range(self):
        with pytest.raises(ContractError):
            dyadic_decomposition(0, 3)
        with pytest.raises(ContractError):
            dyadic_decomposition(9, 3)


class TestDyadicPointwiseBound:
    def test_all_zero(self):
        lhs, rhs = dyadic_pointwise_bound(np.zeros((4, 2)), 2)
        assert (lhs, rhs) == (0.0, 0.0)

    def test_single_scalar(self):
        lhs, rhs = dyadic_pointwise_bound(np.array([[1.0]]), 0)
        assert (lhs, rhs) == (1.0, 1.0)

    def test_three_ones(self):
        lhs, rhs = dyadic_pointwise_bound(np.ones((3, 1)), 2)
        assert lhs == 9.0
        assert rhs == 51.0

    def test_a_flat_list_is_scalar_terms(self):
        # [1, 2] is two terms, not one vector: lhs = 3^2, rhs = 2 (9 + 1 + 4)
        assert dyadic_pointwise_bound([1.0, 2.0], 1) == (9.0, 28.0)
        assert dyadic_pointwise_bound([1.0, 2.0], 1) == dyadic_pointwise_bound([[1.0], [2.0]], 1)

    @pytest.mark.parametrize("h,r,error,message", [
        ([[1.0]], -1, ContractError, "r must be >= 0"),
        ([["a"]], 1, StructuralError, "h must be a sequence of equal-length vectors"),
        ([[1.0], [2.0], [3.0]], 1, ContractError, "j=3 outside [1, 2^1]"),
        ([1.0, 2.0, 3.0], 1, ContractError, "j=3 outside [1, 2^1]"),
        ([[1.0], [2.0, 3.0]], 1, StructuralError, "h must be a sequence of equal-length vectors"),
    ], ids=["negative-r", "non-numeric", "j-over-2^r", "flat-list-of-3-terms", "ragged"])
    def test_refusals(self, h, r, error, message):
        with pytest.raises(error, match=re.escape(message)):
            dyadic_pointwise_bound(h, r)

    def test_against_brute_force(self):
        gen = rng(99)
        for trial in range(60):
            r = int(gen.integers(0, 7))
            j = int(gen.integers(1, (1 << r) + 1))
            d = int(gen.integers(1, 4))
            h = gen.standard_normal((j, d))
            if trial % 3 == 0:
                h = h + 1j * gen.standard_normal((j, d))
            lhs, rhs = dyadic_pointwise_bound(h, r)
            assert rhs == pytest.approx(brute_dyadic_rhs(h, r), rel=1e-13)
            assert lhs <= rhs * (1 + 1e-12) + 1e-300


# ---------------------------------------------------------------------------
# chaining diagnostics


class TestChaining:
    def test_zero_coefficients(self, std3):
        _, _, system = std3
        diag = chaining_diagnostics(system, np.zeros(3))
        assert diag.majorant_l2 == 0.0
        assert diag.block_norm_sum == 0.0
        assert diag.inner_sq_sum == 0.0

    def test_standard_basis_three(self, std3):
        _, _, system = std3
        diag = chaining_diagnostics(system, [1.0, 0.5, 0.5])
        assert diag.block_norms == pytest.approx([1.0, math.sqrt(0.5)], rel=1e-15)
        assert diag.block_norm_sum == pytest.approx(1.0 + math.sqrt(0.5), rel=1e-15)
        assert diag.weyl_mass == pytest.approx(2.628026532173065, rel=1e-15)
        assert diag.block_norm_sum_bound == pytest.approx(
            2 * math.sqrt(2.628026532173065), rel=1e-15)
        assert diag.majorant_l2 == pytest.approx(math.sqrt(1.5), rel=1e-15)
        assert diag.majorant_bound == pytest.approx(
            4 * math.sqrt(2.628026532173065), rel=1e-15)
        assert diag.majorant_l2 <= diag.majorant_bound

    def test_harness_style_trial(self):
        _, _, system = generate(
            SystemSpec(SystemKind.RANDOM_QR, 31, resolution=64, fiber_dim=1, seed=7))
        b = 1.0 / np.arange(1, 32)
        diag = chaining_diagnostics(system, b)
        assert diag.block_norm_sum <= diag.block_norm_sum_bound * (1 + 1e-12)
        assert diag.inner_sq_sum <= diag.inner_sq_bound * (1 + 1e-12)
        assert diag.majorant_l2 <= diag.majorant_bound * (1 + 1e-12)

    def test_parseval_per_block(self):
        gen = rng(4)
        _, _, system = generate(
            SystemSpec(SystemKind.RANDOM_QR, 15, resolution=5, fiber_dim=3, seed=11))
        b = gen.standard_normal(15)
        diag = chaining_diagnostics(system, b)
        assert diag.block_norms ** 2 == pytest.approx(diag.block_coeff_sq, rel=1e-10)

    def test_triangle_step_and_dyadic_sup(self):
        gen = rng(5)
        for trial in range(30):
            _, _, system = generate(
                SystemSpec(SystemKind.RANDOM_QR, 31, resolution=31, seed=trial))
            b = gen.standard_normal(31)
            diag = chaining_diagnostics(system, b)
            # sup over complete-block prefixes is dominated by the block-norm
            # sum, and the full majorant by the triangle decomposition
            assert diag.dyadic_sup_l2 <= diag.block_norm_sum * (1 + 1e-12)
            assert diag.majorant_l2 <= (diag.dyadic_sup_l2 +
                                        math.sqrt(diag.inner_sq_sum)) * (1 + 1e-12)
            assert diag.dyadic_sup_l2 <= diag.majorant_l2 * (1 + 1e-12)

    @pytest.mark.parametrize("spec", [SystemSpec(SystemKind.HAAR, 8),
                                      SystemSpec(SystemKind.RADEMACHER, 5)],
                             ids=lambda spec: spec.describe())
    def test_pads_an_incomplete_length_itself(self, spec):
        # five coefficients give the chain of their explicit zero-padding to 7
        system = generate(spec)[2]
        b = random_coeffs(system, 98)[:5]
        padded = np.concatenate([b, np.zeros(2)])
        diag = chaining_diagnostics(system, b)
        want = per_term_chaining(system, padded)
        assert (diag.n, diag.k_max) == (7, 2)
        for field in dataclasses.fields(diag):
            assert np.array_equal(getattr(diag, field.name), want[field.name]), field.name
        if len(system) >= 7:
            explicit = chaining_diagnostics(system, padded)
            for field in dataclasses.fields(diag):
                assert np.array_equal(getattr(diag, field.name),
                                      getattr(explicit, field.name)), field.name

    def test_coefficients_past_the_system_are_refused(self, std3):
        # as by every other kernel, zero or not
        _, _, system = std3
        for b in ([1.0, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0], [1.0, 0.5, 0.5, 0.1]):
            with pytest.raises(ContractError, match=r"prefix length \d outside \[1, 3\]"):
                majorant(system, b)
            with pytest.raises(ContractError, match=r"prefix length \d outside \[1, 3\]"):
                chaining_diagnostics(system, b)
        with pytest.raises(ContractError, match=r"prefix length 0 outside"):
            chaining_diagnostics(system, [])
        with pytest.raises(StructuralError, match="one-dimensional"):
            chaining_diagnostics(system, np.ones((1, 3)))


# ---------------------------------------------------------------------------
# the prefix sweep against the per-term loops it replaced


SWEEP_SPECS = {
    "standard-basis": SystemSpec(SystemKind.STANDARD_BASIS, 20),
    "haar": SystemSpec(SystemKind.HAAR, 32),
    "rademacher": SystemSpec(SystemKind.RADEMACHER, 5),
    "random-qr-real-d2": SystemSpec(SystemKind.RANDOM_QR, 24, resolution=12,
                                    fiber_dim=2, seed=11),
    "random-qr-complex": SystemSpec(SystemKind.RANDOM_QR, 24, resolution=24, seed=12,
                                    field=Field.COMPLEX),
    "tensor-vector": SystemSpec(SystemKind.TENSOR_VECTOR, 24, fiber_dim=3),
    "varying-dim": SystemSpec(SystemKind.VARYING_DIM, 24),
}


# the kinds with a block that takes the compact prefix rows
SPARSE_SWEEP_KINDS = ("haar", "standard-basis")


@pytest.fixture(params=sorted(SWEEP_SPECS))
def sweep_system(request):
    return generate(SWEEP_SPECS[request.param])[2]


@pytest.fixture(params=["default", "one-row", "mid-system", "block-start"])
def prefix_budget(request, sweep_system, monkeypatch):
    """PREFIX_BUDGET at its default, at one row per step, at a value whose
    steps split the system mid-way, and at three rows per unbatched step, so
    the dyadic blocks starting at positions 3 and 15 start a step too."""
    width = sweep_system.values.shape[1]
    budget = {"default": mj.PREFIX_BUDGET, "one-row": 1,
              "mid-system": width * (len(sweep_system) // 2) + width // 2,
              "block-start": 3 * width}[request.param]
    monkeypatch.setattr(mj, "PREFIX_BUDGET", budget)
    return budget


def sweep_coeffs(system):
    """Random coefficients with zeros in them, all-zero coefficients, and
    coefficients so small that their squares underflow."""
    b = random_coeffs(system, 90)
    b[::3] = 0
    return [b, np.zeros_like(b), 1e-160 * b]


class TestPrefixSweep:
    def test_majorants_bitwise_equal_to_per_term_loop(self, sweep_system, prefix_budget):
        system = sweep_system
        # the whole system and a prefix shorter than it
        for n in (len(system), len(system) - 2):
            for b in sweep_coeffs(system):
                shuffle = seeded_rng(91).permutation(n)
                for prof, order in ((majorant(system, b[:n]), range(n)),
                                    (permuted_majorant(system, b[:n], shuffle), shuffle)):
                    values, arg, l2 = per_term_profile(system, b, order)
                    assert np.array_equal(prof.values, values)
                    assert np.array_equal(prof.argmax_prefix, arg)
                    assert prof.l2_norm == l2

    def test_chaining_bitwise_equal_to_per_term_loop(self, sweep_system, prefix_budget):
        system = sweep_system
        n_sys = len(system)
        # the longest complete prefix inside the system, the whole system
        # (padded past it unless complete) and a prefix two short of it
        for m in sorted({(1 << (n_sys + 1).bit_length() - 1) - 1, n_sys, n_sys - 2}):
            for b in sweep_coeffs(system):
                diag = chaining_diagnostics(system, b[:m])
                want = per_term_chaining(system, b[:m])
                for field in dataclasses.fields(diag):
                    assert np.array_equal(getattr(diag, field.name), want[field.name]), field.name

    @pytest.mark.parametrize("budget", [mj.PREFIX_BUDGET, 1], ids=["default", "one-row"])
    def test_chaining_makes_one_prefix_pass_per_block(self, budget, monkeypatch):
        # one pass per dyadic block, whatever the step count: a batch of two
        # orders over the block's positions, the first continued from the
        # running sum at the previous block's end, the second from zero
        monkeypatch.setattr(mj, "PREFIX_BUDGET", budget)
        passes = []
        sweep = mj._prefix_rows

        def counted(V, coeffs, order, start, *args):
            passes.append((order.copy(), start.copy()))
            return sweep(V, coeffs, order, start, *args)

        monkeypatch.setattr(mj, "_prefix_rows", counted)
        system = generate(SystemSpec(SystemKind.HAAR, 64))[2]
        b = random_coeffs(system, 97)
        for m in (1, 2, 3, 5, 7, 15, 31, 33, 63, 64):
            passes.clear()
            diag = chaining_diagnostics(system, b[:m])
            assert (diag.n, diag.k_max) == ((2 << diag.k_max) - 1, m.bit_length() - 1)
            assert len(passes) == diag.k_max + 1
            for k, (order, start) in enumerate(passes):
                block = np.arange((1 << k) - 1, min((2 << k) - 1, m))
                assert order.shape == (2, block.size)
                assert np.array_equal(order, [block, block])
                running = prefix_sum(system, b[:block[0]]).values if k else 0.0
                assert np.allclose(start[0], running, rtol=1e-12, atol=1e-12)
                assert np.all(start[1] == 0)

    def test_sweep_continued_from_start_is_the_whole_sweep(self, sweep_system, prefix_budget):
        # split at every position, a batch of two orders: the second part,
        # started from the first part's last sums, ends on the whole
        # sweep's, and the two parts' sups and argmaxes make up its own
        system = sweep_system
        V, offsets, n = system.values, system.fibers.offsets, len(system)
        orders = np.stack([np.arange(n), seeded_rng(101).permutation(n)])
        for b in sweep_coeffs(system):
            a = b.astype(V.dtype)
            sup, arg, final = mj._sweep(V, offsets, a, orders, first_arg=True)
            for p in range(1, n):
                head_sup, head_arg, head_end = mj._sweep(V, offsets, a, orders[:, :p],
                                                         first_arg=True)
                tail_sup, tail_arg, tail_end = mj._sweep(V, offsets, a, orders[:, p:],
                                                         head_end, first_arg=True)
                assert tail_end.tobytes() == final.tobytes(), p
                assert np.maximum(head_sup, tail_sup).tobytes() == sup.tobytes(), p
                assert np.array_equal(np.where(tail_sup > head_sup, p + tail_arg, head_arg),
                                      arg), p

    def test_chaining_memory_bounded_by_the_prefix_budget(self):
        # Haar n=4096 (K = 12, 13 block sweeps of two orders over 4096
        # coordinates): a step's prefix buffer and squared norms, and the
        # per-block sups and ends; measured 6.9 budgets of float64
        system = generate(SystemSpec(SystemKind.HAAR, 4096))[2]
        b = random_coeffs(system, 102)
        tracemalloc.start()
        try:
            diag = chaining_diagnostics(system, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert diag.k_max == 12 and math.isfinite(diag.majorant_l2)
        assert peak <= 8 * mj.PREFIX_BUDGET * system.values.itemsize, peak

    def test_tandori_delta_bitwise_equal_to_per_term_loops(self, sweep_system, prefix_budget):
        system = sweep_system
        for n in (len(system), len(system) - 2):
            orders = (np.arange(n), seeded_rng(92).permutation(n),
                      adversarial_permutation(system, np.ones(n), n,
                                              AdversarialStrategy.BLOCK_REVERSAL))
            for b, order, k in itertools.product(sweep_coeffs(system), orders,
                                                 range(tandori_blocks(n).k_max + 1)):
                osc = tandori_delta(system, b[:n], order, k)
                values, doubled, l2 = per_term_delta(system, b, order, k, n)
                assert np.array_equal(osc.values, values)
                assert np.array_equal(osc.doubled_one_sided, doubled)
                assert osc.l2 == l2

    @pytest.mark.parametrize("route", ["filter", "default"])
    def test_block_oscillations_bitwise_equal_to_per_term_loops(self, sweep_system, prefix_budget,
                                                                 route, monkeypatch):
        # the five plans of a verify trial in one batch, each against a loop
        # over that plan alone; PREFIX_BUDGET = 1 gives each atom its own chunk
        if route == "filter":
            monkeypatch.setattr(mj, "_filtered", lambda m, d: True)
        system = sweep_system
        n = len(system)
        for b in sweep_coeffs(system):
            orders = np.stack([np.arange(n)]
                              + [seeded_rng(s).permutation(n) for s in (95, 96)]
                              + [adversarial_permutation(system, b, n, strategy)
                                 for strategy in AdversarialStrategy])
            for k in range(tandori_blocks(n).k_max + 1):
                osc = mj.block_oscillations(system, b, orders, k)
                atoms = system.fibers.offsets.size - 1
                assert osc.values.shape == osc.doubled_one_sided.shape == (5, atoms)
                assert osc.l2.shape == (5,)
                for p, order in enumerate(orders):
                    values, doubled, l2 = per_term_delta(system, b, order, k, n)
                    assert np.array_equal(osc.values[p], values)
                    assert np.array_equal(osc.doubled_one_sided[p], doubled)
                    assert osc.l2[p] == l2

    @pytest.mark.parametrize("path", ["shipped", "dense"])
    def test_block_oscillations_one_atom_per_chunk(self, sweep_system, path, request,
                                                    monkeypatch):
        # PREFIX_BUDGET = 1 streams every chunked block one atom at a time:
        # every array keeps the bits of the default budget, NaN included.
        # Per block, a dense one off scalar real fibers sweeps once per atom,
        # a dense one on scalar real fibers sweeps once, and a compact one
        # builds its rows once per atom without a sweep
        system = sweep_system
        n = len(system)
        nan = random_coeffs(system, 98)
        nan[n // 2] = np.nan
        orders = np.stack([np.arange(n), seeded_rng(99).permutation(n),
                           adversarial_permutation(system, np.ones(n), n,
                                                   AdversarialStrategy.BLOCK_REVERSAL)])
        cases = list(itertools.product(range(4), range(tandori_blocks(n).k_max + 1)))
        if path == "dense":
            monkeypatch.setattr(mj, "_touches", lambda *args: None)

        def run():
            coeffs = sweep_coeffs(system) + [nan]
            with np.errstate(invalid="ignore"):
                return [mj.block_oscillations(system, coeffs[c], orders, k) for c, k in cases]

        default = run()
        monkeypatch.setattr(mj, "PREFIX_BUDGET", 1)
        sweeps, compact, touched = [], [], []
        for name, calls, record in (
                ("_prefix_rows", sweeps, lambda V, *args: V.shape),
                ("_compact_rows", compact, lambda *args: args[-1] - args[-2]),
                ("_touches", touched, None)):
            def counted(*args, real=getattr(mj, name), calls=calls, record=record):
                out = real(*args)
                calls.append(record(*args) if record else out is not None)
                return out
            monkeypatch.setattr(mj, name, counted)
        for want, got in zip(default, run()):
            assert_same_bits(got, want)
        atoms = system.fibers.n_atoms
        assert len(touched) == len(cases)
        assert (sum(touched) > 0) == (path == "shipped" and request.node.callspec.params[
            "sweep_system"] in SPARSE_SWEEP_KINDS)
        assert compact == [1] * (sum(touched) * atoms)
        if system.values.dtype.kind == "c" or np.any(system.fibers.dims > 1):
            # over the block's rows and one atom's columns
            assert len(sweeps) == (len(cases) - sum(touched)) * atoms
            assert {width for _, width in sweeps} == set(system.fibers.dims.tolist())
        else:
            assert len(sweeps) == len(cases) - sum(touched)

    @pytest.mark.parametrize("n", [1024, 2048])
    def test_vector_memory_bounded_by_the_prefix_budget(self, n):
        # tensor-vector d = 4 has 2048 coordinates at n = 2048, where holding
        # the last block's prefixes of two plans at once took 56 MiB; a chunk
        # holds about 4 * PREFIX_BUDGET prefix values
        system = generate(SystemSpec(SystemKind.TENSOR_VECTOR, n, fiber_dim=4))[2]
        b = 1.0 / np.arange(1, n + 1)
        orders = np.stack([np.arange(n), seeded_rng(100).permutation(n)])
        chunk = 4 * mj.PREFIX_BUDGET * system.values.itemsize
        for k in range(2, tandori_blocks(n).k_max + 1):
            tracemalloc.start()
            try:
                osc = mj.block_oscillations(system, b, orders, k)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert np.all(np.isfinite(osc.values)) and np.any(osc.values > 0)
            # a chunk's prefixes, the diameter kernel's gathered copy and
            # the bounds on it: measured 2.3-2.6 chunks at both n (4.5-63
            # with the block's prefixes formed whole)
            assert peak <= 4 * chunk, (k, peak / chunk)

    @pytest.mark.parametrize("dims,field", [([1] * 12, Field.REAL), ([2, 2, 2], Field.REAL),
                                            ([1] * 4, Field.COMPLEX)],
                             ids=["scalar-real", "vector-d2", "scalar-complex"])
    def test_exact_on_a_block_wider_than_any_generated_system(self, dims, field):
        # n = 4400 is past the 2^24-value cap of every generated kind; built
        # by hand, its last block (256, 4400] is 4144 indices wide
        n = 4400
        gen = rng(93)
        space = MeasureSpace(weights=gen.random(len(dims)) + 0.5)
        fibers = HilbertCollection(dims=np.array(dims), field=field)
        values = gen.standard_normal((n, sum(dims)))
        if field is Field.COMPLEX:
            values = values + 1j * gen.standard_normal((n, sum(dims)))
        system = OrthonormalSystem(space, fibers, values)
        b = gen.standard_normal(n) / np.arange(1, n + 1)
        assert tandori_blocks(n).ranges[-1] == (257, 4400)
        for order in (np.arange(n), seeded_rng(94).permutation(n)):
            osc = tandori_delta(system, b, order, 3)
            values, doubled, l2 = per_term_delta(system, b, order, 3, n)
            assert np.array_equal(osc.values, values)
            assert np.array_equal(osc.doubled_one_sided, doubled)
            assert osc.l2 == l2


# ---------------------------------------------------------------------------
# compact prefix rows of sparse blocks against the dense sweep


def both_paths(system, b, orders, k, monkeypatch):
    """block_oscillations as shipped and with the dense prefix rows forced,
    and whether the shipped call took the compact rows."""
    taken = []
    real = mj._touches
    with monkeypatch.context() as patch:
        patch.setattr(mj, "_touches", lambda *args: taken.append(real(*args)) or taken[-1])
        shipped = mj.block_oscillations(system, b, orders, k)
    with monkeypatch.context() as patch:
        patch.setattr(mj, "_touches", lambda *args: None)
        dense = mj.block_oscillations(system, b, orders, k)
    return shipped, dense, taken[0] is not None


def assert_same_bits(got, want):
    for name in ("values", "l2", "doubled_one_sided"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.bound == want.bound or math.isnan(got.bound) and math.isnan(want.bound)


def five_plans(system, b, seed):
    """The plans of a tandori-block trial: identity, two shuffles, greedy and
    block reversal."""
    n = len(system)
    return np.stack([np.arange(n)] + [seeded_rng(seed + s).permutation(n) for s in (0, 1)]
                    + [adversarial_permutation(system, b, n, strategy)
                       for strategy in AdversarialStrategy])


def phased_haar(n):
    """Haar n's rows times one seeded unit phase per atom: complex and sparse,
    as no generated system is."""
    space, fibers, system = generate(SystemSpec(SystemKind.HAAR, n))
    phases = np.exp(1j * rng(110).uniform(0.0, 2.0 * np.pi, fibers.total_dim))
    return OrthonormalSystem(space, HilbertCollection(dims=fibers.dims, field=Field.COMPLEX),
                             system.values * phases)


def banded(touches, dims, field):
    """27 functions on 11 atoms of the given fiber ``dims``: the last Tandori
    block [17, 27] holds m = 11 functions, function 16 + j nonzero on atoms
    j, ..., j + touches - 1 (mod 11), so t = touches and 4(t + 1) = m + 1 at
    t = 2; the first 16 functions are dense (a hand-built system: the
    kernels do not require orthonormality)."""
    gen = rng(111)
    offsets = np.concatenate([[0], np.cumsum(dims)])
    values = gen.standard_normal((27, offsets[-1]))
    if field is Field.COMPLEX:
        values = values + 1j * gen.standard_normal(values.shape)
    mask = np.zeros((11, 11), dtype=bool)
    for j in range(11):
        mask[j, (j + np.arange(touches)) % 11] = True
    values[16:] *= np.repeat(mask, dims, axis=1)
    return OrthonormalSystem(MeasureSpace(weights=gen.random(11) + 0.5),
                             HilbertCollection(dims=np.array(dims), field=field), values)


class TestCompactRows:
    """Sparse blocks take t + 1 compact prefix rows; their results have the
    bits of the dense sweep's m + 1 rows, forced by patching ``_touches``."""

    def test_bitwise_equal_to_dense_on_every_sweep_kind(self, sweep_system, prefix_budget,
                                                        request, monkeypatch):
        system = sweep_system
        n = len(system)
        taken = []
        for b in sweep_coeffs(system):
            orders = five_plans(system, b, 112)
            for k in range(tandori_blocks(n).k_max + 1):
                shipped, dense, compact = both_paths(system, b, orders, k, monkeypatch)
                assert_same_bits(shipped, dense)
                taken.append(compact)
        sparse = request.node.callspec.params["sweep_system"] in SPARSE_SWEEP_KINDS
        assert any(taken) == sparse

    @pytest.mark.parametrize("spec,compact", [
        (SystemSpec(SystemKind.HAAR, 1024), [False, True, True, True]),
        (SystemSpec(SystemKind.VARYING_DIM, 600), [False, False, True, True]),
        (SystemSpec(SystemKind.TENSOR_VECTOR, 2048, fiber_dim=4), [False, False, True, True]),
    ], ids=["haar-1024", "varying-dim-600", "tensor-vector-d4-2048"])
    def test_bitwise_equal_to_dense_on_large_sparse_systems(self, spec, compact, monkeypatch):
        system = generate(spec)[2]
        b = random_coeffs(system, 113)
        orders = five_plans(system, b, 114)
        taken = []
        for k in range(tandori_blocks(len(system)).k_max + 1):
            shipped, dense, path = both_paths(system, b, orders, k, monkeypatch)
            assert_same_bits(shipped, dense)
            assert np.all(np.any(shipped.values > 0, axis=1))
            taken.append(path)
        assert taken == compact

    def test_bitwise_equal_to_dense_on_a_complex_sparse_system(self, monkeypatch):
        system = phased_haar(256)
        b = random_coeffs(system, 115)
        assert b.dtype.kind == "c"
        orders = five_plans(system, b, 116)
        for k in range(3):
            shipped, dense, compact = both_paths(system, b, orders, k, monkeypatch)
            assert_same_bits(shipped, dense)
            assert compact == (k > 0)
            for p, order in enumerate(orders):
                values, doubled, l2 = per_term_delta(system, b, order, k, 256)
                assert np.array_equal(shipped.values[p], values)
                assert np.array_equal(shipped.doubled_one_sided[p], doubled)

    def test_one_dense_atom_makes_the_block_dense(self, monkeypatch):
        # the standard basis n=64 and one more atom on which every function
        # is nonzero: t = m on every block, so no block is compact; without
        # that atom's values the last two blocks are
        n = 64
        values = np.hstack([np.eye(n), np.full((n, 1), 0.125)])
        system = OrthonormalSystem(MeasureSpace(weights=np.ones(n + 1)),
                                   HilbertCollection(dims=np.ones(n + 1, dtype=int)), values)
        sparse = OrthonormalSystem(system.space, system.fibers,
                                   np.hstack([np.eye(n), np.zeros((n, 1))]))
        b = random_coeffs(system, 117)
        orders = five_plans(system, b, 118)
        for k in range(3):
            shipped, dense, compact = both_paths(system, b, orders, k, monkeypatch)
            assert not compact
            assert_same_bits(shipped, dense)
            shipped, dense, compact = both_paths(sparse, b, orders, k, monkeypatch)
            assert compact == (k > 0)
            assert_same_bits(shipped, dense)
            assert shipped.values[:, -1].tolist() == [0.0] * 5

    def test_zero_nan_and_inf_coefficients(self, monkeypatch):
        # zeros keep the compact rows; NaN or inf in a block makes it dense,
        # where NaN * 0 and inf * 0 make every atom's diameter NaN or inf
        # (the compact rows would skip those products, leaving most atoms
        # finite); a block without them stays compact
        system = generate(SystemSpec(SystemKind.HAAR, 256))[2]
        b = random_coeffs(system, 119)
        zero = b.copy()
        zero[16:] = 0
        orders = five_plans(system, b, 120)
        for k in (1, 2):
            shipped, dense, compact = both_paths(system, zero, orders, k, monkeypatch)
            assert compact
            assert_same_bits(shipped, dense)
        assert np.all(shipped.values == 0) and np.all(shipped.doubled_one_sided == 0)
        for bad in (np.nan, np.inf):
            c = b.copy()
            c[200] = bad
            with np.errstate(invalid="ignore"):
                shipped, dense, compact = both_paths(system, c, orders, 2, monkeypatch)
                assert not compact
                assert_same_bits(shipped, dense)
                assert not np.any(np.isfinite(shipped.values))
                for p, order in enumerate(orders):
                    values, doubled, _ = per_term_delta(system, c, order, 2, 256)
                    assert np.array_equal(shipped.values[p], values, equal_nan=True)
                    assert np.array_equal(shipped.doubled_one_sided[p], doubled, equal_nan=True)
                shipped, dense, compact = both_paths(system, c, orders, 1, monkeypatch)
            assert compact
            assert_same_bits(shipped, dense)

    @pytest.mark.parametrize("dims,field", [([1] * 11, Field.REAL), ([2] * 11, Field.REAL),
                                            ([1] * 11, Field.COMPLEX)],
                             ids=["scalar-real", "vector-d2", "scalar-complex"])
    @pytest.mark.parametrize("touches", [0, 2, 3])
    def test_both_sides_of_the_boundary(self, touches, dims, field, monkeypatch):
        # m = 11: 4(t + 1) <= 12 holds at t = 2, not at t = 3; at t = 0 the
        # block's functions are zero and its compact rows still hold two
        system = banded(touches, dims, field)
        b = random_coeffs(system, 121)
        for order in five_plans(system, b, 122):
            shipped, dense, compact = both_paths(system, b, order[None], 2, monkeypatch)
            assert compact == (touches < 3)
            assert_same_bits(shipped, dense)
            values, doubled, l2 = per_term_delta(system, b, order, 2, 27)
            assert np.array_equal(shipped.values[0], values)
            assert np.array_equal(shipped.doubled_one_sided[0], doubled)
            assert shipped.l2[0] == l2

    @pytest.mark.parametrize("spec", [
        SystemSpec(SystemKind.HAAR, 64),
        SystemSpec(SystemKind.TENSOR_VECTOR, 64, fiber_dim=4),
        SystemSpec(SystemKind.RANDOM_QR, 24, resolution=12, fiber_dim=2, seed=11),
        SystemSpec(SystemKind.RANDOM_QR, 24, resolution=24, seed=12, field=Field.COMPLEX),
    ], ids=lambda spec: spec.describe())
    def test_an_empty_batch_of_orders(self, spec, monkeypatch):
        system = generate(spec)[2]
        n = len(system)
        b = random_coeffs(system, 123)
        empty = np.zeros((0, n), dtype=int)
        assert mj.all_orders_l2(system, b, empty).shape == (0,)
        for k in range(tandori_blocks(n).k_max + 1):
            for osc in both_paths(system, b, empty, k, monkeypatch)[:2]:
                assert osc.values.shape == osc.doubled_one_sided.shape == (0, system.fibers.n_atoms)
                assert osc.l2.shape == (0,)

    @pytest.mark.parametrize("spec,dense_peak", [
        (SystemSpec(SystemKind.TENSOR_VECTOR, 2048, fiber_dim=4), 9.28),
        (SystemSpec(SystemKind.HAAR, 4096), 3.86),
        (SystemSpec(SystemKind.VARYING_DIM, 2048), 10.31),
    ], ids=lambda arg: arg.describe() if isinstance(arg, SystemSpec) else "")
    def test_memory_at_most_the_dense_sweeps(self, spec, dense_peak, monkeypatch):
        # the last block with five plans: its tracemalloc peak in budgets of
        # PREFIX_BUDGET float64 values stays at or below the dense sweep's as
        # it was before the compact rows (measured 3.77, 2.90 and 3.13)
        system = generate(spec)[2]
        b = random_coeffs(system, 124)
        orders = five_plans(system, b, 125)
        taken = []
        real = mj._touches
        monkeypatch.setattr(mj, "_touches", lambda *args: taken.append(real(*args)) or taken[-1])
        tracemalloc.start()
        try:
            mj.block_oscillations(system, b, orders, tandori_blocks(len(system)).k_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert taken[0] is not None
        assert peak <= dense_peak * mj.PREFIX_BUDGET * system.values.itemsize, peak


# ---------------------------------------------------------------------------
# every order at once against one permuted_majorant per order


def per_order_l2(system, coeffs, orders):
    """The loop all_orders_l2 replaced: one permuted_majorant per order."""
    return np.array([permuted_majorant(system, coeffs, row).l2_norm for row in orders])


def all_orders(n):
    orders = np.array(list(itertools.permutations(range(n))))
    # n = 7 keeps every 17th of its 5040 orders, so the loop stays short
    return orders[::17] if n == 7 else orders


class TestAllOrders:
    @pytest.mark.parametrize("spec", default_config().system_specs,
                             ids=lambda spec: spec.describe())
    @pytest.mark.parametrize("budget", ["default", "one"])
    def test_bitwise_equal_to_per_order_loop(self, spec, budget, monkeypatch):
        if budget == "one":
            monkeypatch.setattr(mj, "PREFIX_BUDGET", 1)
        for n in range(1, 8) if budget == "default" else (1, 2, 4):
            system = generate(dataclasses.replace(spec, n_functions=n, resolution=None))[2]
            orders = all_orders(n)
            nan = random_coeffs(system, 95)
            nan[n // 2] = np.nan
            for b in sweep_coeffs(system) + [nan]:
                got = mj.all_orders_l2(system, b, orders)
                assert np.array_equal(got, per_order_l2(system, b, orders), equal_nan=True)
                assert np.all(np.isnan(got)) == (b is nan)

    def test_memory_bounded_by_the_prefix_budget(self):
        # Rademacher n=8: D = 256 coordinates, 40,320 orders; holding every
        # order's prefixes at once would take 40320 * 9 * 256 values
        system = generate(SystemSpec(SystemKind.RADEMACHER, 8))[2]
        orders = np.array(list(itertools.permutations(range(8))))
        tracemalloc.start()
        try:
            l2 = mj.all_orders_l2(system, 1.0 / np.arange(1, 9), orders)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert l2.shape == (40320,) and np.all(np.isfinite(l2))
        # one chunk's prefix buffer and squared norms, and the 40,320 sums:
        # measured 3.4 budgets (5.6 with a strided np.take out)
        assert peak <= 4 * mj.PREFIX_BUDGET * system.values.itemsize

    # the batched kernels take a (P, len(coeffs)) order array and the
    # one-order kernels one row of it, each checked by the one rule
    @pytest.mark.parametrize("kernel", [
        mj.all_orders_l2,
        lambda system, b, orders: mj.block_oscillations(system, b, orders, 0),
        lambda system, b, orders: permuted_majorant(system, b, orders[0]),
        lambda system, b, orders: tandori_delta(system, b, orders[0], 0),
    ], ids=["all-orders-l2", "block-oscillations", "permuted-majorant", "tandori-delta"])
    def test_refusals(self, kernel):
        system = generate(SystemSpec(SystemKind.HAAR, 4))[2]
        b = np.ones(4)
        # one rank too few or too many (a 0-D or a 2-D order for the one-order
        # kernels) and a float array
        for bad in (np.arange(4), np.arange(4)[None, None], np.array([[0.0, 1.0, 2.0, 3.0]])):
            with pytest.raises(StructuralError):
                kernel(system, b, bad)
        # rows that are not permutations, and permutations of a width other
        # than len(coeffs)
        for bad in ([[0, 1, 2, 2]], [[1, 2, 3, 4]], [[0, 1, 2, -1]], [[0, 1, 2]],
                    [[0, 1, 2, 3, 4]], np.zeros((1, 5), dtype=int)):
            with pytest.raises(ContractError, match="permutations of 0..3"):
                kernel(system, b, np.array(bad))


# ---------------------------------------------------------------------------
# rearrangement orders


class TestRearrangementOrders:
    def test_identity_is_bitwise_identical(self):
        gen = rng(70)
        _, _, system = generate(SystemSpec(SystemKind.HAAR, 8))
        b = gen.standard_normal(8)
        direct = majorant(system, b)
        via_order = permuted_majorant(system, b, np.arange(8))
        assert np.array_equal(direct.values, via_order.values)
        assert np.array_equal(direct.argmax_prefix, via_order.argmax_prefix)
        assert direct.l2_norm == via_order.l2_norm

    def test_disjoint_support_swap(self):
        _, _, system = generate(SystemSpec(SystemKind.STANDARD_BASIS, 2))
        prof = permuted_majorant(system, [3.0, 4.0], [1, 0])
        assert list(prof.values) == [3.0, 4.0]
        assert prof.l2_norm == 5.0

    def test_rademacher_swap_keeps_final_sum(self):
        _, _, system = generate(SystemSpec(SystemKind.RADEMACHER, 2))
        a = [1.0, 1.0]
        swapped = permuted_majorant(system, a, [1, 0])
        final = prefix_sum(system, a)
        per_atom_final = np.abs(final.values)
        assert np.all(swapped.values >= per_atom_final - 1e-15)


class TestTandoriDelta:
    def test_zero_block(self):
        _, _, system = generate(SystemSpec(SystemKind.STANDARD_BASIS, 4))
        osc = tandori_delta(system, [0.0, 0.0, 0.0, 0.0], np.arange(4), 0)
        assert np.all(osc.values == 0)
        assert osc.l2 == 0.0

    def test_standard_basis_spike_example(self):
        _, _, system = generate(SystemSpec(SystemKind.STANDARD_BASIS, 4))
        osc = tandori_delta(system, [0.0, 0.0, 1.0, 1.0], np.arange(4), 0)
        assert list(osc.values) == [0.0, 0.0, 1.0, 1.0]
        assert osc.l2 == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert osc.bound == pytest.approx(20.415062876129102, rel=1e-14)
        assert osc.l2 <= osc.bound
        assert (osc.lo, osc.hi) == (3, 4)

    def test_first_coefficients_are_normalized_away(self):
        # a_1, a_2 never enter any block
        _, _, system = generate(SystemSpec(SystemKind.STANDARD_BASIS, 6))
        osc = tandori_delta(system, [9.0, 9.0, 0.0, 0.0, 0.0, 0.0], np.arange(6), 0)
        assert np.all(osc.values == 0)

    def test_shuffled_blocks_respect_bound(self):
        gen = rng(44)
        _, _, system = generate(
            SystemSpec(SystemKind.RANDOM_QR, 16, resolution=8, fiber_dim=2, seed=2))
        b = gen.standard_normal(16)
        for k in (0, 1):
            for seed in range(5):
                osc = tandori_delta(system, b, seeded_rng(seed).permutation(16), k)
                assert osc.l2 <= osc.bound * (1 + 1e-12)
                assert np.all(osc.values <= osc.doubled_one_sided + 1e-12)

    @pytest.mark.parametrize("kind,kw", [
        (SystemKind.STANDARD_BASIS, {}),
        (SystemKind.HAAR, {}),
        (SystemKind.RANDOM_QR, {"resolution": 4, "fiber_dim": 3, "seed": 9}),
        (SystemKind.RANDOM_QR, {"resolution": 12, "fiber_dim": 1, "seed": 9,
                                "field": Field.COMPLEX}),
        (SystemKind.VARYING_DIM, {}),
    ])
    def test_exact_mode_matches_all_pairs_oracle(self, kind, kw):
        gen = rng(45)
        n = 12
        _, _, system = generate(SystemSpec(kind, n, **kw))
        b = gen.standard_normal(n)
        if system.fibers.field is Field.COMPLEX:
            b = b + 1j * gen.standard_normal(n)
        for k in (0, 1):
            for order in (np.arange(n), seeded_rng(8).permutation(n)):
                osc = tandori_delta(system, b, order, k)
                want = brute_delta(system, b, order, k, n)
                assert osc.values == pytest.approx(want, rel=1e-12, abs=1e-14)

    def test_block_out_of_range(self):
        _, _, system = generate(SystemSpec(SystemKind.STANDARD_BASIS, 4))
        with pytest.raises(ContractError):
            tandori_delta(system, np.ones(4), np.arange(4), 3)

    def test_inflated_oscillation_is_returned_unjudged(self, monkeypatch):
        # the kernel computes both sides of the bracket and judges neither:
        # diameters inflated past twice the one-sided supremum, for one plan
        # alone or for a whole batch, come back as they are (tandori-block
        # fails them; see tests/test_verify.py)
        real = mj._pointwise_diameters

        def inflate_third(prefixes, offsets):
            out = real(prefixes, offsets)
            out[2:3] = 3.0 * out[2:3] + 1.0
            return out

        _, _, system = generate(SystemSpec(SystemKind.TENSOR_VECTOR, 16, fiber_dim=2))
        b = rng(47).standard_normal(16)
        orders = np.stack([seeded_rng(s).permutation(16) for s in range(4)])
        honest = mj.block_oscillations(system, b, orders, 1)
        monkeypatch.setattr(mj, "_pointwise_diameters", inflate_third)
        batch = mj.block_oscillations(system, b, orders, 1)
        np.testing.assert_array_equal(batch.doubled_one_sided, honest.doubled_one_sided)
        want = honest.values.copy()
        want[2] = 3.0 * want[2] + 1.0
        np.testing.assert_array_equal(batch.values, want)
        assert np.all(batch.values[2] > batch.doubled_one_sided[2])
        monkeypatch.setattr(mj, "_pointwise_diameters",
                            lambda prefixes, offsets: 3.0 * real(prefixes, offsets) + 1.0)
        osc = tandori_delta(system, b, orders[0], 1)
        np.testing.assert_array_equal(osc.values, 3.0 * honest.values[0] + 1.0)


def walk(gen, m, dims, step=None):
    """m prefix rows of a random walk over atoms of the given fiber ``dims``,
    starting at 0; ``step(gen, shape)`` draws the increments."""
    offsets = np.concatenate([[0], np.cumsum(dims)])
    inc = (step or (lambda g, shape: g.standard_normal(shape)))(gen, (m - 1, offsets[-1]))
    P = np.zeros((m, offsets[-1]), dtype=inc.dtype)
    np.cumsum(inc, axis=0, out=P[1:])
    return P, offsets


def circle(gen):
    """Points near circles of radius 1 about (1e3, -1e3): many near-tied
    diameters, all far from the origin."""
    theta = np.sort(gen.uniform(0, 2 * np.pi, (300, 3)), axis=0)
    theta[150:] = theta[:150] + np.pi  # antipodes
    r = 1.0 + 1e-15 * gen.standard_normal(theta.shape)
    P = np.empty((300, 6))
    P[:, 0::2], P[:, 1::2] = 1e3 + r * np.cos(theta), -1e3 + r * np.sin(theta)
    return P, np.array([0, 2, 4, 6])


def repeated_runs(gen):
    """Rows that repeat the row before them 95 % of the time, per atom."""
    def step(g, shape):
        inc = g.standard_normal(shape)
        inc[g.random(shape) < 0.95] = 0
        return inc
    return walk(gen, 400, [1, 2, 2, 3, 1, 4], step)


def signed_zeros(gen):
    """Coordinates that move between 0.0 and -0.0, beside nonzero ones."""
    P, offsets = walk(gen, 80, [2, 2, 3, 1])
    P[:, [0, 2, 3, 5, 6]] = np.copysign(0.0, gen.standard_normal((80, 5)))
    return P, offsets


def on_spheres(gen):
    """Rows on a regular 60-gon about (3, -2), on a regular 15-gon, and on
    the unit 3-sphere in R^4 with every antipode, in shuffled order: all rows
    of an atom at about the same distance from its centroid, so every row's
    ball bound is within 2 % of the diameter."""
    m = 120
    k = 2 * np.pi * np.arange(m)
    u = gen.standard_normal((m // 2, 4))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    atoms = [np.stack([3.0 + 1.5 * np.cos(k / 60), -2.0 + 1.5 * np.sin(k / 60)], axis=1),
             np.stack([np.cos(k / 15), np.sin(k / 15)], axis=1),
             np.concatenate([u, -u])]
    return (np.concatenate([a[gen.permutation(m)] for a in atoms], axis=1),
            np.array([0, 2, 4, 8]))


def far_duplicates(gen):
    """A centred walk inside the unit ball and the points +-10 v, three
    copies of each (two of them adjacent): the rows farthest from the
    centroid repeat, and the diameter is theirs."""
    P, offsets = walk(gen, 90, [1, 2, 3])
    for a, b in zip(offsets[:-1], offsets[1:]):
        x = P[:, a:b]
        x -= x.mean(axis=0)
        x /= np.sqrt(np.sum(x * x, axis=1)).max()
        v = gen.standard_normal(b - a)
        x[[5, 6, 40]] = 10 * v / np.linalg.norm(v)
        x[[20, 70, 71]] = -x[5]
    return P, offsets


def at_radius(r):
    """A walk per atom, centred and scaled so its farthest row from the
    centroid lies about ``r`` from it."""
    def make(gen):
        P, offsets = walk(gen, 100, [1, 2, 3, 4])
        for a, b in zip(offsets[:-1], offsets[1:]):
            x = P[:, a:b]
            x -= x.mean(axis=0)
            x *= r / np.sqrt(np.sum(x * x, axis=1)).max()
        return P, offsets
    return make


class TestPointwiseDiameters:
    SYSTEMS = {
        "real-d2": (SystemSpec(SystemKind.RANDOM_QR, 48, resolution=24, fiber_dim=2,
                               seed=3), 48),
        "real-d3": (SystemSpec(SystemKind.TENSOR_VECTOR, 32, fiber_dim=3), 32),
        "complex-d1": (SystemSpec(SystemKind.RANDOM_QR, 40, resolution=40, seed=4,
                                  field=Field.COMPLEX), 40),
        "varying-dim": (SystemSpec(SystemKind.VARYING_DIM, 48), 48),
        "m1-257": (SystemSpec(SystemKind.RANDOM_QR, 256, resolution=128,
                              fiber_dim=2, seed=5), 257),
    }
    CRAFTED = {
        "circle-far": circle,
        "repeated-runs": repeated_runs,
        "signed-zeros": signed_zeros,
        "tiny-1e-160": lambda gen: walk(gen, 120, [1, 2, 3],
                                        lambda g, shape: 1e-160 * g.standard_normal(shape)),
        "complex-walk": lambda gen: walk(gen, 70, [1, 2],
                                         lambda g, shape: g.standard_normal(shape)
                                         + 1j * g.standard_normal(shape)),
        "m1-513": lambda gen: walk(gen, 513, [1, 2, 3]),
        "on-spheres": on_spheres,
        "far-duplicates": far_duplicates,
        # the ball test runs only where the largest distance from the
        # centroid reaches 2^-400
        "radius-above-2^-400": at_radius(2.0 ** -400 * (1 + 2.0 ** -20)),
        "radius-below-2^-400": at_radius(2.0 ** -400 * (1 - 2.0 ** -20)),
        "radius-1e150": at_radius(1e150),
        # d >> m, where the default takes all pairs rather than filter
        "d64-m9": lambda gen: walk(gen, 9, [64, 64, 1]),
        "d128-m17": lambda gen: walk(gen, 17, [128, 3]),
        "complex-d40-m33": lambda gen: walk(gen, 33, [40],
                                            lambda g, shape: g.standard_normal(shape)
                                            + 1j * g.standard_normal(shape)),
    }

    @staticmethod
    def prefixes(system, m1, seed):
        b = random_coeffs(system, seed)
        order = rng(seed + 1).permutation(len(system))[:m1 - 1]
        out = np.zeros((m1, system.values.shape[1]), dtype=system.values.dtype)
        np.cumsum(b[order, None] * system.values[order], axis=0, out=out[1:])
        return out

    def case(self, name):
        if name in self.CRAFTED:
            return self.CRAFTED[name](rng(71))
        spec, m1 = self.SYSTEMS[name]
        _, _, system = generate(spec)
        offsets = system.fibers.offsets
        P = self.prefixes(system, m1, 70)
        if name == "varying-dim":
            # atoms whose coordinates stay zero in every prefix, of each dimension
            for atom in (0, 1, 2, 7):
                P[:, offsets[atom]:offsets[atom + 1]] = 0
        return P, offsets

    @pytest.mark.parametrize("filtered", [True, False], ids=["filter", "all-pairs"])
    @pytest.mark.parametrize("budget", [mj.DIAMETER_BUDGET, 1])
    @pytest.mark.parametrize("case", sorted(SYSTEMS) + sorted(CRAFTED))
    def test_bitwise_equal_to_per_atom_loop(self, case, budget, filtered, monkeypatch):
        # budget 1 stacks one atom and one row per product, the default many
        monkeypatch.setattr(mj, "DIAMETER_BUDGET", budget)
        monkeypatch.setattr(mj, "_filtered", lambda m, d: filtered)
        P, offsets = self.case(case)
        got = mj._pointwise_diameters(P, offsets)
        want = per_atom_diameters(P, offsets)
        assert np.array_equal(got, want)
        if case == "varying-dim":
            assert np.all(got[[0, 1, 2, 7]] == 0) and np.all(got[3:7] > 0)
        if case == "tiny-1e-160":
            # squared distances in the subnormal range
            assert np.all((got > 0) & (got ** 2 < np.finfo(float).tiny))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_atom_keeps_every_row(self, bad, monkeypatch):
        monkeypatch.setattr(mj, "_filtered", lambda m, d: True)
        P, offsets = walk(rng(72), 100, [2, 2, 1])
        P[40, 1] = bad
        with np.errstate(invalid="ignore"):
            got = mj._pointwise_diameters(P, offsets)
            want = per_atom_diameters(P, offsets)
        assert np.isnan(got[0])
        assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_within_rounding_of_exact_arithmetic(self, complex_field):
        # the exact diameter from the same binary64 inputs in rationals; each
        # squared distance adds D = 2 * dim or dim terms, so the result is
        # within (D + 2) eps of it
        gen = rng(73)
        for _ in range(6):
            dims = gen.integers(1, 4, size=3)
            step = ((lambda g, shape: g.standard_normal(shape)
                     + 1j * g.standard_normal(shape)) if complex_field else None)
            P, offsets = walk(gen, int(gen.integers(2, 40)), dims, step)
            P *= 10.0 ** int(gen.integers(-5, 6))
            got = mj._pointwise_diameters(P, offsets)
            R = P.view(np.float64) if complex_field else P
            scale = 2 if complex_field else 1
            for i in range(dims.size):
                cols = range(scale * offsets[i], scale * offsets[i + 1])
                pts = [[Fraction(float(R[r, k])) for k in cols] for r in range(R.shape[0])]
                exact_sq = max(sum((u - v) ** 2 for u, v in zip(p, q))
                               for p in pts for q in pts)
                tol = Fraction((len(cols) + 2) * np.finfo(float).eps)
                g = Fraction(float(got[i]))
                assert (g / (1 + tol)) ** 2 <= exact_sq <= (g / (1 - tol)) ** 2

    @pytest.mark.parametrize("m,dims,filtered", [
        (mj.FILTER_MIN_ROWS - 1, [1, 2], False),
        (40, [1, 2, 19], True),
        (40, [20], False),
        (9, [64], False),
        # complex coordinates count twice: d = 20 real
        (40, [10], False),
    ])
    def test_filter_runs_from_the_row_floor_while_2d_below_m(self, m, dims, filtered,
                                                              monkeypatch):
        calls = []
        real = mj._candidates
        monkeypatch.setattr(mj, "_candidates", lambda x: calls.append(x.shape[1]) or real(x))
        step = (lambda g, shape: g.standard_normal(shape)
                + 1j * g.standard_normal(shape)) if dims == [10] else None
        P, offsets = walk(rng(76), m, dims, step)
        got = mj._pointwise_diameters(P, offsets)
        assert np.array_equal(got, per_atom_diameters(P, offsets))
        assert bool(calls) == filtered
        assert all(2 * d < m for d in calls)

    @staticmethod
    def kept_share(P, offsets):
        """The share of (atom, row) pairs the candidate filter keeps."""
        if P.dtype.kind == "c":
            P, offsets = P.view(np.float64), 2 * offsets
        dims = np.diff(offsets)
        kept = 0
        for d in set(dims.tolist()):
            atoms = np.flatnonzero(dims == d)
            cols = offsets[atoms, None] + np.arange(d)
            x = np.ascontiguousarray(P[:, cols].transpose(1, 2, 0))
            kept += int(mj._candidates(x).sum())
        return kept / (P.shape[0] * dims.size)

    @pytest.mark.parametrize("spec, share", [
        # 5.3 % kept measured (11.4 % by the box test alone)
        (SystemSpec(SystemKind.RANDOM_QR, 640, resolution=320, fiber_dim=2, seed=1001), 0.08),
        # complex scalars as (re, im) pairs: 6.2 % kept (12.5 % by the box test alone)
        (SystemSpec(SystemKind.RANDOM_QR, 512, resolution=512, seed=1002,
                    field=Field.COMPLEX), 0.09),
        # atoms see about 2 distinct points of the block: under 1 % kept
        (SystemSpec(SystemKind.VARYING_DIM, 600), 0.05),
    ], ids=["random-qr-d2", "random-qr-complex", "varying-dim"])
    def test_filter_keeps_few_rows(self, spec, share):
        # a filter that silently keeps every row is still exact, only slow
        _, _, system = generate(spec)
        lo, hi = tandori_blocks(len(system)).ranges[-1]
        b = random_coeffs(system, 74)
        order = lo - 1 + rng(75).permutation(hi - lo + 1)
        P = np.zeros((order.size + 1, system.values.shape[1]), dtype=system.values.dtype)
        np.cumsum(b[order, None] * system.values[order], axis=0, out=P[1:])
        assert P.shape[0] >= 257
        assert self.kept_share(P, system.fibers.offsets) <= share


class TestAdversarial:
    @pytest.mark.parametrize("spec", [
        SystemSpec(SystemKind.HAAR, 64),
        SystemSpec(SystemKind.RANDOM_QR, 48, resolution=24, fiber_dim=2, seed=6),
        SystemSpec(SystemKind.RANDOM_QR, 40, resolution=40, seed=7, field=Field.COMPLEX),
        SystemSpec(SystemKind.TENSOR_VECTOR, 32, fiber_dim=4),
        SystemSpec(SystemKind.VARYING_DIM, 48),
    ], ids=lambda spec: f"{spec.kind.value}-{spec.field.value}")
    def test_greedy_matches_per_step_recompute(self, spec):
        _, _, system = generate(spec)
        n = len(system)
        for seed in (80, 81):
            b = random_coeffs(system, seed)
            order = adversarial_permutation(system, b, n,
                                            AdversarialStrategy.GREEDY_MAX_PREFIX)
            assert order.tolist() == per_step_greedy(system, b, n)

    def test_greedy_exact_ties_match_per_step_recompute(self):
        _, _, system = generate(SystemSpec(SystemKind.STANDARD_BASIS, 16))
        b = np.array([1.0, -1.0] * 8)
        order = adversarial_permutation(system, b, 16,
                                        AdversarialStrategy.GREEDY_MAX_PREFIX)
        assert order.tolist() == per_step_greedy(system, b, 16)

    @pytest.mark.parametrize("spec, pattern", [
        (SystemSpec(SystemKind.HAAR, 64), [1.0, -1.0, 0.5, 0.5, 0.0, 2.0]),
        (SystemSpec(SystemKind.RANDOM_QR, 40, resolution=40, seed=7, field=Field.COMPLEX),
         [1.0, 1j, -1.0, -1j, 0.5, 0.5j]),
    ], ids=["haar", "random-qr-complex"])
    def test_greedy_exact_ties_break_to_smallest_index(self, spec, pattern):
        # rounding in a float greedy's scores would break these ties arbitrarily
        _, _, system = generate(spec)
        n = len(system)
        b = np.resize(np.array(pattern), n)
        order = adversarial_permutation(system, b, n, AdversarialStrategy.GREEDY_MAX_PREFIX)
        assert order.tolist() == sorted(range(n), key=lambda i: -abs(b[i]))

    def test_greedy_orders_magnitudes_whose_squares_underflow(self):
        _, _, system = generate(SystemSpec(SystemKind.HAAR, 16))
        b = 1e-170 * np.arange(1, 17)
        assert np.all(b ** 2 == 0.0)
        # the float greedy sees sixteen zero scores and falls back to index order
        assert per_step_greedy(system, b, 16) == list(range(16))
        order = adversarial_permutation(system, b, 16, AdversarialStrategy.GREEDY_MAX_PREFIX)
        assert order.tolist() == list(range(15, -1, -1))

    @pytest.mark.parametrize("n", [1, 5])
    @pytest.mark.parametrize("strategy", list(AdversarialStrategy))
    def test_n_outside_2_to_the_coefficient_count_refused(self, n, strategy):
        _, _, system = generate(SystemSpec(SystemKind.STANDARD_BASIS, 8))
        with pytest.raises(ContractError, match=re.escape(f"2 <= n <= 4, got n={n}")):
            adversarial_permutation(system, np.ones(4), n, strategy)

    def test_greedy_two_case(self):
        _, _, system = generate(SystemSpec(SystemKind.STANDARD_BASIS, 2))
        order = adversarial_permutation(system, [1.0, 2.0], 2,
                                        AdversarialStrategy.GREEDY_MAX_PREFIX)
        assert order.tolist() == [1, 0]

    def test_greedy_tie_breaking_gives_identity(self):
        _, _, system = generate(SystemSpec(SystemKind.STANDARD_BASIS, 5))
        order = adversarial_permutation(system, [0.5] * 5, 5,
                                        AdversarialStrategy.GREEDY_MAX_PREFIX)
        assert order.tolist() == [0, 1, 2, 3, 4]

    def test_block_reversal_sixteen(self):
        _, _, system = generate(SystemSpec(SystemKind.STANDARD_BASIS, 16))
        order = adversarial_permutation(system, np.ones(16), 16,
                                        AdversarialStrategy.BLOCK_REVERSAL)
        assert order.tolist() == [0, 1, 3, 2] + list(range(15, 3, -1))

    def test_deterministic(self):
        gen = rng(1)
        _, _, system = generate(
            SystemSpec(SystemKind.RANDOM_QR, 8, resolution=8, seed=4))
        b = gen.standard_normal(8)
        o1 = adversarial_permutation(system, b, 8, AdversarialStrategy.GREEDY_MAX_PREFIX)
        o2 = adversarial_permutation(system, b, 8, AdversarialStrategy.GREEDY_MAX_PREFIX)
        assert np.array_equal(o1, o2)

    def test_lemma_bound_under_every_plan(self):
        gen = rng(90)
        _, _, system = generate(SystemSpec(SystemKind.HAAR, 16))
        b = gen.standard_normal(16)
        rhs = (2 + math.log2(16)) * math.sqrt(float(np.sum(b ** 2)))
        orders = [np.arange(16), seeded_rng(1).permutation(16),
                  adversarial_permutation(system, b, 16, AdversarialStrategy.GREEDY_MAX_PREFIX),
                  adversarial_permutation(system, b, 16, AdversarialStrategy.BLOCK_REVERSAL)]
        for order in orders:
            assert permuted_majorant(system, b, order).l2_norm <= rhs * (1 + 1e-12)
