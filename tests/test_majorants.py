import dataclasses
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import orthoseries.majorants as mj
from orthoseries import (AdversarialStrategy, ContractError, Field,
                         HilbertCollection, MeasureSpace, OrthonormalSystem,
                         PermutationPlan, PlanProvenance, StructuralError,
                         SystemKind, SystemSpec, adversarial_permutation,
                         chaining_diagnostics, dyadic_decomposition,
                         dyadic_pointwise_bound, generate, majorant,
                         permuted_majorant, prefix_sum, tandori_blocks,
                         tandori_delta, validate_ons)
from orthoseries.direct_integral import expanded_weights
from orthoseries.majorants import complete_block_form
from orthoseries.summation import compensated_sum
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


def brute_delta(system, coeffs, plan, k, n):
    """All-pairs oscillation over the block-filtered permuted series."""
    lo, hi = tandori_blocks(n).ranges[k]
    a = np.array(coeffs, dtype=system.values.dtype)
    a[:2] = 0
    prefixes = [np.zeros(system.values.shape[1], dtype=system.values.dtype)]
    for p in range(n):
        src = plan.order[p]
        if lo <= src <= hi:
            prefixes.append(prefixes[-1] + a[src - 1] * system.values[src - 1])
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
    at every step: on untied draws, the reference that the decreasing-|a_n|
    sort of ``adversarial_permutation`` reproduces by Parseval."""
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
        order.append(pick + 1)
        v = v + a[pick] * V[pick]
        v_sq = float(np.real(np.sum(w * np.abs(v) ** 2)))
    return tuple(order)


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


def per_term_chaining(system, coeffs, n):
    """Every ChainingDiagnostics field, from a running and a within-block sum
    advanced a term at a time."""
    K = complete_block_form(n)
    n_sys = len(system)
    a = np.asarray(coeffs, dtype=system.values.dtype)
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
        for j in range(lo, min(hi, n_sys) + 1):
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


def per_term_delta(system, coeffs, plan, k, n):
    """(values, doubled_one_sided, l2) of block k: the scalar-real envelope
    loop and the cumsum vector branch."""
    a = np.array(coeffs, dtype=system.values.dtype)
    a[:2] = 0
    lo, hi = tandori_blocks(n).ranges[k]
    src = [s - 1 for s in plan.order[:n] if lo <= s <= hi]
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
        el = prefix_sum(system, [0.0, 1.0, 1.0], 1)
        assert np.all(el.values == 0)

    def test_standard_basis_expansion(self, std3):
        _, _, system = std3
        el = prefix_sum(system, [3.0, 4.0, 9.0], 2)
        assert list(el.values) == [3.0, 4.0, 0.0]

    def test_rademacher_sign_addition(self):
        _, _, system = generate(SystemSpec(SystemKind.RADEMACHER, 2))
        el = prefix_sum(system, [1.0, 1.0], 2)
        assert list(el.values) == [2.0, 0.0, 0.0, -2.0]

    def test_out_of_range(self, std3):
        _, _, system = std3
        with pytest.raises(ContractError):
            prefix_sum(system, [1.0, 1.0, 1.0], 4)


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
            first = np.abs(prefix_sum(system, b, 1).values)
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
        norms = [majorant(system, b, n).l2_norm for n in range(1, 17)]
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
        diag = chaining_diagnostics(system, np.zeros(3), 3)
        assert diag.majorant_l2 == 0.0
        assert diag.block_norm_sum == 0.0
        assert diag.inner_sq_sum == 0.0

    def test_standard_basis_three(self, std3):
        _, _, system = std3
        diag = chaining_diagnostics(system, [1.0, 0.5, 0.5], 3)
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
        diag = chaining_diagnostics(system, b, 31)
        assert diag.block_norm_sum <= diag.block_norm_sum_bound * (1 + 1e-12)
        assert diag.inner_sq_sum <= diag.inner_sq_bound * (1 + 1e-12)
        assert diag.majorant_l2 <= diag.majorant_bound * (1 + 1e-12)

    def test_parseval_per_block(self):
        gen = rng(4)
        _, _, system = generate(
            SystemSpec(SystemKind.RANDOM_QR, 15, resolution=5, fiber_dim=3, seed=11))
        b = gen.standard_normal(15)
        diag = chaining_diagnostics(system, b, 15)
        assert diag.block_norms ** 2 == pytest.approx(diag.block_coeff_sq, rel=1e-10)

    def test_triangle_step_and_dyadic_sup(self):
        gen = rng(5)
        for trial in range(30):
            _, _, system = generate(
                SystemSpec(SystemKind.RANDOM_QR, 31, resolution=31, seed=trial))
            b = gen.standard_normal(31)
            diag = chaining_diagnostics(system, b, 31)
            # sup over complete-block prefixes is dominated by the block-norm
            # sum, and the full majorant by the triangle decomposition
            assert diag.dyadic_sup_l2 <= diag.block_norm_sum * (1 + 1e-12)
            assert diag.majorant_l2 <= (diag.dyadic_sup_l2 +
                                        math.sqrt(diag.inner_sq_sum)) * (1 + 1e-12)
            assert diag.dyadic_sup_l2 <= diag.majorant_l2 * (1 + 1e-12)

    def test_incomplete_length_message(self, std3):
        _, _, system = std3
        with pytest.raises(ContractError, match="zero-pad"):
            chaining_diagnostics(system, [1.0, 1.0], 2)

    def test_zero_padding_beyond_system(self, std3):
        _, _, system = std3
        b = np.array([1.0, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0])
        diag = chaining_diagnostics(system, b, 7)
        short = chaining_diagnostics(system, b[:3], 3)
        assert diag.majorant_l2 == short.majorant_l2
        assert diag.weyl_mass == short.weyl_mass
        with pytest.raises(ContractError):
            chaining_diagnostics(system, np.array([1, 0.5, 0.5, 0.1, 0, 0, 0.0]), 7)


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
                plan = PermutationPlan.seeded_shuffle(n, 91)
                for prof, order in ((majorant(system, b, n), range(n)),
                                    (permuted_majorant(system, b[:n], plan),
                                     [s - 1 for s in plan.order])):
                    values, arg, l2 = per_term_profile(system, b, order)
                    assert np.array_equal(prof.values, values)
                    assert np.array_equal(prof.argmax_prefix, arg)
                    assert prof.l2_norm == l2

    def test_chaining_bitwise_equal_to_per_term_loop(self, sweep_system, prefix_budget):
        system = sweep_system
        n_sys = len(system)
        # the longest complete prefix inside the system, one padded past it,
        # and one padded by a whole block more, which the system leaves empty
        for n in sorted({(1 << (n_sys + 1).bit_length() - 1) - 1,
                         mj.complete_block_length(n_sys),
                         mj.complete_block_length(2 * n_sys + 1)}):
            for b in sweep_coeffs(system):
                b = np.concatenate([b, np.zeros(max(0, n - n_sys), dtype=b.dtype)])
                diag = chaining_diagnostics(system, b[:n], n)
                want = per_term_chaining(system, b, n)
                for field in dataclasses.fields(diag):
                    assert np.array_equal(getattr(diag, field.name), want[field.name]), field.name

    @pytest.mark.parametrize("budget", [mj.PREFIX_BUDGET, 1], ids=["default", "one-row"])
    def test_chaining_makes_two_prefix_passes(self, budget, monkeypatch):
        # a running pass and a restarted one, whatever K and the step count
        monkeypatch.setattr(mj, "PREFIX_BUDGET", budget)
        passes = []
        sweep = mj._prefix_rows

        def counted(*args, **kwargs):
            passes.append(kwargs.get("restarts", ()))
            return sweep(*args, **kwargs)

        monkeypatch.setattr(mj, "_prefix_rows", counted)
        system = generate(SystemSpec(SystemKind.HAAR, 64))[2]
        b = random_coeffs(system, 97)
        for n in (1, 3, 7, 15, 31, 63, 127, 255):
            passes.clear()
            diag = chaining_diagnostics(system, np.concatenate([b, np.zeros(max(0, n - 64))])[:n], n)
            assert diag.k_max == complete_block_form(n)
            assert len(passes) == 2
            assert [list(r) for r in passes] == [
                [], [min((1 << k) - 1, 64) for k in range(diag.k_max + 1)]]

    def test_tandori_delta_bitwise_equal_to_per_term_loops(self, sweep_system, prefix_budget):
        system = sweep_system
        for n in (len(system), len(system) - 2):
            plans = (PermutationPlan.identity(n), PermutationPlan.seeded_shuffle(n, 92),
                     adversarial_permutation(system, np.ones(n), n,
                                             AdversarialStrategy.BLOCK_REVERSAL))
            for b, plan, k in itertools.product(sweep_coeffs(system), plans,
                                                range(tandori_blocks(n).k_max + 1)):
                osc = tandori_delta(system, b, plan, k, n)
                values, doubled, l2 = per_term_delta(system, b, plan, k, n)
                assert np.array_equal(osc.values, values)
                assert np.array_equal(osc.doubled_one_sided, doubled)
                assert osc.l2 == l2

    @pytest.mark.parametrize("filter_rows", [0, mj.FILTER_MIN_ROWS], ids=["filter", "default"])
    def test_block_oscillations_bitwise_equal_to_per_term_loops(self, sweep_system, prefix_budget,
                                                                 filter_rows, monkeypatch):
        # the five plans of a verify trial in one batch, each against a loop
        # over that plan alone
        monkeypatch.setattr(mj, "FILTER_MIN_ROWS", filter_rows)
        system = sweep_system
        n = len(system)
        for b in sweep_coeffs(system):
            plans = ([PermutationPlan.identity(n)]
                     + [PermutationPlan.seeded_shuffle(n, s) for s in (95, 96)]
                     + [adversarial_permutation(system, b, n, strategy)
                        for strategy in AdversarialStrategy])
            for k in range(tandori_blocks(n).k_max + 1):
                osc = mj.block_oscillations(system, b, plans, k, n)
                atoms = system.fibers.offsets.size - 1
                assert osc.values.shape == osc.doubled_one_sided.shape == (5, atoms)
                assert osc.l2.shape == (5,)
                for p, plan in enumerate(plans):
                    values, doubled, l2 = per_term_delta(system, b, plan, k, n)
                    assert np.array_equal(osc.values[p], values)
                    assert np.array_equal(osc.doubled_one_sided[p], doubled)
                    assert osc.l2[p] == l2

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
        for plan in (PermutationPlan.identity(n), PermutationPlan.seeded_shuffle(n, 94)):
            osc = tandori_delta(system, b, plan, 3, n)
            values, doubled, l2 = per_term_delta(system, b, plan, 3, n)
            assert np.array_equal(osc.values, values)
            assert np.array_equal(osc.doubled_one_sided, doubled)
            assert osc.l2 == l2


# ---------------------------------------------------------------------------
# every order at once against one permuted_majorant per order


def per_order_l2(system, coeffs, orders):
    """The loop all_orders_l2 replaced: one permuted_majorant per order."""
    n = orders.shape[1]
    return np.array([permuted_majorant(system, coeffs,
                                       PermutationPlan(tuple(int(i) + 1 for i in row)), n).l2_norm
                     for row in orders])


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

    def test_refusals(self):
        system = generate(SystemSpec(SystemKind.HAAR, 4))[2]
        b = np.ones(4)
        for bad in (np.arange(4), np.array([[0.0, 1.0, 2.0, 3.0]])):
            with pytest.raises(StructuralError):
                mj.all_orders_l2(system, b, bad)
        for bad in ([[0, 1, 2, 2]], [[1, 2, 3, 4]], [[0, 1, 2, -1]]):
            with pytest.raises(ContractError, match="permutations"):
                mj.all_orders_l2(system, b, np.array(bad))
        with pytest.raises(ContractError):
            mj.all_orders_l2(system, b, np.zeros((1, 5), dtype=int))


# ---------------------------------------------------------------------------
# permutations


class TestPermutationPlans:
    def test_identity_is_bitwise_identical(self):
        gen = rng(70)
        _, _, system = generate(SystemSpec(SystemKind.HAAR, 8))
        b = gen.standard_normal(8)
        direct = majorant(system, b)
        via_plan = permuted_majorant(system, b, PermutationPlan.identity(8))
        assert np.array_equal(direct.values, via_plan.values)
        assert np.array_equal(direct.argmax_prefix, via_plan.argmax_prefix)
        assert direct.l2_norm == via_plan.l2_norm

    def test_disjoint_support_swap(self):
        _, _, system = generate(SystemSpec(SystemKind.STANDARD_BASIS, 2))
        prof = permuted_majorant(system, [3.0, 4.0], PermutationPlan(order=(2, 1)))
        assert list(prof.values) == [3.0, 4.0]
        assert prof.l2_norm == 5.0

    def test_rademacher_swap_keeps_final_sum(self):
        _, _, system = generate(SystemSpec(SystemKind.RADEMACHER, 2))
        a = [1.0, 1.0]
        swapped = permuted_majorant(system, a, PermutationPlan(order=(2, 1)))
        final = prefix_sum(system, a, 2)
        per_atom_final = np.abs(final.values)
        assert np.all(swapped.values >= per_atom_final - 1e-15)

    def test_invalid_plan(self):
        with pytest.raises(ContractError):
            PermutationPlan(order=(1, 1, 3))

    def test_seeded_shuffle_reproducible(self):
        p1 = PermutationPlan.seeded_shuffle(10, 5)
        p2 = PermutationPlan.seeded_shuffle(10, 5)
        assert p1.order == p2.order
        assert p1.provenance is PlanProvenance.SEEDED_SHUFFLE


class TestTandoriDelta:
    def test_zero_block(self):
        _, _, system = generate(SystemSpec(SystemKind.STANDARD_BASIS, 4))
        osc = tandori_delta(system, [0.0, 0.0, 0.0, 0.0],
                            PermutationPlan.identity(4), 0)
        assert np.all(osc.values == 0)
        assert osc.l2 == 0.0

    def test_standard_basis_spike_example(self):
        _, _, system = generate(SystemSpec(SystemKind.STANDARD_BASIS, 4))
        osc = tandori_delta(system, [0.0, 0.0, 1.0, 1.0],
                            PermutationPlan.identity(4), 0)
        assert list(osc.values) == [0.0, 0.0, 1.0, 1.0]
        assert osc.l2 == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert osc.bound == pytest.approx(20.415062876129102, rel=1e-14)
        assert osc.l2 <= osc.bound
        assert (osc.lo, osc.hi) == (3, 4)

    def test_first_coefficients_are_normalized_away(self):
        # a_1, a_2 never enter any block
        _, _, system = generate(SystemSpec(SystemKind.STANDARD_BASIS, 6))
        osc = tandori_delta(system, [9.0, 9.0, 0.0, 0.0, 0.0, 0.0],
                            PermutationPlan.identity(6), 0)
        assert np.all(osc.values == 0)

    def test_shuffled_blocks_respect_bound(self):
        gen = rng(44)
        _, _, system = generate(
            SystemSpec(SystemKind.RANDOM_QR, 16, resolution=8, fiber_dim=2, seed=2))
        b = gen.standard_normal(16)
        for k in (0, 1):
            for seed in range(5):
                plan = PermutationPlan.seeded_shuffle(16, seed)
                osc = tandori_delta(system, b, plan, k)
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
            for plan in (PermutationPlan.identity(n),
                         PermutationPlan.seeded_shuffle(n, 8)):
                osc = tandori_delta(system, b, plan, k)
                want = brute_delta(system, b, plan, k, n)
                assert osc.values == pytest.approx(want, rel=1e-12, abs=1e-14)

    def test_block_out_of_range(self):
        _, _, system = generate(SystemSpec(SystemKind.STANDARD_BASIS, 4))
        with pytest.raises(ContractError):
            tandori_delta(system, np.ones(4), PermutationPlan.identity(4), 3)

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
        plans = [PermutationPlan.seeded_shuffle(16, s) for s in range(4)]
        honest = mj.block_oscillations(system, b, plans, 1)
        monkeypatch.setattr(mj, "_pointwise_diameters", inflate_third)
        batch = mj.block_oscillations(system, b, plans, 1)
        np.testing.assert_array_equal(batch.doubled_one_sided, honest.doubled_one_sided)
        want = honest.values.copy()
        want[2] = 3.0 * want[2] + 1.0
        np.testing.assert_array_equal(batch.values, want)
        assert np.all(batch.values[2] > batch.doubled_one_sided[2])
        monkeypatch.setattr(mj, "_pointwise_diameters",
                            lambda prefixes, offsets: 3.0 * real(prefixes, offsets) + 1.0)
        osc = tandori_delta(system, b, plans[0], 1)
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

    @pytest.mark.parametrize("filter_rows", [0, 1 << 30], ids=["filter", "all-pairs"])
    @pytest.mark.parametrize("budget", [mj.DIAMETER_BUDGET, 1])
    @pytest.mark.parametrize("case", sorted(SYSTEMS) + sorted(CRAFTED))
    def test_bitwise_equal_to_per_atom_loop(self, case, budget, filter_rows, monkeypatch):
        # budget 1 stacks one atom and one row per product, the default many
        monkeypatch.setattr(mj, "DIAMETER_BUDGET", budget)
        monkeypatch.setattr(mj, "FILTER_MIN_ROWS", filter_rows)
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
        monkeypatch.setattr(mj, "FILTER_MIN_ROWS", 0)
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
            plan = adversarial_permutation(system, b, n,
                                           AdversarialStrategy.GREEDY_MAX_PREFIX)
            assert plan.order == per_step_greedy(system, b, n)

    def test_greedy_exact_ties_match_per_step_recompute(self):
        _, _, system = generate(SystemSpec(SystemKind.STANDARD_BASIS, 16))
        b = np.array([1.0, -1.0] * 8)
        plan = adversarial_permutation(system, b, 16,
                                       AdversarialStrategy.GREEDY_MAX_PREFIX)
        assert plan.order == per_step_greedy(system, b, 16)

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
        plan = adversarial_permutation(system, b, n, AdversarialStrategy.GREEDY_MAX_PREFIX)
        assert plan.order == tuple(sorted(range(1, n + 1), key=lambda i: -abs(b[i - 1])))

    def test_greedy_orders_magnitudes_whose_squares_underflow(self):
        _, _, system = generate(SystemSpec(SystemKind.HAAR, 16))
        b = 1e-170 * np.arange(1, 17)
        assert np.all(b ** 2 == 0.0)
        # the float greedy sees sixteen zero scores and falls back to index order
        assert per_step_greedy(system, b, 16) == tuple(range(1, 17))
        plan = adversarial_permutation(system, b, 16, AdversarialStrategy.GREEDY_MAX_PREFIX)
        assert plan.order == tuple(range(16, 0, -1))

    def test_greedy_two_case(self):
        _, _, system = generate(SystemSpec(SystemKind.STANDARD_BASIS, 2))
        plan = adversarial_permutation(system, [1.0, 2.0], 2,
                                       AdversarialStrategy.GREEDY_MAX_PREFIX)
        assert plan.order == (2, 1)
        assert plan.provenance is PlanProvenance.GREEDY_ADVERSARIAL

    def test_greedy_tie_breaking_gives_identity(self):
        _, _, system = generate(SystemSpec(SystemKind.STANDARD_BASIS, 5))
        plan = adversarial_permutation(system, [0.5] * 5, 5,
                                       AdversarialStrategy.GREEDY_MAX_PREFIX)
        assert plan.order == (1, 2, 3, 4, 5)

    def test_block_reversal_sixteen(self):
        _, _, system = generate(SystemSpec(SystemKind.STANDARD_BASIS, 16))
        plan = adversarial_permutation(system, np.ones(16), 16,
                                       AdversarialStrategy.BLOCK_REVERSAL)
        want = (1, 2, 4, 3) + tuple(range(16, 4, -1))
        assert plan.order == want

    def test_deterministic(self):
        gen = rng(1)
        _, _, system = generate(
            SystemSpec(SystemKind.RANDOM_QR, 8, resolution=8, seed=4))
        b = gen.standard_normal(8)
        p1 = adversarial_permutation(system, b, 8, AdversarialStrategy.GREEDY_MAX_PREFIX)
        p2 = adversarial_permutation(system, b, 8, AdversarialStrategy.GREEDY_MAX_PREFIX)
        assert p1.order == p2.order

    def test_lemma_bound_under_every_plan(self):
        gen = rng(90)
        _, _, system = generate(SystemSpec(SystemKind.HAAR, 16))
        b = gen.standard_normal(16)
        rhs = (2 + math.log2(16)) * math.sqrt(float(np.sum(b ** 2)))
        plans = [PermutationPlan.identity(16),
                 PermutationPlan.seeded_shuffle(16, 1),
                 adversarial_permutation(system, b, 16,
                                         AdversarialStrategy.GREEDY_MAX_PREFIX),
                 adversarial_permutation(system, b, 16,
                                         AdversarialStrategy.BLOCK_REVERSAL)]
        for plan in plans:
            assert permuted_majorant(system, b, plan).l2_norm <= rhs * (1 + 1e-12)
