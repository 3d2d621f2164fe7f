import math

import numpy as np
import pytest

import orthoseries.majorants as mj
from orthoseries import (AdversarialStrategy, ContractError, Field,
                         PermutationPlan, PlanProvenance, StructuralError,
                         SystemKind, SystemSpec, adversarial_permutation,
                         chaining_diagnostics, dyadic_decomposition,
                         dyadic_pointwise_bound, generate, majorant,
                         permuted_majorant, prefix_sum, tandori_blocks,
                         tandori_delta)

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
        assert system.validate(1e-12)[0]
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
        assert osc.indicator_count == 2
        assert osc.mode == "exact"

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

    def test_doubled_mode_on_wide_blocks(self, monkeypatch):
        monkeypatch.setattr(mj, "EXACT_OSCILLATION_LIMIT", 4)
        gen = rng(46)
        _, _, system = generate(SystemSpec(SystemKind.HAAR, 16))
        b = gen.standard_normal(16)
        osc = tandori_delta(system, b, PermutationPlan.identity(16), 1)
        assert osc.mode == "doubled-one-sided"
        assert np.array_equal(osc.values, osc.doubled_one_sided)
        # the doubled estimate dominates the true oscillation and still
        # satisfies the block bound
        want = brute_delta(system, b, PermutationPlan.identity(16), 1, 16)
        assert np.all(want <= osc.values + 1e-12)
        assert osc.l2 <= osc.bound * (1 + 1e-12)

    def test_block_out_of_range(self):
        _, _, system = generate(SystemSpec(SystemKind.STANDARD_BASIS, 4))
        with pytest.raises(ContractError):
            tandori_delta(system, np.ones(4), PermutationPlan.identity(4), 3)

    def test_inflated_oscillation_raises(self, monkeypatch):
        # the exact vector-fiber path checks its all-pairs diameters against
        # the doubled one-sided bound with an explicit raise, which python -O
        # keeps
        real = mj._pointwise_diameters
        monkeypatch.setattr(mj, "_pointwise_diameters",
                            lambda prefixes, offsets: 3.0 * real(prefixes, offsets) + 1.0)
        _, _, system = generate(SystemSpec(SystemKind.TENSOR_VECTOR, 16, fiber_dim=2))
        b = rng(47).standard_normal(16)
        with pytest.raises(RuntimeError, match="doubled one-sided bound"):
            tandori_delta(system, b, PermutationPlan.identity(16), 1)


class TestAdversarial:
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
