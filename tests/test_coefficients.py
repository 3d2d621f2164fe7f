import math

import numpy as np
import pytest

from orthoseries import (Classification, ConditionId, ContractError,
                         SequenceSpec, WeightSpec, block_masses,
                         condensation_chain, orlicz_conditions,
                         orlicz_reduction, tandori_blocks, tandori_sum,
                         weyl_sum)

from conftest import rng

C = Classification


def oracle_weyl(values, truncation):
    """Independent evaluation: plain loop, math.log2, math.fsum."""
    terms = []
    for n in range(1, truncation + 1):
        a = values[n - 1] if n <= len(values) else 0.0
        terms.append(abs(a) ** 2 * math.log2(n + 1) ** 2)
    return math.fsum(terms)


def oracle_block_mass(values, lo, hi):
    return math.fsum(abs(values[n - 1]) ** 2 * math.log2(n) ** 2
                     for n in range(lo, hi + 1) if n <= len(values))


class TestWeylSum:
    def test_single_term(self):
        rep = weyl_sum(SequenceSpec.from_values([1.0]), 1)
        assert rep.total == 1.0  # log2(2) = 1

    def test_three_terms_vs_oracle(self):
        vals = [1.0, 0.5, 1.0 / 3.0]
        rep = weyl_sum(SequenceSpec.from_values(vals), 3)
        # frozen from oracle_weyl: 1 + 0.25 log2^2(3) + (1/9) * 4
        assert rep.total == pytest.approx(2.0724709766175096, rel=1e-15)
        assert rep.total == pytest.approx(oracle_weyl(vals, 3), rel=1e-15)
        assert rep.classification is C.UNKNOWN_FROM_TRUNCATION

    def test_power_log_harmonic_converges(self):
        rep = weyl_sum(SequenceSpec.power_log(1.0, 1.0, 0.0), 2048)
        assert rep.classification is C.CONVERGES
        # partial sums monotone and clearly bounded for sum n^-2 log^2
        assert np.all(np.diff(rep.partial_sums) >= 0)
        assert rep.total < 10.0

    @pytest.mark.parametrize("alpha,beta,want", [
        (1.0, 0.0, C.CONVERGES),     # p = 2
        (0.5, 2.0, C.CONVERGES),     # p = 1, q = 2
        (0.5, 1.5, C.DIVERGES),      # p = 1, q = 1 (boundary)
        (0.5, 1.4, C.DIVERGES),      # p = 1, q = 0.8
        (0.25, 0.0, C.DIVERGES),
        (0.5, 1.51, C.CONVERGES),    # p = 1, q = 1.02
    ])
    def test_bertrand_rule(self, alpha, beta, want):
        # series term ~ n^(-2 alpha) log^(2 - 2 beta): converges iff
        # 2 alpha > 1, or 2 alpha = 1 and 2 beta - 2 > 1
        rep = weyl_sum(SequenceSpec.power_log(1.0, alpha, beta), 64)
        assert rep.classification is want

    def test_scale_zero_converges(self):
        rep = weyl_sum(SequenceSpec.power_log(0.0, 0.0, 0.0), 16)
        assert rep.total == 0.0
        assert rep.classification is C.CONVERGES


class TestTandoriBlocks:
    def test_truncation_16(self):
        b = tandori_blocks(16)
        assert b.nu == (2, 4, 16)
        assert b.ranges == ((3, 4), (5, 16))

    def test_truncation_300(self):
        b = tandori_blocks(300)
        assert b.nu == (2, 4, 16, 256)
        assert b.ranges == ((3, 4), (5, 16), (17, 256), (257, 300))
        assert b.partial_last

    def test_truncation_70000(self):
        b = tandori_blocks(70000)
        assert 65536 in b.nu
        assert b.ranges[-1] == (65537, 70000)

    def test_small_truncation_rejected(self):
        with pytest.raises(ContractError, match="truncation must be >= 3"):
            tandori_blocks(2)

    def test_threshold_recurrence_and_partition(self):
        for truncation in (3, 4, 5, 16, 17, 255, 256, 257, 65536, 70000):
            b = tandori_blocks(truncation)
            for x, y in zip(b.nu, b.nu[1:]):
                assert y == x * x
            covered = []
            for lo, hi in b.ranges:
                covered.extend(range(lo, hi + 1))
            assert covered == list(range(3, truncation + 1))


class TestTandoriSum:
    def test_zero_family(self):
        rep = tandori_sum(SequenceSpec.power_log(0.0, 0.0, 0.0), 100)
        assert rep.total == 0.0
        assert rep.classification is C.CONVERGES

    def test_two_spike_sequence(self):
        a = SequenceSpec.from_values([0.0, 0.0, 1.0, 1.0])
        rep = tandori_sum(a, 16)
        # frozen: A0 = log2^2(3) + log2^2(4), sum = sqrt(A0)
        assert rep.total == pytest.approx(2.551882859516138, rel=1e-15)
        masses = block_masses(a, tandori_blocks(16))
        assert masses[0] == pytest.approx(6.512106128692261, rel=1e-15)
        assert masses[0] == pytest.approx(oracle_block_mass([0, 0, 1, 1], 3, 4), rel=1e-15)
        assert rep.classification is C.UNKNOWN_FROM_TRUNCATION

    @pytest.mark.parametrize("alpha,beta,want", [
        (1.0, 2.0, C.CONVERGES),
        (0.7, 0.0, C.CONVERGES),
        (0.5, 2.0, C.CONVERGES),   # boundary case via the weighted reduction
        (0.5, 1.5, C.DIVERGES),
        (0.5, 0.0, C.DIVERGES),
        (0.3, 0.0, C.DIVERGES),
    ])
    def test_power_log_classification(self, alpha, beta, want):
        rep = tandori_sum(SequenceSpec.power_log(1.0, alpha, beta), 256)
        assert rep.classification is want

    def test_partials_monotone(self):
        rep = tandori_sum(SequenceSpec.power_log(1.0, 0.4, 0.0), 4096)
        assert np.all(np.diff(rep.partial_sums) >= 0)


class TestOrliczConditions:
    def test_constant_weight_diverges(self):
        a = SequenceSpec.power_log(1.0, 1.0, 0.0)
        coeff, weight = orlicz_conditions(a, WeightSpec.log_power(0.0), 4096)
        assert weight.classification is C.DIVERGES
        assert np.all(np.diff(weight.partial_sums) >= 0)

    def test_gamma_two_converges(self):
        a = SequenceSpec.power_log(1.0, 1.0, 0.0)
        _, weight = orlicz_conditions(a, WeightSpec.log_power(2.0), 4096)
        assert weight.classification is C.CONVERGES

    def test_finite_support_coefficient_sum_stabilizes(self):
        # the weighted coefficient sum is a finite sum here; by the
        # analytic-only policy the classification stays unknown, but the
        # partials freeze at their final value
        a = SequenceSpec.from_values([0.0, 1.0, 2.0])
        coeff, _ = orlicz_conditions(a, WeightSpec.log_power(1.0), 256)
        assert coeff.classification is C.UNKNOWN_FROM_TRUNCATION
        assert coeff.partial_sums[-1] == coeff.partial_sums[2]

    def test_explicit_weight_validation(self):
        with pytest.raises(ContractError):
            WeightSpec.from_values([1.0, 0.5])
        with pytest.raises(ContractError):
            WeightSpec.from_values([0.0, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_explicit_values_must_be_finite(self, bad):
        with pytest.raises(ContractError, match=r"explicit sequence must be finite \(not at a_3\)"):
            SequenceSpec.from_values([1.0, 2.0, bad, 4.0])
        with pytest.raises(ContractError, match=r"explicit sequence must be finite \(not at a_2\)"):
            SequenceSpec.from_values([1.0, complex(0.5, bad)])
        with pytest.raises(ContractError, match=r"explicit weights must be finite \(not at w_2\)"):
            WeightSpec.from_values([1.0, bad, 2.0, 3.0])
        with pytest.raises(ContractError, match=r"explicit weights must be finite \(not at w_1\)"):
            WeightSpec.from_values([bad])

    def test_nan_weight_rejected_at_use(self):
        bad = WeightSpec(explicit=(1.0, math.nan, 2.0, 3.0))  # bypass the factory
        with pytest.raises(ContractError, match=r"not at w_2\)"):
            orlicz_reduction(SequenceSpec.from_values([1.0] * 4), bad, 4)

    def test_non_monotone_weights_rejected_at_use(self):
        bad = WeightSpec(explicit=(2.0, 1.0, 1.0))  # bypass the factory
        with pytest.raises(ContractError, match="nondecreasing"):
            orlicz_conditions(SequenceSpec.from_values([1.0, 1.0, 1.0]), bad, 3)

    def test_condition_ids(self):
        a = SequenceSpec.power_log(1.0, 1.0, 0.0)
        coeff, weight = orlicz_conditions(a, WeightSpec.log_power(1.0), 64)
        assert coeff.condition_id is ConditionId.ORLICZ_COEFF
        assert weight.condition_id is ConditionId.ORLICZ_WEIGHT


class TestCondensationChain:
    def test_worked_geometric_example(self):
        # w_n = max(1, log2 n)^2 gives w at the double-exponential
        # thresholds equal to 4^k, so the partial sums are geometric
        w = WeightSpec.log_power(2.0, shift=0.0)
        _, _, c_rep = condensation_chain(w, terms=10)
        assert c_rep.total == pytest.approx(1.3333320617675781, rel=1e-15)
        _, _, c_rep12 = condensation_chain(w, terms=12)
        assert abs(c_rep12.total - 4.0 / 3.0) < 1e-6

    @pytest.mark.parametrize("gamma", [-0.5, 0.0, 0.25, 0.5, 1.0, 2.0])
    def test_classifier_agreement(self, gamma):
        chain = condensation_chain(WeightSpec.log_power(gamma), terms=12)
        kinds = {rep.classification for rep in chain}
        assert len(kinds) == 1
        want = C.CONVERGES if gamma > 0 else C.DIVERGES
        assert kinds == {want}

    def test_gamma_one_totals(self):
        # third series is sum 2^-k plus the k=0 term 1/w_2 = 1
        _, _, c_rep = condensation_chain(WeightSpec.log_power(1.0), terms=20)
        want = math.fsum(0.5 ** k for k in range(20))
        assert c_rep.total == pytest.approx(want, rel=1e-13)

    def test_explicit_weight_too_short(self):
        w = WeightSpec.from_values([1.0, 1.0, 2.0, 3.0])
        with pytest.raises(ContractError, match="explicit weight"):
            condensation_chain(w, terms=5)

    def test_condition_ids(self):
        chain = condensation_chain(WeightSpec.log_power(1.0), terms=3)
        assert [r.condition_id for r in chain] == [
            ConditionId.ORLICZ_WEIGHT, ConditionId.CONDENSED_POW2,
            ConditionId.CONDENSED_DOUBLE_EXP]


class TestOrliczReduction:
    def test_zero_sequence_equality(self):
        red = orlicz_reduction(SequenceSpec.power_log(0.0, 0.0, 0.0),
                               WeightSpec.log_power(1.0), 100)
        assert red.lhs == red.mid == 0.0
        assert red.all_hold

    def test_two_spike_with_flat_weight(self):
        red = orlicz_reduction(SequenceSpec.from_values([0, 0, 1.0, 1.0]),
                               WeightSpec.log_power(0.0), 16)
        # only block 0 carries mass; c_partial = 2 with the constant weight
        assert red.c_partial == 2.0
        assert red.lhs == pytest.approx(6.512106128692261, rel=1e-14)
        assert red.mid == pytest.approx(2 * 6.512106128692261, rel=1e-14)
        assert red.all_hold

    def test_spec_grid_cell(self):
        red = orlicz_reduction(SequenceSpec.power_log(1.0, 1.0, 2.0),
                               WeightSpec.log_power(1.5), 65536)
        assert red.all_hold
        assert red.classification is C.CONVERGES

    def test_cauchy_schwarz_step_randomized(self):
        gen = rng(31)
        for _ in range(25):
            trunc = int(gen.integers(3, 400))
            a = SequenceSpec.from_values(gen.standard_normal(trunc))
            steps = np.abs(gen.standard_normal(trunc)) * 0.1
            w = WeightSpec.from_values(0.1 + np.cumsum(steps))
            red = orlicz_reduction(a, w, trunc)
            assert red.cauchy_holds
            assert red.monotonicity_holds

    @pytest.mark.parametrize("trunc", [0, 1, 2])
    def test_truncation_floor_is_three(self, trunc):
        # the chain's floor, before the pair's own floor of 2 is reached
        with pytest.raises(ContractError, match=r"truncation must be >= 3$"):
            orlicz_reduction(SequenceSpec.power_log(1.0, 1.0, 2.0), WeightSpec.log_power(1.5),
                             trunc)

    def test_weight_monotonicity_is_enforced(self):
        bad = WeightSpec(explicit=(2.0, 1.0, 1.0))  # bypass the factory check
        with pytest.raises(ContractError, match="nondecreasing"):
            orlicz_reduction(SequenceSpec.from_values([1.0, 1.0, 1.0]), bad, 3)

    @pytest.mark.parametrize("a,w,trunc", [
        (SequenceSpec.power_log(1.0, 1.0, 2.0), WeightSpec.log_power(1.5), 65536),
        (SequenceSpec.power_log(1.0, 0.5, 1.0), WeightSpec.log_power(0.5, shift=2.5), 300),
        (SequenceSpec.from_values(rng(5).standard_normal(40)),
         WeightSpec.from_values(1.0 + np.cumsum(np.abs(rng(6).standard_normal(257)))), 257),
    ], ids=["power-log", "shifted", "explicit"])
    def test_pair_and_rhs_from_one_draw(self, a, w, trunc):
        red = orlicz_reduction(a, w, trunc)
        n = np.arange(3, trunc + 1, dtype=float)
        terms = np.abs(a.coefficients(trunc)[2:]) ** 2 * np.log2(n) ** 2 * w.values(trunc)[2:]
        assert red.rhs == red.c_partial * math.fsum(terms)
        coeff, weight = orlicz_conditions(a, w, trunc)
        assert red.coefficient.condition_id is coeff.condition_id
        assert red.weight.condition_id is weight.condition_id
        assert np.array_equal(red.coefficient.partial_sums, coeff.partial_sums)
        assert np.array_equal(red.weight.partial_sums, weight.partial_sums)


def test_truncation_cap():
    with pytest.raises(ContractError, match="over the limit of 16777216 terms"):
        weyl_sum(SequenceSpec.power_log(1.0, 1.0, 0.0), (1 << 32) + 1)


def test_power_log_rejects_negative_scale():
    with pytest.raises(ContractError):
        SequenceSpec.power_log(-1.0, 1.0, 0.0)


@pytest.mark.parametrize("call", [
    lambda: SequenceSpec.power_log(1.0, -1000.0, 0.0).coefficients(8),
    lambda: SequenceSpec.power_log(0.0, -1000.0, 0.0).coefficients(8),
    lambda: WeightSpec.log_power(2000.0).values(8),
    lambda: WeightSpec.log_power(2000.0).value_at(4),
    lambda: WeightSpec.log_power(2000.0, shift=2.5).value_at(1),
], ids=["coeff-inf", "coeff-zero-times-inf", "weights-array", "weight-at", "weight-at-shift"])
def test_overflowing_families_refused(call):
    with pytest.raises(ContractError, match="overflows float64"):
        call()


@pytest.mark.parametrize("call", [
    lambda: weyl_sum(SequenceSpec.from_values([1e154] * 4), 4),
    lambda: tandori_sum(SequenceSpec.from_values([1e154] * 4), 4),
    lambda: orlicz_conditions(SequenceSpec.from_values([1e153] * 64),
                              WeightSpec.log_power(1.5), 64),
], ids=["mr-weyl", "tandori-blocked", "orlicz-coeff"])
def test_overflowing_condition_sums_refused(call):
    # finite coefficients whose condition sum overflows float64
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ContractError, match="partial sums overflow float64"):
        call()


def test_overflowing_masses_are_infinite():
    # the one-shot sums go to inf where fsum overflows in between
    masses = block_masses(SequenceSpec.from_values([1e153] * 64), tandori_blocks(64))
    assert masses[-1] == math.inf and np.all(np.isfinite(masses[:-1]))
