import gc
import json
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

from orthoseries import verify
from orthoseries import (BudgetError, Check, ContractError, SequenceSpec,
                         SystemKind, SystemSpec, TrialConfig,
                         exhaustive_permutation_check, generate, majorant,
                         oracle_majorant, run_suite)
from orthoseries.direct_integral import OrthonormalSystem
from orthoseries.systems import seeded_rng
from orthoseries.verify import (check_mr_inequality, check_riesz_ratio,
                                check_tandori_block, default_config,
                                tandori_threshold_arithmetic, trial_seed_path)

from conftest import rng


def small_config(**kw):
    kw.setdefault("system_specs", (
        SystemSpec(SystemKind.HAAR, 16),
        SystemSpec(SystemKind.RANDOM_QR, 16, resolution=8, fiber_dim=2, seed=3),
    ))
    kw.setdefault("n_trials", 10)
    kw.setdefault("seed", 7)
    kw.setdefault("checks", frozenset(Check))
    return TrialConfig(**kw)


class TestOracleMajorant:
    def test_standard_basis_example(self):
        _, _, system = generate(SystemSpec(SystemKind.STANDARD_BASIS, 2))
        prof = oracle_majorant(system, np.array([3.0, 4.0]))
        assert list(prof.values) == [3.0, 4.0]
        assert prof.l2_norm == 5.0

    def test_zero(self):
        _, _, system = generate(SystemSpec(SystemKind.HAAR, 4))
        prof = oracle_majorant(system, np.zeros(4))
        assert np.all(prof.values == 0)

    def test_agrees_with_streaming(self):
        gen = rng(12)
        kinds = [SystemKind.HAAR, SystemKind.RANDOM_QR, SystemKind.VARYING_DIM,
                 SystemKind.TENSOR_VECTOR]
        worst = 0.0
        for trial in range(60):
            kind = kinds[trial % len(kinds)]
            n = int(gen.integers(1, 65))
            kw = {}
            if kind is SystemKind.RANDOM_QR:
                kw = {"resolution": max(1, n // 2 + 1), "fiber_dim": 2, "seed": trial}
            if kind is SystemKind.TENSOR_VECTOR:
                kw = {"fiber_dim": 4}
            _, _, system = generate(SystemSpec(kind, n, **kw))
            b = gen.standard_normal(n)
            fast = majorant(system, b)
            slow = oracle_majorant(system, b)
            dev = float(np.max(np.abs(fast.values - slow.values)))
            worst = max(worst, dev, abs(fast.l2_norm - slow.l2_norm))
            assert np.array_equal(fast.argmax_prefix, slow.argmax_prefix)
        assert worst <= 1e-13

    def test_budget(self):
        _, _, system = generate(SystemSpec(SystemKind.STANDARD_BASIS, 4000))
        with pytest.raises(BudgetError):
            oracle_majorant(system, np.ones(4000))


class TestMrInequalityCheck:
    def test_fixed_ratio_standard_basis(self):
        cfg = TrialConfig(system_specs=(SystemSpec(SystemKind.STANDARD_BASIS, 2),),
                          checks={Check.MR_INEQUALITY}, n_trials=1, seed=0,
                          coeff_spec=SequenceSpec.from_values([3.0, 4.0]))
        res = check_mr_inequality(cfg)
        assert res.passed
        assert res.worst_ratio == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_single_function_ratio_half(self):
        cfg = TrialConfig(system_specs=(SystemSpec(SystemKind.STANDARD_BASIS, 1),),
                          checks={Check.MR_INEQUALITY}, n_trials=1, seed=0,
                          coeff_spec=SequenceSpec.from_values([5.0]))
        res = check_mr_inequality(cfg)
        assert res.worst_ratio == pytest.approx(0.5, rel=1e-15)

    def test_many_trials_pass(self):
        cfg = small_config(checks={Check.MR_INEQUALITY}, n_trials=200)
        res = check_mr_inequality(cfg)
        assert res.passed
        assert res.worst_ratio < 1.0
        assert "seed_path" in res.worst_case

    def test_nan_coefficients_fail_with_reproducer(self):
        cfg = TrialConfig(system_specs=(SystemSpec(SystemKind.STANDARD_BASIS, 2),),
                          checks={Check.MR_INEQUALITY}, n_trials=3, seed=1,
                          coeff_spec=SequenceSpec.from_values([1.0, math.nan]))
        res = check_mr_inequality(cfg)
        assert not res.passed
        assert math.isnan(res.worst_ratio)
        assert res.worst_case["seed_path"][0] == 1

    def test_injected_negative_slack_fails(self):
        cfg = small_config(checks={Check.MR_INEQUALITY}, n_trials=5,
                           tolerances={Check.MR_INEQUALITY: -0.999999})
        res = check_mr_inequality(cfg)
        assert not res.passed
        assert res.worst_case["seed_path"] is not None


class TestTandoriBlockCheck:
    def test_passes_and_carries_arithmetic(self):
        cfg = small_config(checks={Check.TANDORI_BLOCK}, n_trials=6, shuffle_plans=3)
        res = check_tandori_block(cfg)
        assert res.passed
        rows = res.details["threshold_arithmetic"]
        assert [row["nu"] for row in rows] == [2, 4, 16, 256, 65536, 2 ** 32]
        assert all(row["ok"] for row in rows)

    def test_nan_oscillation_is_the_reported_case(self, monkeypatch):
        # one plan and block go NaN in every trial: the earliest trial's
        # NaN record is the worst case, whatever finite ratios surround it
        real = verify.tandori_delta

        def nan_on_greedy_block_1(system, coeffs, plan, k, n=None):
            osc = real(system, coeffs, plan, k, n)
            if plan.describe() == "greedy-adversarial" and k == 1:
                return replace(osc, l2=math.nan)
            return osc

        monkeypatch.setattr(verify, "tandori_delta", nan_on_greedy_block_1)
        res = check_tandori_block(small_config(checks={Check.TANDORI_BLOCK}, n_trials=4))
        assert not res.passed
        assert math.isnan(res.worst_ratio)
        case = res.worst_case
        assert (case["trial"], case["plan"], case["block"]) == (0, "greedy-adversarial", 1)

    def test_arithmetic_values(self):
        rows = tandori_threshold_arithmetic()
        k1 = rows[1]
        assert k1["lhs"] == pytest.approx(11.169925001442312, rel=1e-15)
        assert k1["rhs"] == 16.0


class TestExhaustivePermutations:
    def test_two_function_example(self):
        _, _, system = generate(SystemSpec(SystemKind.STANDARD_BASIS, 2))
        res = exhaustive_permutation_check(system, np.array([3.0, 4.0]), 2)
        assert res.passed
        assert res.n_cases == 2
        assert res.worst_ratio == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_single_function(self):
        _, _, system = generate(SystemSpec(SystemKind.STANDARD_BASIS, 1))
        res = exhaustive_permutation_check(system, np.array([2.0]), 1)
        assert res.passed
        assert res.n_cases == 1

    def test_six_function_rademacher(self):
        _, _, system = generate(SystemSpec(SystemKind.RADEMACHER, 6))
        b = 1.0 / np.arange(1, 7)
        res = exhaustive_permutation_check(system, b, 6)
        assert res.passed
        assert res.n_cases == 720
        assert len(res.worst_case["worst_permutation"]) == 6

    def test_nan_coefficients_fail(self):
        _, _, system = generate(SystemSpec(SystemKind.HAAR, 6))
        res = exhaustive_permutation_check(system, np.full(6, np.nan), 6)
        assert not res.passed
        assert math.isnan(res.worst_ratio)
        assert res.n_cases == 720
        assert res.worst_case["worst_permutation"] == [1, 2, 3, 4, 5, 6]

    def test_size_cap(self):
        _, _, system = generate(SystemSpec(SystemKind.STANDARD_BASIS, 9))
        with pytest.raises(ContractError):
            exhaustive_permutation_check(system, np.ones(9), 9)


class TestRieszRatio:
    def test_ratio_identity_with_mr_normalization(self):
        # trial 0 by hand: the mix is drawn before b, and the ratio is
        # ||S_N*|| / (sqrt(B) (2 + log2 N) ||b||) on the mixed system
        cfg = TrialConfig(system_specs=(SystemSpec(SystemKind.HAAR, 32),),
                          checks={Check.RIESZ_RATIO}, n_trials=1, seed=5)
        res = check_riesz_ratio(cfg)
        _, _, system = generate(cfg.system_specs[0])
        gen = seeded_rng(trial_seed_path(5, Check.RIESZ_RATIO, 0))
        mix = verify._conditioned_mix(gen, 32, cfg.riesz_condition)
        mixed = OrthonormalSystem(system.space, system.fibers, mix @ system.values)
        b = gen.standard_normal(32) / np.arange(1, 33)
        rhs = (math.sqrt(res.worst_case["riesz_upper"]) * (2 + math.log2(32))
               * math.sqrt(float(np.sum(b ** 2))))
        assert res.passed
        assert res.worst_ratio == pytest.approx(majorant(mixed, b).l2_norm / rhs, rel=1e-14)

    def test_inflated_majorant_fails(self, monkeypatch):
        # scale every majorant so the worst trial lands at ratio 2
        cfg = small_config(checks={Check.RIESZ_RATIO}, n_trials=8)
        worst = check_riesz_ratio(cfg).worst_ratio
        real = verify.majorant

        def inflated(system, coeffs):
            prof = real(system, coeffs)
            return replace(prof, l2_norm=prof.l2_norm * 2.0 / worst)

        monkeypatch.setattr(verify, "majorant", inflated)
        res = check_riesz_ratio(cfg)
        assert not res.passed
        assert res.worst_ratio == pytest.approx(2.0, rel=1e-12)

    def test_check_reports_finite_ratio_and_bounds(self):
        cfg = small_config(checks={Check.RIESZ_RATIO}, n_trials=8,
                           riesz_condition=4.0)
        res = check_riesz_ratio(cfg)
        assert res.passed
        assert math.isfinite(res.worst_ratio)
        case = res.worst_case
        assert case["riesz_lower"] > 1e-6
        assert case["riesz_upper"] <= 16.0 * (1 + 1e-9)

    def test_orthogonal_mix_keeps_unit_bounds(self):
        # condition number 1 rotates the system without disturbing the
        # Gram spectrum
        cfg = small_config(checks={Check.RIESZ_RATIO}, n_trials=4,
                           riesz_condition=1.0)
        res = check_riesz_ratio(cfg)
        assert res.passed
        assert res.worst_case["riesz_lower"] == pytest.approx(1.0, abs=1e-9)
        assert res.worst_case["riesz_upper"] == pytest.approx(1.0, abs=1e-9)


class TestRunSuite:
    def test_empty_checks_pass(self):
        cfg = small_config(checks=frozenset())
        rep = run_suite(cfg)
        assert rep.all_passed
        assert rep.results == {}
        assert rep.exit_code == 0

    def test_default_small_suite_passes(self):
        rep = run_suite(small_config())
        assert rep.all_passed
        assert set(rep.results) == set(Check)

    def test_reports_reproducible(self):
        cfg = small_config()
        a = run_suite(cfg).to_json(include_timing=False)
        b = run_suite(cfg).to_json(include_timing=False)
        assert a == b

    def test_thread_count_does_not_change_report(self):
        cfg = small_config(n_trials=12)
        seq = run_suite(cfg, threads=1).to_json(include_timing=False)
        par = run_suite(cfg, threads=4).to_json(include_timing=False)
        assert seq == par

    def test_failure_sets_exit_code(self):
        cfg = small_config(checks={Check.MR_INEQUALITY},
                           tolerances={Check.MR_INEQUALITY: -0.999999})
        rep = run_suite(cfg)
        assert not rep.all_passed
        assert rep.exit_code == 1
        payload = json.loads(rep.to_json())
        assert payload["results"]["mr-inequality"]["passed"] is False
        assert payload["results"]["mr-inequality"]["worst_case"]["seed_path"]

    def test_timing_key_only_when_requested(self):
        rep = run_suite(small_config(checks={Check.DYADIC_POINTWISE}, n_trials=3))
        assert "wall_time_s" in rep.to_dict()
        assert "wall_time_s" not in rep.to_dict(include_timing=False)

    def test_default_config_shape(self):
        cfg = default_config(seed=1)
        kinds = {s.kind for s in cfg.system_specs}
        assert kinds == set(SystemKind)
        assert cfg.checks == frozenset(Check)


    def test_systems_live_for_one_run(self, monkeypatch):
        made = []

        def recording_generate(spec):
            out = generate(spec)
            made.append((spec, weakref.ref(out[2])))
            return out

        monkeypatch.setattr(verify, "generate", recording_generate)
        cfg = small_config(n_trials=4)
        report = run_suite(cfg)
        specs = [spec for spec, _ in made]
        assert len(specs) == len(set(specs)) > len(cfg.system_specs)
        assert report.all_passed
        del report
        gc.collect()
        assert all(ref() is None for _, ref in made)
        # the next run generates its systems afresh; a check called alone too
        run_suite(small_config(n_trials=1, checks={Check.MR_INEQUALITY}))
        assert [spec for spec, _ in made[len(specs):]] == [cfg.system_specs[0]]
        assert check_mr_inequality(small_config(n_trials=2)).passed
        assert len(made) == len(specs) + 3

class TestConfigValidation:
    def test_requires_specs(self):
        with pytest.raises(ContractError):
            TrialConfig(system_specs=())

    def test_exhaustive_cap(self):
        with pytest.raises(ContractError):
            small_config(exhaustive_n=9)

    def test_trial_count(self):
        with pytest.raises(ContractError):
            small_config(n_trials=0)
