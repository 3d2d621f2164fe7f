import gc
import itertools
import json
import math
import os
import subprocess
import sys
import time
import weakref
from pathlib import Path
from dataclasses import replace

import numpy as np
import pytest

from orthoseries import direct_integral, majorants, verify
from orthoseries import (BudgetError, Check, ContractError, SequenceSpec,
                         SystemKind, SystemSpec, TrialConfig, generate, majorant,
                         oracle_majorant, run_suite)
from orthoseries.direct_integral import Field, OrthonormalSystem, gram_matrix
from orthoseries.majorants import PermutationPlan, all_orders_l2
from orthoseries.systems import seeded_rng
from orthoseries.verify import default_config, tandori_threshold_arithmetic, trial_seed_path

from orthoseries.cli import main as cli_main

from conftest import non_hermitian_gram_system, rng, run_check, run_plan

SRC = Path(__file__).resolve().parent.parent / "src"

# the case entry of a tandori-block record whose diameters broke the bracket
BRACKET = "one-sided <= diameter <= 2 x one-sided"


# the three systems of the benchmark's large-n workload at seed 1
LARGE_N_SPECS = (
    SystemSpec(SystemKind.HAAR, 1024),
    SystemSpec(SystemKind.RANDOM_QR, 640, resolution=320, fiber_dim=2, seed=1001),
    SystemSpec(SystemKind.VARYING_DIM, 600),
)


# trial 0 (Haar n=256) outlasts the n=8 trials, so workers finish trials out
# of trial order
MIXED_SPECS = (
    SystemSpec(SystemKind.HAAR, 256),
    SystemSpec(SystemKind.HAAR, 8),
    SystemSpec(SystemKind.RANDOM_QR, 8, resolution=8, seed=5),
    SystemSpec(SystemKind.STANDARD_BASIS, 8),
)


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
        res = run_check(cfg, Check.MR_INEQUALITY)
        assert res.passed
        assert res.worst_ratio == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_single_function_ratio_half(self):
        cfg = TrialConfig(system_specs=(SystemSpec(SystemKind.STANDARD_BASIS, 1),),
                          checks={Check.MR_INEQUALITY}, n_trials=1, seed=0,
                          coeff_spec=SequenceSpec.from_values([5.0]))
        res = run_check(cfg, Check.MR_INEQUALITY)
        assert res.worst_ratio == pytest.approx(0.5, rel=1e-15)

    def test_many_trials_pass(self):
        cfg = small_config(checks={Check.MR_INEQUALITY}, n_trials=200)
        res = run_check(cfg, Check.MR_INEQUALITY)
        assert res.passed
        assert res.worst_ratio < 1.0
        assert "seed_path" in res.worst_case

    def test_nan_coefficients_fail_with_reproducer(self):
        cfg = TrialConfig(system_specs=(SystemSpec(SystemKind.STANDARD_BASIS, 2),),
                          checks={Check.MR_INEQUALITY}, n_trials=3, seed=1,
                          coeff_spec=SequenceSpec(explicit=(1.0, math.nan)))
        res = run_check(cfg, Check.MR_INEQUALITY)
        assert not res.passed
        assert math.isnan(res.worst_ratio)
        assert res.worst_case["seed_path"][0] == 1

    def test_injected_negative_slack_fails(self):
        cfg = small_config(checks={Check.MR_INEQUALITY}, n_trials=5,
                           tolerances={Check.MR_INEQUALITY: -0.999999})
        res = run_check(cfg, Check.MR_INEQUALITY)
        assert not res.passed
        assert res.worst_case["seed_path"] is not None


class TestTandoriBlockCheck:
    def test_passes_and_carries_arithmetic(self):
        cfg = small_config(checks={Check.TANDORI_BLOCK}, n_trials=6, shuffle_plans=3)
        res = run_check(cfg, Check.TANDORI_BLOCK)
        assert res.passed
        rows = res.details["threshold_arithmetic"]
        assert [row["nu"] for row in rows] == [2, 4, 16, 256, 65536, 2 ** 32]
        assert all(row["ok"] for row in rows)

    def test_nan_oscillation_is_the_reported_case(self, monkeypatch):
        # one plan and block go NaN in every trial: the earliest trial's
        # NaN record is the worst case, whatever finite ratios surround it
        real = verify.block_oscillations

        def nan_on_greedy_block_1(system, coeffs, plans, k, n=None):
            osc = real(system, coeffs, plans, k, n)
            greedy = [plan.describe() == "greedy-adversarial" and k == 1 for plan in plans]
            return replace(osc, l2=np.where(greedy, math.nan, osc.l2))

        monkeypatch.setattr(verify, "block_oscillations", nan_on_greedy_block_1)
        res = run_check(small_config(checks={Check.TANDORI_BLOCK}, n_trials=4), Check.TANDORI_BLOCK)
        assert not res.passed
        assert math.isnan(res.worst_ratio)
        case = res.worst_case
        assert (case["trial"], case["plan"], case["block"]) == (0, "greedy-adversarial", 1)

    # block 1 of n=16 (indices 5..16) has 13 prefix rows, its start included
    @pytest.mark.parametrize("plans", [slice(None), slice(2, 3)],
                             ids=["every-plan", "third-plan"])
    def test_inflated_diameters_fail_the_check(self, monkeypatch, plans):
        # diameters past twice the one-sided supremum on block 1 fail the
        # check without an exception, and the worst case names the inflated
        # plan, the block and the bracket
        real = majorants._pointwise_diameters

        def inflate(prefixes, offsets):
            out = real(prefixes, offsets)
            if prefixes.shape[-2] == 13:
                out[plans] = 3.0 * out[plans] + 1.0
            return out

        monkeypatch.setattr(majorants, "_pointwise_diameters", inflate)
        cfg = small_config(checks={Check.TANDORI_BLOCK}, n_trials=1, system_specs=(
            SystemSpec(SystemKind.TENSOR_VECTOR, 16, fiber_dim=2),))
        res = run_check(cfg, Check.TANDORI_BLOCK)
        assert not res.passed
        case = res.worst_case
        assert (case["block"], case["bracket"]) == (1, BRACKET)
        if plans == slice(2, 3):
            path = trial_seed_path(cfg.seed, Check.TANDORI_BLOCK, 0) + (1,)
            assert case["plan"] == PermutationPlan.seeded_shuffle(16, path).describe()

    @pytest.mark.parametrize("mutate", [
        lambda osc: replace(osc, doubled_one_sided=0.5 * osc.doubled_one_sided),
        lambda osc: replace(osc, values=0.5 * osc.values, l2=0.5 * osc.l2),
    ], ids=["doubling-removed", "diameter-halved"])
    def test_bracket_mutants_fail_with_a_report(self, monkeypatch, tmp_path, capsys, mutate):
        # each half of the bracket kills its own mutant on default.json:
        # exit 1 with a written report, not a traceback
        real = verify.block_oscillations
        monkeypatch.setattr(verify, "block_oscillations", lambda *args: mutate(real(*args)))
        out = tmp_path / "report.json"
        assert cli_main(["verify", "--config", str(SRC.parent / "default.json"), "--seed", "1",
                         "--check", "tandori-block", "--out", str(out)]) == 1
        assert capsys.readouterr().err == ""
        result = json.loads(out.read_text())["results"]["tandori-block"]
        assert not result["passed"]
        assert result["worst_case"]["bracket"] == BRACKET
        # the bracket's slack is the default one, whatever the config's tolerance
        cfg = small_config(checks={Check.TANDORI_BLOCK}, n_trials=2,
                           tolerances={Check.TANDORI_BLOCK: 1e6})
        res = run_check(cfg, Check.TANDORI_BLOCK)
        assert not res.passed and res.worst_case["bracket"] == BRACKET

    def test_arithmetic_values(self):
        rows = tandori_threshold_arithmetic()
        k1 = rows[1]
        assert k1["lhs"] == pytest.approx(11.169925001442312, rel=1e-15)
        assert k1["rhs"] == 16.0


def exhaustive(spec, b=None, **kw):
    """exhaustive-perm's result on the one system ``spec``, over every order
    of its n functions, its coefficients pinned to ``b`` (by default drawn)."""
    cfg = TrialConfig(system_specs=(spec,), checks={Check.EXHAUSTIVE_PERM},
                      exhaustive_n=spec.n_functions,
                      coeff_spec=None if b is None else SequenceSpec.from_values(b), **kw)
    return run_plan(verify.check_exhaustive_perm, cfg, {})


class TestExhaustivePermutations:
    def test_two_function_example(self):
        res = exhaustive(SystemSpec(SystemKind.STANDARD_BASIS, 2), [3.0, 4.0])
        assert res.passed
        assert res.n_cases == 2
        assert res.worst_ratio == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_single_function(self):
        res = exhaustive(SystemSpec(SystemKind.STANDARD_BASIS, 1), [2.0])
        assert res.passed
        assert res.n_cases == 1

    def test_six_function_rademacher(self):
        res = exhaustive(SystemSpec(SystemKind.RADEMACHER, 6), 1.0 / np.arange(1, 7))
        assert res.passed
        assert res.n_cases == 720
        assert len(res.worst_case["worst_permutation"]) == 6

    def test_eight_function_haar(self):
        # n = 8, the largest exhaustive size: 40,320 orders in one batched sweep
        res = exhaustive(SystemSpec(SystemKind.HAAR, 8), 1.0 / np.arange(1, 9))
        assert res.passed
        assert res.n_cases == 40320
        assert sorted(res.worst_case["worst_permutation"]) == list(range(1, 9))
        assert 0 < res.worst_ratio < 1

    def test_nan_sweep_fails(self, monkeypatch):
        # a config refuses NaN coefficients, so the sweep itself returns NaN:
        # the trial fails with a NaN ratio at the first order
        monkeypatch.setattr(verify, "all_orders_l2",
                            lambda system, coeffs, orders: np.full(len(orders), np.nan))
        res = exhaustive(SystemSpec(SystemKind.HAAR, 6), np.ones(6))
        assert not res.passed
        assert math.isnan(res.worst_ratio)
        assert res.n_cases == 720
        assert res.worst_case["worst_permutation"] == [1, 2, 3, 4, 5, 6]

    def test_size_cap(self):
        with pytest.raises(ContractError):
            exhaustive(SystemSpec(SystemKind.STANDARD_BASIS, 9), np.ones(9))

    def test_orders_built_once_per_setup(self, monkeypatch):
        # every trial sweeps the one lexicographic order array of the setup
        real, seen = verify.all_orders_l2, []

        def sweep(system, coeffs, orders):
            seen.append(orders)
            return real(system, coeffs, orders)

        monkeypatch.setattr(verify, "all_orders_l2", sweep)
        cfg = small_config(checks={Check.EXHAUSTIVE_PERM}, exhaustive_n=4)
        res = run_plan(verify.check_exhaustive_perm, cfg, {})
        assert res.passed and res.n_cases == 2 * 24
        assert len(seen) == 2 and seen[0] is seen[1]
        assert seen[0].tolist() == [list(p) for p in itertools.permutations(range(4))]

    @pytest.mark.parametrize("spec", [
        SystemSpec(SystemKind.HAAR, 6),
        SystemSpec(SystemKind.STANDARD_BASIS, 5),
        SystemSpec(SystemKind.RANDOM_QR, 5, resolution=8, seed=4, field=Field.COMPLEX),
    ], ids=lambda spec: spec.describe())
    @pytest.mark.parametrize("coeffs", [
        "nan", "zero", "tied", "1e-160", "1e308", "one-nan", "drawn"])
    def test_matches_per_record_loop(self, spec, coeffs, monkeypatch):
        # the claim picks its worst order from arrays; the reference builds
        # one record per order of the same sweep and merges them by the
        # suite's rule.  A config refuses NaN coefficients, so "nan" and
        # "one-nan" put NaN into the sweep's output instead: every order's,
        # or that of the orders starting with the last index
        n = spec.n_functions
        b = {"zero": np.zeros(n), "tied": np.ones(n), "1e-160": np.full(n, 1e-160),
             "1e308": np.full(n, 1e308), "drawn": rng(n).standard_normal(n)}.get(coeffs, np.ones(n))
        real, seen = verify.all_orders_l2, []

        def sweep(system, coeffs_, orders):
            lhs = real(system, coeffs_, orders)
            if coeffs == "nan":
                lhs[:] = np.nan
            elif coeffs == "one-nan":
                lhs[orders[:, 0] == n - 1] = np.nan
            seen.append((orders, lhs))
            return lhs

        monkeypatch.setattr(verify, "all_orders_l2", sweep)
        slack = 1e-12
        with np.errstate(all="ignore"):
            res = exhaustive(spec, b, tolerances={Check.EXHAUSTIVE_PERM: slack})
            rhs = (2.0 + math.log2(n)) * math.sqrt(float(np.sum(np.abs(b) ** 2)))
        [(orders, lhs)] = seen
        worst = verify._merge_worst([
            verify._record(l2, rhs, slack, {"worst_permutation": (order + 1).tolist()})
            for order, l2 in zip(orders, lhs.tolist())])
        assert res.passed == worst["ok"]
        assert res.n_cases == len(orders) == math.factorial(n)
        assert res.worst_case["worst_permutation"] == worst["case"]["worst_permutation"]
        assert (math.isnan(res.worst_ratio) and math.isnan(worst["ratio"])
                or res.worst_ratio == worst["ratio"])
        if coeffs == "zero" or coeffs == "tied" and spec.kind is SystemKind.STANDARD_BASIS:
            # every order ties; the first one is reported
            assert res.worst_case["worst_permutation"] == list(range(1, n + 1))


class TestRieszRatio:
    def test_ratio_identity_with_mr_normalization(self):
        # trial 0 by hand: the mix is drawn before b, and the ratio is
        # ||S_N*|| / (sqrt(B) (2 + log2 N) ||b||) on the mixed system
        cfg = TrialConfig(system_specs=(SystemSpec(SystemKind.HAAR, 32),),
                          checks={Check.RIESZ_RATIO}, n_trials=1, seed=5)
        res = run_check(cfg, Check.RIESZ_RATIO)
        _, _, system = generate(cfg.system_specs[0])
        gen = seeded_rng(trial_seed_path(5, Check.RIESZ_RATIO, 0))
        values, _ = verify._conditioned_mix(gen, system.values, cfg.riesz_condition)
        mixed = OrthonormalSystem(system.space, system.fibers, values)
        b = gen.standard_normal(32) / np.arange(1, 33)
        rhs = (math.sqrt(res.worst_case["riesz_upper"]) * (2 + math.log2(32))
               * math.sqrt(float(np.sum(b ** 2))))
        assert res.passed
        assert res.worst_ratio == pytest.approx(majorant(mixed, b).l2_norm / rhs, rel=1e-14)

    def test_inflated_majorant_fails(self, monkeypatch):
        # scale every majorant so the worst trial lands at ratio 2
        cfg = small_config(checks={Check.RIESZ_RATIO}, n_trials=8)
        worst = run_check(cfg, Check.RIESZ_RATIO).worst_ratio
        real = verify.majorant

        def inflated(system, coeffs):
            prof = real(system, coeffs)
            return replace(prof, l2_norm=prof.l2_norm * 2.0 / worst)

        monkeypatch.setattr(verify, "majorant", inflated)
        res = run_check(cfg, Check.RIESZ_RATIO)
        assert not res.passed
        assert res.worst_ratio == pytest.approx(2.0, rel=1e-12)

    def test_mix_has_singular_values_s(self):
        # mixing the identity returns M itself, whose singular values are s
        gen = rng(3)
        mix, s = verify._conditioned_mix(gen, np.eye(64), 4.0)
        assert s[0] == 1.0 and s[-1] == 4.0
        np.testing.assert_allclose(np.linalg.svd(mix, compute_uv=False), s[::-1],
                                   rtol=1e-14)
        # one (2k, 64) draw, nothing else
        again = rng(3)
        again.standard_normal((2 * verify.MIX_REFLECTORS, 64))
        assert again.standard_normal() == gen.standard_normal()

    @pytest.mark.parametrize("condition", [1.0, 4.0])
    @pytest.mark.parametrize("spec", [
        *(SystemSpec(kind, n) for kind in SystemKind
          for n in ((1, 8) if kind is SystemKind.RADEMACHER else (1, 64))),
        SystemSpec(SystemKind.RANDOM_QR, 64, resolution=64, fiber_dim=1, seed=102,
                   field=Field.COMPLEX),
        *LARGE_N_SPECS,
    ], ids=lambda spec: spec.describe())
    def test_constructed_bounds_bracket_eigvalsh(self, spec, condition):
        # the Riesz bounds taken from the construction against the mixed
        # system's own Gram spectrum (Rademacher stops at n = 8: 2^n atoms)
        cfg = TrialConfig(system_specs=(spec,), checks={Check.RIESZ_RATIO}, n_trials=1,
                          seed=3, riesz_condition=condition)
        case = run_check(cfg, Check.RIESZ_RATIO).worst_case
        _, _, system = generate(spec)
        gen = seeded_rng(trial_seed_path(3, Check.RIESZ_RATIO, 0))
        values, _ = verify._conditioned_mix(gen, system.values, condition)
        exact = gram_matrix(OrthonormalSystem(system.space, system.fibers, values))
        assert exact.riesz_upper <= case["riesz_upper"] <= exact.riesz_upper * (1 + 1e-13)
        assert case["riesz_lower"] <= exact.riesz_lower

    def test_gram_once_per_spec_and_no_trial_factorization(self, monkeypatch):
        # G0's bounds come from one Gram product per system, before the
        # trials; nothing runs an eigensolve, and no trial runs a QR or a Gram
        # product (random-qr systems are generated by QR, so they are made first)
        cfg = small_config(checks={Check.RIESZ_RATIO}, n_trials=8)
        systems = verify._make_systems(cfg.system_specs, {})
        calls = dict.fromkeys(("gram", "eigvalsh", "eigh", "eigvals", "eig"), 0)

        def counted(name, real):
            def fn(*args, **kw):
                calls[name] += 1
                return real(*args, **kw)
            return fn

        def qr(*args, **kw):
            raise AssertionError("riesz-ratio ran a QR")

        monkeypatch.setattr(direct_integral, "_hermitian_gram",
                            counted("gram", direct_integral._hermitian_gram))
        for name in ("eigvalsh", "eigh", "eigvals", "eig"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        monkeypatch.setattr(np.linalg, "qr", qr)
        res = run_plan(verify.check_riesz_ratio, cfg, systems)
        assert res.passed and res.n_cases == 8
        assert calls == {"gram": 2, "eigvalsh": 0, "eigh": 0, "eigvals": 0, "eig": 0}

    def test_nan_in_g0_fails_the_trial(self, monkeypatch):
        # a NaN lower bound fails its trial through ``lower > 1e-6`` while
        # the ratio stays finite; a system with a NaN value fails, not raises
        cfg = small_config(checks={Check.RIESZ_RATIO}, n_trials=4)
        real = verify.gershgorin_bounds
        monkeypatch.setattr(verify, "gershgorin_bounds",
                            lambda system: (math.nan, real(system)[1]))
        res = run_check(cfg, Check.RIESZ_RATIO)
        assert not res.passed and math.isfinite(res.worst_ratio)
        assert math.isnan(res.worst_case["riesz_lower"])
        monkeypatch.undo()

        systems = verify._make_systems(cfg.system_specs, {})
        haar = systems[cfg.system_specs[0]]
        values = np.array(haar.values)
        values[3, 5] = math.nan
        systems[cfg.system_specs[0]] = OrthonormalSystem(haar.space, haar.fibers, values)
        res = run_plan(verify.check_riesz_ratio, cfg, systems)
        assert not res.passed
        assert res.worst_case["trial"] == 0 and math.isnan(res.worst_case["riesz_lower"])

    def test_non_hermitian_g0_fails_each_trial_on_its_system(self):
        # verify made the system, so a G0 that is not Hermitian is a kernel
        # defect: every trial on it is a failed case of NaN ratio that names
        # the invariant, not a StructuralError (exit 2, malformed input)
        cfg = small_config(checks={Check.RIESZ_RATIO}, n_trials=4)
        systems = verify._make_systems(cfg.system_specs, {})
        systems[cfg.system_specs[1]] = non_hermitian_gram_system()
        res = run_plan(verify.check_riesz_ratio, cfg, systems)
        assert not res.passed and res.n_cases == 4
        assert math.isnan(res.worst_ratio)
        assert res.worst_case["trial"] == 1
        assert res.worst_case["invariant"] == "G0 Hermitian to 1e-12"

    def test_failed_lower_bound_is_the_worst_case(self, monkeypatch):
        # a trial failed only by its lower Riesz bound is the reported case,
        # above the passing trials of higher ratio
        cfg = small_config(checks={Check.RIESZ_RATIO}, n_trials=4)
        systems = verify._make_systems(cfg.system_specs, {})
        honest = run_plan(verify.check_riesz_ratio, cfg, systems)
        other = 1 - honest.worst_case["trial"] % 2
        target = systems[cfg.system_specs[other]]
        real = verify.gershgorin_bounds
        monkeypatch.setattr(verify, "gershgorin_bounds", lambda system: (
            (0.0, real(system)[1]) if system is target else real(system)))
        res = run_plan(verify.check_riesz_ratio, cfg, systems)
        assert not res.passed
        assert res.worst_case["trial"] % 2 == other and res.worst_case["riesz_lower"] == 0.0
        assert res.worst_ratio < honest.worst_ratio

    def test_check_reports_finite_ratio_and_bounds(self):
        cfg = small_config(checks={Check.RIESZ_RATIO}, n_trials=8,
                           riesz_condition=4.0)
        res = run_check(cfg, Check.RIESZ_RATIO)
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
        res = run_check(cfg, Check.RIESZ_RATIO)
        assert res.passed
        assert res.worst_case["riesz_lower"] == pytest.approx(1.0, abs=1e-9)
        assert res.worst_case["riesz_upper"] == pytest.approx(1.0, abs=1e-9)


class TestWorstCase:
    def test_failed_record_outranks_passing_ones(self):
        passing = {"ratio": 0.9, "ok": True, "case": {"trial": 0}}
        failed = {"ratio": 0.1, "ok": False, "case": {"trial": 1}}
        for records in ([passing, failed], [failed, passing]):
            assert verify._merge_worst(records) == failed
        nan = {"ratio": math.nan, "ok": False, "case": {"trial": 2}}
        assert verify._merge_worst([passing, failed, nan])["case"] == {"trial": 2}
        later = {"ratio": 0.9, "ok": True, "case": {"trial": 3}}
        assert verify._merge_worst([later, passing]) == dict(passing, ok=True)


class TestRunSuite:
    def test_empty_checks_refused(self):
        # a suite of no checks would pass vacuously
        with pytest.raises(ContractError, match="at least one check"):
            small_config(checks=frozenset())

    @pytest.mark.parametrize("cfg", [
        default_config(seed=1),
        TrialConfig(system_specs=LARGE_N_SPECS, n_trials=3, seed=1, checks={
            Check.MR_INEQUALITY, Check.MR_THEOREM, Check.BLOCK_NORM_SUM,
            Check.BLOCK_SQ_SUM, Check.TANDORI_BLOCK, Check.RIESZ_RATIO}),
    ], ids=["default", "large-n"])
    def test_no_eigensolver_on_a_verify_path(self, cfg, monkeypatch):
        def refuse(*args, **kw):
            raise AssertionError("a verify path ran an eigensolver")

        for name in ("eigvalsh", "eigh", "eigvals", "eig"):
            monkeypatch.setattr(np.linalg, name, refuse)
        assert run_suite(cfg, threads=1).all_passed

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

    @pytest.mark.parametrize("threads", [1, 2])
    def test_check_alone_reports_as_in_the_full_suite(self, threads):
        # no check's result depends on which other checks run beside it
        cfg = default_config(seed=1, n_trials=8)
        full = run_suite(cfg, threads=threads).results
        for check in Check:
            assert run_check(cfg, check, threads).to_dict() == full[check].to_dict()

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
        # the next run generates every system of its config afresh, before
        # its first check, also a run of one check
        run_suite(small_config(n_trials=1, checks={Check.MR_INEQUALITY}))
        assert [spec for spec, _ in made[len(specs):]] == list(cfg.system_specs)
        assert run_check(small_config(n_trials=2), Check.MR_INEQUALITY).passed
        assert len(made) == len(specs) + 4


def _in_children(action):
    """verify.majorant, with ``action()`` run first in forked workers only;
    the calling process lags, so that the children claim trials."""
    parent, real = os.getpid(), verify.majorant

    def majorant_(system, coeffs):
        if os.getpid() != parent:
            action()
        else:
            time.sleep(0.02)
        return real(system, coeffs)
    return majorant_


class TestWorkers:
    def test_few_trials_many_workers(self):
        cfg = small_config(n_trials=3)
        assert (run_suite(cfg, threads=8).to_json(include_timing=False)
                == run_suite(cfg, threads=1).to_json(include_timing=False))

    def test_mixed_sizes_byte_equal(self):
        cfg = small_config(n_trials=8, system_specs=MIXED_SPECS)
        assert (run_suite(cfg, threads=2).to_json(include_timing=False)
                == run_suite(cfg, threads=1).to_json(include_timing=False))

    @pytest.mark.parametrize("cfg", [default_config(seed=1),
                                     small_config(n_trials=8, system_specs=MIXED_SPECS)],
                             ids=["default", "mixed"])
    def test_one_two_three_workers_byte_equal(self, cfg):
        # three workers on two CPUs: the pool's claims span checks
        one, two, three = (run_suite(cfg, threads=t).to_json(include_timing=False)
                           for t in (1, 2, 3))
        assert one == two == three

    def test_one_fork_batch_per_run(self, monkeypatch):
        # N - 1 forks for the whole run at N workers, not per check
        forks, real = [], os.fork

        def fork():
            pid = real()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        assert run_suite(default_config(seed=1, n_trials=8), threads=3).all_passed
        assert len(forks) == 2

    def test_earliest_claim_error_wins(self, monkeypatch, tmp_path):
        # chaining trial 5 (claim 5) raises late; dyadic-pointwise trial 2
        # (claim 12, later in the pool) raises first in time at 2 workers; the
        # caller gets the earliest claim's error at 1 and at 2 workers
        log = os.open(tmp_path / "log", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        real = verify.trial_seed_path

        def seed_path(seed, check, t):
            if (check, t) == (Check.MR_THEOREM, 5):
                time.sleep(0.5)
                os.write(log, b"chaining\n")
                raise ContractError("chaining trial 5")
            if (check, t) == (Check.DYADIC_POINTWISE, 2):
                os.write(log, b"dyadic\n")
                raise BudgetError("dyadic trial 2")
            return real(seed, check, t)

        monkeypatch.setattr(verify, "trial_seed_path", seed_path)
        cfg = small_config(checks={Check.DYADIC_POINTWISE, Check.MR_THEOREM})
        try:
            for threads in (1, 2):
                with pytest.raises(ContractError, match="^chaining trial 5$"):
                    run_suite(cfg, threads=threads)
        finally:
            os.close(log)
        # one worker stops at the first error; at two, both errors were raised
        raised = (tmp_path / "log").read_text().split()
        assert raised[0] == "chaining" and sorted(raised[1:]) == ["chaining", "dyadic"]

    def test_setup_refusal_before_any_fork(self, monkeypatch, tmp_path, capsys):
        # tandori-block refuses a config without a system of n >= 5 in its
        # setup; every setup runs before the pool forks, so nothing forks,
        # though mr-inequality comes first in the report's check order
        def fork():
            raise AssertionError("forked before every setup ran")

        monkeypatch.setattr(os, "fork", fork)
        cfg = TrialConfig(system_specs=(SystemSpec(SystemKind.HAAR, 4),), n_trials=4,
                          checks={Check.MR_INEQUALITY, Check.TANDORI_BLOCK})
        with pytest.raises(ContractError, match="n >= 5"):
            run_suite(cfg, threads=2)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"systems": [{"kind": "haar", "n": 4}], "n_trials": 4,
                                    "checks": ["mr-inequality", "tandori-block"]}))
        out = tmp_path / "report.json"
        assert cli_main(["verify", "--config", str(path), "--threads", "2",
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: tandori block checks need at least one system with n >= 5\n")
        assert not out.exists()

    def test_every_trial_runs_once_in_order(self, tmp_path):
        # more workers than CPUs; each run appends its index to one log, so
        # a trial claimed twice or never shows there
        log = os.open(tmp_path / "log", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

        def trial(t):
            os.write(log, f"{t}\n".encode())
            time.sleep(0.001)
            return t, os.getpid()

        try:
            out = verify._forked(200, trial, 4)
        finally:
            os.close(log)
        assert [t for t, _ in out] == list(range(200))
        assert {pid for _, pid in out} - {os.getpid()}
        assert sorted(map(int, (tmp_path / "log").read_text().split())) == list(range(200))

    @pytest.mark.parametrize("check", [
        Check.MR_INEQUALITY, Check.MR_THEOREM, Check.TANDORI_BLOCK, Check.EXHAUSTIVE_PERM,
        Check.RIESZ_RATIO], ids=lambda c: c.value)
    def test_check_alone_makes_its_systems_before_forking(self, check, monkeypatch, tmp_path):
        # a run of one check at two workers: each generate call appends its
        # pid to one log, so a system made in a forked worker, or made twice,
        # shows there
        log = os.open(tmp_path / "log", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        real = verify.generate

        def logged(spec):
            os.write(log, f"{os.getpid()}\n".encode())
            return real(spec)

        monkeypatch.setattr(verify, "generate", logged)
        cfg = small_config(n_trials=6)
        try:
            run_suite(replace(cfg, checks={check}), threads=2)
        finally:
            os.close(log)
        pids = (tmp_path / "log").read_text().split()
        assert pids == [str(os.getpid())] * len(cfg.system_specs)

    def test_trial_error_keeps_its_type(self, monkeypatch, tmp_path, capsys):
        def refuse():
            raise ContractError("injected refusal")

        monkeypatch.setattr(verify, "majorant", _in_children(refuse))
        cfg = small_config(n_trials=20, checks={Check.MR_INEQUALITY})
        with pytest.raises(ContractError, match="injected refusal"):
            run_suite(cfg, threads=2)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"systems": [{"kind": "haar", "n": 16}], "n_trials": 20,
                                    "checks": ["mr-inequality"]}))
        out = tmp_path / "report.json"
        assert cli_main(["verify", "--config", str(path), "--threads", "2",
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: injected refusal\n"
        assert not out.exists()

    def test_dead_worker_is_an_error(self, monkeypatch):
        monkeypatch.setattr(verify, "majorant", _in_children(lambda: os._exit(3)))
        cfg = small_config(n_trials=20, checks={Check.MR_INEQUALITY})
        with pytest.raises(RuntimeError, match="exited with status 3"):
            run_suite(cfg, threads=2)

    def test_dead_worker_exits_2(self, monkeypatch, tmp_path, capsys):
        # a dead worker is a BudgetError, which the CLI counts as
        # unaffordable work: exit 2, one error line, no report
        monkeypatch.setattr(verify, "majorant", _in_children(lambda: os._exit(3)))
        with pytest.raises(BudgetError, match="exited with status 3"):
            run_suite(small_config(n_trials=20, checks={Check.MR_INEQUALITY}), threads=2)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"systems": [{"kind": "haar", "n": 16}], "n_trials": 20,
                                    "checks": ["mr-inequality"]}))
        out = tmp_path / "report.json"
        assert cli_main(["verify", "--config", str(path), "--threads", "2",
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "exited with status 3" in err[0]
        assert not out.exists()

    def test_large_n_bytes_equal_under_threaded_blas(self):
        # G0 is computed in the calling process before any fork and no trial
        # calls BLAS, so a report is byte-identical at one worker and at two,
        # with OpenBLAS allowed 4 threads in every process
        _run_under_threaded_blas(
            "from orthoseries import Check, TrialConfig, run_suite\n"
            + _LARGE_N_CODE +
            "cfg = TrialConfig(system_specs=specs, n_trials=3, seed=1,\n"
            "                  checks={Check.RIESZ_RATIO, Check.MR_INEQUALITY})\n"
            "one, two = (run_suite(cfg, threads=t).to_json(include_timing=False)\n"
            "            for t in (1, 2))\n"
            "assert one == two\n")

    def test_large_n_bytes_equal_across_blas_thread_counts(self):
        # the large-n systems at seed 2, whose riesz-ratio report took G0's
        # spectrum from eigvalsh and differed in its last bits between
        # OpenBLAS at 1 and at 4 threads (riesz_lower ...9812 and ...9813)
        code = ("from dataclasses import replace\n"
                "from orthoseries import Check, TrialConfig, run_suite\n"
                + _LARGE_N_CODE +
                "specs[1] = replace(specs[1], seed=1002)\n"
                "cfg = TrialConfig(system_specs=specs, n_trials=3, seed=2,\n"
                "                  checks={Check.RIESZ_RATIO})\n"
                "print(run_suite(cfg, threads=1).to_json(include_timing=False))\n")
        one, four = (_run_under_threaded_blas(code, blas) for blas in ("1", "4"))
        assert one == four

    def test_fork_after_threaded_blas(self):
        # OpenBLAS's thread pool has run a product before the fork; the
        # workers must not deadlock on it
        _run_under_threaded_blas(
            "import numpy as np\n"
            "from orthoseries.verify import default_config, run_suite\n"
            "a = np.random.default_rng(0).standard_normal((512, 512))\n"
            "a @ a\n"
            "rep = run_suite(default_config(seed=1, n_trials=8), threads=2)\n"
            "assert rep.all_passed\n")

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="needs /proc/self/task to count a process's threads")
    def test_no_trial_starts_a_blas_thread(self):
        # workers run BLAS unpinned, so a trial that called BLAS would start
        # OpenBLAS's pool (up to 4 threads here) in its worker; every trial
        # run in a forked worker must leave that worker on its one thread
        _run_under_threaded_blas(
            "import os\n"
            "import numpy as np\n"
            "from orthoseries import Check, TrialConfig, verify\n"
            "from orthoseries.verify import default_config, run_suite\n"
            + _LARGE_N_CODE +
            "a = np.random.default_rng(0).standard_normal((512, 512))\n"
            "a @ a\n"
            "run, seen = verify._forked, []\n"
            "def traced(count, fn, workers):\n"
            "    def one(t):\n"
            "        out = fn(t)\n"
            "        return out, os.getpid(), len(os.listdir('/proc/self/task'))\n"
            "    rows = run(count, one, workers)\n"
            "    seen.extend((pid, tasks) for _, pid, tasks in rows)\n"
            "    return [out for out, _, _ in rows]\n"
            "verify._forked = traced\n"
            "checks = {Check.MR_INEQUALITY, Check.MR_THEOREM, Check.BLOCK_NORM_SUM,\n"
            "          Check.BLOCK_SQ_SUM, Check.TANDORI_BLOCK, Check.RIESZ_RATIO}\n"
            "for cfg in (default_config(1, n_trials=14),\n"
            "            TrialConfig(system_specs=specs, n_trials=3, seed=1, checks=checks)):\n"
            "    assert run_suite(cfg, threads=2).all_passed\n"
            "forked = [(pid, tasks) for pid, tasks in seen if pid != os.getpid()]\n"
            "assert forked, 'no trial ran in a forked worker'\n"
            "assert all(tasks == 1 for _, tasks in forked), sorted(set(forked))\n")


# the LARGE_N_SPECS as ``specs`` in a subprocess
_LARGE_N_FIELDS = [(s.kind.value, s.n_functions, s.resolution, s.fiber_dim, s.seed)
                   for s in LARGE_N_SPECS]
_LARGE_N_CODE = ("from orthoseries import SystemKind, SystemSpec\n"
                 "specs = [SystemSpec(SystemKind(k), *rest)\n"
                 f"         for k, *rest in {_LARGE_N_FIELDS!r}]\n")


def _run_under_threaded_blas(code: str, threads: str = "4") -> str:
    """Run ``code`` in a fresh interpreter with OpenBLAS allowed ``threads``
    threads; it must exit 0.  Returns its standard output."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


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
