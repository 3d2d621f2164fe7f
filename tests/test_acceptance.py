"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
tolerance is pinned here; nothing defers to later calibration.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from orthoseries import (Check, Field, SequenceSpec, SystemKind, SystemSpec,
                         TrialConfig, WeightSpec, condensation_chain,
                         dyadic_decomposition, dyadic_pointwise_bound,
                         generate, majorant, oracle_majorant, orlicz_reduction,
                         run_suite)
from orthoseries.cli import main as cli_main

from conftest import rng, run_check

REPO_ROOT = Path(__file__).resolve().parent.parent

RELATIVE_SLACK = 1e-12
ORACLE_SLACK = 1e-13
PARSEVAL_SLACK = 1e-10
CONDENSATION_TOL = 1e-6


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def ensemble_specs() -> tuple[SystemSpec, ...]:
    """Six system kinds, sizes spanning 1..256, fiber dimensions up to 8."""
    specs = []
    for n in (1, 2, 3, 5, 9, 16, 33, 64, 100, 128, 255, 256):
        specs.append(SystemSpec(SystemKind.STANDARD_BASIS, n))
    for n in (1, 4, 7, 31, 63, 127, 128, 256):
        specs.append(SystemSpec(SystemKind.HAAR, n))
    for n in (1, 2, 5, 8, 12):  # a Rademacher grid needs 2^n atoms
        specs.append(SystemSpec(SystemKind.RADEMACHER, n))
    for n, m, d, seed in ((3, 3, 1, 21), (16, 8, 2, 22), (64, 16, 4, 23),
                          (255, 32, 8, 24), (256, 64, 4, 25)):
        specs.append(SystemSpec(SystemKind.RANDOM_QR, n, resolution=m,
                                fiber_dim=d, seed=seed))
    specs.append(SystemSpec(SystemKind.RANDOM_QR, 31, resolution=31,
                            fiber_dim=1, seed=26, field=Field.COMPLEX))
    for n, d in ((7, 2), (24, 8), (128, 4), (256, 8)):
        specs.append(SystemSpec(SystemKind.TENSOR_VECTOR, n, fiber_dim=d))
    for n in (2, 17, 63, 256):
        specs.append(SystemSpec(SystemKind.VARYING_DIM, n))
    return tuple(specs)


def test_criterion_1_maximal_inequality():
    cfg = TrialConfig(system_specs=ensemble_specs(),
                      checks={Check.MR_INEQUALITY},
                      n_trials=1020, seed=2026)
    start = time.perf_counter()
    res = run_check(cfg, Check.MR_INEQUALITY)
    elapsed = time.perf_counter() - start
    ok = res.passed and elapsed <= 60.0
    report(1, ok, f"{res.n_cases} trials, worst ratio {res.worst_ratio:.6f}, "
                  f"{elapsed:.1f}s (budget 60s)")


def test_criterion_2_dyadic_pointwise_bound():
    cfg = TrialConfig(system_specs=(SystemSpec(SystemKind.HAAR, 4),),
                      checks={Check.DYADIC_POINTWISE},
                      n_trials=10_000, seed=2027)
    res = run_check(cfg, Check.DYADIC_POINTWISE)
    randomized_ok = res.passed

    canonical_ok = True
    for r in range(0, 7):
        for j in range(1, (1 << r) + 1):
            for h in (np.ones((j, 1)),
                      np.array([[(-1.0) ** n] for n in range(j)])):
                lhs, rhs = dyadic_pointwise_bound(h, r)
                canonical_ok &= lhs <= rhs * (1 + RELATIVE_SLACK) + 1e-300

    partition_ok = True
    for r in range(0, 11):
        for j in range(1, (1 << r) + 1):
            d = dyadic_decomposition(j, r)
            cursor = 0
            for lo, hi in d.blocks:
                partition_ok &= lo == cursor
                cursor = hi
            partition_ok &= cursor == j and len(d.blocks) <= r + 1

    ok = randomized_ok and canonical_ok and partition_ok
    report(2, ok, f"10^4 random draws (worst ratio {res.worst_ratio:.6f}), "
                  f"exhaustive r<=6 canonical, partition exhaustive j<=2^10")


def test_criterion_3_chaining_bounds():
    cfg = TrialConfig(system_specs=ensemble_specs(),
                      checks={Check.MR_THEOREM, Check.BLOCK_NORM_SUM,
                              Check.BLOCK_SQ_SUM},
                      n_trials=1020, seed=2026)
    results = run_suite(cfg).results
    ok = all(r.passed for r in results.values())
    worst = {c.value: f"{r.worst_ratio:.6f}" for c, r in results.items()}
    report(3, ok, f"final bound, block-norm sum, square sum and Parseval "
                  f"(<= {PARSEVAL_SLACK:g}) on {cfg.n_trials} padded trials; "
                  f"worst ratios {worst}")


def test_criterion_4_blocked_oscillation_bound():
    specs = (
        SystemSpec(SystemKind.HAAR, 16),
        SystemSpec(SystemKind.RANDOM_QR, 16, resolution=8, fiber_dim=2, seed=41),
        SystemSpec(SystemKind.VARYING_DIM, 16),
        SystemSpec(SystemKind.HAAR, 256),
        SystemSpec(SystemKind.RANDOM_QR, 256, resolution=128, fiber_dim=2, seed=42),
        SystemSpec(SystemKind.HAAR, 4096),
    )
    cfg = TrialConfig(system_specs=specs, checks={Check.TANDORI_BLOCK},
                      n_trials=len(specs), seed=2028, shuffle_plans=20)
    res = run_check(cfg, Check.TANDORI_BLOCK)
    arithmetic_ok = all(row["ok"] for row in res.details["threshold_arithmetic"])
    ok = res.passed and arithmetic_ok
    report(4, ok, f"n in {{16, 256, 4096}}, identity + 20 shuffles + greedy + "
                  f"block reversal, every block; worst ratio {res.worst_ratio:.6f}; "
                  f"threshold arithmetic holds for all stored thresholds")


def test_criterion_5_exhaustive_permutations():
    start = time.perf_counter()
    cfg = TrialConfig(system_specs=(SystemSpec(SystemKind.RADEMACHER, 7),
                                    SystemSpec(SystemKind.STANDARD_BASIS, 7)),
                      checks={Check.EXHAUSTIVE_PERM}, n_trials=1, seed=2029,
                      exhaustive_n=7)
    res = run_check(cfg, Check.EXHAUSTIVE_PERM)
    elapsed = time.perf_counter() - start
    ok = res.passed and res.n_cases == 2 * 5040 and elapsed <= 30.0
    report(5, ok, f"{res.n_cases} rearrangements on two kinds, worst ratio "
                  f"{res.worst_ratio:.6f}, {elapsed:.1f}s (budget 30s)")


def test_criterion_6_orlicz_reduction_grid():
    coeff_grid = [SequenceSpec.power_log(1.0, 1.0, 2.0),
                  SequenceSpec.power_log(0.5, 0.75, 1.0),
                  SequenceSpec.power_log(2.0, 0.5, 2.5)]
    weight_grid = [WeightSpec.log_power(0.5), WeightSpec.log_power(1.5),
                   WeightSpec.log_power(3.0)]
    chain_ok = True
    for a in coeff_grid:
        for w in weight_grid:
            red = orlicz_reduction(a, w, 65536)
            chain_ok &= red.all_hold

    _, _, c_rep = condensation_chain(WeightSpec.log_power(2.0, shift=0.0), terms=12)
    c_ok = abs(c_rep.total - 4.0 / 3.0) < CONDENSATION_TOL
    ok = chain_ok and c_ok
    report(6, ok, f"3x3 grid at truncation 65536 all chains hold; geometric "
                  f"condensation constant {c_rep.total:.9f} within 1e-6 of 4/3")


def test_criterion_7_condensation_agreement():
    gammas = (-0.5, 0.0, 0.25, 0.5, 1.0, 2.0)
    ok = True
    verdicts = {}
    for gamma in gammas:
        chain = condensation_chain(WeightSpec.log_power(gamma), terms=12)
        kinds = {rep.classification for rep in chain}
        ok &= len(kinds) == 1
        verdicts[gamma] = next(iter(kinds)).value
    report(7, ok, f"three-series classifications agree on gamma grid: {verdicts}")


def test_criterion_8_oracle_equivalence():
    gen = rng(2030)
    kinds = [SystemKind.STANDARD_BASIS, SystemKind.HAAR, SystemKind.RANDOM_QR,
             SystemKind.TENSOR_VECTOR, SystemKind.VARYING_DIM]
    worst = 0.0
    for trial in range(200):
        kind = kinds[trial % len(kinds)]
        n = int(gen.integers(1, 129))
        kw = {}
        if kind is SystemKind.RANDOM_QR:
            kw = {"resolution": max(1, -(-n // 2)), "fiber_dim": 2, "seed": trial}
        if kind is SystemKind.TENSOR_VECTOR:
            kw = {"fiber_dim": 4}
        _, _, system = generate(SystemSpec(kind, n, **kw))
        b = gen.standard_normal(n) / np.arange(1, n + 1)
        fast = majorant(system, b)
        slow = oracle_majorant(system, b)
        worst = max(worst,
                    float(np.max(np.abs(fast.values - slow.values), initial=0.0)),
                    abs(fast.l2_norm - slow.l2_norm))
    ok = worst <= ORACLE_SLACK
    report(8, ok, f"200 trials n<=128: streaming vs materializing majorant, "
                  f"max deviation {worst:.3e} (tol 1e-13)")


def test_criterion_9_reproducibility(tmp_path):
    def run(threads: int, tag: str) -> dict:
        out = tmp_path / f"report-{tag}.json"
        code = cli_main(["verify", "--config", str(REPO_ROOT / "default.json"),
                         "--seed", "1", "--threads", str(threads),
                         "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        payload.pop("wall_time_s", None)
        return payload

    first = run(1, "a")
    second = run(1, "b")
    fourway = run(4, "c")
    as_bytes = [json.dumps(p, sort_keys=True).encode() for p in (first, second, fourway)]
    ok = as_bytes[0] == as_bytes[1] == as_bytes[2]
    report(9, ok, "two sequential runs and a 4-thread run of "
                  "'verify --config default.json --seed 1' agree byte-for-byte "
                  "modulo the timing field")
