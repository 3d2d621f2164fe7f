"""Randomized verification harness and brute-force oracles.

Each check runs an ensemble of seeded trials over (system, coefficient,
permutation) draws and asserts one of the finite inequalities the
convergence proofs factor through.  A check passes only if the inequality
holds on every trial with the configured relative slack (default 1e-12,
measured as lhs <= rhs * (1 + slack) + 1e-300); the worst lhs/rhs ratio and
a reproducer (the seed path and spec of the worst trial) are always
recorded, pass or fail.  Any NaN or infinity in a ratio fails the check.

Determinism: trial t of check c under root seed s uses the PCG64 stream
seeded with SeedSequence((s, ordinal(c), t)); shuffle plans inside a trial
extend the tuple.  Reports are therefore byte-identical across runs and
across thread counts, apart from the wall-time field.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Mapping

import numpy as np

from .coefficients import (ABSOLUTE_FLOOR, SequenceSpec, WeightSpec,
                           condensation_chain, leq_with_slack,
                           orlicz_conditions, orlicz_reduction, tandori_blocks)
from .direct_integral import Field, OrthonormalSystem, gram_matrix
from .errors import BudgetError, ContractError
from .majorants import (AdversarialStrategy, MajorantProfile, PermutationPlan,
                        adversarial_permutation, chaining_diagnostics,
                        complete_block_length, dyadic_pointwise_bound,
                        majorant, permuted_majorant, tandori_delta)
from .serialization import SCHEMA_VERSION
from .systems import SystemKind, SystemSpec, generate, seeded_rng

DEFAULT_SLACK = 1e-12
PARSEVAL_SLACK = 1e-10
ORACLE_BUDGET = 10_000_000


class Check(Enum):
    MR_INEQUALITY = "mr-inequality"
    DYADIC_POINTWISE = "dyadic-pointwise"
    MR_THEOREM = "mr-theorem"
    BLOCK_NORM_SUM = "block-norm-sum"
    BLOCK_SQ_SUM = "block-sq-sum"
    TANDORI_BLOCK = "tandori-block"
    ORLICZ_CHAIN = "orlicz-chain"
    EXHAUSTIVE_PERM = "exhaustive-perm"
    RIESZ_RATIO = "riesz-ratio"


CHECK_ORDER = tuple(Check)
_CHECK_ORDINAL = {c: i for i, c in enumerate(CHECK_ORDER)}


def trial_seed_path(root_seed: int, check: Check, trial: int) -> tuple[int, int, int]:
    """The documented seed-splitting rule for one trial of one check."""
    return (root_seed, _CHECK_ORDINAL[check], trial)


@dataclass(frozen=True)
class TrialConfig:
    """Configuration of a verification run."""

    system_specs: tuple[SystemSpec, ...]
    checks: frozenset[Check] = frozenset(Check)
    n_trials: int = 100
    seed: int = 0
    coeff_spec: SequenceSpec | None = None
    weight_spec: WeightSpec | None = None
    tolerances: Mapping[Check, float] = field(default_factory=dict)
    truncation: int = 65536
    exhaustive_n: int = 6
    shuffle_plans: int = 2
    riesz_condition: float = 4.0

    def __post_init__(self):
        if not self.system_specs:
            raise ContractError("at least one system spec is required")
        if self.n_trials < 1:
            raise ContractError("n_trials must be >= 1")
        if self.seed < 0:
            raise ContractError("seed must be a nonnegative integer")
        if not 1 <= self.exhaustive_n <= 8:
            raise ContractError("exhaustive permutation checks require n <= 8")
        object.__setattr__(self, "system_specs", tuple(self.system_specs))
        object.__setattr__(self, "checks", frozenset(self.checks))
        object.__setattr__(self, "tolerances", dict(self.tolerances))

    def slack(self, check: Check) -> float:
        return self.tolerances.get(check, DEFAULT_SLACK)


@dataclass
class CheckResult:
    check: Check
    passed: bool
    n_cases: int
    worst_ratio: float
    worst_case: dict
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "check": self.check.value,
            "passed": bool(self.passed),
            "n_cases": int(self.n_cases),
            "worst_ratio": float(self.worst_ratio),
            "worst_case": self.worst_case,
            "details": self.details,
        }


@dataclass
class VerifyReport:
    seed: int
    results: dict[Check, CheckResult]
    wall_time_s: float
    environment: dict

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results.values())

    @property
    def exit_code(self) -> int:
        return 0 if self.all_passed else 1

    def to_dict(self, include_timing: bool = True) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "seed": self.seed,
            "all_passed": self.all_passed,
            "environment": self.environment,
            "results": {c.value: r.to_dict() for c, r in sorted(
                self.results.items(), key=lambda kv: kv[0].value)},
        }
        if include_timing:
            out["wall_time_s"] = self.wall_time_s
        return out

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_dict(include_timing), sort_keys=True, indent=2)


def environment_fingerprint() -> dict:
    return {
        "word_size_bits": 64 if sys.maxsize > 2 ** 32 else 32,
        "float_format": "IEEE-754 binary64",
        "rounding": "round-to-nearest-even (assumed)",
        "numpy": np.__version__,
    }


def _ratio(lhs: float, rhs: float) -> float:
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        return math.nan
    if abs(lhs) <= ABSOLUTE_FLOOR:
        return 0.0
    if rhs == 0.0:
        return math.inf
    return lhs / rhs


def _merge_worst(records: list[dict]) -> tuple[float, dict]:
    """Pick the record with the largest ratio (NaN worst of all); ties break
    to the smallest trial index, so the merge is order-independent."""
    def key(rec):
        r = rec["ratio"]
        rank = math.inf if math.isnan(r) else r
        return (rank, -rec["case"].get("trial", 0))

    worst = max(records, key=key)
    return worst["ratio"], worst["case"]


def _result(check: Check, records: list[dict], details: dict | None = None) -> CheckResult:
    """One check's result from its per-trial records: passed iff every
    record is ok, one case per record, the worst record reported."""
    worst_ratio, worst_case = _merge_worst(records)
    return CheckResult(check, all(r["ok"] for r in records), len(records),
                       worst_ratio, worst_case, details or {})


def _run_trials(count: int, fn: Callable[[int], dict], threads: int | None) -> list[dict]:
    if threads is None or threads <= 1:
        return [fn(t) for t in range(count)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(count)))


_SYSTEM_CACHE: dict[SystemSpec, tuple] = {}


def _system_for(spec: SystemSpec) -> OrthonormalSystem:
    if spec not in _SYSTEM_CACHE:
        _SYSTEM_CACHE[spec] = generate(spec)
    return _SYSTEM_CACHE[spec][2]


def _draw_coefficients(cfg: TrialConfig, rng: np.random.Generator,
                       n: int, scalar_field: Field) -> np.ndarray:
    """Default draw: standard normal scaled by n^-1 (complex for complex fibers)."""
    if cfg.coeff_spec is not None:
        vals = cfg.coeff_spec.coefficients(n)
        if scalar_field is Field.COMPLEX:
            vals = vals.astype(np.complex128)
        return vals
    x = rng.standard_normal(n)
    if scalar_field is Field.COMPLEX:
        x = (x + 1j * rng.standard_normal(n)) / math.sqrt(2.0)
    return x / np.arange(1, n + 1)


def oracle_majorant(system: OrthonormalSystem, coeffs, n: int | None = None) -> MajorantProfile:
    """Materializing majorant oracle: builds all n prefix elements explicitly.

    Semantically identical to the streaming ``majorants.majorant``; kept
    deliberately independent of it (cumulative matrix, then per-atom maxima
    over rows).  Refuses inputs past the n * total_dim <= 1e7 budget.
    """
    a = np.asarray(coeffs)
    n = a.size if n is None else n
    total = system.fibers.total_dim
    if n * total > ORACLE_BUDGET:
        raise BudgetError(f"materializing {n} prefixes of dimension {total} exceeds the budget")
    a = a.astype(system.fibers.field.dtype, copy=False)
    prefixes = np.cumsum(a[:n, None] * system.values[:n], axis=0)
    mag = np.abs(prefixes) ** 2
    per_atom = np.add.reduceat(mag, system.fibers.offsets[:-1], axis=1)
    best = per_atom.max(axis=0)
    arg = per_atom.argmax(axis=0) + 1
    l2 = math.sqrt(max(float(np.sum(system.space.weights * best)), 0.0))
    return MajorantProfile(values=np.sqrt(best), argmax_prefix=arg.astype(np.int64),
                           l2_norm=l2)


def _coeff_norm(b: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.abs(b) ** 2)))


def check_mr_inequality(cfg: TrialConfig, threads: int | None = None) -> CheckResult:
    """Maximal-inequality ratio ||S_N*||_2 / ((2 + log2 N) ||b||_2) <= 1 per trial."""
    slack = cfg.slack(Check.MR_INEQUALITY)
    specs = cfg.system_specs

    def one(t: int) -> dict:
        spec = specs[t % len(specs)]
        system = _system_for(spec)
        path = trial_seed_path(cfg.seed, Check.MR_INEQUALITY, t)
        b = _draw_coefficients(cfg, seeded_rng(path), len(system), system.fibers.field)
        lhs = majorant(system, b).l2_norm
        rhs = (2.0 + math.log2(len(system))) * _coeff_norm(b)
        return {"ratio": _ratio(lhs, rhs), "ok": leq_with_slack(lhs, rhs, slack),
                "case": {"trial": t, "seed_path": list(path), "system": spec.describe(),
                         "n": len(system)}}

    return _result(Check.MR_INEQUALITY, _run_trials(cfg.n_trials, one, threads))


def check_dyadic_pointwise(cfg: TrialConfig, threads: int | None = None) -> CheckResult:
    """Randomized draws of the single-fiber dyadic chaining bound."""
    slack = cfg.slack(Check.DYADIC_POINTWISE)

    def one(t: int) -> dict:
        path = trial_seed_path(cfg.seed, Check.DYADIC_POINTWISE, t)
        rng = seeded_rng(path)
        r = int(rng.integers(0, 11))
        j = int(rng.integers(1, (1 << r) + 1))
        d = int(rng.integers(1, 9))
        h = rng.standard_normal((j, d))
        if t % 4 == 3:
            h = h + 1j * rng.standard_normal((j, d))
        lhs, rhs = dyadic_pointwise_bound(h, r)
        return {"ratio": _ratio(lhs, rhs), "ok": leq_with_slack(lhs, rhs, slack),
                "case": {"trial": t, "seed_path": list(path), "j": j, "r": r, "dim": d}}

    return _result(Check.DYADIC_POINTWISE, _run_trials(cfg.n_trials, one, threads))


def _chaining_results(cfg: TrialConfig, threads: int | None = None) -> dict[Check, CheckResult]:
    """Shared trial loop for the chaining checks (final bound, block-norm
    sum, within-block square sum) plus the Parseval identity."""
    specs = cfg.system_specs
    slack_main = cfg.slack(Check.MR_THEOREM)
    slack_15 = cfg.slack(Check.BLOCK_NORM_SUM)
    slack_20 = cfg.slack(Check.BLOCK_SQ_SUM)

    def one(t: int) -> dict:
        spec = specs[t % len(specs)]
        system = _system_for(spec)
        n_sys = len(system)
        n_pad = complete_block_length(n_sys)
        path = trial_seed_path(cfg.seed, Check.MR_THEOREM, t)
        b = _draw_coefficients(cfg, seeded_rng(path), n_sys, system.fibers.field)
        b_pad = np.concatenate([b, np.zeros(n_pad - n_sys, dtype=b.dtype)])
        diag = chaining_diagnostics(system, b_pad, n_pad)
        parseval_dev = 0.0
        for k in range(diag.k_max + 1):
            ref = max(diag.block_coeff_sq[k], ABSOLUTE_FLOOR)
            parseval_dev = max(parseval_dev,
                               abs(diag.block_norms[k] ** 2 - diag.block_coeff_sq[k]) / ref)
        case = {"trial": t, "seed_path": list(path), "system": spec.describe(),
                "n": n_sys, "n_padded": n_pad}
        return {
            "main": {"ratio": _ratio(diag.majorant_l2, diag.majorant_bound),
                     "ok": leq_with_slack(diag.majorant_l2, diag.majorant_bound, slack_main)
                           and parseval_dev <= PARSEVAL_SLACK,
                     "case": dict(case, parseval_rel_dev=parseval_dev)},
            "norm_sum": {"ratio": _ratio(diag.block_norm_sum, diag.block_norm_sum_bound),
                         "ok": leq_with_slack(diag.block_norm_sum, diag.block_norm_sum_bound,
                                              slack_15),
                         "case": dict(case)},
            "sq_sum": {"ratio": _ratio(diag.inner_sq_sum, diag.inner_sq_bound),
                       "ok": leq_with_slack(diag.inner_sq_sum, diag.inner_sq_bound, slack_20),
                       "case": dict(case)},
        }

    rows = _run_trials(cfg.n_trials, one, threads)
    return {check: _result(check, [row[key] for row in rows])
            for check, key in ((Check.MR_THEOREM, "main"),
                               (Check.BLOCK_NORM_SUM, "norm_sum"),
                               (Check.BLOCK_SQ_SUM, "sq_sum"))
            if check in cfg.checks}


def _trial_plans(cfg: TrialConfig, system: OrthonormalSystem, b: np.ndarray,
                 n: int, path: tuple) -> list[PermutationPlan]:
    plans = [PermutationPlan.identity(n)]
    for i in range(cfg.shuffle_plans):
        plans.append(PermutationPlan.seeded_shuffle(n, path + (i,)))
    plans.append(adversarial_permutation(system, b, n,
                                         AdversarialStrategy.GREEDY_MAX_PREFIX))
    plans.append(adversarial_permutation(system, b, n,
                                         AdversarialStrategy.BLOCK_REVERSAL))
    return plans


def tandori_threshold_arithmetic() -> list[dict]:
    """The inequality 4 + 2 log2(nu_k (nu_k - 1)) <= 8 log2(nu_k) for every
    storable threshold (nu_k = 2, 4, 16, 256, 65536, 2^32)."""
    out = []
    nu = 2
    while nu <= (1 << 32):
        lhs = 4.0 + 2.0 * (math.log2(nu) + math.log2(nu - 1))
        rhs = 8.0 * math.log2(nu)
        out.append({"nu": nu, "lhs": lhs, "rhs": rhs, "ratio": lhs / rhs,
                    "ok": lhs <= rhs})
        nu = nu * nu
    return out


def check_tandori_block(cfg: TrialConfig, threads: int | None = None) -> CheckResult:
    """Blocked oscillation bound ||delta_k||_2 <= 8 (sum_{block} |a_n|^2 log2^2 n)^(1/2)
    under identity, seeded-shuffle, greedy, and block-reversal plans."""
    slack = cfg.slack(Check.TANDORI_BLOCK)
    specs = [s for s in cfg.system_specs if s.n_functions >= 5]
    if not specs:
        raise ContractError("tandori block checks need at least one system with n >= 5")

    def one(t: int) -> dict:
        spec = specs[t % len(specs)]
        system = _system_for(spec)
        n = len(system)
        path = trial_seed_path(cfg.seed, Check.TANDORI_BLOCK, t)
        b = _draw_coefficients(cfg, seeded_rng(path), n, system.fibers.field)
        blocks = tandori_blocks(n)
        best = {"ratio": 0.0, "ok": True,
                "case": {"trial": t, "seed_path": list(path), "system": spec.describe(),
                         "n": n, "plan": "identity", "block": 0}}
        for plan in _trial_plans(cfg, system, b, n, path):
            for k in range(blocks.k_max + 1):
                osc = tandori_delta(system, b, plan, k, n)
                ratio = _ratio(osc.l2, osc.bound)
                ok = leq_with_slack(osc.l2, osc.bound, slack)
                if not ok or math.isnan(ratio) or ratio > best["ratio"]:
                    best = {"ratio": ratio, "ok": ok and best["ok"],
                            "case": {"trial": t, "seed_path": list(path),
                                     "system": spec.describe(), "n": n,
                                     "plan": plan.describe(), "block": k,
                                     "mode": osc.mode}}
                best["ok"] = best["ok"] and ok
        return best

    records = _run_trials(cfg.n_trials, one, threads)
    worst_ratio, worst_case = _merge_worst(records)
    arithmetic = tandori_threshold_arithmetic()
    ok = all(r["ok"] for r in records) and all(row["ok"] for row in arithmetic)
    return CheckResult(Check.TANDORI_BLOCK, ok, len(records), worst_ratio, worst_case, {
        "threshold_arithmetic": arithmetic,
        "plan_search": "heuristic plans only beyond 8 functions; the reported worst "
                       "ratio is a lower bound for the true worst rearrangement",
    })


def exhaustive_permutation_check(system: OrthonormalSystem, coeffs, n: int,
                                 slack: float = DEFAULT_SLACK) -> CheckResult:
    """Assert the maximal inequality under every one of the n! rearrangements.

    Records the permutation maximizing the majorant norm (the empirical
    worst rearrangement).  Refuses n > 8.
    """
    if n > 8:
        raise ContractError("exhaustive permutation check limited to n <= 8")
    b = np.asarray(coeffs)
    rhs = (2.0 + math.log2(n)) * _coeff_norm(b[:n])
    worst = (-1.0, None)
    all_ok = True
    count = 0
    for perm in itertools.permutations(range(1, n + 1)):
        plan = PermutationPlan(order=perm)
        lhs = permuted_majorant(system, b, plan, n).l2_norm
        all_ok = all_ok and leq_with_slack(lhs, rhs, slack)
        if lhs > worst[0]:
            worst = (lhs, perm)
        count += 1
    ratio = _ratio(worst[0], rhs)
    return CheckResult(Check.EXHAUSTIVE_PERM, all_ok, count, ratio,
                       {"worst_permutation": list(worst[1]), "n": n})


def check_exhaustive_perm(cfg: TrialConfig, threads: int | None = None) -> CheckResult:
    """Exhaustive rearrangement sweep on capped-size variants of each system kind."""
    n = cfg.exhaustive_n
    records = []
    total = 0
    for i, spec in enumerate(cfg.system_specs):
        small = replace(spec, n_functions=n, resolution=None)
        system = _system_for(small)
        path = trial_seed_path(cfg.seed, Check.EXHAUSTIVE_PERM, i)
        b = _draw_coefficients(cfg, seeded_rng(path), n, system.fibers.field)
        res = exhaustive_permutation_check(system, b, n,
                                           slack=cfg.slack(Check.EXHAUSTIVE_PERM))
        total += res.n_cases
        records.append({"ratio": res.worst_ratio, "ok": res.passed,
                        "case": {"trial": i, "seed_path": list(path),
                                 "system": small.describe(),
                                 "worst_permutation": res.worst_case["worst_permutation"]}})
    worst_ratio, worst_case = _merge_worst(records)
    # every system counts its n! permutations as cases
    return CheckResult(Check.EXHAUSTIVE_PERM, all(r["ok"] for r in records), total,
                       worst_ratio, worst_case)


def check_orlicz_chain(cfg: TrialConfig, threads: int | None = None) -> CheckResult:
    """Cauchy-Schwarz / monotonicity chain from the Orlicz conditions to the
    blocked sum, plus condensation classifier agreement.

    When the config does not pin analytic specs, the stock pair
    a_n = n^-1 log2(n+1)^-2 and w_n = max(1, log2 n)^1.5 is used.
    """
    coeff_spec = cfg.coeff_spec or SequenceSpec.power_log(1.0, 1.0, 2.0)
    weight_spec = cfg.weight_spec or WeightSpec.log_power(1.5)
    slack = cfg.slack(Check.ORLICZ_CHAIN)
    red = orlicz_reduction(coeff_spec, weight_spec, cfg.truncation)
    r_cauchy = _ratio(red.lhs, red.mid)
    r_mono = _ratio(red.mid, red.rhs)
    ok = leq_with_slack(red.lhs, red.mid, slack) and leq_with_slack(red.mid, red.rhs, slack)
    coeff_rep, weight_rep = orlicz_conditions(coeff_spec, weight_spec, cfg.truncation)
    details = {
        "c_partial": red.c_partial,
        "sqrt_mass_sum": red.sqrt_mass_sum,
        "classification": red.classification.value,
        "coeff_condition": coeff_rep.classification.value,
        "weight_condition": weight_rep.classification.value,
    }
    if not weight_spec.is_explicit:
        chain = condensation_chain(weight_spec, terms=12)
        agree = len({r.classification for r in chain}) == 1
        ok = ok and agree
        details["condensation_agrees"] = agree
        details["condensation_partial"] = chain[2].total
    case = {"trial": 0, "coefficients": coeff_spec.describe(),
            "weights": weight_spec.describe(), "truncation": cfg.truncation,
            "cauchy_ratio": r_cauchy, "monotonicity_ratio": r_mono}
    return CheckResult(Check.ORLICZ_CHAIN, ok, 1, max(r_cauchy, r_mono), case, details)


def _conditioned_mix(rng: np.random.Generator, n: int, condition: float) -> np.ndarray:
    """A deterministic well-conditioned mixing matrix with the given
    condition number: U diag(s) V^T with seeded orthogonal U, V and
    geometrically spaced singular values in [1, condition]."""
    if n == 1:
        return np.array([[1.0]])
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.geomspace(1.0, condition, n)
    return (u * s) @ v.T


def check_riesz_ratio(cfg: TrialConfig, threads: int | None = None) -> CheckResult:
    """Empirical majorant/log ratio for Riesz-perturbed systems.

    No constant is asserted: the check reports the supremum of
    ||S_N*||_2 / (log2(N+1) ||b||_2) across trials together with the Gram
    spectrum bounds, and fails only on non-finite ratios or a numerically
    singular perturbation (lower spectral bound <= 1e-6).
    """
    specs = cfg.system_specs

    def one(t: int) -> dict:
        spec = specs[t % len(specs)]
        system = _system_for(spec)
        n = len(system)
        path = trial_seed_path(cfg.seed, Check.RIESZ_RATIO, t)
        rng = seeded_rng(path)
        mix = _conditioned_mix(rng, n, cfg.riesz_condition)
        if system.values.dtype.kind == "c":
            mix = mix.astype(np.complex128)
        mixed = OrthonormalSystem(system.space, system.fibers, mix @ system.values)
        report = gram_matrix(mixed, mixed.space, mixed.fibers)
        b = _draw_coefficients(cfg, rng, n, system.fibers.field)
        lhs = majorant(mixed, b).l2_norm
        rhs = math.log2(n + 1) * _coeff_norm(b)
        ratio = _ratio(lhs, rhs)
        ok = math.isfinite(ratio) and report.riesz_lower > 1e-6
        return {"ratio": ratio, "ok": ok,
                "case": {"trial": t, "seed_path": list(path), "system": spec.describe(),
                         "n": n, "riesz_lower": report.riesz_lower,
                         "riesz_upper": report.riesz_upper,
                         "mix_condition": cfg.riesz_condition}}

    return _result(Check.RIESZ_RATIO, _run_trials(cfg.n_trials, one, threads),
                   {"note": "no pass threshold; ratio is reported only"})


def run_suite(cfg: TrialConfig, threads: int | None = None) -> VerifyReport:
    """Dispatch every requested check and merge the results.

    Deterministic given cfg.seed; independent of ``threads``.
    """
    start = time.perf_counter()
    # built per call, so the check functions are looked up when the suite runs;
    # the three chaining checks share one trial loop that returns all of them
    single = {
        Check.MR_INEQUALITY: check_mr_inequality,
        Check.DYADIC_POINTWISE: check_dyadic_pointwise,
        Check.TANDORI_BLOCK: check_tandori_block,
        Check.ORLICZ_CHAIN: check_orlicz_chain,
        Check.EXHAUSTIVE_PERM: check_exhaustive_perm,
        Check.RIESZ_RATIO: check_riesz_ratio,
    }
    results: dict[Check, CheckResult] = {}
    for check in CHECK_ORDER:
        if check not in cfg.checks or check in results:
            continue
        if check in single:
            results[check] = single[check](cfg, threads)
        else:
            results.update(_chaining_results(cfg, threads))
    wall = time.perf_counter() - start
    return VerifyReport(seed=cfg.seed, results=results, wall_time_s=wall,
                        environment=environment_fingerprint())


def default_config(seed: int = 1, n_trials: int = 100) -> TrialConfig:
    """The stock configuration: every check, headline size 64, all kinds."""
    specs = (
        SystemSpec(SystemKind.STANDARD_BASIS, 64),
        SystemSpec(SystemKind.HAAR, 64),
        SystemSpec(SystemKind.RADEMACHER, 8),
        SystemSpec(SystemKind.RANDOM_QR, 64, resolution=32, fiber_dim=2, seed=101),
        SystemSpec(SystemKind.RANDOM_QR, 64, resolution=64, fiber_dim=1, seed=102,
                   field=Field.COMPLEX),
        SystemSpec(SystemKind.TENSOR_VECTOR, 64, fiber_dim=4),
        SystemSpec(SystemKind.VARYING_DIM, 64),
    )
    return TrialConfig(
        system_specs=specs,
        checks=frozenset(Check),
        n_trials=n_trials,
        seed=seed,
        coeff_spec=None,
        weight_spec=WeightSpec.log_power(1.5),
        truncation=65536,
        exhaustive_n=6,
        shuffle_plans=2,
    )
