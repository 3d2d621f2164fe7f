"""Randomized verification harness and brute-force oracles.

Each check runs an ensemble of seeded trials over (system, coefficient,
permutation) draws and asserts one of the finite inequalities the
convergence proofs factor through.  A check passes only if the inequality
holds on every case with the configured relative slack (default 1e-12,
measured as lhs <= rhs * (1 + slack) + 1e-300); any NaN or infinity fails
it.  One rule picks the reported worst case, pass or fail: a failed case
above every passing one, then the largest lhs/rhs ratio, NaN above all, ties
to the earliest trial, then to plan/block or permutation order; its seed
path and spec are the reproducer.  A broken invariant of a kernel's output
is a failed case of its check too, never an exception: tandori-block holds
each block's diameter to one-sided <= diameter <= 2 x one-sided at every
atom, by the same slack rule at the default slack, and riesz-ratio fails
every trial on a system whose Gram matrix G0 is not Hermitian.
riesz-ratio asserts the Menshov-Rademacher bound scaled by an upper Riesz
bound B of a system mixed by a seeded matrix M with singular values in
[1, riesz_condition]: ||S_N*||_2 <= sqrt(B) (2 + log2 N) ||b||_2, where
B = s_max^2 g_max(G0) (1 + MIX_MARGIN) comes from the construction,
s_max = riesz_condition (1 when N = 1), g_max(G0) >= lambda_max(G0) the
upper Gershgorin bound of the unmixed Gram matrix G0 (see check_riesz_ratio).

Determinism: trial t of check c under root seed s uses the PCG64 stream
seeded with SeedSequence((s, ordinal(c), t)); shuffle plans inside a trial
extend the tuple.  Reports are therefore byte-identical across runs, apart
from the wall-time field, and across worker counts and BLAS thread counts:
workers run BLAS unpinned, as no trial's arithmetic calls it (riesz-ratio's
mix projects with einsum; tests/test_verify.py checks that no worker starts
a thread), every check's systems and G0's bounds are made before any fork,
and no verify path calls an eigensolver (its bits follow BLAS threads).

Parallelism: run_suite runs every check's setup (systems, G0's bounds) in
the calling process, then all checks' (check, trial) claims in one pool of N
workers, it and N - 1 children made once by os.fork, each taking the next
unclaimed claim; records come back per check in trial order, so every report
byte is as with one worker.  One check runs alone as the suite of that
check, run_suite(replace(cfg, checks={check})).  Fork, not spawn: children
inherit the run's systems, and the package starts no threads of its own
(OpenBLAS stops its thread pool at fork).
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
import sys
import time
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Mapping

import numpy as np

# gram_matrix, orlicz_conditions, permuted_majorant and tandori_delta are no
# longer called here, but perfbench/tracing.py wraps them by their names in
# this module
from .coefficients import (ABSOLUTE_FLOOR, DEFAULT_SLACK, SequenceSpec, WeightSpec,
                           condensation_chain, leq_with_slack,
                           orlicz_conditions, orlicz_reduction, tandori_blocks)
from .direct_integral import (GRAM_HERMITIAN_TOL, Field, OrthonormalSystem, gershgorin_bounds,
                              gram_matrix)
from .errors import BudgetError, ContractError, StructuralError
from .majorants import (AdversarialStrategy, MajorantProfile, PermutationPlan,
                        adversarial_permutation, all_orders_l2, block_oscillations,
                        chaining_diagnostics, complete_block_length,
                        dyadic_pointwise_bound, majorant, permuted_majorant, tandori_delta)
from .serialization import SCHEMA_VERSION, dumps
from .systems import SystemKind, SystemSpec, generate, seeded_rng

PARSEVAL_SLACK = 1e-10
ORACLE_BUDGET = 10_000_000
# Householder reflectors on each side of the row scaling of a riesz-ratio mix
MIX_REFLECTORS = 4
# Relative widening of the Riesz bounds riesz-ratio takes from its mix's
# construction.  The exact mix M = P diag(s) Q has singular values s, but
# its 2k reflector applications and one row scaling run in rounded
# arithmetic.  Applying x -> x - (2u)(u^T x) rounds each output entry about
# four times (the unit vector, the dot product's result, the product and the
# difference), each moving a column's norm by at most a relative u = 2^-53,
# and the scaling rounds once more: the computed mix's singular values lie
# within s (1 +- (8k + 1) u), its Gram eigenvalues within s^2 times
# (1 +- 2 (8k + 1) u).  The margin doubles that, 4 (8k + 1) u = 1.5e-14 at
# k = 4, for the dot products' own accumulation.  It is a budget, not a
# worst-case bound (that would grow like n u): on every stock kind up to
# Haar n=4096 the unmargined bounds from G0's eigenvalues missed eigvalsh of
# the mixed Gram matrix by at most 4.3e-15 relative, and tests/test_verify.py
# holds the margined ones (from G0's Gershgorin bounds) against eigvalsh.
MIX_MARGIN = 4 * (8 * MIX_REFLECTORS + 1) * 2.0 ** -53


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


_CHECK_ORDINAL = {c: i for i, c in enumerate(Check)}


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
        if not self.checks:
            raise ContractError("at least one check is required")
        if self.n_trials < 1:
            raise ContractError("n_trials must be >= 1")
        if self.seed < 0:
            raise ContractError("seed must be a nonnegative integer")
        if not 1 <= self.exhaustive_n <= 8:
            raise ContractError("exhaustive permutation checks require n <= 8")
        if self.shuffle_plans < 0:
            raise ContractError(f"'shuffle_plans' must be >= 0, got {self.shuffle_plans}")
        if self.riesz_condition < 1:
            raise ContractError(f"'riesz_condition' must be >= 1, got {self.riesz_condition}")
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
    # not serialized: its pool's processes, and its trials' seconds plus the setup's
    workers: int = field(default=1, compare=False)
    seconds: float = field(default=0.0, compare=False)

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
        return dumps(self.to_dict(include_timing), sort_keys=True, indent=2)


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


def _record(lhs: float, rhs: float, slack: float, case: dict, ok: bool = True) -> dict:
    """One case's record: its ratio, whether lhs <= rhs held (and ``ok``), its case."""
    return {"ratio": _ratio(lhs, rhs), "ok": ok and leq_with_slack(lhs, rhs, slack),
            "case": case}


def _rank(ratio: float) -> float:
    """A ratio's place in the worst-case order: NaN above every number."""
    return math.inf if math.isnan(ratio) else ratio


def _merge_worst(records: list[dict]) -> dict:
    """The worst record, ok only if every record is: a failed record above
    every passing one, then the largest ratio (NaN worst of all); ties break
    to the smallest trial index, then to the earliest record (plan/block or
    permutation order)."""
    def key(rec):
        return (not rec["ok"], _rank(rec["ratio"]), -rec["case"].get("trial", 0))

    return dict(max(records, key=key), ok=all(r["ok"] for r in records))


def _result(check: Check, records: list[dict], details: dict | None = None,
            ok: bool = True, n_cases: int | None = None) -> CheckResult:
    """One check's result from its records: passed iff every record (and
    ``ok``) is, one case per record unless ``n_cases`` says otherwise, the
    worst record reported."""
    worst = _merge_worst(records)
    return CheckResult(check, worst["ok"] and ok,
                       len(records) if n_cases is None else n_cases,
                       worst["ratio"], worst["case"], details or {})


def _finish(check: Check, **kw) -> Callable[[list[dict]], list[CheckResult]]:
    """A plan's finish for one check: its result from the records, by ``_result``."""
    return lambda records: [_result(check, records, **kw)]


def worker_count(threads: int | None, trials: int) -> int:
    """Processes that run ``trials`` trials when ``threads`` are allowed."""
    return max(1, min(threads or 1, trials))


def _run_plans(plans: list[tuple], threads: int | None, setups: list[float]) -> list:
    """The plans' results: all plans' claims ``one(t)`` run in plan then trial
    order, timed where they run, on ``worker_count(threads, claims)`` processes;
    ``finish`` takes a plan's records in trial order, and its results' ``seconds``
    add the setup's and ``workers`` is the pool's."""
    claims = [(one, t) for count, one, _ in plans for t in range(count)]

    def run(k: int) -> tuple:
        one, t = claims[k]
        began = time.perf_counter()
        return one(t), time.perf_counter() - began

    workers = worker_count(threads, len(claims))
    rows = iter(_forked(len(claims), run, workers))
    out = []
    for (count, _, finish), setup in zip(plans, setups):
        records, times = zip(*itertools.islice(rows, count))
        for res in finish(list(records)):
            res.seconds, res.workers = setup + sum(times), workers
            out.append(res)
    return out


def _claim(token: tuple[int, int], stop: int | None = None) -> int:
    """Take the next unclaimed trial index from the token pipe, whose one
    8-byte message is the shared counter (a pipe write of 8 bytes is
    atomic, so exactly one reader holds the counter at a time); ``stop``
    instead sets the counter to at least ``stop``."""
    t = int.from_bytes(os.read(token[0], 8), "little")
    os.write(token[1], (t + 1 if stop is None else max(t, stop)).to_bytes(8, "little"))
    return t


def _work(fn: Callable[[int], object], count: int, token: tuple[int, int]) -> tuple:
    """One worker's share: ``((t, fn(t)) pairs, None)``, or the pairs and
    ``(t, exception)`` of the first trial that raised, after which no
    worker claims another trial."""
    pairs = []
    while (t := _claim(token)) < count:
        try:
            pairs.append((t, fn(t)))
        except BaseException as exc:  # handed to the parent, which re-raises it
            _claim(token, stop=count)
            return pairs, (t, exc)
    return pairs, None


def _child(fn: Callable[[int], object], count: int, token: tuple[int, int], out: int):
    """A forked worker: pickle its share to ``out``, then leave through
    ``os._exit`` (status 0 once the share is written, 1 otherwise), so no
    exit handler of the parent runs twice."""
    status = 1
    try:
        share = _work(fn, count, token)
        with os.fdopen(out, "wb") as fh:
            pickle.dump(share, fh)
        status = 0
    finally:
        os._exit(status)


def _forked(count: int, fn: Callable[[int], object], workers: int) -> list:
    """Trials 0..count-1 on this process and ``workers - 1`` forked children
    sharing one counter, returned in trial order.  The exception of the
    earliest trial that raised is re-raised here with its type; a child that
    exits without its share is a BudgetError naming its exit status (the
    work did not fit the resources it was given)."""
    token = os.pipe()
    os.write(token[1], (0).to_bytes(8, "little"))
    children, results, errors, lost = [], {}, [], []
    try:
        for _ in range(workers - 1):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child(fn, count, token, write)
            os.close(write)
            children.append((pid, read))
        pairs, error = _work(fn, count, token)
        results.update(pairs)
        if error:
            errors.append(error)
    finally:
        # a child ends once the counter passes count, so none is left behind
        for pid, read in children:
            with os.fdopen(read, "rb") as fh:
                data = fh.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if status != 0:
                lost.append((pid, status))
                continue
            pairs, error = pickle.loads(data)
            results.update(pairs)
            if error:
                errors.append(error)
        os.close(token[0])
        os.close(token[1])
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    if lost:
        pid, status = lost[0]
        raise BudgetError(f"verify worker {pid} exited with status {status} "
                          f"without returning its trials")
    return [results[t] for t in range(count)]


def _make_systems(specs, systems: dict) -> dict:
    """The run's ``systems`` with the system of every spec, those it lacks
    generated here, before the pool forks, so its workers inherit them."""
    for spec in specs:
        if spec not in systems:
            systems[spec] = generate(spec)[2]
    return systems


def _trial(cfg: TrialConfig, check: Check, t: int, systems: dict,
           specs: list[SystemSpec] | None = None) -> tuple:
    """Trial t of a system check: its system (the specs, by default the
    config's, cycle by trial), its seeded generator and the case fields
    every record of the trial carries."""
    specs = cfg.system_specs if specs is None else specs
    spec = specs[t % len(specs)]
    system = systems[spec]
    path = trial_seed_path(cfg.seed, check, t)
    case = {"trial": t, "seed_path": list(path), "system": spec.describe(),
            "n": len(system)}
    return system, seeded_rng(path), case


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


def check_mr_inequality(cfg: TrialConfig, systems: dict) -> tuple:
    """Maximal-inequality ratio ||S_N*||_2 / ((2 + log2 N) ||b||_2) <= 1 per trial."""
    systems = _make_systems(cfg.system_specs, systems)

    def one(t: int) -> dict:
        system, rng, case = _trial(cfg, Check.MR_INEQUALITY, t, systems)
        b = _draw_coefficients(cfg, rng, len(system), system.fibers.field)
        return _record(majorant(system, b).l2_norm,
                       (2.0 + math.log2(len(system))) * _coeff_norm(b),
                       cfg.slack(Check.MR_INEQUALITY), case)

    return cfg.n_trials, one, _finish(Check.MR_INEQUALITY)


def check_dyadic_pointwise(cfg: TrialConfig, systems: dict) -> tuple:
    """Randomized draws of the single-fiber dyadic chaining bound."""
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
        return _record(lhs, rhs, cfg.slack(Check.DYADIC_POINTWISE),
                       {"trial": t, "seed_path": list(path), "j": j, "r": r, "dim": d})

    return cfg.n_trials, one, _finish(Check.DYADIC_POINTWISE)


def _chaining_results(cfg: TrialConfig, systems: dict) -> tuple:
    """Shared trial loop for the chaining checks (final bound, block-norm
    sum, within-block square sum) plus the Parseval identity."""
    systems = _make_systems(cfg.system_specs, systems)
    checks = (Check.MR_THEOREM, Check.BLOCK_NORM_SUM, Check.BLOCK_SQ_SUM)

    def one(t: int) -> tuple[dict, dict, dict]:
        system, rng, case = _trial(cfg, Check.MR_THEOREM, t, systems)
        n_sys = len(system)
        n_pad = complete_block_length(n_sys)
        b = _draw_coefficients(cfg, rng, n_sys, system.fibers.field)
        b_pad = np.concatenate([b, np.zeros(n_pad - n_sys, dtype=b.dtype)])
        diag = chaining_diagnostics(system, b_pad, n_pad)
        parseval_dev = float(np.max(np.abs(diag.block_norms ** 2 - diag.block_coeff_sq)
                                    / np.maximum(diag.block_coeff_sq, ABSOLUTE_FLOOR),
                                    initial=0.0))
        case["n_padded"] = n_pad
        return (_record(diag.majorant_l2, diag.majorant_bound, cfg.slack(Check.MR_THEOREM),
                        dict(case, parseval_rel_dev=parseval_dev),
                        ok=parseval_dev <= PARSEVAL_SLACK),
                _record(diag.block_norm_sum, diag.block_norm_sum_bound,
                        cfg.slack(Check.BLOCK_NORM_SUM), dict(case)),
                _record(diag.inner_sq_sum, diag.inner_sq_bound,
                        cfg.slack(Check.BLOCK_SQ_SUM), case))

    return cfg.n_trials, one, lambda rows: [
        _result(check, list(records))
        for check, records in zip(checks, zip(*rows)) if check in cfg.checks]


def _trial_plans(cfg: TrialConfig, system: OrthonormalSystem, b: np.ndarray,
                 n: int, path: tuple) -> list[PermutationPlan]:
    return ([PermutationPlan.identity(n)]
            + [PermutationPlan.seeded_shuffle(n, path + (i,)) for i in range(cfg.shuffle_plans)]
            + [adversarial_permutation(system, b, n, strategy) for strategy in
               (AdversarialStrategy.GREEDY_MAX_PREFIX, AdversarialStrategy.BLOCK_REVERSAL)])


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


def check_tandori_block(cfg: TrialConfig, systems: dict) -> tuple:
    """Blocked oscillation bound ||delta_k||_2 <= 8 (sum_{block} |a_n|^2 log2^2 n)^(1/2)
    under identity, seeded-shuffle, greedy, and block-reversal plans.  A
    (plan, block) record fails also where its diameters break the bracket
    one-sided <= diameter <= 2 x one-sided at some atom, both halves by
    ``leq_with_slack`` at DEFAULT_SLACK (a config's tolerances do not loosen
    it), and its case then names the bracket."""
    specs = [s for s in cfg.system_specs if s.n_functions >= 5]
    if not specs:
        raise ContractError("tandori block checks need at least one system with n >= 5")
    systems = _make_systems(specs, systems)

    def one(t: int) -> dict:
        system, rng, case = _trial(cfg, Check.TANDORI_BLOCK, t, systems, specs)
        n = len(system)
        b = _draw_coefficients(cfg, rng, n, system.fibers.field)
        plans = _trial_plans(cfg, system, b, n, tuple(case["seed_path"]))
        # every plan of a block at once; the records keep plan-major order
        by_block = [block_oscillations(system, b, plans, k, n)
                    for k in range(tandori_blocks(n).k_max + 1)]
        held = [np.all(leq_with_slack(osc.values, osc.doubled_one_sided)
                       & leq_with_slack(0.5 * osc.doubled_one_sided, osc.values), axis=1).tolist()
                for osc in by_block]
        return _merge_worst([
            _record(float(osc.l2[p]), osc.bound, cfg.slack(Check.TANDORI_BLOCK),
                    dict(case, plan=plan.describe(), block=k,
                         **({} if held[k][p] else
                            {"bracket": "one-sided <= diameter <= 2 x one-sided"})),
                    ok=held[k][p])
            for p, plan in enumerate(plans) for k, osc in enumerate(by_block)])

    arithmetic = tandori_threshold_arithmetic()
    details = {
        "threshold_arithmetic": arithmetic,
        "plan_search": "identity, seeded-shuffle, greedy and block-reversal plans only; "
                       "the reported worst ratio is a lower bound for the true worst "
                       "rearrangement",
    }
    return cfg.n_trials, one, _finish(Check.TANDORI_BLOCK, details=details,
                                      ok=all(row["ok"] for row in arithmetic))


def check_exhaustive_perm(cfg: TrialConfig, systems: dict) -> tuple:
    """Maximal inequality under every one of the n! rearrangements of
    capped-size variants of each system kind, one trial per system: its
    record is the order with the largest ratio (the empirical worst
    rearrangement), and it passes iff every order does.  The n! orders,
    lexicographic, are built once here; ``all_orders_l2`` sweeps them in
    chunks whose prefix buffer holds about ``PREFIX_BUDGET`` values at any n."""
    n = cfg.exhaustive_n
    specs = [replace(spec, n_functions=n, resolution=None) for spec in cfg.system_specs]
    systems = _make_systems(specs, systems)
    perms = np.fromiter(itertools.chain.from_iterable(itertools.permutations(range(n))),
                        dtype=np.int64, count=math.factorial(n) * n).reshape(-1, n)
    slack = cfg.slack(Check.EXHAUSTIVE_PERM)

    def one(i: int) -> dict:
        system, rng, case = _trial(cfg, Check.EXHAUSTIVE_PERM, i, systems, specs)
        del case["n"]
        b = _draw_coefficients(cfg, rng, n, system.fibers.field)
        rhs = (2.0 + math.log2(n)) * _coeff_norm(b)
        lhs = all_orders_l2(system, b, perms)
        # _merge_worst's rule over one record per order: highest rank, ties to
        # the first order; every order shares rhs, so all pass iff the largest
        # lhs does (np.max propagates NaN, which fails)
        ranks = [_rank(_ratio(l2, rhs)) for l2 in lhs.tolist()]
        worst = ranks.index(max(ranks))
        case["worst_permutation"] = (perms[worst] + 1).tolist()
        return _record(float(lhs[worst]), rhs, slack, case,
                       ok=leq_with_slack(float(np.max(lhs)), rhs, slack))

    # every system counts its n! permutations as cases
    return len(specs), one, _finish(Check.EXHAUSTIVE_PERM,
                                    n_cases=len(specs) * math.factorial(n))


def check_orlicz_chain(cfg: TrialConfig, systems: dict) -> tuple:
    """Cauchy-Schwarz / monotonicity chain from the Orlicz conditions to the
    blocked sum, plus condensation classifier agreement, in one trial.

    When the config does not pin analytic specs, the stock pair
    a_n = n^-1 log2(n+1)^-2 and w_n = max(1, log2 n)^1.5 is used.
    """
    coeff_spec = cfg.coeff_spec or SequenceSpec.power_log(1.0, 1.0, 2.0)
    weight_spec = cfg.weight_spec or WeightSpec.log_power(1.5)
    slack = cfg.slack(Check.ORLICZ_CHAIN)

    def one(t: int) -> CheckResult:
        red = orlicz_reduction(coeff_spec, weight_spec, cfg.truncation)
        r_cauchy = _ratio(red.lhs, red.mid)
        r_mono = _ratio(red.mid, red.rhs)
        ok = leq_with_slack(red.lhs, red.mid, slack) and leq_with_slack(red.mid, red.rhs, slack)
        details = {
            "c_partial": red.c_partial,
            "sqrt_mass_sum": red.sqrt_mass_sum,
            "classification": red.classification.value,
            "coeff_condition": red.coefficient.classification.value,
            "weight_condition": red.weight.classification.value,
        }
        if not weight_spec.is_explicit:
            chain = condensation_chain(weight_spec, terms=12)
            agree = len({r.classification for r in chain}) == 1
            ok = ok and agree
            details["condensation_agrees"] = agree
            details["condensation_partial"] = chain[2].total
        case = {"trial": t, "coefficients": coeff_spec.describe(),
                "weights": weight_spec.describe(), "truncation": cfg.truncation,
                "cauchy_ratio": r_cauchy, "monotonicity_ratio": r_mono}
        return _result(Check.ORLICZ_CHAIN,
                       [{"ratio": max(r_cauchy, r_mono), "ok": ok, "case": case}], details)

    return 1, one, list


def _conditioned_mix(rng: np.random.Generator, values: np.ndarray,
                     condition: float) -> tuple[np.ndarray, np.ndarray]:
    """``(M values, s)`` for the seeded mix M = P diag(s) Q of condition
    number ``condition``: P and Q are each MIX_REFLECTORS real Householder
    reflectors I - 2 u u^T (unit u, from one (2k, n) standard-normal draw)
    and s = geomspace(1, condition, n), so M's singular values are exactly
    s.  O(k n T) for n functions of T flat coordinates; no n x n array."""
    n = values.shape[0]
    u = rng.standard_normal((2 * MIX_REFLECTORS, n))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    s = np.geomspace(1.0, condition, n)
    mixed = np.array(values, order="C")
    # M is real, so it acts on real and imaginary parts alike; einsum's own
    # loop (not BLAS) keeps the projections' bits independent of BLAS threads
    work = mixed.view(np.float64)
    scratch = np.empty_like(work)
    for j, row in enumerate(u):
        if j == MIX_REFLECTORS:
            work *= s[:, None]
        np.multiply.outer(2.0 * row, np.einsum("i,ij->j", row, work), out=scratch)
        work -= scratch
    return mixed, s


def check_riesz_ratio(cfg: TrialConfig, systems: dict) -> tuple:
    """Maximal inequality on systems mixed by a seeded matrix M of
    condition number ``riesz_condition`` (``_conditioned_mix``), at the
    bound in the module docstring; the chaining proof uses orthogonality
    only through ||sum_{n in I} b_n psi_n||^2 <= B sum_{n in I} |b_n|^2.

    The mixed Gram matrix is M G0 M^T, G0 the unmixed system's, so its
    spectrum lies in [s_min^2 lambda_min(G0), s_max^2 lambda_max(G0)]; the
    reported Riesz bounds are those ends, G0's eigenvalues bounded by
    ``gershgorin_bounds`` once per system before the trials, widened by
    MIX_MARGIN.  A lower Riesz bound <= 1e-6 or NaN (a numerically singular
    mix, or discs of G0 that reach 0) fails the trial.  verify generated
    every system itself, so a G0 that is not Hermitian is a kernel defect,
    not malformed input: each trial on that system is a failed case (NaN
    ratio) that names the invariant."""
    systems = _make_systems(cfg.system_specs, systems)
    bounds = {}
    for spec in cfg.system_specs[:cfg.n_trials]:
        if (system := systems[spec]) not in bounds:
            try:
                bounds[system] = gershgorin_bounds(system)
            except StructuralError:
                bounds[system] = None

    def one(t: int) -> dict:
        system, rng, case = _trial(cfg, Check.RIESZ_RATIO, t, systems)
        if bounds[system] is None:
            case["invariant"] = f"G0 Hermitian to {GRAM_HERMITIAN_TOL:g}"
            return _record(math.nan, math.nan, 0.0, case, ok=False)
        n = len(system)
        values, s = _conditioned_mix(rng, system.values, cfg.riesz_condition)
        mixed = OrthonormalSystem(system.space, system.fibers, values)
        b = _draw_coefficients(cfg, rng, n, system.fibers.field)
        lower, upper = bounds[system]
        lower *= float(s[0]) ** 2 * (1.0 - MIX_MARGIN)
        upper *= float(s[-1]) ** 2 * (1.0 + MIX_MARGIN)
        case.update(riesz_lower=lower, riesz_upper=upper, mix_condition=cfg.riesz_condition)
        rhs = math.sqrt(upper) * (2.0 + math.log2(n)) * _coeff_norm(b)
        return _record(majorant(mixed, b).l2_norm, rhs, cfg.slack(Check.RIESZ_RATIO), case,
                       ok=lower > 1e-6)

    note = ("bound sqrt(riesz_upper) (2 + log2 N) ||b||_2: the Menshov-Rademacher constant "
            "scaled by the upper Riesz bound riesz_upper = s_max^2 g_max(G0) "
            f"(1 + {MIX_MARGIN:.2g}) of the mixed system: s_max its mix's largest singular "
            "value (riesz_condition when N > 1), g_max(G0) >= lambda_max(G0) the upper "
            "Gershgorin bound of the unmixed system's Gram matrix G0")
    return cfg.n_trials, one, _finish(Check.RIESZ_RATIO, details={"note": note})


def run_suite(cfg: TrialConfig, threads: int | None = None) -> VerifyReport:
    """Every requested check's setup, then all their (check, trial) claims in
    one pool, largest first, and their results.  A setup ``(cfg, systems)``
    returns its plan ``(count, one, finish)``: ``one(t)`` is claim t's record
    and ``finish`` turns the records, in trial order, into its list of
    results (the chaining setup's: each of its three checks requested).  A
    check's ``seconds`` is its setup plus its trials' time (the chaining
    checks share theirs).  The setups share one dict of systems: each is
    generated once, by the first setup that reads it, and in that check's
    ``seconds``.

    Deterministic given cfg.seed; see the module docstring for ``threads``.
    """
    start = time.perf_counter()
    # built per call, so the checks are looked up when the suite runs.  The largest
    # claim (orlicz-chain's one trial) first, then the largest trial sums on
    # default.json; the chaining trio's now about equals riesz-ratio's, but the order
    # stays, as moving a claim moves ru_maxrss (orlicz-chain second to last: +1.2 MiB)
    suite = ((check_orlicz_chain, {Check.ORLICZ_CHAIN}),
             (check_tandori_block, {Check.TANDORI_BLOCK}),
             (_chaining_results, {Check.MR_THEOREM, Check.BLOCK_NORM_SUM, Check.BLOCK_SQ_SUM}),
             (check_riesz_ratio, {Check.RIESZ_RATIO}),
             (check_mr_inequality, {Check.MR_INEQUALITY}),
             (check_dyadic_pointwise, {Check.DYADIC_POINTWISE}),
             (check_exhaustive_perm, {Check.EXHAUSTIVE_PERM}))
    plans, setups, systems = [], [], {}
    for setup, checks in suite:
        if checks & cfg.checks:
            began = time.perf_counter()
            plans.append(setup(cfg, systems))
            setups.append(time.perf_counter() - began)
    results = {res.check: res for res in _run_plans(plans, threads, setups)}
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
    return TrialConfig(system_specs=specs, seed=seed, n_trials=n_trials,
                       weight_spec=WeightSpec.log_power(1.5))
