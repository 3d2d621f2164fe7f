"""Command-line front end.

Subcommands
-----------
gen-ons       generate an orthonormal system and write it as JSON or CSV
check-mr      evaluate the log-squared Weyl condition for a sequence
check-tandori evaluate the blocked (double-exponential) condition
check-orlicz  evaluate the weighted condition pair and the reduction chain
majorant      compute a partial-sum majorant profile for a stored system
decompose     print the dyadic block decomposition of a prefix length
verify        run the seeded verification suite

Exit codes: 0 success, 1 a verification check failed, 2 usage error,
malformed or non-finite input, a sum or majorant that overflows float64, a
system over the generation limit, or a verify worker that died (work
beyond the resources it was given).  All randomness derives from --seed
(default 0); wall clocks are never consulted for seeding.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import serialization
# orlicz_conditions is no longer called here, but perfbench/tracing.py
# wraps it by its name in this module
from .coefficients import (SequenceSpec, WeightSpec, orlicz_conditions,
                           orlicz_reduction, tandori_sum, weyl_sum)
from .direct_integral import Field
from .errors import BudgetError, ContractError, StructuralError
from .majorants import dyadic_decomposition, majorant
from .serialization import SCHEMA_VERSION
from .systems import SystemKind, SystemSpec, generate
from .verify import Check, TrialConfig, default_config, run_suite, worker_count


# Characters per write: a text stream encodes each write whole, so writing
# the full output at once would hold a second full-size copy of it.
WRITE_SLICE = 1 << 20


def _write(text: str, path: str | None) -> None:
    """Write ``text`` to ``path``, or to stdout ending in a newline."""
    def emit(fh):
        for start in range(0, len(text), WRITE_SLICE):
            fh.write(text[start:start + WRITE_SLICE])

    if path in (None, "-"):
        emit(sys.stdout)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w") as fh:
            emit(fh)


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _read_json(path: str):
    try:
        return json.loads(_read(path))
    except json.JSONDecodeError as exc:
        raise StructuralError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}") from exc


def _finite(value) -> float:
    """``float(value)``; NaN and infinities are a ValueError."""
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {value!r}")
    return x


def _read_column(path: str) -> list[float]:
    """The first comma-separated column of a text file as finite floats,
    blank lines skipped."""
    values = []
    for lineno, line in enumerate(_read(path).splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            values.append(_finite(line.split(",")[0]))
        except ValueError as exc:
            raise StructuralError(
                f"{path}: malformed value at line {lineno}, column 1") from exc
    return values


def _parse_floats(text: str, expected: int | None = None) -> list[float]:
    parts = [p.strip() for p in text.split(",") if p.strip() != ""]
    values = [_finite(p) for p in parts]
    if expected is not None and len(values) != expected:
        raise ContractError(f"expected {expected} comma-separated values, got {len(values)}")
    return values


def _sequence_from_args(args) -> SequenceSpec:
    if args.powerlog is not None:
        c, alpha, beta = _parse_floats(args.powerlog, 3)
        return SequenceSpec.power_log(c, alpha, beta)
    if args.explicit is not None:
        return SequenceSpec.from_values(_read_column(args.explicit))
    raise ContractError("provide --powerlog C,ALPHA,BETA or --explicit FILE")


def _weights_from_args(args) -> WeightSpec:
    if args.logpower is not None:
        vals = _parse_floats(args.logpower)
        if len(vals) in (1, 2):
            return WeightSpec.log_power(*vals)
        raise ContractError("--logpower takes GAMMA or GAMMA,SHIFT")
    if args.explicit_weights is not None:
        return WeightSpec.from_values(_read_column(args.explicit_weights))
    raise ContractError("provide --logpower GAMMA[,SHIFT] or --explicit-weights FILE")


def _condition_dict(report) -> dict:
    return {
        "condition": report.condition_id.value,
        "classification": report.classification.value,
        "truncation": report.truncation_length,
        "total": report.total,
        "partial_sums": report.partial_sums.tolist(),
    }


_REQUIRED = object()


def _field(entry, what: str, key: str, cast, default=_REQUIRED):
    """``cast(entry[key])``, or ``default`` when the key is absent.

    A non-object entry, a missing required key, or a value that ``cast``
    refuses (a JSON null, list or string where a number belongs) is a
    one-line StructuralError naming the key, so the CLI exits 2.  So is
    an integer beyond the float range, a JSON NaN or an infinity.
    """
    if not isinstance(entry, dict):
        raise StructuralError(f"{what} must be a JSON object, got {json.dumps(entry)}")
    if key not in entry:
        if default is _REQUIRED:
            raise StructuralError(f"{what} is missing '{key}'")
        return default
    try:
        return cast(entry[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise StructuralError(
            f"{what}: '{key}' has a malformed value {json.dumps(entry[key])}") from exc


def _json_number(value):
    """A finite JSON number, unchanged; NaN, infinities, null, booleans,
    strings and lists are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("not a JSON number")
    _finite(value)
    return value


def _json_list(value) -> list:
    if not isinstance(value, list):
        raise TypeError("not a JSON list")
    return value


def _json_numbers(value) -> list:
    return [_json_number(v) for v in _json_list(value)]


def _spec_from_dict(entry: dict, default_seed: int) -> SystemSpec:
    """A system spec from its JSON form {kind, n, resolution, fiber_dim, seed, field}."""
    what = f"system entry {json.dumps(entry)}"
    return SystemSpec(
        kind=_field(entry, what, "kind", SystemKind),
        n_functions=_field(entry, what, "n", int),
        resolution=_field(entry, what, "resolution",
                          lambda v: None if v is None else int(v), None),
        fiber_dim=_field(entry, what, "fiber_dim", int, 1),
        seed=_field(entry, what, "seed", int, default_seed),
        field=_field(entry, what, "field", Field, Field.REAL),
    )


def _cmd_gen_ons(args) -> int:
    if args.spec is not None:
        spec = _spec_from_dict(_read_json(args.spec), args.seed)
    else:
        if args.kind is None or args.n is None:
            raise ContractError("gen-ons needs --kind and --n (or --spec FILE)")
        spec = SystemSpec(kind=SystemKind(args.kind), n_functions=args.n,
                          resolution=args.resolution, fiber_dim=args.fiber_dim,
                          seed=args.seed, field=Field(args.field))
    _, _, system = generate(spec)
    if args.format == "csv":
        _write(serialization.system_to_csv(system), args.out)
    else:
        _write(serialization.system_to_json(system), args.out)
    return 0


def _cmd_check_condition(args) -> int:
    rep = args.condition(_sequence_from_args(args), args.trunc)
    _write(serialization.dumps({"schema_version": SCHEMA_VERSION, **_condition_dict(rep)},
                               sort_keys=True), args.out)
    return 0


def _cmd_check_orlicz(args) -> int:
    red = orlicz_reduction(_sequence_from_args(args), _weights_from_args(args), args.trunc)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "all_hold": red.all_hold,
        "coefficient_condition": _condition_dict(red.coefficient),
        "weight_condition": _condition_dict(red.weight),
        "reduction": {
            "lhs": red.lhs, "mid": red.mid, "rhs": red.rhs,
            "c_partial": red.c_partial,
            "cauchy_holds": red.cauchy_holds,
            "monotonicity_holds": red.monotonicity_holds,
            "classification": red.classification.value,
        },
    }
    _write(serialization.dumps(payload, sort_keys=True), args.out)
    return 0 if red.all_hold else 1


def _load_system(path: str, fmt: str | None):
    text = _read(path)
    if fmt == "csv" or (fmt is None and path.endswith(".csv")):
        return serialization.system_from_csv(text)
    return serialization.system_from_json(text)


def _cmd_majorant(args) -> int:
    system = _load_system(args.system, args.format)
    if args.coeffs is not None:
        coeffs = np.asarray(_parse_floats(args.coeffs))
    elif args.coeffs_file is not None:
        coeffs = np.asarray(_read_column(args.coeffs_file))
    else:
        raise ContractError("provide --coeffs LIST or --coeffs-file FILE")
    profile = majorant(system, coeffs, args.n)
    if not (np.all(np.isfinite(profile.values)) and math.isfinite(profile.l2_norm)):
        raise ContractError("the majorant overflows float64")
    _write(serialization.profile_to_json(profile), args.out)
    return 0


def _cmd_decompose(args) -> int:
    dec = dyadic_decomposition(args.j, args.r)
    _write(" ".join(f"({lo},{hi}]" for lo, hi in dec.blocks), args.out)
    return 0


def _sequence_from_config(entry, what: str) -> SequenceSpec:
    form = _field(entry, what, "form", str)
    if form == "power-log":
        return SequenceSpec.power_log(*(_field(entry, what, key, _json_number)
                                        for key in ("scale", "alpha", "beta")))
    if form == "explicit":
        return SequenceSpec.from_values(_field(entry, what, "values", _json_numbers))
    raise ContractError(f"{what}: unknown 'form' {form!r}")


def _weights_from_config(entry, what: str) -> WeightSpec:
    form = _field(entry, what, "form", str)
    if form == "log-power":
        return WeightSpec.log_power(_field(entry, what, "gamma", _json_number),
                                    _field(entry, what, "shift", _json_number, 0.0))
    if form == "explicit":
        return WeightSpec.from_values(_field(entry, what, "values", _json_numbers))
    raise ContractError(f"{what}: unknown 'form' {form!r}")


def _config_from_file(path: str, overrides: dict) -> TrialConfig:
    """The file's config with the command-line overrides in place of its
    values, validated once, so a file value that is overridden is never read;
    a key the file leaves out (or a null entry) takes TrialConfig's default."""
    payload = _read_json(path)
    what = f"{path}: config"

    def given(key, cast):
        return _field(payload, what, key, cast, None)

    def optional(key, parse):
        spec = given(key, lambda v: v)
        return None if spec is None else parse(spec, f"{what} '{key}' entry")

    parsers = {
        "system_specs": lambda: tuple(
            _spec_from_dict(entry, 0)
            for entry in _field(payload, what, "systems", _json_list)),
        "checks": lambda: given("checks",
                                lambda v: frozenset(Check(c) for c in _json_list(v))),
        "n_trials": lambda: given("n_trials", int),
        "seed": lambda: given("seed", int),
        "coeff_spec": lambda: optional("coefficients", _sequence_from_config),
        "weight_spec": lambda: optional("weights", _weights_from_config),
        "tolerances": lambda: given("tolerances",
                                    lambda v: {Check(k): _finite(x) for k, x in dict(v).items()}),
        "truncation": lambda: given("truncation", int),
        "exhaustive_n": lambda: given("exhaustive_n", int),
        "shuffle_plans": lambda: given("shuffle_plans", int),
        "riesz_condition": lambda: given("riesz_condition", _finite),
    }
    values = {name: overrides[name] if name in overrides else parse()
              for name, parse in parsers.items()}
    return TrialConfig(**{name: v for name, v in values.items() if v is not None})


def _cmd_verify(args) -> int:
    if args.threads < 1:
        raise ContractError(f"--threads must be >= 1, got {args.threads}")
    overrides = {"seed": args.seed, "n_trials": args.trials}
    if args.check is not None:
        overrides["checks"] = frozenset(Check(c.strip()) for c in args.check.split(",")
                                        if c.strip())
    overrides = {k: v for k, v in overrides.items() if v is not None}
    # TrialConfig validates the overridden values, so --trials 0 is refused
    cfg = (_config_from_file(args.config, overrides) if args.config is not None
           else replace(default_config(seed=0), **overrides))
    report = run_suite(cfg, threads=args.threads)
    _write(report.to_json(), args.out)
    if args.verbose:
        for check, res in sorted(report.results.items(), key=lambda kv: kv[0].value):
            workers = worker_count(args.threads, res.trials)
            rate = res.n_cases / res.seconds if res.seconds > 0 else math.inf
            sys.stderr.write(f"{check.value}: {'pass' if res.passed else 'FAIL'} "
                             f"(worst ratio {res.worst_ratio:.6g}) in {res.seconds:.3f} s "
                             f"on {workers} worker{'s' if workers > 1 else ''}, "
                             f"{rate:.0f} cases/s\n")
    return report.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthoseries",
        description="Orthogonal-series maximal inequalities: generators, "
                    "condition checkers, majorants, and a verification suite.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-ons", help="generate an orthonormal system")
    g.add_argument("--kind", choices=[k.value for k in SystemKind])
    g.add_argument("--n", type=int)
    g.add_argument("--resolution", type=int, default=None)
    g.add_argument("--fiber-dim", type=int, default=1, dest="fiber_dim")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--field", choices=["real", "complex"], default="real")
    g.add_argument("--spec", default=None,
                   help="JSON file with the system parameters (kind, n, ...)")
    g.add_argument("--format", choices=["json", "csv"], default="json")
    g.add_argument("--out", default=None)
    g.set_defaults(fn=_cmd_gen_ons)

    for name, condition in (("check-mr", weyl_sum), ("check-tandori", tandori_sum)):
        p = sub.add_parser(name, help=f"{name} condition report")
        p.add_argument("--powerlog", default=None, metavar="C,ALPHA,BETA")
        p.add_argument("--explicit", default=None, metavar="FILE.csv")
        p.add_argument("--trunc", type=int, required=True)
        p.add_argument("--out", default=None)
        p.set_defaults(fn=_cmd_check_condition, condition=condition)

    p = sub.add_parser("check-orlicz", help="weighted condition pair and reduction chain")
    p.add_argument("--powerlog", default=None, metavar="C,ALPHA,BETA")
    p.add_argument("--explicit", default=None, metavar="FILE.csv")
    p.add_argument("--logpower", default=None, metavar="GAMMA[,SHIFT]")
    p.add_argument("--explicit-weights", default=None, dest="explicit_weights",
                   metavar="FILE.csv")
    p.add_argument("--trunc", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_check_orlicz)

    m = sub.add_parser("majorant", help="majorant profile of a stored system")
    m.add_argument("--system", required=True)
    m.add_argument("--format", choices=["json", "csv"], default=None)
    m.add_argument("--coeffs", default=None, metavar="V1,V2,...")
    m.add_argument("--coeffs-file", default=None, dest="coeffs_file")
    m.add_argument("--n", type=int, default=None)
    m.add_argument("--out", default=None)
    m.set_defaults(fn=_cmd_majorant)

    d = sub.add_parser("decompose", help="dyadic blocks of a prefix length")
    d.add_argument("j", type=int)
    d.add_argument("r", type=int)
    d.add_argument("--out", default=None)
    d.set_defaults(fn=_cmd_decompose)

    v = sub.add_parser("verify", help="run the verification suite")
    v.add_argument("--config", default=None)
    v.add_argument("--check", default=None, help="comma-separated check names")
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--trials", type=int, default=None)
    v.add_argument("--threads", type=int, default=1)
    v.add_argument("--out", default=None)
    v.add_argument("--verbose", action="store_true")
    v.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # every non-finite result is refused (exit 2) or fails a check (exit
        # 1) explicitly, so numpy's floating-point warnings add only noise
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.fn(args)
    except (StructuralError, ContractError, BudgetError, FileNotFoundError,
            ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
