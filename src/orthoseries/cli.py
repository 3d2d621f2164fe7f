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

Exit codes: 0 success, 1 a verification check failed, 2 usage error, a
file that cannot be read or written (any OSError), malformed, too deeply
nested or non-finite input, a verify config of no checks, a sum or majorant
that overflows float64, a system or a decompose r over the generation limit,
or a verify worker that died (work beyond the resources it was given).  All
randomness derives from --seed (default 0); wall clocks are never consulted
for seeding.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import nullcontext
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
from .serialization import SCHEMA_VERSION, field, integer, known, listed, loads, number
from .systems import SystemKind, SystemSpec, generate
from .verify import Check, TrialConfig, default_config, run_suite


def _write(text, path: str | None) -> None:
    """Write ``text``, a str or an iterable of str pieces, to ``path``, or to
    stdout ending in a newline."""
    to_stdout, last = path in (None, "-"), ""
    with nullcontext(sys.stdout) if to_stdout else open(path, "w") as fh:
        for piece in [text] if isinstance(text, str) else text:
            fh.write(piece)
            last = piece or last
        if to_stdout and not last.endswith("\n"):
            fh.write("\n")


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


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
        "partial_sums": report.partial_sums,
    }


def _spec_from_dict(entry, what: str, default_seed: int) -> SystemSpec:
    """A system spec from its JSON form {kind, n, resolution, fiber_dim, seed, field}."""
    kind = field(entry, what, "kind", SystemKind)
    known(entry, what, "kind", "n", "resolution", "fiber_dim", "seed", "field")
    return SystemSpec(
        kind=kind,
        n_functions=field(entry, what, "n", integer),
        resolution=field(entry, what, "resolution",
                         lambda v: None if v is None else integer(v), None),
        fiber_dim=field(entry, what, "fiber_dim", integer, 1),
        seed=field(entry, what, "seed", integer, default_seed),
        field=field(entry, what, "field", Field, Field.REAL),
    )


def _cmd_gen_ons(args) -> int:
    if args.spec is not None:
        spec = _spec_from_dict(loads(_read(args.spec), args.spec), args.spec, args.seed)
    else:
        if args.kind is None or args.n is None:
            raise ContractError("gen-ons needs --kind and --n (or --spec FILE)")
        spec = SystemSpec(kind=SystemKind(args.kind), n_functions=args.n,
                          resolution=args.resolution, fiber_dim=args.fiber_dim,
                          seed=args.seed, field=Field(args.field))
    _, _, system = generate(spec)
    pieces = (serialization.system_csv_pieces if args.format == "csv"
              else serialization.system_json_pieces)
    _write(pieces(system), args.out)
    return 0


def _cmd_check_condition(args) -> int:
    rep = args.condition(_sequence_from_args(args), args.trunc)
    _write(serialization.iterdumps({"schema_version": SCHEMA_VERSION, **_condition_dict(rep)}),
           args.out)
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
    _write(serialization.iterdumps(payload), args.out)
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
    if args.n is not None and not 1 <= args.n <= coeffs.size:
        raise ContractError(f"--n {args.n} outside [1, {coeffs.size}], the coefficients given")
    profile = majorant(system, coeffs[:args.n])
    if not (np.all(np.isfinite(profile.values)) and math.isfinite(profile.l2_norm)):
        raise ContractError("the majorant overflows float64")
    _write(serialization.profile_to_json(profile), args.out)
    return 0


def _cmd_decompose(args) -> int:
    dec = dyadic_decomposition(args.j, args.r)
    _write(" ".join(f"({lo},{hi}]" for lo, hi in dec.blocks), args.out)
    return 0


def _floats(value) -> list:
    """A JSON list of numbers as floats (numpy holds a list of huge ints as objects)."""
    return np.asarray(listed(value), dtype=float).tolist()


def _sequence_from_config(entry, what: str) -> SequenceSpec:
    form = field(entry, what, "form", lambda v: v)
    if form == "power-log":
        known(entry, what, "form", "scale", "alpha", "beta")
        return SequenceSpec.power_log(*(field(entry, what, key, number)
                                        for key in ("scale", "alpha", "beta")))
    if form == "explicit":
        known(entry, what, "form", "values")
        return SequenceSpec.from_values(field(entry, what, "values", _floats))
    raise ContractError(f"{what}: unknown 'form'")


def _weights_from_config(entry, what: str) -> WeightSpec:
    form = field(entry, what, "form", lambda v: v)
    if form == "log-power":
        known(entry, what, "form", "gamma", "shift")
        return WeightSpec.log_power(field(entry, what, "gamma", number),
                                    field(entry, what, "shift", number, 0.0))
    if form == "explicit":
        known(entry, what, "form", "values")
        return WeightSpec.from_values(field(entry, what, "values", _floats))
    raise ContractError(f"{what}: unknown 'form'")


def _config_from_file(path: str, overrides: dict) -> TrialConfig:
    """The file's config with the command-line overrides in place of its
    values, validated once (an overridden file value is never read); a key
    left out (or null) takes TrialConfig's default, an unread one is refused."""
    payload = loads(_read(path), path)
    what = f"{path}: config"

    def given(key, cast):
        return field(payload, what, key, cast, None)

    def optional(key, parse):
        spec = given(key, lambda v: v)
        return None if spec is None else parse(spec, f"{what} '{key}' entry")

    parsers = {
        "systems": lambda: tuple(
            _spec_from_dict(entry, f"{path}: systems[{i}]", 0) for i, entry in
            enumerate(field(payload, what, "systems", lambda v: listed(v, (dict,))))),
        "checks": lambda: given("checks",
                                lambda v: frozenset(Check(c) for c in listed(v, (str,)))),
        "n_trials": lambda: given("n_trials", integer),
        "seed": lambda: given("seed", integer),
        "coefficients": lambda: optional("coefficients", _sequence_from_config),
        "weights": lambda: optional("weights", _weights_from_config),
        "truncation": lambda: given("truncation", integer),
        "exhaustive_n": lambda: given("exhaustive_n", integer),
        "shuffle_plans": lambda: given("shuffle_plans", integer),
        "riesz_condition": lambda: given("riesz_condition", lambda v: float(number(v))),
    }
    values = {key: overrides[key] if key in overrides else parse()
              for key, parse in parsers.items()}
    known(payload, what, "schema_version", *parsers)
    names = {"systems": "system_specs", "coefficients": "coeff_spec", "weights": "weight_spec"}
    return TrialConfig(**{names.get(key, key): v for key, v in values.items() if v is not None})


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
            rate = res.n_cases / res.seconds if res.seconds > 0 else math.inf
            sys.stderr.write(f"{check.value}: {'pass' if res.passed else 'FAIL'} "
                             f"(worst ratio {res.worst_ratio:.6g}) in {res.seconds:.3f} s "
                             f"on {res.workers} worker{'s' if res.workers > 1 else ''}, "
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
    m.add_argument("--n", type=int, default=None, help="sweep only the first N coefficients")
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
    except (StructuralError, ContractError, BudgetError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
