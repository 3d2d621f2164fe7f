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

Exit codes: 0 success, 1 a verification check failed, 2 usage error or
malformed input.  All randomness derives from --seed (default 0); wall
clocks are never consulted for seeding.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import serialization
from .coefficients import (SequenceSpec, WeightSpec, orlicz_conditions,
                           orlicz_reduction, tandori_sum, weyl_sum)
from .direct_integral import Field
from .errors import ContractError, StructuralError
from .majorants import dyadic_decomposition, majorant
from .serialization import SCHEMA_VERSION
from .systems import SystemKind, SystemSpec, generate
from .verify import Check, TrialConfig, default_config, run_suite


def _write(text: str, path: str | None) -> None:
    if path in (None, "-"):
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _read_json(path: str):
    try:
        return json.loads(_read(path))
    except json.JSONDecodeError as exc:
        raise StructuralError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}") from exc


def _read_column(path: str) -> list[float]:
    """The first comma-separated column of a text file as floats, blank
    lines skipped."""
    values = []
    for lineno, line in enumerate(_read(path).splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            values.append(float(line.split(",")[0]))
        except ValueError as exc:
            raise StructuralError(
                f"{path}: malformed value at line {lineno}, column 1") from exc
    return values


def _parse_floats(text: str, expected: int | None = None) -> list[float]:
    parts = [p.strip() for p in text.split(",") if p.strip() != ""]
    values = [float(p) for p in parts]
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
        "partial_sums": [float(v) for v in report.partial_sums],
    }


def _spec_from_dict(entry: dict, default_seed: int) -> SystemSpec:
    """A system spec from its JSON form {kind, n, resolution, fiber_dim, seed, field}."""
    for key in ("kind", "n"):
        if key not in entry:
            raise StructuralError(f"system entry {json.dumps(entry)} is missing '{key}'")
    return SystemSpec(
        kind=SystemKind(entry["kind"]),
        n_functions=int(entry["n"]),
        resolution=entry.get("resolution"),
        fiber_dim=int(entry.get("fiber_dim", 1)),
        seed=int(entry.get("seed", default_seed)),
        field=Field(entry.get("field", "real")),
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
    _write(json.dumps({"schema_version": SCHEMA_VERSION, **_condition_dict(rep)},
                      sort_keys=True), args.out)
    return 0


def _cmd_check_orlicz(args) -> int:
    a = _sequence_from_args(args)
    w = _weights_from_args(args)
    coeff_rep, weight_rep = orlicz_conditions(a, w, args.trunc)
    red = orlicz_reduction(a, w, args.trunc)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "all_hold": red.all_hold,
        "coefficient_condition": _condition_dict(coeff_rep),
        "weight_condition": _condition_dict(weight_rep),
        "reduction": {
            "lhs": red.lhs, "mid": red.mid, "rhs": red.rhs,
            "c_partial": red.c_partial,
            "cauchy_holds": red.cauchy_holds,
            "monotonicity_holds": red.monotonicity_holds,
            "classification": red.classification.value,
        },
    }
    _write(json.dumps(payload, sort_keys=True), args.out)
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
    _write(serialization.profile_to_json(profile), args.out)
    return 0


def _cmd_decompose(args) -> int:
    dec = dyadic_decomposition(args.j, args.r)
    _write(" ".join(f"({lo},{hi}]" for lo, hi in dec.blocks), args.out)
    return 0


def _sequence_from_config(entry) -> SequenceSpec | None:
    if entry is None:
        return None
    if entry["form"] == "power-log":
        return SequenceSpec.power_log(entry["scale"], entry["alpha"], entry["beta"])
    if entry["form"] == "explicit":
        return SequenceSpec.from_values(entry["values"])
    raise ContractError(f"unknown coefficient form {entry['form']!r}")


def _weights_from_config(entry) -> WeightSpec | None:
    if entry is None:
        return None
    if entry["form"] == "log-power":
        return WeightSpec.log_power(entry["gamma"], entry.get("shift", 0.0))
    if entry["form"] == "explicit":
        return WeightSpec.from_values(entry["values"])
    raise ContractError(f"unknown weight form {entry['form']!r}")


def _config_from_file(path: str, overrides: dict) -> TrialConfig:
    """The file's config with the command-line overrides in place of its
    values, validated once, so a file value that is overridden is never checked."""
    payload = _read_json(path)
    if "systems" not in payload:
        raise StructuralError(f"{path}: config has no 'systems' list")
    checks = frozenset(Check(c) for c in payload.get("checks", [c.value for c in Check]))
    tolerances = {Check(k): float(v) for k, v in payload.get("tolerances", {}).items()}
    return TrialConfig(**{
        "system_specs": tuple(_spec_from_dict(entry, 0) for entry in payload["systems"]),
        "checks": checks,
        "n_trials": int(payload.get("n_trials", 100)),
        "seed": int(payload.get("seed", 0)),
        "coeff_spec": _sequence_from_config(payload.get("coefficients")),
        "weight_spec": _weights_from_config(payload.get("weights")),
        "tolerances": tolerances,
        "truncation": int(payload.get("truncation", 65536)),
        "exhaustive_n": int(payload.get("exhaustive_n", 6)),
        "shuffle_plans": int(payload.get("shuffle_plans", 2)),
        "riesz_condition": float(payload.get("riesz_condition", 4.0)),
        **overrides,
    })


def _cmd_verify(args) -> int:
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
            sys.stderr.write(f"{check.value}: {'pass' if res.passed else 'FAIL'} "
                             f"(worst ratio {res.worst_ratio:.6g})\n")
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
    v.add_argument("--threads", type=int, default=os.cpu_count())
    v.add_argument("--out", default=None)
    v.add_argument("--verbose", action="store_true")
    v.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (StructuralError, ContractError, FileNotFoundError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
