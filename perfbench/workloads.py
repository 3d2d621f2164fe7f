"""The benchmark's workloads: their inputs, their passes and why each exists.

Standard library only: both the orchestrator (which never imports the
program) and the child processes (which do) import this module.

Every workload is a closed loop with one caller: each step starts after the
previous one returns.  A *pass* is the list of ``orthoseries`` command lines
one fresh interpreter runs through ``cli.main``; a *variant* of a pass fixes
its compute budget of 1 or 2 threads.  The pass process always pins OpenBLAS
to ``blas`` threads, so ``--threads`` plus BLAS never exceeds the 2 CPUs.
"""

from __future__ import annotations

import copy
import json
import os
import random

WORKLOADS = ("verify-default", "large-n", "conditions-cli")

# variant name -> (verify --threads, OpenBLAS threads).  "1t" is the plain
# single-threaded baseline every workload has; "2t" gives a verify pass the
# whole 2-CPU budget through the verify thread pool.  conditions-cli has no
# "2t": its commands take no --threads option, and giving OpenBLAS the
# second CPU only made it slower (1.1-2x, from busy-waiting BLAS threads on
# a shared host), so its 1-thread pass is all it can use.
VARIANTS = {
    "verify-default": {"1t": (1, 1), "2t": (2, 1)},
    "large-n": {"1t": (1, 1), "2t": (2, 1)},
    "conditions-cli": {"1t": (None, 1)},
}

# Which speed.py reading calibrates each variant's times (set-ups and traced
# passes take the "1t" one).  1-thread passes of the interpreter-bound
# workloads slow down with the CPU's speed as the warm chunk does (per-pass
# scatter 0.028-0.044 against 0.065-0.067 with the cold one).  Work held up
# by memory and by hand-offs between CPUs follows the cold chunk: large-n's
# BLAS kernels (within-run scatter 0.022 cold, 0.048 warm) and verify's
# 2-thread passes, whose threads pass the GIL between CPUs (0.029 cold,
# 0.057 warm).
CALIBRATION = {
    "verify-default": {"1t": "warm", "2t": "cold"},
    "large-n": {"1t": "cold", "2t": "cold"},
    "conditions-cli": {"1t": "warm"},
}

# A frozen copy of the repository's default.json, so that an edit to that
# file cannot change what this workload measures.  Only "seed" is replaced.
DEFAULT_CONFIG = {
    "schema_version": 1,
    "seed": 1,
    "n_trials": 100,
    "checks": [
        "mr-inequality", "dyadic-pointwise", "mr-theorem", "block-norm-sum",
        "block-sq-sum", "tandori-block", "orlicz-chain", "exhaustive-perm",
        "riesz-ratio",
    ],
    "systems": [
        {"kind": "standard-basis", "n": 64},
        {"kind": "haar", "n": 64},
        {"kind": "rademacher", "n": 8},
        {"kind": "random-qr", "n": 64, "resolution": 32, "fiber_dim": 2, "seed": 101},
        {"kind": "random-qr", "n": 64, "resolution": 64, "fiber_dim": 1, "seed": 102,
         "field": "complex"},
        {"kind": "tensor-vector", "n": 64, "fiber_dim": 4},
        {"kind": "varying-dim", "n": 64},
    ],
    "coefficients": None,
    "weights": {"form": "log-power", "gamma": 1.5, "shift": 0.0},
    "truncation": 65536,
    "exhaustive_n": 6,
    "shuffle_plans": 2,
    "riesz_condition": 4.0,
}

# conditions-cli: the condition family and truncation every check-* call uses.
POWERLOG = "1,1,2"
LOGPOWER = "1.5"
TRUNC = 524288
GEN_N = 256


def verify_config(workload: str, seed: int) -> dict | None:
    """The verify config a workload runs, or None for conditions-cli."""
    if workload == "verify-default":
        # The north-star command `verify --config default.json`: 7 systems
        # with n <= 64, 100 trials, all 9 checks (5741 cases).  Thousands of
        # small numpy calls make per-call overhead in majorants and verify
        # dominate (5040 permuted_majorant calls in exhaustive-perm); greedy,
        # Lanczos and long condition sums barely run.
        cfg = copy.deepcopy(DEFAULT_CONFIG)
        cfg["seed"] = seed
        return cfg
    if workload == "large-n":
        # The same O(n^2) checks at about 16x the size with 3 trials, so the
        # vector-fiber oscillation kernel, Gram + Lanczos, mixing QR and the
        # greedy adversary dominate.  The only workload on the Lanczos path
        # (n > 512) and the stand-in for the blocked-oscillation criterion.
        return {
            "schema_version": 1,
            "seed": seed,
            "n_trials": 3,
            "checks": ["mr-inequality", "mr-theorem", "block-norm-sum",
                       "block-sq-sum", "tandori-block", "riesz-ratio"],
            "systems": [
                {"kind": "haar", "n": 1024},
                {"kind": "random-qr", "n": 640, "resolution": 320, "fiber_dim": 2,
                 "seed": 1000 + seed},
                {"kind": "varying-dim", "n": 600},
            ],
            "coefficients": None,
            "weights": {"form": "log-power", "gamma": 1.5, "shift": 0.0},
            "truncation": 65536,
            "exhaustive_n": 6,
            "shuffle_plans": 2,
            "riesz_condition": 4.0,
        }
    if workload == "conditions-cli":
        return None
    raise ValueError(f"unknown workload {workload!r}")


def generated_systems(workload: str, seed: int) -> list[dict]:
    """System entries (config-file form) that set-up generates."""
    cfg = verify_config(workload, seed)
    if cfg is not None:
        return cfg["systems"]
    return [
        {"kind": "random-qr", "n": GEN_N, "seed": seed, "field": "complex"},
        {"kind": "varying-dim", "n": GEN_N},
    ]


def _coefficient_lines(seed: int, tag: str, n: int) -> str:
    rng = random.Random(f"{seed}-{tag}")
    return "".join(f"{rng.gauss(0.0, 1.0) / k!r}\n" for k in range(1, n + 1))


def write_inputs(workload: str, seed: int, work: str) -> None:
    """Write every input file a pass reads into ``work``."""
    os.makedirs(work, exist_ok=True)
    cfg = verify_config(workload, seed)
    if cfg is not None:
        with open(os.path.join(work, "config.json"), "w") as fh:
            json.dump(cfg, fh, indent=2)
        return
    for tag in ("rq", "vd"):
        with open(os.path.join(work, f"coeffs-{tag}.csv"), "w") as fh:
            fh.write(_coefficient_lines(seed, tag, GEN_N))


def commands(workload: str, seed: int, work: str, variant: str) -> list[list[str]]:
    """The command lines of one pass, in order."""
    def path(name: str) -> str:
        return os.path.join(work, name)

    threads, _ = VARIANTS[workload][variant]
    if workload in ("verify-default", "large-n"):
        return [["verify", "--config", path("config.json"), "--seed", str(seed),
                 "--threads", str(threads), "--out", path(f"report-{variant}.json")]]
    # conditions-cli: long condition sums (summation.compensated_cumsum) and
    # the CLI's JSON listing of every partial sum dominate; majorants and
    # verify barely run.  serialization runs both as writes (gen-ons) and as
    # reads (majorant), so a gain for one that costs the other shows.
    rq = generated_systems(workload, seed)[0]
    return [
        ["check-mr", "--powerlog", POWERLOG, "--trunc", str(TRUNC), "--out", path("mr.json")],
        ["check-tandori", "--powerlog", POWERLOG, "--trunc", str(TRUNC),
         "--out", path("tandori.json")],
        ["check-orlicz", "--powerlog", POWERLOG, "--logpower", LOGPOWER,
         "--trunc", str(TRUNC), "--out", path("orlicz.json")],
        ["gen-ons", "--kind", "random-qr", "--n", str(GEN_N), "--seed", str(rq["seed"]),
         "--field", "complex", "--out", path("rq.json")],
        ["gen-ons", "--kind", "varying-dim", "--n", str(GEN_N), "--format", "csv",
         "--out", path("vd.csv")],
        ["majorant", "--system", path("rq.json"), "--coeffs-file", path("coeffs-rq.csv"),
         "--out", path("majorant-rq.json")],
        ["majorant", "--system", path("vd.csv"), "--coeffs-file", path("coeffs-vd.csv"),
         "--out", path("majorant-vd.json")],
    ]
