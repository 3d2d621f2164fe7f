"""The benchmark's fresh-interpreter side: set-up, one pass, or the checks.

    python3 perfbench/child.py {setup|pass|check} JOB.json

The orchestrator starts one process per step with ``PYTHONPATH`` pointing
at the checkout's ``src`` and OpenBLAS pinned by environment variable.  The
job file names the workload, the seed, the work directory and where to
write the result.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import importlib
import json
import math
import os
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402

ORACLE_TOL = 1e-13   # streaming vs materializing majorant, relative to max(1, |oracle|)
SUM_TOL = 1e-12      # condition totals vs math.fsum recomputation, relative
ORACLE_SAMPLES = 3   # systems per verify workload cross-checked against the oracle


def _import_program() -> None:
    """Import orthoseries from the checkout this job belongs to, never from
    anywhere else on the path."""
    import orthoseries
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(orthoseries.__file__).startswith(src + os.sep):
        raise ImportError(f"orthoseries imported from {orthoseries.__file__}, not {src}")


def _openblas(packages):
    """(label, symbol lookup) for each OpenBLAS copy bundled with the packages."""
    for name in packages:
        pkg = importlib.import_module(name)
        libs = os.path.join(os.path.dirname(pkg.__file__), os.pardir, f"{name}.libs")
        for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so"))):
            lib = ctypes.CDLL(path)
            suffix = "64_" if hasattr(lib, "scipy_openblas_get_num_threads64_") else ""

            def symbol(stem, lib=lib, suffix=suffix):
                return getattr(lib, f"scipy_openblas_{stem}{suffix}")

            yield f"{name}:{os.path.basename(path)}", symbol


def blas_info(packages=("numpy", "scipy")) -> dict:
    """OpenBLAS version string and live thread count of each bundled copy."""
    out = {}
    for label, symbol in _openblas(packages):
        get_threads, get_config = symbol("get_num_threads"), symbol("get_config")
        get_threads.restype = ctypes.c_int
        get_config.restype = ctypes.c_char_p
        out[label] = {"threads": get_threads(), "config": get_config().decode()}
    return out


def set_blas_threads(n: int) -> None:
    for _, symbol in _openblas(("numpy",)):
        symbol("set_num_threads")(ctypes.c_int(n))


def environment() -> dict:
    import numpy
    import scipy
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_info(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _spec(entry: dict):
    from orthoseries import Field, SystemKind, SystemSpec
    return SystemSpec(kind=SystemKind(entry["kind"]), n_functions=int(entry["n"]),
                      resolution=entry.get("resolution"),
                      fiber_dim=int(entry.get("fiber_dim", 1)),
                      seed=int(entry.get("seed", 0)),
                      field=Field(entry.get("field", "real")))


# -- set-up -----------------------------------------------------------------

def run_setup(job: dict) -> dict:
    """Import the program, write the workload's inputs, generate its systems.

    ``done`` (time.monotonic, which the orchestrator shares) ends the timed
    set-up; the environment record comes after it."""
    from orthoseries import generate
    workloads.write_inputs(job["workload"], job["seed"], job["work"])
    for entry in workloads.generated_systems(job["workload"], job["seed"]):
        generate(_spec(entry))
    out = {"done": time.monotonic()}
    if job.get("environment"):
        out["environment"] = environment()
    return out


# -- one pass ---------------------------------------------------------------

def report_digest(path: str) -> tuple[str, dict]:
    """sha256 of the verify report with its timing field stripped."""
    with open(path) as fh:
        payload = json.load(fh)
    payload.pop("wall_time_s", None)
    text = json.dumps(payload, sort_keys=True, indent=2)
    return hashlib.sha256(text.encode()).hexdigest(), payload


def run_pass(job: dict) -> dict:
    from orthoseries import cli
    tracer = None
    if job["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    argvs = job["argvs"]
    codes: list = []
    errors: list[str] = []

    def run_all():
        for argv in argvs:
            try:
                codes.append(cli.main(argv))
            except Exception:  # recorded as a failed operation
                codes.append(None)
                errors.append(traceback.format_exc(limit=3))

    began = time.monotonic()
    if tracer is None:
        run_all()
    else:
        with tracer.span("bench.pass"):
            run_all()
    ended = time.monotonic()

    out = {"wall_s": ended - began, "span": [began, ended], "codes": codes, "errors": errors,
           "blas_threads": [v.get("threads") for v in blas_info(("numpy",)).values()]}
    report_path = job.get("report")
    if report_path and codes == [0]:
        digest, payload = report_digest(report_path)
        expected = set(workloads.verify_config(job["workload"], job["seed"])["checks"])
        out["digest"] = digest
        out["report_ok"] = (payload.get("all_passed") is True
                            and payload.get("seed") == job["seed"]
                            and set(payload.get("results", {})) == expected)
    if tracer is not None:
        from tracing import layer_metrics
        metrics = layer_metrics(tracer)
        metrics["cli.bytes_out"] = float(sum(
            os.path.getsize(argv[argv.index("--out") + 1]) for argv in argvs if "--out" in argv))
        out["layers"] = metrics
        tracer.write(job["spans"])
    return out


# -- correctness checks -----------------------------------------------------

def _close(got: float, want: float, tol: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= tol * max(1.0, abs(want))


def _profile_matches(values, l2_norm: float, oracle) -> bool:
    """A majorant profile (values, L2 norm) against the materializing oracle."""
    import numpy as np
    values = np.asarray(values)
    scale = max(1.0, float(np.max(np.abs(oracle.values), initial=0.0)))
    return (values.shape == oracle.values.shape
            and float(np.max(np.abs(values - oracle.values), initial=0.0)) <= ORACLE_TOL * scale
            and _close(l2_norm, oracle.l2_norm, ORACLE_TOL))


def _draw(rng, n: int, complex_field: bool):
    import numpy as np
    x = rng.standard_normal(n)
    if complex_field:
        x = x + 1j * rng.standard_normal(n)
    return x / np.arange(1, n + 1)


def check_oracle(job: dict) -> list[dict]:
    """Streaming majorant vs verify.oracle_majorant on a seeded sample of the
    workload's systems."""
    import numpy as np
    from orthoseries import generate, majorant, oracle_majorant
    entries = workloads.verify_config(job["workload"], job["seed"])["systems"]
    rng = np.random.default_rng([job["seed"], 8])
    picks = rng.choice(len(entries), size=min(ORACLE_SAMPLES, len(entries)), replace=False)
    out = []
    for i in sorted(int(p) for p in picks):
        spec = _spec(entries[i])
        system = generate(spec)[2]
        b = _draw(rng, len(system), system.values.dtype.kind == "c")
        profile = majorant(system, b)
        ok = _profile_matches(profile.values, profile.l2_norm, oracle_majorant(system, b))
        out.append({"check": f"oracle {spec.describe()}", "ok": ok})
    return out


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _tandori_total(a) -> float:
    """sum_k sqrt(A_k) over the double-exponential blocks, recomputed here."""
    import numpy as np
    total, nu = [], 2
    while nu + 1 <= len(a):
        lo, hi = nu + 1, min(nu * nu, len(a))
        n = np.arange(lo, hi + 1, dtype=float)
        total.append(math.sqrt(math.fsum(np.abs(a[lo - 1:hi]) ** 2 * np.log2(n) ** 2)))
        nu = nu * nu
    return math.fsum(total)


def check_conditions(job: dict) -> list[dict]:
    """Recompute the condition totals, read the stored systems back, and
    cross-check the majorant profiles."""
    import numpy as np
    from orthoseries import (SequenceSpec, WeightSpec, generate, oracle_majorant,
                             serialization)
    work, T = job["work"], workloads.TRUNC
    c, alpha, beta = (float(v) for v in workloads.POWERLOG.split(","))
    a = SequenceSpec.power_log(c, alpha, beta).coefficients(T)
    w = WeightSpec.log_power(float(workloads.LOGPOWER)).values(T)
    n1 = np.arange(1, T + 1, dtype=float)
    n2 = n1[1:]
    out = []

    def add(name, ok):
        out.append({"check": name, "ok": bool(ok)})

    mr = _read_json(os.path.join(work, "mr.json"))
    add("check-mr total vs fsum",
        len(mr["partial_sums"]) == T and mr["partial_sums"][-1] == mr["total"]
        and _close(mr["total"], math.fsum(np.abs(a) ** 2 * np.log2(n1 + 1.0) ** 2), SUM_TOL))
    tandori = _read_json(os.path.join(work, "tandori.json"))
    add("check-tandori total vs fsum", _close(tandori["total"], _tandori_total(a), SUM_TOL))
    orlicz = _read_json(os.path.join(work, "orlicz.json"))
    coeff_total = math.fsum(np.abs(a[1:]) ** 2 * np.log2(n2) ** 2 * w[1:])
    weight_total = math.fsum(1.0 / (n2 * np.log2(n2) * w[1:]))
    add("check-orlicz totals vs fsum",
        orlicz["all_hold"] is True
        and _close(orlicz["coefficient_condition"]["total"], coeff_total, SUM_TOL)
        and _close(orlicz["weight_condition"]["total"], weight_total, SUM_TOL))

    rq, vd = workloads.generated_systems("conditions-cli", job["seed"])
    for tag, entry, fname, reader in (("rq", rq, "rq.json", serialization.system_from_json),
                                      ("vd", vd, "vd.csv", serialization.system_from_csv)):
        # generate runs at the OpenBLAS thread count of the pass that wrote
        # the file; see blas_dependence
        ref = generate(_spec(entry))[2]
        with open(os.path.join(work, fname)) as fh:
            back = reader(fh.read())
        add(f"{fname} reads back bit-identical",
            back.values.dtype == ref.values.dtype
            and back.values.tobytes() == ref.values.tobytes()
            and back.space.weights.tobytes() == ref.space.weights.tobytes()
            and back.fibers.dims.tobytes() == ref.fibers.dims.tobytes())
        with open(os.path.join(work, f"coeffs-{tag}.csv")) as fh:
            coeffs = np.asarray([float(line) for line in fh if line.strip()])
        stored = _read_json(os.path.join(work, f"majorant-{tag}.json"))
        add(f"majorant {fname} vs oracle",
            _profile_matches(stored["values"], stored["l2_norm"], oracle_majorant(ref, coeffs)))
    return out


def blas_dependence(job: dict) -> list[dict]:
    """Not gated: whether generate gives the same bits at 1 and at 2 OpenBLAS
    threads.  LAPACK's QR may block its work differently by thread count."""
    from orthoseries import generate
    out = []
    for entry in workloads.generated_systems(job["workload"], job["seed"]):
        bits = []
        for n in (1, 2):
            set_blas_threads(n)
            bits.append(generate(_spec(entry))[2].values.tobytes())
        out.append({"check": f"generate {entry['kind']} n={entry['n']} bit-identical at "
                             f"OpenBLAS 1 and 2 threads", "ok": bits[0] == bits[1],
                    "gated": False})
    set_blas_threads(int(os.environ["OPENBLAS_NUM_THREADS"]))
    return out


def run_check(job: dict) -> dict:
    if job["workload"] == "conditions-cli":
        return {"checks": check_conditions(job) + blas_dependence(job)}
    return {"checks": check_oracle(job)}


def main() -> int:
    mode, job_path = sys.argv[1], sys.argv[2]
    with open(job_path) as fh:
        job = json.load(fh)
    os.sched_setaffinity(0, job["cpus"])
    _import_program()
    result = {"setup": run_setup, "pass": run_pass, "check": run_check}[mode](job)
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
