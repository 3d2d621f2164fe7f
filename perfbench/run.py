"""orthoseries benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src``.
The run sets up the workload several times in fresh processes (``setup_s``),
then for ``--seconds`` alternates fresh-interpreter passes of the workload
at 1 and 2 threads (``--trace 0``) or untraced and traced 1-thread passes
(``--trace 1``), then checks the outputs for correctness.  Every timed step
is calibrated: its seconds are scaled by CHUNK_REF_S over the mean CPU time
of the host-speed samplers' chunks (``speed.py``) that ran on its CPUs while
it ran, which takes out the host's changing speed; the raw seconds are
printed too.  It prints one line per step, a summary, and as its last line
the JSON result: with ``--trace 0`` the end-to-end metrics, with
``--trace 1`` the per-layer split.  Outputs are kept in ``.perfbench-out/`` of the checkout.

This module uses the standard library only and never imports the program.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402  (metric tables only; the program is not imported)
import workloads  # noqa: E402

SETUP_REPEATS = 7     # set-ups per run; setup_s is their median
# reference CPU time of speed.py's cold and warm chunk, near their times on
# a fast host; a step's seconds are scaled by the reference over the mean
# chunk time on its CPUs while it ran
CHUNK_REF_S = {"cold": 0.001, "warm": 0.0003}
MIN_WINDOW_S = 0.5    # a shorter step is calibrated by the chunks around its middle
HARD_LIMIT_S = 170.0  # a run must end within 180 s; no step may run past this
MIB = float(1 << 20)

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "wall_2t_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER_UNITS = {**{k: unit for k, (unit, _) in tracing.TIMED.items()}, **tracing.COUNTED,
                   "trace.overhead_s": "s"}

LARGE_N_DIGEST_NOTE = (
    "direct_integral._extremal_eigenvalues calls scipy's eigsh without v0 or rng, so "
    "ARPACK starts from a vector drawn from fresh OS entropy on every call; for n > "
    "DENSE_EIG_LIMIT (512) riesz_lower/riesz_upper differ in the last bits between "
    "processes, and so does the report")


class Step:
    """One fresh-interpreter child process and what it left behind."""

    def __init__(self, root: str, out: str, mode: str, tag: str, job: dict,
                 blas_threads: int, cpus: list[int], deadline: float):
        self.cpus = cpus
        job = dict(job, result=os.path.join(out, f"{tag}.result.json"), cpus=cpus)
        job_path = os.path.join(out, f"{tag}.job.json")
        with open(job_path, "w") as fh:
            json.dump(job, fh)
        env = dict(os.environ,
                   PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0",
                   OPENBLAS_NUM_THREADS=str(blas_threads), OMP_NUM_THREADS=str(blas_threads),
                   MKL_NUM_THREADS=str(blas_threads))
        log_path = os.path.join(out, f"{tag}.log")
        timeout = max(1.0, deadline - time.monotonic())
        with open(log_path, "w") as log:
            self.spawned = time.monotonic()
            proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), mode,
                                     job_path], cwd=root, env=env, stdout=log, stderr=log)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted (SIGTERM, Ctrl-C): end the child first
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.exit_code = proc.returncode
        self.peak_rss_mib = usage.ru_maxrss * 1024 / MIB  # ru_maxrss is in KiB on Linux
        self.result, self.log_tail = None, ""
        if self.exit_code == 0 and os.path.exists(job["result"]):
            with open(job["result"]) as fh:
                self.result = json.load(fh)
        else:
            with open(log_path) as fh:
                self.log_tail = fh.read()[-2000:]


def cache_sizes() -> dict:
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            out[f"L{level}"] = size
    return out


def median(values):
    return statistics.median(values) if values else None


class Samplers:
    """One speed.py process per CPU for the whole run; ``stop`` ends them
    and keeps their samples as (start, end, cold s, warm s) per CPU."""

    def __init__(self, cpus: list[int]):
        self.chunks: dict[int, list[tuple[float, ...]]] = {}
        self.procs = {cpu: subprocess.Popen(
            [sys.executable, os.path.join(HERE, "speed.py"), str(cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True) for cpu in cpus}

    def wait_ready(self) -> None:
        for cpu, proc in self.procs.items():
            if proc.stdout.readline().strip() != "ready":
                raise RuntimeError(f"host-speed sampler on CPU {cpu} did not start")

    def stop(self) -> None:
        for cpu, proc in self.procs.items():
            try:
                out, _ = proc.communicate(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                out, _ = proc.communicate()
            self.chunks[cpu] = [tuple(map(float, line.split())) for line in out.splitlines()]
        self.procs = {}

    def calibrated(self, seconds: float, reading: str, cpus: list[int], begin: float,
                   end: float) -> float:
        """Seconds at the reference speed: ``seconds`` scaled by
        CHUNK_REF_S[reading] over the mean ``reading`` ("cold" or "warm")
        chunk time of the samples taken on ``cpus`` within [begin, end],
        widened about its middle to at least MIN_WINDOW_S."""
        pad = max(0.0, (MIN_WINDOW_S - (end - begin)) / 2)
        lo, hi = begin - pad, end + pad
        col = 2 if reading == "cold" else 3
        times = [row[col] for cpu in cpus for row in self.chunks[cpu]
                 if lo <= row[0] and row[1] <= hi]
        if not times:
            raise RuntimeError(f"no host-speed sample in [{lo:.3f}, {hi:.3f}] on CPUs {cpus}")
        return seconds * CHUNK_REF_S[reading] / statistics.fmean(times)


def run(args) -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "orthoseries", "cli.py")):
        sys.stderr.write("error: src/orthoseries not found; run from the root of an "
                         "orthoseries checkout\n")
        return 2
    out = os.path.join(root, ".perfbench-out",
                       f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(os.path.join(out, "work"))
    # 1-thread steps run on the first CPU, 2-thread passes on the first two;
    # a sampler on each measures how fast that CPU runs code
    cpus = sorted(os.sched_getaffinity(0))[:2]
    samplers = Samplers(cpus)
    try:
        samplers.wait_ready()
        return measure(args, root, out, cpus, samplers)
    finally:
        samplers.stop()


def measure(args, root: str, out: str, cpus: list[int], samplers: Samplers) -> int:
    wl, seed = args.workload, args.seed
    deadline = time.monotonic() + HARD_LIMIT_S
    work = os.path.join(out, "work")
    base = {"workload": wl, "seed": seed, "work": work}
    print(f"perfbench workload={wl} seed={seed} seconds={args.seconds} trace={args.trace}")

    # -- set-up: fresh process imports the program, writes the inputs and
    # generates the systems; timed from spawn to the end of that work
    setups = []
    for i in range(SETUP_REPEATS):
        step = Step(root, out, "setup", f"setup{i}", dict(base, environment=(i == 0)), 1,
                    cpus[:1], deadline)
        if step.result is None:
            sys.stderr.write(f"error: set-up failed (exit {step.exit_code})\n{step.log_tail}")
            return 1
        setups.append(step)
    env = dict(setups[0].result["environment"], seed=seed, nproc=os.cpu_count(),
               affinity=len(os.sched_getaffinity(0)), cpus=cpus, caches=cache_sizes(),
               variants=workloads.VARIANTS[wl])
    with open(os.path.join(out, "env.json"), "w") as fh:
        json.dump(env, fh, indent=2)
    blas = "; ".join(f"{v.get('config', '?')} threads={v.get('threads')}"
                     for v in env["openblas"].values())
    print(f"env python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"nproc={env['nproc']} affinity={env['affinity']} "
          f"L2={env['caches'].get('L2', '?')} L3={env['caches'].get('L3', '?')} "
          f"seed={seed} | set-up and checks: OPENBLAS_NUM_THREADS=1 | {blas}")
    print("variants " + ", ".join(f"{v}: --threads {t or '-'} OPENBLAS_NUM_THREADS={b}"
                                  for v, (t, b) in workloads.VARIANTS[wl].items()))

    # -- timed passes: closed loop, one caller, one fresh interpreter each
    variants = list(workloads.VARIANTS[wl]) if args.trace == 0 else ["1t", "traced"]
    passes: dict[str, list[Step]] = {v: [] for v in variants}
    attempted = failed = 0
    loop_start = time.monotonic()
    count = 0
    while True:
        # ABBA order: 1t 2t, 2t 1t, 1t 2t, ... so a drift in speed hits both alike
        rnd, pos = divmod(count, len(variants))
        variant = (variants if rnd % 2 == 0 else variants[::-1])[pos]
        count += 1
        plain = "1t" if variant == "traced" else variant
        verify_threads, blas_threads = workloads.VARIANTS[wl][plain]
        argvs = workloads.commands(wl, seed, work, plain)
        report = argvs[0][-1] if argvs[0][0] == "verify" else None
        tag = f"pass{rnd}-{variant}"
        job = dict(base, argvs=argvs, trace=(variant == "traced"), report=report,
                   spans=os.path.join(out, "spans.json"))
        step = Step(root, out, "pass", tag, job, blas_threads,
                    cpus[:max(verify_threads or 1, blas_threads)], deadline)
        res = step.result
        attempted += len(argvs)
        if res is None:
            failed += len(argvs)
            print(f"pass {tag} FAILED exit={step.exit_code}\n{step.log_tail}")
        else:
            bad = sum(code != 0 for code in res["codes"])
            if report is not None and not res.get("report_ok", False):
                bad = max(bad, 1)
            failed += bad
            for err in res["errors"]:
                print(err)
            passes[variant].append(step)
            print(f"pass {tag} raw_s={res['wall_s']:.4f} peak_rss_mib={step.peak_rss_mib:.1f} "
                  f"exit={res['codes']} blas_threads={res['blas_threads']} cpus={step.cpus}"
                  + (f" threads={verify_threads} digest={res.get('digest')}" if report else ""))
        # stop before a pass that would end past --seconds (after one pass of
        # each variant), or that would leave the checks too little of the hard limit
        elapsed = time.monotonic() - loop_start
        if (time.monotonic() + elapsed / count > deadline - 15
                or (count >= len(variants) and elapsed + elapsed / count > args.seconds)):
            break

    # -- correctness, after the timed region, untraced
    # the files the checks read were written by the last pass; generate is
    # compared at that pass's OpenBLAS thread count
    check = Step(root, out, "check", "check", base, blas_threads, cpus[:blas_threads],
                 deadline)
    checks = check.result["checks"] if check.result else [
        {"check": f"check process exit {check.exit_code}", "ok": False}]
    for c in checks:
        if c.get("gated", True):
            attempted += 1
            failed += not c["ok"]
            print(f"check {'ok  ' if c['ok'] else 'FAIL'} {c['check']}")
        else:
            print(f"note {str(c['ok']).lower()} (not gated) {c['check']}")

    if wl in ("verify-default", "large-n"):
        digests = [s.result.get("digest") for v in variants for s in passes[v]]
        match = len(digests) > 0 and None not in digests and len(set(digests)) == 1
        if wl == "verify-default":
            # criterion 9: the report is identical across runs and thread counts
            attempted += 1
            failed += not match
            print(f"digest_match {str(match).lower()} (gated) over {len(digests)} passes")
        else:
            print(f"digest_match {str(match).lower()} (not gated) over {len(digests)} passes: "
                  f"{len(set(digests))} distinct; cause: {LARGE_N_DIGEST_NOTE}")

    ratio = failed / attempted if attempted else 1.0
    print(f"failed_ratio {ratio:.4f} ({failed} failed / {attempted} attempted operations)")
    if not all(passes.values()):
        sys.stderr.write("error: no pass of some variant completed\n")
        return 1

    # -- calibration: every timed step against the chunks that ran beside it
    samplers.stop()
    setup_raw = [s.result["done"] - s.spawned for s in setups]
    readings = workloads.CALIBRATION[wl]
    setup_walls = [samplers.calibrated(w, readings["1t"], s.cpus, s.spawned, s.result["done"])
                   for w, s in zip(setup_raw, setups)]
    print(f"setup_s {median(setup_walls):.4f} s calibrated (median of {len(setups)}: "
          + " ".join(f"{w:.4f}" for w in setup_walls) + f"); raw {median(setup_raw):.4f} s")
    walls = {v: [samplers.calibrated(s.result["wall_s"], readings.get(v, readings["1t"]), s.cpus,
                                     *s.result["span"])
                 for s in passes[v]] for v in variants}
    for v in variants:
        print(f"calibrated {v}: " + " ".join(f"{w:.4f}" for w in walls[v]))

    metrics = (end_to_end(setup_walls, walls, passes) if args.trace == 0
               else per_layer(walls, passes["traced"]))
    units = END_TO_END_UNITS if args.trace == 0 else PER_LAYER_UNITS
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    with open(os.path.join(out, "result.json"), "w") as fh:
        json.dump(result, fh, indent=2)
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def end_to_end(setup_walls, walls, passes) -> dict[str, float]:
    """A workload without a 2-thread variant (conditions-cli) reports its
    1-thread passes as wall_2t_s: 1 thread is all it can use."""
    two = "2t" if "2t" in walls else "1t"
    metrics = {
        "setup_s": median(setup_walls),
        "wall_s": median(walls["1t"]),
        "wall_2t_s": median(walls[two]),
        "peak_rss_mib": median([s.peak_rss_mib for s in passes["1t"]]),
    }
    raw = {v: median([s.result["wall_s"] for s in passes[v]]) for v in walls}
    print(f"wall_s {metrics['wall_s']:.4f} s calibrated (median of {len(walls['1t'])} passes); "
          f"raw {raw['1t']:.4f} s")
    print(f"wall_2t_s {metrics['wall_2t_s']:.4f} s calibrated (median of {len(walls[two])} "
          f"{two} passes); raw {raw[two]:.4f} s")
    print(f"peak_rss_mib {metrics['peak_rss_mib']:.1f} MiB (median of {len(passes['1t'])} "
          "1-thread passes)")
    return metrics


def per_layer(walls, traced) -> dict[str, float]:
    """Medians over the traced passes; the printed split is that of the last
    traced pass, whose spans are written out."""
    layers = [s.result["layers"] for s in traced]
    metrics = {k: median([m[k] for m in layers]) for k in PER_LAYER_UNITS if k in layers[0]}
    metrics["trace.overhead_s"] = median(walls["traced"]) - median(walls["1t"])
    print(f"traced pass {median(walls['traced']):.4f} s, untraced {median(walls['1t']):.4f} s "
          "calibrated, "
          f"tracing overhead {metrics['trace.overhead_s']:+.4f} s "
          f"(medians of {len(walls['traced'])} and {len(walls['1t'])})")
    last = layers[-1]
    for layer in tracing.LAYERS:
        print(f"layer {layer:16s} self {last[f'layer.{layer}_s']:.4f} s "
              f"in {last[f'layer.{layer}_calls']:.0f} calls")
    total = sum(last[f"layer.{layer}_s"] for layer in tracing.LAYERS) + last["bench.glue_s"]
    print(f"layer {'bench glue':16s} self {last['bench.glue_s']:.4f} s; layers + glue "
          f"{total:.4f} s of traced pass {traced[-1].result['wall_s']:.4f} s (raw)")
    for name, unit in PER_LAYER_UNITS.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    # SIGTERM unwinds like Ctrl-C, so every child and sampler is ended and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
