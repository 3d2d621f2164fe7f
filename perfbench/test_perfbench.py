"""Self-test of the benchmark: every workload once, at the shortest run.

    python3 -m pytest perfbench/test_perfbench.py

Each workload runs once untraced and once traced with ``--seconds 1`` (one
pass of each variant); about a minute on 2 CPUs.
"""

import functools
import json
import math
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def _bench(cwd: str, workload: str, trace: int, seed: int = 1):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@functools.lru_cache(maxsize=None)
def run(workload: str, trace: int) -> tuple[tuple[str, ...], dict]:
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    lines = tuple(proc.stdout.strip().splitlines())
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_present_with_its_unit(workload, trace):
    lines, result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["end_to_end" if trace == 0 else "per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        if trace == 0:
            assert metric["value"] > 0, name
    assert any(line.startswith("failed_ratio 0.0000") for line in lines)


def test_verify_default_digest_stable():
    digests = [part.split("=", 1)[1]
               for trace in (0, 1) for line in run("verify-default", trace)[0]
               if line.startswith("pass ") for part in line.split() if part.startswith("digest=")]
    assert len(digests) == 4  # 1- and 2-thread passes, untraced and traced 1-thread passes
    assert len(set(digests)) == 1


def test_lanczos_path_only_on_large_n():
    for workload in workloads.WORKLOADS:
        lanczos = run(workload, 1)[1]["metrics"]["direct_integral.eig_lanczos"]["value"]
        assert (lanczos > 0) == (workload == "large-n"), workload


def test_frozen_default_config_matches_the_repository():
    with open(os.path.join(ROOT, "default.json")) as fh:
        repo = json.load(fh)
    assert workloads.verify_config("verify-default", repo["seed"]) == repo


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench(str(tmp_path), "verify-default", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_samplers_calibrate_and_stop():
    cpu = sorted(os.sched_getaffinity(0))[0]
    samplers = bench.Samplers([cpu])
    procs = list(samplers.procs.values())
    try:
        samplers.wait_ready()
        begin = time.monotonic()
        time.sleep(0.6)
        end = time.monotonic()
    finally:
        samplers.stop()
    assert all(proc.poll() is not None for proc in procs)
    assert len(samplers.chunks[cpu]) >= 10
    for reading in ("cold", "warm"):
        assert 0 < samplers.calibrated(1.0, reading, [cpu], begin, end) < math.inf
