"""Injected defects that a verify run must catch.

Each mutant is one textual replacement in a copy of ``src/``.  The copy runs
``verify --config default.json --seed 1 --threads 1`` in a fresh process,
and the mutant is killed only if that run exits 1 *and* writes a report in
which each named check failed: an uncaught exception also exits 1, and a
refused input exits 2, so the exit code alone does not show a kill.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

# (id, module, text, replacement, checks that must fail)
KILLED = [
    ("fiber-norm-real-part-only", "majorants.py",
     "flat.real ** 2 + flat.imag ** 2 if", "flat.real ** 2 if",
     {"mr-theorem", "tandori-block"}),
    ("weyl-log-of-n", "coefficients.py",
     "np.abs(coeffs) ** 2 * np.log2(n + 1.0) ** 2", "np.abs(coeffs) ** 2 * np.log2(n) ** 2",
     {"block-norm-sum", "block-sq-sum"}),
    ("block-norm-sum-bound-halved", "majorants.py",
     "block_norm_sum_bound=2.0 * math.sqrt(weyl_mass)",
     "block_norm_sum_bound=1.0 * math.sqrt(weyl_mass)",
     {"block-norm-sum"}),
    ("scalar-one-sided-not-doubled", "majorants.py",
     "doubled = 2.0 * np.maximum(top, np.abs(bottom))",
     "doubled = 1.0 * np.maximum(top, np.abs(bottom))",
     {"tandori-block"}),
    ("vector-diameters-halved", "majorants.py",
     "values = _pointwise_diameters(prefixes, offsets)",
     "values = 0.5 * _pointwise_diameters(prefixes, offsets)",
     {"tandori-block"}),
    ("riesz-rhs-without-log-and-scale", "verify.py",
     "rhs = math.sqrt(upper) * (2.0 + math.log2(n)) * _coeff_norm(b)",
     "rhs = 2.0 * _coeff_norm(b)",
     {"riesz-ratio"}),
]


def run_verify(tmp_path, mutation=None):
    """The exit code and the report's results of verify on a copy of ``src/``,
    with ``mutation`` (module, text, replacement) applied to the copy."""
    src = tmp_path / "src"
    shutil.copytree(REPO_ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    if mutation is not None:
        module, text, replacement = mutation
        path = src / "orthoseries" / module
        code = path.read_text()
        assert code.count(text) == 1, f"{module}: the mutated text must occur exactly once"
        path.write_text(code.replace(text, replacement))
    out = tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "orthoseries", "verify", "--config",
         str(REPO_ROOT / "default.json"), "--seed", "1", "--threads", "1", "--out", str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.stderr == ""
    return proc.returncode, json.loads(out.read_text())["results"]


def test_unmutated_copy_passes(tmp_path):
    # the harness itself: the copy, unchanged, passes every check
    code, results = run_verify(tmp_path)
    assert code == 0
    assert all(result["passed"] for result in results.values())


@pytest.mark.parametrize("module,text,replacement,fails",
                         [m[1:] for m in KILLED], ids=[m[0] for m in KILLED])
def test_mutant_is_killed(tmp_path, module, text, replacement, fails):
    code, results = run_verify(tmp_path, (module, text, replacement))
    assert code == 1
    assert {name for name in fails if not results[name]["passed"]} == fails
