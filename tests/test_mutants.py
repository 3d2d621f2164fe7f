"""Injected defects that a verify run must catch.

Each mutant is one textual replacement in a copy of ``src/``.  The copy runs
``verify --config default.json --seed 1 --threads 1`` in a fresh process,
and the mutant is killed only if that run exits 1 *and* writes a report in
which each named check failed: an uncaught exception also exits 1, and a
refused input exits 2, so the exit code alone does not show a kill.
SURVIVORS lists the known mutants that no check catches, each with its reason.
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
     "values[:, first:stop] = _pointwise_diameters(prefixes, part)",
     "values[:, first:stop] = 0.5 * _pointwise_diameters(prefixes, part)",
     {"tandori-block"}),
    ("riesz-rhs-without-log-and-scale", "verify.py",
     "rhs = math.sqrt(upper) * (2.0 + math.log2(n)) * _coeff_norm(b)",
     "rhs = 2.0 * _coeff_norm(b)",
     {"riesz-ratio"}),
    # G0 not Hermitian: riesz-ratio fails each trial on the system, which
    # verify made itself, rather than refusing the run as malformed input
    ("gram-without-conj", "direct_integral.py",
     "G = (V * w) @ V.conj().T", "G = (V * w) @ V.T",
     {"riesz-ratio"}),
]

# Mutants that every check survives on default.json seed 1 (each exits 0),
# with the reason; the worst ratio under the mutant is in brackets.  They are
# not run: test_survivor_texts_still_occur only keeps each text current.
# (id, module, text, replacement, reason)
SURVIVORS = [
    ("sparse-gram-without-conj", "direct_integral.py",
     "vals.conj()[right]", "vals[right]",
     "no stock system is both complex and sparse: the complex random-qr system "
     "takes the dense path; tests/test_direct_integral.py's complex sparse "
     "systems (Haar rows times unit phases) fail it"),
    ("mr-inequality-without-log", "verify.py",
     "(2.0 + math.log2(len(system))) * _coeff_norm(b)", "2.0 * _coeff_norm(b)",
     "no stock system comes near the log (mr-inequality 0.621); a Menshov "
     "log-growth witness system would fail it"),
    ("chaining-constant-halved", "majorants.py",
     "majorant_bound=4.0 *", "majorant_bound=2.0 *",
     "the chaining constant 4 has slack on every stock system (mr-theorem 0.509)"),
    ("block-sq-sum-constant-quartered", "majorants.py",
     "inner_sq_bound=4.0 * weyl_mass", "inner_sq_bound=1.0 * weyl_mass",
     "the block square-sum constant 4 has slack on every stock system "
     "(block-sq-sum 0.776)"),
    ("tandori-constant-eighth", "majorants.py",
     "bound=8.0 * math.sqrt(block_mass(a, lo, hi))",
     "bound=1.0 * math.sqrt(block_mass(a, lo, hi))",
     "the Tandori constant 8 has slack on every stock system (tandori-block 0.681)"),
    ("sweep-argmax-ties-late", "majorants.py",
     "upd = peak > sup_sq[j]", "upd = peak >= sup_sq[j]",
     "equivalent here: it moves the argmax on ties only, and no check reads it"),
    ("tandori-block-start-shifted", "coefficients.py",
     "lo = lo_threshold + 1", "lo = lo_threshold + 2",
     "lhs and rhs shift together (tandori-block 0.063, orlicz-chain 0.724)"),
    ("prefix-rows-skip-last-add", "majorants.py",
     "for i in range(1, s + 1):", "for i in range(1, s):",
     "the kernel under-reports, which lowers ratios (mr-inequality 0.242, "
     "exhaustive-perm 0.265); an independent oracle inside verify would fail it"),
    ("gershgorin-radius-halved", "direct_integral.py",
     "r *= 1.0 + len(diag) * 2.0 ** -53", "r *= 0.5",
     "G0 of a stock system is near the identity, so riesz-ratio's bounds move "
     "little (riesz-ratio 0.189) and stay far above its 1e-6 lower-bound test; "
     "tests/test_direct_integral.py holds the bounds against the exact extreme "
     "eigenvalue of Gram matrices whose discs are tight, which fails it"),
    ("scalar-diameter-one-sided", "majorants.py",
     "values = top - bottom", "values = np.maximum(top, -bottom)",
     "the one-sided sup under-reports the real-line diameter by at most 2x, and "
     "equals half of doubled_one_sided, so the bracket holds and no ratio moves "
     "(tandori-block 0.085); a gauge twist of each scalar fiber into R^2, which "
     "takes the vector path, would fail it"),
    ("condensation-always-agrees", "verify.py",
     "agree = len({r.classification for r in chain}) == 1", "agree = True",
     "vacuous by construction: condensation_chain gives its three series one "
     "classification, so agree is always true"),
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


@pytest.mark.parametrize("module,text,replacement,reason",
                         [m[1:] for m in SURVIVORS], ids=[m[0] for m in SURVIVORS])
def test_survivor_texts_still_occur(module, text, replacement, reason):
    # a survivor whose text no longer matches once would name a mutant that
    # can no longer be made; no process is run
    code = (REPO_ROOT / "src" / "orthoseries" / module).read_text()
    assert code.count(text) == 1
    assert replacement != text and reason
