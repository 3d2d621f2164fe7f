import json
import math
import os
import re
import resource
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from orthoseries import (ContractError, SystemKind, SystemSpec, cli, generate, serialization,
                         validate_ons)
from orthoseries.cli import _config_from_file, build_parser, main
from orthoseries.coefficients import SequenceSpec, WeightSpec, weyl_sum
from orthoseries.serialization import system_from_json
from orthoseries.verify import MAX_RIESZ_CONDITION, Check, default_config

from conftest import run_check

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_cli(args, capsys=None):
    try:
        code = main(args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    return code


def test_decompose_example(capsys):
    assert main(["decompose", "5", "3"]) == 0
    assert capsys.readouterr().out.strip() == "(0,4] (4,5]"


def test_decompose_full_block(capsys):
    assert main(["decompose", "8", "3"]) == 0
    assert capsys.readouterr().out.strip() == "(0,8]"


def test_gen_ons_then_majorant_roundtrip(tmp_path, capsys):
    sys_path = tmp_path / "sys.json"
    assert main(["gen-ons", "--kind", "haar", "--n", "4",
                 "--out", str(sys_path)]) == 0
    system = system_from_json(sys_path.read_text())
    assert validate_ons(system, 1e-10)[0]

    out_path = tmp_path / "profile.json"
    assert main(["majorant", "--system", str(sys_path),
                 "--coeffs", "1,0.5,0.25,0.125", "--out", str(out_path)]) == 0
    payload = json.loads(out_path.read_text())
    from orthoseries import majorant
    want = majorant(system, np.array([1.0, 0.5, 0.25, 0.125]))
    assert payload["l2_norm"] == want.l2_norm
    assert payload["values"] == [float(v) for v in want.values]


def test_majorant_n_sweeps_the_first_n_coefficients(tmp_path):
    sys_path, out = tmp_path / "sys.json", tmp_path / "p.json"
    assert main(["gen-ons", "--kind", "haar", "--n", "4", "--out", str(sys_path)]) == 0
    assert main(["majorant", "--system", str(sys_path), "--coeffs", "1,0.5,0.25,0.125",
                 "--n", "2", "--out", str(out)]) == 0
    from orthoseries import majorant
    want = majorant(system_from_json(sys_path.read_text()), np.array([1.0, 0.5]))
    assert json.loads(out.read_text())["l2_norm"] == want.l2_norm


@pytest.mark.parametrize("n", ["0", "-1", "5"], ids=["zero", "negative", "past-the-coefficients"])
def test_majorant_n_out_of_range_exit_2(tmp_path, capsys, n):
    # --n picks a prefix of the four coefficients given, 1 to 4 of them
    sys_path, out = tmp_path / "sys.json", tmp_path / "p.json"
    assert main(["gen-ons", "--kind", "haar", "--n", "8", "--out", str(sys_path)]) == 0
    capsys.readouterr()
    assert main(["majorant", "--system", str(sys_path), "--coeffs", "1,1,1,1", "--n", n,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --n ") and err.count("\n") == 1
    assert not out.exists()


def test_gen_ons_csv_format(tmp_path):
    sys_path = tmp_path / "sys.csv"
    assert main(["gen-ons", "--kind", "rademacher", "--n", "2", "--format", "csv",
                 "--out", str(sys_path)]) == 0
    system = generate(SystemSpec(SystemKind.RADEMACHER, 2))[2]
    assert sys_path.read_text() == serialization.system_to_csv(system)
    assert main(["majorant", "--system", str(sys_path), "--coeffs", "1,1",
                 "--out", str(tmp_path / "p.json")]) == 0
    payload = json.loads((tmp_path / "p.json").read_text())
    assert payload["values"] == [2.0, 1.0, 1.0, 2.0]


def test_gen_ons_spec_file(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(
        {"kind": "random-qr", "n": 4, "resolution": 4, "fiber_dim": 2, "seed": 42}))
    assert main(["gen-ons", "--spec", str(spec_path)]) == 0
    system = system_from_json(capsys.readouterr().out)
    assert len(system) == 4
    assert validate_ons(system, 1e-10)[0]


def test_check_mr(capsys):
    assert main(["check-mr", "--powerlog", "1,1,0", "--trunc", "64"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["classification"] == "converges"
    assert payload["condition"] == "mr-weyl"
    assert len(payload["partial_sums"]) == 64


@pytest.mark.parametrize("args", [
    ["check-mr", "--powerlog", "1,1,0", "--trunc", "64"],
    ["gen-ons", "--kind", "varying-dim", "--n", "16", "--format", "csv"],
    ["gen-ons", "--kind", "random-qr", "--n", "8", "--resolution", "8", "--field", "complex",
     "--format", "csv"],
], ids=["check-mr", "gen-ons-csv", "gen-ons-csv-complex"])
def test_output_written_in_pieces_is_byte_identical(tmp_path, capsys, args):
    # the pieces written to a file and to stdout, which alone adds a final
    # newline where the text has none
    assert main(args + ["--out", str(tmp_path / "out")]) == 0
    assert main(args) == 0
    whole = (tmp_path / "out").read_text()
    assert capsys.readouterr().out == whole + ("" if whole.endswith("\n") else "\n")


def _one_shot(payload):
    """``dumps(payload, sort_keys=True)`` with every array as a Python list:
    the text ``iterdumps`` must give piece by piece."""
    def lists(value):
        if isinstance(value, dict):
            return {k: lists(v) for k, v in value.items()}
        return value.tolist() if isinstance(value, np.ndarray) else value
    return serialization.dumps(lists(payload), sort_keys=True)


@pytest.mark.parametrize("length", [0, 1, 6, 7, 8, 15])
@pytest.mark.parametrize("non_finite", [False, True], ids=["finite", "non-finite"])
def test_listing_in_pieces_equals_one_shot_dumps(tmp_path, capsys, monkeypatch, length,
                                                 non_finite):
    monkeypatch.setattr(serialization, "LIST_SLICE", 7)
    sums = np.cumsum(np.arange(1.0, length + 1) / 3)
    # on both sides of the first chunk edge and at the end
    edges = sorted({6, 7, length - 1} & set(range(length))) if non_finite else []
    sums[edges] = [NAN, INF, -INF][:len(edges)]
    payload = {"weight_condition": {"partial_sums": sums, "total": 0.25},
               "all_hold": True, "reduction": {"lhs": 1.5, "rhs": [1, None], "x": {}},
               "coefficient_condition": {"partial_sums": sums[:0]}, "schema_version": 1}
    expected = _one_shot(payload)
    pieces = list(serialization.iterdumps(payload))
    assert "".join(pieces) == expected
    # no piece lists more than LIST_SLICE floats
    assert max(p.count(",") for p in pieces) <= 7
    parsed = _strict_json(expected)
    assert parsed["coefficient_condition"]["partial_sums"] == []
    assert '"partial_sums": []' in expected
    assert expected.count("null") == 1 + len(edges)
    cli._write(serialization.iterdumps(payload), str(tmp_path / "pieces.json"))
    assert (tmp_path / "pieces.json").read_text() == expected
    cli._write(serialization.iterdumps(payload), None)
    assert capsys.readouterr().out == expected + "\n"


@pytest.mark.parametrize("trunc", [1, 6, 7, 8])
def test_check_mr_listing_in_pieces_is_byte_identical(tmp_path, capsys, monkeypatch, trunc):
    monkeypatch.setattr(serialization, "LIST_SLICE", 7)
    rep = weyl_sum(SequenceSpec.power_log(1, 1, 0), trunc)
    expected = serialization.dumps({
        "schema_version": 1, "condition": "mr-weyl", "classification": "converges",
        "truncation": trunc, "total": rep.total, "partial_sums": rep.partial_sums.tolist()},
        sort_keys=True)
    args = ["check-mr", "--powerlog", "1,1,0", "--trunc", str(trunc)]
    assert main(args + ["--out", str(tmp_path / "mr.json")]) == 0
    assert (tmp_path / "mr.json").read_text() == expected
    assert main(args) == 0
    assert capsys.readouterr().out == expected + "\n"


@pytest.mark.parametrize("argv", [
    ["check-mr", "--powerlog", "1,1,0"],
    ["check-orlicz", "--powerlog", "1,1,2", "--logpower", "1.5"],
    ["check-mr", "--explicit", "COEFFS"],
], ids=["check-mr", "check-orlicz", "check-mr-explicit-straddling"])
def test_listing_at_list_slice_is_byte_identical(tmp_path, monkeypatch, argv):
    # three pieces at the shipped LIST_SLICE, against the payload listed whole
    # by the stdlib (repr) path; the explicit coefficients 1e-4 .. 1e8 give
    # partial sums from 1e-8 past 1e16, whose tokens repr writes itself
    trunc = 2 * serialization.LIST_SLICE + 3
    straddling = "COEFFS" in argv
    if straddling:
        coeffs = 1e-4 * 10.0 ** (12 * np.arange(trunc) / (trunc - 1))
        (tmp_path / "COEFFS").write_text("\n".join(map(repr, coeffs.tolist())))
        argv = argv[:-1] + [str(tmp_path / "COEFFS")]
    payloads, iterdumps = [], serialization.iterdumps
    monkeypatch.setattr(serialization, "iterdumps",
                        lambda payload: payloads.append(payload) or iterdumps(payload))
    out = tmp_path / "out.json"
    assert main(argv + ["--trunc", str(trunc), "--out", str(out)]) == 0
    text = out.read_text()
    assert text == _one_shot(payloads[0])
    if straddling:
        sums = payloads[0]["partial_sums"]
        assert sums[0] < 1e-4 and sums[-1] > 1e16
        assert "e-" in text and "e+" in text


def test_check_orlicz_memory_per_term(tmp_path):
    # the partial sums are listed in pieces, never as one Python list or one
    # string: 55 bytes per term at peak, against 162 when listed whole
    trunc = 262144
    tracemalloc.start()
    try:
        assert main(["check-orlicz", "--powerlog", "1,1,2", "--logpower", "1.5",
                     "--trunc", str(trunc), "--out", str(tmp_path / "o.json")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / trunc < 100


@pytest.mark.parametrize("argv", [
    ["check-mr", "--trunc", "8"],
    ["check-mr", "--powerlog", "1,1", "--trunc", "8"],
    ["check-mr", "--powerlog", "1,nan,0", "--trunc", "8"],
    ["check-mr", "--powerlog", "1,1,0", "--trunc", "0"],
    ["check-tandori", "--powerlog", "1,1,0", "--trunc", "16777217"],
    ["check-tandori", "--powerlog", "1e300,-300,0", "--trunc", "8"],
    ["check-orlicz", "--powerlog", "1,1,2", "--trunc", "8"],
    ["check-orlicz", "--powerlog", "1,1,2", "--logpower", "1,2,3", "--trunc", "8"],
    ["check-orlicz", "--powerlog", "1,1,2", "--logpower", "1.5", "--trunc", "2"],
    ["check-orlicz", "--powerlog", "1,1,2", "--explicit-weights", "WEIGHTS", "--trunc", "8"],
    ["check-orlicz", "--powerlog", "1,1,2", "--explicit-weights", "DECREASING",
     "--trunc", "4"],
], ids=["no-sequence", "powerlog-arity", "powerlog-nan", "trunc-0", "trunc-over-cap",
        "coefficient-overflow", "no-weights", "logpower-arity", "orlicz-trunc-2",
        "weights-too-short", "weights-decreasing"])
def test_condition_exit_2_leaves_no_file(tmp_path, capsys, argv):
    # every refusal happens before the output file is opened (the overflowing
    # partial sums are test_overflowing_sums_keep_exit_contract's cases)
    weights = {"WEIGHTS": "1\n2\n3\n", "DECREASING": "1\n2\n1.5\n3\n"}
    for name, text in weights.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in weights else a for a in argv]
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_check_tandori_explicit_file(tmp_path, capsys):
    coeffs = tmp_path / "a.csv"
    coeffs.write_text("0\n0\n1\n1\n")
    assert main(["check-tandori", "--explicit", str(coeffs), "--trunc", "16"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["classification"] == "unknown-from-truncation"
    assert payload["total"] == pytest.approx(2.551882859516138, rel=1e-14)


def test_check_orlicz_spec_example(capsys):
    code = main(["check-orlicz", "--powerlog", "1,1,2", "--logpower", "1.5",
                 "--trunc", "65536"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["all_hold"] is True
    assert payload["reduction"]["classification"] == "converges"
    assert payload["weight_condition"]["classification"] == "converges"


def test_one_draw_per_orlicz_run(monkeypatch, capsys):
    # check-orlicz and the orlicz-chain check each draw a_n and w_n once
    calls = []
    for cls, name in ((SequenceSpec, "coefficients"), (WeightSpec, "values")):
        def counted(self, truncation, real=getattr(cls, name), name=name):
            calls.append(name)
            return real(self, truncation)
        monkeypatch.setattr(cls, name, counted)
    assert main(["check-orlicz", "--powerlog", "1,1,2", "--logpower", "1.5",
                 "--trunc", "4096"]) == 0
    assert sorted(calls) == ["coefficients", "values"]
    calls.clear()
    cfg = replace(default_config(1), checks={Check.ORLICZ_CHAIN}, truncation=4096,
                  coeff_spec=SequenceSpec.power_log(1.0, 1.0, 2.0))
    assert run_check(cfg, Check.ORLICZ_CHAIN).passed
    assert sorted(calls) == ["coefficients", "values"]


def test_default_json_is_the_default_config():
    assert _config_from_file(str(REPO_ROOT / "default.json"), {}) == default_config(1)


def test_verify_small_config(tmp_path):
    cfg = {
        "seed": 5,
        "n_trials": 5,
        "checks": ["mr-inequality", "dyadic-pointwise"],
        "systems": [{"kind": "haar", "n": 8}],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "report.json"
    assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["all_passed"] is True
    assert payload["seed"] == 5


def test_verify_failure_exit_code(tmp_path):
    # finite coefficients +-1e308 overflow the majorant: a failed check, not a refusal
    cfg = {
        "seed": 5,
        "n_trials": 3,
        "checks": ["mr-inequality"],
        "systems": [{"kind": "haar", "n": 8}],
        "coefficients": {"form": "explicit", "values": [(-1) ** i * 1e308 for i in range(8)]},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["verify", "--config", str(cfg_path),
                 "--out", str(tmp_path / "r.json")]) == 1


@pytest.mark.parametrize("system", [{"kind": "haar", "n": 16},
                                    {"kind": "tensor-vector", "n": 16, "fiber_dim": 2}])
@pytest.mark.parametrize("threads", ["1", "2"])
def test_verify_overflowing_terms_fail_with_a_report(tmp_path, capsys, system, threads):
    # finite coefficients +-1e308 overflow a_n phi_n to +-inf, and inf - inf
    # is NaN in the prefix sums: a failed tandori-block case with a null
    # ratio and the bracket named, not a traceback
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "systems": [system], "n_trials": 1, "checks": ["tandori-block"],
        "coefficients": {"form": "explicit", "values": [(-1) ** i * 1e308 for i in range(16)]}}))
    out = tmp_path / "report.json"
    assert main(["verify", "--config", str(cfg_path), "--threads", threads,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    result = json.loads(out.read_text())["results"]["tandori-block"]
    assert result["passed"] is False and result["worst_ratio"] is None
    assert "bracket" in result["worst_case"]


def test_verify_check_filter(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--config", str(REPO_ROOT / "default.json"),
                 "--check", "dyadic-pointwise", "--trials", "5",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert list(payload["results"]) == ["dyadic-pointwise"]


def test_usage_error_exit_2():
    assert run_cli(["decompose", "not-a-number", "3"]) == 2
    assert run_cli(["no-such-command"]) == 2


def test_malformed_input_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["majorant", "--system", str(bad), "--coeffs", "1"]) == 2
    err = capsys.readouterr().err
    assert "line" in err


def test_missing_file_exit_2(tmp_path):
    assert main(["majorant", "--system", str(tmp_path / "nope.json"),
                 "--coeffs", "1"]) == 2


@pytest.mark.parametrize("argv", [
    lambda d: ["verify", "--config", str(d)],
    lambda d: ["majorant", "--system", str(d), "--coeffs", "1"],
    lambda d: ["decompose", "5", "3", "--out", str(d)],
], ids=["verify-config", "majorant-system", "decompose-out"])
def test_directory_path_exit_2(tmp_path, capsys, argv):
    # an OSError other than a missing file (a directory given as a file)
    # exits 2 with one error: line, not a traceback
    assert main(argv(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    lambda t: _config(t, {"checks": []}),
    lambda t: ["verify", "--check", " , "],
], ids=["config", "flag"])
def test_verify_no_checks_exit_2(tmp_path, capsys, argv):
    # a suite of no checks would pass vacuously; it is refused
    out = tmp_path / "r.json"
    assert main(argv(tmp_path) + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: at least one check is required\n"
    assert not out.exists()


def test_out_of_range_decompose_exit_2():
    assert main(["decompose", "9", "3"]) == 2


def test_decompose_r_over_limit_refused_before_allocating():
    # its (r+1) bits alone would take gigabytes; in a child process under a
    # 2 GB address-space limit, so that building them fails there, not here
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2_000_000 << 10, 2_000_000 << 10))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "orthoseries", "decompose", "1", "400000000"],
                          env=env, preexec_fn=limit, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"error: r must be in [0, {1 << 24}]\n"
    assert proc.stdout == ""


def test_truncation_over_cap_exit_2(capsys):
    assert main(["check-orlicz", "--powerlog", "1,1,2", "--logpower", "1.5",
                 "--trunc", "16777217"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    lambda t, trunc: ["check-orlicz", "--powerlog", "1,1,2", "--logpower", "1.5",
                      "--trunc", str(trunc)],
    lambda t, trunc: _config(t, {"checks": ["orlicz-chain"], "truncation": trunc}),
], ids=["check-orlicz", "verify-orlicz-chain"])
@pytest.mark.parametrize("trunc", [1, 2])
def test_orlicz_truncation_floor_is_three(tmp_path, capsys, argv, trunc):
    # one floor for the Orlicz pair and the reduction chain
    out = tmp_path / "out.json"
    assert main(argv(tmp_path, trunc) + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: truncation must be >= 3\n"
    assert not out.exists()


def test_verify_zero_trials_exit_2(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["verify", "--check", "dyadic-pointwise", "--trials", "0",
                 "--out", str(out)]) == 2
    assert "n_trials" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cfg,missing", [
    ({"n_trials": 2}, "systems"),
    ({"systems": [{"n": 8}]}, "kind"),
    ({"systems": [{"kind": "haar"}]}, "n"),
])
def test_verify_config_missing_key_exit_2(tmp_path, capsys, cfg, missing):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"'{missing}'" in err


def test_gen_ons_spec_missing_kind_exit_2(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"n": 4}))
    assert main(["gen-ons", "--spec", str(spec_path)]) == 2
    assert "'kind'" in capsys.readouterr().err


@pytest.mark.parametrize("text,line", [
    ("1.0\n0.5\nabc\n0.25\n", 3),
    ("1.0\n\n   \n0.5\nabc\n0.25\n", 5),
    ("\n1.0\n\n0.5,7\n\t\ninf,1\n", 6),
])
def test_malformed_coeffs_file_names_line(tmp_path, capsys, text, line):
    sys_path, out = tmp_path / "sys.json", tmp_path / "p.json"
    assert main(["gen-ons", "--kind", "haar", "--n", "4", "--out", str(sys_path)]) == 0
    assert main(["majorant", "--system", str(sys_path), "--coeffs-file", _file(tmp_path, text),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"line {line}, column 1" in err
    assert not out.exists()


def test_coeffs_file_first_column_past_blank_lines(tmp_path):
    sys_path, out = tmp_path / "sys.json", tmp_path / "p.json"
    assert main(["gen-ons", "--kind", "haar", "--n", "4", "--out", str(sys_path)]) == 0
    argv = ["majorant", "--system", str(sys_path), "--out", str(out)]
    assert main(argv + ["--coeffs-file", _file(tmp_path, "\n 1.0 ,9\n\n-0.5\n  \n0.25,x\n")]) == 0
    by_file = out.read_text()
    assert main(argv + ["--coeffs", "1.0,-0.5,0.25"]) == 0
    assert out.read_text() == by_file


def test_verify_overrides_replace_invalid_file_values(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"systems": [{"kind": "haar", "n": 8}],
                                    "checks": ["dyadic-pointwise"],
                                    "n_trials": 0, "seed": -1}))
    out = tmp_path / "r.json"
    assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert main(["verify", "--config", str(cfg_path), "--trials", "2", "--seed", "1",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["seed"] == 1
    assert report["results"]["dyadic-pointwise"]["n_cases"] == 2


HAAR8 = {"systems": [{"kind": "haar", "n": 8}], "checks": ["dyadic-pointwise"],
         "n_trials": 1}


@pytest.mark.parametrize("extra,key", [
    ({"coefficients": {"scale": 1}}, "form"),
    ({"coefficients": {"form": "power-log", "scale": 1, "alpha": 1}}, "beta"),
    ({"coefficients": {"form": "explicit"}}, "values"),
    ({"weights": {"gamma": 1.5}}, "form"),
    ({"weights": {"form": "log-power"}}, "gamma"),
    ({"weights": {"form": "explicit"}}, "values"),
    ({"coefficients": {"form": "power-log", "scale": 1, "alpha": None, "beta": 2}},
     "alpha"),
    ({"coefficients": {"form": "explicit", "values": [1.0, None]}}, "values"),
    ({"weights": {"form": "log-power", "gamma": None}}, "gamma"),
    ({"weights": {"form": "log-power", "gamma": 1.5, "shift": [0]}}, "shift"),
    ({"systems": [{"kind": "haar", "n": None}]}, "n"),
    ({"systems": [{"kind": "haar", "n": 8, "seed": [1]}]}, "seed"),
    ({"systems": {"kind": "haar", "n": 8}}, "systems"),
    ({"n_trials": None}, "n_trials"),
    ({"truncation": [65536]}, "truncation"),
    ({"riesz_condition": None}, "riesz_condition"),
    ({"riesz_condition": -4}, "riesz_condition"),
    ({"riesz_condition": 0}, "riesz_condition"),
    ({"shuffle_plans": -1}, "shuffle_plans"),
    ({"checks": None}, "checks"),
    # integer fields take JSON integers, numeric fields finite JSON numbers
    ({"systems": [{"kind": "haar", "n": 16.9}]}, "n"),
    ({"systems": [{"kind": "haar", "n": True}]}, "n"),
    ({"systems": [{"kind": "haar", "n": 8, "resolution": 8.0}]}, "resolution"),
    ({"systems": [{"kind": "random-qr", "n": 4, "fiber_dim": "2"}]}, "fiber_dim"),
    ({"n_trials": "2"}, "n_trials"),
    ({"n_trials": 2.5}, "n_trials"),
    ({"seed": 1.9}, "seed"),
    ({"truncation": 64.0}, "truncation"),
    ({"exhaustive_n": True}, "exhaustive_n"),
    ({"shuffle_plans": 1.5}, "shuffle_plans"),
    ({"riesz_condition": True}, "riesz_condition"),
    ({"coefficients": {"form": "explicit", "values": [1.0, True]}}, "values"),
    # a spec field its kind does not read
    ({"systems": [{"kind": "standard-basis", "n": 8, "fiber_dim": 3, "resolution": 99}]},
     "fiber_dim"),
    ({"systems": [{"kind": "varying-dim", "n": 8, "resolution": 8}]}, "resolution"),
])
def test_verify_config_malformed_value_exit_2(tmp_path, capsys, extra, key):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**HAAR8, **extra}))
    assert main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"'{key}'" in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("extra,key", [
    # the per-check slack option is gone: a config asking for any slack is
    # refused, as it would otherwise get the fixed one without a word
    ({"tolerances": {"mr-inequality": 1e-15}}, "tolerances"),
    ({"tolerances": None}, "tolerances"),
    ({"tolerance": 1e-9}, "tolerance"),
    ({"n_trial": 2}, "n_trial"),
    ({"bogus_key": 1}, "bogus_key"),
    ({"line\nbreak": 1}, "line\\nbreak"),
    ({"systems": [{"kind": "haar", "n": 8, "fiberdim": 2}]}, "fiberdim"),
    ({"coefficients": {"form": "power-log", "scale": 1, "alpha": 1, "beta": 2, "shift": 0}},
     "shift"),
    ({"coefficients": {"form": "explicit", "values": [1.0], "scale": 1}}, "scale"),
    ({"weights": {"form": "log-power", "gamma": 1.5, "values": [1.0]}}, "values"),
    ({"weights": {"form": "explicit", "values": [1.0, 2.0], "gamma": 1.5}}, "gamma"),
])
def test_verify_config_unknown_key_exit_2(tmp_path, capsys, extra, key):
    # a key that nothing reads is refused at every level, never ignored
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**HAAR8, **extra}))
    assert main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"unknown key '{key}'" in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("spec,key", [
    ({"kind": "haar", "n": None}, "n"),
    ({"kind": "haar", "n": 4.5}, "n"),
    ({"kind": "random-qr", "n": 4, "fiber_dim": True, "seed": "7"}, "fiber_dim"),
    ({"kind": "random-qr", "n": 4, "seed": "7"}, "seed"),
    ({"kind": "haar", "n": 4, "fiber_dim": 3}, "fiber_dim"),
    ({"kind": "random-qr", "n": 4, "fiberdim": 2}, "fiberdim"),
    ({"kind": "haar", "n": 4, "schema_version": 1}, "schema_version"),
])
def test_gen_ons_spec_malformed_value_exit_2(tmp_path, capsys, spec, key):
    spec_path, out = tmp_path / "spec.json", tmp_path / "sys.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["gen-ons", "--spec", str(spec_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"'{key}'" in err
    assert not out.exists()


def test_gen_ons_flag_the_kind_does_not_read_exit_2(tmp_path, capsys):
    out = tmp_path / "sys.json"
    assert main(["gen-ons", "--kind", "haar", "--n", "4", "--fiber-dim", "3",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: haar reads no 'fiber_dim' (got 3)\n"
    assert not out.exists()


@pytest.mark.parametrize("args,err", [
    (["--n", "4", "--resolution", "3"], "tensor-vector resolution 3 is not a power of two"),
    (["--n", "8", "--fiber-dim", "2", "--resolution", "2"],
     "tensor-vector needs a power-of-two resolution >= 4 for 8 functions of fiber dimension 2"),
])
def test_gen_ons_tensor_vector_resolution_names_tensor_vector_exit_2(tmp_path, capsys,
                                                                     args, err):
    out = tmp_path / "sys.json"
    assert main(["gen-ons", "--kind", "tensor-vector", *args, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {err}\n"
    assert not out.exists()


@pytest.mark.parametrize("kind", ["random-qr", "varying-dim"])
def test_gen_ons_negative_seed_flag_exit_2(tmp_path, capsys, kind):
    # random-qr gave numpy's message, naming no key; varying-dim exited 0
    out = tmp_path / "sys.json"
    assert main(["gen-ons", "--kind", kind, "--n", "4", "--seed", "-1",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {kind} seed must be >= 0 (got -1)\n"
    assert not out.exists()


@pytest.mark.parametrize("spec,seed_args", [
    ({"kind": "haar", "n": 4, "seed": -1}, []),
    ({"kind": "random-qr", "n": 4}, ["--seed", "-2"]),
], ids=["in-file", "flag-default"])
def test_gen_ons_spec_negative_seed_exit_2(tmp_path, capsys, spec, seed_args):
    spec_path, out = tmp_path / "spec.json", tmp_path / "sys.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["gen-ons", "--spec", str(spec_path), *seed_args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {spec['kind']} seed must be >= 0 (got -") and err.count("\n") == 1
    assert not out.exists()


def test_verify_config_system_negative_seed_exit_2(tmp_path, capsys):
    out = tmp_path / "r.json"
    systems = [{"kind": "haar", "n": 8}, {"kind": "standard-basis", "n": 4, "seed": -3}]
    assert main(_config(tmp_path, {"systems": systems}) + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: standard-basis seed must be >= 0 (got -3)\n"
    assert not out.exists()


RADEMACHER_HUGE = ("error: rademacher n=1000000000 needs 1000000000 x 2^1000000000 values, "
                   "over the limit of 16777216\n")


@pytest.mark.parametrize("argv", [
    lambda t: ["gen-ons", "--kind", "rademacher", "--n", "1000000000"],
    lambda t: ["gen-ons", "--spec", _file(t, '{"kind": "rademacher", "n": 1000000000}')],
    lambda t: _config(t, {"checks": ["mr-inequality"],
                          "systems": [{"kind": "rademacher", "n": 1000000000}]}),
], ids=["flag", "spec", "config"])
def test_rademacher_refused_before_2_to_the_n(tmp_path, capsys, argv):
    # 2^n was formed first (0.9 s and 125 MB here), and the size message
    # could not print it: "Exceeds the limit (4300 digits) ..."
    out = tmp_path / "out.json"
    assert main(argv(tmp_path) + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == RADEMACHER_HUGE
    assert not out.exists()


def test_rademacher_refusal_names_n_by_2_to_the_n():
    for n in (20, 25, 26):
        with pytest.raises(ContractError, match=rf"rademacher n={n} needs {n} x 2\^{n} values"):
            generate(SystemSpec(SystemKind.RADEMACHER, n))


def test_rademacher_n_1e11_refused_under_a_memory_limit():
    # 2^n alone would take 12.5 GB: a MemoryError traceback, exit 1, in a
    # child process under a 2 GB address-space limit
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2_000_000 << 10, 2_000_000 << 10))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "orthoseries", "gen-ons", "--kind", "rademacher",
                           "--n", "100000000000"],
                          env=env, preexec_fn=limit, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: rademacher n=100000000000 needs 100000000000 x 2^")
    assert proc.stderr.count("\n") == 1 and proc.stdout == ""


def test_riesz_condition_cap(tmp_path, capsys):
    # 1e200 raised OverflowError inside riesz-ratio, from s_max ** 2
    out = tmp_path / "r.json"
    cap = MAX_RIESZ_CONDITION
    assert main(_config(tmp_path, {"checks": ["riesz-ratio"], "riesz_condition": cap})
                + ["--out", str(out)]) == 0
    assert json.loads(out.read_text())["results"]["riesz-ratio"]["passed"]
    out.unlink()
    for over in (math.nextafter(cap, math.inf), 1e200):
        assert main(_config(tmp_path, {"checks": ["riesz-ratio"], "riesz_condition": over})
                    + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: 'riesz_condition' must be in [1, 1e+100]")
        assert err.count("\n") == 1 and not out.exists()


def test_verify_fractional_weight_shift_runs_orlicz_chain(tmp_path):
    # its condensation chain took shift / n in floating point at n = 2^1024:
    # an OverflowError traceback, exit 1
    out = tmp_path / "r.json"
    assert main(_config(tmp_path, {"checks": ["orlicz-chain"], "weights": {
        "form": "log-power", "gamma": 1.5, "shift": 0.5}}) + ["--out", str(out)]) == 0
    result = json.loads(out.read_text())["results"]["orlicz-chain"]
    assert result["passed"] and 0 < result["worst_ratio"] < 1
    assert result["worst_case"]["weights"] == "log-power gamma=1.5 shift=0.5"


@pytest.mark.parametrize("argv,err", [
    (["gen-ons", "--n", "4"], "gen-ons needs --kind and --n (or --spec FILE)"),
    (["gen-ons", "--kind", "haar"], "gen-ons needs --kind and --n (or --spec FILE)"),
    (["majorant", "--system", None], "provide --coeffs LIST or --coeffs-file FILE"),
], ids=["gen-ons-no-kind", "gen-ons-no-n", "majorant-no-coefficients"])
def test_missing_required_inputs_exit_2(tmp_path, capsys, argv, err):
    out = tmp_path / "out.json"
    argv = [_system_file(tmp_path, "json", 1.0) if a is None else a for a in argv]
    capsys.readouterr()
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {err}\n"
    assert not out.exists()


def test_verify_config_integer_values_past_int64(tmp_path):
    # numpy holds such an integer list as objects; the config reads it as floats
    out = tmp_path / "r.json"
    assert main(_config(tmp_path, {"checks": ["mr-inequality"], "coefficients": {
        "form": "explicit", "values": [2 ** 64, 1]}}) + ["--out", str(out)]) == 0
    assert json.loads(out.read_text())["results"]["mr-inequality"]["passed"]


def test_verify_config_seed_past_2_to_64_runs(tmp_path):
    # configs are read by json.loads, which keeps 2**70 an integer (orjson,
    # which reads system files, would give a float that 'seed' refuses)
    out = tmp_path / "r.json"
    assert main(_config(tmp_path, {"checks": ["mr-inequality"], "seed": 2 ** 70})
                + ["--out", str(out)]) == 0
    assert json.loads(out.read_text())["results"]["mr-inequality"]["passed"]


def test_integer_riesz_condition_reported_as_float(tmp_path):
    out = tmp_path / "r.json"
    assert main(_config(tmp_path, {"checks": ["riesz-ratio"], "riesz_condition": 4})
                + ["--out", str(out)]) == 0
    assert '"mix_condition": 4.0' in out.read_text()


def test_verify_threads_default_and_range(tmp_path, capsys):
    assert build_parser().parse_args(["verify"]).threads == 1
    out = tmp_path / "r.json"
    for threads in ("0", "-2"):
        assert main(["verify", "--check", "dyadic-pointwise", "--trials", "1",
                     "--threads", threads, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--threads" in err
    assert not out.exists()


def test_verify_verbose_lines(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["verify", "--check", "mr-inequality,orlicz-chain", "--trials", "3",
                 "--threads", "2", "--verbose", "--out", str(out)]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2
    for line, check, workers in zip(lines, ("mr-inequality", "orlicz-chain"),
                                    ("2 workers", "2 workers")):
        assert re.fullmatch(rf"{check}: pass \(worst ratio \S+\) in \d+\.\d{{3}} s "
                            rf"on {workers}, (\d+|inf) cases/s", line), line
    assert "seconds" not in out.read_text()


def _system_file(tmp_path, fmt, bad_value):
    """A Haar n=4 system file whose first stored value is ``bad_value``."""
    path = tmp_path / f"sys.{fmt}"
    assert main(["gen-ons", "--kind", "haar", "--n", "4", "--format", fmt,
                 "--out", str(path)]) == 0
    if fmt == "json":
        payload = json.loads(path.read_text())
        payload["elements"][0][0][0] = bad_value
        path.write_text(json.dumps(payload))
    else:
        lines = path.read_text().splitlines()
        lines[1] = ",".join(lines[1].split(",")[:3] + [repr(bad_value)])
        path.write_text("\n".join(lines) + "\n")
    return str(path)


def _file(tmp_path, text):
    path = tmp_path / "values.csv"
    path.write_text(text)
    return str(path)


def _config(tmp_path, extra):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**HAAR8, **extra}))
    return ["verify", "--config", str(path)]


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("case", [
    lambda t: ["check-mr", "--powerlog", "1,nan,2", "--trunc", "8"],
    lambda t: ["check-orlicz", "--powerlog", "1,1,2", "--logpower", "inf", "--trunc", "8"],
    lambda t: ["check-mr", "--explicit", _file(t, "1.0\nnan\n"), "--trunc", "2"],
    lambda t: ["majorant", "--system", _system_file(t, "json", 1.0), "--coeffs", "1,nan,1,1"],
    lambda t: ["majorant", "--system", _system_file(t, "json", 1.0),
               "--coeffs-file", _file(t, "1\n-inf\n1\n1\n")],
    lambda t: ["majorant", "--system", _system_file(t, "json", NAN), "--coeffs", "1,1,1,1"],
    lambda t: ["majorant", "--system", _system_file(t, "csv", INF), "--coeffs", "1,1,1,1"],
    lambda t: _config(t, {"weights": {"form": "log-power", "gamma": NAN}}),
    lambda t: _config(t, {"coefficients": {"form": "explicit", "values": [1.0, INF]}}),
    lambda t: _config(t, {"riesz_condition": NAN}),
    lambda t: _config(t, {"systems": [{"kind": "haar", "n": INF}]}),
    # finite parameters whose values overflow float64
    lambda t: ["check-mr", "--powerlog", "1,-1000,0", "--trunc", "8"],
    lambda t: ["check-tandori", "--powerlog", "1,-1000,0", "--trunc", "8"],
    lambda t: ["check-orlicz", "--powerlog", "1,-1000,0", "--logpower", "1.5", "--trunc", "8"],
    lambda t: ["check-orlicz", "--powerlog", "1,1,2", "--logpower", "2000", "--trunc", "8"],
    lambda t: _config(t, {"checks": ["orlicz-chain"],
                          "weights": {"form": "log-power", "gamma": 2000}}),
    lambda t: _config(t, {"checks": ["mr-inequality"], "coefficients": {
        "form": "power-log", "scale": 1, "alpha": -1000, "beta": 0}}),
    lambda t: ["majorant", "--system", _system_file(t, "json", 1.0),
               "--coeffs", "1e308,1e308,1e308,1e308"],
], ids=["powerlog", "logpower", "explicit-file", "coeffs", "coeffs-file", "system-json",
        "system-csv", "config-gamma", "config-values", "config-riesz", "config-n",
        "mr-overflow", "tandori-overflow", "orlicz-coeff-overflow",
        "orlicz-weight-overflow", "config-weight-overflow", "config-coeff-overflow",
        "majorant-overflow"])
def test_non_finite_input_exit_2(tmp_path, capsys, case):
    argv = case(tmp_path)
    capsys.readouterr()
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_oversized_system_refused_before_allocating(capsys):
    # 40 Rademacher functions need a 40 x 2^40 array
    assert main(["gen-ons", "--kind", "rademacher", "--n", "40"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "limit" in captured.err


# the head of a system JSON file of this schema
V1 = '{"schema_version": 1, '


@pytest.mark.parametrize("name,text", [
    ("sys.json", V1 + '"field": "real", "weights": [1.0], "dims": [1], "elements": 5}'),
    ("sys.json", V1 + '"field": "real", "weights": [1.0], "dims": null, "elements": [[[1.0]]]}'),
    ("sys.json", "5"),
    ("sys.json", V1 + '"field": "complex", "weights": [1.0], "dims": [1], "elements": [[[1.0]]]}'),
    ("sys.json", V1 + '"field": "real", "weights": ["1.0"], "dims": [1], "elements": [[[0.5]]]}'),
    ("sys.json", V1 + '"field": "real", "weights": [true], "dims": [1], "elements": [[[0.5]]]}'),
    ("sys.json", V1 + '"field": "real", "weights": [1.0], "dims": [1.7], "elements": [[[0.5]]]}'),
    ("sys.json", V1 + '"field": "real", "weights": [1.0], "dims": ["1"], "elements": [[[0.5]]]}'),
    ("sys.json", V1 + '"field": "real", "weights": [1.0], "dims": [true], "elements": [[[0.5]]]}'),
    ("sys.json", V1 + '"field": "real", "weights": [1.0], "dims": [1e30], "elements": [[[0.5]]]}'),
    ("sys.json", V1 + '"field": "real", "weights": [1.0],'
                 ' "dims": [100000000000000000000000000000], "elements": [[[0.5]]]}'),
    ("sys.json", V1 + '"field": "real", "weights": [1.0], "dims": [1], "elements": [[["0.5"]]]}'),
    ("sys.json", V1 + '"field": "real", "weights": [1.0], "dims": [1], "elements": [[[false]]]}'),
    ("sys.json", V1 + '"field": "complex", "weights": [1.0], "dims": [1],'
                 ' "elements": [[[["0.5", 0.0]]]]}'),
    ("sys.json", V1 + '"field": "real", "weights": [1.0, 1.0], "dims": [1, 1],'
                 f' "elements": [[[{10 ** 400}], [0.0]], [[0.0], [1.0]]]}}'),
    ("sys.csv", "element,atom,weight,v0\n0,-1,1.0,1.0\n"),
    ("sys.csv", "element,atom,weight,v0\n0,0\n"),
    # one row and no other: sized by its index, the system would be 7 TiB
    ("sys.csv", "element,atom,weight,v0\n1000000000000,0,1.0,1.0\n"),
    ("sys.csv", "element,atom,weight,v0\n0,0,1.0,1.0\n0,1000000000000,1.0,1.0\n"),
    # a file of another schema, or of none, and value columns the writer never names
    ("sys.json", '{"schema_version": 99, "field": "real", "weights": [1.0], "dims": [1],'
                 ' "elements": [[[1.0]]]}'),
    ("sys.json", '{"field": "real", "weights": [1.0], "dims": [1], "elements": [[[1.0]]]}'),
    ("sys.json", '{"schema_version": true, "field": "real", "weights": [1.0], "dims": [1],'
                 ' "elements": [[[1.0]]]}'),
    ("sys.csv", "element,atom,weight,zz0\n0,0,1.0,1.0\n"),
    ("sys.csv", "element,atom,weight,v1\n0,0,1.0,1.0\n"),
    ("sys.csv", "element,atom,weight,re0,v0\n0,0,1.0,1.0,0.0\n"),
    ("sys.csv", "element,atom,weight,re0,im0,re1\n0,0,1.0,1.0,0.0\n"),
], ids=["elements-5", "dims-null", "top-level-5", "complex-bare-floats", "weights-string",
        "weights-bool", "dims-fractional", "dims-string", "dims-bool", "dims-float",
        "dims-over-int64", "entry-string", "entry-bool", "complex-entry-string",
        "entry-over-float", "csv-atom-minus-1", "csv-short-row", "csv-huge-element",
        "csv-huge-atom", "schema-99", "schema-missing", "schema-true", "csv-zz0", "csv-v1",
        "csv-re0-v0", "csv-re1-without-im1"])
def test_malformed_system_file_exit_2(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_text(text)
    out = tmp_path / "p.json"
    assert main(["majorant", "--system", str(path), "--coeffs", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_system_json_unknown_key_exit_2(tmp_path, capsys):
    # a key that the reader does not read is refused, as in configs and specs
    path, out = tmp_path / "sys.json", tmp_path / "p.json"
    assert main(["gen-ons", "--kind", "haar", "--n", "4", "--out", str(path)]) == 0
    payload = json.loads(path.read_text())
    path.write_text(json.dumps({**payload, "dimz": [1, 1, 1, 1], "bogus": 0}))
    capsys.readouterr()
    assert main(["majorant", "--system", str(path), "--coeffs", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: system JSON: unknown key 'dimz'\n"
    assert not out.exists()


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400",
                                   str(10 ** 400)])
def test_system_json_non_finite_token_exit_2(tmp_path, capsys, token):
    # orjson, which reads system files, refuses these tokens as malformed JSON
    path, out = tmp_path / "sys.json", tmp_path / "p.json"
    path.write_text('{"schema_version": 1, "field": "real", "weights": [1.0, 1.0],'
                    f' "dims": [1, 1], "elements": [[[1.0], [0.0]], [[0.0], [{token}]]]}}')
    assert main(["majorant", "--system", str(path), "--coeffs", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: system JSON: malformed JSON at line 1") and err.count("\n") == 1
    assert not out.exists()


def _strict_json(text):
    """``json.loads`` that refuses the NaN and Infinity tokens."""
    def refuse(token):
        raise ValueError(f"non-strict JSON token {token}")
    return json.loads(text, parse_constant=refuse)


def _overflow_config(t, checks):
    """Haar n=64 with 64 coefficients of 1e153: every term |a_n|^2 log2^2 n
    is finite, and their sums overflow float64."""
    return _config(t, {"systems": [{"kind": "haar", "n": 64}], "n_trials": 2, "checks": checks,
                       "coefficients": {"form": "explicit", "values": [1e153] * 64}})


@pytest.mark.parametrize("case,code", [
    (lambda t: ["check-mr", "--explicit", _file(t, "1e154\n" * 40), "--trunc", "40"], 2),
    (lambda t: ["check-tandori", "--explicit", _file(t, "1e154\n" * 40), "--trunc", "40"], 2),
    (lambda t: ["check-orlicz", "--explicit", _file(t, "1e154\n" * 40), "--logpower", "1.5",
                "--trunc", "40"], 2),
    (lambda t: _overflow_config(t, ["mr-theorem", "tandori-block", "orlicz-chain"]), 2),
    (lambda t: _overflow_config(t, ["mr-theorem", "tandori-block"]), 1),
], ids=["check-mr", "check-tandori", "check-orlicz", "verify-orlicz", "verify-ratios"])
def test_overflowing_sums_keep_exit_contract(tmp_path, capsys, case, code):
    # a condition sum that overflows is refused; a bound that overflows
    # fails; neither emits a floating-point warning
    argv = case(tmp_path)
    capsys.readouterr()
    out = tmp_path / "out.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--out", str(out)]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "overflow" in err
        assert not out.exists()
    else:
        assert err == ""
        report = _strict_json(out.read_text())
        for check in ("mr-theorem", "tandori-block"):
            assert report["results"][check]["passed"] is False
            assert report["results"][check]["worst_ratio"] is None


def test_failing_report_is_strict_json(tmp_path):
    # ratios that are NaN are written as null, so strict parsers read the report
    argv = _config(tmp_path, {
        "n_trials": 2, "checks": ["mr-inequality", "tandori-block", "mr-theorem", "riesz-ratio"],
        "coefficients": {"form": "explicit", "values": [1e308] * 8}})
    out = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--out", str(out)]) == 1
    report = _strict_json(out.read_text())
    assert report["all_passed"] is False
    assert [report["results"][c]["worst_ratio"] for c in sorted(report["results"])] == [None] * 4
    assert report["results"]["mr-theorem"]["worst_case"]["parseval_rel_dev"] is None
