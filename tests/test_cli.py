import json
from pathlib import Path

import numpy as np
import pytest

from orthoseries.cli import main
from orthoseries.serialization import system_from_json

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
    assert system.validate(1e-10)[0]

    out_path = tmp_path / "profile.json"
    assert main(["majorant", "--system", str(sys_path),
                 "--coeffs", "1,0.5,0.25,0.125", "--out", str(out_path)]) == 0
    payload = json.loads(out_path.read_text())
    from orthoseries import majorant
    want = majorant(system, np.array([1.0, 0.5, 0.25, 0.125]))
    assert payload["l2_norm"] == want.l2_norm
    assert payload["values"] == [float(v) for v in want.values]


def test_gen_ons_csv_format(tmp_path):
    sys_path = tmp_path / "sys.csv"
    assert main(["gen-ons", "--kind", "rademacher", "--n", "2", "--format", "csv",
                 "--out", str(sys_path)]) == 0
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
    assert system.validate(1e-10)[0]


def test_check_mr(capsys):
    assert main(["check-mr", "--powerlog", "1,1,0", "--trunc", "64"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["classification"] == "converges"
    assert payload["condition"] == "mr-weyl"
    assert len(payload["partial_sums"]) == 64


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
    cfg = {
        "seed": 5,
        "n_trials": 3,
        "checks": ["mr-inequality"],
        "systems": [{"kind": "haar", "n": 8}],
        "tolerances": {"mr-inequality": -0.999999},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["verify", "--config", str(cfg_path),
                 "--out", str(tmp_path / "r.json")]) == 1


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


def test_out_of_range_decompose_exit_2():
    assert main(["decompose", "9", "3"]) == 2


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


def test_malformed_coeffs_file_names_line(tmp_path, capsys):
    sys_path = tmp_path / "sys.json"
    assert main(["gen-ons", "--kind", "haar", "--n", "4", "--out", str(sys_path)]) == 0
    coeffs = tmp_path / "a.csv"
    coeffs.write_text("1.0\n0.5\nabc\n0.25\n")
    assert main(["majorant", "--system", str(sys_path), "--coeffs-file", str(coeffs)]) == 2
    assert "line 3, column 1" in capsys.readouterr().err


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
