import json

import numpy as np
import pytest

from foldocp import cli, harness, liealg


def _config_file(tmp_path, **kw):
    base = dict(h_s=0.02, N=25, roll0_rad=0.6, continuation_stages=2)
    base.update(kw)
    cfg = harness.ScenarioConfig(**base)
    path = tmp_path / "scenario.json"
    harness.save_config(cfg, str(path))
    return str(path)


def test_solve_writes_outputs_and_exits_zero(tmp_path, capsys):
    csv = tmp_path / "run.csv"
    svgs = tmp_path / "figs"
    path = _config_file(tmp_path, csv_path=str(csv), svg_dir=str(svgs))
    assert cli.main(["solve", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "guard u_box: ok" in out
    assert csv.exists()
    assert sorted(p.name for p in svgs.iterdir()) == [
        "arm_angle.svg",
        "attitude.svg",
        "tracking_error.svg",
    ]


def test_solve_bc_flag_overrides_mode(tmp_path, capsys):
    path = _config_file(tmp_path, boundary_mode="fixed_endpoints")
    assert cli.main(["solve", "--config", path, "--bc", "free-terminal"]) == 0
    capsys.readouterr()
    # shooting alias requires costates, which this config lacks
    assert cli.main(["solve", "--config", path, "--bc", "shooting"]) == 2


def test_solve_rejects_free_body(tmp_path, capsys):
    path = _config_file(tmp_path, scenario="free_body")
    assert cli.main(["solve", "--config", path]) == 2
    assert "free_body" in capsys.readouterr().err


def test_simulate_modes(tmp_path, capsys):
    path = _config_file(
        tmp_path, scenario="free_body", Pi0_kgm2rads=(0.02, 0.0, 0.3), N=50
    )
    assert cli.main(["simulate", "--config", path, "--mode", "dlp"]) == 0
    assert cli.main(["simulate", "--config", path, "--mode", "rk4"]) == 0
    out = capsys.readouterr().out
    assert out.count("knots=51") == 2


def test_check_suite_exit_codes(capsys):
    assert cli.main(["check", "--suite", "liealg"]) == 0
    out = capsys.readouterr().out
    assert "cay_orthogonality" in out and "all checks passed" in out


def test_check_failure_exits_three(monkeypatch, capsys):
    monkeypatch.setitem(
        harness._CHECKS, "cay_orthogonality", lambda cfg: {"pass": False}
    )
    assert cli.main(["check", "--suite", "liealg"]) == 3
    assert "FAIL" in capsys.readouterr().out


def test_sweep_preserves_horizon(tmp_path, capsys):
    path = _config_file(tmp_path, h_s=0.02, N=25)  # horizon 0.5 s
    assert cli.main(
        ["sweep", "--config", path, "--param", "h", "--values", "0.05", "0.025"]
    ) == 0
    out = capsys.readouterr().out
    rows = [l.split() for l in out.splitlines() if l.strip()]
    # table rows keep N*h fixed: 10*0.05 = 20*0.025 = 0.5
    assert ["0.05", "10"] in [r[:2] for r in rows]
    assert ["0.025", "20"] in [r[:2] for r in rows]


def test_sweep_rejects_bad_values(tmp_path, capsys):
    path = _config_file(tmp_path)
    assert cli.main(
        ["sweep", "--config", path, "--param", "h", "--values", "-0.01"]
    ) == 2
    assert cli.main(
        ["sweep", "--config", path, "--param", "h", "--values", "0.5"]
    ) == 2


def test_exit_codes_for_bad_inputs(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert cli.main(["solve", "--config", missing]) == 5

    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert cli.main(["solve", "--config", str(bad)]) == 2

    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({"grid": {"h_s": 0.05, "N": 8}, "weights": {"c2": 0.0}}))
    assert cli.main(["solve", "--config", str(invalid)]) == 2
    assert "c2" in capsys.readouterr().err


@pytest.mark.parametrize("error", [liealg.OutOfChart, liealg.TooFarFromGroup])
def test_chart_errors_exit_four(tmp_path, capsys, monkeypatch, error):
    # both subclass ValueError, whose clause exits 2
    def fail(config):
        raise error("raised by the solve")

    monkeypatch.setattr(harness, "run_scenario", fail)
    assert cli.main(["solve", "--config", _config_file(tmp_path)]) == 4
    assert "raised by the solve" in capsys.readouterr().err


def test_usage_errors_exit_two(capsys):
    assert cli.main(["solve"]) == 2
    assert cli.main(["frobnicate"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert "simulate" in capsys.readouterr().out


def test_no_convergence_exits_three(tmp_path, capsys):
    # near-inverted, fast-spinning start on a coarse long horizon stalls the
    # continuation ladder
    path = _config_file(
        tmp_path,
        roll0_rad=3.0,
        continuation_stages=1,
        N=50,
        h_s=0.1,
        Pi0_kgm2rads=(0.5, -0.4, 0.6),
    )
    rc = cli.main(["solve", "--config", path])
    assert rc in (3, 4)
    assert "error:" in capsys.readouterr().err
