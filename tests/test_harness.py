import json
import math
from dataclasses import replace

import numpy as np
import pytest

from foldocp import harness, liealg as la, plant, varint


def _write(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


# ---------------------------------------------------------------------------
# config loading


def test_minimal_config_fills_defaults(tmp_path):
    cfg = harness.load_config(_write(tmp_path, {"grid": {"h_s": 0.05, "N": 8}}))
    assert cfg.h_s == 0.05 and cfg.N == 8
    assert cfg.scenario == "stabilization"
    assert cfg.boundary_mode == "free_terminal"
    assert cfg.roll0_rad == 1.0821
    assert cfg.u0_rad == math.pi / 4.0
    assert cfg.c1 == 0.01 and cfg.c2 == 1.0


def test_config_roundtrip_identity(tmp_path):
    cfg = harness.ScenarioConfig(
        h_s=0.01,
        N=40,
        scenario="tracking",
        reference_type="yaw_ramp",
        boundary_mode="fixed_endpoints",
        Pi0_kgm2rads=(0.01, -0.02, 0.3),
        seed=7,
    )
    path = tmp_path / "c.json"
    harness.save_config(cfg, str(path))
    assert harness.load_config(str(path)) == cfg
    # serialization is normalized: a second pass is byte-identical
    text = harness.serialize_config(cfg)
    assert harness.serialize_config(harness.load_config(str(path))) == text


def test_parse_error_reports_location(tmp_path):
    path = _write(tmp_path, '{"grid": {"h_s": 0.05,, "N": 8}}')
    with pytest.raises(harness.ParseError, match=r"line 1, column"):
        harness.load_config(path)


def test_unknown_field_rejected(tmp_path):
    path = _write(tmp_path, {"grid": {"h_s": 0.05, "N": 8, "dt": 0.1}})
    with pytest.raises(harness.ValidationError, match="unknown field grid.dt"):
        harness.load_config(path)
    path = _write(tmp_path, {"grid": {"h_s": 0.05, "N": 8}, "extra": {}})
    with pytest.raises(harness.ValidationError, match="unknown section"):
        harness.load_config(path)


@pytest.mark.parametrize(
    "patch, message",
    [
        ({"weights": {"c1": 0.0}}, "weights.c1 must be > 0"),
        ({"weights": {"c1": -0.5}}, "weights.c1 must be > 0"),
        ({"weights": {"c2": 0.0}}, "weights.c2 must be > 0"),
        ({"weights": {"c3": -1.0}}, "weights.c3 must be >= 0"),
        ({"grid": {"h_s": 0.0, "N": 8}}, "grid.h_s must be > 0"),
        ({"grid": {"h_s": 0.05, "N": 0}}, "grid.N must be an integer >= 2"),
        ({"grid": {"h_s": 0.05, "N": 1}}, "grid.N must be an integer >= 2"),
        ({"plant": {"Ic_kgm2": -0.01}}, "plant.Ic_kgm2 must be > 0"),
        ({"scenario": "hover"}, "scenario must be one of"),
        ({"limits": {"u_min_rad": 1.0, "u_max_rad": 0.5}}, "u_min_rad must be <"),
    ],
)
def test_validation_messages_name_the_invariant(tmp_path, patch, message):
    payload = {"grid": {"h_s": 0.05, "N": 8}}
    payload.update(patch)
    with pytest.raises(harness.ValidationError, match=message):
        harness.load_config(_write(tmp_path, payload))


def test_costate_mode_requires_costates(tmp_path):
    payload = {"grid": {"h_s": 0.05, "N": 8}, "boundary_mode": "initial_costate"}
    with pytest.raises(harness.ValidationError, match="costates.p_Pi0"):
        harness.load_config(_write(tmp_path, payload))
    payload["costates"] = {"p_Pi0": [0.1, 0.0, 0.0], "p_xi0": [0.0, 0.0, 0.1]}
    cfg = harness.load_config(_write(tmp_path, payload))
    assert cfg.p_Pi0 == (0.1, 0.0, 0.0)


def test_non_numeric_and_wrong_shape_rejected(tmp_path):
    payload = {"grid": {"h_s": "fast", "N": 8}}
    with pytest.raises(harness.ValidationError, match="h_s must be a real number"):
        harness.load_config(_write(tmp_path, payload))
    payload = {"grid": {"h_s": 0.05, "N": 8}, "initial": {"Pi0_kgm2rads": [1.0, 2.0]}}
    with pytest.raises(harness.ValidationError, match="list of 3 numbers"):
        harness.load_config(_write(tmp_path, payload))


# ---------------------------------------------------------------------------
# Euler angles


def test_euler_identity_and_single_axes():
    np.testing.assert_allclose(harness.euler_angles(np.eye(3)), (0.0, 0.0, 0.0), atol=1e-15)
    roll, pitch, yaw = harness.euler_angles(harness.compose_euler(1.0821, 0.0, 0.0))
    np.testing.assert_allclose([roll, pitch, yaw], [1.0821, 0.0, 0.0], atol=1e-15)


def test_euler_roundtrip_random():
    rng = np.random.default_rng(61)
    for _ in range(300):
        angles = (
            rng.uniform(-np.pi, np.pi),
            rng.uniform(-np.pi / 2 + 0.05, np.pi / 2 - 0.05),
            rng.uniform(-np.pi, np.pi),
        )
        r = harness.compose_euler(*angles)
        back = harness.euler_angles(r)
        np.testing.assert_allclose(back, angles, atol=1e-10)
        np.testing.assert_allclose(harness.compose_euler(*back), r, atol=1e-10)


def test_euler_gimbal_guard():
    r = harness.compose_euler(0.3, np.pi / 2, -0.2)
    with pytest.raises(harness.GimbalLock):
        harness.euler_angles(r)
    # the lenient variant clamps instead, so exports never throw
    roll, pitch, yaw = harness._euler_lenient(r)
    assert abs(pitch - np.pi / 2) < 1e-9


# ---------------------------------------------------------------------------
# scenarios


def _free_body_config(**kw):
    base = dict(
        h_s=0.01,
        N=400,
        scenario="free_body",
        roll0_rad=0.2,
        pitch0_rad=-0.1,
        yaw0_rad=0.3,
        Pi0_kgm2rads=(0.02, 0.0, 0.30),
    )
    base.update(kw)
    return harness.ScenarioConfig(**base)


def test_free_body_conserves_momentum_norm():
    report = harness.run_scenario(_free_body_config())
    assert report.records.shape == (401, len(harness.CSV_COLUMNS))
    norms = report.records[:, 18]
    assert (norms.max() - norms.min()) / norms[0] < 1e-10
    # rotors stay off and the arms stay locked
    assert np.all(report.records[:, 11:15] == 0.0)
    assert np.all(report.records[:, 10] == math.pi / 4.0)
    assert report.ok


def test_free_body_defect_column_shrinks_with_h():
    coarse = harness.run_scenario(_free_body_config(h_s=0.02, N=50))
    fine = harness.run_scenario(_free_body_config(h_s=0.01, N=100))
    # trapezoidal interval defects are O(h^2) consistency diagnostics
    ratio = coarse.records[1:-1, 19].max() / fine.records[1:-1, 19].max()
    assert 3.0 < ratio < 5.0


def _small_stabilization(**kw):
    base = dict(h_s=0.02, N=25, roll0_rad=0.6, continuation_stages=2)
    base.update(kw)
    return harness.ScenarioConfig(**base)


def test_stabilization_run_converges_and_guards_hold():
    report = harness.run_scenario(_small_stabilization())
    assert report.converged and report.ok
    assert report.records.shape[0] == 26
    # first-order rows hold to solver tolerance at every knot
    assert report.records[:, 19].max() < 1e-9
    # the error shrinks over the horizon
    assert report.frob_err[-1] < 0.5 * report.frob_err[0]
    u = report.records[:, 10]
    assert u.min() >= 0.0 and u.max() <= math.pi / 2


def test_tracking_run_follows_yaw_ramp():
    cfg = harness.ScenarioConfig(
        h_s=0.05,
        N=10,
        scenario="tracking",
        reference_type="yaw_ramp",
        boundary_mode="fixed_endpoints",
        roll0_rad=0.0,
        continuation_stages=1,
    )
    report = harness.run_scenario(cfg)
    assert report.ok
    # reference yaw column sweeps 0 -> yaw_final
    np.testing.assert_allclose(report.records[0, 6], 0.0, atol=1e-12)
    np.testing.assert_allclose(report.records[-1, 6], 0.5, atol=1e-12)
    assert report.records[:, 19].max() < 1e-9


def test_simulate_rk4_and_dlp_converge_together():
    # the momentum-conserving step is second order: its gap to RK4 on the
    # same horizon shrinks by ~4x when h halves
    gaps = []
    for h, n in ((0.01, 100), (0.005, 200)):
        cfg = _free_body_config(h_s=h, N=n)
        a = harness.simulate(cfg, mode="dlp")
        b = harness.simulate(cfg, mode="rk4")
        gaps.append(np.abs(a.records[:, 15:18] - b.records[:, 15:18]).max())
    assert gaps[1] < 1e-4
    assert 3.0 < gaps[0] / gaps[1] < 5.0
    with pytest.raises(harness.ValidationError):
        harness.simulate(_free_body_config(), mode="verlet")


def _records_by_knot(ref, traj, kkt_col):
    # the per-knot loop the stacked records replaced, kept as their oracle
    def euler(r):
        return (
            math.atan2(r[2, 1], r[2, 2]),
            math.asin(min(1.0, max(-1.0, -r[2, 0]))),
            math.atan2(r[1, 0], r[0, 0]),
        )

    records = np.empty((traj.grid.n + 1, len(harness.CSV_COLUMNS)))
    frob = np.empty(traj.grid.n + 1)
    for k, knot in enumerate(traj.knots):
        t = k * traj.grid.h
        g_ref, _ = ref.sample(t)
        frob[k] = np.linalg.norm(knot.g - g_ref)
        records[k] = (
            t, *euler(knot.g), *euler(g_ref), *euler(g_ref.T @ knot.g),
            knot.u, *knot.tau, *knot.Pi, np.linalg.norm(knot.Pi), kkt_col[k],
        )
    return records, frob


def test_records_match_the_per_knot_loop():
    cfg = harness.ScenarioConfig(
        h_s=0.1, N=12, scenario="tracking", reference_type="yaw_ramp",
        yaw_final_rad=2.5,
    )
    ref = harness.build_reference(cfg)
    rng = np.random.default_rng(21)
    n = cfg.N
    g = la.exp_so3(rng.normal(size=(n + 1, 3)))
    g[4] = harness.compose_euler(0.3, np.pi / 2, -0.2)  # gimbal lock
    traj = varint.trajectory_from_arrays(
        varint.GridSpec(cfg.h_s, n), g, rng.normal(size=(n + 1, 3)),
        rng.uniform(0.0, 1.5, n + 1), rng.normal(size=(n + 1, 4)),
        np.zeros((n, 3)), np.zeros((n, 3)),
    )
    kkt_col = rng.random(n + 1)
    records, frob = harness._records_from_trajectory(cfg, ref, traj, kkt_col)
    oracle, oracle_frob = _records_by_knot(ref, traj, kkt_col)
    np.testing.assert_allclose(records, oracle, rtol=0, atol=1e-15)
    np.testing.assert_allclose(frob, oracle_frob, rtol=0, atol=1e-15)
    assert abs(records[4, 2] - np.pi / 2) < 1e-9


def test_references_share_no_table():
    cfg = harness.ScenarioConfig(
        h_s=0.1, N=12, scenario="tracking", reference_type="yaw_ramp"
    )
    grid = varint.GridSpec(cfg.h_s, cfg.N)
    first, second = harness.build_reference(cfg), harness.build_reference(cfg)
    table = varint.reference_table(first, grid)
    assert not second._tables
    other = varint.reference_table(second, grid)
    assert other[0] is not table[0] and other[1] is not table[1]
    np.testing.assert_array_equal(other[0], table[0])


def test_run_scenario_revalidates():
    bad = replace(_small_stabilization(), N=0)
    with pytest.raises(harness.ValidationError, match="grid.N"):
        harness.run_scenario(bad)


def test_validate_config_rejects_boolean_stages(tmp_path):
    # direct construction is held to the same rule as load_config
    config = harness.ScenarioConfig(h_s=0.05, N=8, continuation_stages=True)
    with pytest.raises(harness.ValidationError, match="continuation_stages"):
        harness.validate_config(config)
    path = _write(tmp_path, {"grid": {"h_s": 0.05, "N": 8}, "continuation_stages": True})
    with pytest.raises(harness.ValidationError, match="continuation_stages"):
        harness.load_config(path)


# ---------------------------------------------------------------------------
# exports


def test_csv_schema_and_reparse(tmp_path):
    report = harness.run_scenario(_small_stabilization())
    path = tmp_path / "run.csv"
    harness.export_csv(report, str(path))
    header, data = harness.read_csv(str(path))
    assert header == harness.CSV_COLUMNS
    assert len(header) == 20
    np.testing.assert_allclose(data, report.records, rtol=0.0, atol=1e-12)
    # 17 significant digits means the roundtrip is exact
    assert np.abs(data - report.records).max() == 0.0


def test_csv_rows_match_per_value_formatting(tmp_path):
    values = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, 0.1, -1.0 / 3.0]
    records = np.resize(np.array(values), (3, len(harness.CSV_COLUMNS)))
    report = harness.RunReport(
        config=_small_stabilization(), records=records, frob_err=np.zeros(3)
    )
    path = tmp_path / "special.csv"
    harness.export_csv(report, str(path))
    lines = [",".join(harness.CSV_COLUMNS)]
    for row in records:
        lines.append(",".join(f"{value:.17g}" for value in row))
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


def test_csv_header_only_for_empty_report(tmp_path):
    cfg = _small_stabilization()
    empty = harness.RunReport(
        config=cfg,
        records=np.empty((0, len(harness.CSV_COLUMNS))),
        frob_err=np.empty(0),
    )
    path = tmp_path / "empty.csv"
    harness.export_csv(empty, str(path))
    lines = path.read_text().splitlines()
    assert lines == [",".join(harness.CSV_COLUMNS)]


def test_csv_byte_identical_across_runs(tmp_path):
    cfg = _small_stabilization()
    texts = []
    for tag in ("a", "b"):
        report = harness.run_scenario(cfg)
        path = tmp_path / f"{tag}.csv"
        harness.export_csv(report, str(path))
        texts.append(path.read_bytes())
    assert texts[0] == texts[1]


def test_svg_plots_are_self_contained(tmp_path):
    report = harness.run_scenario(_small_stabilization())
    harness.export_svg_plots(report, str(tmp_path))
    for name in ("attitude.svg", "tracking_error.svg", "arm_angle.svg"):
        text = (tmp_path / name).read_text()
        assert text.startswith("<svg xmlns=")
        assert "<polyline" in text and text.rstrip().endswith("</svg>")
        # no external references
        assert "http" not in text.split(">", 1)[1]


def test_export_errors_map_to_ioerror(tmp_path):
    report = harness.run_scenario(_free_body_config(N=10))
    with pytest.raises(harness.IoError):
        harness.export_csv(report, str(tmp_path / "missing" / "run.csv"))


# ---------------------------------------------------------------------------
# diagnostics


def test_diagnostics_structure_and_suites():
    cfg = harness.ScenarioConfig(h_s=0.05, N=8)
    out = harness.diagnostics(cfg, "liealg")
    assert set(out["checks"]) == {"cay_orthogonality", "dcay_deviation"}
    assert out["all_pass"] is True
    for res in out["checks"].values():
        assert isinstance(res["pass"], bool)
    with pytest.raises(harness.ValidationError):
        harness.diagnostics(cfg, "everything")


def test_diagnostics_never_raises(monkeypatch):
    cfg = harness.ScenarioConfig(h_s=0.05, N=8)

    def boom(config):
        raise RuntimeError("broken probe")

    monkeypatch.setitem(harness._CHECKS, "cay_orthogonality", boom)
    out = harness.diagnostics(cfg, "liealg")
    assert out["all_pass"] is False
    assert out["checks"]["cay_orthogonality"]["pass"] is False
    assert "broken probe" in out["checks"]["cay_orthogonality"]["error"]


def test_diagnostics_full_suite_passes():
    cfg = harness.ScenarioConfig(h_s=0.05, N=8)
    out = harness.diagnostics(cfg, "all")
    failures = {k: v for k, v in out["checks"].items() if not v["pass"]}
    assert out["all_pass"], failures
