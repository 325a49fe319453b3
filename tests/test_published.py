"""Tests pinning the as-published componentwise forms against the
derivative-based ones they transcribe."""

import numpy as np
from test_ocp import _random_state, _setup
from test_varint import _models, _random_trajectory, _time_varying_reference

from foldocp import liealg as la
from foldocp import ocp, plant, published, varint


def test_dcay_paper_matrix_agrees_with_exact_derivative():
    # closed form 2 s (I + hat(x)) against the matrix-calculus route
    rng = np.random.default_rng(8)
    deviation = 0.0
    for _ in range(200):
        x = rng.standard_normal(3) * rng.uniform(0.0, 5.0)
        m = published.dcay_paper_matrix(x)
        for i in range(3):
            deviation = max(deviation, np.max(np.abs(m[:, i] - la.dcay_exact(x, np.eye(3)[i]))))
    assert deviation < 1e-12


def test_componentwise_forms_characterized():
    rng, w, model, act, ref = _setup(14)
    for _ in range(10):
        s = _random_state(rng)
        # expanded thrust form: overall sign opposite the stationarity solution
        np.testing.assert_allclose(
            published.tau_star_componentwise(w, act, s.p_Pi, s.u),
            -ocp.tau_star(w, act, s.p_Pi, s.u),
            rtol=1e-13,
            atol=1e-15,
        )
        # expanded fold form: drops the thrust-map term, flips the inertia
        # terms, and omits 1/c1
        tau = ocp.tau_star(w, act, s.p_Pi, s.u)
        db_term = s.p_Pi @ (plant.d_torque_matrix_du(act, s.u) @ tau)
        np.testing.assert_allclose(
            published.u_ddot_componentwise(model, s),
            db_term - w.c1 * ocp.u_ddot(w, model, act, s),
            rtol=1e-12,
            atol=1e-14,
        )
        # trace form: gradient term enters with the opposite sign
        xi = s.Pi / plant.inertia_diag(model, s.u)
        np.testing.assert_allclose(
            published.pXi_rhs_trace_form(w, s.g, xi, s.p_xi, ref, 0.0)
            + ocp.pXi_rhs(w, s.g, xi, s.p_xi, ref, 0.0),
            2.0 * np.cross(s.p_xi, xi),
            rtol=1e-11,
            atol=1e-13,
        )
    # expanded momentum-costate form pairs indices differently: it deviates on
    # generic states but coincides when all principal moments are equal
    s = _random_state(rng)
    assert (
        np.linalg.norm(
            published.pPi_rhs_componentwise(w, model, ref, 0.0, s) - ocp.pPi_rhs(w, model, ref, 0.0, s)
        )
        > 1e-3
    )
    flat = plant.InertiaModel(Ic=0.02, l=0.2, m=1e-30)
    np.testing.assert_allclose(
        published.pPi_rhs_componentwise(w, flat, ref, 0.0, s),
        ocp.pPi_rhs(w, flat, ref, 0.0, s),
        rtol=1e-12,
        atol=1e-14,
    )


def test_residual_phi123_two_code_paths_agree():
    rng = np.random.default_rng(11)
    _, model, act = _models()
    grid = varint.GridSpec(h=0.02, n=10)
    for _ in range(50):
        args = (
            rng.normal(size=3),
            rng.normal(size=3),
            rng.uniform(-1.2, 1.2),
            rng.uniform(-1.2, 1.2),
            rng.normal(size=4),
            rng.normal(size=4),
        )
        a = varint.residual_phi123(model, act, grid, *args)
        b = published.residual_phi123_componentwise(model, act, grid, *args)
        np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-14 * (1.0 + np.abs(a).max()))


def test_kkt_residuals_paper_report():
    rng = np.random.default_rng(41)
    w, model, act = _models()
    ref = _time_varying_reference()
    traj = _random_trajectory(rng, n=5, h=0.05)
    out = published.kkt_residuals_paper(w, ref, model, act, traj)
    assert out["d_lam"].shape == (6, 3)
    assert out["d_g"].shape == (6, 3)
    report = out["report"]
    # the closed-form rotor rows are the same stationarity condition up to
    # the interval weights, so they reconcile to round-off
    scale = 1.0 + np.abs(out["d_tau"]).max()
    assert report["tau_rows_vs_exact"] < 1e-12 * scale
    # the remaining transcribed rows genuinely differ from the derivative
    # forms (sums instead of differences, dropped factors, h-weights)
    assert report["lam_rows_vs_exact"] > 1e-3
    assert report["u_rows_vs_exact"] > 1e-5
    assert report["g_rows_vs_exact"] > 1e-3
    for key in ("d_lam", "d_u", "d_g", "d_tau"):
        assert np.isfinite(out[key]).all()
