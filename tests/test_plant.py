import numpy as np
import pytest
from scipy.integrate import quad

from foldocp import liealg as la
from foldocp import plant


def test_inertia_frozen_examples():
    m = plant.InertiaModel(Ic=0.02, l=0.2, m=0.1)
    np.testing.assert_allclose(plant.inertia_diag(m, 0.0), [0.020, 0.036, 0.036], atol=1e-15)
    np.testing.assert_allclose(plant.inertia_diag(m, np.pi / 4.0), [0.028, 0.028, 0.036], atol=1e-15)


def test_default_calibration_hits_reference_inertia():
    # folded-square arm angle reproduces the measured diag(0.034, 0.034, 0.056)
    m = plant.InertiaModel()
    np.testing.assert_allclose(
        plant.inertia_diag(m, np.pi / 4.0), [0.034, 0.034, 0.056], rtol=0.0, atol=1e-15
    )


def test_inertia_trace_identity():
    # I1(u) + I2(u) = Ic + I3 for every u
    rng = np.random.default_rng(20)
    m = plant.InertiaModel()
    u = rng.uniform(plant.U_MIN, plant.U_MAX, 200)
    d = plant.inertia_diag(m, u)
    np.testing.assert_allclose(d[:, 0] + d[:, 1], m.Ic + d[:, 2], rtol=1e-14)


def test_inertia_derivatives_match_fd():
    rng = np.random.default_rng(21)
    m = plant.InertiaModel()
    eps = 1e-6
    for u in rng.uniform(plant.U_MIN, plant.U_MAX, 50):
        fd = (plant.inertia_diag(m, u + eps) - plant.inertia_diag(m, u - eps)) / (2 * eps)
        np.testing.assert_allclose(plant.d_inertia_du_diag(m, u), fd, rtol=1e-7, atol=1e-10)
        fd_inv = (1.0 / plant.inertia_diag(m, u + eps) - 1.0 / plant.inertia_diag(m, u - eps)) / (2 * eps)
        np.testing.assert_allclose(plant.d_inertia_inv_du_diag(m, u), fd_inv, rtol=1e-7, atol=1e-8)


def test_d_inertia_inv_du_antisymmetric_at_square_fold():
    m = plant.InertiaModel()
    d = plant.d_inertia_inv_du_diag(m, np.pi / 4.0)
    np.testing.assert_allclose(d[0], -d[1], rtol=1e-12)
    assert d[2] == 0.0


def test_body_torque_frozen_cases():
    act = plant.ActuationModel(l=0.235, kappa1=1.0, kappa2=1.0)
    u = 0.3
    s, c, z = act.l * np.sin(u), act.l * np.cos(u), act.l
    # equal thrusts cancel all three torque channels
    np.testing.assert_allclose(plant.body_torque(act, u, np.ones(4)), np.zeros(3), atol=1e-15)
    np.testing.assert_allclose(plant.body_torque(act, u, [1, 0, 0, 0]), [-s, c, z], atol=1e-15)
    np.testing.assert_allclose(plant.body_torque(act, u, [0, 1, 0, 0]), [s, c, -z], atol=1e-15)
    np.testing.assert_allclose(plant.body_torque(act, u, [0, 0, 1, 0]), [s, -c, z], atol=1e-15)
    np.testing.assert_allclose(plant.body_torque(act, u, [0, 0, 0, 1]), [-s, -c, -z], atol=1e-15)


def test_d_torque_matrix_matches_fd():
    rng = np.random.default_rng(22)
    act = plant.ActuationModel()
    eps = 1e-6
    for u in rng.uniform(plant.U_MIN, plant.U_MAX, 20):
        fd = (plant.torque_matrix(act, u + eps) - plant.torque_matrix(act, u - eps)) / (2 * eps)
        np.testing.assert_allclose(plant.d_torque_matrix_du(act, u), fd, rtol=1e-7, atol=1e-9)


def test_lie_poisson_rhs_component_form():
    # cross-product form against the componentwise inertia-difference form
    rng = np.random.default_rng(23)
    m, act = plant.InertiaModel(), plant.ActuationModel()
    for _ in range(50):
        Pi = rng.standard_normal(3)
        u = rng.uniform(plant.U_MIN, plant.U_MAX)
        tau = rng.standard_normal(4)
        i1, i2, i3 = plant.inertia_diag(m, u)
        f = plant.body_torque(act, u, tau)
        expected = np.array(
            [
                (i2 - i3) / (i3 * i2) * Pi[1] * Pi[2] + f[0],
                (i3 - i1) / (i1 * i3) * Pi[2] * Pi[0] + f[1],
                (i1 - i2) / (i2 * i1) * Pi[0] * Pi[1] + f[2],
            ]
        )
        np.testing.assert_allclose(plant.lie_poisson_rhs(m, act, Pi, u, tau), expected, rtol=1e-12, atol=1e-14)


def test_momentum_and_velocity_forms_agree():
    # d/dt (I(u) omega) from the velocity form must equal the momentum form
    rng = np.random.default_rng(24)
    m, act = plant.InertiaModel(), plant.ActuationModel()
    for _ in range(50):
        omega = rng.standard_normal(3)
        u = rng.uniform(plant.U_MIN, plant.U_MAX)
        u_dot = rng.standard_normal()
        tau = rng.standard_normal(4)
        inertia = plant.inertia_diag(m, u)
        Pi = inertia * omega
        omega_dot = plant.euler_poincare_rhs(m, act, omega, u, u_dot, tau)
        Pi_dot = plant.d_inertia_du_diag(m, u) * u_dot * omega + inertia * omega_dot
        np.testing.assert_allclose(Pi_dot, plant.lie_poisson_rhs(m, act, Pi, u, tau), rtol=1e-10, atol=1e-12)


def _smooth_input(t):
    u = np.pi / 4.0 + 0.2 * np.sin(t)
    u_dot = 0.2 * np.cos(t)
    tau = 0.1 * np.array([np.sin(t), np.cos(t), np.sin(2 * t), np.cos(2 * t)])
    return u, u_dot, tau


def test_rk4_step_order():
    # Richardson: err(h) / err(h/2) ~ 2^4 for the local-error ladder
    m, act = plant.InertiaModel(), plant.ActuationModel()
    state = plant.PlantState(np.eye(3), np.array([0.02, -0.01, 0.03]))

    def terminal(h, n):
        s = state
        for k in range(n):
            s = plant.rk4_step(m, act, s, _smooth_input, k * h, h)
        return np.concatenate([s.g.ravel(), s.Pi])

    ref = terminal(0.4 / 256, 256)
    errs = [np.max(np.abs(terminal(0.4 / n, n) - ref)) for n in (8, 16, 32)]
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    assert all(10.0 < r < 22.0 for r in ratios), ratios


def test_integrate_reorthonormalizes_and_reports_shape():
    m, act = plant.InertiaModel(), plant.ActuationModel()
    state = plant.PlantState(np.eye(3), np.array([0.05, 0.0, 0.02]))
    times, gs, ps = plant.integrate(m, act, state, _smooth_input, 0.0, 0.01, 2500, reorth_every=500)
    assert times.shape == (2501,) and gs.shape == (2501, 3, 3) and ps.shape == (2501, 3)
    assert np.max(la.rotation_defect(gs[-1])) < 1e-9


def test_integrate_raises_non_finite_on_divergence():
    m, act = plant.InertiaModel(), plant.ActuationModel()
    state = plant.PlantState(np.eye(3), np.array([1.0, 0.0, 0.0]))

    def absurd(t):
        return np.pi / 4.0, 0.0, np.array([1e160, 0.0, 0.0, 0.0])

    with pytest.raises(plant.NonFinite), np.errstate(over="ignore", invalid="ignore"):
        plant.integrate(m, act, state, absurd, 0.0, 1.0, 50, reorth_every=0)


def test_free_momentum_rk4_matches_general_integrator():
    m, act = plant.InertiaModel(), plant.ActuationModel()
    inertia = plant.inertia_diag(m, np.pi / 4.0)
    Pi0 = np.array([0.02, -0.01, 0.03])

    def coast(t):
        return np.pi / 4.0, 0.0, np.zeros(4)

    _, _, ps = plant.integrate(m, act, plant.PlantState(np.eye(3), Pi0), coast, 0.0, 0.01, 200)
    lean = plant.free_momentum_rk4(inertia, Pi0, 0.01, 200)
    np.testing.assert_allclose(lean, ps, rtol=1e-12, atol=1e-15)


def planar_omega2_closed_form(model, act, u, tau_fn, t0, t, omega2_0):
    """Pitch-rate quadrature for planar motion (omega1 = omega3 = 0).

    Valid when the commanded thrusts keep the first and third body torques at
    zero; then I2(u) omega2_dot = l cos(u) kappa1 (tau1 + tau2 - tau3 - tau4)
    and omega2 follows by direct integration.
    """
    i2 = float(plant.inertia_diag(model, u)[1])

    def integrand(z):
        tau = np.asarray(tau_fn(z), dtype=float)
        return tau[0] + tau[1] - tau[2] - tau[3]

    val, _ = quad(integrand, t0, t, limit=200)
    return omega2_0 + act.l * np.cos(u) * act.kappa1 * val / i2


def test_planar_closed_form_matches_integration():
    # thrust pattern keeping roll/yaw channels silent: tau1 = tau2, tau3 = tau4 = 0
    m, act = plant.InertiaModel(), plant.ActuationModel()
    u = 0.6

    def tau_fn(t):
        return np.array([0.5 * np.sin(t), 0.5 * np.sin(t), 0.0, 0.0])

    i2 = plant.inertia_diag(m, u)[1]
    omega2_0 = 0.2
    state = plant.PlantState(np.eye(3), np.array([0.0, i2 * omega2_0, 0.0]))
    _, _, ps = plant.integrate(m, act, state, lambda t: (u, 0.0, tau_fn(t)), 0.0, 0.001, 3000)
    got = planar_omega2_closed_form(m, act, u, tau_fn, 0.0, 3.0, omega2_0)
    np.testing.assert_allclose(got, ps[-1, 1] / i2, rtol=1e-8)
    # motion stays planar
    assert np.max(np.abs(ps[:, [0, 2]])) < 1e-12


def test_control_input_validation():
    plant.ControlInput(0.3, 0.0, np.zeros(4))
    with pytest.raises(ValueError):
        plant.ControlInput(np.pi / 2.0, 0.0, np.zeros(4))
    with pytest.raises(ValueError):
        plant.ControlInput(0.3, np.nan, np.zeros(4))
