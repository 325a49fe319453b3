import numpy as np
import pytest
from scipy.integrate import solve_ivp

from foldocp import liealg as la
from foldocp import ocp, plant


def _random_rotation(rng, scale=1.5):
    return la.exp_so3(rng.normal(size=3) * scale / 3.0)


def _random_state(rng):
    return ocp.OCPState(
        g=_random_rotation(rng),
        Pi=rng.normal(size=3) * 0.1,
        u=rng.uniform(plant.U_MIN + 0.2, plant.U_MAX - 0.2),
        u_dot=rng.normal() * 0.5,
        p_Pi=rng.normal(size=3),
        p_xi=rng.normal(size=3),
    )


def _setup(seed):
    rng = np.random.default_rng(seed)
    w = ocp.CostWeights(c1=0.01, c2=1.0, c3=1.0, c4=0.1)
    model = plant.InertiaModel()
    act = plant.ActuationModel()
    ref = ocp.constant_reference(g_d=_random_rotation(rng), Pi_d=rng.normal(size=3) * 0.05)
    return rng, w, model, act, ref


def _mild_case(seed):
    # near-reference start with small costates: the forward-shot system stays
    # bounded over a ~1 s horizon (the costate flow is intrinsically unstable,
    # so integrator tests must run inside the stable arc)
    rng = np.random.default_rng(seed)
    w = ocp.CostWeights(c1=0.01, c2=1.0, c3=1.0, c4=0.1)
    model, act = plant.InertiaModel(), plant.ActuationModel()
    g_d = la.exp_so3(rng.normal(size=3) * 0.5)
    ref = ocp.constant_reference(g_d=g_d)
    s0 = ocp.OCPState(
        g=g_d @ la.exp_so3(rng.normal(size=3) * 0.02),
        Pi=rng.normal(size=3) * 0.01,
        u=rng.uniform(-0.5, 0.5),
        u_dot=rng.normal() * 0.1,
        p_Pi=rng.normal(size=3) * 1e-3,
        p_xi=rng.normal(size=3) * 1e-3,
    )
    return w, model, act, ref, s0


def test_cost_weights_validation():
    with pytest.raises(ValueError):
        ocp.CostWeights(c1=-0.1, c2=1.0, c3=1.0, c4=1.0)
    with pytest.raises(ValueError):
        ocp.CostWeights(c1=0.1, c2=0.0, c3=1.0, c4=1.0)
    with pytest.raises(ValueError):
        ocp.CostWeights(c1=0.1, c2=np.inf, c3=1.0, c4=1.0)
    # c1 = 0 is constructible; only the u-channel operations reject it
    w = ocp.CostWeights(c1=0.0, c2=1.0, c3=0.0, c4=0.0)
    np.testing.assert_allclose(w.as_array(), [0.0, 1.0, 0.0, 0.0])


def test_constant_reference_defaults_and_validation():
    ref = ocp.constant_reference()
    g, p = ref.sample(3.7)
    np.testing.assert_allclose(g, np.eye(3))
    np.testing.assert_allclose(p, np.zeros(3))
    with pytest.raises(la.TooFarFromGroup):
        ocp.constant_reference(g_d=np.eye(3) * 1.1)


def test_attitude_error_skew_and_zero():
    rng = np.random.default_rng(1)
    for _ in range(20):
        g, g_d = _random_rotation(rng), _random_rotation(rng)
        e = ocp.attitude_error(g, g_d)
        np.testing.assert_allclose(e, -e.T, atol=1e-14)
        np.testing.assert_allclose(ocp.attitude_error(g_d, g), -e, atol=1e-14)
    np.testing.assert_allclose(ocp.attitude_error(g, g), np.zeros((3, 3)), atol=1e-14)


def test_attitude_cost_frozen_value():
    # for a relative rotation by theta about one axis, |E|_F^2 = 8 sin(theta)^2
    theta = np.pi / 6.0
    g = la.exp_so3(np.array([0.0, 0.0, theta]))
    assert abs(ocp.attitude_cost(g, np.eye(3)) - 1.0) < 1e-14
    rng = np.random.default_rng(2)
    for _ in range(20):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        ang = rng.uniform(0.1, 3.0)
        g_d = _random_rotation(rng)
        g = g_d @ la.exp_so3(ang * axis)
        np.testing.assert_allclose(
            ocp.attitude_cost(g, g_d), 4.0 * np.sin(ang) ** 2, rtol=1e-12
        )


def test_attitude_cost_positive_within_chart():
    rng = np.random.default_rng(3)
    g_d = _random_rotation(rng)
    for _ in range(30):
        x = rng.normal(size=3)
        x *= rng.uniform(1e-3, 2.0) / np.linalg.norm(x)
        assert ocp.attitude_cost(g_d @ la.cay(x), g_d) > 0.0


def test_attitude_cost_gradient_matches_fd():
    rng = np.random.default_rng(4)
    eps = 1e-6
    for _ in range(25):
        g, g_d = _random_rotation(rng), _random_rotation(rng)
        grad = ocp.attitude_cost_gradient(g, g_d)
        for e in np.eye(3):
            fd = (
                ocp.attitude_cost(g @ la.exp_so3(eps * e), g_d)
                - ocp.attitude_cost(g @ la.exp_so3(-eps * e), g_d)
            ) / (2.0 * eps)
            np.testing.assert_allclose(grad @ e, fd, rtol=1e-6, atol=1e-9)


def test_running_cost_trivial_and_frozen():
    w = ocp.CostWeights(c1=1.0, c2=1.0, c3=1.0, c4=0.1)
    ref = ocp.constant_reference()
    assert ocp.running_cost(w, ref, 0.0, np.eye(3), np.zeros(3), 0.3, 0.0, np.zeros(4)) == 0.0
    # single-term: c4/2 * |Pi - Pi_d|^2 = 0.05
    got = ocp.running_cost(w, ref, 0.0, np.eye(3), np.array([1.0, 0, 0]), 0.3, 0.0, np.zeros(4))
    assert abs(got - 0.05) < 1e-15
    # composite: 9 (fold rate) + 60 (thrust) + 6 (attitude) + 12 (momentum)
    w = ocp.CostWeights(c1=2.0, c2=4.0, c3=6.0, c4=8.0)
    g = la.exp_so3(np.array([0.0, 0.0, np.pi / 6.0]))
    got = ocp.running_cost(
        w, ref, 0.0, g, np.ones(3), 0.3, 3.0, np.array([1.0, 2.0, 3.0, 4.0])
    )
    assert abs(got - 87.0) < 1e-12


def test_hamiltonian_reduces_to_cost_with_zero_costates():
    rng, w, model, act, ref = _setup(5)
    for _ in range(10):
        s = _random_state(rng)
        s = ocp.OCPState(s.g, s.Pi, s.u, s.u_dot, np.zeros(3), np.zeros(3))
        tau = rng.normal(size=4)
        h = ocp.pontryagin_hamiltonian(w, model, act, ref, 0.0, s, tau, 0.0)
        c = ocp.running_cost(w, ref, 0.0, s.g, s.Pi, s.u, s.u_dot, tau)
        np.testing.assert_allclose(h, c, rtol=1e-14)


def test_tau_star_stationarity():
    rng, w, model, act, ref = _setup(6)
    # the Pontryagin function is exactly quadratic in tau, so a wide central
    # difference carries no truncation error and a low round-off floor
    eps = 1e-4
    for _ in range(15):
        s = _random_state(rng)
        tau = ocp.tau_star(w, act, s.p_Pi, s.u)
        b = plant.torque_matrix(act, s.u)
        # linear stationarity holds to machine precision
        np.testing.assert_allclose(w.c2 * tau + b.T @ s.p_Pi, np.zeros(4), atol=1e-14)
        for e in np.eye(4):
            fd = (
                ocp.pontryagin_hamiltonian(w, model, act, ref, 0.0, s, tau + eps * e, 0.0)
                - ocp.pontryagin_hamiltonian(w, model, act, ref, 0.0, s, tau - eps * e, 0.0)
            ) / (2.0 * eps)
            assert abs(fd) < 1e-10
        # the eliminated control lowers the Pontryagin function
        h_star = ocp.pontryagin_hamiltonian(w, model, act, ref, 0.0, s, tau, 0.0)
        h_zero = ocp.pontryagin_hamiltonian(w, model, act, ref, 0.0, s, np.zeros(4), 0.0)
        if np.linalg.norm(b.T @ s.p_Pi) > 1e-12:
            assert h_star < h_zero
        assert h_star <= ocp.pontryagin_hamiltonian(
            w, model, act, ref, 0.0, s, tau + rng.normal(size=4), 0.0
        )


def test_tau_star_frozen_example():
    act = plant.ActuationModel()
    w = ocp.CostWeights(c1=0.01, c2=1.0, c3=1.0, c4=0.1)
    got = ocp.tau_star(w, act, np.array([0.0, 0.0, 1.0]), 0.3)
    want = act.l * act.kappa2 * np.array([-1.0, 1.0, -1.0, 1.0])
    np.testing.assert_allclose(got, want, atol=1e-15)
    np.testing.assert_allclose(ocp.tau_star(w, act, np.zeros(3), 0.3), np.zeros(4), atol=1e-15)


def test_A_matrix_zero_cases_and_pattern():
    model = plant.InertiaModel()
    np.testing.assert_allclose(ocp.A_matrix(model, 0.4, np.zeros(3)), np.zeros((3, 3)), atol=1e-16)
    # near-equal principal moments kill every entry
    flat = plant.InertiaModel(Ic=0.02, l=0.2, m=1e-30)
    np.testing.assert_allclose(
        ocp.A_matrix(flat, 0.4, np.array([1.0, 2.0, 3.0])), np.zeros((3, 3)), atol=1e-20
    )
    Pi = np.array([0.7, -1.1, 0.4])
    a1, a2, a3 = 1.0 / plant.inertia_diag(model, 0.25)
    want = np.array(
        [
            [0.0, (a3 - a1) * Pi[2], (a1 - a2) * Pi[1]],
            [(a2 - a3) * Pi[2], 0.0, (a1 - a2) * Pi[0]],
            [(a2 - a3) * Pi[1], (a3 - a1) * Pi[0], 0.0],
        ]
    )
    np.testing.assert_allclose(ocp.A_matrix(model, 0.25, Pi), want, rtol=1e-13, atol=1e-16)


def test_A_matrix_fd_orientation():
    # gradient of <p, -(I^-1 Pi) x Pi> wrt Pi is -A p; the +A p_Pi term in
    # pPi_rhs then comes from dp/dt = -dH/dPi
    rng = np.random.default_rng(7)
    model = plant.InertiaModel()
    eps = 1e-6
    for _ in range(15):
        Pi = rng.normal(size=3)
        p = rng.normal(size=3)
        u = rng.uniform(plant.U_MIN, plant.U_MAX)

        def pairing(q):
            return p @ -np.cross(q / plant.inertia_diag(model, u), q)

        fd = np.array([(pairing(Pi + eps * e) - pairing(Pi - eps * e)) / (2 * eps) for e in np.eye(3)])
        np.testing.assert_allclose(fd, -ocp.A_matrix(model, u, Pi) @ p, rtol=1e-6, atol=1e-9)


def test_pPi_rhs_matches_fd_of_hamiltonian():
    rng, w, model, act, ref = _setup(8)
    eps = 1e-6
    for _ in range(15):
        s = _random_state(rng)
        tau = ocp.tau_star(w, act, s.p_Pi, s.u)
        got = ocp.pPi_rhs(w, model, ref, 0.0, s)
        for i, e in enumerate(np.eye(3)):
            sp = ocp.OCPState(s.g, s.Pi + eps * e, s.u, s.u_dot, s.p_Pi, s.p_xi)
            sm = ocp.OCPState(s.g, s.Pi - eps * e, s.u, s.u_dot, s.p_Pi, s.p_xi)
            fd = (
                ocp.pontryagin_hamiltonian(w, model, act, ref, 0.0, sp, tau, 0.0)
                - ocp.pontryagin_hamiltonian(w, model, act, ref, 0.0, sm, tau, 0.0)
            ) / (2.0 * eps)
            np.testing.assert_allclose(got[i], -fd, rtol=1e-6, atol=1e-8)


def test_u_ddot_matches_fd_of_hamiltonian():
    rng, w, model, act, ref = _setup(9)
    eps = 1e-6
    for _ in range(15):
        s = _random_state(rng)
        got = ocp.u_ddot(w, model, act, s)

        def h_env(u):
            # envelope: re-eliminate tau at each fold angle
            su = ocp.OCPState(s.g, s.Pi, u, s.u_dot, s.p_Pi, s.p_xi)
            tau = ocp.tau_star(w, act, s.p_Pi, u)
            return ocp.pontryagin_hamiltonian(w, model, act, ref, 0.0, su, tau, 0.0)

        fd = (h_env(s.u + eps) - h_env(s.u - eps)) / (2.0 * eps)
        np.testing.assert_allclose(got, fd / w.c1, rtol=1e-5, atol=1e-7)


def test_u_ddot_regularity_guard():
    w0 = ocp.CostWeights(c1=0.0, c2=1.0, c3=1.0, c4=0.1)
    model, act = plant.InertiaModel(), plant.ActuationModel()
    rng = np.random.default_rng(10)
    s = _random_state(rng)
    with pytest.raises(ocp.RegularityViolation):
        ocp.u_ddot(w0, model, act, s)
    with pytest.raises(ocp.RegularityViolation):
        ocp.necessary_rhs(w0, model, act, ocp.constant_reference(), 0.0, s)


def _chart_velocity_matrix(y, method):
    # columns of T(y): chart velocity produced by each body angular velocity axis,
    # ydot = T(y) xi for the curve g(t) = g0 retract(y(t))
    r = la.retract(y, method)
    return np.array([la.dretract_inv(y, r @ e, method) for e in np.eye(3)]).T


@pytest.mark.parametrize("method", ["cay", "exp"])
def test_chart_velocity_matrix_matches_fd(method):
    rng = np.random.default_rng(11)
    dt = 1e-6
    for _ in range(5):
        y = rng.normal(size=3) * 0.4
        xi = rng.normal(size=3)
        r = la.retract(y, method)
        yp = la.retract_inv(r @ la.exp_so3(dt * xi), method)
        ym = la.retract_inv(r @ la.exp_so3(-dt * xi), method)
        np.testing.assert_allclose(
            _chart_velocity_matrix(y, method) @ xi, (yp - ym) / (2 * dt), rtol=1e-7, atol=1e-9
        )


@pytest.mark.parametrize("method", ["cay", "exp"])
def test_pXi_rhs_matches_chart_oracle(method):
    # independent derivation of the attitude costate rate: write the extremal in
    # a local chart g = g0 retract(y), apply the vector-space costate equation
    # p_y' = -dH/dy there, and push back through p_xi = T(y)^T p_y at y = 0
    rng, w, model, act, ref = _setup(12)
    delta = 1e-5
    for _ in range(8):
        s = _random_state(rng)
        xi = s.Pi / plant.inertia_diag(model, s.u)
        g_d = ref.g_d(0.0)

        dT = (
            _chart_velocity_matrix(delta * xi, method)
            - _chart_velocity_matrix(-delta * xi, method)
        ) / (2.0 * delta)
        grad_psi = np.empty(3)
        grad_pair = np.empty(3)
        for i, e in enumerate(np.eye(3)):
            grad_psi[i] = (
                ocp.attitude_cost(s.g @ la.retract(delta * e, method), g_d)
                - ocp.attitude_cost(s.g @ la.retract(-delta * e, method), g_d)
            ) / (2.0 * delta)
            grad_pair[i] = (
                s.p_xi @ (_chart_velocity_matrix(delta * e, method) @ xi)
                - s.p_xi @ (_chart_velocity_matrix(-delta * e, method) @ xi)
            ) / (2.0 * delta)
        oracle = dT.T @ s.p_xi - w.c3 * grad_psi - grad_pair
        got = ocp.pXi_rhs(w, s.g, xi, s.p_xi, ref, 0.0)
        np.testing.assert_allclose(got, oracle, rtol=1e-5, atol=1e-7)


def test_coad_pairing_identity():
    # <p x xi, eta> = <p, xi x eta> for all eta: the coupling term is the
    # coadjoint of the body velocity
    rng = np.random.default_rng(13)
    for _ in range(30):
        p, xi, eta = rng.normal(size=(3, 3))
        np.testing.assert_allclose(
            np.cross(p, xi) @ eta, p @ np.cross(xi, eta), rtol=1e-12, atol=1e-12
        )
        np.testing.assert_allclose(la.coad(xi, p), np.cross(p, xi), atol=1e-15)


def test_first_constraint_check_behavior():
    rng, w, model, act, ref = _setup(15)
    s = _random_state(rng)
    tau = ocp.tau_star(w, act, s.p_Pi, s.u)
    r_tau, r_u = ocp.first_constraint_check(w, act, s, tau, -w.c1 * s.u_dot)
    assert r_tau < 1e-14 and r_u < 1e-14
    r_tau, r_u = ocp.first_constraint_check(w, act, s, tau + 0.1, -w.c1 * s.u_dot + 0.2)
    assert r_tau > 0.05 and abs(r_u - 0.2) < 1e-14


def test_necessary_rhs_equilibrium_is_stationary():
    w = ocp.CostWeights(c1=0.01, c2=1.0, c3=1.0, c4=0.1)
    model, act = plant.InertiaModel(), plant.ActuationModel()
    g_d = la.exp_so3(np.array([0.2, -0.1, 0.4]))
    ref = ocp.constant_reference(g_d=g_d)
    s = ocp.OCPState(g=g_d, Pi=np.zeros(3), u=0.3, u_dot=0.0, p_Pi=np.zeros(3), p_xi=np.zeros(3))
    out = ocp.necessary_rhs(w, model, act, ref, 0.0, s)
    for slot in out:
        np.testing.assert_allclose(slot, np.zeros_like(np.asarray(slot)), atol=1e-16)


def test_free_body_reduction_conserves_momentum_norm():
    # with c3 = c4 = 0 and zero costates the field reduces to free rigid-body
    # flow at constant fold angle
    w = ocp.CostWeights(c1=0.01, c2=1.0, c3=0.0, c4=0.0)
    model, act = plant.InertiaModel(), plant.ActuationModel()
    ref = ocp.constant_reference()
    rng = np.random.default_rng(16)
    for _ in range(10):
        s = ocp.OCPState(
            g=_random_rotation(rng),
            Pi=rng.normal(size=3) * 0.2,
            u=rng.uniform(plant.U_MIN + 0.1, plant.U_MAX - 0.1),
            u_dot=0.0,
            p_Pi=np.zeros(3),
            p_xi=np.zeros(3),
        )
        _, Pi_dot, u_dot, u_dd, p_Pi_dot, p_xi_dot = ocp.necessary_rhs(w, model, act, ref, 0.0, s)
        assert abs(s.Pi @ Pi_dot) < 1e-14
        assert u_dot == 0.0 and u_dd == 0.0
        np.testing.assert_allclose(p_Pi_dot, np.zeros(3), atol=1e-16)
        np.testing.assert_allclose(p_xi_dot, np.zeros(3), atol=1e-16)


def test_integrate_necessary_matches_solve_ivp():
    w, model, act, ref, s0 = _mild_case(17)
    h, n = 1e-3, 500
    traj = ocp.integrate_necessary(w, model, act, ref, s0, h, n)
    sol = solve_ivp(
        lambda t, y: ocp.necessary_rhs_flat(w, model, act, ref, t, y),
        (0.0, h * n),
        ocp.pack_state(s0),
        method="RK45",
        rtol=1e-11,
        atol=1e-13,
        dense_output=False,
    )
    np.testing.assert_allclose(
        ocp.pack_state(traj.state(n)), sol.y[:, -1], rtol=1e-7, atol=1e-9
    )


def test_integrate_necessary_is_fourth_order():
    w, model, act, ref, s0 = _mild_case(19)
    T = 0.4
    ends = []
    for h in (0.008, 0.004, 0.002):
        traj = ocp.integrate_necessary(w, model, act, ref, s0, h, int(round(T / h)))
        ends.append(ocp.pack_state(traj.state(-1)))
    e1 = np.linalg.norm(ends[0] - ends[1])
    e2 = np.linalg.norm(ends[1] - ends[2])
    assert 10.0 < e1 / e2 < 24.0


def test_hamiltonian_and_constraint_preserved_along_extremal():
    w, model, act, ref, s0 = _mild_case(21)
    traj = ocp.integrate_necessary(w, model, act, ref, s0, 5e-4, 1200)
    values = []
    for k in range(0, 1201, 100):
        s = traj.state(k)
        tau = ocp.tau_star(w, act, s.p_Pi, s.u)
        values.append(
            ocp.pontryagin_hamiltonian(
                w, model, act, ref, traj.times[k], s, tau, -w.c1 * s.u_dot
            )
        )
        r_tau, r_u = ocp.first_constraint_check(w, act, s, tau, -w.c1 * s.u_dot)
        assert r_tau < 1e-12 and r_u < 1e-12
    values = np.array(values)
    assert np.max(np.abs(values - values[0])) < 1e-8 * (1.0 + abs(values[0]))


def test_integrate_necessary_reorthonormalizes():
    # free-body reduction stays bounded forever, so it can run long enough to
    # cross several re-orthonormalization points
    w = ocp.CostWeights(c1=0.01, c2=1.0, c3=0.0, c4=0.0)
    model, act = plant.InertiaModel(), plant.ActuationModel()
    ref = ocp.constant_reference()
    s0 = ocp.OCPState(
        g=np.eye(3),
        Pi=np.array([0.3, 0.1, 0.25]),
        u=0.4,
        u_dot=0.0,
        p_Pi=np.zeros(3),
        p_xi=np.zeros(3),
    )
    traj = ocp.integrate_necessary(w, model, act, ref, s0, 1e-3, 5000)
    assert la.rotation_defect(traj.g[-1]) < 1e-9
    # momentum norm is a Casimir of the reduced flow
    np.testing.assert_allclose(
        np.linalg.norm(traj.Pi[-1]), np.linalg.norm(s0.Pi), rtol=1e-10
    )


def test_shooting_from_reference_costates_reduces_attitude_error():
    # canonical stabilization run: start rolled over, shoot with the tabulated
    # initial costates, and watch the tracking error shrink
    w = ocp.CostWeights(c1=0.01, c2=1.0, c3=1.0, c4=0.1)
    model, act = plant.InertiaModel(), plant.ActuationModel()
    ref = ocp.constant_reference()
    s0 = ocp.OCPState(
        g=la.exp_so3(np.array([1.0821, 0.0, 0.0])),
        Pi=np.zeros(3),
        u=np.pi / 4.0,
        u_dot=0.0,
        p_Pi=np.array([0.0752, 0.0091, 0.0049]),
        p_xi=np.array([0.0227, 0.0027, 0.0020]),
    )
    # the forward-shot extremal corrects the attitude over its initial arc
    # (and, like any single shooting run, leaves the stable manifold later)
    traj = ocp.integrate_necessary(w, model, act, ref, s0, 0.005, 120)
    c0 = ocp.attitude_cost(traj.g[0], np.eye(3))
    c1 = ocp.attitude_cost(traj.g[-1], np.eye(3))
    assert c1 < 0.1 * c0


def test_pack_unpack_roundtrip():
    rng = np.random.default_rng(25)
    s = _random_state(rng)
    back = ocp.unpack_state(ocp.pack_state(s))
    np.testing.assert_allclose(back.g, s.g, atol=0.0)
    np.testing.assert_allclose(back.Pi, s.Pi, atol=0.0)
    assert back.u == s.u and back.u_dot == s.u_dot
    np.testing.assert_allclose(back.p_Pi, s.p_Pi, atol=0.0)
    np.testing.assert_allclose(back.p_xi, s.p_xi, atol=0.0)


def test_necessary_rhs_slots_match_component_functions():
    rng, w, model, act, ref = _setup(26)
    for _ in range(10):
        s = _random_state(rng)
        g_dot, Pi_dot, u_dot, u_dd, p_Pi_dot, p_xi_dot = ocp.necessary_rhs(
            w, model, act, ref, 0.0, s
        )
        xi = s.Pi / plant.inertia_diag(model, s.u)
        tau = ocp.tau_star(w, act, s.p_Pi, s.u)
        np.testing.assert_allclose(g_dot, s.g @ la.hat(xi), atol=1e-15)
        np.testing.assert_allclose(
            Pi_dot, plant.lie_poisson_rhs(model, act, s.Pi, s.u, tau), atol=1e-15
        )
        assert u_dot == s.u_dot
        np.testing.assert_allclose(u_dd, ocp.u_ddot(w, model, act, s), rtol=1e-13)
        np.testing.assert_allclose(p_Pi_dot, ocp.pPi_rhs(w, model, ref, 0.0, s), atol=1e-15)
        np.testing.assert_allclose(
            p_xi_dot, ocp.pXi_rhs(w, s.g, xi, s.p_xi, ref, 0.0), atol=1e-15
        )
