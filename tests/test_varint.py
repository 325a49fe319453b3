import numpy as np
import pytest
from scipy.integrate import quad

from foldocp import liealg as la
from foldocp import ocp, plant, varint


def _models():
    w = ocp.CostWeights(c1=0.01, c2=1.0, c3=1.0, c4=0.1)
    return w, plant.InertiaModel(), plant.ActuationModel()


def _time_varying_reference():
    axis = np.array([0.3, -0.2, 0.93])
    axis = axis / np.linalg.norm(axis)
    return ocp.Reference(
        g_d=lambda t: la.exp_so3(0.4 * t * axis),
        Pi_d=lambda t: 0.05 * np.array([np.sin(t), 0.0, np.cos(t)]),
    )


def _random_trajectory(rng, n=4, h=0.05):
    grid = varint.GridSpec(h=h, n=n)
    g = [la.exp_so3(rng.normal(size=3) * 0.4)]
    for _ in range(n):
        g.append(g[-1] @ la.exp_so3(rng.normal(size=3) * 0.1))
    knots = [
        varint.DiscreteKnot(
            g=g[k],
            Pi=rng.normal(size=3) * 0.3,
            u=rng.uniform(-0.9, 0.9),
            tau=rng.normal(size=4) * 0.4,
        )
        for k in range(n + 1)
    ]
    mults = [
        varint.Multipliers(lam=rng.normal(size=3) * h, mu=rng.normal(size=3) * 0.3)
        for _ in range(n)
    ]
    return varint.DiscreteTrajectory(grid, knots, mults)


def _replace_knot(traj, k, **changes):
    knot = traj.knots[k]
    fields = {"g": knot.g, "Pi": knot.Pi, "u": knot.u, "tau": knot.tau}
    fields.update(changes)
    knots = list(traj.knots)
    knots[k] = varint.DiscreteKnot(**fields)
    return varint.DiscreteTrajectory(traj.grid, knots, traj.multipliers)


def _replace_mult(traj, k, **changes):
    m = traj.multipliers[k]
    fields = {"lam": m.lam, "mu": m.mu}
    fields.update(changes)
    mults = list(traj.multipliers)
    mults[k] = varint.Multipliers(**fields)
    return varint.DiscreteTrajectory(traj.grid, traj.knots, mults)


def test_grid_spec_validation():
    grid = varint.GridSpec(h=0.02, n=50)
    assert grid.t_final == pytest.approx(1.0)
    np.testing.assert_allclose(grid.times(), np.arange(51) * 0.02)
    for bad in (dict(h=0.0, n=5), dict(h=-0.1, n=5), dict(h=np.nan, n=5), dict(h=0.1, n=1)):
        with pytest.raises(ValueError):
            varint.GridSpec(**bad)


def test_knot_and_multiplier_validation():
    with pytest.raises(ValueError):
        varint.DiscreteKnot(g=np.eye(2), Pi=np.zeros(3), u=0.0, tau=np.zeros(4))
    with pytest.raises(ValueError):
        varint.DiscreteKnot(g=np.eye(3), Pi=np.zeros(3), u=np.nan, tau=np.zeros(4))
    with pytest.raises(ValueError):
        varint.Multipliers(lam=np.zeros(2), mu=np.zeros(3))
    with pytest.raises(ValueError):
        varint.Multipliers(lam=np.zeros(3), mu=np.array([1.0, np.inf, 0.0]))
    grid = varint.GridSpec(h=0.1, n=2)
    knot = varint.DiscreteKnot(g=np.eye(3), Pi=np.zeros(3), u=0.0, tau=np.zeros(4))
    mult = varint.Multipliers(lam=np.zeros(3), mu=np.zeros(3))
    with pytest.raises(ValueError):
        varint.DiscreteTrajectory(grid, [knot] * 2, [mult] * 2)
    with pytest.raises(ValueError):
        varint.DiscreteTrajectory(grid, [knot] * 3, [mult] * 3)


def test_trajectory_from_arrays_roundtrip():
    rng = np.random.default_rng(7)
    traj = _random_trajectory(rng, n=3, h=0.1)
    rebuilt = varint.trajectory_from_arrays(
        traj.grid,
        traj.g_stack(),
        traj.Pi_stack(),
        traj.u_stack(),
        traj.tau_stack(),
        traj.lam_stack(),
        traj.mu_stack(),
    )
    np.testing.assert_array_equal(rebuilt.g_stack(), traj.g_stack())
    np.testing.assert_array_equal(rebuilt.tau_stack(), traj.tau_stack())
    np.testing.assert_array_equal(rebuilt.lam_stack(), traj.lam_stack())


def _stacks(traj):
    return (traj.g_stack(), traj.Pi_stack(), traj.u_stack(), traj.tau_stack(),
            traj.lam_stack(), traj.mu_stack())


def test_trajectory_from_arrays_builds_knots_lazily_from_the_stacks():
    rng = np.random.default_rng(8)
    source = _random_trajectory(rng, n=4, h=0.1)
    traj = varint.trajectory_from_arrays(source.grid, *_stacks(source))
    assert "knots" not in vars(traj) and "multipliers" not in vars(traj)
    g, Pi, u, tau, lam, mu = _stacks(traj)
    assert len(traj.knots) == 5 and len(traj.multipliers) == 4
    assert traj.knots is traj.knots  # built once
    for k, knot in enumerate(traj.knots):
        np.testing.assert_array_equal(knot.g, g[k])
        np.testing.assert_array_equal(knot.Pi, Pi[k])
        np.testing.assert_array_equal(knot.tau, tau[k])
        assert knot.u == u[k] and type(knot.u) is float
    for k, m in enumerate(traj.multipliers):
        np.testing.assert_array_equal(m.lam, lam[k])
        np.testing.assert_array_equal(m.mu, mu[k])


def test_trajectory_stacks_are_copies_of_read_only_storage():
    rng = np.random.default_rng(9)
    source = _random_trajectory(rng, n=3, h=0.1)
    stacks = _stacks(source)
    traj = varint.trajectory_from_arrays(source.grid, *stacks)
    for a in stacks:  # the caller's arrays are copied in
        a[...] = 7.0
    before = _stacks(traj)
    for a in _stacks(traj):  # and the returned stacks are copies
        a[...] = -3.0
    for a, b, c in zip(before, _stacks(traj), _stacks(source)):
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(b, c)
    with pytest.raises(ValueError):
        traj.knots[0].g[0, 0] = 1.0
    with pytest.raises(AttributeError):
        traj.grid = varint.GridSpec(h=0.2, n=3)


@pytest.mark.parametrize("field, index, value, message", [
    ("tau", (2, 1), np.nan, "knot must be finite"),
    ("lam", (1, 0), np.inf, "multipliers must be finite"),
    ("g", None, np.zeros((4, 3, 2)), "knot shapes"),
    ("u", None, np.zeros((4, 1)), "knot shapes"),
    ("Pi", None, np.zeros((3, 3)), "knot shapes"),
    ("mu", None, np.zeros((4, 3)), "multipliers must be 3-vectors"),
])
def test_trajectory_from_arrays_rejects_bad_stacks(field, index, value, message):
    rng = np.random.default_rng(10)
    source = _random_trajectory(rng, n=3, h=0.1)
    names = ("g", "Pi", "u", "tau", "lam", "mu")
    stacks = dict(zip(names, _stacks(source)))
    if index is None:
        stacks[field] = value
    else:
        stacks[field][index] = value
    with pytest.raises(ValueError, match=message):
        varint.trajectory_from_arrays(source.grid, *(stacks[n] for n in names))


def test_reference_table_is_sampled_once_per_grid():
    ref = _time_varying_reference()
    grid = varint.GridSpec(h=0.05, n=6)
    g_d, Pi_d = varint.reference_table(ref, grid, 0.2)
    again = varint.reference_table(ref, grid, 0.2)
    assert again[0] is g_d and again[1] is Pi_d
    assert not g_d.flags.writeable and not Pi_d.flags.writeable
    for k in range(grid.n + 1):
        g, Pi = ref.sample(0.2 + k * grid.h)
        np.testing.assert_array_equal(g_d[k], g)
        np.testing.assert_array_equal(Pi_d[k], Pi)
    shifted = varint.reference_table(ref, grid, 0.3)
    finer = varint.reference_table(ref, varint.GridSpec(h=0.025, n=6), 0.2)
    longer = varint.reference_table(ref, varint.GridSpec(h=0.05, n=7), 0.2)
    for other in (shifted, finer):
        assert not np.array_equal(other[0][1:], g_d[1:])
    assert longer[0].shape == (8, 3, 3)
    np.testing.assert_array_equal(longer[0][:7], g_d)


def test_reference_table_rejects_an_off_group_attitude():
    skewed = np.eye(3)
    skewed[0, 1] = 1e-5  # orthonormality defect about 1.4e-5
    ref = ocp.Reference(
        g_d=lambda t: skewed if t > 0.1 else np.eye(3), Pi_d=lambda t: np.zeros(3)
    )
    with pytest.raises(la.TooFarFromGroup):
        varint.reference_table(ref, varint.GridSpec(h=0.05, n=4))
    assert not ref._tables


def test_free_dlp_step_axis_spin_is_stationary():
    # spin on the symmetry axis: the implicit solve returns the same rate
    # every step and the attitude advances by a fixed increment
    inertia = np.array([0.034, 0.034, 0.056])
    h = 0.01
    Pi = np.array([0.0, 0.0, 0.3])
    g = la.exp_so3(np.array([0.2, -0.1, 0.4]))
    inc = la.retract(h * Pi / inertia)
    g_expect = g.copy()
    for _ in range(50):
        g, Pi_new = varint.free_dlp_step(inertia, h, g, Pi)
        g_expect = g_expect @ inc
        np.testing.assert_allclose(Pi_new, Pi, rtol=0.0, atol=1e-15)
        Pi = Pi_new
    np.testing.assert_allclose(g, g_expect, atol=1e-12)


@pytest.mark.parametrize("method", ["cay", "exp"])
def test_free_dlp_transported_momentum_is_conserved(method):
    # the transported momentum is rotated between steps, never rescaled, so
    # its spatial image is a constant vector for any inertia
    inertia = np.array([0.030, 0.041, 0.056])
    h, n = 0.01, 2000
    g = la.exp_so3(np.array([0.3, 0.2, -0.5]))
    Pi = np.array([0.15, 0.05, 0.40])
    s0 = None
    norms = [np.linalg.norm(Pi)]
    for _ in range(n):
        g_next, Pi_next = varint.free_dlp_step(inertia, h, g, Pi, method)
        s = varint.discrete_spatial_momentum(inertia, h, g, Pi_next, method)
        if s0 is None:
            s0 = s
        else:
            np.testing.assert_allclose(s, s0, rtol=0.0, atol=1e-12)
        g, Pi = g_next, Pi_next
        norms.append(np.linalg.norm(Pi))
    norms = np.asarray(norms)
    band = np.abs(norms - norms[0]).max() / norms[0]
    # |Pi| itself is only conserved up to a bounded band at generic inertia
    assert 1e-9 < band < (h * np.linalg.norm(Pi / inertia)) ** 2


def test_free_dlp_symmetric_inertia_casimir_vs_rk4():
    # near-axis spin at symmetric transverse inertia: |Pi| is flat to
    # round-off while the classical one-step method drifts secularly
    inertia = np.array([0.034, 0.034, 0.056])
    h, n = 0.01, 5000
    Pi0 = np.array([0.02, 0.0, 0.30])
    _, hist = varint.free_dlp_run(inertia, np.eye(3), Pi0, h, n)
    norms = np.linalg.norm(hist, axis=1)
    drift_dlp = np.abs(norms - norms[0]).max() / norms[0]
    rk4 = plant.free_momentum_rk4(inertia, Pi0, h, n)
    rk4_norms = np.linalg.norm(rk4, axis=1)
    drift_rk4 = np.abs(rk4_norms - rk4_norms[0]).max() / rk4_norms[0]
    assert drift_dlp < 1e-12
    assert drift_rk4 > 1e3 * drift_dlp


@pytest.mark.parametrize("method", ["cay", "exp"])
def test_free_dlp_run_matches_stepwise(method):
    inertia = np.array([0.034, 0.034, 0.056])
    h = 0.01
    g0 = la.exp_so3(np.array([0.1, 0.7, -0.3]))
    Pi0 = np.array([0.15, 0.05, 0.40])
    g_fast, hist_fast = varint.free_dlp_run(
        inertia, g0, Pi0, h, 300, method, reorth_every=10**9
    )
    g, Pi = g0.copy(), Pi0.copy()
    hist = [Pi0]
    for _ in range(300):
        g, Pi = varint.free_dlp_step(inertia, h, g, Pi, method)
        hist.append(Pi)
    np.testing.assert_allclose(hist_fast, np.asarray(hist), rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(g_fast, g, atol=1e-13)


def _attitudes(integrator, reorth_every):
    # 30 steps of one attitude integrator from a tilted, tumbling start
    model, act = plant.InertiaModel(), plant.ActuationModel()
    g0, Pi0 = la.exp_so3(np.array([0.1, 0.7, -0.3])), np.array([0.05, -0.02, 0.04])
    if integrator == "plant.integrate":
        coast = plant.ControlInput(u=0.4, u_dot=0.0, tau=np.zeros(4))
        return plant.integrate(
            model, act, plant.PlantState(g0, Pi0), lambda t: coast, 0.0, 0.01, 30, reorth_every
        )[1]
    if integrator == "ocp.integrate_necessary":
        w = ocp.CostWeights(c1=0.01, c2=1.0, c3=0.0, c4=0.0)
        s0 = ocp.OCPState(g=g0, Pi=Pi0, u=0.4, u_dot=0.0, p_Pi=np.zeros(3), p_xi=np.zeros(3))
        return ocp.integrate_necessary(
            w, model, act, ocp.constant_reference(), s0, 0.01, 30, reorth_every=reorth_every
        ).g
    inertia = plant.inertia_diag(model, 0.4)
    return varint.free_dlp_run(inertia, g0, Pi0, 0.01, 30, reorth_every=reorth_every)[0]


@pytest.mark.parametrize(
    "integrator", ["plant.integrate", "ocp.integrate_necessary", "varint.free_dlp_run"]
)
def test_reorth_every_zero_means_never(integrator):
    # 0 switches re-orthonormalization off: the run equals one whose cadence
    # is never reached, while a cadence that is reached changes the attitude
    never = _attitudes(integrator, 10**9)
    np.testing.assert_array_equal(_attitudes(integrator, 0), never)
    assert not np.array_equal(_attitudes(integrator, 10), never)


@pytest.mark.parametrize("method", ["cay", "exp"])
def test_free_dlp_step_local_third_order(method):
    # one step differs from one classical step by O(h^3)
    inertia = np.array([0.030, 0.041, 0.056])
    Pi0 = np.array([0.25, -0.15, 0.35])
    errs = []
    for h in (0.02, 0.01):
        _, Pi_dlp = varint.free_dlp_step(inertia, h, np.eye(3), Pi0, method)
        Pi_rk4 = plant.free_momentum_rk4(inertia, Pi0, h, 1)[-1]
        errs.append(np.linalg.norm(Pi_dlp - Pi_rk4))
    assert 6.0 < errs[0] / errs[1] < 10.5


def test_free_dlp_no_convergence():
    inertia = np.array([0.034, 0.034, 0.056])
    with pytest.raises(varint.NoConvergence):
        varint.free_dlp_step(inertia, 5.0, np.eye(3), np.array([0.5, 0.4, 0.8]))
    with pytest.raises(varint.NoConvergence):
        varint.free_dlp_run(inertia, np.eye(3), np.array([0.5, 0.4, 0.8]), 5.0, 3)


def test_residual_phi4_out_of_chart():
    _, model, _ = _models()
    grid = varint.GridSpec(h=0.01, n=2)
    g = np.eye(3)
    g_half_turn = la.exp_so3(np.array([np.pi, 0.0, 0.0]))
    with pytest.raises(la.OutOfChart):
        varint.residual_phi4(
            model, grid, g, g_half_turn, np.zeros(3), np.zeros(3), 0.0, 0.0
        )


def _smooth_inputs():
    u_fn = lambda t: 0.2 + 0.3 * np.sin(1.3 * t + 0.4)
    tau_fn = lambda t: 0.1 * np.array(
        [np.sin(t), np.cos(2.0 * t), -np.sin(3.0 * t), np.cos(t)]
    )
    return u_fn, tau_fn


def _fine_reference_states(model, act, g0, Pi0, h_fine, n_fine):
    u_fn, tau_fn = _smooth_inputs()
    input_fn = lambda t: (u_fn(t), 0.0, tau_fn(t))
    state0 = plant.PlantState(g0, Pi0)
    return plant.integrate(model, act, state0, input_fn, 0.0, h_fine, n_fine)


def test_residuals_second_order_on_sampled_smooth_solution():
    _, model, act = _models()
    u_fn, tau_fn = _smooth_inputs()
    g0 = la.exp_so3(np.array([0.3, -0.2, 0.1]))
    Pi0 = np.array([0.2, -0.1, 0.3])
    h_fine = 1e-4
    _, gs, ps = _fine_reference_states(model, act, g0, Pi0, h_fine, 4000)
    sups = []
    for h in (0.02, 0.01):
        stride = round(h / h_fine)
        n = int(0.4 / h)
        grid = varint.GridSpec(h=h, n=n)
        sup = 0.0
        for k in range(n):
            i0, i1 = k * stride, (k + 1) * stride
            t0, t1 = k * h, (k + 1) * h
            r123 = varint.residual_phi123(
                model, act, grid, ps[i0], ps[i1], u_fn(t0), u_fn(t1),
                tau_fn(t0), tau_fn(t1),
            )
            r4 = varint.residual_phi4(
                model, grid, gs[i0], gs[i1], ps[i0], ps[i1], u_fn(t0), u_fn(t1)
            )
            sup = max(sup, np.abs(r123).max(), np.abs(r4).max() / h)
        sups.append(sup)
    assert 3.2 < sups[0] / sups[1] < 4.9


def test_feasible_trajectory_residuals_vanish():
    w, model, act = _models()
    u_fn, tau_fn = _smooth_inputs()
    grid = varint.GridSpec(h=0.02, n=25)
    knot0 = varint.DiscreteKnot(
        g=la.exp_so3(np.array([0.2, 0.1, -0.3])),
        Pi=np.array([0.2, -0.1, 0.3]),
        u=u_fn(0.0),
        tau=tau_fn(0.0),
    )
    knots = varint.feasible_trajectory(model, act, grid, knot0, u_fn, tau_fn)
    rng = np.random.default_rng(3)
    mults = [
        varint.Multipliers(lam=rng.normal(size=3) * 0.01, mu=rng.normal(size=3) * 0.1)
        for _ in range(grid.n)
    ]
    traj = varint.DiscreteTrajectory(grid, knots, mults)
    r123, r4 = varint.constraint_residuals(model, act, traj)
    assert np.abs(r123).max() < 1e-11
    assert np.abs(r4).max() < 1e-14
    ref = ocp.constant_reference()
    np.testing.assert_allclose(
        varint.extended_cost(w, ref, model, act, traj),
        -varint.total_cost(w, ref, traj),
        rtol=1e-9,
        atol=1e-12,
    )


def test_feasible_march_terminal_second_order():
    _, model, act = _models()
    u_fn, tau_fn = _smooth_inputs()
    g0 = la.exp_so3(np.array([0.3, -0.2, 0.1]))
    Pi0 = np.array([0.2, -0.1, 0.3])
    h_fine = 5e-4
    _, gs, ps = _fine_reference_states(model, act, g0, Pi0, h_fine, 800)
    g_ref, Pi_ref = gs[-1], ps[-1]
    errs = []
    for h in (0.02, 0.01):
        grid = varint.GridSpec(h=h, n=int(0.4 / h))
        knot0 = varint.DiscreteKnot(g=g0, Pi=Pi0, u=u_fn(0.0), tau=tau_fn(0.0))
        knots = varint.feasible_trajectory(model, act, grid, knot0, u_fn, tau_fn)
        errs.append(
            np.linalg.norm(la.log_so3(g_ref.T @ knots[-1].g))
            + np.linalg.norm(knots[-1].Pi - Pi_ref)
        )
    assert 3.5 < errs[0] / errs[1] < 4.5


def test_feasible_step_no_convergence():
    _, model, act = _models()
    grid = varint.GridSpec(h=0.02, n=2)
    knot = varint.DiscreteKnot(
        g=np.eye(3), Pi=np.array([5.0, -3.0, 4.0]), u=0.3, tau=np.zeros(4)
    )
    with pytest.raises(varint.NoConvergence):
        varint.feasible_step(model, act, grid, knot, 0.3, np.zeros(4), max_iter=1)


def test_discrete_cost_zero_on_reference():
    w, _, _ = _models()
    g_d = la.exp_so3(np.array([0.4, 0.0, -0.2]))
    Pi_d = np.array([0.1, 0.0, 0.05])
    ref = ocp.constant_reference(g_d=g_d, Pi_d=Pi_d)
    grid = varint.GridSpec(h=0.05, n=4)
    knot = varint.DiscreteKnot(g=g_d, Pi=Pi_d, u=0.3, tau=np.zeros(4))
    assert varint.discrete_cost(w, ref, grid, 1, knot, knot) == 0.0


def test_discrete_cost_single_fold_term():
    w = ocp.CostWeights(c1=0.7, c2=1.0, c3=0.0, c4=0.0)
    ref = ocp.constant_reference()
    grid = varint.GridSpec(h=0.04, n=4)
    a = varint.DiscreteKnot(g=np.eye(3), Pi=np.zeros(3), u=0.1, tau=np.zeros(4))
    b = varint.DiscreteKnot(g=np.eye(3), Pi=np.zeros(3), u=0.1 + 0.02, tau=np.zeros(4))
    np.testing.assert_allclose(
        varint.discrete_cost(w, ref, grid, 0, a, b),
        0.7 * 0.02**2 / (2.0 * 0.04),
        rtol=1e-14,
    )


def test_discrete_cost_frozen_composite():
    w = ocp.CostWeights(c1=0.2, c2=1.5, c3=2.0, c4=3.0)
    ref = ocp.constant_reference()
    grid = varint.GridSpec(h=0.1, n=2)
    g1 = la.exp_so3(np.array([0.0, 0.0, np.pi / 6.0]))
    a = varint.DiscreteKnot(
        g=np.eye(3), Pi=np.array([0.3, 0.0, 0.0]), u=0.2, tau=np.array([1.0, 0.0, 0.0, 0.0])
    )
    b = varint.DiscreteKnot(
        g=g1, Pi=np.zeros(3), u=0.5, tau=np.array([0.0, 2.0, 0.0, 0.0])
    )
    # halves assembled independently: fold 0.2*0.3^2/0.2; thrust
    # (h/4)*1.5*(1+4); attitude (h/2)*2.0*(0 + 4 sin^2(pi/6)); momentum
    # (h/4)*3.0*(0.09 + 0)
    expected = (
        0.2 * 0.3**2 / (2.0 * 0.1)
        + 0.025 * 1.5 * (1.0 + 4.0)
        + 0.05 * 2.0 * (0.0 + 4.0 * np.sin(np.pi / 6.0) ** 2)
        + 0.025 * 3.0 * 0.09
    )
    np.testing.assert_allclose(
        varint.discrete_cost(w, ref, grid, 0, a, b), expected, rtol=1e-13
    )


def test_discrete_cost_sum_matches_integral_at_second_order():
    w, _, _ = _models()
    ref = _time_varying_reference()
    axis = np.array([0.2, 0.5, -0.8])
    axis = axis / np.linalg.norm(axis)
    u_fn, tau_fn = _smooth_inputs()
    g_fn = lambda t: la.exp_so3(0.5 * np.sin(t) * axis)
    Pi_fn = lambda t: 0.2 * np.array([np.cos(t), np.sin(2.0 * t), 0.5])
    du_fn = lambda t: 0.3 * 1.3 * np.cos(1.3 * t + 0.4)

    def running(t):
        return ocp.running_cost(
            w, ref, t, g_fn(t), Pi_fn(t), u_fn(t), du_fn(t), tau_fn(t)
        )

    exact, _ = quad(running, 0.0, 0.8, limit=200, epsabs=1e-13, epsrel=1e-13)
    errs = []
    for h in (0.04, 0.02):
        n = int(0.8 / h)
        grid = varint.GridSpec(h=h, n=n)
        knots = [
            varint.DiscreteKnot(
                g=g_fn(k * h), Pi=Pi_fn(k * h), u=u_fn(k * h), tau=tau_fn(k * h)
            )
            for k in range(n + 1)
        ]
        total = sum(
            varint.discrete_cost(w, ref, grid, k, knots[k], knots[k + 1])
            for k in range(n)
        )
        errs.append(abs(total - exact))
    assert 3.4 < errs[0] / errs[1] < 4.7


def _fd_extended(w, ref, model, act, traj, method, rebuild, eps):
    c_plus = varint.extended_cost(w, ref, model, act, rebuild(eps), method)
    c_minus = varint.extended_cost(w, ref, model, act, rebuild(-eps), method)
    return (c_plus - c_minus) / (2.0 * eps)


@pytest.mark.parametrize("method", ["cay", "exp"])
def test_kkt_residuals_match_fd_of_extended_cost(method):
    # defining contract: every stationarity component is the derivative of
    # the scalar extended cost
    rng = np.random.default_rng(29)
    w, model, act = _models()
    ref = _time_varying_reference()
    traj = _random_trajectory(rng, n=4, h=0.05)
    out = varint.kkt_residuals_exact(w, ref, model, act, traj, method)
    eps = 1e-5
    n = traj.grid.n
    for k in range(n + 1):
        knot = traj.knots[k]
        for i in range(3):
            step = np.zeros(3)
            step[i] = 1.0
            fd = _fd_extended(
                w, ref, model, act, traj, method,
                lambda e: _replace_knot(traj, k, Pi=knot.Pi + e * step), eps,
            )
            np.testing.assert_allclose(out["d_Pi"][k][i], fd, rtol=2e-6, atol=1e-7)
            fd = _fd_extended(
                w, ref, model, act, traj, method,
                lambda e: _replace_knot(traj, k, g=knot.g @ la.retract(e * step, method)),
                eps,
            )
            np.testing.assert_allclose(out["d_g"][k][i], fd, rtol=2e-6, atol=1e-7)
        fd = _fd_extended(
            w, ref, model, act, traj, method,
            lambda e: _replace_knot(traj, k, u=knot.u + e), eps,
        )
        np.testing.assert_allclose(out["d_u"][k], fd, rtol=2e-6, atol=1e-7)
        for i in range(4):
            step = np.zeros(4)
            step[i] = 1.0
            fd = _fd_extended(
                w, ref, model, act, traj, method,
                lambda e: _replace_knot(traj, k, tau=knot.tau + e * step), eps,
            )
            np.testing.assert_allclose(out["d_tau"][k][i], fd, rtol=2e-6, atol=1e-7)
    for k in range(n):
        m = traj.multipliers[k]
        for i in range(3):
            step = np.zeros(3)
            step[i] = 1.0
            fd = _fd_extended(
                w, ref, model, act, traj, method,
                lambda e: _replace_mult(traj, k, lam=m.lam + e * step), eps,
            )
            np.testing.assert_allclose(out["phi123"][k][i], fd, rtol=2e-6, atol=1e-7)
            fd = _fd_extended(
                w, ref, model, act, traj, method,
                lambda e: _replace_mult(traj, k, mu=m.mu + e * step), eps,
            )
            np.testing.assert_allclose(out["phi4"][k][i], fd, rtol=2e-6, atol=1e-7)


# ---------------------------------------------------------------------------
# interval-at-a-time oracle for the stacked stationarity kernel


def _dretract_inv_matrix(x, method):
    # matrix of v -> dretract_inv(x, v)
    x = np.asarray(x, dtype=float)
    if method == "cay":
        half = 0.5 * x
        return np.eye(3) - la.hat(half) + np.outer(half, half)
    cols = la.dretract_inv(x[None, :].repeat(3, axis=0), np.eye(3), method)
    return cols.T


def _interval_partials(w, model, act, grid, k, knot_a, knot_b, ref, method, t0=0.0):
    """Derivatives of <lam, Phi123> + <mu, Phi4> - C_d for one interval.

    Returns per-end dictionaries keyed by the unknown; the g entries are
    left-trivialized (directional derivative along g retract(s eta)).
    """
    h = grid.h
    out = []
    x = la.retract_inv(knot_a.g.T @ knot_b.g, method)
    dri = _dretract_inv_matrix(x, method)
    f_ab = knot_a.g.T @ knot_b.g
    for end, knot, t in ((0, knot_a, t0 + k * h), (1, knot_b, t0 + (k + 1) * h)):
        i_d = plant.inertia_diag(model, knot.u)
        di_inv = plant.d_inertia_inv_du_diag(model, knot.u)
        omega = knot.Pi / i_d
        bmat = plant.torque_matrix(act, knot.u)
        dbmat = plant.d_torque_matrix_du(act, knot.u)
        sgn = -1.0 if end == 0 else 1.0
        # d Phi123 / d Pi = sgn/h + (1/2) d(omega x Pi)/dPi
        m = -la.hat(knot.Pi) / i_d[None, :] + la.hat(omega)
        d123_dPi = sgn * np.eye(3) / h + 0.5 * m
        d123_du = 0.5 * np.cross(di_inv * knot.Pi, knot.Pi) - 0.5 * (dbmat @ knot.tau)
        d123_dtau = -0.5 * bmat
        d4_dPi = -0.5 * h * np.diag(1.0 / i_d)
        d4_du = -0.5 * h * di_inv * knot.Pi
        g_d, Pi_d = ref.sample(t)
        du_quot = (knot_b.u - knot_a.u) / h
        # cost partials (trapezoidal halves carry h/2 weights)
        dc_dPi = 0.5 * h * w.c4 * (knot.Pi - Pi_d)
        dc_dtau = 0.5 * h * w.c2 * knot.tau
        dc_du = sgn * w.c1 * du_quot
        dc_dg = 0.5 * h * w.c3 * ocp.attitude_cost_gradient(knot.g, g_d)
        if end == 0:
            d4_dg = -dri.T
        else:
            d4_dg = (dri @ f_ab).T
        out.append(
            {
                "dPi": (d123_dPi, d4_dPi, dc_dPi),
                "du": (d123_du, d4_du, dc_du),
                "dtau": (d123_dtau, dc_dtau),
                "dg": (d4_dg, dc_dg),
            }
        )
    return out


def _kkt_residuals_loop(w, ref, model, act, traj, method="cay", t0=0.0):
    """Interval-at-a-time reference for varint.kkt_residuals_exact (any
    chart)."""
    n = traj.grid.n
    d_g = np.zeros((n + 1, 3))
    d_Pi = np.zeros((n + 1, 3))
    d_u = np.zeros(n + 1)
    d_tau = np.zeros((n + 1, 4))
    phi123, phi4 = varint.constraint_residuals(model, act, traj, method)
    for k in range(n):
        a, b = traj.knots[k], traj.knots[k + 1]
        lam = traj.multipliers[k].lam
        mu = traj.multipliers[k].mu
        parts = _interval_partials(
            w, model, act, traj.grid, k, a, b, ref, method, t0
        )
        for end, idx in ((0, k), (1, k + 1)):
            p = parts[end]
            d123_dPi, d4_dPi, dc_dPi = p["dPi"]
            d_Pi[idx] += d123_dPi.T @ lam + d4_dPi.T @ mu - dc_dPi
            d123_du, d4_du, dc_du = p["du"]
            d_u[idx] += lam @ d123_du + mu @ d4_du - dc_du
            d123_dtau, dc_dtau = p["dtau"]
            d_tau[idx] += d123_dtau.T @ lam - dc_dtau
            d4_dg, dc_dg = p["dg"]
            d_g[idx] += d4_dg @ mu - dc_dg
    return {
        "d_g": d_g,
        "d_Pi": d_Pi,
        "d_u": d_u,
        "d_tau": d_tau,
        "phi123": phi123,
        "phi4": phi4,
    }


@pytest.mark.parametrize("method", ["cay", "exp"])
def test_kkt_batched_matches_loop_reference(method):
    # the stacked kernel and the interval-at-a-time reference are the same
    # map, down to round-off
    rng = np.random.default_rng(77)
    w, model, act = _models()
    ref = _time_varying_reference()
    for trial in range(5):
        traj = _random_trajectory(rng, n=6, h=0.04)
        t0 = 0.3 * trial
        fast = varint.kkt_residuals_exact(w, ref, model, act, traj, method, t0=t0)
        slow = _kkt_residuals_loop(w, ref, model, act, traj, method, t0=t0)
        for key in ("d_g", "d_Pi", "d_u", "d_tau", "phi123", "phi4"):
            np.testing.assert_allclose(fast[key], slow[key], rtol=0, atol=1e-13)


@pytest.mark.parametrize("method", ["cay", "exp"])
@pytest.mark.parametrize("weighted", [False, True])
def test_kernel_batch_equals_separate_calls(method, weighted):
    # a (B, n+1, ...) stack evaluates B trajectories in one call, bit for bit
    rng = np.random.default_rng(91)
    w, model, act = _models()
    trajs = [_random_trajectory(rng, n=5, h=0.04) for _ in range(3)]
    table = varint.reference_table(_time_varying_reference(), trajs[0].grid)

    def args(stacks, lam, mu):
        extra = (w, lam, mu, table) if weighted else ()
        return (model, act, 0.04, *stacks, method, *extra)

    batch = varint._kernel(*args(
        [np.stack(s) for s in zip(*(varint._knot_stacks(t) for t in trajs))],
        np.stack([t.lam_stack() for t in trajs]),
        np.stack([t.mu_stack() for t in trajs]),
    ))
    assert set(batch) == ({"phi123", "phi4", "d_g", "d_Pi", "d_u", "d_tau"}
                          if weighted else {"phi123", "phi4"})
    for b, t in enumerate(trajs):
        single = varint._kernel(*args(varint._knot_stacks(t), t.lam_stack(), t.mu_stack()))
        for key, value in single.items():
            np.testing.assert_array_equal(batch[key][b], value)


def test_kkt_zero_on_equilibrium_two_step_toy():
    w, model, act = _models()
    g_d = la.exp_so3(np.array([0.3, 0.1, -0.2]))
    ref = ocp.constant_reference(g_d=g_d)
    grid = varint.GridSpec(h=0.1, n=2)
    knot = varint.DiscreteKnot(g=g_d, Pi=np.zeros(3), u=0.4, tau=np.zeros(4))
    mult = varint.Multipliers(lam=np.zeros(3), mu=np.zeros(3))
    traj = varint.DiscreteTrajectory(grid, [knot] * 3, [mult] * 2)
    out = varint.kkt_residuals_exact(w, ref, model, act, traj)
    for key in ("d_g", "d_Pi", "d_u", "d_tau", "phi123", "phi4"):
        np.testing.assert_allclose(out[key], 0.0, atol=1e-15)


def test_tau_k_star_frozen_and_closes_the_block():
    w = ocp.CostWeights(c1=0.01, c2=1.0, c3=1.0, c4=0.1)
    act = plant.ActuationModel()
    tau = varint.tau_k_star(w, act, np.array([0.0, 0.0, 1.0]), 0.37)
    np.testing.assert_allclose(
        tau, -act.l * act.kappa2 * np.array([1.0, -1.0, 1.0, -1.0]), rtol=1e-14
    )
    # consistency with the continuous closed form under the same multiplier
    p = np.array([0.3, -0.2, 0.5])
    np.testing.assert_allclose(
        varint.tau_k_star(w, act, p, 0.37), ocp.tau_star(w, act, p, 0.37), rtol=1e-14
    )
    rng = np.random.default_rng(5)
    _, model, _ = _models()
    ref = _time_varying_reference()
    traj = _random_trajectory(rng, n=4, h=0.05)
    knots = [
        varint.DiscreteKnot(
            g=knot.g,
            Pi=knot.Pi,
            u=knot.u,
            tau=varint.tau_k_star(w, act, varint.effective_lambda(traj, k), knot.u),
        )
        for k, knot in enumerate(traj.knots)
    ]
    closed = varint.DiscreteTrajectory(traj.grid, knots, traj.multipliers)
    out = varint.kkt_residuals_exact(w, ref, model, act, closed)
    np.testing.assert_allclose(out["d_tau"], 0.0, atol=1e-14)


def test_fold_cross_derivative_block_is_c1_over_h():
    # the only coupling between adjacent fold angles in the extended cost is
    # the difference quotient, so the mixed second derivative is exactly c1/h
    rng = np.random.default_rng(17)
    w, model, act = _models()
    ref = _time_varying_reference()
    for h in (0.05, 0.025):
        traj = _random_trajectory(rng, n=4, h=h)
        eps = 1e-4
        k = 2
        vals = np.empty((2, 2))
        for a, sa in enumerate((eps, -eps)):
            for b, sb in enumerate((eps, -eps)):
                bumped = _replace_knot(traj, k, u=traj.knots[k].u + sa)
                bumped = _replace_knot(bumped, k + 1, u=bumped.knots[k + 1].u + sb)
                vals[a, b] = varint.extended_cost(w, ref, model, act, bumped)
        mixed = (vals[0, 0] - vals[0, 1] - vals[1, 0] + vals[1, 1]) / (4.0 * eps**2)
        np.testing.assert_allclose(mixed, w.c1 / h, rtol=1e-5)


def _sampled_extremal_trajectory(h, n, h_fine, w, model, act, ref, s0):
    stride = round(h / h_fine)
    ext = ocp.integrate_necessary(w, model, act, ref, s0, h_fine, n * stride)
    knots = []
    for k in range(n + 1):
        i = k * stride
        knots.append(
            varint.DiscreteKnot(
                g=ext.g[i],
                Pi=ext.Pi[i],
                u=ext.u[i],
                tau=ocp.tau_star(w, act, ext.p_Pi[i], ext.u[i]),
            )
        )
    mults = []
    for k in range(n):
        i = k * stride + stride // 2
        mults.append(varint.Multipliers(lam=h * ext.p_Pi[i], mu=ext.p_xi[i]))
    grid = varint.GridSpec(h=h, n=n)
    return varint.DiscreteTrajectory(grid, knots, mults)


def test_interior_rows_vanish_at_third_order_on_extremals():
    # knots and midpoint costates sampled from a continuous extremal satisfy
    # the interior stationarity rows to O(h^3)
    rng = np.random.default_rng(23)
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
    h_fine = 1e-3
    sups = []
    for h in (0.04, 0.02):
        n = int(0.32 / h)
        traj = _sampled_extremal_trajectory(h, n, h_fine, w, model, act, ref, s0)
        out = varint.kkt_residuals_exact(w, ref, model, act, traj)
        interior = slice(1, n)
        sups.append(
            max(
                np.abs(out["d_Pi"][interior]).max(),
                np.abs(out["d_g"][interior]).max(),
                np.abs(out["d_u"][interior]).max(),
                np.abs(out["d_tau"][interior]).max(),
            )
        )
    assert sups[1] < sups[0] / 4.5
    assert sups[0] < 1e-2
