"""Tests for the Newton and marching solvers on the stationarity system."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldocp import liealg as la
from foldocp import ocp, plant, solver, varint


def _models(c1=0.01):
    w = ocp.CostWeights(c1=c1, c2=1.0, c3=1.0, c4=0.1)
    return w, plant.InertiaModel(), plant.ActuationModel()


def _problem(n, h, ref=None, c1=0.01):
    w, model, act = _models(c1)
    ref = ref or ocp.constant_reference()
    return solver.Problem(w, ref, model, act, varint.GridSpec(h=h, n=n))


def _tilted_bc(angle=0.3, u0=0.3, mode="fixed_endpoints"):
    g0 = la.exp_so3(np.array([angle, 0.0, 0.0]))
    if mode == "fixed_endpoints":
        return solver.BoundaryConditions(
            mode=mode,
            g0=g0, Pi0=np.zeros(3), u0=u0,
            gN=np.eye(3), PiN=np.zeros(3), uN=u0,
        )
    return solver.BoundaryConditions(mode=mode, g0=g0, Pi0=np.zeros(3), u0=u0)


def _yaw_ramp_reference(yaw_final, t_final):
    # constant-rate yaw sweep with the matching body momentum
    model = plant.InertiaModel()
    rate = yaw_final / t_final

    def g_d(t):
        return la.exp_so3(np.array([0.0, 0.0, rate * min(t, t_final)]))

    def pi_d(t):
        u = 0.3
        return plant.inertia_diag(model, u) * np.array([0.0, 0.0, rate])

    return ocp.Reference(g_d=g_d, Pi_d=pi_d)


def _random_trajectory(rng, n, h):
    knots = []
    g = la.exp_so3(rng.normal(size=3) * 0.2)
    for _ in range(n + 1):
        knots.append(
            varint.DiscreteKnot(
                g=g,
                Pi=rng.normal(size=3) * 0.2,
                u=0.3 + 0.2 * rng.normal(),
                tau=rng.normal(size=4) * 0.1,
            )
        )
        g = g @ la.retract(rng.normal(size=3) * 0.05)
    mults = [
        varint.Multipliers(lam=rng.normal(size=3) * h, mu=rng.normal(size=3) * 0.2)
        for _ in range(n)
    ]
    return varint.DiscreteTrajectory(varint.GridSpec(h=h, n=n), knots, mults)


# ---------------------------------------------------------------------------
# configuration and boundary data


def test_solver_config_validation():
    with pytest.raises(ValueError):
        solver.SolverConfig(tol_residual=0.0)
    with pytest.raises(ValueError):
        solver.SolverConfig(max_iter=0)
    with pytest.raises(ValueError):
        solver.SolverConfig(armijo_c=1.5)
    with pytest.raises(ValueError):
        solver.SolverConfig(backtrack=0.0)
    cfg = solver.SolverConfig(max_iter=17.0)
    assert cfg.max_iter == 17


def test_boundary_conditions_validation():
    g = np.eye(3)
    z = np.zeros(3)
    with pytest.raises(ValueError):
        solver.BoundaryConditions(mode="periodic", g0=g, Pi0=z, u0=0.3)
    # missing required field
    with pytest.raises(ValueError):
        solver.BoundaryConditions(mode="fixed_endpoints", g0=g, Pi0=z, u0=0.3)
    # field that does not belong to the mode
    with pytest.raises(ValueError):
        solver.BoundaryConditions(
            mode="free_terminal", g0=g, Pi0=z, u0=0.3, gN=g
        )
    with pytest.raises(la.TooFarFromGroup):
        solver.BoundaryConditions(
            mode="free_terminal", g0=2.0 * g, Pi0=z, u0=0.3
        )
    with pytest.raises(ValueError):
        solver.BoundaryConditions(
            mode="free_terminal", g0=g, Pi0=np.array([1.0, np.nan, 0.0]), u0=0.3
        )
    bc = solver.BoundaryConditions(
        mode="initial_costate", g0=g, Pi0=z, u0=0.3, u_dot0=0.1,
        p_Pi0=np.array([0.1, 0.0, 0.0]), p_xi0=z,
    )
    assert bc.u_dot0 == 0.1


# ---------------------------------------------------------------------------
# packing and masks


def test_pack_unpack_roundtrip():
    rng = np.random.default_rng(3)
    traj = _random_trajectory(rng, n=4, h=0.05)
    v = solver.pack(traj)
    back = solver.unpack(traj, v)
    for a, b in zip(traj.knots, back.knots):
        np.testing.assert_allclose(b.g, a.g, rtol=0, atol=0)
        np.testing.assert_allclose(b.Pi, a.Pi, rtol=0, atol=0)
        assert b.u == a.u
        np.testing.assert_allclose(b.tau, a.tau, rtol=0, atol=0)
    for a, b in zip(traj.multipliers, back.multipliers):
        np.testing.assert_allclose(b.lam, a.lam, rtol=0, atol=0)
        np.testing.assert_allclose(b.mu, a.mu, rtol=0, atol=0)


def test_unpack_applies_chart_increments():
    rng = np.random.default_rng(4)
    traj = _random_trajectory(rng, n=3, h=0.05)
    v = solver.pack(traj)
    delta = np.array([0.02, -0.01, 0.03])
    v[0:3] = delta
    moved = solver.unpack(traj, v)
    np.testing.assert_allclose(
        moved.knots[0].g, traj.knots[0].g @ la.retract(delta), atol=1e-15
    )
    np.testing.assert_allclose(moved.knots[1].g, traj.knots[1].g, atol=0)


def test_unpack_rejects_out_of_chart():
    rng = np.random.default_rng(5)
    traj = _random_trajectory(rng, n=2, h=0.05)
    v = solver.pack(traj)
    v[solver._PAIR_WIDTH + 0] = solver.CHART_RADIUS + 0.1
    with pytest.raises(la.OutOfChart):
        solver.unpack(traj, v)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(0.0, 0.99),
    k=st.integers(0, 6),
    axis=st.integers(0, 2),
)
def test_unpack_is_one_retraction_per_knot(n, seed, scale, k, axis):
    rng = np.random.default_rng(seed)
    base = _random_trajectory(rng, n, h=0.05)
    v = solver.pack(base) + 0.1 * rng.normal(size=solver._total_size(n))
    delta = rng.normal(size=(n + 1, 3))
    delta *= (scale * solver.CHART_RADIUS * rng.random(n + 1)
              / np.linalg.norm(delta, axis=1))[:, None]
    slots = solver._PAIR_WIDTH * np.arange(n + 1)[:, None] + np.arange(3)
    v[slots] = delta
    moved = solver.unpack(base, v)
    for j, (a, b) in enumerate(zip(base.knots, moved.knots)):
        np.testing.assert_allclose(b.g, a.g @ la.retract(delta[j]), rtol=0, atol=1e-14)
    zeroed = v.copy()
    zeroed[slots] = 0.0
    np.testing.assert_array_equal(solver.pack(moved), zeroed)
    # an increment exactly at the chart radius is rejected, naming its knot
    k %= n + 1
    v[slots[k]] = 0.0
    v[slots[k, axis]] = solver.CHART_RADIUS
    with pytest.raises(la.OutOfChart, match=f"at knot {k} "):
        solver.unpack(base, v)


@pytest.mark.parametrize(
    "mode,extra",
    [("fixed_endpoints", -3), ("free_terminal", 4), ("initial_costate", 4)],
)
def test_masked_system_is_square(mode, extra):
    n = 6
    grid = varint.GridSpec(h=0.05, n=n)
    if mode == "fixed_endpoints":
        bc = _tilted_bc(mode=mode)
    elif mode == "free_terminal":
        bc = _tilted_bc(mode=mode)
    else:
        bc = solver.BoundaryConditions(
            mode=mode, g0=np.eye(3), Pi0=np.zeros(3), u0=0.3,
            u_dot0=0.0, p_Pi0=np.zeros(3), p_xi0=np.zeros(3),
        )
    rows, cols = solver._masks(grid.n, bc.mode)
    assert rows.sum() == cols.sum() == 17 * n + extra


# ---------------------------------------------------------------------------
# finite-difference Jacobian


@pytest.mark.parametrize("n", [2, 4, 7])
@pytest.mark.parametrize("mode", ["fixed_endpoints", "free_terminal", "initial_costate"])
def test_colored_jacobian_matches_dense(mode, n):
    # several grid sizes per mode, so a pattern cached for the wrong
    # (n, mode) cannot pass
    rng = np.random.default_rng(11)
    h = 0.05
    prob = _problem(n, h)
    traj = _random_trajectory(rng, n, h)
    if mode == "initial_costate":
        bc = solver.BoundaryConditions(
            mode=mode, g0=traj.knots[0].g, Pi0=traj.knots[0].Pi,
            u0=traj.knots[0].u, u_dot0=0.1,
            p_Pi0=np.array([0.05, 0.01, 0.0]), p_xi0=np.array([0.02, 0.0, 0.0]),
        )
    else:
        bc = _tilted_bc(mode=mode)
    base = solver._project_bc(traj, bc, prob.grid)
    sparse = solver.jacobian_fd(prob, base, bc, colored=True)
    dense = solver.jacobian_fd(prob, base, bc, colored=False)
    # the colored sweep must reproduce the dense reference exactly: every
    # entry off the assumed pattern is identically zero
    np.testing.assert_allclose(sparse.toarray(), dense, rtol=0, atol=0)


def test_batched_residual_names_the_knot_leaving_the_chart():
    rng = np.random.default_rng(13)
    n, h = 4, 0.05
    prob = _problem(n, h)
    traj = _random_trajectory(rng, n, h)
    g, v = traj.g_stack(), solver.pack(traj)
    copies = np.tile(v, (3, 1))
    single = solver._full_residual(prob, g, v)
    np.testing.assert_array_equal(solver._full_residual(prob, g, copies)[1], single)
    # one copy of the batch puts knot 2 past the chart radius
    copies[1, solver._PAIR_WIDTH * 2 + 1] = solver.CHART_RADIUS + 0.01
    with pytest.raises(la.OutOfChart, match="at knot 2 "):
        solver._full_residual(prob, g, copies)


# ---------------------------------------------------------------------------
# Newton solve


def test_newton_converges_on_tilted_start():
    n, h = 20, 0.02
    prob = _problem(n, h)
    bc = _tilted_bc(angle=0.3)
    guess = solver.initial_guess(bc, prob.ref, prob.grid)
    traj, report = solver.newton_solve(prob, guess, bc)
    assert report["residuals"][-1] < 1e-9
    assert report["unknowns"] == 17 * n - 3
    # quadratic tail: the last contraction is much stronger than linear
    r = report["residuals"]
    assert r[-1] < 1e-5 * r[-2]
    # endpoints pinned verbatim
    np.testing.assert_allclose(traj.knots[0].g, bc.g0, atol=0)
    np.testing.assert_allclose(traj.knots[-1].g, bc.gN, atol=0)
    assert traj.knots[0].u == bc.u0


def test_solve_and_cost_build_no_knot_objects(monkeypatch):
    # the hot path runs on stacks: knot objects appear only when read
    built = []
    post_init = varint.DiscreteKnot.__post_init__
    monkeypatch.setattr(
        varint.DiscreteKnot, "__post_init__",
        lambda knot: built.append(1) or post_init(knot),
    )
    n, h = 10, 0.02
    prob = _problem(n, h, ref=_yaw_ramp_reference(0.3, n * h))
    bc = _tilted_bc(angle=0.2, mode="free_terminal")
    guess = solver.initial_guess(bc, prob.ref, prob.grid)
    traj, _ = solver.newton_solve(prob, guess, bc)
    v = solver.pack(traj)
    cost = varint.extended_cost(
        prob.w, prob.ref, prob.model, prob.act, solver.unpack(traj, v + 1e-3)
    )
    assert np.isfinite(cost)
    assert not built
    assert len(traj.knots) == n + 1
    assert len(built) == n + 1


def test_newton_already_converged_takes_no_steps():
    n, h = 10, 0.02
    prob = _problem(n, h)
    bc = _tilted_bc(angle=0.2)
    guess = solver.initial_guess(bc, prob.ref, prob.grid)
    traj, _ = solver.newton_solve(prob, guess, bc)
    again, report = solver.newton_solve(prob, traj, bc)
    assert report["iterations"] == 0
    np.testing.assert_allclose(solver.pack(again), solver.pack(traj), atol=0)


def test_newton_c1_zero_is_singular():
    prob = _problem(8, 0.02, c1=0.0)
    bc = _tilted_bc(angle=0.1)
    guess = solver.initial_guess(bc, prob.ref, prob.grid)
    with pytest.raises(solver.SingularJacobian):
        solver.newton_solve(prob, guess, bc)


def test_newton_equilibrium_is_fixed_point():
    # start at the reference with zero momentum: the guess already solves the
    # system, so the residual is at round-off before any step
    n, h = 6, 0.02
    prob = _problem(n, h)
    bc = solver.BoundaryConditions(
        mode="fixed_endpoints",
        g0=np.eye(3), Pi0=np.zeros(3), u0=0.3,
        gN=np.eye(3), PiN=np.zeros(3), uN=0.3,
    )
    guess = solver.initial_guess(bc, prob.ref, prob.grid)
    traj, report = solver.newton_solve(prob, guess, bc)
    assert report["iterations"] == 0
    assert report["residuals"][0] < 1e-12


def test_newton_free_terminal_settles_to_reference():
    n, h = 30, 0.05
    prob = _problem(n, h)
    bc = _tilted_bc(angle=0.4, mode="free_terminal")
    guess = solver.initial_guess(bc, prob.ref, prob.grid)
    traj, report = solver.newton_solve(prob, guess, bc)
    assert report["residuals"][-1] < 1e-9
    err0 = np.linalg.norm(traj.knots[0].g - np.eye(3))
    errN = np.linalg.norm(traj.knots[-1].g - np.eye(3))
    assert errN < 0.2 * err0


def test_newton_gradient_contract_at_solution():
    # at convergence, central differences of the extended cost with respect
    # to every unknown vanish to the gradient-contract tolerance
    n, h = 10, 0.02
    prob = _problem(n, h)
    bc = _tilted_bc(angle=0.3)
    guess = solver.initial_guess(bc, prob.ref, prob.grid)
    traj, _ = solver.newton_solve(prob, guess, bc)
    cost = varint.extended_cost(prob.w, prob.ref, prob.model, prob.act, traj)
    scale = 1e-6 * (1.0 + abs(cost))
    rows, _ = solver._masks(prob.grid.n, bc.mode)
    out = solver.assemble_residual(prob, traj, bc)
    assert np.abs(out).max() < scale


# ---------------------------------------------------------------------------
# continuation


def test_continuation_matches_plain_newton_on_mild_problem():
    n, h = 12, 0.02
    prob = _problem(n, h)
    bc = _tilted_bc(angle=0.25)
    guess = solver.initial_guess(bc, prob.ref, prob.grid)
    direct, _ = solver.newton_solve(prob, guess, bc)
    staged, report = solver.continuation_solve(prob, bc, stages=2)
    assert [s for s, _ in report["stages"]] == [0.5, 1.0]
    np.testing.assert_allclose(
        solver.pack(staged), solver.pack(direct), rtol=0, atol=1e-8
    )


def test_continuation_schedule_validation():
    prob = _problem(4, 0.02)
    bc = _tilted_bc(angle=0.1)
    with pytest.raises(ValueError):
        solver.continuation_solve(prob, bc, stages=0)
    with pytest.raises(ValueError):
        solver.continuation_solve(prob, bc, stages=(0.5, 0.9))


def test_continuation_initial_costate_blends_costates():
    n, h = 10, 0.02
    prob = _problem(n, h)
    bc = solver.BoundaryConditions(
        mode="initial_costate",
        g0=la.exp_so3(np.array([0.2, 0.0, 0.0])), Pi0=np.zeros(3), u0=0.3,
        u_dot0=0.0, p_Pi0=np.array([0.05, 0.01, 0.0]),
        p_xi0=np.array([0.02, 0.0, 0.0]),
    )
    traj, report = solver.continuation_solve(prob, bc, stages=2)
    assert report["residuals"][-1] < 1e-9
    # costate pins hold at the full blend
    np.testing.assert_allclose(traj.multipliers[0].mu, bc.p_xi0, atol=1e-9)
    np.testing.assert_allclose(traj.multipliers[0].lam, h * bc.p_Pi0, atol=1e-9)


# ---------------------------------------------------------------------------
# marching


def test_step_map_equilibrium_fixed_point():
    n, h = 4, 0.02
    prob = _problem(n, h)
    knot = varint.DiscreteKnot(g=np.eye(3), Pi=np.zeros(3), u=0.3, tau=np.zeros(4))
    block = solver.IntervalBlock(0, knot, knot, np.zeros(3), np.zeros(3))
    out = solver.step_map(prob, block)
    assert out.k == 1
    np.testing.assert_allclose(out.knot_b.g, np.eye(3), atol=1e-11)
    np.testing.assert_allclose(out.knot_b.Pi, np.zeros(3), atol=1e-11)
    np.testing.assert_allclose(out.knot_b.tau, np.zeros(4), atol=1e-11)
    np.testing.assert_allclose(out.lam, np.zeros(3), atol=1e-13)
    np.testing.assert_allclose(out.mu, np.zeros(3), atol=1e-13)
    assert out.knot_b.u == pytest.approx(0.3, abs=1e-11)


def test_step_map_c1_zero_is_singular():
    prob = _problem(4, 0.02, c1=0.0)
    knot = varint.DiscreteKnot(g=np.eye(3), Pi=np.zeros(3), u=0.3, tau=np.zeros(4))
    block = solver.IntervalBlock(0, knot, knot, np.zeros(3), np.zeros(3))
    with pytest.raises(solver.SingularBlock):
        solver.step_map(prob, block)


def test_march_requires_interval_zero():
    prob = _problem(4, 0.02)
    knot = varint.DiscreteKnot(g=np.eye(3), Pi=np.zeros(3), u=0.3, tau=np.zeros(4))
    block = solver.IntervalBlock(2, knot, knot, np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        solver.march(prob, block)


def _loaded_tracking_problem():
    # yaw ramp against a zero momentum reference: the mismatch keeps the
    # multipliers O(0.1), which is what pins the interface map's weak rotor
    # directions
    n, h = 16, 0.05
    rate = 0.5 / (n * h)
    ref = ocp.Reference(
        g_d=lambda t: la.exp_so3(np.array([0.0, 0.0, rate * min(t, n * h)])),
        Pi_d=lambda t: np.zeros(3),
    )
    prob = _problem(n, h, ref=ref)
    bc = solver.BoundaryConditions(
        mode="fixed_endpoints",
        g0=np.eye(3), Pi0=np.zeros(3), u0=0.3,
        gN=ref.g_d(n * h), PiN=np.zeros(3), uN=0.3,
    )
    return prob, bc


def _block_deviation(block, traj, k):
    ref_blk = solver.block_from_trajectory(traj, k)
    return max(
        np.abs(block.knot_b.g - ref_blk.knot_b.g).max(),
        np.abs(block.knot_b.Pi - ref_blk.knot_b.Pi).max(),
        abs(block.knot_b.u - ref_blk.knot_b.u),
        np.abs(block.knot_b.tau - ref_blk.knot_b.tau).max(),
        np.abs(block.lam - ref_blk.lam).max(),
        np.abs(block.mu - ref_blk.mu).max(),
    )


def test_step_map_advances_newton_solution():
    # the literal one-interval map, fed each interval of a converged Newton
    # solution, reproduces the next knot and multipliers
    prob, bc = _loaded_tracking_problem()
    guess = solver.initial_guess(bc, prob.ref, prob.grid)
    newton_traj, _ = solver.newton_solve(prob, guess, bc)
    for k in (0, 7, 12):
        block = solver.block_from_trajectory(newton_traj, k)
        out = solver.step_map(prob, block, lookahead=1)
        assert _block_deviation(out, newton_traj, k + 1) < 1e-6


def test_march_reproduces_newton_solution():
    # seed the marching map with the first interval of a Newton solution; the
    # recursion must regenerate the remaining knots and multipliers
    prob, bc = _loaded_tracking_problem()
    guess = solver.initial_guess(bc, prob.ref, prob.grid)
    newton_traj, _ = solver.newton_solve(prob, guess, bc)
    marched = solver.march(prob, solver.block_from_trajectory(newton_traj, 0))
    sup = 0.0
    for a, b in zip(newton_traj.knots, marched.knots):
        sup = max(sup, np.abs(b.g - a.g).max(), np.abs(b.Pi - a.Pi).max())
        sup = max(sup, abs(b.u - a.u), np.abs(b.tau - a.tau).max())
    for a, b in zip(newton_traj.multipliers, marched.multipliers):
        sup = max(sup, np.abs(b.lam - a.lam).max(), np.abs(b.mu - a.mu).max())
    assert sup < 1e-6


def test_march_without_lookahead_aborts_rather_than_drifts():
    # the literal recursion amplifies committed error along the weak rotor
    # directions; it must abort instead of returning a drifted trajectory
    prob, bc = _loaded_tracking_problem()
    guess = solver.initial_guess(bc, prob.ref, prob.grid)
    newton_traj, _ = solver.newton_solve(prob, guess, bc)
    block0 = solver.block_from_trajectory(newton_traj, 0)
    with pytest.raises((varint.NoConvergence, solver.SingularBlock)):
        solver.march(prob, block0, lookahead=1)


# ---------------------------------------------------------------------------
# regularity and the shooting diagnostic


def test_regularity_check_matches_prediction():
    n, h = 10, 0.02
    prob = _problem(n, h)
    bc = _tilted_bc(angle=0.3)
    guess = solver.initial_guess(bc, prob.ref, prob.grid)
    traj, _ = solver.newton_solve(prob, guess, bc)
    measured, predicted = solver.regularity_check(prob, traj, n // 2)
    assert predicted == pytest.approx(prob.w.c1 / h)
    assert measured == pytest.approx(predicted, rel=1e-6)


def test_regularity_check_degenerate_weights():
    prob = _problem(6, 0.02, c1=0.0)
    rng = np.random.default_rng(21)
    traj = _random_trajectory(rng, 6, 0.02)
    measured, predicted = solver.regularity_check(prob, traj, 2)
    assert predicted == 0.0
    assert measured < 1e-10


def test_regularity_scaling_in_h():
    # the fold-coupling magnitude scales like 1/h at fixed c1
    values = []
    for h in (0.04, 0.02, 0.01, 0.005):
        n = 8
        prob = _problem(n, h)
        rng = np.random.default_rng(31)
        traj = _random_trajectory(rng, n, h)
        measured, _ = solver.regularity_check(prob, traj, 3)
        values.append(measured)
    slope = np.polyfit(
        np.log([0.04, 0.02, 0.01, 0.005]), np.log(values), 1
    )[0]
    assert abs(slope + 1.0) < 0.1


def test_shooting_trajectory_small_interior_rows():
    h, n = 0.005, 40
    prob = _problem(n, h)
    bc = solver.BoundaryConditions(
        mode="initial_costate",
        g0=la.exp_so3(np.array([0.3, 0.0, 0.0])), Pi0=np.zeros(3), u0=0.3,
        u_dot0=0.0, p_Pi0=np.array([0.05, 0.01, 0.0]),
        p_xi0=np.array([0.02, 0.0, 0.0]),
    )
    traj = solver.shooting_trajectory(prob, bc)
    out = varint.kkt_residuals_exact(
        prob.w, prob.ref, prob.model, prob.act, traj
    )
    interior = np.concatenate(
        [
            out["d_g"][1:-1].ravel(),
            out["d_Pi"][1:-1].ravel(),
            out["d_u"][1:-1],
            out["d_tau"][1:-1].ravel(),
            out["phi123"].ravel(),
            out["phi4"].ravel(),
        ]
    )
    assert np.abs(interior).max() < 5e-3


def test_newton_initial_costate_agrees_with_shooting():
    # warm-starting the square initial-costate system from the continuous
    # shooting run converges, and the two agree to the discretization error
    h, n = 0.01, 30
    prob = _problem(n, h)
    bc = solver.BoundaryConditions(
        mode="initial_costate",
        g0=la.exp_so3(np.array([0.3, 0.0, 0.0])), Pi0=np.zeros(3), u0=0.3,
        u_dot0=0.0, p_Pi0=np.array([0.05, 0.01, 0.0]),
        p_xi0=np.array([0.02, 0.0, 0.0]),
    )
    shot = solver.shooting_trajectory(prob, bc)
    traj, report = solver.newton_solve(prob, shot, bc)
    assert report["residuals"][-1] < 1e-9
    np.testing.assert_allclose(traj.multipliers[0].mu, bc.p_xi0, atol=1e-10)
    np.testing.assert_allclose(traj.multipliers[0].lam, h * bc.p_Pi0, atol=1e-10)
    sup = max(
        np.abs(a.g - b.g).max() for a, b in zip(shot.knots, traj.knots)
    )
    assert sup < 5e-3


# ---------------------------------------------------------------------------
# initial guess


def test_initial_guess_endpoints_and_shape():
    grid = varint.GridSpec(h=0.05, n=8)
    bc = _tilted_bc(angle=0.7)
    guess = solver.initial_guess(bc, ocp.constant_reference(), grid)
    np.testing.assert_allclose(guess.knots[0].g, bc.g0, atol=0)
    np.testing.assert_allclose(guess.knots[-1].g, bc.gN, atol=0)
    for knot in guess.knots:
        la.require_rotation(knot.g)
        np.testing.assert_allclose(knot.tau, np.zeros(4), atol=0)
    for m in guess.multipliers:
        np.testing.assert_allclose(m.lam, np.zeros(3), atol=0)


def test_initial_guess_identity_case():
    grid = varint.GridSpec(h=0.05, n=4)
    bc = solver.BoundaryConditions(
        mode="fixed_endpoints",
        g0=np.eye(3), Pi0=np.zeros(3), u0=0.3,
        gN=np.eye(3), PiN=np.zeros(3), uN=0.3,
    )
    guess = solver.initial_guess(bc, ocp.constant_reference(), grid)
    for knot in guess.knots:
        np.testing.assert_allclose(knot.g, np.eye(3), atol=1e-15)
        assert knot.u == 0.3
