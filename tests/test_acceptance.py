"""End-to-end acceptance checks; each test prints one pass/fail line."""

import math
import time

import numpy as np
import pytest

from foldocp import cli, harness, liealg as la
from foldocp import ocp, plant, published, solver, varint


def _report(capsys, line):
    with capsys.disabled():
        print("\n" + line)


def _calibrated_models():
    w = ocp.CostWeights(c1=0.01, c2=1.0, c3=1.0, c4=0.1)
    return w, plant.InertiaModel(), plant.ActuationModel()


def test_criterion_01_cayley_group_membership(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    x = rng.normal(size=(10_000, 3))
    x *= (10.0 * rng.random(10_000) / np.linalg.norm(x, axis=1))[:, None]
    r = la.cay(x)
    ortho = np.linalg.norm(
        np.swapaxes(r, -1, -2) @ r - np.eye(3), axis=(-2, -1)
    ).max()
    hat = la.hat(x)
    resolvent = np.linalg.solve(np.eye(3) - hat, np.eye(3)[None] + hat)
    closed = np.linalg.norm(r - resolvent, axis=(-2, -1)).max()
    dt = time.perf_counter() - t0
    ok = ortho < 1e-12 and closed < 1e-12 and dt < 1.0
    _report(
        capsys,
        f"criterion 1: {'PASS' if ok else 'FAIL'} "
        f"(orthogonality {ortho:.3g}, closed-form gap {closed:.3g}, {dt:.2f} s)",
    )
    assert ortho < 1e-12 and closed < 1e-12
    assert dt < 1.0


def test_criterion_02_tangent_matches_fd(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(1000):
        x = rng.normal(size=3)
        x *= 5.0 * rng.random() / np.linalg.norm(x)
        v = rng.normal(size=3)
        exact = la.dcay_exact(x, v)
        eps = 1e-6
        fd = (la.cay(x + eps * v) - la.cay(x - eps * v)) / (2.0 * eps)
        m = fd @ la.cay(x).T
        fd_vec = la.vee(0.5 * (m - m.T), tol=None)
        worst = max(
            worst, np.linalg.norm(exact - fd_vec) / max(1.0, np.linalg.norm(exact))
        )
    # closed-form comparison table (informational, no threshold)
    table = []
    for bound in (0.1, 1.0, 3.0):
        dev = 0.0
        for _ in range(200):
            x = rng.normal(size=3)
            x *= bound * rng.random() / np.linalg.norm(x)
            v = rng.normal(size=3)
            paper = published.dcay_paper_matrix(x) @ v
            dev = max(dev, np.abs(la.dcay_exact(x, v) - paper).max())
        table.append(f"|x|<={bound:g}: {dev:.3g}")
    dt = time.perf_counter() - t0
    ok = worst < 1e-6 and dt < 1.0
    _report(
        capsys,
        f"criterion 2: {'PASS' if ok else 'FAIL'} "
        f"(FD relative error {worst:.3g}; published-form deviation "
        f"{'; '.join(table)}; {dt:.2f} s)",
    )
    assert worst < 1e-6
    assert dt < 1.0


def test_criterion_03_casimir_drift(capsys):
    t0 = time.perf_counter()
    inertia = np.array([0.034, 0.034, 0.056])
    Pi0 = np.array([0.02, 0.0, 0.30])
    _, hist = varint.free_dlp_run(inertia, np.eye(3), Pi0, 0.01, 100_000)
    norms = np.linalg.norm(hist, axis=1)
    drift = np.abs(norms - norms[0]).max() / norms[0]
    rk4 = plant.free_momentum_rk4(inertia, Pi0, 0.01, 100_000)
    rk4_norms = np.linalg.norm(rk4, axis=1)
    rk4_drift = np.abs(rk4_norms - rk4_norms[0]).max() / rk4_norms[0]
    dt = time.perf_counter() - t0
    ok = drift < 1e-10 and rk4_drift >= 1e3 * drift and dt < 30.0
    _report(
        capsys,
        f"criterion 3: {'PASS' if ok else 'FAIL'} "
        f"(variational drift {drift:.3g}, rk4 drift {rk4_drift:.3g}, "
        f"ratio {rk4_drift / drift:.3g}, {dt:.1f} s)",
    )
    assert drift < 1e-10
    assert rk4_drift >= 1e3 * drift
    assert dt < 30.0


def test_criterion_04_second_order_accuracy(capsys):
    t0 = time.perf_counter()
    model, act = plant.InertiaModel(), plant.ActuationModel()
    g0 = la.exp_so3(np.array([0.2, -0.1, 0.05]))
    Pi0 = np.array([0.02, -0.01, 0.03])

    def u_fn(t):
        return 0.6 + 0.1 * math.sin(2.0 * t)

    def u_dot_fn(t):
        return 0.2 * math.cos(2.0 * t)

    def tau_fn(t):
        return 0.05 * np.array(
            [math.sin(t), math.cos(t), -math.sin(1.5 * t), 0.5 * math.cos(t)]
        )

    t_final = 0.4
    _, gs, ps = plant.integrate(
        model,
        act,
        plant.PlantState(g=g0, Pi=Pi0),
        lambda t: plant.ControlInput(u=u_fn(t), u_dot=u_dot_fn(t), tau=tau_fn(t)),
        0.0,
        t_final / 4096,
        4096,
    )
    errors = []
    h_values = (0.02, 0.01, 0.005)
    for h in h_values:
        grid = varint.GridSpec(h=h, n=round(t_final / h))
        knot0 = varint.DiscreteKnot(g=g0, Pi=Pi0, u=u_fn(0.0), tau=tau_fn(0.0))
        knots = varint.feasible_trajectory(model, act, grid, knot0, u_fn, tau_fn)
        errors.append(
            max(np.abs(knots[-1].g - gs[-1]).max(), np.abs(knots[-1].Pi - ps[-1]).max())
        )
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    dt = time.perf_counter() - t0
    ok = all(3.5 <= r <= 4.5 for r in ratios) and dt < 60.0
    _report(
        capsys,
        f"criterion 4: {'PASS' if ok else 'FAIL'} "
        f"(errors {[f'{e:.3g}' for e in errors]}, "
        f"halving ratios {[f'{r:.3f}' for r in ratios]}, {dt:.1f} s)",
    )
    assert all(3.5 <= r <= 4.5 for r in ratios)
    assert dt < 60.0


def test_criterion_05_gradient_contract(capsys):
    t0 = time.perf_counter()
    w, model, act = _calibrated_models()
    n, h = 100, 0.01
    ref = ocp.constant_reference()
    prob = solver.Problem(w, ref, model, act, varint.GridSpec(h=h, n=n))
    bc = solver.BoundaryConditions(
        mode="free_terminal",
        g0=la.exp_so3(np.array([1.0821, 0.0, 0.0])),
        Pi0=np.zeros(3),
        u0=math.pi / 4.0,
    )
    tight = solver.SolverConfig(tol_residual=1e-12)
    traj, _ = solver.continuation_solve(prob, bc, cfg=tight, stages=4)
    base_cost = varint.extended_cost(w, ref, model, act, traj)
    bound = 1e-6 * (1.0 + abs(base_cost))
    v0 = solver.pack(traj)
    worst = 0.0
    # knot-0 state entries are pinned by the boundary mode, not unknowns
    for j in range(7, v0.size):
        eps = 1e-6 * (1.0 + abs(v0[j]))
        vp, vm = v0.copy(), v0.copy()
        vp[j] += eps
        vm[j] -= eps
        cp = varint.extended_cost(w, ref, model, act, solver.unpack(traj, vp))
        cm = varint.extended_cost(w, ref, model, act, solver.unpack(traj, vm))
        worst = max(worst, abs((cp - cm) / (2.0 * eps)))
    tau_gap = 0.0
    for k in range(n + 1):
        closed = varint.tau_k_star(w, act, varint.effective_lambda(traj, k), traj.knots[k].u)
        tau_gap = max(tau_gap, np.abs(closed - traj.knots[k].tau).max())
    dt = time.perf_counter() - t0
    ok = worst < bound and tau_gap < 1e-10 and dt < 120.0
    _report(
        capsys,
        f"criterion 5: {'PASS' if ok else 'FAIL'} "
        f"(max FD gradient {worst:.3g} vs bound {bound:.3g}, "
        f"closed-form rotor gap {tau_gap:.3g}, {dt:.1f} s)",
    )
    assert worst < bound
    assert tau_gap < 1e-10
    assert dt < 120.0


def test_criterion_06_regularity_scaling(capsys):
    w, model, act = _calibrated_models()
    h_values = (0.04, 0.02, 0.01, 0.005)
    measured = []
    for h in h_values:
        rng = np.random.default_rng(106)
        n = 8
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
        traj = varint.DiscreteTrajectory(varint.GridSpec(h=h, n=n), knots, mults)
        prob = solver.Problem(w, ocp.constant_reference(), model, act, traj.grid)
        value, _ = solver.regularity_check(prob, traj, 3)
        measured.append(value)
    slope = float(np.polyfit(np.log(h_values), np.log(measured), 1)[0])

    degenerate = solver.Problem(
        ocp.CostWeights(c1=0.0, c2=1.0, c3=1.0, c4=0.1),
        ocp.constant_reference(),
        model,
        act,
        varint.GridSpec(h=0.02, n=8),
    )
    bc = solver.BoundaryConditions(
        mode="free_terminal", g0=np.eye(3), Pi0=np.zeros(3), u0=0.3
    )
    guess = solver.initial_guess(bc, degenerate.ref, degenerate.grid)
    with pytest.raises(solver.SingularJacobian):
        solver.newton_solve(degenerate, guess, bc)
    ok = abs(slope + 1.0) < 0.1
    _report(
        capsys,
        f"criterion 6: {'PASS' if ok else 'FAIL'} "
        f"(log-log slope {slope:.4f}, degenerate weights raise SingularJacobian)",
    )
    assert abs(slope + 1.0) < 0.1


def test_criterion_07_stabilization_scenario(capsys, tmp_path):
    t0 = time.perf_counter()
    cfg = harness.ScenarioConfig(h_s=0.01, N=500, svg_dir=str(tmp_path))
    report = harness.run_scenario(cfg)
    harness.export_svg_plots(report, str(tmp_path))
    arm_svg = tmp_path / "arm_angle.svg"
    u = report.records[:, 10]
    in_box = bool(u.min() >= cfg.u_min_rad and u.max() <= cfg.u_max_rad)
    final_err = report.frob_err[-1]
    dt = time.perf_counter() - t0
    ok = (
        report.converged
        and final_err < 0.05
        and in_box
        and arm_svg.exists()
        and dt < 300.0
    )
    _report(
        capsys,
        f"criterion 7: {'PASS' if ok else 'FAIL'} "
        f"(converged {report.converged}, final attitude error {final_err:.3g}, "
        f"u in [{u.min():.4f}, {u.max():.4f}] within box {in_box}, "
        f"arm-angle figure {arm_svg.name}, {dt:.1f} s)",
    )
    assert report.converged
    assert final_err < 0.05
    assert in_box
    assert arm_svg.exists() and "<polyline" in arm_svg.read_text()
    assert dt < 300.0


def test_criterion_08_shooting_vs_discrete(capsys):
    t0 = time.perf_counter()
    w, model, act = _calibrated_models()
    ref = ocp.constant_reference()
    bc_data = dict(
        mode="initial_costate",
        g0=la.exp_so3(np.array([1.0821, 0.0, 0.0])),
        Pi0=np.zeros(3),
        u0=math.pi / 4.0,
        u_dot0=0.0,
        p_Pi0=np.array([0.0752, 0.0091, 0.0049]),
        p_xi0=np.array([0.0227, 0.0027, 0.0020]),
    )
    horizon = 0.5
    sups = []
    for h in (0.02, 0.01, 0.005):
        n = round(horizon / h)
        prob = solver.Problem(w, ref, model, act, varint.GridSpec(h=h, n=n))
        bc = solver.BoundaryConditions(**bc_data)
        shot = solver.shooting_trajectory(prob, bc)
        traj, _ = solver.newton_solve(prob, shot, bc)
        sup = 0.0
        for a, b in zip(shot.knots, traj.knots):
            sup = max(
                sup,
                np.abs(a.g - b.g).max(),
                np.abs(a.Pi - b.Pi).max(),
                abs(a.u - b.u),
            )
        sups.append(sup)
    ratios = [sups[i] / sups[i + 1] for i in range(len(sups) - 1)]
    dt = time.perf_counter() - t0
    ok = (
        all(sups[i + 1] < sups[i] for i in range(len(sups) - 1))
        and all(r >= 1.7 for r in ratios)
        and dt < 300.0
    )
    _report(
        capsys,
        f"criterion 8: {'PASS' if ok else 'FAIL'} "
        f"(sup gaps {[f'{s:.3g}' for s in sups]}, "
        f"halving ratios {[f'{r:.2f}' for r in ratios]}, {dt:.1f} s)",
    )
    assert all(sups[i + 1] < sups[i] for i in range(len(sups) - 1))
    assert all(r >= 1.7 for r in ratios)
    assert dt < 300.0


def test_criterion_09_marching_agrees_with_newton(capsys):
    cfg = harness.ScenarioConfig(
        h_s=0.05,
        N=16,
        scenario="tracking",
        reference_type="yaw_ramp",
        boundary_mode="fixed_endpoints",
        roll0_rad=0.0,
        u0_rad=0.3,
    )
    prob = harness.build_problem(cfg)
    bc = harness.build_boundary(cfg, prob.ref)
    guess = solver.initial_guess(bc, prob.ref, prob.grid)
    newton_traj, _ = solver.newton_solve(prob, guess, bc)
    marched = solver.march(prob, solver.block_from_trajectory(newton_traj, 0))
    sup = 0.0
    for a, b in zip(newton_traj.knots, marched.knots):
        sup = max(sup, np.abs(b.g - a.g).max(), np.abs(b.Pi - a.Pi).max())
        sup = max(sup, abs(b.u - a.u), np.abs(b.tau - a.tau).max())
    for a, b in zip(newton_traj.multipliers, marched.multipliers):
        sup = max(sup, np.abs(b.lam - a.lam).max(), np.abs(b.mu - a.mu).max())
    ok = sup < 1e-6
    _report(
        capsys,
        f"criterion 9: {'PASS' if ok else 'FAIL'} "
        f"(marching vs full Newton sup deviation {sup:.3g})",
    )
    assert sup < 1e-6


def test_criterion_10_deterministic_csv(capsys, tmp_path):
    cfg = harness.ScenarioConfig(
        h_s=0.02,
        N=25,
        roll0_rad=0.6,
        continuation_stages=2,
        csv_path=str(tmp_path / "run.csv"),
    )
    config_path = tmp_path / "scenario.json"
    harness.save_config(cfg, str(config_path))
    payloads = []
    for _ in range(2):
        assert cli.main(["solve", "--config", str(config_path)]) == 0
        payloads.append((tmp_path / "run.csv").read_bytes())
    ok = payloads[0] == payloads[1] and len(payloads[0]) > 0
    _report(
        capsys,
        f"criterion 10: {'PASS' if ok else 'FAIL'} "
        f"(two solve runs, {len(payloads[0])} CSV bytes, byte-identical {payloads[0] == payloads[1]})",
    )
    assert payloads[0] == payloads[1]
