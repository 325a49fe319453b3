"""The benchmark's four workloads.

Each workload builds its inputs from a seed in `__init__` (the set-up),
performs one operation per `round()` call (the timed part) and verifies its
outputs in `check()`, against a property of the method or a computation made
apart from the timed code. `items` is the work one round completes, in the
workload's own unit; `round()` returns per-round counts that the package's
report gives and the tracer cannot see.
"""

import hashlib
import json
import math

import numpy as np

from foldocp import harness, solver, varint

# solver.pack's knot-major layout: each knot holds its chart increment, Pi, u
# and tau, each interval its lam and mu; these are the matching KKT blocks
_PACKED_BLOCKS = (
    ("d_g", 3), ("d_Pi", 3), ("d_u", 1), ("d_tau", 4), ("phi123", 3), ("phi4", 3)
)
_PAIR_SLOTS = sum(width for _, width in _PACKED_BLOCKS)


def _csv_matches(path, records):
    """Re-read an exported CSV with numpy alone; 17 significant digits
    round-trip doubles exactly."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data.shape == records.shape and bool(np.array_equal(data, records))


def _digest(path):
    with open(path, "rb") as fh:
        payload = fh.read()
    return hashlib.sha256(payload).hexdigest(), len(payload)


def _kkt_row(rows, j):
    """The kkt_residuals_exact entry that differentiates entry j of the
    packed vector."""
    k, slot = divmod(j, _PAIR_SLOTS)
    for name, width in _PACKED_BLOCKS:
        if slot < width:
            return np.atleast_1d(rows[name][k])[slot]
        slot -= width


class Stabilize:
    """Criterion 7's stabilization case through the `foldocp solve` path:
    load_config -> run_scenario -> export_csv -> export_svg_plots."""

    name = "stabilize"
    H, N, STAGES = 0.1, 50, 4  # horizon N*H = 5 s, as in criterion 7
    SAMPLE = 16  # unknowns probed by the stationarity check

    def __init__(self, seed, out_dir):
        rng = np.random.default_rng([seed, 7])
        self.out_dir = out_dir
        self.csv_path = out_dir / "run.csv"
        body = {
            "scenario": "stabilization",
            "boundary_mode": "free_terminal",
            "continuation_stages": self.STAGES,
            "seed": int(seed),
            "grid": {"h_s": self.H, "N": self.N},
            "initial": {
                "roll0_rad": 1.0821 + rng.uniform(-0.001, 0.001),
                "pitch0_rad": rng.uniform(-0.001, 0.001),
                "yaw0_rad": rng.uniform(-0.001, 0.001),
            },
            "output": {"csv": str(self.csv_path), "svg_dir": str(out_dir / "figs")},
        }
        self.config_path = out_dir / "scenario.json"
        self.config_path.write_text(json.dumps(body, indent=2) + "\n")
        self.rng = rng
        self.items = 1  # one solve
        self.report = None
        self.digests = set()
        self.schedules = []

    def round(self):
        config = harness.load_config(str(self.config_path))
        report = harness.run_scenario(config)
        harness.export_csv(report, config.csv_path)
        harness.export_svg_plots(report, config.svg_dir)
        self.report = report
        digest, size = _digest(config.csv_path)
        self.digests.add(digest)
        stages = report.solver_report["stages"]
        self.schedules.append(stages)
        return {
            "solver.newton.iterations": sum(it for _, it in stages),
            "harness.export_csv.bytes": size,
        }

    def check(self):
        report = self.report
        config = report.config
        prob = harness.build_problem(config)
        traj = report.traj
        r123, r4 = varint.constraint_residuals(prob.model, prob.act, traj)
        defect = max(np.abs(r123).max(), np.abs(r4).max())

        cost = varint.extended_cost(prob.w, prob.ref, prob.model, prob.act, traj)
        v0 = solver.pack(traj)
        # the knot-0 chart, momentum and fold entries are pinned (free terminal)
        probe = self.rng.choice(np.arange(7, v0.size), self.SAMPLE, replace=False)
        grad = 0.0
        for j in probe:
            eps = 1e-6 * (1.0 + abs(v0[j]))
            vp, vm = v0.copy(), v0.copy()
            vp[j] += eps
            vm[j] -= eps
            cp = varint.extended_cost(
                prob.w, prob.ref, prob.model, prob.act, solver.unpack(traj, vp)
            )
            cm = varint.extended_cost(
                prob.w, prob.ref, prob.model, prob.act, solver.unpack(traj, vm)
            )
            grad = max(grad, abs(cp - cm) / (2.0 * eps))

        g = traj.g_stack()
        ortho = np.abs(np.swapaxes(g, 1, 2) @ g - np.eye(3)).max()
        u = traj.u_stack()
        return {
            "defect_le_1e-8": (defect <= 1e-8, defect),
            "fd_gradient_vanishes": (grad <= 1e-6 * (1.0 + abs(cost)), grad),
            "final_attitude_err_lt_0.05": (report.frob_err[-1] < 0.05, report.frob_err[-1]),
            "u_in_box": (
                bool(u.min() >= config.u_min_rad and u.max() <= config.u_max_rad),
                float(u.max()),
            ),
            "rotations_orthogonal": (ortho < 1e-10, ortho),
            "csv_reparses": (_csv_matches(self.csv_path, report.records), 0),
            "csv_identical_across_rounds": (len(self.digests) == 1, len(self.digests)),
            "svgs_written": (
                all(
                    "<polyline" in (self.out_dir / "figs" / name).read_text()
                    for name in ("attitude.svg", "tracking_error.svg", "arm_angle.svg")
                ),
                3,
            ),
        }

    def trace_checks(self, layer):
        """Newton iterations counted by the tracer (Jacobian builds) against
        the solver's own per-stage report, when no stage bisected and the
        package still has a `jacobian_fd` to trace."""
        if "solver.jacobian_fd.calls" not in layer:
            return {}
        bisected = any(len(s) != self.STAGES for s in self.schedules)
        iters = layer["solver.newton.iterations"]
        builds = layer["solver.jacobian_fd.calls"]
        return {
            "jacobian_builds_eq_newton_iterations": (
                bisected or builds == iters,
                builds - iters,
            )
        }


class Gradient:
    """Central differences of the extended cost on the N = 100 yaw-ramp
    tracking problem, around a seeded perturbation of the initial guess."""

    name = "gradient"
    H, N = 0.01, 100
    SAMPLE = 64

    def __init__(self, seed, out_dir):
        rng = np.random.default_rng([seed, 5])
        config = harness.ScenarioConfig(
            h_s=self.H,
            N=self.N,
            scenario="tracking",
            reference_type="yaw_ramp",
            roll0_rad=rng.uniform(-0.2, 0.2),
            pitch0_rad=rng.uniform(-0.2, 0.2),
            yaw_final_rad=rng.uniform(0.3, 0.7),
        )
        self.prob = harness.build_problem(config)
        bc = harness.build_boundary(config, self.prob.ref)
        guess = solver.initial_guess(bc, self.prob.ref, self.prob.grid)
        v = solver.pack(guess)
        self.traj = solver.unpack(guess, v + rng.uniform(-0.02, 0.02, v.size))
        self.v0 = solver.pack(self.traj)
        self.probe = rng.choice(self.v0.size, self.SAMPLE, replace=False)
        self.derivs = {}
        self.items = 2  # cost evaluations per central difference
        self._next = 0

    def _cost(self, v):
        p = self.prob
        return varint.extended_cost(p.w, p.ref, p.model, p.act, solver.unpack(self.traj, v))

    def round(self):
        j = int(self.probe[self._next % self.SAMPLE])
        self._next += 1
        eps = 1e-6 * (1.0 + abs(self.v0[j]))
        vp, vm = self.v0.copy(), self.v0.copy()
        vp[j] += eps
        vm[j] -= eps
        self.derivs[j] = (self._cost(vp) - self._cost(vm)) / (2.0 * eps)
        return {}

    def check(self):
        p = self.prob
        rows = varint.kkt_residuals_exact(p.w, p.ref, p.model, p.act, self.traj)
        worst = 0.0
        for j, fd in self.derivs.items():
            exact = _kkt_row(rows, j)
            worst = max(worst, abs(fd - exact) / max(abs(exact), 1e-3))
        return {"fd_matches_kkt_rows": (worst <= 1e-6, worst)}


class FreeBody:
    """`foldocp simulate --mode dlp`: a seeded free tumble with the arms
    locked off the symmetric angle, then CSV export."""

    name = "free_body"
    H, N = 0.01, 1000

    def __init__(self, seed, out_dir):
        rng = np.random.default_rng([seed, 3])
        direction = rng.normal(size=3)
        pi0 = 0.05 * direction / np.linalg.norm(direction)
        self.config = harness.ScenarioConfig(
            h_s=self.H,
            N=self.N,
            scenario="free_body",
            roll0_rad=rng.uniform(-1.0, 1.0),
            pitch0_rad=rng.uniform(-0.5, 0.5),
            yaw0_rad=rng.uniform(-1.0, 1.0),
            Pi0_kgm2rads=tuple(float(x) for x in pi0),
            u0_rad=rng.uniform(0.5, 0.65),  # pi/4 would make I1 = I2
        )
        self.csv_path = out_dir / "run.csv"
        self.items = self.N  # integrator steps
        self.report = None
        self.digests = set()

    def round(self):
        report = harness.simulate(self.config, mode="dlp")
        harness.export_csv(report, str(self.csv_path))
        self.report = report
        digest, size = _digest(self.csv_path)
        self.digests.add(digest)
        return {"harness.export_csv.bytes": size}

    def check(self):
        config, traj = self.config, self.report.traj
        # I(u) = diag(Ic + a sin^2 u, Ic + a cos^2 u, Ic + a), a = 4 l^2 m
        a, u = 4.0 * config.l_m**2 * config.m_kg, config.u0_rad
        inertia = config.Ic_kgm2 + a * np.array(
            [math.sin(u) ** 2, math.cos(u) ** 2, 1.0]
        )
        g = traj.g_stack()
        pis = traj.Pi_stack()
        # the step from g_k returns Pi_{k+1}; their transported momentum is
        # the discrete Noether invariant
        moms = np.array(
            [
                varint.discrete_spatial_momentum(inertia, config.h_s, g[k], pis[k + 1])
                for k in range(self.N)
            ]
        )
        drift = np.abs(moms - moms[0]).max() / np.linalg.norm(moms[0])
        g_end, hist = varint.free_dlp_run(inertia, g[0], pis[0], config.h_s, self.N)
        gap = max(np.abs(g_end - g[-1]).max(), np.abs(hist - pis).max())
        return {
            "transported_momentum_constant": (drift <= 1e-12, drift),
            "matches_scalar_free_dlp_run": (gap <= 1e-10, gap),
            "csv_reparses": (_csv_matches(self.csv_path, self.report.records), 0),
            "csv_identical_across_rounds": (len(self.digests) == 1, len(self.digests)),
        }


class March:
    """Criterion 9's tracking case: interval marching with lookahead 3 from
    the interval-0 block of a full Newton solve made during set-up."""

    name = "march"
    H, N = 0.05, 16

    def __init__(self, seed, out_dir):
        rng = np.random.default_rng([seed, 9])
        config = harness.ScenarioConfig(
            h_s=self.H,
            N=self.N,
            scenario="tracking",
            reference_type="yaw_ramp",
            boundary_mode="fixed_endpoints",
            roll0_rad=0.0,
            u0_rad=0.3 + rng.uniform(-1e-4, 1e-4),
            yaw_final_rad=0.5 + rng.uniform(-1e-4, 1e-4),
        )
        self.prob = harness.build_problem(config)
        bc = harness.build_boundary(config, self.prob.ref)
        guess = solver.initial_guess(bc, self.prob.ref, self.prob.grid)
        self.newton, _ = solver.newton_solve(self.prob, guess, bc)
        self.block0 = solver.block_from_trajectory(self.newton, 0)
        self.items = self.N - 1  # committed intervals
        self.marched = None

    def round(self):
        self.marched = solver.march(self.prob, self.block0)
        return {}

    def check(self):
        sup = 0.0
        for a, b in zip(self.newton.knots, self.marched.knots):
            sup = max(sup, np.abs(b.g - a.g).max(), np.abs(b.Pi - a.Pi).max())
            sup = max(sup, abs(b.u - a.u), np.abs(b.tau - a.tau).max())
        for a, b in zip(self.newton.multipliers, self.marched.multipliers):
            sup = max(sup, np.abs(b.lam - a.lam).max(), np.abs(b.mu - a.mu).max())
        return {"march_matches_newton": (sup <= 1e-6, sup)}


WORKLOADS = {w.name: w for w in (Stabilize, Gradient, FreeBody, March)}
