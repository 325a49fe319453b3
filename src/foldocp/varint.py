"""Trapezoidal variational time discretization on SO(3) and its KKT system.

The forced momentum equation and the reconstruction equation are discretized
by trapezoidal averaging over each step (residuals Phi1..Phi3 and Phi4); the
discrete optimal-control conditions are the exact first derivatives of the
extended cost sum(<lam, Phi123> + <mu, Phi4> - C_d). Every stationarity block
exists in two forms: a derivative-based one (authoritative; every component
equals a central finite difference of the extended cost) and a componentwise
transcription variant kept as a characterized cross-check. Downstream
consumers (solver, harness) use the derivative-based forms only.

The derivative-based residuals and the stationarity blocks are written once,
in a stacked kernel over all intervals that also evaluates a batch of
trajectories in one call; the discrete cost is one stacked helper beside it,
and the per-interval and per-trajectory functions are thin wrappers around
the two.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import liealg, ocp, plant

_EYE = np.eye(3)


class NoConvergence(RuntimeError):
    """An implicit per-step solve failed to reach tolerance."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid with n steps of size h covering [0, n*h]."""

    h: float
    n: int

    def __post_init__(self):
        if not (np.isfinite(self.h) and self.h > 0.0):
            raise ValueError(f"step size must be positive and finite, got {self.h}")
        if int(self.n) != self.n or self.n < 2:
            raise ValueError(f"need at least 2 steps, got {self.n}")
        object.__setattr__(self, "h", float(self.h))
        object.__setattr__(self, "n", int(self.n))

    @property
    def t_final(self):
        return self.n * self.h

    def times(self):
        return np.arange(self.n + 1) * self.h


@dataclass(frozen=True)
class DiscreteKnot:
    """State and controls carried at one grid time: (g, Pi, u, tau)."""

    g: np.ndarray
    Pi: np.ndarray
    u: float
    tau: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "g", np.asarray(self.g, dtype=float))
        object.__setattr__(self, "Pi", np.asarray(self.Pi, dtype=float))
        object.__setattr__(self, "tau", np.asarray(self.tau, dtype=float))
        if self.g.shape != (3, 3) or self.Pi.shape != (3,) or self.tau.shape != (4,):
            raise ValueError("knot shapes must be g (3,3), Pi (3,), tau (4,)")
        if not (
            np.isfinite(self.g).all()
            and np.isfinite(self.Pi).all()
            and np.isfinite(self.u)
            and np.isfinite(self.tau).all()
        ):
            raise ValueError("knot must be finite")


@dataclass(frozen=True)
class Multipliers:
    """Per-interval multipliers: lam pairs with Phi123, mu with Phi4."""

    lam: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lam", np.asarray(self.lam, dtype=float))
        object.__setattr__(self, "mu", np.asarray(self.mu, dtype=float))
        if self.lam.shape != (3,) or self.mu.shape != (3,):
            raise ValueError("multipliers must be 3-vectors")
        if not (np.isfinite(self.lam).all() and np.isfinite(self.mu).all()):
            raise ValueError("multipliers must be finite")


class DiscreteTrajectory:
    """n+1 knots and n per-interval multiplier pairs on a common grid.

    Held as six read-only stacks g (n+1, 3, 3), Pi (n+1, 3), u (n+1,), tau
    (n+1, 4), lam and mu (n, 3); the knot and multiplier objects are built
    from them on first access. The *_stack() methods return copies.
    """

    def __init__(self, grid, knots, multipliers):
        knots, multipliers = tuple(knots), tuple(multipliers)
        if len(knots) != grid.n + 1:
            raise ValueError(f"expected {grid.n + 1} knots, got {len(knots)}")
        if len(multipliers) != grid.n:
            raise ValueError(f"expected {grid.n} multiplier pairs, got {len(multipliers)}")
        self._hold(grid, [k.g for k in knots], [k.Pi for k in knots], [k.u for k in knots],
                   [k.tau for k in knots], [m.lam for m in multipliers],
                   [m.mu for m in multipliers])
        self.__dict__.update(knots=knots, multipliers=multipliers)

    def _hold(self, grid, *stacks):
        # read-only copies, written through __dict__ as __setattr__ refuses
        self.__dict__["grid"] = grid
        for name, a in zip(("_g", "_Pi", "_u", "_tau", "_lam", "_mu"), stacks):
            self.__dict__[name] = a = np.array(a, dtype=float)
            a.flags.writeable = False

    def __setattr__(self, name, value):
        raise AttributeError(f"DiscreteTrajectory is immutable; cannot set {name}")

    @functools.cached_property
    def knots(self):
        return tuple(map(DiscreteKnot, self._g, self._Pi, self._u.tolist(), self._tau))

    @functools.cached_property
    def multipliers(self):
        return tuple(map(Multipliers, self._lam, self._mu))

    def g_stack(self):
        return self._g.copy()

    def Pi_stack(self):
        return self._Pi.copy()

    def u_stack(self):
        return self._u.copy()

    def tau_stack(self):
        return self._tau.copy()

    def lam_stack(self):
        return self._lam.copy()

    def mu_stack(self):
        return self._mu.copy()


def trajectory_from_arrays(grid, g, Pi, u, tau, lam, mu):
    """Assemble a DiscreteTrajectory from stacked arrays (copied), checking
    shapes and finiteness once on the stacks; no knot object is built."""
    g, Pi, u, tau, lam, mu = (np.asarray(a, dtype=float) for a in (g, Pi, u, tau, lam, mu))
    m = grid.n + 1
    if (g.shape, Pi.shape, u.shape, tau.shape) != ((m, 3, 3), (m, 3), (m,), (m, 4)):
        raise ValueError("knot shapes must be g (3,3), Pi (3,), tau (4,)")
    if not all(np.isfinite(a).all() for a in (g, Pi, u, tau)):
        raise ValueError("knot must be finite")
    if lam.shape != (m - 1, 3) or mu.shape != (m - 1, 3):
        raise ValueError("multipliers must be 3-vectors")
    if not (np.isfinite(lam).all() and np.isfinite(mu).all()):
        raise ValueError("multipliers must be finite")
    traj = DiscreteTrajectory.__new__(DiscreteTrajectory)
    traj._hold(grid, g, Pi, u, tau, lam, mu)
    return traj


# ---------------------------------------------------------------------------
# unforced step at constant inertia (structure-preservation baseline)


def _dlp_momentum_solve(inertia, h, b, omega0, method, tol, max_iter):
    # fixed point omega <- I^-1 (b - [dual(h w, I w) - I w]); contraction for
    # moderate h |omega|, warm started from the previous rate
    omega = np.asarray(omega0, dtype=float)
    for _ in range(max_iter):
        p = inertia * omega
        step = liealg.dretract_inv_dual(h * omega, p, method) - p
        new = (b - step) / inertia
        delta = np.linalg.norm(new - omega)
        if delta < tol * (1.0 + np.linalg.norm(new)):
            return new
        if not delta < 1e8:  # also catches nan
            raise NoConvergence("momentum update diverged (h |omega| too large?)")
        omega = new
    raise NoConvergence(
        f"momentum update stalled after {max_iter} iterations (h|omega| too large?)"
    )


def free_dlp_step(inertia, h, g, Pi_prev, method="cay", tol=1e-14, max_iter=100):
    """One unforced step at constant diagonal inertia.

    Solves the implicit transported-momentum update for the new rate omega,
    then advances the attitude: given (g_k, Pi_{k-1}) returns
    (g_{k+1} = g_k retract(h omega_k), Pi_k = I omega_k). Iterating the map
    transports g * dretract_inv_dual(h omega, Pi) without error, so |Pi| is
    exactly conserved whenever the spin stays on a symmetry axis and shows
    only a bounded O((h|omega|)^2) band otherwise -- no secular drift.
    """
    inertia = np.asarray(inertia, dtype=float)
    Pi_prev = np.asarray(Pi_prev, dtype=float)
    omega_prev = Pi_prev / inertia
    b = liealg.dretract_inv_dual(-h * omega_prev, Pi_prev, method)
    omega = _dlp_momentum_solve(inertia, h, b, omega_prev, method, tol, max_iter)
    g_next = np.asarray(g, dtype=float) @ liealg.retract(h * omega, method)
    return g_next, inertia * omega


def _free_dlp_history(inertia, g0, Pi0, h, n_steps, method="cay",
                      reorth_every=liealg.REORTH_INTERVAL, tol=1e-14, max_iter=100):
    """Attitude (n+1, 3, 3) and momentum (n+1, 3) histories of free_dlp_run."""
    inertia = np.asarray(inertia, dtype=float)
    g_hist = np.empty((n_steps + 1, 3, 3))
    Pi_hist = np.empty((n_steps + 1, 3))
    g_hist[0] = g0
    Pi_hist[0] = Pi0
    if method != "cay":
        g, Pi = g_hist[0], Pi_hist[0]
        for k in range(n_steps):
            g, Pi = free_dlp_step(inertia, h, g, Pi, method, tol, max_iter)
            if (k + 1) % reorth_every == 0:
                g = liealg.orthonormalize(g)
            g_hist[k + 1] = g
            Pi_hist[k + 1] = Pi
        return g_hist, Pi_hist
    # scalar inner loop (same update as free_dlp_step); the 3x3 fixed point
    # runs on floats so long-horizon drift studies stay cheap
    i1, i2, i3 = (float(v) for v in inertia)
    p1, p2, p3 = (float(v) for v in Pi_hist[0])
    g = g_hist[0]
    w1, w2, w3 = p1 / i1, p2 / i2, p3 / i3
    for k in range(n_steps):
        # b = (I - hat(h w)/2 + (h w)(h w)^T/4) Pi at the previous rate
        x1, x2, x3 = h * w1, h * w2, h * w3
        s = 0.25 * (x1 * p1 + x2 * p2 + x3 * p3)
        b1 = p1 - 0.5 * (x2 * p3 - x3 * p2) + s * x1
        b2 = p2 - 0.5 * (x3 * p1 - x1 * p3) + s * x2
        b3 = p3 - 0.5 * (x1 * p2 - x2 * p1) + s * x3
        for _ in range(max_iter):
            q1, q2, q3 = i1 * w1, i2 * w2, i3 * w3
            x1, x2, x3 = h * w1, h * w2, h * w3
            s = 0.25 * (x1 * q1 + x2 * q2 + x3 * q3)
            n1 = (b1 - 0.5 * (x2 * q3 - x3 * q2) - s * x1) / i1
            n2 = (b2 - 0.5 * (x3 * q1 - x1 * q3) - s * x2) / i2
            n3 = (b3 - 0.5 * (x1 * q2 - x2 * q1) - s * x3) / i3
            d1, d2, d3 = n1 - w1, n2 - w2, n3 - w3
            w1, w2, w3 = n1, n2, n3
            d_sq = d1 * d1 + d2 * d2 + d3 * d3
            if d_sq < (tol * (1.0 + abs(w1) + abs(w2) + abs(w3))) ** 2:
                break
            if not d_sq < 1e16:  # bail out before float overflow
                raise NoConvergence("momentum update diverged (h |omega| too large?)")
        else:
            raise NoConvergence(
                f"momentum update stalled after {max_iter} iterations"
            )
        p1, p2, p3 = i1 * w1, i2 * w2, i3 * w3
        Pi_hist[k + 1] = (p1, p2, p3)
        # g <- g cay(h w / 2)
        y1, y2, y3 = 0.5 * h * w1, 0.5 * h * w2, 0.5 * h * w3
        sig = 2.0 / (1.0 + y1 * y1 + y2 * y2 + y3 * y3)
        r = np.array(
            [
                [
                    1.0 - sig * (y2 * y2 + y3 * y3),
                    sig * (y1 * y2 - y3),
                    sig * (y1 * y3 + y2),
                ],
                [
                    sig * (y1 * y2 + y3),
                    1.0 - sig * (y1 * y1 + y3 * y3),
                    sig * (y2 * y3 - y1),
                ],
                [
                    sig * (y1 * y3 - y2),
                    sig * (y2 * y3 + y1),
                    1.0 - sig * (y1 * y1 + y2 * y2),
                ],
            ]
        )
        g = g @ r
        if (k + 1) % reorth_every == 0:
            g = liealg.orthonormalize(g)
        g_hist[k + 1] = g
    return g_hist, Pi_hist


def free_dlp_run(inertia, g0, Pi0, h, n_steps, method="cay",
                 reorth_every=liealg.REORTH_INTERVAL, tol=1e-14, max_iter=100):
    """Iterate free_dlp_step; returns (g_final, momentum history (n+1, 3))."""
    g_hist, Pi_hist = _free_dlp_history(
        inertia, g0, Pi0, h, n_steps, method, reorth_every, tol, max_iter
    )
    return g_hist[-1].copy(), Pi_hist


def discrete_spatial_momentum(inertia, h, g, Pi, method="cay"):
    """Transported momentum g * (dretract_inv at h*omega)^T Pi.

    Constant along free_dlp_step orbits (pair each returned Pi_k with the g_k
    the step started from); conservation holds to round-off for any inertia.
    """
    omega = np.asarray(Pi, dtype=float) / np.asarray(inertia, dtype=float)
    return np.asarray(g, dtype=float) @ liealg.dretract_inv_dual(h * omega, Pi, method)


# ---------------------------------------------------------------------------
# the stacked kernel: every trapezoidal formula, all intervals at once


# first and second knot of every interval, in (..., n+1, k) and
# (..., n+1, 3, 3) knot stacks
_A, _B = np.s_[..., :-1, :], np.s_[..., 1:, :]
_A3, _B3 = np.s_[..., :-1, :, :], np.s_[..., 1:, :, :]


def _to_knots(first, second):
    """Knot rows (..., n+1, k) summing each interval's contributions
    (..., n, k) at its first and at its second knot."""
    out = np.zeros(first.shape[:-2] + (first.shape[-2] + 1, first.shape[-1]))
    out[_A] += first
    out[_B] += second
    return out


def _kernel(model, act, h, g, Pi, u, tau, method="cay", w=None, lam=None, mu=None,
            ref_table=None):
    """Interval residuals and stationarity blocks on stacks.

    g (..., n+1, 3, 3), Pi (..., n+1, 3), u (..., n+1), tau (..., n+1, 4) are
    the knots; leading axes, if any, index independent trajectories, so one
    call evaluates a whole batch. Returns "phi123" and "phi4" (..., n, 3);
    when the weights w are given it also returns the first derivatives of
    extended_cost "d_g", "d_Pi" (..., n+1, 3), "d_u" (..., n+1), "d_tau"
    (..., n+1, 4), which need the multipliers lam, mu (..., n, 3) and
    ref_table = (g_d, Pi_d), the reference sampled at the knots. Raises
    OutOfChart when a relative rotation leaves the chart.
    """
    i_d = plant.inertia_diag(model, u)
    omega = Pi / i_d
    bmat = plant.torque_matrix(act, u)
    force = (bmat @ tau[..., None])[..., 0]
    cross_wp = np.cross(omega, Pi)
    f_ab = np.swapaxes(g[_A3], -1, -2) @ g[_B3]
    x = liealg.retract_inv(f_ab, method)
    out = {
        "phi123": (
            (Pi[_B] - Pi[_A]) / h
            + 0.5 * (cross_wp[_A] + cross_wp[_B])
            - 0.5 * (force[_A] + force[_B])
        ),
        "phi4": x - 0.5 * h * (omega[_A] + omega[_B]),
    }
    if w is None:
        return out
    g_d, Pi_d = ref_table
    du_quot = (u[..., 1:] - u[..., :-1]) / h
    # per-knot partials
    di_inv = plant.d_inertia_inv_du_diag(model, u)
    dbmat = plant.d_torque_matrix_du(act, u)
    m = -liealg.hat(Pi) / i_d[..., None, :] + liealg.hat(omega)
    d123_du = 0.5 * np.cross(di_inv * Pi, Pi) - 0.5 * (dbmat @ tau[..., None])[..., 0]
    d4_du = -0.5 * h * di_inv * Pi
    dc_dPi = 0.5 * h * w.c4 * (Pi - Pi_d)
    dc_dtau = 0.5 * h * w.c2 * tau
    dc_dg = 0.5 * h * w.c3 * ocp.attitude_cost_gradient(g, g_d)
    # each interval's partials at its first and second knot
    mt = "...kji,...kj->...ki"  # transposed matrix times vector, per knot
    d_Pi = _to_knots(
        -lam / h + 0.5 * np.einsum(mt, m[_A3], lam) - 0.5 * h * mu / i_d[_A] - dc_dPi[_A],
        lam / h + 0.5 * np.einsum(mt, m[_B3], lam) - 0.5 * h * mu / i_d[_B] - dc_dPi[_B],
    )
    d_u = _to_knots(
        ((lam * d123_du[_A]).sum(axis=-1) + (mu * d4_du[_A]).sum(axis=-1)
         + w.c1 * du_quot)[..., None],
        ((lam * d123_du[_B]).sum(axis=-1) + (mu * d4_du[_B]).sum(axis=-1)
         - w.c1 * du_quot)[..., None],
    )[..., 0]
    d_tau = _to_knots(
        -0.5 * np.einsum("...kij,...ki->...kj", bmat[_A3], lam) - dc_dtau[_A],
        -0.5 * np.einsum("...kij,...ki->...kj", bmat[_B3], lam) - dc_dtau[_B],
    )
    dri_t_mu = liealg.dretract_inv_dual(x, mu, method)
    d_g = _to_knots(-dri_t_mu - dc_dg[_A], np.einsum(mt, f_ab, dri_t_mu) - dc_dg[_B])
    out.update(d_g=d_g, d_Pi=d_Pi, d_u=d_u, d_tau=d_tau)
    return out


def _interval_cost(w, h, g, Pi, u, tau, ref_table):
    """Per-interval discrete cost (..., n) on the knot stacks of _kernel.

    h times the trapezoidal average of the running cost; the fold rate enters
    both ends as the difference quotient.
    """
    g_d, Pi_d = ref_table
    du_quot = (u[..., 1:] - u[..., :-1]) / h
    return 0.5 * h * (
        ocp._stage_cost(w, g[_A3], g_d[:-1], Pi[_A], Pi_d[:-1], du_quot, tau[_A])
        + ocp._stage_cost(w, g[_B3], g_d[1:], Pi[_B], Pi_d[1:], du_quot, tau[_B])
    )


def _knot_stacks(traj):
    # the trajectory's own read-only stacks, no copies
    return traj._g, traj._Pi, traj._u, traj._tau


def _pair(a, b):
    # two-knot stack for the one-interval wrappers
    return np.stack([a, b]).astype(float)


# actuation placeholder for phi4, which does not depend on the rotors
_ANY_ACT = plant.ActuationModel()


def residual_phi123(model, act, grid, Pi_k, Pi_k1, u_k, u_k1, tau_k, tau_k1):
    """Trapezoidal momentum residual over one interval (3-vector).

    (Pi_{k+1} - Pi_k)/h + (1/2)(omega_k x Pi_k + omega_{k+1} x Pi_{k+1})
    - (1/2)(B(u_k) tau_k + B(u_{k+1}) tau_{k+1});  omega = I(u)^-1 Pi.
    """
    return _kernel(
        model, act, grid.h, _pair(_EYE, _EYE), _pair(Pi_k, Pi_k1),
        _pair(u_k, u_k1), _pair(tau_k, tau_k1),
    )["phi123"][0]


def residual_phi123_componentwise(model, act, grid, Pi_k, Pi_k1, u_k, u_k1, tau_k, tau_k1):
    """Scalar transcription of residual_phi123 via inertia-difference ratios.

    Row i uses -(I_j(u) - I_l(u)) / (2 I_l(u) I_j(u)) * Pi_j Pi_l with (i,j,l)
    cycling; algebraically identical to the vector form (cross-checked to
    round-off in tests), kept as an independent code path.
    """
    h = grid.h
    i_k = plant.inertia_diag(model, u_k)
    i_k1 = plant.inertia_diag(model, u_k1)
    f_k = plant.body_torque(act, u_k, tau_k)
    f_k1 = plant.body_torque(act, u_k1, tau_k1)
    out = np.empty(3)
    for i, j, l in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        out[i] = (
            (Pi_k1[i] - Pi_k[i]) / h
            - (i_k[j] - i_k[l]) / (2.0 * i_k[l] * i_k[j]) * Pi_k[j] * Pi_k[l]
            - (i_k1[j] - i_k1[l]) / (2.0 * i_k1[l] * i_k1[j]) * Pi_k1[j] * Pi_k1[l]
            - 0.5 * f_k[i]
            - 0.5 * f_k1[i]
        )
    return out


def residual_phi4(model, grid, g_k, g_k1, Pi_k, Pi_k1, u_k, u_k1, method="cay"):
    """Reconstruction residual over one interval (3-vector).

    retract_inv(g_k^-1 g_{k+1}) - (h/2)(I(u_k)^-1 Pi_k + I(u_{k+1})^-1 Pi_{k+1});
    raises OutOfChart when the relative rotation leaves the chart.
    """
    return _kernel(
        model, _ANY_ACT, grid.h, _pair(g_k, g_k1), _pair(Pi_k, Pi_k1),
        _pair(u_k, u_k1), np.zeros((2, 4)), method,
    )["phi4"][0]


def discrete_cost(w, ref, grid, k, knot_k, knot_k1, t0=0.0):
    """Cost of interval k: h times the trapezoidal running-cost average.

    The fold rate enters both endpoint evaluations as the difference quotient
    (u_{k+1} - u_k)/h, so the fold term is c1 (u_{k+1} - u_k)^2 / (2 h).
    t0 shifts the reference sampling times (grids windowed out of a longer
    horizon keep their global clock).
    """
    g_d, Pi_d = zip(*(ref.sample(t0 + j * grid.h) for j in (k, k + 1)))
    cost = _interval_cost(
        w, grid.h, _pair(knot_k.g, knot_k1.g), _pair(knot_k.Pi, knot_k1.Pi),
        _pair(knot_k.u, knot_k1.u), _pair(knot_k.tau, knot_k1.tau),
        (np.stack(g_d), np.stack(Pi_d)),
    )
    return float(cost[0])


def total_cost(w, ref, traj, t0=0.0):
    """Sum of the per-interval discrete costs."""
    cost = _interval_cost(
        w, traj.grid.h, *_knot_stacks(traj), reference_table(ref, traj.grid, t0)
    )
    return float(cost.sum())


def constraint_residuals(model, act, traj, method="cay"):
    """Stacked per-interval residuals: (n, 3) for Phi123 and (n, 3) for Phi4."""
    out = _kernel(model, act, traj.grid.h, *_knot_stacks(traj), method)
    return out["phi123"], out["phi4"]


def extended_cost(w, ref, model, act, traj, method="cay", t0=0.0):
    """sum_k <lam_k, Phi123_k> + <mu_k, Phi4_k> - C_d_k.

    Reduces to minus the total discrete cost on feasible trajectories; its
    exact first derivatives are the stationarity blocks of
    kkt_residuals_exact.
    """
    out = kkt_residuals_exact(w, ref, model, act, traj, method, t0)
    return float(
        (traj._lam * out["phi123"]).sum()
        + (traj._mu * out["phi4"]).sum()
        - out["cost"].sum()
    )


# ---------------------------------------------------------------------------
# feasible marching (prescribed controls, residuals driven to zero)


def feasible_step(model, act, grid, knot, u_next, tau_next, method="cay",
                  tol=1e-13, max_iter=50):
    """Advance one interval with prescribed (u, tau) at the far knot.

    Newton-solves Phi123 = 0 for Pi_{k+1} (3x3 analytic Jacobian), then sets
    g_{k+1} so that Phi4 = 0 exactly.
    """
    h = grid.h
    i_k = plant.inertia_diag(model, knot.u)
    i_k1 = plant.inertia_diag(model, u_next)
    f_sum = plant.body_torque(act, knot.u, knot.tau) + plant.body_torque(
        act, u_next, tau_next
    )
    rhs = knot.Pi / h - 0.5 * np.cross(knot.Pi / i_k, knot.Pi) + 0.5 * f_sum
    Pi = knot.Pi.copy()
    scale = 1.0 + np.linalg.norm(rhs)
    for _ in range(max_iter):
        w = Pi / i_k1
        res = Pi / h + 0.5 * np.cross(w, Pi) - rhs
        if np.linalg.norm(res) < tol * scale:
            break
        jac = np.eye(3) / h + 0.5 * (liealg.hat(w) - liealg.hat(Pi) / i_k1[None, :])
        Pi = Pi - np.linalg.solve(jac, res)
    else:
        raise NoConvergence(f"implicit momentum step stalled after {max_iter} iterations")
    x = 0.5 * h * (knot.Pi / i_k + Pi / i_k1)
    g_next = knot.g @ liealg.retract(x, method)
    return DiscreteKnot(g_next, Pi, float(u_next), np.asarray(tau_next, dtype=float))


def feasible_trajectory(model, act, grid, knot0, u_fn, tau_fn, method="cay"):
    """March feasible_step over the grid with u_fn(t), tau_fn(t) prescribed.

    Returns the n+1 knots; with zero multipliers attached they form a
    trajectory on which every constraint residual vanishes to solver
    tolerance.
    """
    knots = [knot0]
    for k in range(grid.n):
        t_next = (k + 1) * grid.h
        knots.append(
            feasible_step(
                model, act, grid, knots[-1], float(u_fn(t_next)),
                np.asarray(tau_fn(t_next), dtype=float), method,
            )
        )
    return knots


# ---------------------------------------------------------------------------
# exact stationarity blocks (first derivatives of extended_cost)


def _dretract_inv_matrix(x, method):
    # matrix of v -> dretract_inv(x, v)
    x = np.asarray(x, dtype=float)
    if method == "cay":
        half = 0.5 * x
        return np.eye(3) - liealg.hat(half) + np.outer(half, half)
    cols = liealg.dretract_inv(x[None, :].repeat(3, axis=0), np.eye(3), method)
    return cols.T


def _interval_partials(w, model, act, grid, k, knot_a, knot_b, ref, method, t0=0.0):
    """Derivatives of <lam, Phi123> + <mu, Phi4> - C_d for one interval.

    Returns per-end dictionaries keyed by the unknown; the g entries are
    left-trivialized (directional derivative along g retract(s eta)).
    """
    h = grid.h
    out = []
    x = liealg.retract_inv(knot_a.g.T @ knot_b.g, method)
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
        m = -liealg.hat(knot.Pi) / i_d[None, :] + liealg.hat(omega)
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


def reference_table(ref, grid, t0=0.0):
    """Reference samples at the grid knots: (g_d (n+1, 3, 3), Pi_d (n+1, 3)).

    Sampled once per reference and grid through the scalar callables, and
    kept read-only on the reference (keyed by n, h, t0) for every later call.
    Raises TooFarFromGroup when a g_d sample is off the group beyond 1e-6.
    """
    key = (grid.n, grid.h, t0)
    table = ref._tables.get(key)
    if table is None:
        g_d = np.empty((grid.n + 1, 3, 3))
        Pi_d = np.empty((grid.n + 1, 3))
        for k in range(grid.n + 1):
            g_d[k] = ref.g_d(t0 + k * grid.h)
            Pi_d[k] = ref.Pi_d(t0 + k * grid.h)
        liealg.require_rotation(g_d, tol=1e-6)
        g_d.flags.writeable = False
        Pi_d.flags.writeable = False
        table = ref._tables[key] = (g_d, Pi_d)
    return table


def kkt_residuals_exact(w, ref, model, act, traj, method="cay", t0=0.0,
                        ref_table=None):
    """All first derivatives of extended_cost, block by block.

    Returns a dict with "d_g", "d_Pi" (n+1, 3), "d_u" (n+1,), "d_tau"
    (n+1, 4) -- derivatives with respect to every knot unknown, endpoint rows
    included -- plus the multiplier blocks "phi123" and "phi4" (n, 3) and the
    per-interval discrete cost "cost" (n,). A stationary point of the
    fixed-endpoint problem zeroes the interior state rows, all control rows,
    and both feasibility blocks.

    Both charts run on the stacked kernel; kkt_residuals_loop is the
    interval-at-a-time test oracle. ref_table optionally carries
    precomputed reference samples at the knot times.
    """
    if ref_table is None:
        ref_table = reference_table(ref, traj.grid, t0)
    stacks = _knot_stacks(traj)
    out = _kernel(
        model, act, traj.grid.h, *stacks, method,
        w, traj._lam, traj._mu, ref_table,
    )
    out["cost"] = _interval_cost(w, traj.grid.h, *stacks, ref_table)
    return out


def kkt_residuals_loop(w, ref, model, act, traj, method="cay", t0=0.0):
    """Interval-at-a-time reference for kkt_residuals_exact (any chart);
    used by the tests only."""
    n = traj.grid.n
    d_g = np.zeros((n + 1, 3))
    d_Pi = np.zeros((n + 1, 3))
    d_u = np.zeros(n + 1)
    d_tau = np.zeros((n + 1, 4))
    phi123, phi4 = constraint_residuals(model, act, traj, method)
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


def effective_lambda(traj, k):
    """Multiplier combination entering the rotor stationarity at knot k.

    (lam_k + lam_{k-1}) / (2h) at interior knots, lam_0 / h and
    lam_{n-1} / h at the ends; scales like the continuous momentum costate.
    """
    h = traj.grid.h
    lam = traj.lam_stack()
    if k == 0:
        return lam[0] / h
    if k == traj.grid.n:
        return lam[-1] / h
    return (lam[k] + lam[k - 1]) / (2.0 * h)


def tau_k_star(w, act, lam_eff, u):
    """Rotor command closing the stationarity block: -(1/c2) B(u)^T lam_eff."""
    return -(plant.torque_matrix(act, u).T @ np.asarray(lam_eff, dtype=float)) / w.c2


# ---------------------------------------------------------------------------
# componentwise transcription variant (characterized cross-check)


def kkt_residuals_paper(w, ref, model, act, traj):
    """As-published componentwise stationarity rows, kept for comparison only.

    Differences from the derivative-based blocks, by block:
      * lam rows: the inertia-ratio coefficients appear as sums
        (I_j + I_l)/(2 I_j I_l) instead of signed differences, the index
        pairing differs, the transported-momentum factor enters through
        2 (I + hat(x))/(1 + |x|^2) with no h/2 I^-1 weight (the |x| in the
        published denominator is read as |x|^2 -- the resolvent scaling),
        and the tracking term carries c4 without the h weight.
      * u rows: the rotor-map derivative term is absent, the fold-inertia
        coefficients drop one trigonometric factor, and several signs flip.
      * g rows: the attitude trace term enters unweighted by h and the
        chart-transported mu terms carry the opposite orientation.
      * tau rows: closed form per knot; after the effective-multiplier
        rescale it matches tau_k_star exactly (two misprints corrected: a
        doubled arm-length factor and the sign of the fourth rotor row).
    The returned "report" holds sup-norm deviations from the corresponding
    kkt_residuals_exact blocks, each compared under the normalization stated
    in the report key (lam rows against -d_Pi, u rows against d_u, g rows
    against -d_g/h, tau rows against the exact block rescaled by -1/h at
    interior knots and -2/h at the ends).
    """
    grid = traj.grid
    h = grid.h
    n = grid.n
    Pi = traj.Pi_stack()
    u = traj.u_stack()
    lam = traj.lam_stack()
    mu = traj.mu_stack()
    d_lam = np.zeros((n + 1, 3))
    d_u = np.zeros(n + 1)
    d_g = np.zeros((n + 1, 3))
    d_tau = np.zeros((n + 1, 4))
    for k in range(1, n):
        i_k = plant.inertia_diag(model, u[k])
        i1, i2, i3 = i_k
        s13 = (i3 + i1) / (2.0 * i3 * i1)
        s12 = (i2 + i1) / (2.0 * i2 * i1)
        s23 = (i3 + i2) / (2.0 * i3 * i2)
        x_t = 0.5 * h * (
            Pi[k] / i_k + Pi[k + 1] / plant.inertia_diag(model, u[k + 1])
        )
        y_t = 0.5 * h * (
            Pi[k - 1] / plant.inertia_diag(model, u[k - 1]) + Pi[k] / i_k
        )
        mu_x = liealg.dcay_paper_matrix(x_t).T @ mu[k]
        mu_y = liealg.dcay_paper_matrix(y_t).T @ mu[k - 1]
        _, Pi_d = ref.sample(k * h)
        rhs = np.empty(3)
        rhs[0] = (
            -(lam[k][1] + lam[k - 1][1]) * s13 * Pi[k][2]
            - (lam[k][2] + lam[k - 1][2]) * s12 * Pi[k][1]
        )
        rhs[1] = (
            (lam[k][1] - lam[k - 1][1]) * s23 * Pi[k][2]
            - (lam[k][2] + lam[k - 1][2]) * s12 * Pi[k][0]
        )
        rhs[2] = (
            (lam[k][1] - lam[k - 1][1]) * s23 * Pi[k][1]
            - (lam[k][2] + lam[k - 1][2]) * s13 * Pi[k][0]
        )
        rhs += -mu_x - mu_y - w.c4 * (Pi[k] - Pi_d)
        d_lam[k] = (lam[k] - lam[k - 1]) / h - rhs

        # fold-angle row: inertia-derivative coefficients with the published
        # single-trig factors, no rotor-map derivative term
        a = 4.0 * model.l**2 * model.m
        cu, su = np.cos(u[k]), np.sin(u[k])
        q1 = a * cu / i1**2
        q2 = a * su / i2**2
        d_u[k] = (
            w.c1 / h * (u[k + 1] - 2.0 * u[k] + u[k - 1])
            - (mu[k][0] + mu[k - 1][0]) * h * q1 * Pi[k][0]
            - (mu[k][1] + mu[k - 1][1]) * h * q2 * Pi[k][1]
            - (lam[k][0] + lam[k - 1][0]) * q1 * Pi[k][0] * Pi[k][2]
            - (lam[k][1] + lam[k - 1][1]) * q2 * Pi[k][1] * Pi[k][2]
            - (lam[k][2] + lam[k - 1][2]) * q2 * Pi[k][0] * Pi[k][1]
        )

        # attitude row: trace pairing plus chart-transported mu terms
        g_d, _ = ref.sample(k * h)
        m_att = np.linalg.solve(g_d, traj.knots[k].g)
        f_prev = traj.knots[k - 1].g.T @ traj.knots[k].g
        for i, e_i in enumerate(np.eye(3)):
            tr = np.trace(m_att @ liealg.hat(e_i) @ m_att)
            d_g[k][i] = (
                2.0 * w.c3 * tr
                + mu[k] @ liealg.dcay_inv(x_t, e_i)
                - mu[k - 1] @ liealg.dcay_inv(y_t, f_prev @ e_i)
            )

    for k in range(n + 1):
        d_tau[k] = w.c2 * traj.knots[k].tau + plant.torque_matrix(
            act, u[k]
        ).T @ effective_lambda(traj, k)

    exact = kkt_residuals_exact(w, ref, model, act, traj)
    interior = slice(1, n)
    report = {
        "lam_rows_vs_exact": float(
            np.abs(d_lam[interior] + exact["d_Pi"][interior]).max()
        ),
        "u_rows_vs_exact": float(np.abs(d_u[interior] - exact["d_u"][interior]).max()),
        "g_rows_vs_exact": float(
            np.abs(d_g[interior] + exact["d_g"][interior] / h).max()
        ),
        "tau_rows_vs_exact": float(
            max(
                np.abs(h * d_tau[1:n] + exact["d_tau"][1:n]).max(),
                np.abs(0.5 * h * d_tau[[0, n]] + exact["d_tau"][[0, n]]).max(),
            )
        ),
    }
    return {
        "d_lam": d_lam,
        "d_u": d_u,
        "d_g": d_g,
        "d_tau": d_tau,
        "report": report,
    }
