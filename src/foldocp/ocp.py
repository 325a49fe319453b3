"""Continuous-time optimality system for the folding-quadrotor attitude problem.

Running cost, Pontryagin function, closed-form torque elimination, costate
equations, and the assembled first-order boundary-value field with an RK4
shooting integrator.  Every rate is the derivative-based form, pinned by
finite differences of the Pontryagin function; the as-published expanded
variants live in `published`.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import liealg, plant


class RegularityViolation(ValueError):
    """Raised when a weight degeneracy removes the second-order u dynamics."""


@dataclass(frozen=True)
class CostWeights:
    """Quadratic running-cost weights: fold rate, thrust, attitude, momentum."""

    c1: float
    c2: float
    c3: float
    c4: float

    def __post_init__(self):
        w = (self.c1, self.c2, self.c3, self.c4)
        if not np.all(np.isfinite(w)):
            raise ValueError("cost weights must be finite")
        if min(w) < 0.0:
            raise ValueError("cost weights must be nonnegative")
        if self.c2 <= 0.0:
            raise ValueError("thrust weight c2 must be positive (torque elimination)")

    def as_array(self):
        return np.array([self.c1, self.c2, self.c3, self.c4])


@dataclass(frozen=True)
class Reference:
    """Tracking reference: pure maps t -> desired attitude and body momentum."""

    g_d: Callable[[float], np.ndarray]
    Pi_d: Callable[[float], np.ndarray]
    # varint.reference_table's samples per grid, freed with the reference
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def sample(self, t):
        g = np.asarray(self.g_d(t), dtype=float)
        liealg.require_rotation(g, tol=1e-6)
        return g, np.asarray(self.Pi_d(t), dtype=float)


def constant_reference(g_d=None, Pi_d=None):
    """Reference fixed at a single attitude/momentum pair (defaults: identity, rest)."""
    g = np.eye(3) if g_d is None else np.array(g_d, dtype=float)
    p = np.zeros(3) if Pi_d is None else np.array(Pi_d, dtype=float)
    liealg.require_rotation(g, tol=1e-6)
    return Reference(g_d=lambda t: g, Pi_d=lambda t: p)


@dataclass(frozen=True)
class OCPState:
    """One point of the two-point boundary-value system (p_u carried as -c1*u_dot)."""

    g: np.ndarray
    Pi: np.ndarray
    u: float
    u_dot: float
    p_Pi: np.ndarray
    p_xi: np.ndarray

    def __post_init__(self):
        for name in ("g", "Pi", "p_Pi", "p_xi"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not (
            np.isfinite(self.g).all()
            and np.isfinite(self.Pi).all()
            and np.isfinite(self.p_Pi).all()
            and np.isfinite(self.p_xi).all()
            and np.isfinite(self.u)
            and np.isfinite(self.u_dot)
        ):
            raise ValueError("state must be finite")


def attitude_error(g, g_d):
    """Matrix error g_d^-1 g - g^-1 g_d; skew, vanishes iff g = g_d.
    Broadcasts over leading axes."""
    g = np.asarray(g, dtype=float)
    g_d = np.asarray(g_d, dtype=float)
    return np.swapaxes(g_d, -1, -2) @ g - np.swapaxes(g, -1, -2) @ g_d


def attitude_cost(g, g_d):
    """Half the squared Frobenius norm of the attitude error; broadcasts."""
    e = attitude_error(g, g_d)
    return 0.5 * (e * e).sum(axis=(-1, -2))


def attitude_cost_gradient(g, g_d):
    """Body-frame gradient of attitude_cost: along g(s) = g retract(s eta),
    d/ds attitude_cost = <gradient, eta> at s = 0. Broadcasts."""
    m = np.swapaxes(np.asarray(g_d, dtype=float), -1, -2) @ np.asarray(g, dtype=float)
    n = m @ m
    return 2.0 * liealg.vee(n - np.swapaxes(n, -1, -2), tol=None)


def _stage_cost(w, g, g_d, Pi, Pi_d, u_dot, tau):
    # running_cost against already sampled reference values; broadcasts over
    # knots so the discrete cost shares this formula
    tau = np.asarray(tau, dtype=float)
    d_Pi = np.asarray(Pi, dtype=float) - np.asarray(Pi_d, dtype=float)
    return (
        0.5 * w.c1 * u_dot**2
        + 0.5 * w.c2 * (tau * tau).sum(axis=-1)
        + w.c3 * attitude_cost(g, g_d)
        + 0.5 * w.c4 * (d_Pi * d_Pi).sum(axis=-1)
    )


def running_cost(w, ref, t, g, Pi, u, u_dot, tau):
    """Instantaneous cost: (c1 u_dot^2 + c2 |tau|^2 + c3 |E|^2 + c4 |Pi - Pi_d|^2)/2."""
    return float(_stage_cost(w, g, ref.g_d(t), Pi, ref.Pi_d(t), u_dot, tau))


def tau_star(w, act, p_Pi, u):
    """Thrusts making the Pontryagin function stationary: -B(u)^T p_Pi / c2.
    Broadcasts over a stack of fold angles u (...) with p_Pi (..., 3)."""
    b = plant.torque_matrix(act, u)
    p = np.asarray(p_Pi, dtype=float)[..., None]
    return -(np.swapaxes(b, -1, -2) @ p)[..., 0] / w.c2


def pontryagin_hamiltonian(w, model, act, ref, t, state, tau, p_u):
    """Cost plus momentum, attitude, and fold-rate pairings; stationary in tau
    at tau_star and conserved along extremals of the assembled field."""
    xi = state.Pi / plant.inertia_diag(model, state.u)
    f = plant.lie_poisson_rhs(model, act, state.Pi, state.u, tau)
    c = running_cost(w, ref, t, state.g, state.Pi, state.u, state.u_dot, tau)
    return c + float(state.p_Pi @ f) + float(state.p_xi @ xi) + float(p_u) * state.u_dot


def _coupling(i_inv, Pi):
    return i_inv[:, None] * liealg.hat(Pi) - liealg.hat(i_inv * Pi)


def A_matrix(model, u, Pi):
    """Coupling matrix of the momentum costate rate, I^-1 hat(Pi) - hat(I^-1 Pi);
    entries follow the (I_i^-1 - I_j^-1) Pi_k pattern."""
    return _coupling(1.0 / plant.inertia_diag(model, u), np.asarray(Pi, dtype=float))


def _pPi_rate(w, ref, t, i_inv, Pi, p_Pi, p_xi):
    d_Pi = Pi - np.asarray(ref.Pi_d(t), dtype=float)
    return -w.c4 * d_Pi + _coupling(i_inv, Pi) @ p_Pi - i_inv * p_xi


def pPi_rhs(w, model, ref, t, state):
    """Momentum costate rate -c4 (Pi - Pi_d) + A p_Pi - I^-1 p_xi."""
    i_inv = 1.0 / plant.inertia_diag(model, state.u)
    return _pPi_rate(w, ref, t, i_inv, state.Pi, state.p_Pi, state.p_xi)


def pXi_rhs(w, g, xi, p_xi, ref, t):
    """Attitude costate rate: -c3 * attitude gradient plus the coadjoint term."""
    g_d = np.asarray(ref.g_d(t), dtype=float)
    grad = attitude_cost_gradient(g, g_d)
    return -w.c3 * grad + liealg.coad(xi, np.asarray(p_xi, dtype=float))


def _u_accel(w, model, act, u, Pi, p_Pi, p_xi, tau):
    db = plant.d_torque_matrix_du(act, u)
    di = plant.d_inertia_inv_du_diag(model, u) * Pi
    return (p_Pi @ (db @ tau) - p_Pi @ np.cross(di, Pi) + p_xi @ di) / w.c1


def u_ddot(w, model, act, state, tau=None):
    """Fold-angle acceleration from stationarity of the u channel:
    c1 u_ddot = <p_Pi, dB/du tau> - <p_Pi, (dI^-1/du Pi) x Pi> + <p_xi, dI^-1/du Pi>.
    The running cost has no explicit u term.  tau defaults to tau_star."""
    if w.c1 == 0.0:
        raise RegularityViolation("c1 = 0 removes the second-order u dynamics")
    if tau is None:
        tau = tau_star(w, act, state.p_Pi, state.u)
    return float(_u_accel(
        w, model, act, state.u, state.Pi, state.p_Pi, state.p_xi,
        np.asarray(tau, dtype=float),
    ))


def first_constraint_check(w, act, state, tau, p_u):
    """Residual magnitudes of the torque stationarity and fold-rate pairing
    conditions: (|c2 tau + B^T p_Pi|, |c1 u_dot + p_u|).  Both vanish on any
    trajectory of the assembled field with tau = tau_star, p_u = -c1 u_dot."""
    b = plant.torque_matrix(act, state.u)
    r_tau = w.c2 * np.asarray(tau, dtype=float) + b.T @ state.p_Pi
    r_u = w.c1 * state.u_dot + float(p_u)
    return float(np.sqrt((r_tau * r_tau).sum())), abs(r_u)


def _field(w, model, act, ref, t, g, Pi, u, u_dot, p_Pi, p_xi):
    i_inv = 1.0 / plant.inertia_diag(model, u)
    xi = i_inv * Pi
    tau = tau_star(w, act, p_Pi, u)
    return (
        g @ liealg.hat(xi),
        plant.lie_poisson_rhs(model, act, Pi, u, tau),
        u_dot,
        _u_accel(w, model, act, u, Pi, p_Pi, p_xi, tau),
        _pPi_rate(w, ref, t, i_inv, Pi, p_Pi, p_xi),
        pXi_rhs(w, g, xi, p_xi, ref, t),
    )


def necessary_rhs(w, model, act, ref, t, state):
    """Time derivative of the assembled boundary-value system at one state,
    with tau eliminated internally; returns (g_dot, Pi_dot, u_dot, u_ddot,
    p_Pi_dot, p_xi_dot)."""
    if w.c1 == 0.0:
        raise RegularityViolation("c1 = 0 removes the second-order u dynamics")
    return _field(
        w, model, act, ref, t, state.g, state.Pi, state.u, state.u_dot, state.p_Pi, state.p_xi
    )


def pack_state(state):
    """Flatten an OCPState to shape (20,): g row-major, Pi, u, u_dot, p_Pi, p_xi."""
    return np.concatenate(
        [
            np.asarray(state.g, dtype=float).ravel(),
            state.Pi,
            [state.u, state.u_dot],
            state.p_Pi,
            state.p_xi,
        ]
    )


def unpack_state(y):
    """Inverse of pack_state; returns an OCPState."""
    y = np.asarray(y, dtype=float)
    return OCPState(
        g=y[:9].reshape(3, 3),
        Pi=y[9:12],
        u=float(y[12]),
        u_dot=float(y[13]),
        p_Pi=y[14:17],
        p_xi=y[17:20],
    )


def necessary_rhs_flat(w, model, act, ref, t, y):
    """necessary_rhs on the packed 20-vector layout; for library integrators."""
    if w.c1 == 0.0:
        raise RegularityViolation("c1 = 0 removes the second-order u dynamics")
    y = np.asarray(y, dtype=float)
    g_dot, Pi_dot, u_dot, u_dd, p_Pi_dot, p_xi_dot = _field(
        w, model, act, ref, t, y[:9].reshape(3, 3), y[9:12], y[12], y[13], y[14:17], y[17:20]
    )
    return np.concatenate([g_dot.ravel(), Pi_dot, [u_dot, u_dd], p_Pi_dot, p_xi_dot])


@dataclass(frozen=True)
class ExtremalTrajectory:
    """Sampled solution of the assembled field on a uniform grid."""

    times: np.ndarray
    g: np.ndarray
    Pi: np.ndarray
    u: np.ndarray
    u_dot: np.ndarray
    p_Pi: np.ndarray
    p_xi: np.ndarray

    def state(self, k):
        return OCPState(
            g=self.g[k],
            Pi=self.Pi[k],
            u=float(self.u[k]),
            u_dot=float(self.u_dot[k]),
            p_Pi=self.p_Pi[k],
            p_xi=self.p_xi[k],
        )


def integrate_necessary(
    w, model, act, ref, state0, h, n_steps, t0=0.0, reorth_every=liealg.REORTH_INTERVAL
):
    """March the assembled field with fixed-step RK4 from state0.

    The attitude block is re-orthonormalized every reorth_every steps to hold
    the rotation defect near round-off over long horizons.
    """
    if w.c1 == 0.0:
        raise RegularityViolation("c1 = 0 removes the second-order u dynamics")
    y = pack_state(state0)
    n = int(n_steps)
    times = t0 + h * np.arange(n + 1)
    out = np.empty((n + 1, 20))
    out[0] = y
    for k in range(n):
        t = times[k]
        k1 = necessary_rhs_flat(w, model, act, ref, t, y)
        k2 = necessary_rhs_flat(w, model, act, ref, t + 0.5 * h, y + 0.5 * h * k1)
        k3 = necessary_rhs_flat(w, model, act, ref, t + 0.5 * h, y + 0.5 * h * k2)
        k4 = necessary_rhs_flat(w, model, act, ref, t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(y).all():
            raise plant.NonFinite(f"state diverged at step {k + 1}")
        if (k + 1) % reorth_every == 0:
            y[:9] = liealg.orthonormalize(y[:9].reshape(3, 3)).ravel()
        out[k + 1] = y
    return ExtremalTrajectory(
        times=times,
        g=out[:, :9].reshape(n + 1, 3, 3).copy(),
        Pi=out[:, 9:12].copy(),
        u=out[:, 12].copy(),
        u_dot=out[:, 13].copy(),
        p_Pi=out[:, 14:17].copy(),
        p_xi=out[:, 17:20].copy(),
    )
