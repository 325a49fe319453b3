"""Foldable-quadrotor attitude plant: arm-angle dependent inertia, rotor force
map, forced rigid-body dynamics in body momentum form, and an RK4 baseline.

The four arms fold symmetrically by a single angle u, moving the motor masses
and reshaping the (diagonal) inertia; u also tilts the rotor force directions.
The one RK4 loop, `_rk4_run`, steps a flat state whose first nine entries are
the row-major attitude; `integrate` and `ocp.integrate_necessary` call it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import liealg


class NonFinite(RuntimeError):
    """Integration produced a non-finite state."""


# Arm-angle box: the fold saturates slightly inside (-pi/2, pi/2).
U_MARGIN = 0.05
U_MIN = -np.pi / 2.0 + U_MARGIN
U_MAX = np.pi / 2.0 - U_MARGIN

# Calibrated so the inertia at u = pi/4 is diag(0.034, 0.034, 0.056) kg m^2.
_L_DEFAULT = 0.235
_M_DEFAULT = 0.011 / _L_DEFAULT**2
_IC_DEFAULT = 0.012


@dataclass(frozen=True)
class InertiaModel:
    """Diagonal inertia I(u) = diag(Ic + 4 l^2 sin^2(u) m, Ic + 4 l^2 cos^2(u) m, Ic + 4 l^2 m).

    Ic: core inertia (kg m^2), l: arm length (m), m: motor mass (kg).
    """

    Ic: float = _IC_DEFAULT
    l: float = _L_DEFAULT
    m: float = _M_DEFAULT

    def __post_init__(self):
        if self.Ic <= 0.0 or self.l <= 0.0 or self.m <= 0.0:
            raise ValueError("inertia parameters must be positive")


@dataclass(frozen=True)
class ActuationModel:
    """Rotor-thrust-to-body-torque map parameters.

    l: arm length (m), kappa1/kappa2: tilt and drag torque coefficients.
    """

    l: float = _L_DEFAULT
    kappa1: float = 1.0
    kappa2: float = 1.0


@dataclass(frozen=True)
class PlantState:
    g: np.ndarray  # attitude, 3x3 rotation
    Pi: np.ndarray  # body angular momentum

    def __post_init__(self):
        object.__setattr__(self, "g", np.asarray(self.g, dtype=float))
        object.__setattr__(self, "Pi", np.asarray(self.Pi, dtype=float))


@dataclass(frozen=True)
class ControlInput:
    u: float
    u_dot: float
    tau: np.ndarray  # four rotor thrust commands

    def __post_init__(self):
        object.__setattr__(self, "tau", np.asarray(self.tau, dtype=float))
        if not (np.isfinite(self.u) and np.isfinite(self.u_dot) and np.isfinite(self.tau).all()):
            raise ValueError("control input must be finite")
        if not (U_MIN < self.u < U_MAX):
            raise ValueError(f"arm angle {self.u} outside the box ({U_MIN:.4f}, {U_MAX:.4f})")


# Rotor sign pattern of B(u): row i of B (and of dB/du) is one row term
# times row i of this pattern.
_B_SIGNS = ((-1, 1, 1, -1), (1, 1, -1, -1), (1, -1, 1, -1))


def _diag3(u, d1, d2, d3):
    # entries broadcast over u along a new last axis; cheaper than np.stack
    out = np.empty(u.shape + (3,))
    out[..., 0], out[..., 1], out[..., 2] = d1, d2, d3
    return out


def inertia_diag(model, u):
    """Principal moments (I1, I2, I3) at arm angle u; broadcasts over u."""
    u = np.asarray(u, dtype=float)
    a = 4.0 * model.l**2 * model.m
    return _diag3(u, model.Ic + a * np.sin(u) ** 2, model.Ic + a * np.cos(u) ** 2, model.Ic + a)


def d_inertia_du_diag(model, u):
    """d/du of the principal moments: (a sin(2u), -a sin(2u), 0), a = 4 l^2 m."""
    u = np.asarray(u, dtype=float)
    d = 4.0 * model.l**2 * model.m * np.sin(2.0 * u)
    return _diag3(u, d, -d, 0.0)


def d_inertia_inv_du_diag(model, u):
    """d/du of the inverse principal moments, -I'/I^2 componentwise."""
    return -d_inertia_du_diag(model, u) / inertia_diag(model, u) ** 2


def _signed_rows(u, *terms):
    # (..., 3, 4): row i is terms[i] (broadcast over u) times _B_SIGNS[i]
    out = np.empty(u.shape + (3, 4))
    for i, (term, signs) in enumerate(zip(terms, _B_SIGNS)):
        for j, sign in enumerate(signs):
            out[..., i, j] = term if sign > 0 else -term
    return out


def torque_matrix(act, u):
    """Matrix B(u) with body torque F = B(u) tau; shape (..., 3, 4)."""
    u = np.asarray(u, dtype=float)
    k = act.l * act.kappa1
    return _signed_rows(u, k * np.sin(u), k * np.cos(u), act.l * act.kappa2)


def d_torque_matrix_du(act, u):
    """d/du of B(u); the drag row is constant in u."""
    u = np.asarray(u, dtype=float)
    k = act.l * act.kappa1
    return _signed_rows(u, k * np.cos(u), -k * np.sin(u), 0.0)


def body_torque(act, u, tau):
    """Body torque produced by the four rotor thrusts at arm angle u."""
    tau = np.asarray(tau, dtype=float)
    return (torque_matrix(act, u) @ tau[..., None])[..., 0]


def lie_poisson_rhs(model, act, Pi, u, tau):
    """Momentum equation Pi_dot = B(u) tau - (I(u)^{-1} Pi) x Pi."""
    Pi = np.asarray(Pi, dtype=float)
    omega = Pi / inertia_diag(model, u)
    return body_torque(act, u, tau) - np.cross(omega, Pi)


def euler_poincare_rhs(model, act, omega, u, u_dot, tau):
    """Velocity form: I(u) omega_dot + (dI/du u_dot) omega = F - omega x I(u) omega."""
    omega = np.asarray(omega, dtype=float)
    inertia = inertia_diag(model, u)
    idot = d_inertia_du_diag(model, u) * np.asarray(u_dot, dtype=float)[..., None]
    f = body_torque(act, u, tau)
    return (f - np.cross(omega, inertia * omega) - idot * omega) / inertia


def reconstruction_rhs(g, omega):
    """Attitude kinematics g_dot = g hat(omega)."""
    return np.asarray(g, dtype=float) @ liealg.hat(omega)


def _as_input(value):
    if isinstance(value, ControlInput):
        return value.u, value.u_dot, value.tau
    u, u_dot, tau = value
    return u, u_dot, np.asarray(tau, dtype=float)


def _rk4_increment(rhs, t, y, h):
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_run(rhs, y0, t0, h, n_steps, reorth_every):
    """RK4 loop of integrate and ocp.integrate_necessary: rhs(t, y) on a flat
    state whose first nine entries are the row-major attitude, re-orthonormalized
    every reorth_every steps (never when 0). Returns (times, states (n+1, size));
    raises NonFinite as soon as the state stops being finite."""
    times = t0 + h * np.arange(n_steps + 1)
    out = np.empty((n_steps + 1, y0.size))
    out[0] = y = y0
    for k in range(n_steps):
        y = _rk4_increment(rhs, times[k], y, h)
        if not np.isfinite(y).all():
            raise NonFinite(f"state diverged at step {k + 1} (t = {times[k + 1]:.6g})")
        if reorth_every and (k + 1) % reorth_every == 0:
            y[:9] = liealg.orthonormalize(y[:9].reshape(3, 3)).ravel()
        out[k + 1] = y
    return times, out


def _plant_rhs(model, act, input_fn):
    # coupled (g, Pi) field on the flat 12-vector of _rk4_run
    def rhs(t, y):
        u, _, tau = _as_input(input_fn(t))
        omega = y[9:] / inertia_diag(model, u)
        return np.concatenate([
            reconstruction_rhs(y[:9].reshape(3, 3), omega).ravel(),
            lie_poisson_rhs(model, act, y[9:], u, tau),
        ])
    return rhs


def rk4_step(model, act, state, input_fn, t, h):
    """One classical RK4 step of the coupled (g, Pi) dynamics.

    The attitude block integrates the matrix embedding; callers are expected to
    re-orthonormalize on the liealg.REORTH_INTERVAL cadence (integrate does).
    A non-finite result is returned, not raised.
    """
    y0 = np.concatenate([state.g.ravel(), state.Pi])
    y = _rk4_increment(_plant_rhs(model, act, input_fn), t, y0, h)
    return PlantState(y[:9].reshape(3, 3), y[9:])


def integrate(model, act, state0, input_fn, t0, h, n_steps, reorth_every=liealg.REORTH_INTERVAL):
    """Integrate n_steps of rk4_step; returns (times, g (n+1,3,3), Pi (n+1,3)).

    Raises NonFinite as soon as the state stops being finite.
    """
    y0 = np.concatenate([state0.g.ravel(), state0.Pi])
    times, ys = _rk4_run(_plant_rhs(model, act, input_fn), y0, t0, h, n_steps, reorth_every)
    return times, ys[:, :9].reshape(-1, 3, 3), ys[:, 9:]


def free_momentum_rk4(inertia, Pi0, h, n_steps):
    """Fast RK4 of the unforced momentum equation at constant inertia.

    Returns the (n+1, 3) momentum history. Scalar arithmetic on purpose: this
    is the long-horizon drift baseline.
    """
    i1, i2, i3 = float(inertia[0]), float(inertia[1]), float(inertia[2])
    out = np.empty((n_steps + 1, 3))
    p1, p2, p3 = (float(v) for v in Pi0)
    out[0] = (p1, p2, p3)

    def f(a, b, c):
        return (
            (1.0 / i3 - 1.0 / i2) * b * c,
            (1.0 / i1 - 1.0 / i3) * c * a,
            (1.0 / i2 - 1.0 / i1) * a * b,
        )

    for k in range(n_steps):
        a1, b1, c1 = f(p1, p2, p3)
        a2, b2, c2 = f(p1 + 0.5 * h * a1, p2 + 0.5 * h * b1, p3 + 0.5 * h * c1)
        a3, b3, c3 = f(p1 + 0.5 * h * a2, p2 + 0.5 * h * b2, p3 + 0.5 * h * c2)
        a4, b4, c4 = f(p1 + h * a3, p2 + h * b3, p3 + h * c3)
        p1 += (h / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        p2 += (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        p3 += (h / 6.0) * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
        out[k + 1] = (p1, p2, p3)
    return out

