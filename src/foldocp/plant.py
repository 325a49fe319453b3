"""Foldable-quadrotor attitude plant: arm-angle dependent inertia, rotor force
map, forced rigid-body dynamics in body momentum form, and an RK4 baseline.

The four arms fold symmetrically by a single angle u, moving the motor masses
and reshaping the (diagonal) inertia; u also tilts the rotor force directions.
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


def inertia_diag(model, u):
    """Principal moments (I1, I2, I3) at arm angle u; broadcasts over u."""
    u = np.asarray(u, dtype=float)
    a = 4.0 * model.l**2 * model.m
    return np.stack(
        [
            model.Ic + a * np.sin(u) ** 2,
            model.Ic + a * np.cos(u) ** 2,
            np.full(u.shape, model.Ic + a),
        ],
        axis=-1,
    )


def d_inertia_du_diag(model, u):
    """d/du of the principal moments: (a sin(2u), -a sin(2u), 0), a = 4 l^2 m."""
    u = np.asarray(u, dtype=float)
    a = 4.0 * model.l**2 * model.m
    return np.stack([a * np.sin(2.0 * u), -a * np.sin(2.0 * u), np.zeros(u.shape)], axis=-1)


def d_inertia_inv_du_diag(model, u):
    """d/du of the inverse principal moments, -I'/I^2 componentwise."""
    return -d_inertia_du_diag(model, u) / inertia_diag(model, u) ** 2


def torque_matrix(act, u):
    """Matrix B(u) with body torque F = B(u) tau; shape (..., 3, 4)."""
    u = np.asarray(u, dtype=float)
    s = act.l * act.kappa1 * np.sin(u)
    c = act.l * act.kappa1 * np.cos(u)
    z = np.broadcast_to(act.l * act.kappa2, u.shape)
    row1 = np.stack([-s, s, s, -s], axis=-1)
    row2 = np.stack([c, c, -c, -c], axis=-1)
    row3 = np.stack([z, -z, z, -z], axis=-1)
    return np.stack([row1, row2, row3], axis=-2)


def d_torque_matrix_du(act, u):
    """d/du of B(u); the drag row is constant in u."""
    u = np.asarray(u, dtype=float)
    ds = act.l * act.kappa1 * np.cos(u)
    dc = -act.l * act.kappa1 * np.sin(u)
    row1 = np.stack([-ds, ds, ds, -ds], axis=-1)
    row2 = np.stack([dc, dc, -dc, -dc], axis=-1)
    return np.stack([row1, row2, np.zeros(u.shape + (4,))], axis=-2)


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


def rk4_step(model, act, state, input_fn, t, h):
    """One classical RK4 step of the coupled (g, Pi) dynamics.

    The attitude block integrates the matrix embedding; callers are expected to
    re-orthonormalize on the liealg.REORTH_INTERVAL cadence (integrate does).
    """
    g0, p0 = np.asarray(state.g, dtype=float), np.asarray(state.Pi, dtype=float)

    def rhs(g, p, ti):
        u, _, tau = _as_input(input_fn(ti))
        omega = p / inertia_diag(model, u)
        return reconstruction_rhs(g, omega), lie_poisson_rhs(model, act, p, u, tau)

    k1g, k1p = rhs(g0, p0, t)
    k2g, k2p = rhs(g0 + 0.5 * h * k1g, p0 + 0.5 * h * k1p, t + 0.5 * h)
    k3g, k3p = rhs(g0 + 0.5 * h * k2g, p0 + 0.5 * h * k2p, t + 0.5 * h)
    k4g, k4p = rhs(g0 + h * k3g, p0 + h * k3p, t + h)
    g1 = g0 + (h / 6.0) * (k1g + 2.0 * k2g + 2.0 * k3g + k4g)
    p1 = p0 + (h / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
    return PlantState(g1, p1)


def integrate(model, act, state0, input_fn, t0, h, n_steps, reorth_every=liealg.REORTH_INTERVAL):
    """Integrate n_steps of rk4_step; returns (times, g (n+1,3,3), Pi (n+1,3)).

    Raises NonFinite as soon as the state stops being finite.
    """
    times = t0 + h * np.arange(n_steps + 1)
    gs = np.empty((n_steps + 1, 3, 3))
    ps = np.empty((n_steps + 1, 3))
    state = PlantState(state0.g, state0.Pi)
    gs[0], ps[0] = state.g, state.Pi
    for k in range(n_steps):
        state = rk4_step(model, act, state, input_fn, times[k], h)
        if not (np.isfinite(state.Pi).all() and np.isfinite(state.g).all()):
            raise NonFinite(f"state diverged at step {k + 1} (t = {times[k + 1]:.6g})")
        if reorth_every and (k + 1) % reorth_every == 0:
            state = PlantState(liealg.orthonormalize(state.g), state.Pi)
        gs[k + 1], ps[k + 1] = state.g, state.Pi
    return times, gs, ps


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

