"""Newton and marching solvers for the discrete stationarity system.

Unknowns live in a knot-major flat vector (per knot: attitude chart increment,
momentum, fold angle, rotor commands; per interval: the two multipliers)
paired with an (n+1, 3, 3) stack of base attitudes. Residuals, Jacobian
sweeps and line searches work on that pair directly through varint's stacked
kernel, which also takes a batch of packed vectors; trajectories, which
hold stacks, are built only for unpack and the returned solutions. The
attitude block is re-centered every Newton iterate so increments stay small.
The Jacobian is central finite differences over structurally independent
column groups, all 90 perturbed copies evaluated in one batched residual
call, and factored sparse. Marching windows build their dense Jacobian from
one batched call the same way. Every attitude chart is the Cayley one.
Newton and marching share one Armijo line search and fixed constants (the
iteration budget, step floor, difference step and backtracking schedule);
SolverConfig carries only the residual tolerance.
"""

import functools
from dataclasses import dataclass, replace
from typing import Any

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import LinearOperator, onenormest, splu

from . import liealg, ocp, plant, varint

# chart radius for attitude increments; Newton trials beyond this are
# rejected and backtracked rather than trusted
CHART_RADIUS = np.pi - 0.1

_KNOT_WIDTH = 11  # 3 attitude + 3 momentum + 1 fold + 4 rotors
_PAIR_WIDTH = 17  # knot block + interval multipliers (3 + 3)


class SingularJacobian(RuntimeError):
    """The stationarity Jacobian cannot be factored (e.g. c1 = 0)."""


class SingularBlock(RuntimeError):
    """One interface block of the marching map is singular."""


# Newton constants of newton_solve, jacobian_fd and step_map: iteration budget,
# step-norm floor, relative central-difference step, and the line search's
# Armijo slope, backtracking factor and smallest trial step
_MAX_ITER = 100
_TOL_STEP = 1e-10
_FD_EPSILON = 1e-6
_ARMIJO_C = 1e-4
_BACKTRACK = 0.5
_MIN_STEP = 1e-8
# residual tolerance of a marching window
_INTERFACE_TOL = 1e-11


@dataclass(frozen=True)
class SolverConfig:
    """Sup-norm residual tolerance at which newton_solve stops."""

    tol_residual: float = 1e-9

    def __post_init__(self):
        if not (np.isfinite(self.tol_residual) and self.tol_residual > 0.0):
            raise ValueError("tol_residual must be a positive real")


_BC_FIELDS = {
    "fixed_endpoints": (
        ("g0", "Pi0", "u0", "gN", "PiN", "uN"),
        ("u_dot0", "p_Pi0", "p_xi0"),
    ),
    "free_terminal": (
        ("g0", "Pi0", "u0"),
        ("gN", "PiN", "uN", "u_dot0", "p_Pi0", "p_xi0"),
    ),
    "initial_costate": (
        ("g0", "Pi0", "u0", "u_dot0", "p_Pi0", "p_xi0"),
        ("gN", "PiN", "uN"),
    ),
}


@dataclass(frozen=True)
class BoundaryConditions:
    """One of three closures of the discrete system.

    fixed_endpoints pins (g, Pi, u) at both ends and drops their stationarity
    rows; free_terminal pins the initial triple only, leaving the terminal
    rows as natural conditions; initial_costate pins the initial triple plus
    the fold rate and both costates (multiplier pins replace the initial
    stationarity rows, the terminal rows are dropped).
    """

    mode: str
    g0: Any = None
    Pi0: Any = None
    u0: Any = None
    gN: Any = None
    PiN: Any = None
    uN: Any = None
    u_dot0: Any = None
    p_Pi0: Any = None
    p_xi0: Any = None

    def __post_init__(self):
        if self.mode not in _BC_FIELDS:
            raise ValueError(f"unknown boundary mode {self.mode!r}")
        required, forbidden = _BC_FIELDS[self.mode]
        for name in required:
            if getattr(self, name) is None:
                raise ValueError(f"{self.mode} requires {name}")
        for name in forbidden:
            if getattr(self, name) is not None:
                raise ValueError(f"{name} does not apply to {self.mode}")
        for name in ("g0", "gN"):
            value = getattr(self, name)
            if value is not None:
                value = np.asarray(value, dtype=float)
                liealg.require_rotation(value)
                object.__setattr__(self, name, value)
        for name in ("Pi0", "PiN", "p_Pi0", "p_xi0"):
            value = getattr(self, name)
            if value is not None:
                value = np.asarray(value, dtype=float)
                if value.shape != (3,) or not np.isfinite(value).all():
                    raise ValueError(f"{name} must be a finite 3-vector")
                object.__setattr__(self, name, value)
        for name in ("u0", "uN", "u_dot0"):
            value = getattr(self, name)
            if value is not None:
                value = float(value)
                if not np.isfinite(value):
                    raise ValueError(f"{name} must be finite")
                object.__setattr__(self, name, value)


@dataclass(frozen=True)
class Problem:
    """Weights, reference, plant models, and grid bundled for the solver."""

    w: ocp.CostWeights
    ref: ocp.Reference
    model: plant.InertiaModel
    act: plant.ActuationModel
    grid: varint.GridSpec


# ---------------------------------------------------------------------------
# flat packing and charts


def _total_size(n):
    return _PAIR_WIDTH * n + _KNOT_WIDTH


def _rows(v, n):
    """Copy of a packed vector (or a batch (..., size) of them) as
    (..., n+1, _PAIR_WIDTH) knot-major rows; the last row's multiplier slots
    are zero padding."""
    batch = v.shape[:-1]
    rows = np.zeros(batch + ((n + 1) * _PAIR_WIDTH,))
    rows[..., :_total_size(n)] = v
    return rows.reshape(batch + (n + 1, _PAIR_WIDTH))


def _attitudes(g, delta):
    """g_k retract(delta_k) for every knot of delta (..., n+1, 3); OutOfChart
    names the first knot whose increment reaches the chart radius in any
    copy of a batch."""
    norms = np.sqrt((delta * delta).sum(axis=-1)).reshape(-1, delta.shape[-2])
    worst = norms.max(axis=0)
    outside = np.flatnonzero(worst >= CHART_RADIUS)
    if outside.size:
        k = outside[0]
        raise liealg.OutOfChart(
            f"attitude increment {worst[k]:.3f} at knot {k} leaves the chart"
        )
    return g @ liealg.retract(delta)


def _trajectory(grid, g, rows):
    return varint.trajectory_from_arrays(
        grid, g, rows[:, 3:6], rows[:, 6], rows[:, 7:11],
        rows[:-1, 11:14], rows[:-1, 14:17],
    )


def pack(traj):
    """Flatten a trajectory; attitude slots hold zero chart increments."""
    n = traj.grid.n
    rows = np.zeros((n + 1, _PAIR_WIDTH))
    rows[:, 3:6] = traj.Pi_stack()
    rows[:, 6] = traj.u_stack()
    rows[:, 7:11] = traj.tau_stack()
    rows[:-1, 11:14] = traj.lam_stack()
    rows[:-1, 14:17] = traj.mu_stack()
    return rows.ravel()[:_total_size(n)]


def unpack(base_traj, v):
    """Rebuild a trajectory from a flat vector around base_traj's attitudes.

    g_k <- g_k retract(delta_k); all other fields are taken verbatim.
    Raises OutOfChart when an attitude increment approaches the chart radius.
    """
    n = base_traj.grid.n
    v = np.asarray(v, dtype=float)
    if v.shape != (_total_size(n),):
        raise ValueError(f"expected a flat vector of length {_total_size(n)}")
    rows = _rows(v, n)
    g = _attitudes(base_traj.g_stack(), rows[:, :3])
    return _trajectory(base_traj.grid, g, rows)


def _masks(n, mode):
    """Boolean (rows, cols) masks carving the square system of n intervals
    under a boundary mode out of the full stationarity + feasibility stack."""
    rows = np.ones(_total_size(n), dtype=bool)
    cols = np.ones(_total_size(n), dtype=bool)
    if mode == "fixed_endpoints":
        for k in (0, n):
            b = _PAIR_WIDTH * k
            rows[b:b + 7] = False
            cols[b:b + 7] = False
    elif mode == "free_terminal":
        rows[0:7] = False
        cols[0:7] = False
    else:  # initial_costate: pins replace the initial rows, terminal dropped
        cols[0:7] = False
        b = _PAIR_WIDTH * n
        rows[b:b + 7] = False
    return rows, cols


def _full_residual(prob, g, v, bc=None, t0=0.0):
    """Stationarity and feasibility rows, packed like the unknowns, at the
    knots g_k retract(delta_k) described by (g, v). v is one packed vector or
    a stack (..., size) of them around the same g; the rows come back in
    the same shape from one kernel call. The number of intervals is read from g,
    so windows (first knot at time t0) shorter than prob.grid work too."""
    n = g.shape[0] - 1
    h = prob.grid.h
    rows = _rows(v, n)
    out = varint._kernel(
        prob.model, prob.act, h, _attitudes(g, rows[..., :3]),
        rows[..., 3:6], rows[..., 6], rows[..., 7:11],
        w=prob.w, lam=rows[..., :-1, 11:14], mu=rows[..., :-1, 14:17],
        ref_table=varint.reference_table(prob.ref, varint.GridSpec(h=h, n=n), t0),
    )
    r = np.zeros(rows.shape)
    r[..., 0:3] = out["d_g"]
    r[..., 3:6] = out["d_Pi"]
    r[..., 6] = out["d_u"]
    r[..., 7:11] = out["d_tau"]
    r[..., :-1, 11:14] = out["phi123"]
    r[..., :-1, 14:17] = out["phi4"]
    r = r.reshape(v.shape[:-1] + (-1,))[..., :_total_size(n)]
    if bc is not None and bc.mode == "initial_costate":
        r[..., 0:3] = rows[..., 0, 14:17] - bc.p_xi0
        r[..., 3:6] = rows[..., 0, 11:14] - h * bc.p_Pi0
        r[..., 6] = (rows[..., 1, 6] - rows[..., 0, 6]) / h - bc.u_dot0
    return r


def assemble_residual(prob, traj, bc):
    """Square residual under the boundary closure; zero iff the discrete
    necessary conditions hold."""
    rows, _ = _masks(prob.grid.n, bc.mode)
    return _full_residual(prob, traj.g_stack(), pack(traj), bc)[rows]


# ---------------------------------------------------------------------------
# finite-difference Jacobian (colored, sparse)


@functools.lru_cache(maxsize=16)
def _coloring(n, mode):
    """Column groups and sparsity pattern of the colored sweep, as index
    arrays, for n intervals under a boundary mode.

    Knot columns three knots apart and interval columns two intervals apart
    touch disjoint rows, so a group perturbs one coordinate slot at every
    such column. Returns (free, group, entry_group, entry_row, entry_col,
    row, col): the free full columns and the group of each; then per
    structural nonzero its group, full row and full column, and its
    (row, col) in the square system, ordered by column then row.
    """
    rows_mask, cols_mask = _masks(n, mode)
    free = np.flatnonzero(cols_mask)
    q, slot = np.divmod(free, _PAIR_WIDTH)
    knot = slot < _KNOT_WIDTH
    key = np.where(knot, 3 * slot + q % 3, 3 * _PAIR_WIDTH + 2 * slot + q % 2)
    group = np.unique(key, return_inverse=True)[1]
    # rows as offsets from the first row of the column's knot k: a knot
    # column reaches the whole blocks of k-1 and k and the knot rows of k+1,
    # an interval column the knot rows of k and k+1
    off = np.arange(-_PAIR_WIDTH, _PAIR_WIDTH + _KNOT_WIDTH)
    full = _PAIR_WIDTH * q[:, None] + off
    hit = knot[:, None] | ((off >= 0) & (off % _PAIR_WIDTH < _KNOT_WIDTH))
    hit &= (full >= 0) & (full < rows_mask.size)
    hit[hit] = rows_mask[full[hit]]
    col, pos = np.nonzero(hit)
    entry_row = full[col, pos]
    row = (np.cumsum(rows_mask) - 1)[entry_row]
    arrays = free, group, group[col], entry_row, free[col], row, col
    for a in arrays:  # shared by every caller through the cache
        a.flags.writeable = False
    return arrays


def jacobian_fd(prob, base, bc):
    """Central-difference Jacobian of the square residual at base.

    base is the pair (g, v): the (n+1, 3, 3) attitude stack and a packed
    vector whose attitude slots hold chart increments around g, e.g.
    (traj.g_stack(), pack(traj)). Columns are perturbed in structurally
    independent groups (knots three apart, intervals two apart, one
    coordinate slot at a time), and the 2 x 45 perturbed copies are
    evaluated as one batch in a single residual call, regardless of the
    grid size; entries are scattered through index arrays built once per
    (n, boundary mode).
    """
    g, v = base
    eps = _FD_EPSILON * (1.0 + np.abs(v))
    free, group, entry_group, entry_row, entry_col, row, col = _coloring(
        prob.grid.n, bc.mode
    )
    copies = np.tile(v, (2, group.max() + 1, 1))
    copies[0, group, free] += eps[free]
    copies[1, group, free] -= eps[free]
    r = _full_residual(prob, g, copies, bc)
    d = r[0] - r[1]
    data = d[entry_group, entry_row] / (2.0 * eps[entry_col])
    m = free.size
    return coo_matrix((data, (row, col)), shape=(m, m)).tocsc()


def _condition_estimate(matrix, lu):
    m = matrix.shape[0]
    if m <= 8:
        return float(np.linalg.cond(matrix.toarray(), 1))
    op = LinearOperator(
        (m, m),
        matvec=lambda b: lu.solve(b),
        rmatvec=lambda b: lu.solve(b, trans="T"),
    )
    try:
        return float(onenormest(matrix) * onenormest(op))
    except Exception:
        return float("nan")


# ---------------------------------------------------------------------------
# global damped Newton


def _project_bc(traj, bc, grid):
    # (attitude stack, packed vector) of traj with the pinned endpoint fields
    # overwritten, so the masked system never has to move them
    g = traj.g_stack()
    v = pack(traj)
    g[0] = bc.g0
    v[3:6] = bc.Pi0
    v[6] = bc.u0
    if bc.mode == "fixed_endpoints":
        n = grid.n
        b = _PAIR_WIDTH * n
        g[n] = bc.gN
        v[b + 3:b + 6] = bc.PiN
        v[b + 6] = bc.uN
    return g, v


def _line_search(residual, z, dz, r, stalled_message):
    """Backtrack from the full step z + dz until the merit 0.5 |r|^2 passes
    the Armijo test; trials that leave the chart count as failures. Returns
    (t, accepted point, its residual); raises NoConvergence with
    stalled_message once t falls below _MIN_STEP."""
    merit0 = 0.5 * float(r @ r)
    t = 1.0
    while True:
        trial = z + t * dz
        try:
            r_t = residual(trial)
            if 0.5 * float(r_t @ r_t) <= merit0 * (1.0 - 2.0 * _ARMIJO_C * t):
                return t, trial, r_t
        except liealg.OutOfChart:
            pass
        t *= _BACKTRACK
        if t < _MIN_STEP:
            raise varint.NoConvergence(stalled_message)


def newton_solve(prob, traj0, bc, cfg=None):
    """Damped Newton on the square stationarity system.

    Returns (trajectory, report); the report carries the iteration count,
    the residual-norm history, per-iterate step norms, and a 1-norm
    condition estimate of the last factored Jacobian. Raises
    SingularJacobian when c1 = 0 (the fold-coupling block c1/h vanishes) or
    when factorization fails, NoConvergence when the iteration budget or the
    line search is exhausted.
    """
    cfg = cfg or SolverConfig()
    if prob.w.c1 == 0.0:
        raise SingularJacobian(
            "c1 = 0 zeroes the fold-coupling block c1/h; the system is singular"
        )
    n = prob.grid.n
    rows_mask, cols_mask = _masks(n, bc.mode)
    g, v = _project_bc(traj0, bc, prob.grid)
    r = _full_residual(prob, g, v, bc)[rows_mask]
    residuals = [float(np.abs(r).max())]
    step_norms = []
    factored = None
    iterations = 0
    while residuals[-1] > cfg.tol_residual:
        if iterations >= _MAX_ITER:
            raise varint.NoConvergence(
                f"residual {residuals[-1]:.3e} after {_MAX_ITER} iterations"
            )
        jac = jacobian_fd(prob, (g, v), bc)
        try:
            lu = splu(jac)
        except RuntimeError as exc:
            raise SingularJacobian(f"failed to factor the Jacobian: {exc}")
        direction = lu.solve(-r)
        if not np.isfinite(direction).all():
            raise SingularJacobian("Newton direction is not finite")
        factored = jac, lu
        dv = np.zeros(v.size)
        dv[cols_mask] = direction
        t, trial, r = _line_search(
            lambda x: _full_residual(prob, g, x, bc)[rows_mask],
            v, dv, r, "line search stalled below min step",
        )
        # re-center: fold the accepted increments into the attitude stack
        rows = _rows(trial, n)
        g = _attitudes(g, rows[:, :3])
        rows[:, :3] = 0.0
        v = rows.ravel()[:v.size]
        residuals.append(float(np.abs(r).max()))
        step_norms.append(float(np.abs(t * direction).max()))
        iterations += 1
        if step_norms[-1] < _TOL_STEP and residuals[-1] > cfg.tol_residual:
            raise varint.NoConvergence(
                "step size collapsed before the residual tolerance was met"
            )
    report = {
        "mode": bc.mode,
        "iterations": iterations,
        "residuals": residuals,
        "step_norms": step_norms,
        "condition": _condition_estimate(*factored) if factored else float("nan"),
        "unknowns": int(cols_mask.sum()),
    }
    return _trajectory(prob.grid, g, _rows(v, n)), report


def initial_guess(bc, ref, grid):
    """Retraction-geodesic attitude sweep with zero controls and multipliers.

    fixed_endpoints interpolates between the two pinned states (endpoints
    exact); the other modes sweep from the initial state to the reference at
    the final time with the fold angle held at its initial value.
    """
    n = grid.n
    if bc.mode == "fixed_endpoints":
        g_a, g_b = bc.g0, bc.gN
        Pi_a, Pi_b = bc.Pi0, bc.PiN
        u_a, u_b = bc.u0, bc.uN
    else:
        g_a, g_b = bc.g0, np.asarray(ref.g_d(grid.t_final), dtype=float)
        Pi_a = bc.Pi0
        Pi_b = np.asarray(ref.Pi_d(grid.t_final), dtype=float)
        u_a = u_b = bc.u0
    s = np.arange(n + 1) / n
    g = g_a @ liealg.retract(s[:, None] * liealg.retract_inv(g_a.T @ g_b))
    g[0], g[n] = g_a, g_b
    return varint.trajectory_from_arrays(
        grid, g, (1.0 - s)[:, None] * Pi_a + s[:, None] * Pi_b,
        (1.0 - s) * u_a + s * u_b, np.zeros((n + 1, 4)),
        np.zeros((n, 3)), np.zeros((n, 3)),
    )


def _blend_bc(bc, s, g_ref, Pi_ref):
    x = liealg.retract_inv(g_ref.T @ bc.g0)
    changes = {
        "g0": g_ref @ liealg.retract(s * x),
        "Pi0": (1.0 - s) * Pi_ref + s * bc.Pi0,
    }
    if bc.mode == "initial_costate":
        changes["p_Pi0"] = s * bc.p_Pi0
        changes["p_xi0"] = s * bc.p_xi0
        changes["u_dot0"] = s * bc.u_dot0
    return replace(bc, **changes)


def continuation_solve(prob, bc, cfg=None, stages=4):
    """newton_solve driven along a blend from the reference state to bc.

    Strongly tilted initial states can push plain Newton through a
    near-singular fold of the stationarity system; here the initial attitude
    and momentum (and, in initial_costate mode, the costates) are swept from
    the reference state at t = 0 toward the requested values in `stages`
    equal steps (an int >= 1), each stage warm-starting from the last. A
    failed stage bisects toward the previous success until the blend gap
    falls below 1/64. Returns (trajectory, report) of the final stage, with
    the stage schedule appended to the report.
    """
    if not isinstance(stages, int) or isinstance(stages, bool) or stages < 1:
        raise ValueError("stages must be an integer >= 1")
    queue = list(np.linspace(1.0 / stages, 1.0, stages))
    g_ref = np.asarray(prob.ref.g_d(0.0), dtype=float)
    Pi_ref = np.asarray(prob.ref.Pi_d(0.0), dtype=float)
    traj = None
    schedule = []
    budget = max(8, 3 * stages)
    s_prev = 0.0
    while queue:
        s = queue[0]
        bc_s = bc if s >= 1.0 else _blend_bc(bc, s, g_ref, Pi_ref)
        start = traj if traj is not None else initial_guess(bc_s, prob.ref, prob.grid)
        budget -= 1
        try:
            traj, report = newton_solve(prob, start, bc_s, cfg)
        except varint.NoConvergence:
            if budget <= 0 or s - s_prev < 1.0 / 64.0:
                raise varint.NoConvergence(
                    f"continuation stalled between blend {s_prev:g} and {s:g}"
                )
            queue.insert(0, 0.5 * (s_prev + s))
            continue
        schedule.append((s, report["iterations"]))
        queue.pop(0)
        s_prev = s
    report["stages"] = schedule
    return traj, report


# ---------------------------------------------------------------------------
# interface marching


@dataclass(frozen=True)
class IntervalBlock:
    """One interval of knots with its multipliers: the marching state."""

    k: int
    knot_a: varint.DiscreteKnot
    knot_b: varint.DiscreteKnot
    lam: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "k", int(self.k))
        if self.k < 0:
            raise ValueError("interval index must be nonnegative")
        for name in ("lam", "mu"):
            value = np.asarray(getattr(self, name), dtype=float)
            if value.shape != (3,) or not np.isfinite(value).all():
                raise ValueError(f"{name} must be a finite 3-vector")
            object.__setattr__(self, name, value)


def block_from_trajectory(traj, k):
    m = traj.multipliers[k]
    return IntervalBlock(k, traj.knots[k], traj.knots[k + 1], m.lam, m.mu)


def step_map(prob, block, lookahead=1):
    """Advance the interface map one interval.

    Given (knot_k, knot_{k+1}, lam_k, mu_k), produce (lam_{k+1}, mu_{k+1})
    and knot_{k+2} satisfying the full stationarity block at knot k+1 plus
    the feasibility of interval k+1, with the thrust sum of every new tau
    pinned to zero -- the zero-torque rotor component no stationarity row
    can see, which vanishes at any stationary point.

    The one-interval system is nearly singular along rotor patterns at the
    new knot whose torque is traded against that knot's momentum: the trade
    is invisible until the following interval's rows exist, so errors in
    the incoming block are amplified along it.  `lookahead` extends the
    solve to that many intervals ahead and commits only the first block,
    which suppresses the amplification; lookahead=1 is the literal
    recursion.  Windows reaching the last knot append its rotor
    stationarity rows, which hold under every boundary mode.

    For lookahead > 1 the same trade reappears at the window edge, where it
    is an exact null of the window system; those edge variables are scratch
    (discarded on commit), so directions below 1e-8 of the largest singular
    value are truncated and only a deficiency beyond the 3-dimensional edge
    trade raises SingularBlock.
    """
    h = prob.grid.h
    if prob.w.c1 == 0.0:
        raise SingularBlock(
            "c1 = 0 zeroes the fold-coupling block; the interface map is singular"
        )
    if lookahead < 1:
        raise ValueError("lookahead must be >= 1")
    width = min(int(lookahead), prob.grid.n - 1 - block.k)
    if width < 1:
        raise ValueError("no interval left to advance into")
    a, b = block.knot_a, block.knot_b
    closes = block.k + width + 1 == prob.grid.n
    t0 = block.k * h

    x_step = liealg.retract_inv(a.g.T @ b.g)
    base_g = [a.g, b.g]
    for _ in range(width):
        base_g.append(base_g[-1] @ liealg.retract(x_step))
    base_g = np.stack(base_g)

    # The window's packed vector is head + z: knots a, b and the interval-0
    # multipliers are fixed, and the unknowns z follow in the same
    # knot-major order, one row (lam_j, mu_j, knot j+1) per interval ahead.
    head = np.concatenate(
        [np.zeros(3), a.Pi, [a.u], a.tau, block.lam, block.mu,
         np.zeros(3), b.Pi, [b.u], b.tau]
    )
    ahead = slice(_PAIR_WIDTH, _PAIR_WIDTH * (width + 1))
    last_tau = _PAIR_WIDTH * (width + 1) + 7

    def residual(z):
        # z is one unknown vector or a batch (B, z.size) of them
        batch = z.shape[:-1]
        v = np.concatenate([np.broadcast_to(head, batch + head.shape), z], axis=-1)
        r = _full_residual(prob, base_g, v, t0=t0)
        parts = [
            r[..., ahead],
            z.reshape(batch + (width, _PAIR_WIDTH))[..., 13:17].sum(axis=-1),
        ]
        if closes:
            parts.append(r[..., last_tau:last_tau + 4])
        return np.concatenate(parts, axis=-1)

    steps = np.arange(1, width + 1)[:, None]
    z = np.zeros((width, _PAIR_WIDTH))
    z[:, 0:3] = block.lam
    z[:, 3:6] = block.mu
    z[:, 9:12] = b.Pi + steps * (b.Pi - a.Pi)
    z[:, 12] = b.u + steps[:, 0] * (b.u - a.u)
    z[:, 13:17] = b.tau
    z = z.ravel()
    r = residual(z)
    for _ in range(_MAX_ITER):
        if np.abs(r).max() <= _INTERFACE_TOL:
            break
        # dense central differences: all 2 z.size copies z +- e_j in one batch
        e = _FD_EPSILON * (1.0 + np.abs(z))
        j = np.arange(z.size)
        copies = np.tile(z, (2, z.size, 1))
        copies[0, j, j] += e
        copies[1, j, j] -= e
        try:
            d = residual(copies)
            jac = ((d[0] - d[1]) / (2.0 * e)[:, None]).T
        except liealg.OutOfChart as exc:
            # a drifting recursion walks the attitude to the chart edge
            raise varint.NoConvergence(f"interface iterate left the chart: {exc}")
        dz, _, rank, _ = np.linalg.lstsq(
            jac, -r, rcond=None if width == 1 else 1e-8
        )
        floor = z.size if width == 1 else z.size - 3
        if rank < floor:
            raise SingularBlock(f"interface Jacobian has rank {rank} < {floor}")
        if not np.isfinite(dz).all():
            raise SingularBlock("interface Newton direction is not finite")
        t, z, r = _line_search(residual, z, dz, r, "interface line search stalled")
        if width > 1 and np.abs(t * dz).max() <= _TOL_STEP:
            break
    else:
        raise varint.NoConvergence(
            f"interface Newton did not converge in {_MAX_ITER} iterations"
        )
    # the committed rows: knot k+1 and interval k+1
    if width > 1 and np.abs(r[:_PAIR_WIDTH]).max() > 1e-8:
        raise varint.NoConvergence("committed interface rows stalled above tolerance")
    z = z[:_PAIR_WIDTH]
    knot = varint.DiscreteKnot(
        g=base_g[2] @ liealg.retract(z[6:9]),
        Pi=z[9:12],
        u=float(z[12]),
        tau=z[13:17],
    )
    return IntervalBlock(block.k + 1, b, knot, z[0:3], z[3:6])


def march(prob, block0, lookahead=3):
    """Iterate step_map across the whole grid from the interval-0 block.

    The default lookahead keeps the recursion stable (see step_map); every
    committed block still satisfies the interface rows to solver tolerance.
    """
    if block0.k != 0:
        raise ValueError("marching starts from the interval-0 block")
    knots = [block0.knot_a, block0.knot_b]
    mults = [varint.Multipliers(block0.lam, block0.mu)]
    block = block0
    for _ in range(prob.grid.n - 1):
        block = step_map(prob, block, lookahead)
        knots.append(block.knot_b)
        mults.append(varint.Multipliers(block.lam, block.mu))
    return varint.DiscreteTrajectory(prob.grid, knots, mults)


# relative fold-angle step of regularity_check's difference quotient
_REGULARITY_STEP = 1e-4


def regularity_check(prob, traj, k):
    """(measured fold-coupling magnitude, predicted |c1|/h) at interval k.

    The measured value is the mixed derivative of the extended cost in
    (u_k, u_{k+1}), obtained by differencing the fold stationarity row; it
    equals c1/h with no O(1) correction, so the pair should agree except at
    degenerate weights.
    """
    if not 0 <= k < prob.grid.n:
        raise ValueError("interval index out of range")

    e = _REGULARITY_STEP * (1.0 + abs(traj.u_stack()[k + 1]))
    bumped = np.tile(pack(traj), (2, 1))
    bumped[:, _PAIR_WIDTH * (k + 1) + 6] += (e, -e)
    fold_row = _full_residual(prob, traj.g_stack(), bumped)[:, _PAIR_WIDTH * k + 6]
    measured = (fold_row[0] - fold_row[1]) / (2.0 * e)
    return abs(float(measured)), abs(prob.w.c1) / prob.grid.h


def shooting_trajectory(prob, bc):
    """Integrate the continuous necessary conditions and sample the grid.

    Diagnostic mode: knots at the grid times with the closed-form rotor
    command, multipliers from the midpoint costates (lam_k = h p_Pi at
    t_{k+1/2}, mu_k = p_xi there), under which the interior discrete rows
    vanish at third order in h.
    """
    if bc.mode != "initial_costate":
        raise ValueError("shooting requires initial_costate boundary data")
    state0 = ocp.OCPState(
        g=bc.g0,
        Pi=bc.Pi0,
        u=bc.u0,
        u_dot=bc.u_dot0,
        p_Pi=bc.p_Pi0,
        p_xi=bc.p_xi0,
    )
    n, h = prob.grid.n, prob.grid.h
    ext = ocp.integrate_necessary(
        prob.w, prob.model, prob.act, prob.ref, state0, 0.5 * h, 2 * n
    )
    # even samples are the knots, odd ones the interval midpoints
    return varint.trajectory_from_arrays(
        prob.grid, ext.g[::2], ext.Pi[::2], ext.u[::2],
        ocp.tau_star(prob.w, prob.act, ext.p_Pi[::2], ext.u[::2]),
        h * ext.p_Pi[1::2], ext.p_xi[1::2],
    )
