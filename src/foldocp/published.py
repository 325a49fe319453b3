"""The paper's as-published componentwise forms, kept for comparison only.

Each function transcribes one expanded formula as printed; its docstring
states how it differs from the derivative-based form in `liealg`, `ocp` or
`varint`, which is authoritative. The production path never calls these:
only the `dcay_deviation` and `kkt_paper_forms` diagnostics in `harness`
report the deviations, and the tests pin them.
"""

import numpy as np

from . import liealg, plant, varint

_EYE = np.eye(3)


def dcay_paper_matrix(x):
    """Closed-form raw tangent matrix 2*s*(I + hat(x)), s = 1/(1 + |x|^2)."""
    x = np.asarray(x, dtype=float)
    s = 1.0 / (1.0 + (x * x).sum(axis=-1))
    return 2.0 * s[..., None, None] * (_EYE + liealg.hat(x))


def tau_star_componentwise(w, act, p_Pi, u):
    """Expanded per-thrust variant of the eliminated control.  Differs from
    `ocp.tau_star` (the stationarity solution) by an overall sign; kept as a
    cross-check."""
    p1, p2, p3 = np.asarray(p_Pi, dtype=float)
    s = act.l * act.kappa1 * np.sin(u)
    c = act.l * act.kappa1 * np.cos(u)
    z = act.l * act.kappa2
    return np.array(
        [
            (-p1 * s + p2 * c + p3 * z) / w.c2,
            (p1 * s + p2 * c - p3 * z) / w.c2,
            (p1 * s - p2 * c + p3 * z) / w.c2,
            -(p1 * s + p2 * c + p3 * z) / w.c2,
        ]
    )


def u_ddot_componentwise(model, state):
    """Expanded variant of the fold acceleration.  Relative to `ocp.u_ddot`
    (the finite-difference-validated form) it omits the thrust-map derivative
    term, flips the sign of both inertia terms, and drops the 1/c1 factor;
    kept as a cross-check."""
    d1, d2, d3 = plant.d_inertia_inv_du_diag(model, state.u)
    q1, q2, q3 = state.Pi
    p1, p2, p3 = state.p_Pi
    x1, x2, x3 = state.p_xi
    return (
        p1 * (d2 * q2 * q3 - d3 * q3 * q2)
        - x1 * d1 * q1
        + p2 * (d3 * q3 * q1 - d1 * q1 * q3)
        - x2 * d2 * q2
        + p3 * (d1 * q1 * q2 - d2 * q2 * q1)
        - x3 * d3 * q3
    )


def pPi_rhs_componentwise(w, model, ref, t, state):
    """Expanded per-component variant of the momentum costate rate.  Its
    inertia-difference terms pair the momentum indices differently from
    `ocp.pPi_rhs` (the finite-difference-validated form); kept as a
    cross-check and exercised, not asserted equal, in the tests."""
    a1, a2, a3 = 1.0 / plant.inertia_diag(model, state.u)
    q1, q2, q3 = state.Pi
    p1, p2, p3 = state.p_Pi
    x1, x2, x3 = state.p_xi
    d1, d2, d3 = state.Pi - np.asarray(ref.Pi_d(t), dtype=float)
    return np.array(
        [
            p2 * (a2 - a1) * q2 + p3 * (a1 - a3) * q3 - x1 * a1 - w.c4 * d1,
            p1 * (a1 - a2) * q1 - p3 * (a2 - a3) * q3 - x2 * a2 - w.c4 * d2,
            -p1 * (a1 - a3) * q1 + p2 * (a2 - a3) * q2 - x3 * a3 - w.c4 * d3,
        ]
    )


def pXi_rhs_trace_form(w, g, xi, p_xi, ref, t):
    """Trace-pairing variant of the attitude costate rate, evaluated against
    the standard basis.  Its gradient term carries the opposite sign from
    `ocp.pXi_rhs` (the finite-difference-validated form); kept as a
    cross-check."""
    m = np.asarray(ref.g_d(t), dtype=float).T @ np.asarray(g, dtype=float)
    out = np.empty(3)
    for i in range(3):
        eta = np.zeros(3)
        eta[i] = 1.0
        out[i] = -2.0 * w.c3 * np.trace(m @ liealg.hat(eta) @ m)
    return out + liealg.coad(xi, np.asarray(p_xi, dtype=float))


def residual_phi123_componentwise(model, act, grid, Pi_k, Pi_k1, u_k, u_k1, tau_k, tau_k1):
    """Scalar transcription of varint.residual_phi123 via inertia-difference
    ratios.

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
        rescale it matches varint.tau_k_star exactly (two misprints
        corrected: a doubled arm-length factor and the sign of the fourth
        rotor row).
    The returned "report" holds sup-norm deviations from the corresponding
    varint.kkt_residuals_exact blocks, each compared under the normalization
    stated in the report key (lam rows against -d_Pi, u rows against d_u, g
    rows against -d_g/h, tau rows against the exact block rescaled by -1/h at
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
        mu_x = dcay_paper_matrix(x_t).T @ mu[k]
        mu_y = dcay_paper_matrix(y_t).T @ mu[k - 1]
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
        ).T @ varint.effective_lambda(traj, k)

    exact = varint.kkt_residuals_exact(w, ref, model, act, traj)
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
