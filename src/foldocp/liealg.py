"""so(3)/SO(3) primitives: hat/vee, Cayley and exponential maps, trivialized tangents.

Conventions: rotation matrices act on column vectors, hat(x) @ y == cross(x, y),
and all maps broadcast over leading axes (inputs shaped (..., 3) or (..., 3, 3)).
"""

from __future__ import annotations

import numpy as np


class SkewViolation(ValueError):
    """Matrix handed to vee() is not skew-symmetric within tolerance."""


class OutOfChart(ValueError):
    """Rotation (or chart increment) lies outside the retraction chart."""


class TooFarFromGroup(ValueError):
    """Matrix is too far from SO(3) to be projected back safely."""


# Re-orthonormalization cadence for long matrix-embedded integrations.
REORTH_INTERVAL = 1000

_EYE = np.eye(3)


def hat(x):
    """Map a 3-vector to the skew matrix with hat(x) @ y = cross(x, y)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape[:-1] + (3, 3))
    x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
    out[..., 0, 1] = -x3
    out[..., 0, 2] = x2
    out[..., 1, 0] = x3
    out[..., 1, 2] = -x1
    out[..., 2, 0] = -x2
    out[..., 2, 1] = x1
    return out


def vee(m, tol=1e-9):
    """Inverse of hat. Raises SkewViolation if the symmetric part exceeds tol.

    Pass tol=None to skip the check for matrices that are skew by construction.
    """
    m = np.asarray(m, dtype=float)
    if tol is not None:
        defect = np.abs(m + np.swapaxes(m, -1, -2)).max()
        if defect > tol:
            raise SkewViolation(f"symmetric part {defect:.3e} exceeds tol {tol:.3e}")
    return np.stack(
        [
            0.5 * (m[..., 2, 1] - m[..., 1, 2]),
            0.5 * (m[..., 0, 2] - m[..., 2, 0]),
            0.5 * (m[..., 1, 0] - m[..., 0, 1]),
        ],
        axis=-1,
    )


def ad(x, y):
    """Algebra adjoint on so(3) ~ R^3: ad(x, y) = cross(x, y)."""
    return np.cross(x, y)


def coad(x, p):
    """Coadjoint on the dual: <coad(x, p), y> = <p, ad(x, y)>, i.e. cross(p, x)."""
    return np.cross(p, x)


def rotation_defect(r):
    """Frobenius distance of r^T r from the identity."""
    r = np.asarray(r, dtype=float)
    d = np.swapaxes(r, -1, -2) @ r - _EYE
    return np.sqrt((d * d).sum(axis=(-1, -2)))


def require_rotation(r, tol=1e-9):
    """Validate orthonormality within tol; returns r unchanged."""
    defect = np.max(rotation_defect(r))
    if not np.isfinite(defect) or defect > tol:
        raise TooFarFromGroup(f"orthonormality defect {defect:.3e} exceeds tol {tol:.3e}")
    return np.asarray(r, dtype=float)


def orthonormalize(r, tol=1e-3):
    """Project back to SO(3) by the polar factor.

    Only small defects are accepted (tol on ||r^T r - I||_F); a reflection or a
    badly degenerate input raises TooFarFromGroup.
    """
    r = np.asarray(r, dtype=float)
    defect = np.max(rotation_defect(r))
    if not np.isfinite(defect) or defect > tol:
        raise TooFarFromGroup(f"orthonormality defect {defect:.3e} exceeds tol {tol:.3e}")
    u, _, vt = np.linalg.svd(r)
    out = u @ vt
    if np.min(np.linalg.det(out)) < 0:
        raise TooFarFromGroup("nearest orthogonal factor is a reflection")
    return out


def cay(x):
    """Cayley map I + 2*s*hat(x) + 2*s*hat(x)^2 with s = 1/(1 + |x|^2).

    Equals (I - hat(x))^{-1} (I + hat(x)); rotation angle is 2*arctan(|x|).
    """
    x = np.asarray(x, dtype=float)
    s = 1.0 / (1.0 + (x * x).sum(axis=-1))
    xh = hat(x)
    return _EYE + 2.0 * s[..., None, None] * (xh + xh @ xh)


def cay_inv(r, tol=1e-8):
    """Inverse Cayley map of a rotation r (required: the closed form holds on
    SO(3) only): hat(x) = (r - I)(r + I)^{-1}, i.e. x = s / (1 + tr r) with
    s = (r32 - r23, r13 - r31, r21 - r12).

    Raises OutOfChart when |det(r + I)| = |2 (1 + tr r)| < tol (rotation
    angle at pi; det(r + I) = 4*(1 + cos(angle))).
    """
    r = np.asarray(r, dtype=float)
    den = 1.0 + r[..., 0, 0] + r[..., 1, 1] + r[..., 2, 2]
    if np.min(np.abs(2.0 * den)) < tol:
        raise OutOfChart("rotation within tolerance of the angle-pi chart boundary")
    s = r[..., [2, 0, 1], [1, 2, 0]] - r[..., [1, 2, 0], [2, 0, 1]]
    return s / den[..., None]


def dcay(x, v):
    """Trivialized tangent of the Cayley map, normalized so dcay(0, v) = v.

    dcay(x, v) = s*(I + hat(x)) v with s = 1/(1 + |x|^2); this is half the raw
    matrix derivative of cay (see dcay_exact), rescaled to the identity at 0.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    s = 1.0 / (1.0 + (x * x).sum(axis=-1))
    return s[..., None] * (v + np.cross(x, v))


def dcay_inv(x, w):
    """Inverse of dcay: (I - hat(x) + x x^T) w; dcay_inv(x, dcay(x, v)) = v."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    return w - np.cross(x, w) + x * (x * w).sum(axis=-1)[..., None]


def dcay_exact(x, v):
    """Raw right-trivialized derivative of cay by matrix calculus.

    Evaluates vee( d/de cay(x + e v) cay(x)^{-1} |_{e=0} ) through the product
    rule on (I - hat(x))^{-1} (I + hat(x)), i.e. 2 (I-hat(x))^{-1} hat(v)
    (I+hat(x))^{-1}, using linear solves only. dcay_exact(0, v) = 2 v.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    imx = _EYE - hat(x)
    a = np.linalg.solve(imx, hat(v))
    # right-divide by (I + hat(x)) using (I + hat(x))^T = I - hat(x)
    s = 2.0 * np.swapaxes(np.linalg.solve(imx, np.swapaxes(a, -1, -2)), -1, -2)
    return vee(0.5 * (s - np.swapaxes(s, -1, -2)), tol=None)


def exp_so3(x):
    """Matrix exponential of hat(x) (Rodrigues form, series-safe near 0)."""
    x = np.asarray(x, dtype=float)
    theta = np.sqrt((x * x).sum(axis=-1))
    xh = hat(x)
    small = theta < 1e-8
    with np.errstate(invalid="ignore", divide="ignore"):
        a = np.where(small, 1.0 - theta**2 / 6.0, np.sin(theta) / np.where(small, 1.0, theta))
        b = np.where(small, 0.5 - theta**2 / 24.0, (1.0 - np.cos(theta)) / np.where(small, 1.0, theta**2))
    return _EYE + a[..., None, None] * xh + b[..., None, None] * (xh @ xh)


def log_so3(r, tol=1e-8):
    """Rotation vector of r; raises OutOfChart within tol of angle pi."""
    r = np.asarray(r, dtype=float)
    tr = np.clip((r[..., 0, 0] + r[..., 1, 1] + r[..., 2, 2] - 1.0) / 2.0, -1.0, 1.0)
    theta = np.arccos(tr)
    if np.max(theta) > np.pi - tol:
        raise OutOfChart("rotation within tolerance of the angle-pi chart boundary")
    w = vee(0.5 * (r - np.swapaxes(r, -1, -2)), tol=None)  # = sin(theta) * axis
    small = theta < 1e-8
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(small, 1.0 + theta**2 / 6.0, theta / np.where(small, 1.0, np.sin(theta)))
    return scale[..., None] * w


def _dexp_inv_c(theta):
    # c(t) = (1 - (t/2) cot(t/2)) / t^2, series below the branch point
    small = np.abs(theta) < 1e-4
    t2 = theta * theta
    series = 1.0 / 12.0 + t2 / 720.0 + t2 * t2 / 30240.0
    safe = np.where(small, 1.0, theta)
    with np.errstate(invalid="ignore", divide="ignore"):
        full = (1.0 - (safe / 2.0) / np.tan(safe / 2.0)) / (safe * safe)
    return np.where(small, series, full)


def retract(x, method="cay"):
    """Group increment for algebra vector x; first-order: retract(x) ~ exp(hat(x)).

    method "cay" uses the Cayley map at half argument, cay(x/2), so the tangent
    at 0 is the identity; method "exp" uses the exponential.
    """
    if method == "cay":
        return cay(np.asarray(x, dtype=float) / 2.0)
    if method == "exp":
        return exp_so3(x)
    raise ValueError(f"unknown retraction {method!r}")


def retract_inv(r, method="cay"):
    """Algebra vector of a group increment; inverse of retract."""
    if method == "cay":
        return 2.0 * cay_inv(r)
    if method == "exp":
        return log_so3(r)
    raise ValueError(f"unknown retraction {method!r}")


def dretract_inv(x, v, method="cay"):
    """Inverse trivialized tangent of retract at x applied to v."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if method == "cay":
        return dcay_inv(x / 2.0, v)
    if method == "exp":
        theta = np.sqrt((x * x).sum(axis=-1))
        c = _dexp_inv_c(theta)
        xxv = np.cross(x, np.cross(x, v))
        return v - 0.5 * np.cross(x, v) + c[..., None] * xxv
    raise ValueError(f"unknown retraction {method!r}")


def dretract_inv_dual(x, p, method="cay"):
    """Transpose of dretract_inv(x, .) applied to a dual vector p."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    if method == "cay":
        # (I - hat(x/2) + (x/2)(x/2)^T)^T = I + hat(x/2) + (x/2)(x/2)^T
        return p + 0.5 * np.cross(x, p) + 0.25 * x * (x * p).sum(axis=-1)[..., None]
    if method == "exp":
        theta = np.sqrt((x * x).sum(axis=-1))
        c = _dexp_inv_c(theta)
        xxp = np.cross(x, np.cross(x, p))
        return p + 0.5 * np.cross(x, p) + c[..., None] * xxp
    raise ValueError(f"unknown retraction {method!r}")
