import numpy as np
import pytest

from foldocp import liealg as la


def central_diff(f, x, eps):
    return (f(x + eps) - f(x - eps)) / (2.0 * eps)


def test_hat_layout():
    m = la.hat([1.0, 2.0, 3.0])
    expected = np.array([[0.0, -3.0, 2.0], [3.0, 0.0, -1.0], [-2.0, 1.0, 0.0]])
    np.testing.assert_array_equal(m, expected)


def test_hat_acts_as_cross_product():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((50, 3))
    y = rng.standard_normal((50, 3))
    np.testing.assert_allclose((la.hat(x) @ y[..., None])[..., 0], np.cross(x, y), atol=1e-15)


def test_vee_roundtrip_and_skew_guard():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((20, 3))
    np.testing.assert_allclose(la.vee(la.hat(x)), x, atol=1e-15)
    with pytest.raises(la.SkewViolation):
        la.vee(np.eye(3))


def test_ad_coad_pairing():
    # <coad(x, p), y> == <p, ad(x, y)>
    rng = np.random.default_rng(2)
    x, p, y = rng.standard_normal((3, 100, 3))
    lhs = (la.coad(x, p) * y).sum(axis=-1)
    rhs = (p * la.ad(x, y)).sum(axis=-1)
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_cay_frozen_example():
    # cay((1,0,0)) is the quarter-turn about e1
    expected = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    np.testing.assert_allclose(la.cay([1.0, 0.0, 0.0]), expected, atol=1e-15)


def test_cay_matches_resolvent_form():
    # oracle: (I - hat(x))^{-1} (I + hat(x)) by linear solve
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2000, 3)) * rng.uniform(0.0, 10.0, (2000, 1))
    xh = la.hat(x)
    oracle = np.linalg.solve(np.eye(3) - xh, np.eye(3) + xh)
    np.testing.assert_allclose(la.cay(x), oracle, atol=1e-12)


def test_cay_is_rotation():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((500, 3)) * 5.0
    r = la.cay(x)
    np.testing.assert_allclose(np.max(la.rotation_defect(r)), 0.0, atol=1e-12)
    np.testing.assert_allclose(np.linalg.det(r), 1.0, atol=1e-12)


def test_cay_inv_roundtrip():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((300, 3)) * 3.0
    np.testing.assert_allclose(la.cay_inv(la.cay(x)), x, rtol=1e-9, atol=1e-11)


def _cay_inv_by_solve(r):
    # the linear-solve form hat(x) = (r - I)(r + I)^{-1}, kept as the oracle
    # of the closed form
    rpi = r + np.eye(3)
    xh = np.swapaxes(
        np.linalg.solve(np.swapaxes(rpi, -1, -2), np.swapaxes(r - np.eye(3), -1, -2)),
        -1, -2,
    )
    return la.vee(0.5 * (xh - np.swapaxes(xh, -1, -2)), tol=None)


def test_cay_inv_closed_form_matches_solve_form():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((2000, 3))
    x *= (10.0 * rng.random(2000) / np.linalg.norm(x, axis=1))[:, None]
    r = la.cay(x)
    closed = la.cay_inv(r)
    oracle = _cay_inv_by_solve(r)
    scale = 1.0 + np.abs(oracle).max(axis=-1, keepdims=True)
    assert (np.abs(closed - oracle) / scale).max() < 1e-13
    # the chart guard: on SO(3), det(r + I) = 2 (1 + tr r)
    trace = np.trace(r, axis1=-2, axis2=-1)
    np.testing.assert_allclose(
        np.linalg.det(r + np.eye(3)), 2.0 * (1.0 + trace), rtol=0, atol=1e-12
    )


def test_cay_inv_out_of_chart_at_pi():
    r = la.exp_so3(np.pi * np.array([0.0, 0.0, 1.0]))
    with pytest.raises(la.OutOfChart):
        la.cay_inv(r)


def test_dcay_exact_matches_fd_of_cay():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(300):
        x = rng.standard_normal(3) * rng.uniform(0.0, 3.0)
        v = rng.standard_normal(3)
        eps = 1e-6
        dr = central_diff(lambda e: la.cay(x + e * v), 0.0, eps)
        fd = la.vee(0.5 * (dr @ la.cay(x).T - (dr @ la.cay(x).T).T), tol=None)
        got = la.dcay_exact(x, v)
        worst = max(worst, np.max(np.abs(got - fd)) / (1.0 + np.linalg.norm(fd)))
    assert worst < 1e-6


def test_dcay_is_half_the_raw_derivative_and_identity_at_zero():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((100, 3)) * 2.0
    v = rng.standard_normal((100, 3))
    np.testing.assert_allclose(la.dcay(x, v), 0.5 * la.dcay_exact(x, v), atol=1e-13)
    np.testing.assert_allclose(la.dcay(np.zeros(3), v), v, atol=1e-15)


def test_dcay_paper_matrix_agrees_with_exact_derivative():
    # closed form 2 s (I + hat(x)) against the matrix-calculus route
    rng = np.random.default_rng(8)
    deviation = 0.0
    for _ in range(200):
        x = rng.standard_normal(3) * rng.uniform(0.0, 5.0)
        m = la.dcay_paper_matrix(x)
        for i in range(3):
            deviation = max(deviation, np.max(np.abs(m[:, i] - la.dcay_exact(x, np.eye(3)[i]))))
    assert deviation < 1e-12


def test_dcay_inv_roundtrip():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((200, 3)) * 4.0
    v = rng.standard_normal((200, 3))
    np.testing.assert_allclose(la.dcay_inv(x, la.dcay(x, v)), v, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(la.dcay(x, la.dcay_inv(x, v)), v, rtol=1e-12, atol=1e-12)


def test_exp_so3_against_series_oracle():
    rng = np.random.default_rng(10)
    for _ in range(50):
        x = rng.standard_normal(3) * rng.uniform(0.0, 2.0)
        xh = la.hat(x)
        term = np.eye(3)
        total = np.eye(3)
        for n in range(1, 30):
            term = term @ xh / n
            total = total + term
        np.testing.assert_allclose(la.exp_so3(x), total, atol=1e-12)


def test_exp_so3_frozen_example():
    expected = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    np.testing.assert_allclose(la.exp_so3([np.pi / 2.0, 0.0, 0.0]), expected, atol=1e-15)


def test_log_exp_roundtrip_and_small_angle():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((100, 3))
    x *= (rng.uniform(1e-9, 3.0, (100, 1)) / np.linalg.norm(x, axis=1, keepdims=True))
    np.testing.assert_allclose(la.log_so3(la.exp_so3(x)), x, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("method", ["cay", "exp"])
def test_retract_consistency(method):
    # retract(x) = exp(hat(x)) + O(|x|^3): a proper first-order retraction
    rng = np.random.default_rng(12)
    for scale in (1e-2, 1e-3):
        x = rng.standard_normal(3) * scale
        err = np.max(np.abs(la.retract(x, method) - la.exp_so3(x)))
        assert err < 2.0 * scale**3


@pytest.mark.parametrize("method", ["cay", "exp"])
def test_retract_inv_roundtrip(method):
    # rotation-vector norms kept inside the principal branch of log
    rng = np.random.default_rng(13)
    x = rng.standard_normal((100, 3))
    x *= rng.uniform(1e-6, np.pi - 0.2, (100, 1)) / np.linalg.norm(x, axis=1, keepdims=True)
    np.testing.assert_allclose(la.retract_inv(la.retract(x, method), method), x, rtol=1e-9, atol=1e-11)


@pytest.mark.parametrize("method", ["cay", "exp"])
def test_dretract_inv_against_fd(method):
    # w = vee(d/de retract(x + e v) retract(x)^{-1}) then dretract_inv(x, w) = v
    rng = np.random.default_rng(14)
    for _ in range(50):
        x = rng.standard_normal(3) * rng.uniform(0.0, 2.0)
        v = rng.standard_normal(3)
        eps = 1e-6
        dr = central_diff(lambda e: la.retract(x + e * v, method), 0.0, eps)
        m = dr @ la.retract(x, method).T
        w = la.vee(0.5 * (m - m.T), tol=None)
        np.testing.assert_allclose(la.dretract_inv(x, w, method), v, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("method", ["cay", "exp"])
def test_dretract_inv_dual_is_transpose(method):
    rng = np.random.default_rng(15)
    x, p, v = rng.standard_normal((3, 100, 3))
    x = x * 2.0
    lhs = (la.dretract_inv_dual(x, p, method) * v).sum(axis=-1)
    rhs = (p * la.dretract_inv(x, v, method)).sum(axis=-1)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_orthonormalize_projects_small_defects():
    rng = np.random.default_rng(16)
    r = la.exp_so3(rng.standard_normal(3))
    noisy = r + 1e-5 * rng.standard_normal((3, 3))
    fixed = la.orthonormalize(noisy)
    assert np.max(la.rotation_defect(fixed)) < 1e-12
    assert np.max(np.abs(fixed - r)) < 1e-4


def test_orthonormalize_rejects_far_and_reflected_inputs():
    with pytest.raises(la.TooFarFromGroup):
        la.orthonormalize(2.0 * np.eye(3))
    with pytest.raises(la.TooFarFromGroup):
        la.orthonormalize(np.diag([1.0, 1.0, -1.0]))


def test_require_rotation():
    la.require_rotation(np.eye(3))
    with pytest.raises(la.TooFarFromGroup):
        la.require_rotation(np.eye(3) + 1e-6)
