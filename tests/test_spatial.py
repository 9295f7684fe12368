import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from pendusim.spatial import GimbalLockError, euler_rate_map, rot_rpy, skew


def test_identity_at_zero():
    assert np.allclose(rot_rpy(0.0, 0.0, 0.0), np.eye(3), atol=1e-15)


def test_quarter_turn_about_z_maps_x_to_y():
    R = rot_rpy(0.0, 0.0, np.pi / 2)
    assert np.allclose(R @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], atol=1e-15)


def test_orthonormal_unit_determinant():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a, b, g = rng.uniform(-np.pi, np.pi, 3)
        R = rot_rpy(a, b, g)
        assert np.abs(R @ R.T - np.eye(3)).max() < 1e-12
        assert abs(np.linalg.det(R) - 1.0) < 1e-12


def test_matches_scipy_extrinsic_xyz():
    rng = np.random.default_rng(1)
    for _ in range(50):
        angles = rng.uniform(-np.pi, np.pi, 3)
        R_ref = Rotation.from_euler("xyz", angles).as_matrix()
        assert np.abs(rot_rpy(*angles) - R_ref).max() < 1e-14


def test_rate_map_identity_at_zero():
    assert np.allclose(euler_rate_map(0.0, 0.0), np.eye(3), atol=1e-15)


def _omega_fd(qp, qp_dot, h=1e-7):
    Rp = rot_rpy(*(qp + h * qp_dot))
    Rm = rot_rpy(*(qp - h * qp_dot))
    W = (Rp - Rm) / (2.0 * h) @ rot_rpy(*qp).T
    A = 0.5 * (W - W.T)
    return np.array([A[2, 1], A[0, 2], A[1, 0]])


def test_rate_map_against_rotation_derivative():
    rng = np.random.default_rng(2)
    for _ in range(100):
        qp = np.array([rng.uniform(-1.2, 1.2), rng.uniform(-1.0, 1.0),
                       rng.uniform(-np.pi, np.pi)])
        qp_dot = rng.uniform(-1.0, 1.0, 3)
        E = euler_rate_map(qp[0], qp[1], qp[2])
        assert np.abs(E @ qp_dot - _omega_fd(qp, qp_dot)).max() < 1e-6


def test_rate_map_example_roll_rate():
    # d/dt attitude = (1, 0, 0) at (alpha, beta) = (0.3, 0.2), gamma = 0
    qp = np.array([0.3, 0.2, 0.0])
    E = euler_rate_map(0.3, 0.2)
    w = E @ np.array([1.0, 0.0, 0.0])
    assert np.abs(w - _omega_fd(qp, np.array([1.0, 0.0, 0.0]))).max() < 1e-6


def test_rate_map_invertible_inside_guard():
    for beta in (-1.5, -0.7, 0.0, 0.7, 1.5):
        E = euler_rate_map(0.2, beta, 0.9)
        assert abs(np.linalg.det(E)) > 1e-8


def test_gimbal_lock_raises():
    with pytest.raises(GimbalLockError):
        euler_rate_map(0.0, np.pi / 2)
    with pytest.raises(GimbalLockError):
        euler_rate_map(0.3, -np.pi / 2 + 1e-9)


def test_skew_matches_cross():
    rng = np.random.default_rng(3)
    v, w = rng.standard_normal(3), rng.standard_normal(3)
    assert np.allclose(skew(v) @ w, np.cross(v, w))

