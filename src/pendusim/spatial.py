"""Minimal 3-D rotation math for the roll/pitch/yaw attitude parametrization.

Convention (fixed project-wide): extrinsic X-Y-Z, i.e. roll alpha about world
x, then pitch beta about world y, then yaw gamma about world z, composing to
R = Rz(gamma) @ Ry(beta) @ Rx(alpha).
"""

import numpy as np

# Pitch guard: the Euler-rate map loses rank at |beta| = pi/2.
BETA_GUARD = np.pi / 2 - 1e-6


class GimbalLockError(ValueError):
    """Pitch too close to +-pi/2 for the Euler-rate map to be invertible."""


def skew(v):
    """Cross-product matrix: skew(v) @ w == cross(v, w)."""
    x, y, z = v
    return np.array([[0.0, -z, y],
                     [z, 0.0, -x],
                     [-y, x, 0.0]])


# Every entry of R then E (row-major) as (f0 f1) f2 + (f3 f4) f5 over the
# factors below.  Padding with 1 (x 1 = x) and -0 (x + -0 = x) is exact,
# signed zeros included, so each entry is the plain product or sum it names.
_SA, _SB, _SG, _CA, _CB, _CG, _ONE, _NEG, _ZERO, _NZERO = range(10)
_FACTOR_CONSTS = np.array([1.0, -1.0, 0.0, -0.0])
_PAD = (_NZERO, _ONE, _ONE)
_RPY_TERMS = np.array([
    (_CG, _CB, _ONE) + _PAD,          # R: cg cb
    (_CG, _SB, _SA, _SG, _CA, _NEG),  # cg sb sa - sg ca
    (_CG, _SB, _CA, _SG, _SA, _ONE),  # cg sb ca + sg sa
    (_SG, _CB, _ONE) + _PAD,          # sg cb
    (_SG, _SB, _SA, _CG, _CA, _ONE),  # sg sb sa + cg ca
    (_SG, _SB, _CA, _CG, _SA, _NEG),  # sg sb ca - cg sa
    (_SB, _NEG, _ONE) + _PAD,         # -sb
    (_CB, _SA, _ONE) + _PAD,          # cb sa
    (_CB, _CA, _ONE) + _PAD,          # cb ca
    (_CB, _CG, _ONE) + _PAD,          # E: cb cg
    (_SG, _NEG, _ONE) + _PAD,         # -sg
    (_ZERO, _ONE, _ONE) + _PAD,       # 0
    (_CB, _SG, _ONE) + _PAD,          # cb sg
    (_CG, _ONE, _ONE) + _PAD,         # cg
    (_ZERO, _ONE, _ONE) + _PAD,       # 0
    (_SB, _NEG, _ONE) + _PAD,         # -sb
    (_ZERO, _ONE, _ONE) + _PAD,       # 0
    (_ONE, _ONE, _ONE) + _PAD,        # 1
]).T.ravel()


def rpy_frames(alpha, beta, gamma):
    """Rotation R = Rz(gamma) @ Ry(beta) @ Rx(alpha) and Euler-rate map E.

    E maps (d/dt)(alpha, beta, gamma) to world angular velocity; its columns
    are the world-frame axes the successive elemental rotations act about:
    [Rz Ry ex | Rz ey | ez].  For the Z-Y-X composition it does not depend on
    roll.  Array angles give stacks of shape (..., 3, 3).  No gimbal guard
    here: batched finite-difference callers may straddle it.
    """
    angles = np.stack(np.broadcast_arrays(alpha, beta, gamma))
    return rpy_frames_sc(np.sin(angles), np.cos(angles))


def rpy_frames_sc(s, c):
    """rpy_frames from the sines s and cosines c of (roll, pitch, yaw), both
    of shape (3, ...), for callers that already hold them.  R and E are
    views of one array holding each entry contiguously over the batch."""
    shape = np.shape(s)[1:]
    F = np.empty((10,) + shape)
    F[0:3] = s
    F[3:6] = c
    F[6:] = _FACTOR_CONSTS.reshape((4,) + (1,) * len(shape))
    f = F.take(_RPY_TERMS, axis=0).reshape((6, 18) + shape)
    v = f[0] * f[1] * f[2] + f[3] * f[4] * f[5]
    to_last = tuple(range(2, 2 + len(shape))) + (0, 1)
    return (v[0:9].reshape((3, 3) + shape).transpose(to_last),
            v[9:18].reshape((3, 3) + shape).transpose(to_last))


def check_pitch(beta):
    """Raise GimbalLockError when |beta| >= pi/2 - 1e-6 (E becomes singular)."""
    if abs(beta) >= BETA_GUARD:
        raise GimbalLockError(f"pitch {beta:.6f} rad is within 1e-6 of +-pi/2")


def rot_rpy(alpha, beta, gamma):
    """Rotation matrix Rz(gamma) @ Ry(beta) @ Rx(alpha)."""
    return rpy_frames(alpha, beta, gamma)[0]


def euler_rate_map(alpha, beta, gamma=0.0):
    """Matrix E mapping (d/dt)(alpha, beta, gamma) to world angular velocity
    (see rpy_frames), behind the gimbal guard."""
    check_pitch(beta)
    return rpy_frames(alpha, beta, gamma)[1]


def rotation_about(axis, angle):
    """Rodrigues rotation about a unit axis."""
    k = skew(axis)
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)
