"""The benchmark's own forward kinematics of the suspended platform.

Written apart from the program: every body pose comes from a chain of 4x4
homogeneous transforms, and velocities from complex-step differentiation
along qd, so no Jacobian, mass matrix or finite difference of the program is
reused.  Model parameters are read from a model document (the layout of
``pendusim.model.model_to_dict``), which is an input, not a computation.

Coordinates: q = (alpha, beta, gamma, qm1, qm2, qr1..qrn), attitude
R = Rz(gamma) Ry(beta) Rx(alpha), platform on a rod of length L below the pivot.
"""

import numpy as np

CS_H = 1e-30   # complex-step size; exact to roundoff for analytic maps


def _rot(axis, angle):
    """4x4 rotation about a unit axis (Rodrigues), complex-safe."""
    x, y, z = axis
    K = np.array([[0, -z, y], [z, 0, -x], [-y, x, 0]], dtype=complex)
    T = np.eye(4, dtype=complex)
    T[:3, :3] = np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * (K @ K)
    return T


def _trans(v):
    T = np.eye(4, dtype=complex)
    T[:3, 3] = v
    return T


class Body:
    __slots__ = ("mass", "inertia", "frame", "point")

    def __init__(self, mass, inertia, frame, point):
        self.mass = mass          # kg
        self.inertia = inertia    # 3x3 about the CoM in the body frame, or None
        self.frame = frame        # 4x4 pose whose rotation carries the inertia
        self.point = point        # world position of the CoM (complex 3-vector)


class Kinematics:
    """Poses, energies and momenta of one model, from its parameter document."""

    def __init__(self, doc):
        plat, movers = doc["platform"], doc["movers"]
        self.L = float(plat["wire_length"])
        self.rail = float(plat["rail_height"])
        self.mount = np.asarray(plat["mount_offset"], dtype=float)
        self.m_plat = float(plat["mass"])
        self.I_plat = np.asarray(plat["inertia"], dtype=float)
        self.m_mover = float(movers["mass"])
        self.links = [(np.asarray(l["parent_offset"], dtype=float),
                       np.asarray(l["axis"], dtype=float), float(l["mass"]),
                       np.asarray(l["com_offset"], dtype=float),
                       np.asarray(l["inertia"], dtype=float))
                      for l in doc["links"]]
        self.gravity = float(doc.get("gravity", 9.81))
        self.n = len(self.links)
        self.V0 = self.potential(np.zeros(5 + self.n))

    def bodies(self, q):
        """Every mass-carrying body at configuration q (may be complex)."""
        q = np.asarray(q, dtype=complex)
        T_p = (_rot((0, 0, 1), q[2]) @ _rot((0, 1, 0), q[1])
               @ _rot((1, 0, 0), q[0]) @ _trans((0.0, 0.0, -self.L)))
        out = [Body(self.m_plat, self.I_plat, T_p, T_p[:3, 3])]
        for local in ((q[3], 0.0, self.rail), (0.0, q[4], self.rail)):
            out.append(Body(self.m_mover, None, None, (T_p @ _trans(local))[:3, 3]))
        T = T_p @ _trans(self.mount)
        for k, (offset, axis, mass, com, inertia) in enumerate(self.links):
            T = T @ _trans(offset) @ _rot(axis, q[5 + k])
            out.append(Body(mass, inertia, T, (T @ _trans(com))[:3, 3]))
        return out

    def potential(self, q):
        """Absolute potential g * sum(m z)."""
        return sum(b.mass * self.gravity * b.point[2].real for b in self.bodies(q))

    def e_pot(self, q):
        """Potential relative to the all-zero configuration."""
        return self.potential(q) - self.V0

    def com_xy(self, q):
        bs = self.bodies(q)
        total = sum(b.mass for b in bs)
        return sum(b.mass * b.point[:2].real for b in bs) / total

    def _velocities(self, q, qd):
        """(mass, p, v, I_world, omega) per body, exact via complex step."""
        q = np.asarray(q, dtype=float)
        qd = np.asarray(qd, dtype=float)
        b0 = self.bodies(q)
        b1 = self.bodies(q + 1j * CS_H * qd)
        out = []
        for s, d in zip(b0, b1):
            p = s.point.real
            v = d.point.imag / CS_H
            if s.inertia is None:
                out.append((s.mass, p, v, None, None))
                continue
            R = s.frame[:3, :3].real
            W = (d.frame[:3, :3].imag / CS_H) @ R.T
            w = np.array([W[2, 1], W[0, 2], W[1, 0]])
            out.append((s.mass, p, v, R @ s.inertia @ R.T, w))
        return out

    def e_kin(self, q, qd):
        """Kinetic energy summed body by body."""
        total = 0.0
        for m, _, v, Iw, w in self._velocities(q, qd):
            total += 0.5 * m * float(v @ v)
            if Iw is not None:
                total += 0.5 * float(w @ Iw @ w)
        return total

    def p_gamma(self, q, qd):
        """Yaw momentum: yaw turns the whole system about the vertical axis
        through the pivot, so p_gamma is the angular momentum about world z."""
        total = 0.0
        for m, p, v, Iw, w in self._velocities(q, qd):
            total += m * (p[0] * v[1] - p[1] * v[0])
            if Iw is not None:
                total += float((Iw @ w)[2])
        return total

    def qm_star(self, qr_des):
        """Closed-form static balance at level attitude.

        With roll and pitch zero, g_phi vanishes exactly when the horizontal
        mass moment about the rod axis is zero.  Platform and rod lie on that
        axis, mover i contributes m_mover * qm_i along platform axis i, so
        qm* = -(horizontal mass moment of the arm links) / m_mover.
        """
        q = np.concatenate([np.zeros(5), np.asarray(qr_des, dtype=float)])
        moment = sum(b.mass * b.point[:2].real for b in self.bodies(q)[3:])
        return -moment / self.m_mover
