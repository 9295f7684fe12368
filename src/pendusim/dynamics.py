"""Equation-of-motion terms, the CoM coordinate transform, and forward dynamics.

The rigid-body equation is M(q) qdd + C(q, qd) qd + g(q) = tau with tau = B u
actuating everything except roll and pitch.  C uses the Christoffel
construction with dM/dq by central finite differences (step 1e-6), which keeps
the passivity identity qd' (dM/dt - 2C) qd = 0 testable.  The transform T
replaces roll/pitch rates with the world CoM x, y rates:

    qbar_dot = T qd,   qbar = (x_c, gamma, q_m, q_r)

so gravity vanishes for the transformed internal coordinates exactly at the
hanging target.
"""

import functools
import math

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from . import engine

FD_STEP = 1e-6          # central-difference step for dM/dq and T-dot
COND_LIMIT = 1e8        # transform conditioning guard


class SingularMassError(RuntimeError):
    """Mass matrix factorization failed (reports the condition estimate)."""


class IllConditionedTransformError(RuntimeError):
    """CoM coordinate transform is too ill-conditioned to invert."""


def selection_matrix(model):
    """Actuation map B (N x N-2): zeros atop identity, so tau = B @ u leaves
    roll and pitch unactuated."""
    N = model.dof
    B = np.zeros((N, N - 2))
    B[2:, :] = np.eye(N - 2)
    return B


def tau_from_u(u):
    """Embed the actuated forces u = (tau_yaw, tau_m, tau_r) into tau = B u."""
    return np.concatenate([np.zeros(2), np.asarray(u, dtype=float)])


def singular_values_sq2(A):
    """Squared singular values (largest, smallest) of a 2x2 block, closed form."""
    (a, b), (c, d) = A.tolist()
    t = a**2 + b**2 + c**2 + d**2
    det = a * d - b * c
    root = math.sqrt(max(t * t - 4.0 * det * det, 0.0))
    return 0.5 * (t + root), 0.5 * (t - root)


@functools.lru_cache(maxsize=None)
def _fd_stencil(N, need_transform, h):
    """Offsets of an Eval batch over N coordinates (shared; read only): row 0
    is the state, rows 1 + 2j and 2 + 2j step the j-th perturbed coordinate
    (all but yaw, whose dM/dq slice is analytically zero) by +h and -h, and
    two trailing rows are left for the +-h qd steps of the transform.
    Unperturbed entries hold -0.0, the exact additive identity, so
    q + offsets reproduces q bit for bit there (signed zeros included)."""
    m = N - 1
    D = np.full((1 + 2 * m + (2 if need_transform else 0), N), -0.0)
    for j, i in enumerate([0, 1] + list(range(3, N))):
        D[1 + 2 * j, i] = h
        D[2 + 2 * j, i] = -h
    return D


@functools.lru_cache(maxsize=None)
def _act_rhs(N):
    """[B | 0]: the actuation map with an empty column for the bias (shared;
    read only)."""
    rhs = np.zeros((N, N - 1))
    rhs[2:, :N - 2] = np.eye(N - 2)
    return rhs


class Eval:
    """Fused per-state evaluation shared by the simulator and controllers.

    One batched engine call provides M, dM/dq (gamma column analytic zero:
    the kinetic energy is invariant under yaw), C, g, the potential, CoM data
    and, when requested, the transformed terms.  The named blocks read by the
    oscillation-damping laws are properties, so an Eval serves as the state,
    the dynamics terms and the transformed terms those laws take.
    """

    __slots__ = ("model", "q", "qd", "M", "dM", "C", "g", "bias", "V", "com",
                 "Jcom", "T", "Tdot", "Mbar", "Cbar", "gbar", "_cho",
                 "cond", "_act")

    def __init__(self, model, q, qd, need_transform=True):
        q = np.asarray(q, dtype=float)
        qd = np.asarray(qd, dtype=float)
        N = model.dof
        h = FD_STEP
        Qb = q + _fd_stencil(N, need_transform, h)
        m = N - 1
        if need_transform:
            Qb[-2] += h * qd
            Qb[-1] -= h * qd
        a = engine.assemble(model, Qb)

        self.model = model
        self.q = q
        self.qd = qd
        self.M = a.M[0]
        self.g = a.g[0]
        self.V = float(a.V[0]) - engine.potential_offset(model)
        self.com = a.com[0]
        self.Jcom = a.Jcom[0]
        self._cho = None
        self._act = None

        dM = np.zeros((N, N, N))
        dMp = (a.M[1:1 + 2 * m:2] - a.M[2:2 + 2 * m:2]) / (2.0 * h)
        dM[0:2] = dMp[0:2]
        dM[3:] = dMp[2:]
        self.dM = dM
        # Christoffel contraction; dM[i] is symmetric, so the second and
        # third terms are transposes of one contraction.  The two products
        # are the reshaped dots np.tensordot would form, without its
        # per-call axis bookkeeping.
        Mdot = np.dot(qd.reshape(1, N), dM.reshape(N, N * N)).reshape(N, N)
        S = np.dot(dM.reshape(N * N, N), qd.reshape(N, 1)).reshape(N, N)
        self.C = 0.5 * (Mdot + S.T - S)
        self.bias = self.C @ qd + self.g

        if need_transform:
            T = np.eye(N)
            T[0:2] = self.Jcom
            Tdot = np.zeros((N, N))
            Tdot[0:2] = (a.Jcom[-2] - a.Jcom[-1]) / (2.0 * h)
            self.T = T
            self.Tdot = Tdot
            # T is block-triangular [[A, D], [0, I]]; its conditioning is
            # governed by the 2x2 attitude block A, estimated cheaply here.
            _, smin_sq = singular_values_sq2(T[0:2, 0:2])
            smin = math.sqrt(max(smin_sq, 0.0))
            scale = max(np.abs(T).max(), 1.0)
            self.cond = np.inf if smin == 0.0 else scale / smin
            if self.cond > COND_LIMIT:
                raise IllConditionedTransformError(
                    f"transform condition estimate {self.cond:.3e} exceeds {COND_LIMIT:.0e}")
            Tinv = np.linalg.inv(T)
            self.Mbar = Tinv.T @ self.M @ Tinv
            self.Cbar = Tinv.T @ (self.C - self.M @ Tinv @ Tdot) @ Tinv
            self.gbar = Tinv.T @ self.g
        else:
            self.T = None
            self.Tdot = None
            self.Mbar = None
            self.Cbar = None
            self.gbar = None
            self.cond = None

    @property
    def terms(self):
        return self

    @property
    def transformed(self):
        if self.Mbar is None:
            raise ValueError("evaluation was built without transformed terms")
        return self

    @property
    def M_phim(self):
        return self.M[0:2, 3:5]

    @property
    def C_phim(self):
        return self.C[0:2, 3:5]

    @property
    def g_phi(self):
        return self.g[0:2]

    @property
    def Mbar_cc(self):
        return self.Mbar[0:2, 0:2]

    @property
    def Mbar_cm(self):
        return self.Mbar[0:2, 3:5]

    @property
    def Cbar_cc(self):
        return self.Cbar[0:2, 0:2]

    @property
    def Cbar_cm(self):
        return self.Cbar[0:2, 3:5]

    @property
    def gbar_c(self):
        return self.gbar[0:2]

    @property
    def xc(self):
        return self.com

    @property
    def xc_dot(self):
        return self.Jcom @ self.qd

    def act_solve(self):
        """M^{-1} [B | bias] in one stacked solve; the simulation loop and the
        feedback-linearizing input both read from it."""
        if self._act is None:
            N = self.M.shape[0]
            rhs = _act_rhs(N).copy()
            rhs[:, N - 2] = self.bias
            try:
                self._act = np.linalg.solve(self.M, rhs)
            except np.linalg.LinAlgError as exc:
                raise SingularMassError(
                    f"mass matrix solve failed (cond {np.linalg.cond(self.M):.3e})"
                ) from exc
        return self._act

    def cho(self):
        if self._cho is None:
            try:
                self._cho = cho_factor(self.M)
            except np.linalg.LinAlgError as exc:
                cond = np.linalg.cond(self.M)
                raise SingularMassError(
                    f"mass matrix factorization failed (cond {cond:.3e})") from exc
        return self._cho

    def solve_M(self, rhs):
        """M x = rhs with one step of iterative refinement."""
        cho = self.cho()
        x = cho_solve(cho, rhs)
        x += cho_solve(cho, rhs - self.M @ x)
        return x

    def forward(self, tau):
        """Joint accelerations for the applied generalized force tau."""
        return self.solve_M(tau - self.bias)

    def kinetic_energy(self):
        return 0.5 * float(self.qd @ self.M @ self.qd)


def evaluate(model, q, qd, need_transform=True):
    """Build the fused evaluation at (q, qd)."""
    return Eval(model, q, qd, need_transform=need_transform)


def mass_matrix(model, q):
    """Generalized mass matrix M(q), symmetric positive definite."""
    return engine.assemble1(model, q).M[0]


def gravity_vector(model, q):
    """Generalized gravity g(q) = dV/dq, assembled analytically from the
    point Jacobians."""
    return engine.assemble1(model, q).g[0]


def potential_energy(model, q):
    """Gravitational potential, zero at the all-zero configuration."""
    V = engine.assemble1(model, q).V
    return float(V[0]) - engine.potential_offset(model)


def kinetic_energy(model, q, qd):
    qd = np.asarray(qd, dtype=float)
    return 0.5 * float(qd @ mass_matrix(model, q) @ qd)


def mass_matrix_derivatives(model, q):
    """dM/dq as an (N, N, N) tensor indexed [i, j, k] = dM_jk/dq_i."""
    return Eval(model, q, np.zeros(model.dof), need_transform=False).dM


def coriolis_matrix(model, q, qd):
    """Christoffel-consistent Coriolis matrix C(q, qd)."""
    return Eval(model, q, qd, need_transform=False).C


def dynamics_terms(model, q, qd):
    """Eval holding M, C, g and their named blocks at one state."""
    return Eval(model, q, qd, need_transform=False)


def forward_dynamics(model, q, qd, tau):
    """qdd = M^{-1}(tau - C qd - g) with iterative refinement on the solve."""
    tau = np.asarray(tau, dtype=float)
    if not np.all(np.isfinite(tau)):
        raise ValueError("tau must be finite")
    return Eval(model, q, qd, need_transform=False).forward(tau)


def transform(model, q, qd):
    """Eval with the terms in CoM coordinates; the conditioning guard here
    uses the exact condition number of T, stored as ``cond``."""
    ev = Eval(model, q, qd, need_transform=True)
    cond = float(np.linalg.cond(ev.T))
    if cond > COND_LIMIT:
        raise IllConditionedTransformError(
            f"cond(T) = {cond:.3e} exceeds {COND_LIMIT:.0e}")
    ev.cond = cond
    return ev
