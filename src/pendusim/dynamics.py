"""Equation-of-motion terms, the CoM coordinate transform, and forward dynamics.

The rigid-body equation is M(q) qdd + C(q, qd) qd + g(q) = tau with
tau = (0, 0, u): the actuated forces u drive every coordinate except roll and
pitch.  Every term below is read from one ``Eval(model, q, qd)``, which
assembles a single complex configuration q + i h qd (h = 1e-20): its real
parts are M, g, the CoM data and the body Jacobians, its imaginary parts the
exact Jacobian rates along qd (complex-step differentiation).  From these
it reads the bias C qd + g as the Newton-Euler forces projected through the
Jacobians,

    C qd + g = sum_b Jv_b' m_b Jv_b_dot qd + Jw_b' (I_b Jw_b_dot qd
               + w_b x I_b w_b) + g,

which holds for any factorization of C, and the Christoffel block C_phim
exactly (see Eval).  The full Christoffel C, built from dM/dq by one complex
row per coordinate, keeps the passivity identity qd' (dM/dt - 2C) qd = 0
testable; it and the transformed C, g are built only when read.  The
transform T replaces roll/pitch rates with the world CoM x, y rates:

    qbar_dot = T qd,   qbar = (x_c, gamma, q_m, q_r)

so gravity vanishes for the transformed internal coordinates exactly at the
hanging target.  T = [[A, D], [0, I]] is block-triangular with the 2x2
attitude block A = Jcom[:, 0:2], so the blocks of Mbar = T^-T M T^-1 the
laws read have closed forms,

    Mbar_cc = A^-T M_phiphi A^-1,
    Mbar_cm = A^-T (M_phim - M_phiphi A^-1 Jcom[:, 3:5]),

evaluated on 2x2 floats behind the cond(T) guard when a law first reads
them; T, its rate, T^-1 and the full Mbar are built only when read.  A
controlled stage therefore makes no linear-algebra call.  The one mass-matrix
solve, ``Eval.act_solve``, serves forward dynamics: the free law and any
applied force outside the collocated PFL.
"""

import functools
import math

import numpy as np

from . import engine

CS_STEP = 1e-20         # complex step of the stage row and of dM/dq
COND_LIMIT = 1e8        # transform conditioning guard


class SingularMassError(RuntimeError):
    """A mass-matrix solve failed (reports the condition estimate)."""


class IllConditionedTransformError(RuntimeError):
    """CoM coordinate transform is too ill-conditioned to invert."""


def singular_values_sq2(A):
    """Squared singular values (largest, smallest) of a 2x2 block given as
    nested floats, closed form."""
    (a, b), (c, d) = A
    t = a**2 + b**2 + c**2 + d**2
    det = a * d - b * c
    root = math.sqrt(max(t * t - 4.0 * det * det, 0.0))
    return 0.5 * (t + root), 0.5 * (t - root)


def inv2(A):
    """Inverse of a 2x2 matrix given as nested floats, by the adjugate
    (Cramer's rule, forward stable for 2x2); the caller guards against a
    zero determinant."""
    (a, b), (c, d) = A
    det = a * d - b * c
    return ((d / det, -b / det), (-c / det, a / det))


def solve2(A, r):
    """x = A^-1 r for a 2x2 A and a 2-vector r given as floats, by Cramer's
    rule; the caller guards against a zero determinant."""
    (a, b), (c, d) = A
    r0, r1 = r
    det = a * d - b * c
    return ((d * r0 - b * r1) / det, (a * r1 - c * r0) / det)


def mul2(X, Y):
    """Product of two 2x2 matrices given as nested floats."""
    (a, b), (c, d) = X
    (e, f), (g, h) = Y
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def _complex_rows(q, steps):
    """Configurations q + i steps, one per row of steps."""
    Q = np.empty(steps.shape, dtype=complex)
    Q.real = q
    Q.imag = steps
    return Q


@functools.lru_cache(maxsize=None)
def _dM_steps(N):
    """Imaginary steps of the dM/dq batch (shared; read only): one row per
    coordinate but yaw, whose dM/dq slice is analytically zero."""
    D = np.zeros((N - 1, N))
    for j, i in enumerate([0, 1] + list(range(3, N))):
        D[j, i] = CS_STEP
    return D


class Eval:
    """Fused per-state evaluation shared by the simulator and controllers.

    One engine call on the complex configuration q + i h qd provides M, g,
    the potential, CoM data, the bias C qd + g and the Christoffel block
    C_phim.  C_phim needs no full C: only the point-mass movers have mover
    columns in their point Jacobians and no rotating body depends on q_m, so
    the Christoffel symbols reduce to

        C_phim = sum over movers b of m_b Jv_b[:, 0:2]' Jv_b_dot[:, 3:5].

    Everything else is built on first read: the closed-form transformed
    blocks Mbar_cc and Mbar_cm behind the cond(T) guard (``cond`` is None
    until then), dM/dq (yaw slice analytic zero: the kinetic energy is
    invariant under yaw), the full Christoffel C, the transform T, its rate
    Tdot, T^-1, the full Mbar, the transformed Cbar, gbar, and cond(M_phim),
    which the coupling guard of the laws reads.  The laws take an Eval as
    both the state and its dynamics terms.  ``pfl_solution`` holds the
    (u, qdd) pair of the last collocated PFL at this state (see
    control.pfl_input), which the simulation stage integrates without a
    mass-matrix solve.
    """

    #: Configurations one evaluation assembles.
    CONFIGURATIONS = 1

    __slots__ = ("model", "q", "qd", "M", "g", "bias", "V", "com", "Jcom",
                 "C_phim", "cond", "pfl_solution", "_Mbar_cc", "_Mbar_cm",
                 "_Jcom_c", "_T", "_Tdot", "_Tinv", "_Mbar", "_cond_phim",
                 "_dM", "_C", "_Cbar", "_gbar")

    def __init__(self, model, q, qd):
        q = np.asarray(q, dtype=float)
        qd = np.asarray(qd, dtype=float)
        N = model.dof
        nb = model.n_bodies
        h = CS_STEP
        a = engine.assemble(model, _complex_rows(q, h * qd[None]))

        self.model = model
        self.q = q
        self.qd = qd
        self.M = np.ascontiguousarray(a.M[0].real)
        self.g = a.g[0].real
        self.V = float(a.V[0].real) - engine.potential_offset(model)
        self.com = a.com[0].real
        self._Jcom_c = a.Jcom[0]
        self.Jcom = self._Jcom_c.real
        self.cond = None
        self.pfl_solution = None
        self._Mbar_cc = None
        self._Mbar_cm = None
        self._T = None
        self._Tdot = None
        self._Tinv = None
        self._Mbar = None
        self._cond_phim = None
        self._dM = None
        self._C = None
        self._Cbar = None
        self._gbar = None

        # Newton-Euler bias: the imaginary parts of the body momenta m Jv qd
        # and Iw Jw qd are h times their rates at qdd = 0, m Jv_dot qd and
        # Iw Jw_dot qd + Iw_dot w = Iw Jw_dot qd + w x Iw w.
        Jv = a.Jv[0].reshape(nb * 3, N)
        Jw = a.Jw[0].reshape(nb * 3, N)
        p_rate = (Jv @ qd).imag.reshape(nb, 3) * model._masses[:, None]
        L_rate = (a.Iw[0] @ (Jw @ qd).reshape(nb, 3, 1)).imag
        self.bias = (Jv.real.T @ p_rate.reshape(-1)
                     + Jw.real.T @ L_rate.reshape(-1)) / h + self.g
        Jm = a.Jv[0, 1:3].reshape(6, N)
        self.C_phim = (Jm[:, 0:2].real.T @ Jm[:, 3:5].imag) * (model.movers.mass / h)

    def _transform_blocks(self):
        """Set cond and the closed-form Mbar_cc, Mbar_cm, or raise
        IllConditionedTransformError.  T is block-triangular [[A, D], [0, I]];
        its conditioning is governed by the 2x2 attitude block A, estimated
        cheaply here."""
        J0, J1 = self.Jcom.tolist()
        A = (J0[0:2], J1[0:2])
        _, smin_sq = singular_values_sq2(A)
        smin = math.sqrt(max(smin_sq, 0.0))
        scale = max(1.0, *map(abs, J0), *map(abs, J1))
        self.cond = math.inf if smin == 0.0 else scale / smin
        if not self.cond <= COND_LIMIT:
            raise IllConditionedTransformError(
                f"transform condition estimate {self.cond:.3e} exceeds {COND_LIMIT:.0e}")
        M0, M1 = self.M[0:2].tolist()
        Ai = inv2(A)
        AiT = tuple(zip(*Ai))
        W = mul2((M0[0:2], M1[0:2]), Ai)             # M_phiphi A^-1
        X = mul2(W, (J0[3:5], J1[3:5]))
        self._Mbar_cc = np.array(mul2(AiT, W))
        self._Mbar_cm = np.array(mul2(AiT, ((M0[3] - X[0][0], M0[4] - X[0][1]),
                                            (M1[3] - X[1][0], M1[4] - X[1][1]))))

    @property
    def Mbar_cc(self):
        """CoM-CoM block of Mbar, closed form: A^-T M_phiphi A^-1."""
        if self._Mbar_cc is None:
            self._transform_blocks()
        return self._Mbar_cc

    @property
    def Mbar_cm(self):
        """CoM-mover block of Mbar, closed form."""
        if self._Mbar_cm is None:
            self._transform_blocks()
        return self._Mbar_cm

    @property
    def T(self):
        """CoM transform [[Jcom], [0, I]]."""
        if self._T is None:
            T = np.eye(self.model.dof)
            T[0:2] = self.Jcom
            self._T = T
        return self._T

    @property
    def Tdot(self):
        """Rate of T along qd: the exact Jcom rate from the complex row."""
        if self._Tdot is None:
            N = self.model.dof
            Tdot = np.zeros((N, N))
            Tdot[0:2] = self._Jcom_c.imag / CS_STEP
            self._Tdot = Tdot
        return self._Tdot

    @property
    def Tinv(self):
        """T^-1 behind the cond(T) guard, for the full transformed terms only
        (verify, tests)."""
        if self._Tinv is None:
            if self._Mbar_cc is None:
                self._transform_blocks()
            self._Tinv = np.linalg.inv(self.T)
        return self._Tinv

    @property
    def Mbar(self):
        """Full transformed mass matrix T^-T M T^-1."""
        if self._Mbar is None:
            Tinv = self.Tinv
            self._Mbar = Tinv.T @ self.M @ Tinv
        return self._Mbar

    @property
    def cond_phim(self):
        """2-norm condition number of M_phim, closed form."""
        if self._cond_phim is None:
            smax_sq, smin_sq = singular_values_sq2(self.M[0:2, 3:5].tolist())
            self._cond_phim = (math.inf if smin_sq <= 0.0
                               else math.sqrt(smax_sq) / math.sqrt(smin_sq))
        return self._cond_phim

    @property
    def dM(self):
        """dM/dq as an (N, N, N) tensor indexed [i, j, k] = dM_jk/dq_i, from
        one complex configuration per coordinate but yaw."""
        if self._dM is None:
            N = self.model.dof
            Qb = _complex_rows(self.q, _dM_steps(N))
            dMp = engine.assemble(self.model, Qb).M.imag / CS_STEP
            dM = np.zeros((N, N, N))
            dM[0:2] = dMp[0:2]
            dM[3:] = dMp[2:]
            self._dM = dM
        return self._dM

    @property
    def C(self):
        """Christoffel Coriolis matrix; dM[i] is symmetric, so the second and
        third terms are transposes of one contraction."""
        if self._C is None:
            N = self.model.dof
            dM, qd = self.dM, self.qd
            Mdot = np.dot(qd.reshape(1, N), dM.reshape(N, N * N)).reshape(N, N)
            S = np.dot(dM.reshape(N * N, N), qd.reshape(N, 1)).reshape(N, N)
            self._C = 0.5 * (Mdot + S.T - S)
        return self._C

    @property
    def Cbar(self):
        if self._Cbar is None:
            Tinv = self.Tinv
            self._Cbar = Tinv.T @ (self.C - self.M @ Tinv @ self.Tdot) @ Tinv
        return self._Cbar

    @property
    def gbar(self):
        if self._gbar is None:
            self._gbar = self.Tinv.T @ self.g
        return self._gbar

    @property
    def M_phim(self):
        return self.M[0:2, 3:5]

    @property
    def g_phi(self):
        return self.g[0:2]

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
    def xc_dot(self):
        return self.Jcom @ self.qd

    def act_solve(self, rhs):
        """M^-1 rhs: the one mass-matrix solve, by LU."""
        try:
            return np.linalg.solve(self.M, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularMassError(
                f"mass matrix solve failed (cond {np.linalg.cond(self.M):.3e})"
            ) from exc

    def forward(self, tau):
        """Joint accelerations for the applied generalized force tau."""
        return self.act_solve(tau - self.bias)

    def kinetic_energy(self):
        return 0.5 * float(self.qd @ self.M @ self.qd)


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
    return Eval(model, q, np.zeros(model.dof)).dM


def coriolis_matrix(model, q, qd):
    """Christoffel-consistent Coriolis matrix C(q, qd)."""
    return Eval(model, q, qd).C


def forward_dynamics(model, q, qd, tau):
    """qdd = M^{-1}(tau - C qd - g)."""
    tau = np.asarray(tau, dtype=float)
    if not np.all(np.isfinite(tau)):
        raise ValueError("tau must be finite")
    return Eval(model, q, qd).forward(tau)
