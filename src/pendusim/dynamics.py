"""Equation-of-motion terms, the CoM coordinate transform, and forward dynamics.

The rigid-body equation is M(q) qdd + C(q, qd) qd + g(q) = tau with
tau = (0, 0, u): the actuated forces u drive every coordinate except roll and
pitch.  Every term at a state is read from one ``Eval(model, q, qd)``: M, g,
the potential V, ``kinetic_energy()``, the CoM and its Jacobian, C and the
transformed terms (``engine.assemble`` serves batches).  It assembles a
single complex configuration q + i h qd (h = 1e-20): its real parts are M, g
and the spatial body Jacobians J = [Jv; Jw] and inertias H = diag(m I3, Iw),
its imaginary parts their exact rates along qd (complex-step
differentiation).  The bias C qd + g is the Newton-Euler forces projected
through the Jacobians, in spatial form one product with the imaginary part
of the body momenta H J qd, whose rate at qdd = 0 is
(m Jv_dot qd, Iw Jw_dot qd + w x Iw w):

    C qd + g = J' Im(H J qd) / h + g,

which holds for any factorization of C.  The Christoffel block C_phim is
exact too (see Eval).  The full Christoffel C, built from dM/dq by one
complex row per coordinate, keeps the passivity identity
qd' (dM/dt - 2C) qd = 0 testable.  The transform T replaces roll/pitch rates
with the world CoM x, y rates:

    qbar_dot = T qd,   qbar = (x_c, gamma, q_m, q_r)

so gravity vanishes for the transformed internal coordinates exactly at the
hanging target.  T = [[A, D], [0, I]] is block-triangular with the 2x2
attitude block A = Jcom[:, 0:2], so the CoM blocks of Mbar = T^-T M T^-1
have closed forms on 2x2 floats (the remark-1 and proposed laws read
Mbar_cm),

    Mbar_cc = A^-T M_phiphi A^-1,
    Mbar_cm = A^-T (M_phim - M_phiphi A^-1 Jcom[:, 3:5]).

Every term beyond the stage row is a cached property of ``Eval``, built only
when read, so a controlled stage makes no linear-algebra call and builds
only what its law reads.  The one conditioning guard, ``Eval.guard2``,
checks the exact condition number of each 2x2 block a law inverts (A here,
M_phim in the coupling laws) against ``COND_LIMIT`` and records it in
``Eval.conds``.  The one mass-matrix solve, ``Eval.act_solve``, serves
forward dynamics: the free law and any applied force outside the collocated
PFL.
"""

import functools
import math

import numpy as np

from . import engine

CS_STEP = 1e-20         # complex step of the stage row and of dM/dq
COND_LIMIT = 1e8        # 2x2 conditioning guard (Eval.guard2)


class SingularMassError(RuntimeError):
    """A mass-matrix solve failed (reports the condition estimate)."""


class IllConditionedTransformError(RuntimeError):
    """CoM coordinate transform is too ill-conditioned to invert."""


def singular_values_sq2(A):
    """Squared singular values (largest, smallest) of a 2x2 block given as
    nested floats, closed form.  The discriminant t^2 - 4 det^2 is formed as
    a product of two sums of squares and the smaller value as det^2 over the
    larger, so neither cancels when the two are close (a near-orthogonal
    block such as A or M_phim at the hang)."""
    (a, b), (c, d) = A
    t = a**2 + b**2 + c**2 + d**2
    det = a * d - b * c
    root = math.sqrt(((a - d)**2 + (b + c)**2) * ((a + d)**2 + (b - c)**2))
    smax_sq = 0.5 * (t + root)
    smin_sq = det * det / smax_sq if smax_sq > 0.0 else 0.0
    return smax_sq, min(smin_sq, smax_sq)


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

    One engine call on the complex configuration q + i h qd provides M, g
    and the bias C qd + g, which the constructor reads; a free-law stage
    reads nothing else.  Every other term is a cached property built from
    the same row on first read and only then: the potential V, the CoM and
    its Jacobian, and the Christoffel block C_phim.  C_phim needs no full C:
    only the point-mass movers have mover columns in their point Jacobians
    and no rotating body depends on q_m, so the Christoffel symbols reduce
    to

        C_phim = sum over movers b of m_b Jv_b[:, 0:2]' Jv_b_dot[:, 3:5].

    Then the terms derived from these: the guarded A^-1, the closed-form
    blocks Mbar_cm and Mbar_cc, dM/dq (yaw slice analytic zero: the kinetic
    energy is invariant under yaw), the full Christoffel C, T, Tdot, T^-1,
    the full Mbar, Cbar and gbar.  Every 2x2 block a law inverts passes
    ``guard2``, which records its condition number in ``conds``.  The laws
    take an Eval as both the state and its dynamics terms.  ``pfl_solution``
    holds the (u, qdd) pair of the last collocated PFL at this state (see
    control.pfl_input), which the simulation stage integrates without a
    mass-matrix solve.
    """

    #: Configurations one evaluation assembles.
    CONFIGURATIONS = 1

    def __init__(self, model, q, qd):
        q = np.asarray(q, dtype=float)
        qd = np.asarray(qd, dtype=float)
        a = engine.assemble(model, _complex_rows(q, CS_STEP * qd[None]))
        self.model = model
        self.q = q
        self.qd = qd
        self._row = a
        self.M = np.ascontiguousarray(a.M[0].real)
        self.g = a.g[0].real
        self.conds = {}
        self.pfl_solution = None
        # Spatial bias J' Im(H J qd) / h + g: the imaginary part of each
        # body's momentum H J qd is h times its rate at qdd = 0,
        # H Jdot qd + Hdot J qd = (m Jv_dot qd, Iw Jw_dot qd + w x Iw w);
        # qd is real, so it is the imaginary part of H J times qd.
        N = model.dof
        rate = a.HJ.imag.reshape(-1, N) @ qd
        self.bias = rate @ a.J.real.reshape(-1, N) / CS_STEP + self.g

    @functools.cached_property
    def C_phim(self):
        """Christoffel block C[0:2, 3:5] from the stage row (see the class
        docstring)."""
        Jm = self._row.Jv[0, 1:3].reshape(6, self.model.dof)
        return (Jm[:, 0:2].real.T @ Jm[:, 3:5].imag) * (self.model.movers.mass / CS_STEP)

    @functools.cached_property
    def V(self):
        """Potential energy relative to the zero configuration's."""
        return float(self._row.V[0].real) - engine.potential_offset(self.model)

    @functools.cached_property
    def com(self):
        """World x, y of the system CoM."""
        return self._row.com[0].real

    @functools.cached_property
    def Jcom(self):
        """CoM Jacobian (2 x N)."""
        return self._row.Jcom[0].real

    def guard2(self, name, A, error):
        """Record the exact 2-norm condition number of the 2x2 block A (nested
        floats) as conds[name]; raise error unless it is at most COND_LIMIT
        (NaN fails)."""
        smax_sq, smin_sq = singular_values_sq2(A)
        cond = math.inf if smin_sq <= 0.0 else math.sqrt(smax_sq) / math.sqrt(smin_sq)
        self.conds[name] = cond
        if not cond <= COND_LIMIT:
            raise error(f"{error.__doc__.rstrip('.')}: cond({name}) = {cond:.3e} "
                        f"exceeds {COND_LIMIT:.0e}")

    @functools.cached_property
    def Ainv(self):
        """Inverse of the attitude block A = Jcom[:, 0:2] of T, as nested
        floats, behind the conditioning guard."""
        A = self.Jcom[:, 0:2].tolist()
        self.guard2("Jcom_phi", A, IllConditionedTransformError)
        return inv2(A)

    @functools.cached_property
    def Mbar_cm(self):
        """CoM-mover block of Mbar, closed form."""
        M0, M1 = self.M[0:2].tolist()
        J0, J1 = self.Jcom.tolist()
        Ai = self.Ainv
        W = mul2((M0[0:2], M1[0:2]), Ai)             # M_phiphi A^-1
        X = mul2(W, (J0[3:5], J1[3:5]))
        return np.array(mul2(tuple(zip(*Ai)), ((M0[3] - X[0][0], M0[4] - X[0][1]),
                                               (M1[3] - X[1][0], M1[4] - X[1][1]))))

    @functools.cached_property
    def Mbar_cc(self):
        """CoM-CoM block of Mbar, closed form: A^-T M_phiphi A^-1."""
        Ai = self.Ainv
        return np.array(mul2(tuple(zip(*Ai)), mul2(self.M[0:2, 0:2].tolist(), Ai)))

    @functools.cached_property
    def T(self):
        """CoM transform [[Jcom], [0, I]]."""
        T = np.eye(self.model.dof)
        T[0:2] = self.Jcom
        return T

    @functools.cached_property
    def Tdot(self):
        """Rate of T along qd: the exact Jcom rate from the complex row."""
        Tdot = np.zeros((self.model.dof, self.model.dof))
        Tdot[0:2] = self._row.Jcom[0].imag / CS_STEP
        return Tdot

    @functools.cached_property
    def Tinv(self):
        """T^-1, for the full transformed terms only (verify, tests)."""
        return np.linalg.inv(self.T)

    @functools.cached_property
    def Mbar(self):
        """Full transformed mass matrix T^-T M T^-1."""
        return self.Tinv.T @ self.M @ self.Tinv

    @functools.cached_property
    def dM(self):
        """dM/dq as an (N, N, N) tensor indexed [i, j, k] = dM_jk/dq_i, from
        one complex configuration per coordinate but yaw."""
        N = self.model.dof
        Qb = _complex_rows(self.q, _dM_steps(N))
        dMp = engine.assemble(self.model, Qb).M.imag / CS_STEP
        dM = np.zeros((N, N, N))
        dM[0:2] = dMp[0:2]
        dM[3:] = dMp[2:]
        return dM

    @functools.cached_property
    def C(self):
        """Christoffel Coriolis matrix; dM[i] is symmetric, so the second and
        third terms are transposes of one contraction."""
        N = self.model.dof
        dM, qd = self.dM, self.qd
        Mdot = np.dot(qd.reshape(1, N), dM.reshape(N, N * N)).reshape(N, N)
        S = np.dot(dM.reshape(N * N, N), qd.reshape(N, 1)).reshape(N, N)
        return 0.5 * (Mdot + S.T - S)

    @functools.cached_property
    def Cbar(self):
        Tinv = self.Tinv
        return Tinv.T @ (self.C - self.M @ Tinv @ self.Tdot) @ Tinv

    @functools.cached_property
    def gbar(self):
        return self.Tinv.T @ self.g

    @property
    def M_phim(self):
        return self.M[0:2, 3:5]

    @property
    def g_phi(self):
        return self.g[0:2]

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


def forward_dynamics(model, q, qd, tau):
    """qdd = M^{-1}(tau - C qd - g), for library callers: rejects a
    non-finite tau, then reads Eval(model, q, qd).forward(tau)."""
    tau = np.asarray(tau, dtype=float)
    if not np.all(np.isfinite(tau)):
        raise ValueError("tau must be finite")
    return Eval(model, q, qd).forward(tau)
