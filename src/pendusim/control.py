"""Mover reference-acceleration laws and the partial feedback linearization.

PFL makes the actuated output y = (gamma, q_m, q_r) track ydd_ref exactly.
The outputs are the actuated coordinates themselves (tau = (0, 0, u)), so
the linearization is collocated (Spong 1994): qdd[2:] is ydd_ref, roll/pitch
follow from the 2x2 block of M, and u from the actuated rows; no N x N solve
is needed.  Yaw and arm references are plain PD pole placement.  The mover
reference acceleration is the indirect channel into the unactuated
roll/pitch (or CoM) dynamics, and four designs of it are provided:

  motivating  -- cancel the internal dynamics so roll/pitch converge; the
                 movers are left with pendulum-like residual dynamics.
  remark1     -- damp the world CoM only; platform attitude and movers may
                 drift while the CoM stays put.
  remark2     -- motivating law plus a mover PD term; the closed loop has no
                 unique equilibrium.
  proposed    -- CoM damping plus mover PD, premultiplied by D, which
                 stabilizes CoM and movers simultaneously (and therefore the
                 attitude, since x_c = 0 with q_m = q_m* levels the platform).

Every law takes a ``dynamics.Eval`` as its state and terms, as
``law(ev, gains[, setpoint])``; ``pfl_input(ev, ydd_ref)`` turns the
references into the actuated force vector u = (tau_yaw, tau_m, tau_r).  The
motivating and remark-2 laws invert the coupling block M_phim, the remark-1
and proposed laws read Mbar_cm through the inverse of the attitude block
Jcom[:, 0:2]; both blocks pass the one guard, ``Eval.guard2``, which records
their condition numbers on the evaluation.
"""

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import dynamics, engine
from .model import check_finite

logger = logging.getLogger(__name__)

CONTROLLER_NAMES = ("motivating", "remark1", "remark2", "proposed", "free")
BALANCE_TOL = 1e-10     # static balance residual |g_phi| a solved q_m* meets


class SingularCouplingError(RuntimeError):
    """The roll/pitch-to-mover inertia coupling block is too ill-conditioned."""


class NoConvergenceError(RuntimeError):
    """Static equilibrium search failed; carries the final residual."""

    def __init__(self, message, residual=None, qm=None):
        super().__init__(message)
        self.residual = residual
        self.qm = qm


def _positive(v):
    """True when every entry is positive and finite (NaN fails)."""
    return bool(np.all((v > 0.0) & (v < np.inf)))


def _diag2(v):
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.size == 1:
        v = np.repeat(v, 2)
    if v.size != 2 or not _positive(v):
        raise ValueError("expected two positive finite diagonal gains")
    return v


@dataclass(frozen=True)
class Gains:
    """Controller gains.  The 2-vectors are diagonals of diagonal matrices.

    Defaults are the desk-scale values tuned against the closed-loop
    acceptance runs (platform swing damping through the movers is weak, so
    the CoM gains are much larger than the mover PD gains).  For the proposed
    law the guarantee needs D_c, K_c well above D_m, K_m; `ratio_ok` reports
    whether the 10x ordering holds (violations are allowed so the failure
    regime can be explored, but they are logged)."""

    D_gamma: float = 10.0
    K_gamma: float = 25.0
    D_r: np.ndarray = field(default_factory=lambda: np.full(3, 10.0))
    K_r: np.ndarray = field(default_factory=lambda: np.full(3, 25.0))
    D: np.ndarray = field(default_factory=lambda: np.full(2, 3.8))
    D_c: np.ndarray = field(default_factory=lambda: np.full(2, 47.0))
    K_c: np.ndarray = field(default_factory=lambda: np.full(2, 320.0))
    D_m: np.ndarray = field(default_factory=lambda: np.full(2, 0.21))
    K_m: np.ndarray = field(default_factory=lambda: np.full(2, 0.24))
    D_phi: np.ndarray = field(default_factory=lambda: np.full(2, 1800.0))
    K_phi: np.ndarray = field(default_factory=lambda: np.full(2, 2000.0))

    def __post_init__(self):
        for name in ("D", "D_c", "K_c", "D_m", "K_m", "D_phi", "K_phi"):
            object.__setattr__(self, name, _diag2(getattr(self, name)))
        for name in ("D_r", "K_r"):
            v = np.asarray(getattr(self, name), dtype=float).reshape(-1)
            if not _positive(v):
                raise ValueError(f"{name} diagonal must be positive and finite")
            object.__setattr__(self, name, v)
        if not _positive(np.array([self.D_gamma, self.K_gamma], dtype=float)):
            raise ValueError("yaw gains must be positive and finite")

    @property
    def ratio_ok(self):
        lo = min(self.D_c.min(), self.K_c.min())
        hi = max(self.D_m.max(), self.K_m.max())
        return lo >= 10.0 * hi

    def to_dict(self):
        return {
            "D_gamma": self.D_gamma, "K_gamma": self.K_gamma,
            "D_r": self.D_r.tolist(), "K_r": self.K_r.tolist(),
            "D": self.D.tolist(), "D_c": self.D_c.tolist(),
            "K_c": self.K_c.tolist(), "D_m": self.D_m.tolist(),
            "K_m": self.K_m.tolist(), "D_phi": self.D_phi.tolist(),
            "K_phi": self.K_phi.tolist(),
        }

    @classmethod
    def from_dict(cls, doc):
        return cls(**doc)


def default_gains(n_links):
    """Desk-scale default gains sized for an n-link arm.

    Only the arm PD vectors follow n_links; the platform, CoM and mover
    gains are those tuned on the 3-link desk arm (`preset_paper(3)`).  They
    are not tuned for other arms: with `preset_paper(7)` the proposed law
    from `cli.DEFAULT_QR_DES[7]` does not converge."""
    return Gains(D_r=np.full(n_links, 10.0), K_r=np.full(n_links, 25.0))


@dataclass(frozen=True)
class Setpoint:
    """Targets: yaw angle, arm configuration, and the statically balancing
    mover position q_m*.  qm_star may be None for a setpoint awaiting the
    balance solve (the equilibrium command fills it in)."""

    gamma_des: float
    qr_des: np.ndarray
    qm_star: np.ndarray = None

    def __post_init__(self):
        object.__setattr__(self, "gamma_des", float(self.gamma_des))
        object.__setattr__(self, "qr_des", np.asarray(self.qr_des, dtype=float).reshape(-1))
        check_finite("setpoint", self.gamma_des, self.qr_des)
        if self.qm_star is not None:
            object.__setattr__(self, "qm_star",
                               np.asarray(self.qm_star, dtype=float).reshape(2))
            check_finite("qm_star", self.qm_star)

    def to_dict(self):
        return {"gamma_des": self.gamma_des,
                "qr_des": self.qr_des.tolist(),
                "qm_star": None if self.qm_star is None else self.qm_star.tolist()}


def outer_refs(ev, gains, setpoint):
    """PD reference accelerations for yaw and the arm joints."""
    q, qd = ev.q, ev.qd
    gdd = -gains.D_gamma * qd[2] - gains.K_gamma * (q[2] - setpoint.gamma_des)
    qrdd = -gains.D_r * qd[5:] - gains.K_r * (q[5:] - setpoint.qr_des)
    return gdd, qrdd


def _solve_phim(ev, rhs):
    """M_phim^-1 rhs in closed form, behind the conditioning guard."""
    M_phim = ev.M_phim.tolist()
    ev.guard2("M_phim", M_phim, SingularCouplingError)
    return np.array(dynamics.solve2(M_phim, rhs.tolist()))


def qm_ref_motivating(ev, gains):
    """Mover acceleration canceling the roll/pitch internal dynamics."""
    phi = ev.q[0:2]
    phid = ev.qd[0:2]
    qmd = ev.qd[3:5]
    rhs = gains.D_phi * phid + gains.K_phi * phi - ev.C_phim @ qmd - ev.g_phi
    return _solve_phim(ev, rhs)


def qm_ref_remark1(ev, gains):
    """CoM-only damping; contains no mover feedback terms."""
    return ev.Mbar_cm.T @ (gains.D_c * ev.xc_dot + gains.K_c * ev.com)


def qm_ref_remark2(ev, gains, setpoint):
    """Motivating law plus a mover PD term about q_m*."""
    qm = ev.q[3:5]
    qmd = ev.qd[3:5]
    return (qm_ref_motivating(ev, gains)
            - gains.D_m * qmd - gains.K_m * (qm - setpoint.qm_star))


def qm_ref_proposed(ev, gains, setpoint):
    """CoM damping plus mover PD, scaled by D; the unique rest point is
    (x_c, q_m) = (0, q_m*)."""
    qm = ev.q[3:5]
    qmd = ev.qd[3:5]
    inner = (ev.Mbar_cm.T @ (gains.D_c * ev.xc_dot + gains.K_c * ev.com)
             - gains.D_m * qmd - gains.K_m * (qm - setpoint.qm_star))
    return gains.D * inner


def pfl_input(ev, ydd_ref):
    """Collocated exact PFL (Spong 1994): the actuated force vector u that
    makes qdd[2:] = ydd_ref.  The unactuated roll/pitch rows give

        qdd[0:2] = -M_phiphi^-1 (M[0:2, 2:] ydd_ref + bias[0:2]),

    a closed-form 2x2 solve, and u = M[2:] qdd + bias[2:]; this equals
    u = (B' M^-1 B)^-1 (B' M^-1 (C qd + g) + ydd_ref) with B = [0; I].
    Keeps (u, qdd) on ev as ``pfl_solution``."""
    M, bias = ev.M, ev.bias
    qdd = np.empty(M.shape[0])
    qdd[2:] = ydd_ref
    M_pp = M[0:2, 0:2].tolist()
    (a, b), (c, d) = M_pp
    det = a * d - b * c
    if not 0.0 < det < math.inf:
        raise dynamics.SingularMassError(
            f"roll/pitch inertia block has determinant {det:.3e}")
    rhs = -(M[0:2, 2:] @ ydd_ref + bias[0:2])
    qdd[0:2] = dynamics.solve2(M_pp, rhs.tolist())
    u = M[2:] @ qdd + bias[2:]
    ev.pfl_solution = (u, qdd)
    return u


def pfl_input_transformed(ev, ydd_ref):
    """The same exact linearization computed through the CoM coordinates with
    full N x N algebra, as an independent check of ``pfl_input``:
    u = (B' T^-1 Mbar^-1 T^-T B)^-1
        (B' T^-1 (Mbar^-1 (Cbar qbar_d + gbar) + Tdot qd) + ydd_ref)."""
    T = ev.T
    Tinv = np.linalg.inv(T)
    qbar_d = T @ ev.qd
    # T^-T B is the trailing N-2 columns of T^-T, i.e. Tinv[2:, :].T.
    W = np.linalg.solve(ev.Mbar, Tinv[2:, :].T)
    G = (Tinv @ W)[2:]
    inner = (np.linalg.solve(ev.Mbar, ev.Cbar @ qbar_d + ev.gbar)
             + ev.Tdot @ ev.qd)
    rhs = (Tinv @ inner)[2:]
    return np.linalg.solve(G, rhs + np.asarray(ydd_ref, dtype=float))


def _level(qm, qr_des, gamma_des):
    """Configuration at level attitude, movers at qm and arm at qr_des."""
    return np.concatenate([[0.0, 0.0, gamma_des], qm, qr_des])


def balance_residual(model, qm, qr_des, gamma_des=0.0):
    """g_phi at level attitude, movers at qm and arm at qr_des; its norm is
    the static balance residual |g_phi(phi=0, q_m, q_r_des)|."""
    return engine.assemble1(model, _level(qm, qr_des, gamma_des)).g[0][0:2]


def solve_equilibrium_qm(model, qr_des, gamma_des=0.0):
    """Mover position statically balancing the arm's gravity torque at level
    attitude, by damped Newton (at most 100 steps) on the 2-vector
    g_phi(phi=0, q_m, qr_des) with its exact complex-step Jacobian, to
    |g_phi| < BALANCE_TOL.

    Iterates are clamped to the mover travel box; a balance point beyond the
    movers' authority therefore fails with NoConvergenceError.
    """
    qr_des = np.asarray(qr_des, dtype=float).reshape(-1)
    if qr_des.size != model.n_links:
        raise ValueError(f"expected {model.n_links} arm targets, got {qr_des.size}")
    lim = model.movers.travel_limit

    def residual(qm):
        return balance_residual(model, qm, qr_des, gamma_des)

    steps = np.zeros((2, model.dof))
    steps[0, 3] = steps[1, 4] = dynamics.CS_STEP

    def jac(qm):
        """d g_phi / d q_m, exact: one complex row per mover coordinate."""
        Q = dynamics._complex_rows(_level(qm, qr_des, gamma_des), steps)
        return engine.assemble(model, Q).g[:, 0:2].imag.T / dynamics.CS_STEP

    qm = np.zeros(2)
    r = residual(qm)
    for _ in range(100):
        if np.linalg.norm(r) < BALANCE_TOL:
            return qm
        step = np.linalg.solve(jac(qm), -r)
        lam = 1.0
        while lam > 1e-8:
            cand = np.clip(qm + lam * step, -lim, lim)
            r_new = residual(cand)
            if np.linalg.norm(r_new) < np.linalg.norm(r):
                qm, r = cand, r_new
                break
            lam *= 0.5
        else:
            break
    if np.linalg.norm(r) < BALANCE_TOL:
        return qm
    raise NoConvergenceError(
        f"static balance not reached: residual {np.linalg.norm(r):.3e} at qm {qm}",
        residual=float(np.linalg.norm(r)), qm=qm)


class Controller:
    """Closed-loop control law evaluated from a fused dynamics evaluation."""

    def __init__(self, name, gains, setpoint):
        if name not in CONTROLLER_NAMES:
            raise ValueError(f"unknown controller {name!r}")
        self.name = name
        self.gains = gains
        self.setpoint = setpoint
        if name == "proposed" and gains is not None and not gains.ratio_ok:
            logger.warning("proposed law used without the D_c, K_c >> D_m, K_m "
                           "gain ordering; convergence is not guaranteed")

    def u_vector(self, ev):
        """Actuated force vector u at the evaluation ev."""
        if self.name == "free":
            return np.zeros(ev.model.dof - 2)
        gains, sp = self.gains, self.setpoint
        gdd, qrdd = outer_refs(ev, gains, sp)
        if self.name == "motivating":
            qmdd = qm_ref_motivating(ev, gains)
        elif self.name == "remark1":
            qmdd = qm_ref_remark1(ev, gains)
        elif self.name == "remark2":
            qmdd = qm_ref_remark2(ev, gains, sp)
        else:
            qmdd = qm_ref_proposed(ev, gains, sp)
        ydd_ref = np.empty(ev.model.dof - 2)
        ydd_ref[0] = gdd
        ydd_ref[1:3] = qmdd
        ydd_ref[3:] = qrdd
        return pfl_input(ev, ydd_ref)


def make_controller(name, gains=None, setpoint=None):
    if name != "free" and (gains is None or setpoint is None):
        raise ValueError(f"controller {name!r} needs gains and a setpoint")
    return Controller(name, gains, setpoint)
