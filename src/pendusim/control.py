"""Mover reference-acceleration laws and the partial feedback linearization.

PFL makes the actuated output y = (gamma, q_m, q_r) track ydd_ref exactly;
yaw and arm references are plain PD pole placement.  The mover reference
acceleration is the indirect channel into the unactuated roll/pitch (or CoM)
dynamics, and four designs of it are provided:

  motivating  -- cancel the internal dynamics so roll/pitch converge; the
                 movers are left with pendulum-like residual dynamics.
  remark1     -- damp the world CoM only; platform attitude and movers may
                 drift while the CoM stays put.
  remark2     -- motivating law plus a mover PD term; the closed loop has no
                 unique equilibrium.
  proposed    -- CoM damping plus mover PD, premultiplied by D, which
                 stabilizes CoM and movers simultaneously (and therefore the
                 attitude, since x_c = 0 with q_m = q_m* levels the platform).
"""

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import dynamics, engine

logger = logging.getLogger(__name__)

CONTROLLER_NAMES = ("motivating", "remark1", "remark2", "proposed", "free")

M_PHIM_COND_LIMIT = 1e8


class SingularCouplingError(RuntimeError):
    """The roll/pitch-to-mover inertia coupling block is too ill-conditioned."""


class NoConvergenceError(RuntimeError):
    """Static equilibrium search failed; carries the final residual."""

    def __init__(self, message, residual=None, qm=None):
        super().__init__(message)
        self.residual = residual
        self.qm = qm


def _diag2(v):
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.size == 1:
        v = np.repeat(v, 2)
    if v.size != 2 or np.any(v <= 0.0):
        raise ValueError("expected two positive diagonal gains")
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
            if np.any(v <= 0.0):
                raise ValueError(f"{name} diagonal must be positive")
            object.__setattr__(self, name, v)
        if self.D_gamma <= 0.0 or self.K_gamma <= 0.0:
            raise ValueError("yaw gains must be positive")

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
    """Desk-scale default gains sized for an n-link arm."""
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
        object.__setattr__(self, "qr_des", np.asarray(self.qr_des, dtype=float).reshape(-1))
        if self.qm_star is not None:
            object.__setattr__(self, "qm_star",
                               np.asarray(self.qm_star, dtype=float).reshape(2))

    def to_dict(self):
        return {"gamma_des": self.gamma_des,
                "qr_des": self.qr_des.tolist(),
                "qm_star": None if self.qm_star is None else self.qm_star.tolist()}


@dataclass(frozen=True)
class ControlInput:
    """Actuated forces u = (tau_yaw, tau_m, tau_r); tau = B u has zero
    roll/pitch rows."""

    tau_yaw: float
    tau_m: np.ndarray
    tau_r: np.ndarray

    def as_vector(self):
        return np.concatenate([[self.tau_yaw], self.tau_m, self.tau_r])

    def as_tau(self):
        return dynamics.tau_from_u(self.as_vector())


def _split_u(u, n):
    u = np.asarray(u, dtype=float)
    return ControlInput(float(u[0]), u[1:3].copy(), u[3:3 + n].copy())


def outer_refs(state, setpoint, gains):
    """PD reference accelerations for yaw and the arm joints."""
    q, qd = state.q, state.qd
    gdd = -gains.D_gamma * qd[2] - gains.K_gamma * (q[2] - setpoint.gamma_des)
    qrdd = -gains.D_r * qd[5:] - gains.K_r * (q[5:] - setpoint.qr_des)
    return gdd, qrdd


def _solve_phim(M_phim, rhs):
    smax_sq, smin_sq = dynamics.singular_values_sq2(M_phim)
    cond = math.inf if smin_sq <= 0.0 else math.sqrt(smax_sq) / math.sqrt(smin_sq)
    if cond > M_PHIM_COND_LIMIT:
        raise SingularCouplingError(
            f"roll/pitch-to-mover coupling condition {cond:.3e} "
            f"exceeds {M_PHIM_COND_LIMIT:.0e}")
    return np.linalg.solve(M_phim, rhs)


def qm_ref_motivating(state, terms, gains):
    """Mover acceleration canceling the roll/pitch internal dynamics."""
    phi = state.q[0:2]
    phid = state.qd[0:2]
    qmd = state.qd[3:5]
    rhs = gains.D_phi * phid + gains.K_phi * phi - terms.C_phim @ qmd - terms.g_phi
    return _solve_phim(terms.M_phim, rhs)


def qm_ref_remark1(state, transformed, gains):
    """CoM-only damping; contains no mover feedback terms."""
    del state
    return transformed.Mbar_cm.T @ (gains.D_c * transformed.xc_dot
                                    + gains.K_c * transformed.xc)


def qm_ref_remark2(state, terms, setpoint, gains):
    """Motivating law plus a mover PD term about q_m*."""
    qm = state.q[3:5]
    qmd = state.qd[3:5]
    return (qm_ref_motivating(state, terms, gains)
            - gains.D_m * qmd - gains.K_m * (qm - setpoint.qm_star))


def qm_ref_proposed(state, transformed, setpoint, gains):
    """CoM damping plus mover PD, scaled by D; the unique rest point is
    (x_c, q_m) = (0, q_m*)."""
    qm = state.q[3:5]
    qmd = state.qd[3:5]
    inner = (transformed.Mbar_cm.T @ (gains.D_c * transformed.xc_dot
                                      + gains.K_c * transformed.xc)
             - gains.D_m * qmd - gains.K_m * (qm - setpoint.qm_star))
    return gains.D * inner


def _pfl(ev, ydd_ref):
    """Exact PFL: u = (B' M^-1 B)^-1 (B' M^-1 bias + ydd_ref), with the
    B' M^-1 rows read off the evaluation's stacked solve M^-1 [B | bias]."""
    X = ev.act_solve()
    return np.linalg.solve(X[2:, :-1], X[2:, -1] + ydd_ref)


def pfl_input_standard(state, terms, ydd_ref):
    """Exact linearizing input in the original coordinates:
    u = (B' M^-1 B)^-1 (B' M^-1 (C qd + g) + ydd_ref).  ``terms`` is the
    Eval at ``state``."""
    del state
    u = _pfl(terms, np.asarray(ydd_ref, dtype=float))
    return _split_u(u, terms.model.n_links)


def pfl_input_transformed(state, transformed, ydd_ref):
    """The same exact linearization computed through the CoM coordinates:
    u = (B' T^-1 Mbar^-1 T^-T B)^-1
        (B' T^-1 (Mbar^-1 (Cbar qbar_d + gbar) + Tdot qd) + ydd_ref)."""
    T = transformed.T
    N = T.shape[0]
    Tinv = np.linalg.inv(T)
    qbar_d = T @ state.qd
    # T^-T B is the trailing N-2 columns of T^-T, i.e. Tinv[2:, :].T.
    W = np.linalg.solve(transformed.Mbar, Tinv[2:, :].T)
    G = (Tinv @ W)[2:]
    inner = (np.linalg.solve(transformed.Mbar,
                             transformed.Cbar @ qbar_d + transformed.gbar)
             + transformed.Tdot @ state.qd)
    rhs = (Tinv @ inner)[2:]
    u = np.linalg.solve(G, rhs + np.asarray(ydd_ref, dtype=float))
    return _split_u(u, N - 5)


def balance_residual(model, qm, qr_des, gamma_des=0.0):
    """g_phi at level attitude, movers at qm and arm at qr_des; its norm is
    the static balance residual |g_phi(phi=0, q_m, q_r_des)|."""
    q = np.concatenate([[0.0, 0.0, gamma_des], qm, qr_des])
    return engine.assemble1(model, q).g[0][0:2]


def solve_equilibrium_qm(model, qr_des, gamma_des=0.0, tol=1e-10, max_iter=100):
    """Mover position statically balancing the arm's gravity torque at level
    attitude, by damped Newton on the 2-vector g_phi(phi=0, q_m, qr_des).

    Iterates are clamped to the mover travel box; a balance point beyond the
    movers' authority therefore fails with NoConvergenceError.
    """
    qr_des = np.asarray(qr_des, dtype=float).reshape(-1)
    if qr_des.size != model.n_links:
        raise ValueError(f"expected {model.n_links} arm targets, got {qr_des.size}")
    lim = model.movers.travel_limit

    def residual(qm):
        return balance_residual(model, qm, qr_des, gamma_des)

    def jac(qm):
        h = 1e-7
        cols = []
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            cols.append((residual(qm + e) - residual(qm - e)) / (2.0 * h))
        return np.column_stack(cols)

    qm = np.zeros(2)
    r = residual(qm)
    for _ in range(max_iter):
        if np.linalg.norm(r) < tol:
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
    if np.linalg.norm(r) < tol:
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
        self.needs_transform = name in ("remark1", "proposed")
        if name == "proposed" and gains is not None and not gains.ratio_ok:
            logger.warning("proposed law used without the D_c, K_c >> D_m, K_m "
                           "gain ordering; convergence is not guaranteed")

    def u_vector(self, ev):
        """Actuated force vector u for the fused evaluation ev, which also
        serves as the state and the (transformed) terms of the laws."""
        if self.name == "free":
            return np.zeros(ev.model.dof - 2)
        gains, sp = self.gains, self.setpoint
        gdd, qrdd = outer_refs(ev, sp, gains)
        if self.name == "motivating":
            qmdd = qm_ref_motivating(ev, ev, gains)
        elif self.name == "remark1":
            qmdd = qm_ref_remark1(ev, ev, gains)
        elif self.name == "remark2":
            qmdd = qm_ref_remark2(ev, ev, sp, gains)
        else:
            qmdd = qm_ref_proposed(ev, ev, sp, gains)
        ydd_ref = np.empty(ev.model.dof - 2)
        ydd_ref[0] = gdd
        ydd_ref[1:3] = qmdd
        ydd_ref[3:] = qrdd
        return _pfl(ev, ydd_ref)


def make_controller(name, gains=None, setpoint=None):
    if name != "free" and (gains is None or setpoint is None):
        raise ValueError(f"controller {name!r} needs gains and a setpoint")
    return Controller(name, gains, setpoint)
