"""Deterministic fixed-step closed-loop simulation and trajectory metrics.

Classical 4-stage Runge-Kutta on (q, qd) with the control input recomputed at
every stage (continuous-control idealization).  Actuated work is integrated
alongside the state with the same quadrature so the energy audit
E(t) - E(0) = integral of qd' tau compares two equally accurate quantities.

Trajectory post-processing classifies each tracked signal as converged,
limit_cycle, diverged or inconclusive; inconclusive is reported as such,
never silently mapped to another class.
"""

import json
import logging
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .control import (Gains, Setpoint, SingularCouplingError, balance_residual,
                      make_controller)
from .model import State, SystemModel, model_from_dict, model_to_dict, preset_paper
from .spatial import BETA_GUARD

logger = logging.getLogger(__name__)

Q_ESCAPE = 1e3          # any coordinate beyond this halts the run
DEFAULT_BANDS = {"phi": 1e-3, "gamma": 1e-3, "qm": 1e-3, "qr": 1e-3, "xc": 1e-3}
ESCAPE_BOUNDS = {"phi": 1.0, "gamma": 1.0, "qm": 2.0, "qr": 4.0 * np.pi, "xc": 2.0}
DEFAULT_WINDOW = 10.0
ENERGY_AUDIT_RTOL = 1e-5

CONVERGED = "converged"
LIMIT_CYCLE = "limit_cycle"
DIVERGED = "diverged"
INCONCLUSIVE = "inconclusive"


class StateEscapeError(RuntimeError):
    """A coordinate left the admissible region; the run halts gracefully."""


class ScenarioError(ValueError):
    """Scenario document failed validation."""


def _whole(value, name):
    """value as an int, or ScenarioError unless it is a whole number."""
    try:
        whole = float(value).is_integer()
    except (TypeError, ValueError):
        whole = False
    if not whole:
        raise ScenarioError(f"{name} must be a whole number, got {value!r}")
    return int(value)


@dataclass
class Scenario:
    """One reproducible closed-loop experiment."""

    model: SystemModel
    controller: str
    gains: Gains = None
    setpoint: Setpoint = None
    q0: np.ndarray = None
    qd0: np.ndarray = None
    dt: float = 1e-3
    duration: float = 60.0
    decimation: int = 10
    label: str = ""
    tau_ext: np.ndarray = None

    def __post_init__(self):
        N = self.model.dof
        self.q0 = np.zeros(N) if self.q0 is None else np.asarray(self.q0, dtype=float)
        self.qd0 = np.zeros(N) if self.qd0 is None else np.asarray(self.qd0, dtype=float)
        if self.q0.shape != (N,) or self.qd0.shape != (N,):
            raise ScenarioError(f"initial state must have {N} coordinates")
        if not (np.all(np.isfinite(self.q0)) and np.all(np.isfinite(self.qd0))):
            raise ScenarioError("initial state must be finite")
        if abs(self.q0[1]) >= BETA_GUARD:
            raise ScenarioError(
                f"initial pitch {self.q0[1]:.6f} rad violates the gimbal guard")
        if not (0.0 < self.dt <= 0.01):
            raise ScenarioError(f"dt must lie in (0, 0.01], got {self.dt}")
        if not (np.isfinite(self.duration) and self.duration > 0.0):
            raise ScenarioError(
                f"duration must be positive and finite, got {self.duration}")
        self.decimation = _whole(self.decimation, "decimation")
        if self.decimation < 1:
            raise ScenarioError("decimation must be a positive integer")
        if self.controller != "free" and (self.gains is None or self.setpoint is None):
            raise ScenarioError(f"controller {self.controller!r} needs gains and setpoint")
        if (self.controller in ("remark2", "proposed")
                and self.setpoint.qm_star is None):
            raise ScenarioError(
                f"controller {self.controller!r} needs a solved qm_star "
                "(run the equilibrium command first)")
        if self.gains is not None and self.gains.D_r.size != self.model.n_links:
            raise ScenarioError(
                f"gains carry {self.gains.D_r.size} arm entries for a "
                f"{self.model.n_links}-link arm")
        if (self.setpoint is not None
                and self.setpoint.qr_des.size != self.model.n_links):
            raise ScenarioError(
                f"setpoint has {self.setpoint.qr_des.size} arm targets for a "
                f"{self.model.n_links}-link arm")
        if self.tau_ext is not None:
            self.tau_ext = np.asarray(self.tau_ext, dtype=float).reshape(N)
            if not np.all(np.isfinite(self.tau_ext)):
                raise ScenarioError("tau_ext must be finite")

    def effective_setpoint(self):
        if self.setpoint is not None and self.setpoint.qm_star is not None:
            return self.setpoint
        if self.setpoint is not None:
            return Setpoint(self.setpoint.gamma_des, self.setpoint.qr_des,
                            np.zeros(2))
        return Setpoint(0.0, np.zeros(self.model.n_links), np.zeros(2))


@dataclass
class Trajectory:
    """Uniformly sampled log of one run."""

    scenario: Scenario
    t: np.ndarray
    q: np.ndarray
    qd: np.ndarray
    u: np.ndarray
    xc: np.ndarray
    e_kin: np.ndarray
    e_pot: np.ndarray
    work: np.ndarray
    escaped: bool = False
    escape_reason: str = ""
    travel_limit_exceeded: bool = False

    @property
    def n_links(self):
        return self.scenario.model.n_links


@dataclass
class SignalOutcome:
    classification: str
    settling_time: float
    trailing_amplitude: float
    max_abs: float
    band: float


@dataclass
class OutcomeReport:
    """Quantified verdicts for one trajectory."""

    signals: dict
    escaped: bool
    escape_reason: str
    decay_rate: float
    travel_limit_exceeded: bool
    energy_audit: dict

    def to_dict(self):
        return {
            "signals": {
                name: {
                    "classification": s.classification,
                    "settling_time": s.settling_time,
                    "trailing_amplitude": s.trailing_amplitude,
                    "max_abs": s.max_abs,
                    "band": s.band,
                }
                for name, s in self.signals.items()
            },
            "escaped": self.escaped,
            "escape_reason": self.escape_reason,
            "decay_rate": self.decay_rate,
            "travel_limit_exceeded": self.travel_limit_exceeded,
            "energy_audit": self.energy_audit,
        }


def _check_state(q, qd, t):
    if not (np.all(np.isfinite(q)) and np.all(np.isfinite(qd))):
        raise StateEscapeError(f"non-finite state at t={t:.4f}")
    if np.abs(q).max() > Q_ESCAPE:
        raise StateEscapeError(f"|q| exceeded {Q_ESCAPE:g} at t={t:.4f}")
    if abs(q[1]) >= BETA_GUARD:
        raise StateEscapeError(f"gimbal guard tripped at t={t:.4f}")


def _stage(model, q, qd, controller, tau_ext):
    """One derivative evaluation of the closed loop."""
    ev = dynamics.Eval(model, q, qd, need_transform=controller.needs_transform)
    u = controller.u_vector(ev)
    X = ev.act_solve()
    qdd = X[:, :-1] @ u - X[:, -1]
    tau_act = np.zeros(qd.size)
    tau_act[2:] = u
    if tau_ext is not None:
        qdd = qdd + ev.solve_M(tau_ext)
        tau_act = tau_act + tau_ext
    return ev, u, qdd, float(qd @ tau_act)


def _rk4(model, q, qd, controller, tau_ext, dt, a1, p1):
    """One classical RK4 step from (q, qd), given the first stage's
    acceleration a1 and actuated power p1; returns (q, qd, work increment)."""
    qd2 = qd + 0.5 * dt * a1
    _, _, a2, p2 = _stage(model, q + 0.5 * dt * qd, qd2, controller, tau_ext)
    qd3 = qd + 0.5 * dt * a2
    _, _, a3, p3 = _stage(model, q + 0.5 * dt * qd2, qd3, controller, tau_ext)
    qd4 = qd + dt * a3
    _, _, a4, p4 = _stage(model, q + dt * qd3, qd4, controller, tau_ext)
    return (q + dt / 6.0 * (qd + 2.0 * qd2 + 2.0 * qd3 + qd4),
            qd + dt / 6.0 * (a1 + 2.0 * a2 + 2.0 * a3 + a4),
            dt / 6.0 * (p1 + 2.0 * p2 + 2.0 * p3 + p4))


def step(model, state, controller, dt, tau_ext=None):
    """One RK4 step of the closed loop; raises StateEscapeError if the new
    state leaves the admissible region."""
    if isinstance(controller, str):
        controller = make_controller(controller)
    q, qd = state.q, state.qd
    _, _, a1, p1 = _stage(model, q, qd, controller, tau_ext)
    q_new, qd_new, _ = _rk4(model, q, qd, controller, tau_ext, dt, a1, p1)
    _check_state(q_new, qd_new, state.t + dt)
    return State(state.t + dt, q_new, qd_new)


def run(scenario):
    """Roll out a scenario and compute its outcome report.

    Deterministic: identical scenarios give bit-for-bit identical
    trajectories.  State escape and controller breakdown halt the run and are
    classified as divergence.
    """
    model = scenario.model
    controller = make_controller(scenario.controller, scenario.gains,
                                 scenario.setpoint)
    dt = scenario.dt
    n_steps = int(round(scenario.duration / dt))
    decim = scenario.decimation
    n_rec = n_steps // decim + 1
    N = model.dof
    nu = N - 2

    t_log = np.empty(n_rec)
    q_log = np.empty((n_rec, N))
    qd_log = np.empty((n_rec, N))
    u_log = np.empty((n_rec, nu))
    xc_log = np.empty((n_rec, 2))
    ek_log = np.empty(n_rec)
    ep_log = np.empty(n_rec)
    w_log = np.empty(n_rec)

    q = scenario.q0.copy()
    qd = scenario.qd0.copy()
    tau_ext = scenario.tau_ext
    work = 0.0
    rec = 0
    escaped = False
    reason = ""
    travel_hit = False
    lim = model.movers.travel_limit

    k = 0
    try:
        while True:
            ev1, u1, a1, p1 = _stage(model, q, qd, controller, tau_ext)
            if k % decim == 0:
                t_log[rec] = k * dt
                q_log[rec] = q
                qd_log[rec] = qd
                u_log[rec] = u1
                xc_log[rec] = ev1.com
                ek_log[rec] = 0.5 * (qd @ ev1.M @ qd)
                ep_log[rec] = ev1.V
                w_log[rec] = work
                rec += 1
                if not travel_hit and np.abs(q[3:5]).max() > lim:
                    travel_hit = True
                    logger.warning("mover travel beyond the +-%.2f m soft limit "
                                   "at t=%.2f s (not enforced)", lim, k * dt)
            if k >= n_steps:
                break
            q, qd, dwork = _rk4(model, q, qd, controller, tau_ext, dt, a1, p1)
            work += dwork
            k += 1
            _check_state(q, qd, k * dt)
    except (StateEscapeError, dynamics.IllConditionedTransformError,
            dynamics.SingularMassError, SingularCouplingError,
            np.linalg.LinAlgError) as exc:
        escaped = True
        reason = str(exc)
        logger.warning("run %s halted: %s", scenario.label or scenario.controller, reason)

    traj = Trajectory(
        scenario=scenario,
        t=t_log[:rec].copy(), q=q_log[:rec].copy(), qd=qd_log[:rec].copy(),
        u=u_log[:rec].copy(), xc=xc_log[:rec].copy(),
        e_kin=ek_log[:rec].copy(), e_pot=ep_log[:rec].copy(),
        work=w_log[:rec].copy(), escaped=escaped, escape_reason=reason,
        travel_limit_exceeded=travel_hit,
    )
    return traj, build_report(traj)


def signal_deviation(traj, signal):
    """Deviation-from-target components of a tracked signal, one column per
    component."""
    sp = traj.scenario.effective_setpoint()
    if signal == "phi":
        return traj.q[:, 0:2]
    if signal == "gamma":
        return traj.q[:, 2:3] - sp.gamma_des
    if signal == "qm":
        return traj.q[:, 3:5] - sp.qm_star
    if signal == "qr":
        return traj.q[:, 5:] - sp.qr_des
    if signal == "xc":
        return traj.xc
    raise ValueError(f"unknown signal {signal!r}")


def _window_slice(t, t_lo, t_hi):
    return (t >= t_lo - 1e-12) & (t < t_hi + 1e-12)


def classify(traj, signal, band=None, window=DEFAULT_WINDOW):
    """Classify a signal as converged / limit_cycle / diverged / inconclusive.

    converged: every component inside the band for the whole trailing window.
    diverged: state escape, or any component beyond the signal's escape bound.
    limit_cycle: trailing peak-to-peak above 2*band with the amplitude ratio
    of the last two windows in [0.8, 1.25].  Anything else is inconclusive.
    """
    band = DEFAULT_BANDS[signal] if band is None else band
    dev = signal_deviation(traj, signal)
    t = traj.t
    if traj.t.size < 4:
        return DIVERGED if traj.escaped else INCONCLUSIVE
    duration = t[-1] - t[0]
    if window > duration / 3.0 + 1e-12:
        raise ValueError(f"window {window} exceeds a third of the duration {duration}")
    if traj.escaped or np.abs(dev).max() > ESCAPE_BOUNDS[signal]:
        return DIVERGED
    last = _window_slice(t, t[-1] - window, t[-1] + 1.0)
    prev = _window_slice(t, t[-1] - 2.0 * window, t[-1] - window)
    if np.abs(dev[last]).max() <= band:
        return CONVERGED
    p2p_last = dev[last].max(axis=0) - dev[last].min(axis=0)
    p2p_prev = dev[prev].max(axis=0) - dev[prev].min(axis=0)
    comp = int(np.argmax(p2p_last))
    if p2p_last[comp] > 2.0 * band and p2p_prev[comp] > 0.0:
        ratio = p2p_last[comp] / p2p_prev[comp]
        if 0.8 <= ratio <= 1.25:
            return LIMIT_CYCLE
    return INCONCLUSIVE


def settling_time(traj, signal, band=None):
    """Earliest time after which every component stays inside the band, or
    None if the signal is out of band at the end."""
    band = DEFAULT_BANDS[signal] if band is None else band
    dev = np.abs(signal_deviation(traj, signal)).max(axis=1)
    if dev.size == 0 or dev[-1] > band:
        return None
    out = np.nonzero(dev > band)[0]
    if out.size == 0:
        return float(traj.t[0])
    if out[-1] + 1 >= dev.size:
        return None
    return float(traj.t[out[-1] + 1])


def trailing_amplitude(traj, signal, window=DEFAULT_WINDOW):
    """Largest per-component peak-to-peak amplitude over the trailing window."""
    if traj.t.size == 0:
        return 0.0
    dev = signal_deviation(traj, signal)
    last = _window_slice(traj.t, traj.t[-1] - window, traj.t[-1] + 1.0)
    if not np.any(last):
        return 0.0
    seg = dev[last]
    return float((seg.max(axis=0) - seg.min(axis=0)).max())


def fit_decay_rate(t, values, t_start=0.0, floor=1e-12):
    """Exponential decay rate from a log-linear least-squares fit on
    values(t) for t >= t_start, ignoring samples at or below the floor.
    Positive return value means decay."""
    t = np.asarray(t, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = (t >= t_start) & (values > floor)
    if mask.sum() < 10:
        return 0.0
    slope = np.polyfit(t[mask], np.log(values[mask]), 1)[0]
    return float(-slope)


def build_report(traj, bands=None, window=DEFAULT_WINDOW):
    """Quantify a trajectory: per-signal classification, settling time and
    trailing amplitude, the (x_c, q_m - q_m*) decay rate, and the actuated
    power audit."""
    bands = dict(DEFAULT_BANDS, **(bands or {}))
    signals = {}
    duration = traj.t[-1] - traj.t[0] if traj.t.size else 0.0
    win = min(window, duration / 3.0) if duration > 0 else window
    for name in ("phi", "gamma", "qm", "qr", "xc"):
        if name == "qr" and traj.n_links == 0:
            continue
        dev = signal_deviation(traj, name)
        signals[name] = SignalOutcome(
            classification=classify(traj, name, bands[name], win),
            settling_time=settling_time(traj, name, bands[name]),
            trailing_amplitude=trailing_amplitude(traj, name, win),
            max_abs=float(np.abs(dev).max()) if dev.size else 0.0,
            band=bands[name],
        )

    err = np.hstack([signal_deviation(traj, "xc"), signal_deviation(traj, "qm")])
    enorm = np.linalg.norm(err, axis=1)
    fit_start = traj.t[-1] - 30.0 if traj.t.size and traj.t[-1] > 40.0 else 0.0
    decay = fit_decay_rate(traj.t, enorm, t_start=fit_start)

    if traj.t.size:
        e_tot = traj.e_kin + traj.e_pot
        delta_e = e_tot - e_tot[0]
        defect = float(np.abs(delta_e - traj.work).max())
        scale = max(1.0, float(np.abs(delta_e).max()), float(np.abs(traj.work).max()))
        audit = {"max_defect": defect, "scale": scale,
                 "relative_defect": defect / scale}
    else:
        audit = {"max_defect": 0.0, "scale": 1.0, "relative_defect": 0.0}
    audit["within_tolerance"] = audit["relative_defect"] <= ENERGY_AUDIT_RTOL
    if not audit["within_tolerance"]:
        logger.warning("energy audit defect %.3e exceeds the %.0e tolerance",
                       audit["relative_defect"], ENERGY_AUDIT_RTOL)

    return OutcomeReport(
        signals=signals,
        escaped=traj.escaped,
        escape_reason=traj.escape_reason,
        decay_rate=decay,
        travel_limit_exceeded=traj.travel_limit_exceeded,
        energy_audit=audit,
    )


def csv_header(n_links):
    names = ["t", "alpha", "beta", "gamma", "qm1", "qm2"]
    names += [f"qr{i+1}" for i in range(n_links)]
    names += [f"d_{c}" for c in names[1:6 + n_links]]
    names += ["u_yaw", "u_m1", "u_m2"]
    names += [f"u_r{i+1}" for i in range(n_links)]
    names += ["xc_x", "xc_y", "E_kin", "E_pot"]
    return names


def write_csv(traj, path):
    """Write the trajectory; floats use repr-exact formatting so re-parsing
    reproduces the arrays bit-for-bit."""
    cols = np.hstack([traj.t[:, None], traj.q, traj.qd, traj.u, traj.xc,
                      traj.e_kin[:, None], traj.e_pot[:, None]])
    header = ",".join(csv_header(traj.n_links))
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in cols:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_csv(path):
    """Parse a trajectory CSV back into its arrays.

    Returns a dict with t, q, qd, u, xc, e_kin, e_pot and the link count.
    """
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.array([[float(v) for v in line.strip().split(",")]
                         for line in fh if line.strip()])
    n = sum(1 for name in header if name.startswith("qr"))
    N = 5 + n
    if data.size == 0:
        data = data.reshape(0, len(header))
    out = {
        "n_links": n,
        "t": data[:, 0],
        "q": data[:, 1:1 + N],
        "qd": data[:, 1 + N:1 + 2 * N],
        "u": data[:, 1 + 2 * N:1 + 2 * N + (N - 2)],
        "xc": data[:, 1 + 3 * N - 2:3 * N + 1],
        "e_kin": data[:, 3 * N + 1],
        "e_pot": data[:, 3 * N + 2],
    }
    return out


def scenario_to_dict(scenario):
    doc = {
        "label": scenario.label,
        "controller": scenario.controller,
        "dt": scenario.dt,
        "duration": scenario.duration,
        "decimation": scenario.decimation,
        "model": model_to_dict(scenario.model),
        "initial": {"q": scenario.q0.tolist(), "qd": scenario.qd0.tolist()},
    }
    if scenario.gains is not None:
        doc["gains"] = scenario.gains.to_dict()
    if scenario.setpoint is not None:
        doc["setpoint"] = scenario.setpoint.to_dict()
    if scenario.tau_ext is not None:
        doc["tau_ext"] = scenario.tau_ext.tolist()
    return doc


def scenario_from_dict(doc):
    """Build and validate a scenario from its JSON document.

    The setpoint invariant |g_phi(phi=0, q_m*, q_r_des)| < 1e-10 is re-checked
    here so stale q_m* values in edited files are rejected.
    """
    try:
        mdoc = doc["model"]
        if "preset_links" in mdoc:
            model = preset_paper(_whole(mdoc["preset_links"], "preset_links"))
        else:
            model = model_from_dict(mdoc)
        controller = doc["controller"]
        gains = Gains.from_dict(doc["gains"]) if "gains" in doc else None
        setpoint = Setpoint(**doc["setpoint"]) if "setpoint" in doc else None
        init = doc.get("initial", {})
        scenario = Scenario(
            model=model,
            controller=controller,
            gains=gains,
            setpoint=setpoint,
            q0=init.get("q"),
            qd0=init.get("qd"),
            dt=doc.get("dt", 1e-3),
            duration=doc.get("duration", 60.0),
            decimation=doc.get("decimation", 10),
            label=doc.get("label", ""),
            tau_ext=doc.get("tau_ext"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(f"invalid scenario document: {exc}") from exc
    sp = scenario.setpoint
    if sp is not None and sp.qm_star is not None:
        res = float(np.linalg.norm(
            balance_residual(model, sp.qm_star, sp.qr_des, sp.gamma_des)))
        if res >= 1e-10:
            raise ScenarioError(
                f"setpoint q_m* does not balance gravity: |g_phi| = {res:.3e}")
    return scenario


def load_scenario(path):
    with open(path) as fh:
        return scenario_from_dict(json.load(fh))


def save_scenario(scenario, path):
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2)
