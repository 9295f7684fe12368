"""Output checks made apart from the program.

Each check reads what the program wrote (``trajectory.csv``, ``report.json``,
``equilibrium`` output) with the benchmark's own parser and compares it with
a property or a quantity computed here: paper outcome classes (a), the
closed-form PFL response (b), the energy balance against the benchmark's own
quadrature of the actuated power (c), conservation in free motion (d) and
strict JSON (e).  Every check returns a list of failure strings; an empty
list is a pass.
"""

import json

import numpy as np

WINDOW = 10.0          # trailing window of the paper outcome classes [s]
BAND = 1e-3            # outcome band of phi, x_c and q_m - q_m* (a)
PFL_TOL = 1e-6         # gamma and q_r against the closed-form response (b)
ENERGY_RTOL = 1e-6     # energy balance beyond the quadrature error (c)
FREE_E_RTOL = 1e-9     # free-swing energy drift (d)
FREE_P_RTOL = 1e-8     # free-swing yaw momentum drift (d)
KIN_RTOL = 1e-9        # own forward kinematics against logged columns


class Trajectory:
    """Columns of one trajectory.csv, by header name."""

    def __init__(self, columns):
        self.cols = columns
        self.n_links = sum(1 for c in columns if c.startswith("qr"))
        self.t = columns["t"]

    def __getitem__(self, name):
        return self.cols[name]

    def stack(self, names):
        return np.column_stack([self.cols[n] for n in names])

    @property
    def coords(self):
        return (["alpha", "beta", "gamma", "qm1", "qm2"]
                + [f"qr{i + 1}" for i in range(self.n_links)])

    @property
    def q(self):
        return self.stack(self.coords)

    @property
    def qd(self):
        return self.stack([f"d_{c}" for c in self.coords])

    @property
    def u(self):
        return self.stack(["u_yaw", "u_m1", "u_m2"]
                          + [f"u_r{i + 1}" for i in range(self.n_links)])

    @property
    def phi(self):
        return self.stack(["alpha", "beta"])

    @property
    def qm(self):
        return self.stack(["qm1", "qm2"])

    @property
    def xc(self):
        return self.stack(["xc_x", "xc_y"])


def parse_csv(text):
    """Parse trajectory.csv text: one header line, then float rows."""
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:] if line]
    data = np.array(rows, dtype=float).reshape(len(rows), len(header))
    if len(set(header)) != len(header):
        raise ValueError("duplicate CSV column names")
    return Trajectory({name: data[:, i] for i, name in enumerate(header)})


def read_trajectory(path):
    with open(path) as fh:
        return parse_csv(fh.read())


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def check_strict_json(text):
    """(e) The report parses as strict JSON: no NaN or Infinity."""
    try:
        json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        return [f"report.json is not strict JSON: {exc}"]
    return []


def _p2p(x):
    return float((x.max(axis=0) - x.min(axis=0)).max())


def check_paper_outcome(tr, figure, qm_star):
    """(a) Outcome class of one paper figure, from the final WINDOW seconds."""
    last = tr.t >= tr.t[-1] - WINDOW
    phi, xc = tr.phi, tr.xc
    dqm = tr.qm - qm_star
    fails = []

    def need(ok, what):
        if not ok:
            fails.append(f"{figure}: {what}")

    if figure == "fig6":
        need(np.abs(phi[last]).max() < BAND, "|phi| not below 1e-3 at the end")
        need(np.abs(xc[last]).max() < BAND, "|x_c| not below 1e-3 at the end")
        need(np.abs(dqm[last]).max() < BAND, "|q_m - q_m*| not below 1e-3 at the end")
    elif figure == "fig3":
        need(np.abs(phi[last]).max() < BAND, "|phi| not below 1e-3 at the end")
        need(_p2p(tr.qm[last]) > 0.02, "q_m peak-to-peak not above 0.02 m")
    elif figure == "fig4":
        need(np.abs(xc[last]).max() < BAND, "|x_c| not below 1e-3 at the end")
        need(np.abs(dqm).max() > 2.0 or np.abs(phi).max() > 1.0,
             "neither |q_m - q_m*| above 2 m nor |phi| above 1 rad")
    elif figure == "fig5":
        need(_p2p(phi[last]) > 2e-3, "phi peak-to-peak not above 2e-3")
        need(_p2p(tr.qm[last]) > 2e-3, "q_m peak-to-peak not above 2e-3")
    else:
        raise ValueError(f"unknown figure {figure!r}")
    return fails


def check_pfl(tr, targets):
    """(b) Each PFL output follows e(t) = (e0 + (de0 + w e0) t) exp(-w t).

    ``targets`` maps a coordinate name (gamma, qr1, ...) to (y_des, w) for a
    critically damped PD pair D = 2 w, K = w^2.
    """
    fails = []
    t = tr.t
    for name, (y_des, w) in targets.items():
        e0 = tr[name][0] - y_des
        de0 = tr[f"d_{name}"][0]
        e = (e0 + (de0 + w * e0) * t) * np.exp(-w * t)
        err = float(np.abs(tr[name] - y_des - e).max())
        if not err < PFL_TOL:
            fails.append(f"PFL: {name} off the closed-form response by {err:.3e}")
    return fails


def cumulative_work(t, p):
    """Cumulative integral of uniformly sampled power, fourth order.

    Interior intervals use the cubic through the four nearest samples,
    h/24 (-p[k-1] + 13 p[k] + 13 p[k+1] - p[k+2]); the end intervals use the
    one-sided cubic.  Needs at least four samples.
    """
    h = t[1] - t[0]
    seg = np.empty(p.size - 1)
    seg[1:-1] = -p[:-3] + 13.0 * p[1:-2] + 13.0 * p[2:-1] - p[3:]
    seg[0] = 9.0 * p[0] + 19.0 * p[1] - 5.0 * p[2] + p[3]
    seg[-1] = 9.0 * p[-1] + 19.0 * p[-2] - 5.0 * p[-3] + p[-4]
    return np.concatenate([[0.0], np.cumsum(seg * (h / 24.0))])


def energy_defect(tr):
    """(defect, bound): max |dE(t) - W(t)| relative to the energy scale, with
    W the own quadrature of the actuated power qd[2:] . u, and the bound that
    quadrature's error allows.

    The quadrature error is estimated by repeating it on every other sample:
    for a fourth-order rule the step-2h result is about 15 times further from
    the exact work than the step-h one, so the difference of the two bounds
    the step-h error with a wide margin.  ENERGY_RTOL covers what remains:
    the simulator's own integration error and roundoff.
    """
    e = tr["E_kin"] + tr["E_pot"]
    de = e - e[0]
    power = np.einsum("ij,ij->i", tr.qd[:, 2:], tr.u)
    work = cumulative_work(tr.t, power)
    coarse = cumulative_work(tr.t[::2], power[::2])
    scale = max(1.0, float(np.abs(de).max()), float(np.abs(work).max()))
    defect = float(np.abs(de - work).max()) / scale
    quad_err = float(np.abs(work[::2] - coarse).max()) / scale
    return defect, ENERGY_RTOL + quad_err


def check_energy(tr):
    """(c) Energy change equals the actuated work."""
    defect, bound = energy_defect(tr)
    if not defect < bound:
        return [f"energy: |dE - W| / scale = {defect:.3e} exceeds {bound:.3e}"]
    return []


def _sample_rows(tr, count):
    return np.unique(np.linspace(0, tr.t.size - 1, count).round().astype(int))


def check_kinematics(tr, kin, count=6):
    """Logged E_kin, E_pot and x_c against the benchmark's own forward
    kinematics at sampled rows; E_kin against the body-by-body sum also
    checks the program's mass matrix."""
    fails = []
    q, qd = tr.q, tr.qd
    for i in _sample_rows(tr, count):
        ek = kin.e_kin(q[i], qd[i])
        if not abs(ek - tr["E_kin"][i]) < KIN_RTOL * max(1.0, abs(ek)):
            fails.append(f"kinematics: E_kin at t={tr.t[i]:g} is {tr['E_kin'][i]!r}, "
                         f"own {ek!r}")
        ep = kin.e_pot(q[i])
        # E_pot is a difference of absolute potentials of size |V0|.
        if not abs(ep - tr["E_pot"][i]) < KIN_RTOL * abs(kin.V0):
            fails.append(f"kinematics: E_pot at t={tr.t[i]:g} is {tr['E_pot'][i]!r}, "
                         f"own {ep!r}")
        xc = kin.com_xy(q[i])
        if not np.abs(xc - tr.xc[i]).max() < KIN_RTOL:
            fails.append(f"kinematics: x_c at t={tr.t[i]:g} is {tr.xc[i]}, own {xc}")
    return fails


def check_free_swing(tr, kin, count=12):
    """(d) Free motion conserves E_kin + E_pot and the yaw momentum p_gamma;
    p_gamma comes from the benchmark's own kinematics at sampled rows."""
    fails = []
    e = tr["E_kin"] + tr["E_pot"]
    e_rel = float(np.abs(e - e[0]).max()) / max(1.0, float(tr["E_kin"].max()))
    if not e_rel < FREE_E_RTOL:
        fails.append(f"free swing: energy drift {e_rel:.3e}")
    q, qd = tr.q, tr.qd
    p = np.array([kin.p_gamma(q[i], qd[i]) for i in _sample_rows(tr, count)])
    p_rel = float(np.abs(p - p[0]).max()) / max(abs(p[0]), 1e-6)
    if not p_rel < FREE_P_RTOL:
        fails.append(f"free swing: yaw momentum drift {p_rel:.3e}")
    return fails
