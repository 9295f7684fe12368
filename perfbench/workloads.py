"""The benchmark's workloads: inputs generated from a seed, the ``cli.main``
calls of one round, and the checks of one round's outputs.

A round is the same list of operations every time it runs in a process, so
every round of a run does the same work; one operation is one ``cli.main``
call.  Why each workload exists is in README.md.
"""

import json
import os
import re

import numpy as np

import checks
from kinematics import Kinematics

# The paper studies: the presets of `pendusim run --all-presets` (desk arm,
# dt = 1e-2, decimation 1, SVG on).  A traced run checks one full run of all
# four, shortened to 50 s; the timed rounds replay the first half second of
# each study from scenario files.  README.md says why.
PRESET_DURATION = 50.0
PRESET_QR_DES = np.array([np.pi / 4, np.pi / 2, 0.0])
PRESET_DT = 1e-2
PRESET_OMEGA = 5.0       # yaw and arm PD of the presets: D = 10, K = 25
PRESET_PFL_TARGETS = {"gamma": (0.0, PRESET_OMEGA),
                      **{f"qr{i + 1}": (PRESET_QR_DES[i], PRESET_OMEGA) for i in range(3)}}
PAPER_ROUND_DURATION = 0.5
PAPER_GAINS = {"D_gamma": 10.0, "K_gamma": 25.0, "D_r": [10.0] * 3,
               "K_r": [25.0] * 3, "D": [3.8] * 2, "D_c": [47.0] * 2,
               "K_c": [320.0] * 2, "D_m": [0.21] * 2, "K_m": [0.24] * 2,
               "D_phi": [1800.0] * 2, "K_phi": [2000.0] * 2}
PAPER_STUDIES = {   # preset: (figure, law, gain overrides, initial roll and pitch)
    "fig3_motivating": ("fig3", "motivating", {}, (0.0, 0.0)),
    "fig4_remark1": ("fig4", "remark1", {"D_c": [2000.0] * 2}, (0.0, 0.0)),
    "fig5_remark2": ("fig5", "remark2", {"K_phi": [4300.0] * 2, "D_phi": [100.0] * 2,
                                         "K_m": [3.0] * 2, "D_m": [0.05] * 2},
                     (0.05, -0.05)),
    "fig6_proposed": ("fig6", "proposed", {}, (0.0, 0.0)),
}
PREFIX_RTOL = 1e-6       # round replay against the start of the full run

ARM7_LAWS = ("motivating", "remark1", "remark2", "proposed")
ARM7_DT = 5e-3
ARM7_DURATION = 0.25
ARM7_DECIMATION = 2

FREE_DT = 1e-3
FREE_DURATION = 0.1
FREE_DECIMATION = 5

SVG_FILES = ("qr_gamma.svg", "xc.svg", "qm.svg", "phi.svg")


def _rows(duration, dt, decimation):
    return int(round(duration / dt)) // decimation + 1


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)


class Workload:
    """Operations of one round and the checks on what they wrote."""

    name = ""

    def __init__(self, seed, input_dir, model_docs):
        self.kin = {n: Kinematics(doc) for n, doc in model_docs.items()}

    def once_operations(self, out):
        """(label, argv) of cli.main calls made once per run, untimed, before
        the rounds; their outputs carry checks a short round cannot."""
        return []

    def check_once(self, out, stdout):
        return []

    def operations(self, out):
        """(label, argv) of every cli.main call of one round writing under out."""
        raise NotImplementedError

    def check(self, out, stdout):
        """Failure strings for one round's outputs; stdout maps label to the
        text the operation printed."""
        raise NotImplementedError

    def _common(self, run_dir, rows, kin):
        """Checks every run shares: strict JSON, no halt, full length, and
        logged quantities against own kinematics.  Returns (fails, traj)."""
        with open(os.path.join(run_dir, "report.json")) as fh:
            text = fh.read()
        fails = checks.check_strict_json(text)
        if fails:
            return fails, None
        report = json.loads(text)
        if report["escaped"]:
            fails.append(f"{run_dir}: run halted: {report['escape_reason']}")
        tr = checks.read_trajectory(os.path.join(run_dir, "trajectory.csv"))
        if tr.t.size != rows:
            fails.append(f"{run_dir}: {tr.t.size} rows, expected {rows}")
            return fails, None
        fails += checks.check_kinematics(tr, kin)
        return fails, tr


def _check_svgs(run_dir):
    fails = []
    for name in SVG_FILES:
        with open(os.path.join(run_dir, name)) as fh:
            text = fh.read()
        if not (text.startswith("<svg") and text.rstrip().endswith("</svg>")):
            fails.append(f"{run_dir}/{name}: not a complete SVG document")
    return fails


class PaperPresets(Workload):
    """The four paper studies on the 3-link desk arm: in a traced run, once,
    the full `pendusim run --all-presets --svg`, checked against the paper
    outcomes; each timed round replays the first half second of every study
    from a scenario file with `pendusim run --scenario f.json --svg`."""

    name = "paper_presets"

    def __init__(self, seed, input_dir, model_docs):
        super().__init__(seed, input_dir, model_docs)
        self.qm_star = self.kin[3].qm_star(PRESET_QR_DES)
        self.paths = {}
        for preset, (_, law, overrides, phi0) in PAPER_STUDIES.items():
            q0 = [phi0[0], phi0[1]] + [0.0] * 6
            doc = {"label": preset, "controller": law, "model": {"preset_links": 3},
                   "gains": dict(PAPER_GAINS, **overrides),
                   "setpoint": {"gamma_des": 0.0, "qr_des": PRESET_QR_DES.tolist(),
                                "qm_star": self.qm_star.tolist()},
                   "initial": {"q": q0, "qd": [0.0] * 8},
                   "dt": PRESET_DT, "duration": PAPER_ROUND_DURATION, "decimation": 1}
            self.paths[preset] = os.path.join(input_dir, f"{preset}.json")
            _write_json(self.paths[preset], doc)
        self.prefix = {}   # preset: first rows of the full run, for the rounds

    def once_operations(self, out):
        return [("all-presets", ["run", "--all-presets", "--svg", "--duration",
                                 repr(PRESET_DURATION), "--out", out])]

    def check_once(self, out, stdout):
        kin = self.kin[3]
        rows = _rows(PRESET_DURATION, PRESET_DT, 1)
        n_prefix = _rows(PAPER_ROUND_DURATION, PRESET_DT, 1)
        fails = []
        for preset, (figure, *_) in PAPER_STUDIES.items():
            run_dir = os.path.join(out, preset)
            f, tr = self._common(run_dir, rows, kin)
            fails += f
            if tr is None:
                continue
            fails += checks.check_paper_outcome(tr, figure, self.qm_star)
            fails += checks.check_pfl(tr, PRESET_PFL_TARGETS)
            fails += checks.check_energy(tr)
            fails += _check_svgs(run_dir)
            self.prefix[preset] = {k: v[:n_prefix] for k, v in tr.cols.items()}
        return fails

    def operations(self, out):
        return [(preset, ["run", "--scenario", path, "--svg", "--out",
                          os.path.join(out, preset)])
                for preset, path in self.paths.items()]

    def check(self, out, stdout):
        kin = self.kin[3]
        fails = []
        for preset in PAPER_STUDIES:
            run_dir = os.path.join(out, preset)
            f, tr = self._common(run_dir, _rows(PAPER_ROUND_DURATION, PRESET_DT, 1), kin)
            fails += f
            if tr is None:
                continue
            fails += checks.check_pfl(tr, PRESET_PFL_TARGETS)
            fails += checks.check_energy(tr)
            fails += _check_svgs(run_dir)
            full = self.prefix.get(preset)
            if full is None:
                continue
            for name, col in tr.cols.items():
                err = float(np.abs(col - full[name]).max())
                if not err <= PREFIX_RTOL * max(1.0, float(np.abs(col).max())):
                    fails.append(f"{preset}: replayed {name} differs from the "
                                 f"preset run by {err:.3e}")
        return fails


class Arm7Sweep(Workload):
    """Seeded short scenario-file runs of the 7-link arm, all four laws; each
    scenario is first solved with `pendusim equilibrium --scenario`."""

    name = "arm7_sweep"

    def __init__(self, seed, input_dir, model_docs):
        super().__init__(seed, input_dir, model_docs)
        rng = np.random.default_rng([seed, 7])
        kin = self.kin[7]
        self.scenarios = []
        for i, law in enumerate(ARM7_LAWS):
            doc = arm7_scenario(rng, kin, law, f"arm7_{i}_{law}")
            path = os.path.join(input_dir, f"{doc['label']}.json")
            _write_json(path, doc)
            self.scenarios.append((doc, path))

    def operations(self, out):
        ops = []
        for doc, path in self.scenarios:
            ops.append((f"eq:{doc['label']}", ["equilibrium", "--scenario", path]))
            ops.append((f"run:{doc['label']}",
                        ["run", "--scenario", path, "--out",
                         os.path.join(out, doc["label"])]))
        return ops

    def check(self, out, stdout):
        kin = self.kin[7]
        rows = _rows(ARM7_DURATION, ARM7_DT, ARM7_DECIMATION)
        fails = []
        for doc, _ in self.scenarios:
            sp = doc["setpoint"]
            printed = re.search(r"qm\* = \[([-0-9.eE]+), ([-0-9.eE]+)\]",
                                stdout[f"eq:{doc['label']}"])
            if printed is None:
                fails.append(f"{doc['label']}: equilibrium printed no qm*")
            else:
                qm = np.array([float(printed.group(1)), float(printed.group(2))])
                err = float(np.abs(qm - np.array(sp["qm_star"])).max())
                if not err < 1e-8:
                    fails.append(f"{doc['label']}: equilibrium qm* off the closed "
                                 f"form by {err:.3e}")
            f, tr = self._common(os.path.join(out, doc["label"]), rows, kin)
            fails += f
            if tr is None:
                continue
            fails += checks.check_pfl(tr, pfl_targets(doc))
            fails += checks.check_energy(tr)
        return fails


def pfl_targets(doc):
    """PFL outputs of a scenario document: name -> (target, w) with K = w^2."""
    sp, gains = doc["setpoint"], doc["gains"]
    targets = {"gamma": (sp["gamma_des"], np.sqrt(gains["K_gamma"]))}
    targets.update({f"qr{i + 1}": (qr, np.sqrt(k))
                    for i, (qr, k) in enumerate(zip(sp["qr_des"], gains["K_r"]))})
    return targets


def arm7_scenario(rng, kin, law, label):
    """One 7-link scenario: arm target, start state and gains drawn from rng.

    Arm targets are redrawn until the closed-form q_m* lies within 0.5 m, well
    inside the 0.8 m mover travel the balance solver searches.  Yaw and arm
    gains are critically damped pairs (D = 2w, K = w^2), which gives the PFL
    check its closed form.
    """
    while True:
        qr_des = np.concatenate([rng.uniform(-np.pi, np.pi, 1),
                                 rng.uniform(0.3, 1.6, 1),
                                 rng.uniform(-1.0, 1.0, 1),
                                 rng.uniform(-0.6, 0.6, 4)])
        qm_star = kin.qm_star(qr_des)
        if np.abs(qm_star).max() <= 0.5:
            break
    gamma_des = float(rng.uniform(-0.3, 0.3))
    q0 = np.concatenate([rng.uniform(-0.02, 0.02, 2),
                         rng.uniform(-0.1, 0.1, 1),
                         qm_star + rng.uniform(-0.05, 0.05, 2),
                         qr_des + rng.uniform(-0.2, 0.2, 7)])
    qd0 = np.concatenate([rng.uniform(-0.01, 0.01, 2),
                          rng.uniform(-0.05, 0.05, 3),
                          rng.uniform(-0.1, 0.1, 7)])
    w_gamma = float(rng.uniform(4.0, 6.0))
    w_r = rng.uniform(4.0, 6.0, 7)
    gains = {
        "D_gamma": 2.0 * w_gamma, "K_gamma": w_gamma ** 2,
        "D_r": (2.0 * w_r).tolist(), "K_r": (w_r ** 2).tolist(),
        "D": rng.uniform(3.0, 4.5, 2).tolist(),
        "D_c": rng.uniform(40.0, 55.0, 2).tolist(),
        "K_c": rng.uniform(280.0, 360.0, 2).tolist(),
        "D_m": rng.uniform(0.15, 0.3, 2).tolist(),
        "K_m": rng.uniform(0.18, 0.3, 2).tolist(),
        "D_phi": rng.uniform(1500.0, 2100.0, 2).tolist(),
        "K_phi": rng.uniform(1700.0, 2300.0, 2).tolist(),
    }
    return {
        "label": label, "controller": law, "model": {"preset_links": 7},
        "gains": gains,
        "setpoint": {"gamma_des": gamma_des, "qr_des": qr_des.tolist(),
                     "qm_star": qm_star.tolist()},
        "initial": {"q": q0.tolist(), "qd": qd0.tolist()},
        "dt": ARM7_DT, "duration": ARM7_DURATION, "decimation": ARM7_DECIMATION,
    }


class FreeSwing(Workload):
    """The uncontrolled 3-link platform released from a tilt, arm folded
    down, with yaw and joint rates, at dt = 1e-3."""

    name = "free_swing"

    def __init__(self, seed, input_dir, model_docs):
        super().__init__(seed, input_dir, model_docs)
        rng = np.random.default_rng([seed, 3])
        sign = rng.choice([-1.0, 1.0], 3)
        q0 = np.concatenate([sign[:2] * rng.uniform(0.03, 0.08, 2),
                             rng.uniform(-np.pi, np.pi, 1),
                             rng.uniform(-0.3, 0.3, 2),
                             [rng.uniform(-np.pi, np.pi),
                              np.pi + rng.uniform(-0.2, 0.2),
                              rng.uniform(-0.5, 0.5)]])
        qd0 = np.concatenate([np.zeros(2), sign[2:] * rng.uniform(0.2, 0.5, 1),
                              np.zeros(2), rng.uniform(-0.3, 0.3, 3)])
        self.doc = {"label": "free_swing", "controller": "free",
                    "model": {"preset_links": 3},
                    "initial": {"q": q0.tolist(), "qd": qd0.tolist()},
                    "dt": FREE_DT, "duration": FREE_DURATION,
                    "decimation": FREE_DECIMATION}
        self.path = os.path.join(input_dir, "free_swing.json")
        _write_json(self.path, self.doc)

    def operations(self, out):
        return [("run", ["run", "--scenario", self.path, "--out", out])]

    def check(self, out, stdout):
        kin = self.kin[3]
        fails, tr = self._common(out, _rows(FREE_DURATION, FREE_DT, FREE_DECIMATION),
                                 kin)
        if tr is not None:
            if np.abs(tr.u).max() != 0.0:
                fails.append("free swing: nonzero actuation logged")
            fails += checks.check_free_swing(tr, kin)
        return fails


WORKLOADS = {w.name: w for w in (PaperPresets, Arm7Sweep, FreeSwing)}
