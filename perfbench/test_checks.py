"""Each benchmark check passes on real program output and fails on a
deliberately corrupted copy of it.

    python3 -m pytest perfbench/test_checks.py -q

Real outputs come from short 7-link and free-swing runs through
``pendusim.cli.main``; the paper outcome checks (a) use synthetic trajectories
shaped like each figure, because the real preset runs take minutes.
"""

import contextlib
import io
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from kinematics import Kinematics  # noqa: E402
from pendusim import cli, control  # noqa: E402
from pendusim.model import model_to_dict, preset_paper  # noqa: E402

DOCS = {n: model_to_dict(preset_paper(n)) for n in (3, 7)}


def _run_round(wl, out):
    stdout = {}
    for label, argv in wl.operations(out):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(argv) == 0, label
        stdout[label] = buf.getvalue()
    return stdout


@pytest.fixture(scope="module")
def arm7(tmp_path_factory):
    base = tmp_path_factory.mktemp("arm7")
    wl = workloads.Arm7Sweep(11, str(base), DOCS)
    out = str(base / "out")
    return wl, out, _run_round(wl, out)


@pytest.fixture(scope="module")
def free(tmp_path_factory):
    base = tmp_path_factory.mktemp("free")
    wl = workloads.FreeSwing(11, str(base), DOCS)
    out = str(base / "out")
    _run_round(wl, out)
    return wl, out


def _traj(run_dir):
    return checks.read_trajectory(os.path.join(run_dir, "trajectory.csv"))


def _copy(tr):
    return checks.Trajectory({k: v.copy() for k, v in tr.cols.items()})


def test_qm_star_closed_form():
    kin = Kinematics(DOCS[3])
    qm = kin.qm_star(workloads.PRESET_QR_DES)
    assert np.abs(qm - (-0.137886)).max() < 1e-6
    model = preset_paper(3)
    assert np.abs(qm - control.solve_equilibrium_qm(model, workloads.PRESET_QR_DES)).max() < 1e-9


def test_workload_checks_pass_on_real_outputs(arm7, free):
    wl, out, stdout = arm7
    assert wl.check(out, stdout) == []
    wl, out = free
    assert wl.check(out, {}) == []


def test_equilibrium_output_corrupted(arm7):
    wl, out, stdout = arm7
    label = f"eq:{wl.scenarios[0][0]['label']}"
    bad = dict(stdout)
    bad[label] = stdout[label].replace("qm* = [-", "qm* = [-1").replace("qm* = [0", "qm* = [1")
    assert bad[label] != stdout[label]
    assert any("equilibrium" in f for f in wl.check(out, bad))


def test_truncated_trajectory_fails(arm7):
    wl, out, stdout = arm7
    doc = wl.scenarios[0][0]
    path = os.path.join(out, doc["label"], "trajectory.csv")
    with open(path) as fh:
        text = fh.read()
    try:
        with open(path, "w") as fh:
            fh.write(text[:text.rstrip("\n").rfind("\n") + 1])
        assert any("rows" in f for f in wl.check(out, stdout))
    finally:
        with open(path, "w") as fh:
            fh.write(text)


def _synthetic(kind, qm_star):
    t = np.arange(0.0, 50.0 + 1e-9, 0.01)
    decay = np.exp(-t / 4.0)
    cols = {"t": t}
    if kind == "fig6":
        phi, xc, dqm = 0.005 * decay, 0.002 * decay, 0.2 * np.exp(-t / 6.0)
    elif kind == "fig3":
        phi, xc, dqm = 0.005 * decay, 0.003 * np.sin(2 * t), 0.015 * np.sin(2 * t)
    elif kind == "fig4":
        phi, xc, dqm = 0.1 * np.sin(t), 0.002 * decay, 0.1 * t
    else:
        phi, xc, dqm = 0.03 * np.sin(t), 0.4 * np.sin(t), 0.04 * np.sin(t)
    cols.update(alpha=phi, beta=-phi, xc_x=xc, xc_y=xc,
                qm1=qm_star[0] + dqm, qm2=qm_star[1] + dqm)
    return checks.Trajectory(cols)


@pytest.mark.parametrize("figure", ["fig3", "fig4", "fig5", "fig6"])
def test_paper_outcome_corrupted(figure):
    qm_star = np.array([-0.137886, -0.137886])
    tr = _synthetic(figure, qm_star)
    assert checks.check_paper_outcome(tr, figure, qm_star) == []
    bad = _copy(tr)
    last = bad.t >= bad.t[-1] - 5.0
    if figure in ("fig3", "fig6"):
        bad["alpha"][last] += 2e-3          # platform not level at the end
    elif figure == "fig4":
        bad["qm1"][:] = qm_star[0] + 0.5    # movers stay near balance, bounded
        bad["qm2"][:] = qm_star[1] + 0.5
    else:
        bad["alpha"][:] = 0.01              # attitude frozen, no oscillation
        bad["beta"][:] = 0.01
    assert checks.check_paper_outcome(bad, figure, qm_star) != []


def test_pfl_corrupted(arm7):
    wl, out, _ = arm7
    for doc, _ in wl.scenarios:
        tr = _traj(os.path.join(out, doc["label"]))
        targets = workloads.pfl_targets(doc)
        assert checks.check_pfl(tr, targets) == []
        for name in ("gamma", "qr4"):
            bad = _copy(tr)
            bad[name][len(bad.t) // 2] += 1e-5
            assert checks.check_pfl(bad, targets) != []


def test_energy_corrupted(arm7):
    wl, out, _ = arm7
    for doc, _ in wl.scenarios:
        tr = _traj(os.path.join(out, doc["label"]))
        assert checks.check_energy(tr) == []
        bad = _copy(tr)
        bad["u_m1"][:] *= 1.001              # logged input off by 0.1 %
        bad["u_r2"][:] *= 1.001
        bad["u_yaw"][:] *= 1.001
        assert checks.check_energy(bad) != []
        bad = _copy(tr)
        bad["E_kin"][len(bad.t) // 3:] += 1e-3
        assert checks.check_energy(bad) != []


def test_kinematics_corrupted(arm7):
    wl, out, _ = arm7
    kin = wl.kin[7]
    tr = _traj(os.path.join(out, wl.scenarios[3][0]["label"]))
    assert checks.check_kinematics(tr, kin) == []
    for col, delta in (("E_kin", 1e-6), ("E_pot", 1e-4), ("xc_y", 1e-8)):
        bad = _copy(tr)
        bad[col][0] += delta
        assert checks.check_kinematics(bad, kin) != [], col


def test_free_swing_corrupted(free):
    wl, out = free
    kin = wl.kin[3]
    tr = _traj(out)
    assert checks.check_free_swing(tr, kin) == []
    bad = _copy(tr)
    bad["E_pot"][-1] += 1e-6                # energy not conserved
    assert any("energy" in f for f in checks.check_free_swing(bad, kin))
    bad = _copy(tr)
    bad["d_gamma"][-1] *= 1.0 + 1e-6        # yaw momentum not conserved
    assert any("momentum" in f for f in checks.check_free_swing(bad, kin))


def test_strict_json_corrupted(free):
    _, out = free
    with open(os.path.join(out, "report.json")) as fh:
        text = fh.read()
    assert checks.check_strict_json(text) == []
    doc = json.loads(text)
    doc["decay_rate"] = float("nan")
    assert checks.check_strict_json(json.dumps(doc)) != []
    doc["decay_rate"] = float("inf")
    assert checks.check_strict_json(json.dumps(doc)) != []
