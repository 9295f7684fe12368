import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import pendusim
from pendusim import cli, sim
from pendusim.control import Gains, Setpoint, solve_equilibrium_qm
from pendusim.model import model_to_dict, preset_paper
from pendusim.sim import Scenario, save_scenario

QR_DES = np.array([np.pi / 4, np.pi / 2, 0.0])


@pytest.fixture(scope="module")
def desk():
    return preset_paper(3)


@pytest.fixture(scope="module")
def quick_scenario_path(tmp_path_factory, desk):
    sp = Setpoint(0.0, QR_DES, solve_equilibrium_qm(desk, QR_DES))
    sc = Scenario(model=desk, controller="proposed", gains=Gains(),
                  setpoint=sp, dt=1e-2, duration=6.0, decimation=2,
                  label="quick")
    path = tmp_path_factory.mktemp("scn") / "quick.json"
    save_scenario(sc, path)
    return str(path)


def test_run_missing_scenario_exits_2(tmp_path):
    code = cli.main(["run", "--scenario", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "o")])
    assert code == 2


def test_run_requires_source(tmp_path):
    assert cli.main(["run", "--out", str(tmp_path / "o")]) == 2


def test_run_scenario_outputs(quick_scenario_path, tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["run", "--scenario", quick_scenario_path,
                     "--out", str(out), "--svg"])
    assert code == 0
    assert (out / "trajectory.csv").exists()
    assert (out / "report.json").exists()
    for name in ("qr_gamma.svg", "xc.svg", "qm.svg", "phi.svg"):
        svg_text = (out / name).read_text()
        assert svg_text.startswith("<svg")
        assert "polyline" in svg_text
    report = json.loads((out / "report.json").read_text())
    assert set(report["signals"]) == {"phi", "gamma", "qm", "qr", "xc"}
    back = sim.read_csv(out / "trajectory.csv")
    assert back["n_links"] == 3
    text = capsys.readouterr().out
    assert "quick" in text


def test_run_preset_full_matches_expectation(tmp_path):
    code = cli.main(["run", "--preset", "fig3_motivating",
                     "--out", str(tmp_path / "o")])
    assert code == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["expected_outcome_matched"] is True
    assert report["signals"]["qm"]["classification"] == "limit_cycle"


def test_run_preset_short_duration_mismatch_exits_3(tmp_path):
    # 12 s is not enough for the proposed law to reach its bands
    code = cli.main(["run", "--preset", "fig6_proposed", "--out",
                     str(tmp_path / "o"), "--duration", "12"])
    assert code == 3
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["expected_outcome_matched"] is False


def test_run_rejects_bad_dt(quick_scenario_path, tmp_path):
    code = cli.main(["run", "--scenario", quick_scenario_path,
                     "--out", str(tmp_path / "o"), "--dt", "0.5"])
    assert code == 2


def test_verify_passes(capsys):
    assert cli.main(["verify", "--seed", "3"]) == 0
    assert "all properties pass" in capsys.readouterr().out


def test_verify_seed_robustness(desk):
    # identical verdicts across seeds, on arms of 0, 1, 3 and 7 links; the
    # fixed-input checks do not read the seed, so they run once per model
    from pendusim import verify
    models = [dataclasses.replace(desk, links=()),
              dataclasses.replace(desk, links=desk.links[:1]),
              desk, preset_paper(7)]
    for model in models:
        for seed in range(4):
            for r in verify.seeded_results(model, seed):
                assert r.passed, (model.n_links, seed, r.name, r.detail)
        for r in verify.fixed_results(model):
            assert r.passed, (model.n_links, r.name, r.detail)


def _desk_scenario_file(tmp_path, desk, name, **model_changes):
    """A free-law scenario file on the desk model with some model fields
    replaced."""
    doc = {"model": dict(model_to_dict(desk), **model_changes),
           "controller": "free"}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("n_links", [0, 1])
def test_verify_short_arm_scenario_passes(tmp_path, desk, n_links, capsys):
    """The balance check sizes its arm target to the model."""
    links = model_to_dict(desk)["links"][:n_links]
    path = _desk_scenario_file(tmp_path, desk, f"links{n_links}", links=links)
    assert cli.main(["verify", "--scenario", path]) == 0
    assert "all properties pass" in capsys.readouterr().out


def test_verify_unreachable_balance_exits_1(tmp_path, desk, capsys):
    """Light movers cannot balance the desk arm within their travel: the
    balance check is a FAIL row and verify exits 1."""
    movers = dict(model_to_dict(desk)["movers"], mass=0.1)
    path = _desk_scenario_file(tmp_path, desk, "light", movers=movers)
    assert cli.main(["verify", "--scenario", path]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] static mover balance residual" in out
    assert "no balance point within mover travel" in out


def _travel_scenario_file(tmp_path, desk):
    """A short free-law run whose movers start past the travel limit."""
    q0 = np.zeros(desk.dof)
    q0[3] = 0.9
    sc = Scenario(model=desk, controller="free", q0=q0, dt=1e-2, duration=0.1,
                  decimation=1, label="travel")
    path = tmp_path / "travel.json"
    save_scenario(sc, path)
    return str(path)


def test_log_level_error_silences_travel_warning(tmp_path, desk, capsys):
    """The default level prints the travel warning as its bare message, once
    per call however many calls one process makes; ERROR silences it."""
    import logging
    path = _travel_scenario_file(tmp_path, desk)
    handlers = list(logging.getLogger("pendusim").handlers)
    warning = ("mover travel beyond the +-0.80 m soft limit at t=0.00 s "
               "(not enforced)\n")
    for _ in range(2):
        assert cli.main(["run", "--scenario", path, "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err == warning
    assert cli.main(["--log-level", "ERROR", "run", "--scenario", path,
                     "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""
    assert cli.main(["--log-level", "INFO", "run", "--scenario", path,
                     "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == (
        warning + "run travel: 10 steps, 41 stage evaluations\n")
    assert logging.getLogger("pendusim").handlers == handlers
    assert cli.main(["--log-level", "LOUD", "verify"]) == 2


def test_verify_corrupt_model_exits_2(tmp_path, quick_scenario_path):
    doc = json.load(open(quick_scenario_path))
    doc["model"]["platform"]["mass"] = -5.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["verify", "--scenario", str(bad)]) == 2


def test_equilibrium_preset(capsys):
    assert cli.main(["equilibrium", "--preset", "desk3"]) == 0
    out = capsys.readouterr().out
    assert "qm*" in out and "residual" in out


def test_equilibrium_writeback(tmp_path, desk):
    sp = Setpoint(0.0, QR_DES, solve_equilibrium_qm(desk, QR_DES))
    sc = Scenario(model=desk, controller="proposed", gains=Gains(),
                  setpoint=sp, dt=1e-2, duration=5.0)
    path = tmp_path / "scn.json"
    save_scenario(sc, path)
    assert cli.main(["equilibrium", "--scenario", str(path), "--write"]) == 0
    doc = json.load(open(path))
    assert np.allclose(doc["setpoint"]["qm_star"], sp.qm_star, atol=1e-9)


def test_equilibrium_unreachable_exits_1(tmp_path, desk, capsys):
    # arm mass scaled 10x puts the balance point beyond the mover travel
    doc_model = model_to_dict(desk)
    for link in doc_model["links"]:
        link["mass"] *= 10.0
        link["inertia"] = (np.asarray(link["inertia"]) * 10.0).tolist()
    doc = {
        "model": doc_model,
        "controller": "free",
        "dt": 1e-3,
        "duration": 1.0,
        "setpoint": {"gamma_des": 0.0, "qr_des": QR_DES.tolist(),
                     "qm_star": None},
    }
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["equilibrium", "--scenario", str(path)]) == 1
    assert "residual" in capsys.readouterr().out


def test_usage_error_exits_2():
    assert cli.main(["bogus-command"]) == 2
    assert cli.main(["run", "--preset", "not-a-preset"]) == 2


def test_cli_import_loads_no_scipy():
    """The runtime needs numpy only; scipy is a test oracle."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(pendusim.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, pendusim.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "False"
