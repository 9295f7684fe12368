import dataclasses
import json
import logging

import numpy as np
import pytest
from pendusim import cli, control
from pendusim.control import Gains, Setpoint, solve_equilibrium_qm
from pendusim.model import State, SystemModel, preset_paper
from pendusim.sim import (CONVERGED, DIVERGED, INCONCLUSIVE, LIMIT_CYCLE,
                          Scenario, ScenarioError, Trajectory, build_report,
                          classify, fit_decay_rate, load_scenario, run,
                          save_scenario, scenario_from_dict, scenario_to_dict,
                          settling_time, step, write_csv, read_csv)
from pendusim.spatial import BETA_GUARD

QR_DES = np.array([np.pi / 4, np.pi / 2, 0.0])


@pytest.fixture(scope="module")
def desk():
    return preset_paper(3)


@pytest.fixture(scope="module")
def setpoint(desk):
    return Setpoint(0.0, QR_DES, solve_equilibrium_qm(desk, QR_DES))


def synthetic_traj(desk, t, columns):
    """Trajectory with prescribed q columns for classifier unit tests."""
    n = len(t)
    q = np.zeros((n, desk.dof))
    for idx, vals in columns.items():
        q[:, idx] = vals
    sc = Scenario(model=desk, controller="free", dt=1e-3,
                  duration=float(t[-1]), decimation=1)
    zeros = np.zeros(n)
    return Trajectory(scenario=sc, t=np.asarray(t, dtype=float), q=q,
                      qd=np.zeros_like(q), u=np.zeros((n, desk.dof - 2)),
                      xc=np.zeros((n, 2)), e_kin=zeros, e_pot=zeros,
                      work=zeros)


def test_scenario_validation(desk):
    with pytest.raises(ScenarioError):
        Scenario(model=desk, controller="free", dt=0.02, duration=1.0)
    with pytest.raises(ScenarioError):
        Scenario(model=desk, controller="free", dt=1e-3, duration=-1.0)
    with pytest.raises(ScenarioError):
        Scenario(model=desk, controller="proposed", dt=1e-3, duration=1.0)
    with pytest.raises(ScenarioError):
        Scenario(model=desk, controller="free", q0=np.zeros(3))
    bad_q = np.zeros(desk.dof)
    bad_q[0] = np.nan
    pitched = np.zeros(desk.dof)
    pitched[1] = BETA_GUARD
    for bad in (dict(duration=np.nan), dict(duration=np.inf), dict(dt=np.nan),
                dict(q0=bad_q), dict(qd0=bad_q), dict(tau_ext=bad_q),
                dict(q0=pitched), dict(q0=-pitched), dict(decimation=1.7)):
        with pytest.raises(ScenarioError):
            Scenario(model=desk, controller="free",
                     **{"dt": 1e-3, "duration": 1.0, **bad})
    assert Scenario(model=desk, controller="free", decimation=2.0).decimation == 2
    doc = {"model": {"preset_links": 3.9}, "controller": "free",
           "dt": 1e-3, "duration": 1.0}
    with pytest.raises(ScenarioError):
        scenario_from_dict(doc)


def test_classify_decaying_exponential(desk):
    t = np.linspace(0.0, 30.0, 601)
    traj = synthetic_traj(desk, t, {0: 0.5 * np.exp(-0.8 * t)})
    assert classify(traj, "phi", band=1e-3, window=8.0) == CONVERGED


def test_classify_pure_sinusoid(desk):
    t = np.linspace(0.0, 30.0, 1201)
    traj = synthetic_traj(desk, t, {0: 0.1 * np.sin(2.0 * t)})
    assert classify(traj, "phi", band=0.01, window=8.0) == LIMIT_CYCLE


def test_classify_ramp_diverges(desk):
    t = np.linspace(0.0, 30.0, 601)
    traj = synthetic_traj(desk, t, {0: 0.05 * t})
    assert classify(traj, "phi", band=1e-3, window=8.0) == DIVERGED


def test_classify_growing_oscillation_inconclusive(desk):
    t = np.linspace(0.0, 30.0, 1201)
    traj = synthetic_traj(desk, t, {0: 0.02 * np.exp(0.05 * t) * np.sin(3.0 * t)})
    assert classify(traj, "phi", band=1e-3, window=8.0) == INCONCLUSIVE


def test_classify_escaped_run_is_diverged(desk):
    t = np.linspace(0.0, 30.0, 601)
    traj = synthetic_traj(desk, t, {0: np.zeros(601)})
    traj.escaped = True
    assert classify(traj, "phi", band=1e-3, window=8.0) == DIVERGED


def test_classify_window_precondition(desk):
    t = np.linspace(0.0, 30.0, 601)
    traj = synthetic_traj(desk, t, {0: np.zeros(601)})
    with pytest.raises(ValueError):
        classify(traj, "phi", band=1e-3, window=11.0)


def test_settling_time_semantics(desk):
    t = np.linspace(0.0, 10.0, 101)
    vals = np.where(t < 4.0, 0.5, 0.0)
    traj = synthetic_traj(desk, t, {0: vals})
    assert settling_time(traj, "phi", band=1e-3) == pytest.approx(4.0)
    traj2 = synthetic_traj(desk, t, {0: np.full(101, 0.5)})
    assert settling_time(traj2, "phi", band=1e-3) is None


def test_fit_decay_rate_recovers_exponent():
    t = np.linspace(0.0, 20.0, 400)
    vals = 0.3 * np.exp(-0.45 * t)
    assert fit_decay_rate(t, vals) == pytest.approx(0.45, rel=1e-6)


def test_free_run_energy_and_record_count(desk):
    q0 = np.zeros(desk.dof)
    q0[0] = 0.1
    sc = Scenario(model=desk, controller="free", q0=q0, dt=1e-3, duration=3.0,
                  decimation=10)
    traj, rep = run(sc)
    assert abs(len(traj.t) - (3.0 / (1e-3 * 10) + 1)) <= 1
    e = traj.e_kin + traj.e_pot
    assert np.abs(e - e[0]).max() / max(1.0, abs(e[0])) < 1e-8
    assert rep.energy_audit["relative_defect"] < 1e-5


def test_equilibrium_start_stays_put(desk, setpoint):
    q0 = np.concatenate([[0.0, 0.0, 0.0], setpoint.qm_star, setpoint.qr_des])
    sc = Scenario(model=desk, controller="proposed", gains=Gains(),
                  setpoint=setpoint, q0=q0, dt=1e-3, duration=2.0,
                  decimation=10)
    traj, _ = run(sc)
    assert np.abs(traj.q - q0).max() < 1e-9
    assert np.abs(traj.qd).max() < 1e-9


def test_determinism_bit_for_bit(desk, setpoint):
    sc = dict(model=desk, controller="proposed", gains=Gains(),
              setpoint=setpoint, dt=5e-3, duration=2.0, decimation=4)
    t1, _ = run(Scenario(**sc))
    t2, _ = run(Scenario(**sc))
    assert np.array_equal(t1.q, t2.q)
    assert np.array_equal(t1.qd, t2.qd)
    assert np.array_equal(t1.u, t2.u)
    assert np.array_equal(t1.work, t2.work)


def test_richardson_state_change_small(desk):
    q0 = np.zeros(desk.dof)
    q0[0] = 0.1
    def final(dt):
        sc = Scenario(model=desk, controller="free", q0=q0, dt=dt,
                      duration=3.0, decimation=int(round(0.1 / dt)))
        traj, _ = run(sc)
        return np.concatenate([traj.q[-1], traj.qd[-1]])
    assert np.abs(final(1e-3) - final(5e-4)).max() < 1e-7


def test_step_single(desk):
    st = State.zeros(desk)
    st.q[0] = 0.05
    out = step(desk, st, "free", 1e-3)
    assert out.t == pytest.approx(1e-3)
    assert out.q[0] != st.q[0]


def test_step_matches_run(desk):
    """step and run advance the state through the same RK4 update,
    disturbance included."""
    q0 = np.zeros(desk.dof)
    q0[0] = 0.05
    tau_ext = np.zeros(desk.dof)
    tau_ext[3] = 2.0
    sc = Scenario(model=desk, controller="free", q0=q0, dt=1e-3,
                  duration=3e-3, decimation=1, tau_ext=tau_ext)
    traj, _ = run(sc)
    st = State(0.0, q0, np.zeros(desk.dof))
    for k in range(1, 4):
        st = step(desk, st, "free", 1e-3, tau_ext=tau_ext)
        assert np.array_equal(st.q, traj.q[k])
        assert np.array_equal(st.qd, traj.qd[k])


def test_state_escape_halts_gracefully(desk):
    qd0 = np.zeros(desk.dof)
    qd0[2] = 600.0  # yaw coasts past the 1e3 coordinate bound
    sc = Scenario(model=desk, controller="free", qd0=qd0, dt=1e-2,
                  duration=9.0, decimation=10)
    traj, rep = run(sc)
    assert traj.escaped
    assert rep.escaped
    assert "|q| exceeded" in rep.escape_reason
    for outcome in rep.signals.values():
        assert outcome.classification == DIVERGED


def test_travel_limit_warning_flag(desk, caplog):
    import logging
    qd0 = np.zeros(desk.dof)
    qd0[3] = 0.6
    sc = Scenario(model=desk, controller="free", qd0=qd0, dt=5e-3,
                  duration=2.0, decimation=2)
    with caplog.at_level(logging.WARNING, logger="pendusim.sim"):
        traj, rep = run(sc)
    assert traj.travel_limit_exceeded
    assert rep.travel_limit_exceeded
    assert any("soft limit" in r.message for r in caplog.records)


def test_csv_round_trip_exact(desk, setpoint, tmp_path):
    sc = Scenario(model=desk, controller="motivating", gains=Gains(),
                  setpoint=setpoint, dt=5e-3, duration=1.0, decimation=5)
    traj, _ = run(sc)
    path = tmp_path / "traj.csv"
    write_csv(traj, path)
    back = read_csv(path)
    assert back["n_links"] == 3
    assert np.array_equal(back["t"], traj.t)
    assert np.array_equal(back["q"], traj.q)
    assert np.array_equal(back["qd"], traj.qd)
    assert np.array_equal(back["u"], traj.u)
    assert np.array_equal(back["xc"], traj.xc)
    assert np.array_equal(back["e_kin"], traj.e_kin)
    assert np.array_equal(back["e_pot"], traj.e_pot)
    header = open(path).readline().strip().split(",")
    assert header[:9] == ["t", "alpha", "beta", "gamma", "qm1", "qm2",
                          "qr1", "qr2", "qr3"]
    assert header[9] == "d_alpha" and "u_yaw" in header
    assert header[-4:] == ["xc_x", "xc_y", "E_kin", "E_pot"]


def test_scenario_json_round_trip(desk, setpoint, tmp_path):
    sc = Scenario(model=desk, controller="proposed", gains=Gains(),
                  setpoint=setpoint, dt=4e-3, duration=12.0, decimation=4,
                  label="round-trip")
    path = tmp_path / "scenario.json"
    save_scenario(sc, path)
    clone = load_scenario(path)
    assert clone.controller == "proposed"
    assert clone.dt == 4e-3
    assert clone.label == "round-trip"
    assert np.allclose(clone.setpoint.qm_star, setpoint.qm_star)
    t1, _ = run(Scenario(model=desk, controller="proposed", gains=Gains(),
                         setpoint=setpoint, dt=4e-3, duration=1.0, decimation=4))
    clone.duration = 1.0
    t2, _ = run(clone)
    assert np.array_equal(t1.q, t2.q)


def test_scenario_rejects_stale_qm_star(desk, setpoint):
    doc = scenario_to_dict(Scenario(model=desk, controller="proposed",
                                    gains=Gains(), setpoint=setpoint,
                                    dt=1e-3, duration=1.0))
    doc["setpoint"]["qm_star"] = [0.3, 0.3]
    with pytest.raises(ScenarioError):
        scenario_from_dict(doc)


def test_scenario_preset_link(desk):
    doc = {"model": {"preset_links": 3}, "controller": "free",
           "dt": 1e-3, "duration": 1.0}
    sc = scenario_from_dict(doc)
    assert sc.model.dof == desk.dof


def test_report_json_serializable(desk):
    sc = Scenario(model=desk, controller="free", dt=5e-3, duration=1.0,
                  decimation=5)
    _, rep = run(sc)
    doc = rep.to_dict()
    text = json.dumps(doc)
    assert "signals" in json.loads(text)


def test_constant_disturbance_hook(desk):
    tau_ext = np.zeros(desk.dof)
    tau_ext[3] = 2.0
    sc = Scenario(model=desk, controller="free", dt=5e-3, duration=1.0,
                  decimation=5, tau_ext=tau_ext)
    traj, _ = run(sc)
    assert traj.q[-1, 3] > 1e-3  # the pushed mover moved


def _strict_json(text):
    def reject(constant):
        raise AssertionError(f"non-strict JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


def test_coupling_breakdown_ends_in_report(desk, setpoint, monkeypatch):
    """A controller breakdown at the very first stage halts the run into a
    diverged report instead of raising."""
    monkeypatch.setattr(control, "M_PHIM_COND_LIMIT", 0.5)
    sc = Scenario(model=desk, controller="motivating", gains=Gains(),
                  setpoint=setpoint, dt=1e-2, duration=1.0, decimation=1)
    traj, rep = run(sc)
    assert traj.escaped and rep.escaped
    assert "coupling" in rep.escape_reason
    assert traj.t.size == 0
    assert set(rep.signals) == {"phi", "gamma", "qm", "qr", "xc"}
    for outcome in rep.signals.values():
        assert outcome.classification == DIVERGED
    _strict_json(json.dumps(rep.to_dict()))


def test_halt_before_first_sample_writes_report(desk, tmp_path):
    """A massless, inertia-free last link makes M singular everywhere: the
    run halts before its first logged sample and still writes every output."""
    last = desk.links[-1]
    links = desk.links[:-1] + (dataclasses.replace(
        last, mass=0.0, inertia=np.zeros((3, 3))),)
    model = SystemModel(platform=desk.platform, movers=desk.movers, links=links)
    path = tmp_path / "singular.json"
    save_scenario(Scenario(model=model, controller="free", dt=1e-2,
                           duration=1.0, label="singular"), path)
    out = tmp_path / "out"
    code = cli.main(["run", "--scenario", str(path), "--out", str(out), "--svg"])
    assert code == 0
    report = _strict_json((out / "report.json").read_text())
    assert report["escaped"] is True
    assert set(report["signals"]) == {"phi", "gamma", "qm", "qr", "xc"}
    for outcome in report["signals"].values():
        assert outcome["classification"] == DIVERGED
    assert read_csv(out / "trajectory.csv")["t"].size == 0
    for name in ("qr_gamma.svg", "xc.svg", "qm.svg", "phi.svg"):
        assert (out / name).read_text().startswith("<svg")


def test_energy_audit_tolerance_flag(desk, caplog):
    t = np.linspace(0.0, 30.0, 601)
    traj = synthetic_traj(desk, t, {})
    assert build_report(traj).energy_audit["within_tolerance"] is True
    traj.e_pot = 1e-3 * t   # energy drifts with no actuated work
    with caplog.at_level(logging.WARNING, logger="pendusim.sim"):
        audit = build_report(traj).energy_audit
    assert audit["relative_defect"] > 1e-5
    assert audit["within_tolerance"] is False
    assert any("energy audit" in r.message for r in caplog.records)
