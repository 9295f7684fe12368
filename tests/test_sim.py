import dataclasses
import json
import logging

import numpy as np
import pytest
from pendusim import cli, control, dynamics
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
    for bad in (dict(controller="bogus"), dict(label=7)):
        with pytest.raises(ScenarioError):
            Scenario(model=desk, **{"controller": "free", **bad})
    # A non-finite setpoint, gain or model parameter fails at load time
    # (ScenarioError from a document, ValueError from the constructor)
    # instead of writing NaN into report.json.
    for section, key, value in [
            ("setpoint", "gamma_des", np.nan),
            ("setpoint", "gamma_des", np.inf),
            ("setpoint", "qr_des", [np.nan, 0.0, 0.0]),
            ("setpoint", "qm_star", [0.0, np.nan]),
            ("gains", "D_gamma", np.nan),
            ("gains", "K_gamma", np.inf),
            ("gains", "K_c", [np.nan, 320.0]),
            ("gains", "D_m", np.inf),
            ("gains", "D_r", [10.0, np.nan, 10.0])]:
        doc = {"model": {"preset_links": 3}, "controller": "remark1",
               "dt": 1e-2, "duration": 1.0, "gains": Gains().to_dict(),
               "setpoint": {"gamma_des": 0.0, "qr_des": QR_DES.tolist()}}
        doc[section][key] = value
        with pytest.raises(ScenarioError):
            scenario_from_dict(doc)
        with pytest.raises(ValueError):
            (Setpoint if section == "setpoint" else Gains)(**doc[section])
    for *path, value in [("links", 1, "com_offset", [0.0, np.nan, 0.1]),
                         ("platform", "mass", np.inf),
                         ("movers", "mass", np.nan)]:
        doc = scenario_to_dict(Scenario(model=desk, controller="free"))
        node = doc["model"]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
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
    monkeypatch.setattr(dynamics, "COND_LIMIT", 0.5)
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


def _zero_mass_last_link(desk):
    last = desk.links[-1]
    links = desk.links[:-1] + (dataclasses.replace(
        last, mass=0.0, inertia=np.zeros((3, 3))),)
    return SystemModel(platform=desk.platform, movers=desk.movers, links=links)


def test_halt_before_first_sample_writes_report(desk, tmp_path):
    """A massless, inertia-free last link makes M singular everywhere: the
    run halts before its first logged sample and still writes every output."""
    model = _zero_mass_last_link(desk)
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


def test_energy_audit_worst_defect_time(desk):
    """max_defect_t is the logged time of the worst |dE - W|, and null when
    nothing was logged."""
    t = np.linspace(0.0, 30.0, 601)
    traj = synthetic_traj(desk, t, {})
    traj.e_pot = 1e-3 * np.sin(t)
    traj.work = 2e-4 * t
    audit = build_report(traj).energy_audit
    defects = np.abs(traj.e_pot - traj.e_pot[0] - traj.work)
    assert audit["max_defect_t"] == t[np.argmax(defects)]
    assert audit["max_defect"] == defects.max()

    sc = Scenario(model=desk, controller="free", q0=np.r_[0.1, np.zeros(desk.dof - 1)],
                  dt=1e-2, duration=1.0, decimation=5)
    traj, rep = run(sc)
    delta = traj.e_kin + traj.e_pot - traj.e_kin[0] - traj.e_pot[0]
    worst = np.argmax(np.abs(delta - traj.work))
    assert rep.energy_audit["max_defect_t"] == traj.t[worst]
    doc = json.loads(json.dumps(rep.to_dict()))
    assert doc["energy_audit"]["max_defect_t"] == traj.t[worst]

    empty = dataclasses.replace(
        traj, escaped=True, **{k: getattr(traj, k)[:0] for k in
                               ("t", "q", "qd", "u", "xc", "e_kin", "e_pot", "work")})
    assert build_report(empty).energy_audit["max_defect_t"] is None


def test_report_run_block(desk, tmp_path, monkeypatch):
    """report.json states how the run was computed: its steps, its stage
    evaluations and the configurations each one assembled, which together
    account for every assembled configuration."""
    from pendusim import dynamics, engine

    engine.potential_offset(desk)
    rows = []
    assemble = engine.assemble

    def recording(model, Q):
        rows.append(len(Q))
        return assemble(model, Q)

    monkeypatch.setattr(engine, "assemble", recording)
    sc = Scenario(model=desk, controller="proposed", gains=Gains(),
                  setpoint=Setpoint(0.0, QR_DES, solve_equilibrium_qm(desk, QR_DES)),
                  dt=1e-2, duration=0.5, decimation=5)
    rows.clear()
    _, rep = run(sc)
    block = rep.to_dict()["run"]
    assert block == {"steps": 50, "stage_evaluations": 201,
                     "configurations_per_evaluation": dynamics.Eval.CONFIGURATIONS}
    assert sum(rows) == block["stage_evaluations"] * block["configurations_per_evaluation"]
    monkeypatch.setattr(engine, "assemble", assemble)

    path = tmp_path / "sc.json"
    save_scenario(dataclasses.replace(sc, label="run-block"), path)
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", str(path), "--out", str(out)]) == 0
    report = _strict_json((out / "report.json").read_text())
    assert report["run"] == block


def test_report_run_block_of_halted_run(desk):
    """A run halted after a step counts the steps it completed and their
    stages, with no final evaluation."""
    qd0 = np.zeros(desk.dof)
    qd0[2] = 600.0  # yaw coasts past the 1e3 coordinate bound
    sc = Scenario(model=desk, controller="free", qd0=qd0, dt=1e-2,
                  duration=9.0, decimation=10)
    traj, rep = run(sc)
    assert traj.escaped
    steps = rep.run["steps"]
    # the halting step comes after the last logged sample, within one
    # decimation interval
    assert traj.t[-1] < steps * 1e-2 <= traj.t[-1] + 10 * 1e-2 + 1e-12
    assert rep.run["stage_evaluations"] == 4 * steps


@pytest.mark.parametrize("n_links", [3, 7])
@pytest.mark.parametrize("law", ["motivating", "remark1", "remark2", "proposed"])
def test_controlled_stage_makes_no_linalg_call(law, n_links, monkeypatch):
    """A controlled RK4 stage does its algebra in closed 2x2 forms: with
    numpy's dense solvers made to raise, every law still evaluates."""
    from pendusim import sim

    model = preset_paper(n_links)
    qr_des = np.zeros(n_links)
    ctrl = control.make_controller(law, control.default_gains(n_links),
                                   Setpoint(0.0, qr_des, np.zeros(2)))
    q = np.zeros(model.dof)
    q[0:2] = [0.03, -0.02]
    q[3:5] = [0.1, -0.05]
    qd = np.full(model.dof, 0.1)
    sim._stage(model, q, qd, ctrl, None)     # warm the per-model caches

    def forbidden(*args, **kwargs):
        raise AssertionError("np.linalg called in a controlled stage")

    for name in ("solve", "inv", "cond", "lstsq", "pinv", "det", "eig", "svd"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    _, u, qdd, _ = sim._stage(model, q, qd, ctrl, None)
    assert np.all(np.isfinite(u)) and np.all(np.isfinite(qdd))


@pytest.mark.parametrize("law", ["motivating", "remark1", "remark2", "proposed"])
def test_controlled_law_on_singular_mass_matrix_ends_in_report(desk, law):
    """With M singular everywhere (a massless, inertia-free last link) the
    collocated PFL still prescribes every actuated acceleration; whether the
    run halts or not, it ends in a strict-JSON report."""
    model = _zero_mass_last_link(desk)
    sc = Scenario(model=model, controller=law, gains=Gains(),
                  setpoint=Setpoint(0.0, QR_DES, solve_equilibrium_qm(model, QR_DES)),
                  dt=1e-2, duration=1.0, decimation=5, label="singular")
    traj, rep = run(sc)
    doc = _strict_json(json.dumps(rep.to_dict()))
    assert doc["escaped"] is traj.escaped
    assert set(doc["signals"]) == {"phi", "gamma", "qm", "qr", "xc"}


def _first_crossing(model, traj):
    crossed = traj.t[np.abs(traj.q[:, 3:5]).max(axis=1) > model.movers.travel_limit]
    return float(crossed[0]) if crossed.size else None


def test_report_health_block(desk, setpoint, tmp_path):
    """report.json's health block holds the logged peaks, the first time past
    the travel limit and the worst conditioning the run's guards saw."""
    for law in ("proposed", "motivating"):
        sc = Scenario(model=desk, controller=law, gains=Gains(), setpoint=setpoint,
                      q0=np.r_[0.05, -0.03, 0.0, setpoint.qm_star, QR_DES],
                      dt=1e-2, duration=0.5, decimation=1)
        traj, rep = run(sc)
        health = _strict_json(json.dumps(rep.to_dict()))["health"]
        assert list(health["peak_abs_u"]) == ["u_yaw", "u_m1", "u_m2",
                                              "u_r1", "u_r2", "u_r3"]
        assert list(health["peak_abs_u"].values()) == np.abs(traj.u).max(axis=0).tolist()
        assert health["peak_abs_qm"] == np.abs(traj.q[:, 3:5]).max()
        assert health["travel_limit_first_crossed_t"] == _first_crossing(desk, traj)
        # decimation 1 logs the first stage of every step; the law's guards
        # record their condition numbers on each evaluation it reads
        evs = [dynamics.Eval(desk, q, qd) for q, qd in zip(traj.q, traj.qd)]
        ctrl = control.make_controller(law, Gains(), setpoint)
        for ev in evs:
            ctrl.u_vector(ev)
        if law == "proposed":
            assert health["worst_cond_Jcom_phi"] == max(ev.conds["Jcom_phi"] for ev in evs)
            assert health["worst_cond_M_phim"] is None
        else:
            assert health["worst_cond_Jcom_phi"] is None
            assert health["worst_cond_M_phim"] == max(ev.conds["M_phim"] for ev in evs)

    qd0 = np.zeros(desk.dof)
    qd0[3] = 0.6
    sc = Scenario(model=desk, controller="free", qd0=qd0, dt=5e-3,
                  duration=2.0, decimation=2)
    traj, rep = run(sc)
    assert rep.health["travel_limit_first_crossed_t"] == _first_crossing(desk, traj)
    assert rep.health["travel_limit_first_crossed_t"] is not None
    assert rep.health["worst_cond_Jcom_phi"] is None
    assert rep.health["worst_cond_M_phim"] is None

    path = tmp_path / "sc.json"
    save_scenario(dataclasses.replace(sc, label="health"), path)
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", str(path), "--out", str(out)]) == 0
    assert _strict_json((out / "report.json").read_text())["health"] == rep.health


@pytest.mark.parametrize("law", ["motivating", "remark1", "remark2", "proposed", "free"])
def test_health_conditioning_is_exact(desk, setpoint, law):
    """The health block's worst condition numbers are the exact 2-norm ones,
    np.linalg.cond of each block a law inverts over the logged first stages,
    even from the hang, where both blocks are near orthogonal (cond near 1)."""
    sc = Scenario(model=desk, controller=law, gains=Gains(), setpoint=setpoint,
                  dt=1e-2, duration=0.5, decimation=1)
    traj, rep = run(sc)
    evs = [dynamics.Eval(desk, q, qd) for q, qd in zip(traj.q, traj.qd)]
    blocks = {"Jcom_phi": lambda ev: ev.Jcom[:, 0:2], "M_phim": lambda ev: ev.M_phim}
    inverted = {"motivating": "M_phim", "remark2": "M_phim",
                "remark1": "Jcom_phi", "proposed": "Jcom_phi"}.get(law)
    for name, block in blocks.items():
        worst = rep.health[f"worst_cond_{name}"]
        if name != inverted:
            assert worst is None
            continue
        ref = max(np.linalg.cond(block(ev)) for ev in evs)
        assert worst >= 1.0
        assert abs(worst - ref) <= 1e-12 * ref


# Terms of the stage row each law reads beyond M, g and the bias.
ROW_READS = {"motivating": {"C_phim"}, "remark1": {"com", "Jcom"},
             "remark2": {"C_phim"}, "proposed": {"com", "Jcom"}, "free": set()}


@pytest.mark.parametrize("law, guards", [
    ("motivating", {"M_phim"}), ("remark1", {"Jcom_phi"}),
    ("remark2", {"M_phim"}), ("proposed", {"Jcom_phi"}), ("free", set())])
def test_stage_builds_only_what_the_law_reads(desk, setpoint, law, guards):
    """One RK4 stage leaves none of the unread cached terms on the
    evaluation, builds the stage-row terms its law reads (a free-law stage
    builds none beyond M, g and the bias), and its guards record exactly the
    blocks the law inverts."""
    from pendusim import sim

    ctrl = control.make_controller(law, Gains(), setpoint)
    q = np.r_[0.03, -0.02, 0.1, setpoint.qm_star, QR_DES]
    ev, _, _, _ = sim._stage(desk, q, np.full(desk.dof, 0.1), ctrl, None)
    unread = {"Mbar_cc", "T", "Tinv", "Mbar", "dM", "C", "Cbar", "gbar"}
    assert not unread & set(vars(ev))
    row_terms = {"C_phim", "V", "com", "Jcom"}
    assert row_terms & set(vars(ev)) == ROW_READS[law]
    assert set(ev.conds) == guards
    assert all(1.0 <= cond <= dynamics.COND_LIMIT for cond in ev.conds.values())


def test_report_health_block_of_halted_run(desk, setpoint, monkeypatch):
    """A run halted before its first sample reports null peaks and null
    conditioning; one halted later keeps what it logged."""
    monkeypatch.setattr(dynamics, "COND_LIMIT", 0.5)
    sc = Scenario(model=desk, controller="motivating", gains=Gains(),
                  setpoint=setpoint, dt=1e-2, duration=1.0, decimation=1)
    _, rep = run(sc)
    health = _strict_json(json.dumps(rep.to_dict()))["health"]
    assert rep.escaped
    assert set(health["peak_abs_u"].values()) == {None}
    assert health["peak_abs_qm"] is None
    assert health["worst_cond_M_phim"] is None
    monkeypatch.undo()

    qd0 = np.zeros(desk.dof)
    qd0[2] = 600.0  # yaw coasts past the 1e3 coordinate bound
    sc = Scenario(model=desk, controller="free", qd0=qd0, dt=1e-2,
                  duration=9.0, decimation=10)
    traj, rep = run(sc)
    health = _strict_json(json.dumps(rep.to_dict()))["health"]
    assert traj.escaped
    assert health["peak_abs_qm"] == np.abs(traj.q[:, 3:5]).max()
    assert list(health["peak_abs_u"].values()) == [0.0] * (desk.dof - 2)
