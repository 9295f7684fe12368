"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line each (visible with -rP or -s)."""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import oracles
from pendusim import cli, dynamics, engine, sim
from pendusim.control import (Gains, pfl_input, pfl_input_transformed,
                              solve_equilibrium_qm)
from pendusim.model import preset_paper
from pendusim.sim import CONVERGED, DIVERGED, INCONCLUSIVE, LIMIT_CYCLE


@contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {num:2d}: {desc}")
        raise
    print(f"[PASS] criterion {num:2d}: {desc}")


@pytest.fixture(scope="module")
def desk():
    model = preset_paper(3)
    # warm the per-model caches so wall-time measurements see steady state
    dynamics.Eval(model, np.zeros(model.dof), np.zeros(model.dof))
    return model


def random_state(rng, model):
    q = np.concatenate([
        rng.uniform(-0.35, 0.35, 2),
        rng.uniform(-1.0, 1.0, 1),
        rng.uniform(-0.5, 0.5, 2),
        rng.uniform(-1.0, 1.0, model.n_links),
    ])
    return q, rng.uniform(-0.8, 0.8, model.dof)


def _run_preset(name):
    scenario, expect, _ = cli._preset_scenario(name)
    t0 = time.perf_counter()
    traj, report = sim.run(scenario)
    wall = time.perf_counter() - t0
    # actuated power audit holds on every run
    assert report.energy_audit["relative_defect"] < 1e-5
    return traj, report, wall, expect


@pytest.fixture(scope="module")
def fig3(desk):
    return _run_preset("fig3_motivating")


@pytest.fixture(scope="module")
def fig4(desk):
    return _run_preset("fig4_remark1")


@pytest.fixture(scope="module")
def fig5(desk):
    return _run_preset("fig5_remark2")


@pytest.fixture(scope="module")
def fig6(desk):
    return _run_preset("fig6_proposed")


def test_criterion_1_dynamics_oracle_suite(desk):
    with criterion(1, "dynamics oracles at 1000 random states in < 30 s"):
        rng = np.random.default_rng(100)
        t0 = time.perf_counter()
        h = 1e-6
        for _ in range(1000):
            q, qd = random_state(rng, desk)
            ev = dynamics.Eval(desk, q, qd)
            M = ev.M
            assert np.abs(M - M.T).max() < 1e-10 * np.abs(M).max()
            assert np.linalg.eigvalsh(M).min() > 0.0
            g_ref = oracles.gravity_cs(desk, q)
            assert np.abs(ev.g - g_ref).max() < 1e-6 * (1.0 + np.abs(g_ref).max())
            Mdot = np.tensordot(qd, ev.dM, axes=(0, 0))
            S = Mdot - 2.0 * ev.C
            assert np.abs(0.5 * (S + S.T)).max() < 1e-5 * (1.0 + float(qd @ qd))
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"oracle suite took {elapsed:.1f} s"


def test_criterion_2_conservation_and_order(desk):
    with criterion(2, "energy conservation < 1e-6 and RK4 order ratio in [8, 32]"):
        q0 = np.zeros(desk.dof)
        q0[0] = 0.1
        sc = sim.Scenario(model=desk, controller="free", q0=q0, dt=1e-3,
                          duration=10.0, decimation=10)
        traj, _ = sim.run(sc)
        e = traj.e_kin + traj.e_pot
        drift = np.abs(e - e[0]).max() / max(1.0, abs(e[0]))
        assert drift < 1e-6, f"energy drift {drift:.2e}"

        # order measurement needs motion fast enough that truncation
        # dominates the roundoff noise floor: swing the arm
        # folded down (a stable configuration) with joint-rate excitation
        qf = np.zeros(desk.dof)
        qf[0], qf[6] = 0.05, np.pi
        qdf = np.zeros(desk.dof)
        qdf[6], qdf[7] = 0.2, -0.3

        def final(dt):
            scn = sim.Scenario(model=desk, controller="free", q0=qf, qd0=qdf,
                               dt=dt, duration=10.0,
                               decimation=max(1, int(round(0.1 / dt))))
            t, _ = sim.run(scn)
            return np.concatenate([t.q[-1], t.qd[-1]])

        ref = final(5e-4)
        e_coarse = np.linalg.norm(final(4e-3) - ref)
        e_fine = np.linalg.norm(final(2e-3) - ref)
        ratio = e_coarse / e_fine
        assert 8.0 <= ratio <= 32.0, f"order ratio {ratio:.1f}"


def test_criterion_3_pfl_exactness(desk):
    with criterion(3, "PFL exact to 1e-7 in both forms, inputs agree to 1e-6"):
        rng = np.random.default_rng(101)
        for _ in range(100):
            q, qd = random_state(rng, desk)
            ev = dynamics.Eval(desk, q, qd)
            ydd = rng.uniform(-2.0, 2.0, desk.dof - 2)
            u_s = pfl_input(ev, ydd)
            u_t = pfl_input_transformed(ev, ydd)
            assert np.abs(u_s - u_t).max() < 1e-6
            for u in (u_s, u_t):
                qdd = dynamics.forward_dynamics(desk, q, qd, np.r_[0.0, 0.0, u])
                assert np.abs(qdd[2:] - ydd).max() < 1e-7


def test_criterion_4_motivating_outcome(fig3):
    with criterion(4, "motivating law: platform level, movers in a "
                      "> 0.02 m limit cycle, 60 s run in < 10 s wall"):
        traj, report, wall, expect = fig3
        assert wall < 10.0, f"wall time {wall:.1f} s"
        phi = report.signals["phi"]
        assert phi.classification == CONVERGED
        assert phi.settling_time is not None
        qm = report.signals["qm"]
        assert qm.classification == LIMIT_CYCLE
        assert qm.trailing_amplitude > 0.02
        assert expect(report)


def test_criterion_5_remark1_outcome(fig4):
    with criterion(5, "CoM-only law: x_c settles below 1e-3 while attitude "
                      "or movers diverge"):
        traj, report, _, expect = fig4
        xc = report.signals["xc"]
        assert xc.classification == CONVERGED
        assert xc.settling_time is not None
        assert (report.signals["qm"].classification == DIVERGED
                or report.signals["phi"].classification == DIVERGED)
        assert expect(report)


def test_criterion_6_remark2_outcome(fig5):
    with criterion(6, "naive PD extension: neither attitude nor movers "
                      "converge; both oscillate about the setpoint"):
        traj, report, _, expect = fig5
        for name in ("phi", "qm"):
            outcome = report.signals[name]
            assert outcome.classification != CONVERGED
            assert outcome.classification in (LIMIT_CYCLE, INCONCLUSIVE)
            assert outcome.trailing_amplitude > 2.0 * outcome.band
        assert expect(report)


def test_criterion_7_proposed_outcome(fig6):
    with criterion(7, "proposed law: x_c, q_m, attitude all inside 1e-3 "
                      "bands before 60 s with positive decay rate"):
        traj, report, _, expect = fig6
        for name in ("xc", "qm", "phi"):
            outcome = report.signals[name]
            assert outcome.classification == CONVERGED
            assert outcome.settling_time is not None
            assert outcome.settling_time < 60.0
        assert report.decay_rate > 0.0
        assert expect(report)


def test_criterion_8_gain_ordering_matters(desk, fig6):
    with criterion(8, "reversed gain ordering loses convergence or slows "
                      "decay at least 5x"):
        _, base_report, _, _ = fig6
        scenario, _, _ = cli._preset_scenario("fig6_proposed")
        reversed_gains = Gains(D_c=np.full(2, 0.21), K_c=np.full(2, 0.24),
                               D_m=np.full(2, 2.1), K_m=np.full(2, 2.4))
        assert not reversed_gains.ratio_ok
        scenario.gains = reversed_gains
        scenario.label = "fig6-reversed"
        _, report = sim.run(scenario)
        converged = all(report.signals[s].classification == CONVERGED
                        for s in ("xc", "qm", "phi"))
        slowed = report.decay_rate <= base_report.decay_rate / 5.0
        assert (not converged) or slowed


def test_criterion_9_equilibrium_grid_oracle(desk):
    with criterion(9, "static balance residual < 1e-10, confirmed by a "
                      "161x161 grid search within 1e-3"):
        qr_des = np.array([np.pi / 4, np.pi / 2, 0.0])
        qm = solve_equilibrium_qm(desk, qr_des)
        q = np.concatenate([[0.0, 0.0, 0.0], qm, qr_des])
        res = float(np.linalg.norm(engine.assemble1(desk, q).g[0][0:2]))
        assert res < 1e-10

        def grid_argmin(lo, hi):
            axis0 = np.linspace(lo[0], hi[0], 161)
            axis1 = np.linspace(lo[1], hi[1], 161)
            mesh = np.array(np.meshgrid(axis0, axis1, indexing="ij"))
            pts = mesh.reshape(2, -1).T
            Q = np.zeros((len(pts), desk.dof))
            Q[:, 3:5] = pts
            Q[:, 5:] = qr_des
            gq = engine.assemble(desk, Q).g[:, 0:2]
            return pts[np.argmin(np.linalg.norm(gq, axis=1))]

        coarse = grid_argmin(np.array([-0.8, -0.8]), np.array([0.8, 0.8]))
        cell = 1.6 / 160.0
        fine = grid_argmin(coarse - 1.5 * cell, coarse + 1.5 * cell)
        assert np.linalg.norm(fine - qm) < 1e-3
        # paper-scale preset balances too (its literal values depend on the
        # unspecified arm geometry; the balance property is what transfers)
        paper = preset_paper(7)
        qr7 = np.concatenate([[np.pi / 4, np.pi / 2], np.zeros(5)])
        qm7 = solve_equilibrium_qm(paper, qr7)
        q7 = np.concatenate([[0.0, 0.0, 0.0], qm7, qr7])
        assert np.linalg.norm(engine.assemble1(paper, q7).g[0][0:2]) < 1e-10


def test_criterion_10_cascade_ordering(fig3, fig6):
    with criterion(10, "yaw and arm settle no later than roll/pitch in the "
                       "converged runs"):
        for traj, report, _, _ in (fig3, fig6):
            t_phi = report.signals["phi"].settling_time
            assert t_phi is not None
            for outer in ("gamma", "qr"):
                t_outer = report.signals[outer].settling_time
                assert t_outer is not None
                assert t_outer <= t_phi
