"""Runtime self-verification: the dynamics and control identities checked
over seeded random in-envelope states, printed as a pass/fail table.

These are the same properties the test suite asserts; having them callable
from the command line makes any installation checkable without pytest.
"""

from dataclasses import dataclass

import numpy as np

from . import dynamics, engine
from .control import (balance_residual, pfl_input_standard,
                      pfl_input_transformed, solve_equilibrium_qm)
from .model import State, preset_paper


@dataclass
class PropertyResult:
    name: str
    passed: bool
    detail: str


def random_state(rng, model, attitude=0.35, mover=0.5, joint=1.0, rate=0.8):
    """In-envelope random configuration and velocity."""
    n = model.n_links
    q = np.concatenate([
        rng.uniform(-attitude, attitude, 2),
        rng.uniform(-1.0, 1.0, 1),
        rng.uniform(-mover, mover, 2),
        rng.uniform(-joint, joint, n),
    ])
    qd = rng.uniform(-rate, rate, model.dof)
    return q, qd


def check_mass_matrix(model, rng, n_states=200):
    worst_sym, min_eig = 0.0, np.inf
    for _ in range(n_states):
        q, _ = random_state(rng, model)
        M = dynamics.mass_matrix(model, q)
        worst_sym = max(worst_sym, np.abs(M - M.T).max() / np.abs(M).max())
        min_eig = min(min_eig, np.linalg.eigvalsh(M).min())
    ok = worst_sym < 1e-10 and min_eig > 0.0
    return PropertyResult("mass-matrix symmetric positive definite", ok,
                          f"max rel asym {worst_sym:.2e}, min eig {min_eig:.3e}")


def check_gravity_gradient(model, rng, n_states=50):
    h = 1e-5
    worst = 0.0
    for _ in range(n_states):
        q, _ = random_state(rng, model)
        g = dynamics.gravity_vector(model, q)
        gfd = np.empty_like(g)
        for i in range(model.dof):
            e = np.zeros(model.dof)
            e[i] = h
            gfd[i] = (dynamics.potential_energy(model, q + e)
                      - dynamics.potential_energy(model, q - e)) / (2.0 * h)
        worst = max(worst, np.abs(g - gfd).max() / (1.0 + np.abs(g).max()))
    ok = worst < 1e-6
    return PropertyResult("gravity equals potential gradient", ok,
                          f"max rel dev {worst:.2e} (tol 1e-6)")


def check_skew_symmetry(model, rng, n_states=50):
    h = 1e-6
    worst = 0.0
    for _ in range(n_states):
        q, qd = random_state(rng, model)
        C = dynamics.coriolis_matrix(model, q, qd)
        Mdot = (dynamics.mass_matrix(model, q + h * qd)
                - dynamics.mass_matrix(model, q - h * qd)) / (2.0 * h)
        S = Mdot - 2.0 * C
        dev = np.abs(0.5 * (S + S.T)).max() / (1.0 + float(qd @ qd))
        worst = max(worst, dev)
    ok = worst < 1e-5
    return PropertyResult("Coriolis skew symmetry", ok,
                          f"max scaled dev {worst:.2e} (tol 1e-5)")


def check_pfl(model, rng, n_states=50):
    worst_closure, worst_agree = 0.0, 0.0
    for _ in range(n_states):
        q, qd = random_state(rng, model)
        st = State(0.0, q, qd)
        ev = dynamics.evaluate(model, q, qd)
        ydd = rng.uniform(-2.0, 2.0, model.dof - 2)
        u_s = pfl_input_standard(st, ev.terms, ydd)
        u_t = pfl_input_transformed(st, ev.transformed, ydd)
        worst_agree = max(worst_agree,
                          np.abs(u_s.as_vector() - u_t.as_vector()).max())
        for u in (u_s, u_t):
            qdd = dynamics.forward_dynamics(model, q, qd, u.as_tau())
            worst_closure = max(worst_closure, np.abs(qdd[2:] - ydd).max())
    ok = worst_closure < 1e-7 and worst_agree < 1e-6
    return PropertyResult("feedback linearization exact (both forms)", ok,
                          f"closure {worst_closure:.2e}, agreement {worst_agree:.2e}")


def check_transform_consistency(model, rng, n_states=50):
    worst = 0.0
    for _ in range(n_states):
        q, qd = random_state(rng, model)
        ev = dynamics.evaluate(model, q, qd)
        tau = rng.uniform(-5.0, 5.0, model.dof)
        tau[:2] = 0.0
        qdd = ev.forward(tau)
        tt = ev.transformed
        lhs = tt.Mbar @ (tt.T @ qdd + tt.Tdot @ qd) + tt.Cbar @ (tt.T @ qd) + tt.gbar
        rhs = np.linalg.solve(tt.T.T, tau)
        worst = max(worst, np.abs(lhs - rhs).max() / (1.0 + np.abs(rhs).max()))
    ok = worst < 1e-6
    return PropertyResult("transformed dynamics consistent", ok,
                          f"max rel dev {worst:.2e} (tol 1e-6)")


def check_com_jacobian(model, rng, n_states=30):
    h = 1e-7
    worst = 0.0
    for _ in range(n_states):
        q, _ = random_state(rng, model)
        J = engine.assemble1(model, q).Jcom[0]
        for i in range(model.dof):
            e = np.zeros(model.dof)
            e[i] = h
            col = (engine.assemble1(model, q + e).com[0]
                   - engine.assemble1(model, q - e).com[0]) / (2.0 * h)
            worst = max(worst, np.abs(J[:, i] - col).max())
    ok = worst < 1e-6
    return PropertyResult("CoM Jacobian matches finite differences", ok,
                          f"max dev {worst:.2e} (tol 1e-6)")


def check_equilibrium(model, rng):
    del rng
    qr_des = np.concatenate([[np.pi / 4, np.pi / 2], np.zeros(model.n_links - 2)])
    qm = solve_equilibrium_qm(model, qr_des)
    res = float(np.linalg.norm(balance_residual(model, qm, qr_des)))
    ok = res < 1e-10
    return PropertyResult("static mover balance residual", ok,
                          f"|g_phi| = {res:.2e} at qm* = {np.round(qm, 5)}")


def check_energy(model, rng):
    del rng
    from . import sim
    q0 = np.zeros(model.dof)
    q0[0] = 0.1
    sc = sim.Scenario(model=model, controller="free", q0=q0, dt=1e-3,
                      duration=2.0, decimation=5, label="verify-energy")
    traj, rep = sim.run(sc)
    e = traj.e_kin + traj.e_pot
    drift = np.abs(e - e[0]).max() / max(1.0, abs(e[0]))
    audit = rep.energy_audit["relative_defect"]
    ok = drift < 1e-8 and audit < sim.ENERGY_AUDIT_RTOL
    return PropertyResult("free-swing energy conservation", ok,
                          f"rel drift {drift:.2e}, power audit {audit:.2e}")


ALL_CHECKS = (
    check_mass_matrix,
    check_gravity_gradient,
    check_skew_symmetry,
    check_pfl,
    check_transform_consistency,
    check_com_jacobian,
    check_equilibrium,
    check_energy,
)


def run_all(model=None, seed=0, out=print):
    """Run every property check; returns True iff all pass."""
    model = model or preset_paper(3)
    results = []
    for check in ALL_CHECKS:
        rng = np.random.default_rng(seed)
        results.append(check(model, rng))
    width = max(len(r.name) for r in results)
    all_ok = True
    for r in results:
        flag = "PASS" if r.passed else "FAIL"
        out(f"  [{flag}] {r.name:<{width}}  {r.detail}")
        all_ok = all_ok and r.passed
    return all_ok
