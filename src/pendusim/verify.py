"""Runtime self-verification: the dynamics and control identities checked
over seeded random in-envelope states, plus two checks with fixed inputs
(static mover balance, free-swing energy), printed as a pass/fail table.

These are the same properties the test suite asserts; having them callable
from the command line makes any installation checkable without pytest.
Derivatives are exact: each is the imaginary part of one assembly of complex
configurations q + i h d (complex step, ``dynamics.derivatives``), so the
identities hold to roundoff.
"""

from dataclasses import dataclass

import numpy as np

from . import dynamics, engine
from .control import (BALANCE_TOL, NoConvergenceError, balance_residual,
                      pfl_input, pfl_input_transformed, solve_equilibrium_qm)
from .model import preset_paper

N_STATES = 50           # random states per property check


@dataclass
class PropertyResult:
    name: str
    passed: bool
    detail: str


def random_state(rng, model):
    """In-envelope random configuration and velocity: roll and pitch within
    0.35 rad, yaw and joints within 1 rad, movers within 0.5 m, rates within
    0.8 per second."""
    q = np.concatenate([
        rng.uniform(-0.35, 0.35, 2),
        rng.uniform(-1.0, 1.0, 1),
        rng.uniform(-0.5, 0.5, 2),
        rng.uniform(-1.0, 1.0, model.n_links),
    ])
    qd = rng.uniform(-0.8, 0.8, model.dof)
    return q, qd


def check_mass_matrix(model, rng):
    worst_sym, min_eig = 0.0, np.inf
    for _ in range(200):        # one real assembly each
        q, _ = random_state(rng, model)
        M = engine.assemble1(model, q).M[0]
        worst_sym = max(worst_sym, np.abs(M - M.T).max() / np.abs(M).max())
        min_eig = min(min_eig, np.linalg.eigvalsh(M).min())
    ok = worst_sym < 1e-10 and min_eig > 0.0
    return PropertyResult("mass-matrix symmetric positive definite", ok,
                          f"max rel asym {worst_sym:.2e}, min eig {min_eig:.3e}")


def check_gravity_gradient(model, rng):
    """g against dV/dq, both from one assembly of the rows q + i h e_k."""
    worst = 0.0
    for _ in range(N_STATES):
        q, _ = random_state(rng, model)
        a = dynamics.derivatives(model, q, np.eye(model.dof))
        g = a.g[0].real
        dV = a.V.imag / dynamics.CS_STEP
        worst = max(worst, np.abs(g - dV).max() / (1.0 + np.abs(g).max()))
    ok = worst < 1e-10
    return PropertyResult("gravity equals potential gradient", ok,
                          f"max rel dev {worst:.2e} (tol 1e-10)")


def check_skew_symmetry(model, rng):
    """dM/dt - 2C skew-symmetric: C from Eval, dM/dt along qd from one
    assembly of the row q + i h qd."""
    worst = 0.0
    for _ in range(N_STATES):
        q, qd = random_state(rng, model)
        C = dynamics.Eval(model, q, qd).C
        Mdot = dynamics.derivatives(model, q, qd[None]).M[0].imag / dynamics.CS_STEP
        S = Mdot - 2.0 * C
        worst = max(worst, np.abs(0.5 * (S + S.T)).max() / (1.0 + float(qd @ qd)))
    ok = worst < 1e-10
    return PropertyResult("Coriolis skew symmetry", ok,
                          f"max scaled dev {worst:.2e} (tol 1e-10)")


def check_stage_terms(model, rng):
    """The bias and C_phim an RK4 stage reads from its one complex
    configuration against the full Christoffel C built from dM/dq."""
    worst_bias, worst_cphim = 0.0, 0.0
    for _ in range(N_STATES):
        q, qd = random_state(rng, model)
        ev = dynamics.Eval(model, q, qd)
        C = ev.C
        ref = C @ qd + ev.g
        worst_bias = max(worst_bias, np.abs(ev.bias - ref).max()
                         / (1.0 + np.abs(ref).max()))
        worst_cphim = max(worst_cphim, np.abs(ev.C_phim - C[0:2, 3:5]).max()
                          / (1.0 + np.abs(C).max()))
    ok = worst_bias < 1e-10 and worst_cphim < 1e-10
    return PropertyResult("stage terms match full Christoffel evaluation", ok,
                          f"bias {worst_bias:.2e}, C_phim {worst_cphim:.2e} "
                          "(tol 1e-10)")


def check_transform_blocks(model, rng):
    """The closed-form Mbar_cc and Mbar_cm against the blocks of the full
    T^-T M T^-1."""
    worst_cc, worst_cm = 0.0, 0.0
    for _ in range(N_STATES):
        q, qd = random_state(rng, model)
        ev = dynamics.Eval(model, q, qd)
        Tinv = np.linalg.inv(ev.T)
        Mbar = Tinv.T @ ev.M @ Tinv
        scale = np.abs(Mbar).max()
        worst_cc = max(worst_cc, np.abs(ev.Mbar_cc - Mbar[0:2, 0:2]).max() / scale)
        worst_cm = max(worst_cm, np.abs(ev.Mbar_cm - Mbar[0:2, 3:5]).max() / scale)
    ok = worst_cc < 1e-10 and worst_cm < 1e-10
    return PropertyResult("closed-form transform blocks match full transform", ok,
                          f"Mbar_cc {worst_cc:.2e}, Mbar_cm {worst_cm:.2e} "
                          "(tol 1e-10)")


def check_pfl(model, rng):
    worst_closure, worst_agree = 0.0, 0.0
    for _ in range(N_STATES):
        q, qd = random_state(rng, model)
        ev = dynamics.Eval(model, q, qd)
        ydd = rng.uniform(-2.0, 2.0, model.dof - 2)
        u_s = pfl_input(ev, ydd)
        u_t = pfl_input_transformed(ev, ydd)
        worst_agree = max(worst_agree, np.abs(u_s - u_t).max())
        for u in (u_s, u_t):
            qdd = dynamics.forward_dynamics(model, q, qd, np.r_[0.0, 0.0, u])
            worst_closure = max(worst_closure, np.abs(qdd[2:] - ydd).max())
    ok = worst_closure < 1e-7 and worst_agree < 1e-6
    return PropertyResult("feedback linearization exact (both forms)", ok,
                          f"closure {worst_closure:.2e}, agreement {worst_agree:.2e}")


def check_transform_consistency(model, rng):
    worst = 0.0
    for _ in range(N_STATES):
        q, qd = random_state(rng, model)
        ev = dynamics.Eval(model, q, qd)
        tau = rng.uniform(-5.0, 5.0, model.dof)
        tau[:2] = 0.0
        qdd = ev.forward(tau)
        lhs = ev.Mbar @ (ev.T @ qdd + ev.Tdot @ qd) + ev.Cbar @ (ev.T @ qd) + ev.gbar
        rhs = np.linalg.solve(ev.T.T, tau)
        worst = max(worst, np.abs(lhs - rhs).max() / (1.0 + np.abs(rhs).max()))
    ok = worst < 1e-6
    return PropertyResult("transformed dynamics consistent", ok,
                          f"max rel dev {worst:.2e} (tol 1e-6)")


def check_com_jacobian(model, rng):
    """Jcom against dcom/dq, both from one assembly of the rows q + i h e_k."""
    worst = 0.0
    for _ in range(N_STATES):
        q, _ = random_state(rng, model)
        a = dynamics.derivatives(model, q, np.eye(model.dof))
        worst = max(worst, np.abs(a.Jcom[0].real
                                  - a.com.imag.T / dynamics.CS_STEP).max())
    ok = worst < 1e-12
    return PropertyResult("CoM Jacobian matches its exact derivative", ok,
                          f"max dev {worst:.2e} (tol 1e-12)")


def check_equilibrium(model):
    """Static mover balance with the arm at (pi/4, pi/2, 0, ...), cut to the
    model's links; no balance point within mover travel is a failure."""
    name = "static mover balance residual"
    qr_des = np.r_[np.pi / 4, np.pi / 2, np.zeros(model.n_links)][:model.n_links]
    try:
        qm = solve_equilibrium_qm(model, qr_des)
    except NoConvergenceError as exc:
        return PropertyResult(name, False, "no balance point within mover "
                              f"travel: |g_phi| = {exc.residual:.2e} at "
                              f"qm = {np.round(exc.qm, 5)}")
    res = float(np.linalg.norm(balance_residual(model, qm, qr_des)))
    return PropertyResult(name, res < BALANCE_TOL,
                          f"|g_phi| = {res:.2e} at qm* = {np.round(qm, 5)}")


def check_energy(model):
    """Energy drift and power audit of a 2 s free swing from a 0.1 rad roll."""
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


# Checks over random states drawn from a seeded generator.
SEEDED_CHECKS = (
    check_mass_matrix,
    check_gravity_gradient,
    check_skew_symmetry,
    check_stage_terms,
    check_transform_blocks,
    check_pfl,
    check_transform_consistency,
    check_com_jacobian,
)

# Checks with fixed inputs: their result does not depend on the seed.
FIXED_CHECKS = (
    check_equilibrium,
    check_energy,
)


def seeded_results(model, seed):
    """Results of the seeded checks, each drawing from default_rng(seed)."""
    return [check(model, np.random.default_rng(seed)) for check in SEEDED_CHECKS]


def fixed_results(model):
    """Results of the fixed-input checks."""
    return [check(model) for check in FIXED_CHECKS]


def run_all(model=None, seed=0, out=print):
    """Run every property check; returns True iff all pass."""
    model = model or preset_paper(3)
    results = seeded_results(model, seed) + fixed_results(model)
    width = max(len(r.name) for r in results)
    all_ok = True
    for r in results:
        flag = "PASS" if r.passed else "FAIL"
        out(f"  [{flag}] {r.name:<{width}}  {r.detail}")
        all_ok = all_ok and r.passed
    return all_ok
