import numpy as np
import pytest
from scipy.optimize import root

from pendusim import control, dynamics, engine
from pendusim.control import (ControlInput, Gains, NoConvergenceError,
                              Setpoint, SingularCouplingError, default_gains,
                              make_controller, outer_refs, pfl_input_standard,
                              pfl_input_transformed, qm_ref_motivating,
                              qm_ref_proposed, qm_ref_remark1, qm_ref_remark2,
                              solve_equilibrium_qm)
from pendusim.model import SerialLink, State, SystemModel, preset_paper

QR_DES = np.array([np.pi / 4, np.pi / 2, 0.0])


@pytest.fixture(scope="module")
def desk():
    return preset_paper(3)


@pytest.fixture(scope="module")
def setpoint(desk):
    return Setpoint(0.0, QR_DES, solve_equilibrium_qm(desk, QR_DES))


@pytest.fixture(scope="module")
def gains():
    return Gains()


def random_state(rng, model, attitude=0.35, rate=0.8):
    q = np.concatenate([
        rng.uniform(-attitude, attitude, 2),
        rng.uniform(-1.0, 1.0, 1),
        rng.uniform(-0.5, 0.5, 2),
        rng.uniform(-1.0, 1.0, model.n_links),
    ])
    return State(0.0, q, rng.uniform(-rate, rate, model.dof))


def g_phi_at(model, qm, qr, gamma=0.0):
    q = np.concatenate([[0.0, 0.0, gamma], qm, qr])
    return engine.assemble1(model, q).g[0][0:2]


def test_gains_validation():
    with pytest.raises(ValueError):
        Gains(D_gamma=-1.0)
    with pytest.raises(ValueError):
        Gains(K_c=np.array([1.0, -1.0]))
    g = default_gains(7)
    assert g.D_r.shape == (7,)
    assert Gains().ratio_ok
    assert not Gains(D_m=np.full(2, 50.0)).ratio_ok


def test_outer_refs_at_setpoint(desk, setpoint, gains):
    q = np.concatenate([[0.0, 0.0, setpoint.gamma_des], setpoint.qm_star,
                        setpoint.qr_des])
    st = State(0.0, q, np.zeros(desk.dof))
    gdd, qrdd = outer_refs(st, setpoint, gains)
    assert gdd == 0.0
    assert np.abs(qrdd).max() == 0.0


def test_outer_refs_pd_arithmetic(desk, setpoint):
    gains = Gains(K_gamma=25.0, D_gamma=10.0)
    q = np.zeros(desk.dof)
    q[2] = setpoint.gamma_des + 0.1
    q[5:] = setpoint.qr_des
    st = State(0.0, q, np.zeros(desk.dof))
    gdd, _ = outer_refs(st, setpoint, gains)
    assert gdd == pytest.approx(-2.5, rel=1e-12)


def test_yaw_tracks_designed_second_order_poles(desk, setpoint, gains):
    """PFL makes yaw follow its PD reference exactly, so the closed-loop yaw
    error must match the analytic critically damped response within 2%."""
    from pendusim import sim
    q0 = np.concatenate([[0.0, 0.0, 0.3], setpoint.qm_star, setpoint.qr_des])
    sc = sim.Scenario(model=desk, controller="proposed", gains=gains,
                      setpoint=setpoint, q0=q0, dt=5e-3, duration=4.0,
                      decimation=4)
    traj, _ = sim.run(sc)
    # K_gamma = 25, D_gamma = 10: double pole at -5
    analytic = 0.3 * (1.0 + 5.0 * traj.t) * np.exp(-5.0 * traj.t)
    assert np.abs(traj.q[:, 2] - analytic).max() < 0.02 * 0.3


def test_control_input_layout(desk):
    u = ControlInput(1.5, np.array([2.0, 3.0]), np.array([4.0, 5.0, 6.0]))
    vec = u.as_vector()
    assert np.array_equal(vec, [1.5, 2, 3, 4, 5, 6])
    tau = u.as_tau()
    assert np.abs(tau[:2]).max() == 0.0
    assert np.array_equal(tau[2:], vec)


def test_motivating_law_trivial_zero(desk, gains):
    # at phi=0, rates=0, g_phi=0 every term vanishes
    st = State(0.0, np.zeros(desk.dof), np.zeros(desk.dof))
    terms = dynamics.dynamics_terms(desk, st.q, st.qd)
    assert np.abs(qm_ref_motivating(st, terms, gains)).max() < 1e-12


def test_motivating_law_internal_dynamics_residual(desk, gains):
    """Substituting the commanded mover acceleration into the roll/pitch rows
    must leave exactly the designed PD dynamics."""
    rng = np.random.default_rng(30)
    for _ in range(25):
        st = random_state(rng, desk)
        terms = dynamics.dynamics_terms(desk, st.q, st.qd)
        qmdd = qm_ref_motivating(st, terms, gains)
        lhs = (terms.M_phim @ qmdd + terms.C_phim @ st.qd[3:5] + terms.g_phi)
        designed = gains.D_phi * st.qd[0:2] + gains.K_phi * st.q[0:2]
        assert np.abs(lhs - designed).max() < 1e-9 * (1.0 + np.abs(designed).max())


def test_motivating_singular_coupling_guard(desk, gains, monkeypatch):
    st = State(0.0, np.zeros(desk.dof), np.zeros(desk.dof))
    terms = dynamics.dynamics_terms(desk, st.q, st.qd)
    monkeypatch.setattr(control, "M_PHIM_COND_LIMIT", 0.5)
    with pytest.raises(SingularCouplingError):
        qm_ref_motivating(st, terms, gains)


def test_remark1_trivial_zero(desk, gains):
    st = State(0.0, np.zeros(desk.dof), np.zeros(desk.dof))
    tt = dynamics.transform(desk, st.q, st.qd)
    assert np.abs(qm_ref_remark1(st, tt, gains)).max() < 1e-12


def test_remark1_pushes_com_back(desk, gains):
    """A CoM offset at rest must command mover acceleration whose CoM effect
    opposes the offset."""
    rng = np.random.default_rng(31)
    hits = 0
    for _ in range(25):
        q = np.zeros(desk.dof)
        q[3:5] = rng.uniform(-0.3, 0.3, 2)
        q[5:] = rng.uniform(-0.5, 0.5, 3)
        st = State(0.0, q, np.zeros(desk.dof))
        ev = dynamics.evaluate(desk, st.q, st.qd)
        xc = ev.com
        if np.linalg.norm(xc) < 1e-6:
            continue
        qmdd = qm_ref_remark1(st, ev.transformed, gains)
        com_acc = -np.linalg.solve(ev.transformed.Mbar_cc,
                                   ev.transformed.Mbar_cm @ qmdd)
        assert float(com_acc @ xc) < 0.0
        hits += 1
    assert hits >= 20


def test_remark2_trivial_zero(desk, setpoint, gains):
    q = np.concatenate([[0.0, 0.0, 0.0], setpoint.qm_star, setpoint.qr_des])
    st = State(0.0, q, np.zeros(desk.dof))
    terms = dynamics.dynamics_terms(desk, st.q, st.qd)
    assert np.abs(qm_ref_remark2(st, terms, setpoint, gains)).max() < 1e-10


def _rest_residual_remark2(model, setpoint, gains, x):
    """Stationarity of the remark-2 closed loop at zero rates."""
    phi, qm = x[0:2], x[2:4]
    q = np.concatenate([phi, [0.0], qm, setpoint.qr_des])
    terms = dynamics.dynamics_terms(model, q, np.zeros(model.dof))
    lhs = np.linalg.solve(terms.M_phim, gains.K_phi * phi)
    return np.concatenate([lhs - gains.K_m * (qm - setpoint.qm_star),
                           terms.g_phi])


def _closed_loop_top_eigenvalue(model, name, gains, setpoint):
    """Largest-real-part eigenvalue of the linearized closed loop at the
    target equilibrium."""
    N = model.dof
    ctrl = make_controller(name, gains, setpoint)
    x0 = np.concatenate([[0.0, 0.0, setpoint.gamma_des], setpoint.qm_star,
                         setpoint.qr_des, np.zeros(N)])

    def rhs(x):
        ev = dynamics.Eval(model, x[:N], x[N:],
                           need_transform=ctrl.needs_transform)
        u = ctrl.u_vector(ev)
        X = ev.act_solve()
        return np.concatenate([x[N:], X[:, :-1] @ u - X[:, -1]])

    h = 1e-6
    J = np.zeros((2 * N, 2 * N))
    for i in range(2 * N):
        e = np.zeros(2 * N)
        e[i] = h
        J[:, i] = (rhs(x0 + e) - rhs(x0 - e)) / (2.0 * h)
    lam = np.linalg.eigvals(J)
    return lam[np.argmax(lam.real)]


def test_remark2_equilibrium_found_but_not_attracting(desk, setpoint):
    """For this realization the rest conditions pin a single in-envelope
    equilibrium, yet the remark-2 closed loop is not asymptotically stable
    there: the mover PD fights the roll/pitch cancellation and leaves an
    oscillatory mode with nonnegative growth."""
    gains = Gains(K_phi=np.full(2, 4300.0), D_phi=np.full(2, 100.0),
                  K_m=np.full(2, 3.0), D_m=np.full(2, 0.05))
    rng = np.random.default_rng(32)
    roots = []
    for _ in range(20):
        x0 = np.concatenate([rng.uniform(-0.3, 0.3, 2),
                             rng.uniform(-0.6, 0.6, 2)])
        sol = root(lambda x: _rest_residual_remark2(desk, setpoint, gains, x),
                   x0, tol=1e-12)
        if sol.success and np.linalg.norm(sol.fun) < 1e-8:
            roots.append(sol.x)
    assert len(roots) >= 10
    target = np.concatenate([[0.0, 0.0], setpoint.qm_star])
    for r in roots:
        assert np.linalg.norm(r - target) < 1e-6
    lam = _closed_loop_top_eigenvalue(desk, "remark2", gains, setpoint)
    assert lam.real > -1e-5
    assert abs(lam.imag) > 0.5


def test_closed_loop_eigenstructure_trichotomy(desk, setpoint):
    """motivating leaves an undamped mover center, the proposed law is
    solidly attracting, and remark2 sits in between (non-attracting)."""
    lam_m = _closed_loop_top_eigenvalue(desk, "motivating", Gains(), setpoint)
    assert abs(lam_m.real) < 1e-6 and abs(lam_m.imag) > 0.5
    lam_p = _closed_loop_top_eigenvalue(desk, "proposed", Gains(), setpoint)
    assert lam_p.real < -0.05


def _rest_residual_proposed(model, setpoint, gains, x):
    """Stationarity of the proposed closed loop at zero rates: the commanded
    mover acceleration is zero and the CoM equation reduces to gbar_c = 0."""
    phi, qm = x[0:2], x[2:4]
    q = np.concatenate([phi, [0.0], qm, setpoint.qr_des])
    ev = dynamics.evaluate(model, q, np.zeros(model.dof))
    tt = ev.transformed
    ref = tt.Mbar_cm.T @ (gains.K_c * tt.xc) - gains.K_m * (qm - setpoint.qm_star)
    return np.concatenate([ref, tt.gbar_c])


def test_proposed_trivial_zero(desk, setpoint, gains):
    q = np.concatenate([[0.0, 0.0, 0.0], setpoint.qm_star, setpoint.qr_des])
    st = State(0.0, q, np.zeros(desk.dof))
    tt = dynamics.transform(desk, st.q, st.qd)
    assert np.abs(qm_ref_proposed(st, tt, setpoint, gains)).max() < 1e-9


def test_proposed_equilibrium_unique(desk, setpoint, gains):
    """All rest-condition roots from scattered seeds collapse onto the single
    cluster (x_c, q_m) = (0, q_m*)."""
    rng = np.random.default_rng(33)
    roots = []
    for _ in range(20):
        x0 = np.concatenate([rng.uniform(-0.3, 0.3, 2),
                             rng.uniform(-0.6, 0.6, 2)])
        sol = root(lambda x: _rest_residual_proposed(desk, setpoint, gains, x),
                   x0, tol=1e-12)
        if sol.success and np.linalg.norm(sol.fun) < 1e-8:
            roots.append(sol.x)
    assert len(roots) >= 10
    target = np.concatenate([[0.0, 0.0], setpoint.qm_star])
    for r in roots:
        assert np.linalg.norm(r - target) < 1e-6


def test_pfl_exactness_and_agreement(desk):
    rng = np.random.default_rng(34)
    for _ in range(30):
        st = random_state(rng, desk)
        ev = dynamics.evaluate(desk, st.q, st.qd)
        ydd = rng.uniform(-2.0, 2.0, desk.dof - 2)
        u_s = pfl_input_standard(st, ev.terms, ydd)
        u_t = pfl_input_transformed(st, ev.transformed, ydd)
        assert np.abs(u_s.as_vector() - u_t.as_vector()).max() < 1e-6
        for u in (u_s, u_t):
            tau = u.as_tau()
            assert np.abs(tau[:2]).max() == 0.0
            qdd = dynamics.forward_dynamics(desk, st.q, st.qd, tau)
            assert np.abs(qdd[2:] - ydd).max() < 1e-7


def test_pfl_static_gravity_balance(desk, setpoint):
    """Zero reference acceleration at the equilibrium puts the whole system
    at rest: u balances gravity of the actuated coordinates."""
    q = np.concatenate([[0.0, 0.0, 0.0], setpoint.qm_star, setpoint.qr_des])
    st = State(0.0, q, np.zeros(desk.dof))
    ev = dynamics.evaluate(desk, st.q, st.qd)
    u = pfl_input_standard(st, ev.terms, np.zeros(desk.dof - 2))
    qdd = dynamics.forward_dynamics(desk, st.q, st.qd, u.as_tau())
    assert np.abs(qdd).max() < 1e-9


def test_equilibrium_solver_symmetric_arm(desk):
    qm = solve_equilibrium_qm(desk, np.zeros(3))
    assert np.abs(qm).max() < 1e-12


def test_equilibrium_solver_desk(desk):
    qm = solve_equilibrium_qm(desk, QR_DES)
    assert np.linalg.norm(g_phi_at(desk, qm, QR_DES)) < 1e-10
    # the slewed arm leans toward +x, +y, so both movers counterweight
    assert qm[0] < -0.05 and qm[1] < -0.05


def test_equilibrium_solver_paper7_grid_oracle():
    model = preset_paper(7)
    qr = np.concatenate([[np.pi / 4, np.pi / 2], np.zeros(5)])
    qm = solve_equilibrium_qm(model, qr)
    assert np.linalg.norm(g_phi_at(model, qm, qr)) < 1e-10
    # brute-force grid search over the travel box confirms the root
    grid = np.linspace(-0.8, 0.8, 81)
    Q = np.zeros((81 * 81, model.dof))
    Q[:, 5:7] = [np.pi / 4, np.pi / 2]
    mesh = np.array(np.meshgrid(grid, grid, indexing="ij")).reshape(2, -1).T
    Q[:, 3:5] = mesh
    res = np.linalg.norm(engine.assemble(model, Q).g[:, 0:2], axis=1)
    best = mesh[np.argmin(res)]
    assert np.linalg.norm(best - qm) < 0.02  # within one cell of the coarse grid


def test_equilibrium_solver_unreachable(desk):
    heavy = tuple(SerialLink(l.parent_offset, l.axis, l.mass * 10.0,
                             l.com_offset, l.inertia * 10.0)
                  for l in desk.links)
    model = SystemModel(platform=desk.platform, movers=desk.movers, links=heavy)
    with pytest.raises(NoConvergenceError) as err:
        solve_equilibrium_qm(model, QR_DES)
    assert err.value.residual > 1.0


def test_controller_matches_public_laws(desk, setpoint, gains):
    """The simulation controller's inlined computations must reproduce the
    public law functions composed with the standard PFL input."""
    rng = np.random.default_rng(35)
    g5 = Gains(K_phi=np.full(2, 4300.0), D_phi=np.full(2, 100.0),
               K_m=np.full(2, 3.0), D_m=np.full(2, 0.05))
    for name, gset in (("motivating", gains), ("remark1", gains),
                       ("remark2", g5), ("proposed", gains)):
        ctrl = make_controller(name, gset, setpoint)
        for _ in range(10):
            st = random_state(rng, desk)
            ev = dynamics.evaluate(desk, st.q, st.qd)
            gdd, qrdd = outer_refs(st, setpoint, gset)
            if name == "motivating":
                qmdd = qm_ref_motivating(st, ev.terms, gset)
            elif name == "remark1":
                qmdd = qm_ref_remark1(st, ev.transformed, gset)
            elif name == "remark2":
                qmdd = qm_ref_remark2(st, ev.terms, setpoint, gset)
            else:
                qmdd = qm_ref_proposed(st, ev.transformed, setpoint, gset)
            ydd = np.concatenate([[gdd], qmdd, qrdd])
            u_ref = pfl_input_standard(st, ev.terms, ydd).as_vector()
            u_ctrl = ctrl.u_vector(ev)
            assert np.abs(u_ref - u_ctrl).max() < 1e-9 * (1.0 + np.abs(u_ref).max())


def test_controller_factory(desk, setpoint, gains):
    for name in ("motivating", "remark1", "remark2", "proposed", "free"):
        ctrl = make_controller(name, gains, setpoint)
        ev = dynamics.evaluate(desk, np.zeros(desk.dof), np.zeros(desk.dof))
        u = ctrl.u_vector(ev)
        assert u.shape == (desk.dof - 2,)
        assert np.all(np.isfinite(u))
    with pytest.raises(ValueError):
        make_controller("nonsense", gains, setpoint)
    with pytest.raises(ValueError):
        make_controller("proposed")


def test_proposed_gain_ordering_warning(desk, setpoint, caplog):
    import logging
    bad = Gains(D_m=np.full(2, 500.0), K_m=np.full(2, 500.0))
    with caplog.at_level(logging.WARNING, logger="pendusim.control"):
        make_controller("proposed", bad, setpoint)
    assert any("gain ordering" in r.message for r in caplog.records)
