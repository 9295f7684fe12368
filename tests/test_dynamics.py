import dataclasses

import numpy as np
import pytest

import oracles
from pendusim import control, dynamics, engine
from pendusim.dynamics import Eval, IllConditionedTransformError, forward_dynamics
from pendusim.model import State, model_from_dict, preset_paper

# Every array an engine.Assembled carries, views and first-read terms included.
ASSEMBLED_FIELDS = ("link_origin", "p_bodies", "J", "H", "HJ", "Jv", "Jw", "Iw",
                    "M", "g", "V", "com", "Jcom")


@pytest.fixture(scope="module")
def desk():
    return preset_paper(3)


def random_state(rng, model, attitude=0.35, rate=0.8):
    q = np.concatenate([
        rng.uniform(-attitude, attitude, 2),
        rng.uniform(-1.0, 1.0, 1),
        rng.uniform(-0.5, 0.5, 2),
        rng.uniform(-1.0, 1.0, model.n_links),
    ])
    return q, rng.uniform(-rate, rate, model.dof)


def test_mass_matrix_symmetric_positive_definite(desk):
    rng = np.random.default_rng(10)
    for _ in range(200):
        q, _ = random_state(rng, desk)
        M = engine.assemble1(desk, q).M[0]
        assert np.abs(M - M.T).max() < 1e-10 * np.abs(M).max()
        assert np.linalg.eigvalsh(M).min() > 0.0


def test_mass_matrix_zero_configuration_structure(desk):
    M = engine.assemble1(desk, np.zeros(desk.dof)).M[0]
    assert M[2, 2] > 0.0
    assert abs(M[0, 2]) < 1e-12          # yaw decouples from roll
    assert M[3, 3] == pytest.approx(10.0, rel=1e-12)  # bare mover mass


def test_mass_matrix_against_kinetic_energy_hessian(desk):
    rng = np.random.default_rng(11)
    for _ in range(20):
        q, _ = random_state(rng, desk)
        M = engine.assemble1(desk, q).M[0]
        H = oracles.mass_matrix(desk, q)
        assert np.abs(M - H).max() < 1e-8 * max(1.0, np.abs(M).max())


def test_kinetic_energy_matches_independent_summation(desk):
    rng = np.random.default_rng(12)
    for _ in range(20):
        q, qd = random_state(rng, desk)
        ke = Eval(desk, q, qd).kinetic_energy()
        assert ke == pytest.approx(oracles.kinetic_energy(desk, q, qd),
                                   rel=1e-10)


@pytest.mark.parametrize("n_links", [0, 3, 7])
def test_batched_assembly_matches_single_configurations(n_links):
    """Each row of a batched engine.assemble is bit-identical to assembling
    its configuration alone, at batch sizes with and without an Eval
    stencil's, and the mass matrix matches the kinetic-energy Hessian.  The
    potential is the exception: numpy sums one row's CoM heights through
    BLAS and a batch's in a plain loop, so the two may differ in the last
    bit."""
    base = preset_paper(7 if n_links == 7 else 3)
    model = base if n_links else dataclasses.replace(base, links=())
    rng = np.random.default_rng(40 + n_links)
    for B in (2, 5, 2 * model.dof - 1):
        Q = np.array([random_state(rng, model)[0] for _ in range(B)])
        batch = engine.assemble(model, Q)
        for i in range(B):
            one = engine.assemble1(model, Q[i])
            for name in ASSEMBLED_FIELDS:
                if name != "V":
                    assert np.array_equal(getattr(batch, name)[i],
                                          getattr(one, name)[0]), name
            assert batch.V[i] == pytest.approx(one.V[0], rel=1e-14, abs=1e-14)
    for q in Q[:2]:
        M = engine.assemble1(model, q).M[0]
        H = oracles.mass_matrix(model, q)
        assert np.abs(M - H).max() < 1e-8 * max(1.0, np.abs(M).max())


@pytest.mark.parametrize("n_links", [0, 3, 7])
def test_assembled_spatial_form(n_links):
    """J stacks each body's point rows over its angular rows, with Jv and Jw
    views of it; H is diag(m I3, Iw) with Iw a view; M is sym(J' H J), the
    sum of the per-body point and rotational terms, and HJ is H J."""
    base = preset_paper(7 if n_links == 7 else 3)
    model = base if n_links else dataclasses.replace(base, links=())
    rng = np.random.default_rng(70 + n_links)
    Q = np.array([random_state(rng, model)[0] for _ in range(3)])
    for a in (engine.assemble(model, Q),
              engine.assemble(model, dynamics._complex_rows(Q[0], 1e-20 * Q[1:2]))):
        B, nb, N = len(a.M), model.n_bodies, model.dof
        assert a.J.shape == (B, nb, 6, N) and a.H.shape == (B, nb, 6, 6)
        assert np.shares_memory(a.Jv, a.J) and np.shares_memory(a.Jw, a.J)
        assert np.shares_memory(a.Iw, a.H)
        assert np.array_equal(a.J[..., 0:3, :], a.Jv)
        assert np.array_equal(a.J[..., 3:6, :], a.Jw)
        assert np.array_equal(a.H[..., 3:6, 3:6], a.Iw)
        masses = np.r_[model.platform.mass, model.movers.mass, model.movers.mass,
                       [link.mass for link in model.links]]
        assert (a.H[..., 0:3, 0:3] == masses[:, None, None] * np.eye(3)).all()
        assert not a.H[..., 0:3, 3:6].any() and not a.H[..., 3:6, 0:3].any()
        assert not a.Iw[:, 1:3].any()                # point-mass movers
        JHJ = np.einsum("bkri,bkrs,bksj->bij", a.J, a.H, a.J)
        parts = (np.einsum("k,bkri,bkrj->bij", masses, a.Jv, a.Jv)
                 + np.einsum("bkri,bkrs,bksj->bij", a.Jw, a.Iw, a.Jw))
        scale = np.abs(a.M).max()
        for ref in (0.5 * (JHJ + JHJ.transpose(0, 2, 1)), parts):
            assert np.abs(a.M - ref).max() <= 1e-14 * scale
        assert np.abs(a.HJ - a.H @ a.J).max() == 0.0


def test_gravity_zero_at_symmetric_hang(desk):
    g = engine.assemble1(desk, np.zeros(desk.dof)).g[0]
    assert np.abs(g[0:2]).max() < 1e-12


def test_gravity_mover_offset_pitch_torque(desk):
    q = np.zeros(desk.dof)
    q[3] = 0.4
    g = engine.assemble1(desk, q).g[0]
    assert abs(g[1]) > 1.0

    def V(q):
        return Eval(desk, q, np.zeros(desk.dof)).V

    # the gradient points uphill: tipping the offset mass down lowers V
    h = 1e-4
    qp = q.copy()
    qp[1] = -np.sign(g[1]) * h
    assert V(qp) < V(q)
    # and matches a plain central difference of V at the documented step
    gfd = (V(q + np.eye(desk.dof)[1] * 1e-7) - V(q - np.eye(desk.dof)[1] * 1e-7)) / 2e-7
    assert abs(g[1] - gfd) < 1e-6 * (1.0 + abs(g[1]))


def test_gravity_matches_potential_gradient(desk):
    rng = np.random.default_rng(13)
    for _ in range(100):
        q, _ = random_state(rng, desk)
        g = engine.assemble1(desk, q).g[0]
        ref = oracles.gravity_cs(desk, q)
        assert np.abs(g - ref).max() < 1e-6 * (1.0 + np.abs(ref).max())


def test_coriolis_vanishes_at_rest(desk):
    rng = np.random.default_rng(14)
    q, _ = random_state(rng, desk)
    assert np.abs(Eval(desk, q, np.zeros(desk.dof)).C).max() == 0.0


def test_skew_symmetry(desk):
    rng = np.random.default_rng(15)
    h = 1e-6
    for _ in range(100):
        q, qd = random_state(rng, desk)
        C = Eval(desk, q, qd).C
        Mdot = (engine.assemble1(desk, q + h * qd).M[0]
                - engine.assemble1(desk, q - h * qd).M[0]) / (2.0 * h)
        S = Mdot - 2.0 * C
        qn2 = float(qd @ qd)
        assert abs(qd @ S @ qd) < 1e-5 * (1.0 + qn2)
        assert np.abs(0.5 * (S + S.T)).max() < 1e-5 * (1.0 + qn2)


def test_mass_matrix_yaw_invariance(desk):
    # the Coriolis construction skips d/d(gamma); kinetic energy is invariant
    # under yaw, so M at finitely shifted yaw must match to roundoff
    rng = np.random.default_rng(16)
    for _ in range(10):
        q, _ = random_state(rng, desk)
        q2 = q.copy()
        q2[2] += 0.7
        M1, M2 = engine.assemble1(desk, q).M[0], engine.assemble1(desk, q2).M[0]
        assert np.abs(M1 - M2).max() < 1e-10 * np.abs(M1).max()


def test_forward_dynamics_equilibrium(desk):
    qdd = forward_dynamics(desk, np.zeros(desk.dof), np.zeros(desk.dof),
                           np.zeros(desk.dof))
    assert np.abs(qdd).max() < 1e-12


def test_forward_dynamics_residual(desk):
    rng = np.random.default_rng(17)
    for _ in range(50):
        q, qd = random_state(rng, desk)
        tau = rng.uniform(-200.0, 200.0, desk.dof)
        tau[:2] = 0.0
        qdd = forward_dynamics(desk, q, qd, tau)
        ev = Eval(desk, q, qd)
        res = ev.M @ qdd + ev.C @ qd + ev.g - tau
        assert np.abs(res).max() < 1e-9 * max(1.0, np.abs(tau).max())


def test_forward_dynamics_rejects_nonfinite(desk):
    with pytest.raises(ValueError):
        forward_dynamics(desk, np.zeros(desk.dof), np.zeros(desk.dof),
                         np.full(desk.dof, np.inf))


def test_transform_rows_and_blocks(desk):
    rng = np.random.default_rng(18)
    q, qd = random_state(rng, desk)
    ev = Eval(desk, q, qd)
    assert np.array_equal(ev.T[0:2], engine.assemble1(desk, q).Jcom[0])
    assert np.array_equal(ev.T[2:, 2:], np.eye(desk.dof - 2))
    # u never enters the first two transformed equations
    TinvT = np.linalg.inv(ev.T).T
    assert np.abs(TinvT[0:2, 2:]).max() < 1e-14
    # the closed-form Mbar blocks agree with the full T^-T M T^-1; the other
    # block views address the parent matrices exactly
    Mbar = TinvT @ ev.M @ TinvT.T
    scale = np.abs(Mbar).max()
    assert np.abs(ev.Mbar_cm - Mbar[0:2, 3:5]).max() <= 1e-12 * scale
    assert np.abs(ev.Mbar_cc - Mbar[0:2, 0:2]).max() <= 1e-12 * scale
    assert np.array_equal(ev.M_phim, ev.M[0:2, 3:5])
    assert np.array_equal(ev.g_phi, ev.g[0:2])


def test_phim_block_sign_pattern(desk):
    terms = Eval(desk, np.zeros(desk.dof), np.zeros(desk.dof))
    lever = desk.movers.mass * (desk.platform.wire_length
                                - desk.platform.rail_height)
    assert terms.M_phim[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert terms.M_phim[1, 1] == pytest.approx(0.0, abs=1e-12)
    assert terms.M_phim[0, 1] == pytest.approx(lever, rel=1e-12)
    assert terms.M_phim[1, 0] == pytest.approx(-lever, rel=1e-12)


def test_transformed_dynamics_consistency(desk):
    rng = np.random.default_rng(19)
    for _ in range(100):
        q, qd = random_state(rng, desk)
        ev = Eval(desk, q, qd)
        tau = rng.uniform(-50.0, 50.0, desk.dof)
        tau[:2] = 0.0
        qdd = ev.forward(tau)
        qbar_dd = ev.T @ qdd + ev.Tdot @ qd
        lhs = ev.Mbar @ qbar_dd + ev.Cbar @ (ev.T @ qd) + ev.gbar
        rhs = np.linalg.solve(ev.T.T, tau)
        assert np.abs(lhs - rhs).max() < 1e-6 * (1.0 + np.abs(rhs).max())


def test_transform_condition_guard(desk, monkeypatch):
    """The attitude-block guard runs when the closed-form blocks are first
    read: an evaluation builds with no recorded condition number, then
    raises on Mbar_cm.  An exact condition number is at least 1, so the
    limit is set under it."""
    monkeypatch.setattr(dynamics, "COND_LIMIT", 0.5)
    ev = Eval(desk, np.zeros(desk.dof), np.zeros(desk.dof))
    assert ev.conds == {}
    with pytest.raises(IllConditionedTransformError):
        ev.Mbar_cm


def test_guard2_records_exact_condition_and_rejects(desk):
    """The one 2x2 guard records the exact condition number, 1 for a scaled
    rotation, and raises on a singular or non-finite block."""
    ev = Eval(desk, np.zeros(desk.dof), np.zeros(desk.dof))
    ev.guard2("rotation", [[0.0, 3.0], [-3.0, 0.0]], IllConditionedTransformError)
    ev.guard2("diagonal", [[2.0, 0.0], [0.0, 0.5]], IllConditionedTransformError)
    assert ev.conds == {"rotation": 1.0, "diagonal": 4.0}
    for bad in ([[1.0, 2.0], [2.0, 4.0]], [[np.nan, 0.0], [0.0, 1.0]]):
        with pytest.raises(IllConditionedTransformError):
            ev.guard2("bad", bad, IllConditionedTransformError)


def test_energy_definitions(desk):
    assert Eval(desk, np.zeros(desk.dof), np.zeros(desk.dof)).V == 0.0
    rng = np.random.default_rng(20)
    q, qd = random_state(rng, desk)
    assert Eval(desk, q, qd).kinetic_energy() == pytest.approx(
        0.5 * qd @ engine.assemble1(desk, q).M[0] @ qd, rel=1e-12)
    assert Eval(desk, q, np.zeros(desk.dof)).kinetic_energy() == 0.0


def test_free_oscillation_matches_linearized_frequency(desk):
    """Release from a small roll with outputs frozen by exact PFL; the swing
    period must match the linearized constrained dynamics to 1 percent."""
    from pendusim import sim

    q0 = np.zeros(desk.dof)
    q0[0] = 0.05

    # linearize the constrained roll/pitch dynamics at the hang
    h = 1e-6
    K = np.zeros((2, 2))
    for i in range(2):
        e = np.zeros(desk.dof)
        e[i] = h
        K[:, i] = (engine.assemble1(desk, e).g[0][0:2]
                   - engine.assemble1(desk, -e).g[0][0:2]) / (2.0 * h)
    Mp = engine.assemble1(desk, np.zeros(desk.dof)).M[0][0:2, 0:2]
    w_lin = np.sqrt(np.linalg.eigvals(np.linalg.solve(Mp, K)).real)

    class Hold:
        """Bare u with qdd[2:] = 0, from this test's own solve on M; the
        stage integrates it through forward dynamics."""
        name = "hold"

        @staticmethod
        def u_vector(ev):
            X = np.linalg.solve(ev.M, np.column_stack([np.eye(ev.model.dof)[:, 2:],
                                                       ev.bias]))
            return np.linalg.solve(X[2:, :-1], X[2:, -1])

    controller = Hold()
    state = State(0.0, q0, np.zeros(desk.dof))
    ts, alphas = [0.0], [q0[0]]
    for _ in range(int(20.0 / 2e-3)):
        state = sim.step(desk, state, controller, 2e-3)
        ts.append(state.t)
        alphas.append(state.q[0])
    alphas = np.array(alphas)
    ts = np.array(ts)
    crossings = ts[1:][np.diff(np.sign(alphas)) != 0]
    periods = 2.0 * np.diff(crossings)
    w_sim = 2.0 * np.pi / periods.mean()
    assert w_sim == pytest.approx(w_lin.min(), rel=0.01)


def _random_spd(rng, scale):
    A = rng.normal(size=(3, 3))
    return scale * (A @ A.T + 0.5 * np.eye(3))


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def random_model(rng, n_links):
    """A non-preset model: skewed, x-, y- and z-axis joints, offset joints and
    CoMs, full (non-diagonal) inertias."""
    axes = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
    links = []
    for k in range(n_links):
        axis = axes[k] if k < 3 else _unit(rng.normal(size=3))
        links.append({
            "parent_offset": rng.uniform(-0.2, 0.2, 3).tolist(),
            "axis": list(axis),
            "mass": float(rng.uniform(0.5, 5.0)),
            "com_offset": rng.uniform(-0.2, 0.2, 3).tolist(),
            "inertia": _random_spd(rng, 0.05).tolist(),
        })
    return model_from_dict({
        "platform": {
            "mass": float(rng.uniform(5.0, 15.0)),
            "inertia": _random_spd(rng, 1.0).tolist(),
            "wire_length": float(rng.uniform(2.0, 10.0)),
            "rail_height": float(rng.uniform(-0.1, 0.1)),
            "mount_offset": rng.uniform(-0.2, 0.2, 3).tolist(),
        },
        "movers": {"mass": float(rng.uniform(1.0, 10.0))},
        "links": links,
    })


def _stage_models():
    desk = preset_paper(3)
    rng = np.random.default_rng(60)
    return ([("bare", dataclasses.replace(desk, links=())), ("desk", desk),
             ("paper7", preset_paper(7))]
            + [(f"random{n}", random_model(rng, n)) for n in (0, 1, 2, 3, 5, 7)])


STAGE_MODELS = _stage_models()


@pytest.mark.parametrize("name, model", STAGE_MODELS,
                         ids=[name for name, _ in STAGE_MODELS])
def test_complex_row_real_parts_match_real_assembly(name, model):
    """The real parts of a complex configuration's assembly are the real
    assembly: bit for bit on the presets, whose transform rows must equal
    the real Jcom exactly, and to roundoff on general models, where numpy's
    complex and real matrix products accumulate in different orders."""
    rng = np.random.default_rng(61)
    exact = not name.startswith("random")
    for _ in range(10):
        q, qd = random_state(rng, model)
        real = engine.assemble1(model, q)
        row = engine.assemble(model, dynamics._complex_rows(q, 1e-20 * qd[None]))
        for field in ASSEMBLED_FIELDS:
            a, b = getattr(row, field).real, getattr(real, field)
            if exact:
                assert np.array_equal(a, b), field
            else:
                scale = max(1.0, np.abs(b).max(initial=0.0))
                assert np.abs(a - b).max(initial=0.0) <= 1e-14 * scale, field


@pytest.mark.parametrize("name, model", STAGE_MODELS,
                         ids=[name for name, _ in STAGE_MODELS])
def test_stage_terms_match_full_christoffel(name, model):
    """The bias, C_phim and T-dot rows read from one complex configuration
    agree with the full Christoffel evaluation and with finite differences."""
    rng = np.random.default_rng(62)
    for _ in range(10):
        q, qd = random_state(rng, model)
        ev = Eval(model, q, qd)
        C = ev.C
        ref = C @ qd + ev.g
        assert np.abs(ev.bias - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.abs(ev.C_phim - C[0:2, 3:5]).max() <= 1e-12 * np.abs(C).max()
        # T-dot rows: the rate of the CoM Jacobian along qd.
        h = 1e-6
        Jdot = (engine.assemble1(model, q + h * qd).Jcom[0]
                - engine.assemble1(model, q - h * qd).Jcom[0]) / (2.0 * h)
        assert np.abs(ev.Tdot[0:2] - Jdot).max() <= 1e-7 * (1.0 + np.abs(Jdot).max())
        assert np.abs(ev.Tdot[2:]).max() == 0.0


@pytest.mark.parametrize("name, model", STAGE_MODELS[3:6],
                         ids=[name for name, _ in STAGE_MODELS[3:6]])
def test_stage_bias_matches_lagrangian_oracle(name, model):
    """C qd = dM/dt qd - dT/dq, with dM/dt and the kinetic-energy gradient
    taken by central differences of the independent oracle chain."""
    rng = np.random.default_rng(63)
    h = 1e-6
    for _ in range(3):
        q, qd = random_state(rng, model)
        Mdot = (oracles.mass_matrix(model, q + h * qd)
                - oracles.mass_matrix(model, q - h * qd)) / (2.0 * h)
        dT = np.empty(model.dof)
        for i in range(model.dof):
            e = np.zeros(model.dof)
            e[i] = h
            dT[i] = (oracles.kinetic_energy(model, q + e, qd)
                     - oracles.kinetic_energy(model, q - e, qd)) / (2.0 * h)
        ev = Eval(model, q, qd)
        Cqd = Mdot @ qd - dT
        assert np.abs(ev.bias - ev.g - Cqd).max() < 1e-6 * (1.0 + np.abs(Cqd).max())


@pytest.mark.parametrize("law", control.CONTROLLER_NAMES)
def test_stage_assembles_one_configuration(law, monkeypatch):
    """Every RK4 stage of every law assembles exactly one configuration."""
    from pendusim import sim

    model = preset_paper(3)
    qr_des = np.array([np.pi / 4, np.pi / 2, 0.0])
    controller = control.make_controller(
        law, control.Gains(), control.Setpoint(0.0, qr_des, np.zeros(2)))
    engine.potential_offset(model)          # cached once per model
    rows = []
    assemble = engine.assemble

    def recording(m, Q):
        rows.append(len(Q))
        return assemble(m, Q)

    monkeypatch.setattr(engine, "assemble", recording)
    q, qd = random_state(np.random.default_rng(64), model)
    sim._stage(model, q, qd, controller, None)
    assert rows == [dynamics.Eval.CONFIGURATIONS] == [1]


@pytest.mark.parametrize("name, model", STAGE_MODELS,
                         ids=[name for name, _ in STAGE_MODELS])
def test_closed_form_transform_blocks(name, model):
    """Mbar_cc and Mbar_cm from the 2x2 closed forms agree with the blocks of
    the full T^-T M T^-1, and the full Mbar built on first read is that
    matrix."""
    rng = np.random.default_rng(65)
    for _ in range(10):
        q, qd = random_state(rng, model)
        ev = Eval(model, q, qd)
        Tinv = np.linalg.inv(ev.T)
        Mbar = Tinv.T @ ev.M @ Tinv
        scale = np.abs(Mbar).max()
        assert np.abs(ev.Mbar_cc - Mbar[0:2, 0:2]).max() <= 1e-12 * scale
        assert np.abs(ev.Mbar_cm - Mbar[0:2, 3:5]).max() <= 1e-12 * scale
        assert np.abs(ev.Mbar - Mbar).max() <= 1e-12 * scale


def _stage_controllers(model):
    """The four laws with the model's default gains and a setpoint about the
    zero arm configuration (the laws do not need a balancing q_m*)."""
    setpoint = control.Setpoint(0.0, np.zeros(model.n_links), np.zeros(2))
    gains = control.default_gains(model.n_links)
    return [control.make_controller(law, gains, setpoint)
            for law in ("motivating", "remark1", "remark2", "proposed")]


def _ydd_ref(ctrl, ev):
    """The output reference the controller imposes, from the public laws."""
    gains, sp = ctrl.gains, ctrl.setpoint
    gdd, qrdd = control.outer_refs(ev, gains, sp)
    qmdd = {"motivating": lambda: control.qm_ref_motivating(ev, gains),
            "remark1": lambda: control.qm_ref_remark1(ev, gains),
            "remark2": lambda: control.qm_ref_remark2(ev, gains, sp),
            "proposed": lambda: control.qm_ref_proposed(ev, gains, sp),
            }[ctrl.name]()
    return np.concatenate([[gdd], qmdd, qrdd])


@pytest.mark.parametrize("name, model", STAGE_MODELS,
                         ids=[name for name, _ in STAGE_MODELS])
def test_lean_stage_is_exact_pfl(name, model):
    """A controlled stage imposes ydd_ref on the actuated coordinates bit for
    bit, satisfies M qdd + bias = B u, and its u is the input the
    transformed-coordinate PFL computes with full N x N algebra."""
    from pendusim import sim

    rng = np.random.default_rng(66)
    for ctrl in _stage_controllers(model):
        for _ in range(3):
            q, qd = random_state(rng, model)
            ev, u, qdd, _ = sim._stage(model, q, qd, ctrl, None)
            ydd = _ydd_ref(ctrl, ev)
            assert np.array_equal(qdd[2:], ydd), ctrl.name
            tau = np.zeros(model.dof)
            tau[2:] = u
            lhs = ev.M @ qdd + ev.bias
            scale = max(np.abs(lhs).max(), np.abs(ev.bias).max(), np.abs(u).max())
            assert np.abs(lhs - tau).max() <= 1e-10 * scale, ctrl.name
            u_t = control.pfl_input_transformed(Eval(model, q, qd), ydd)
            assert np.abs(u - u_t).max() <= 1e-9 * max(1.0, np.abs(u_t).max()), ctrl.name


@pytest.mark.parametrize("name, model", STAGE_MODELS,
                         ids=[name for name, _ in STAGE_MODELS])
def test_stage_with_tau_ext_satisfies_equation_of_motion(name, model):
    """With an external force, every law's stage satisfies
    M qdd + bias = (0, 0, u) + tau_ext: the four PFL laws through their
    collocated accelerations plus M^-1 tau_ext, the free law through forward
    dynamics; the stage's power is qd' of that force."""
    from pendusim import sim

    rng = np.random.default_rng(67)
    for ctrl in _stage_controllers(model) + [control.make_controller("free")]:
        for _ in range(3):
            q, qd = random_state(rng, model)
            tau_ext = rng.uniform(-5.0, 5.0, model.dof)
            ev, u, qdd, power = sim._stage(model, q, qd, ctrl, tau_ext)
            tau = tau_ext.copy()
            tau[2:] += u
            lhs = ev.M @ qdd + ev.bias
            scale = max(np.abs(lhs).max(), np.abs(ev.bias).max(), np.abs(tau).max())
            assert np.abs(lhs - tau).max() <= 1e-10 * scale, ctrl.name
            assert power == float(qd @ tau), ctrl.name


@pytest.mark.parametrize("n_links", range(8))
def test_dynamics_identities_on_random_models(n_links):
    """On random non-preset models (x-, y-, z-axis and skewed joints, offset
    joints and CoMs, full inertias): M is symmetric positive definite, g is
    the gradient of V, and dM/dt - 2C is skew-symmetric.  Derivatives of the
    engine's own V and M are taken by complex step, so the tolerances sit
    near roundoff; g is also checked against the independent oracle chain."""
    rng = np.random.default_rng(70 + n_links)
    h = 1e-20
    for _ in range(2):
        model = random_model(rng, n_links)
        N = model.dof
        for _ in range(3):
            q, qd = random_state(rng, model)
            M = engine.assemble1(model, q).M[0]
            assert np.abs(M - M.T).max() <= 1e-12 * np.abs(M).max()
            assert np.linalg.eigvalsh(M).min() > 0.0

            g = engine.assemble1(model, q).g[0]
            dV = engine.assemble(model, dynamics._complex_rows(q, h * np.eye(N))).V.imag / h
            gscale = 1.0 + np.abs(g).max()
            assert np.abs(g - dV).max() <= 1e-10 * gscale
            assert np.abs(g - oracles.gravity_cs(model, q)).max() <= 1e-9 * gscale

            C = Eval(model, q, qd).C
            Mdot = engine.assemble(model, dynamics._complex_rows(q, h * qd[None])).M[0].imag / h
            S = Mdot - 2.0 * C
            assert np.abs(S + S.T).max() <= 1e-10 * (1.0 + np.abs(Mdot).max())
