import dataclasses

import numpy as np
import pytest

import oracles
from pendusim import dynamics, engine
from pendusim.dynamics import (IllConditionedTransformError, coriolis_matrix,
                               dynamics_terms, evaluate, forward_dynamics,
                               gravity_vector, kinetic_energy, mass_matrix,
                               potential_energy, selection_matrix, transform)
from pendusim.model import State, preset_paper


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
        M = mass_matrix(desk, q)
        assert np.abs(M - M.T).max() < 1e-10 * np.abs(M).max()
        assert np.linalg.eigvalsh(M).min() > 0.0


def test_mass_matrix_zero_configuration_structure(desk):
    M = mass_matrix(desk, np.zeros(desk.dof))
    assert M[2, 2] > 0.0
    assert abs(M[0, 2]) < 1e-12          # yaw decouples from roll
    assert M[3, 3] == pytest.approx(10.0, rel=1e-12)  # bare mover mass


def test_mass_matrix_against_kinetic_energy_hessian(desk):
    rng = np.random.default_rng(11)
    for _ in range(20):
        q, _ = random_state(rng, desk)
        M = mass_matrix(desk, q)
        H = oracles.mass_matrix(desk, q)
        assert np.abs(M - H).max() < 1e-8 * max(1.0, np.abs(M).max())


def test_kinetic_energy_matches_independent_summation(desk):
    rng = np.random.default_rng(12)
    for _ in range(20):
        q, qd = random_state(rng, desk)
        ke = kinetic_energy(desk, q, qd)
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
            for name in engine.Assembled.__slots__:
                if name != "V":
                    assert np.array_equal(getattr(batch, name)[i],
                                          getattr(one, name)[0]), name
            assert batch.V[i] == pytest.approx(one.V[0], rel=1e-14, abs=1e-14)
    for q in Q[:2]:
        M = engine.assemble1(model, q).M[0]
        H = oracles.mass_matrix(model, q)
        assert np.abs(M - H).max() < 1e-8 * max(1.0, np.abs(M).max())


def test_gravity_zero_at_symmetric_hang(desk):
    g = gravity_vector(desk, np.zeros(desk.dof))
    assert np.abs(g[0:2]).max() < 1e-12


def test_gravity_mover_offset_pitch_torque(desk):
    q = np.zeros(desk.dof)
    q[3] = 0.4
    g = gravity_vector(desk, q)
    assert abs(g[1]) > 1.0
    # the gradient points uphill: tipping the offset mass down lowers V
    h = 1e-4
    qp = q.copy()
    qp[1] = -np.sign(g[1]) * h
    assert potential_energy(desk, qp) < potential_energy(desk, q)
    # and matches a plain central difference of V at the documented step
    gfd = (potential_energy(desk, q + np.eye(desk.dof)[1] * 1e-7)
           - potential_energy(desk, q - np.eye(desk.dof)[1] * 1e-7)) / 2e-7
    assert abs(g[1] - gfd) < 1e-6 * (1.0 + abs(g[1]))


def test_gravity_matches_potential_gradient(desk):
    rng = np.random.default_rng(13)
    for _ in range(100):
        q, _ = random_state(rng, desk)
        g = gravity_vector(desk, q)
        ref = oracles.gravity_cs(desk, q)
        assert np.abs(g - ref).max() < 1e-6 * (1.0 + np.abs(ref).max())


def test_coriolis_vanishes_at_rest(desk):
    rng = np.random.default_rng(14)
    q, _ = random_state(rng, desk)
    assert np.abs(coriolis_matrix(desk, q, np.zeros(desk.dof))).max() == 0.0


def test_skew_symmetry(desk):
    rng = np.random.default_rng(15)
    h = 1e-6
    for _ in range(100):
        q, qd = random_state(rng, desk)
        C = coriolis_matrix(desk, q, qd)
        Mdot = (mass_matrix(desk, q + h * qd)
                - mass_matrix(desk, q - h * qd)) / (2.0 * h)
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
        M1, M2 = mass_matrix(desk, q), mass_matrix(desk, q2)
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
        ev = evaluate(desk, q, qd, need_transform=False)
        res = ev.M @ qdd + ev.C @ qd + ev.g - tau
        assert np.abs(res).max() < 1e-9 * max(1.0, np.abs(tau).max())


def test_forward_dynamics_rejects_nonfinite(desk):
    with pytest.raises(ValueError):
        forward_dynamics(desk, np.zeros(desk.dof), np.zeros(desk.dof),
                         np.full(desk.dof, np.inf))


def test_selection_matrix_structure(desk):
    B = selection_matrix(desk)
    assert B.shape == (desk.dof, desk.dof - 2)
    assert np.abs(B[:2]).max() == 0.0
    assert np.allclose(B.T @ B, np.eye(desk.dof - 2))


def test_transform_rows_and_blocks(desk):
    rng = np.random.default_rng(18)
    q, qd = random_state(rng, desk)
    tt = transform(desk, q, qd)
    from pendusim.model import com_jacobian
    assert np.array_equal(tt.T[0:2], com_jacobian(desk, q))
    assert np.array_equal(tt.T[2:, 2:], np.eye(desk.dof - 2))
    # u never enters the first two transformed equations
    TinvT = np.linalg.inv(tt.T).T
    assert np.abs(TinvT[0:2, 2:]).max() < 1e-14
    # block views address the parent matrices exactly
    assert np.array_equal(tt.Mbar_cm, tt.Mbar[0:2, 3:5])
    assert np.array_equal(tt.Cbar_cc, tt.Cbar[0:2, 0:2])
    terms = dynamics_terms(desk, q, qd)
    assert np.array_equal(terms.M_phim, terms.M[0:2, 3:5])
    assert np.array_equal(terms.g_phi, terms.g[0:2])


def test_phim_block_sign_pattern(desk):
    terms = dynamics_terms(desk, np.zeros(desk.dof), np.zeros(desk.dof))
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
        ev = evaluate(desk, q, qd)
        tau = rng.uniform(-50.0, 50.0, desk.dof)
        tau[:2] = 0.0
        qdd = ev.forward(tau)
        tt = ev.transformed
        qbar_dd = tt.T @ qdd + tt.Tdot @ qd
        lhs = tt.Mbar @ qbar_dd + tt.Cbar @ (tt.T @ qd) + tt.gbar
        rhs = np.linalg.solve(tt.T.T, tau)
        assert np.abs(lhs - rhs).max() < 1e-6 * (1.0 + np.abs(rhs).max())


def test_transform_condition_guard(desk, monkeypatch):
    monkeypatch.setattr(dynamics, "COND_LIMIT", 1.0)
    with pytest.raises(IllConditionedTransformError):
        transform(desk, np.zeros(desk.dof), np.zeros(desk.dof))


def test_energy_definitions(desk):
    assert potential_energy(desk, np.zeros(desk.dof)) == 0.0
    rng = np.random.default_rng(20)
    q, qd = random_state(rng, desk)
    assert kinetic_energy(desk, q, qd) == pytest.approx(
        0.5 * qd @ mass_matrix(desk, q) @ qd, rel=1e-12)
    assert kinetic_energy(desk, q, np.zeros(desk.dof)) == 0.0


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
        K[:, i] = (gravity_vector(desk, e)[0:2]
                   - gravity_vector(desk, -e)[0:2]) / (2.0 * h)
    Mp = mass_matrix(desk, np.zeros(desk.dof))[0:2, 0:2]
    w_lin = np.sqrt(np.linalg.eigvals(np.linalg.solve(Mp, K)).real)

    class Hold:
        name = "hold"
        needs_transform = False

        @staticmethod
        def u_vector(ev):
            X = ev.act_solve()
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

