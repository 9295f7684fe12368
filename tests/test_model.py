import numpy as np
import pytest

import oracles
from pendusim.engine import assemble1
from pendusim.model import (InvalidBodyError, MoverParams, PlatformParams,
                            SerialLink, State, SystemModel,
                            UnsupportedPresetError, body_position,
                            model_from_dict, model_to_dict, point_jacobian,
                            preset_paper)
from pendusim.spatial import GimbalLockError


@pytest.fixture(scope="module")
def desk():
    return preset_paper(3)


def random_q(rng, model, attitude=0.35):
    return np.concatenate([
        rng.uniform(-attitude, attitude, 2),
        rng.uniform(-1.0, 1.0, 1),
        rng.uniform(-0.5, 0.5, 2),
        rng.uniform(-1.0, 1.0, model.n_links),
    ])


def test_preset_mass_bookkeeping():
    for n, dof in ((3, 8), (7, 12)):
        m = preset_paper(n)
        assert m.dof == dof
        assert m.platform.mass == 10.0
        assert m.movers.mass == 10.0
        assert sum(l.mass for l in m.links) == pytest.approx(15.0, abs=0.0)
        assert m.total_mass == pytest.approx(45.0, abs=0.0)
        assert m.platform.wire_length == 10.0


def test_preset_rejects_other_link_counts():
    for n in (0, 1, 2, 4, 8):
        with pytest.raises(UnsupportedPresetError):
            preset_paper(n)


def test_preset_zero_configuration_symmetric(desk):
    # arm points straight up, movers centered: CoM on the pendulum axis
    assert np.abs(assemble1(desk, np.zeros(desk.dof)).com[0]).max() < 1e-14


def test_platform_hangs_straight_down(desk):
    p = body_position(desk, np.zeros(desk.dof), "platform")
    assert np.allclose(p, [0.0, 0.0, -10.0], atol=1e-14)


def test_mover_rail_geometry(desk):
    q = np.zeros(desk.dof)
    q[3] = 0.4
    p = body_position(desk, q, "mover1")
    assert np.allclose(p, [0.4, 0.0, -10.0 + desk.platform.rail_height],
                       atol=1e-14)


def test_positions_against_homogeneous_chain(desk):
    rng = np.random.default_rng(4)
    bodies = ["platform", "mover1", "mover2", "link1", "link2_com", "link3",
              "link3_com"]
    for _ in range(25):
        q = random_q(rng, desk)
        q[1] = 0.3
        poses = oracles.body_poses(desk, q)
        for body in bodies:
            ref = oracles.poses_position(poses, body).real
            assert np.abs(body_position(desk, q, body) - ref).max() < 1e-12


def test_invalid_body(desk):
    q = np.zeros(desk.dof)
    for bad in ("mover3", "link0", "link4", "base", "link2_tip"):
        with pytest.raises(InvalidBodyError):
            body_position(desk, q, bad)


def test_point_jacobian_matches_finite_differences(desk):
    rng = np.random.default_rng(5)
    h = 1e-7
    bodies = ["platform", "mover1", "mover2", "link1_com", "link2_com",
              "link3_com"]
    for _ in range(100):
        q = random_q(rng, desk)
        body = bodies[rng.integers(len(bodies))]
        J = point_jacobian(desk, q, body)
        for i in range(desk.dof):
            e = np.zeros(desk.dof)
            e[i] = h
            col = (body_position(desk, q + e, body)
                   - body_position(desk, q - e, body)) / (2.0 * h)
            assert np.abs(J[:, i] - col).max() < 1e-6


def test_point_jacobian_structure(desk):
    q = np.zeros(desk.dof)
    J = point_jacobian(desk, q, "mover1")
    assert np.allclose(J[:, 3], [1.0, 0.0, 0.0], atol=1e-14)
    # joints never move bodies that are not distal to them
    assert np.abs(point_jacobian(desk, q, "platform")[:, 3:]).max() == 0.0
    assert np.abs(point_jacobian(desk, q, "link1")[:, 6:]).max() == 0.0
    assert np.abs(point_jacobian(desk, q, "mover2")[:, 5:]).max() == 0.0


def test_point_jacobian_attitude_scale(desk):
    # swinging the platform moves its center at wire-length rate
    J = point_jacobian(desk, np.zeros(desk.dof), "platform")
    assert np.linalg.norm(J[:, 0]) == pytest.approx(10.0, rel=1e-12)


def test_com_hand_weighting(desk):
    q = np.zeros(desk.dof)
    q[3] = 0.4
    expected = 0.4 * desk.movers.mass / desk.total_mass
    assert assemble1(desk, q).com[0, 0] == pytest.approx(expected, rel=1e-12)
    assert assemble1(desk, q).com[0, 1] == pytest.approx(0.0, abs=1e-14)


def test_com_jacobian_matches_finite_differences(desk):
    rng = np.random.default_rng(6)
    h = 1e-7
    for _ in range(100):
        q = random_q(rng, desk)
        J = assemble1(desk, q).Jcom[0]
        for i in range(desk.dof):
            e = np.zeros(desk.dof)
            e[i] = h
            col = (assemble1(desk, q + e).com[0]
                   - assemble1(desk, q - e).com[0]) / (2.0 * h)
            assert np.abs(J[:, i] - col).max() < 1e-6


def test_com_jacobian_mass_weighted_identity(desk):
    # algebraic identity: CoM rows equal mass-weighted point-Jacobian rows
    rng = np.random.default_rng(7)
    bodies = ["platform", "mover1", "mover2", "link1_com", "link2_com",
              "link3_com"]
    masses = np.concatenate([[desk.platform.mass, desk.movers.mass,
                              desk.movers.mass],
                             [l.mass for l in desk.links]])
    for _ in range(20):
        q = random_q(rng, desk)
        acc = np.zeros((2, desk.dof))
        for body, m in zip(bodies, masses):
            acc += m * point_jacobian(desk, q, body)[0:2, :]
        acc /= desk.total_mass
        assert np.abs(acc - assemble1(desk, q).Jcom[0]).max() < 1e-10


def test_model_json_round_trip(desk):
    doc = model_to_dict(desk)
    clone = model_from_dict(doc)
    assert clone.dof == desk.dof
    assert np.allclose(clone.platform.inertia, desk.platform.inertia)
    assert clone.movers.travel_limit == desk.movers.travel_limit
    for a, b in zip(clone.links, desk.links):
        assert np.array_equal(a.parent_offset, b.parent_offset)
        assert np.array_equal(a.axis, b.axis)
        assert a.mass == b.mass
    rng = np.random.default_rng(8)
    q = random_q(rng, desk)
    assert np.array_equal(assemble1(clone, q).com, assemble1(desk, q).com)


def test_model_validation():
    with pytest.raises(ValueError):
        PlatformParams(mass=-1.0, inertia=np.eye(3), wire_length=10.0,
                       rail_height=0.05, mount_offset=(0, 0, 0))
    with pytest.raises(ValueError):
        PlatformParams(mass=1.0, inertia=-np.eye(3), wire_length=10.0,
                       rail_height=0.05, mount_offset=(0, 0, 0))
    with pytest.raises(ValueError):
        MoverParams(mass=0.0)
    with pytest.raises(ValueError):
        SerialLink((0, 0, 0), (0, 0, 2.0), 1.0, (0, 0, 0.1), np.eye(3))


def test_state_validation(desk):
    with pytest.raises(GimbalLockError):
        State(0.0, np.array([0, np.pi / 2, 0, 0, 0, 0, 0, 0.0]), np.zeros(8))
    with pytest.raises(ValueError):
        State(0.0, np.full(8, np.nan), np.zeros(8))
    st = State.zeros(desk)
    assert st.q.shape == (desk.dof,)


def test_movers_only_model(desk):
    bare = SystemModel(platform=desk.platform, movers=desk.movers, links=())
    assert bare.dof == 5
    q = np.zeros(5)
    q[3] = 0.2
    assert assemble1(bare, q).com[0, 0] == pytest.approx(0.2 * 10.0 / 30.0, rel=1e-12)
