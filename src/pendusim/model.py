"""Physical description of the suspended platform, movers, and manipulator.

The platform hangs from a fixed world-origin pivot on a rigid massless rod of
length ``wire_length`` pointing along the platform's local -z axis, so the
three attitude angles fully determine the platform position.  Two point-mass
movers slide on rails at height ``rail_height`` above the platform center,
mover 1 along platform x and mover 2 along platform y.  An n-link revolute
serial chain is mounted at ``mount_offset``.

Generalized coordinates (N = 5 + n):
    q = (alpha, beta, gamma, qm1, qm2, qr1 .. qrn)

The kinematic and dynamic terms of a configuration are read from
``engine.assemble`` (a batch) or ``dynamics.Eval`` (one state);
``body_position`` and ``point_jacobian`` pick single body points out of one
assembly.
"""

from dataclasses import dataclass

import numpy as np

from . import engine
from .spatial import check_pitch, skew


class UnsupportedPresetError(ValueError):
    """Requested preset link count is not available."""


class InvalidBodyError(ValueError):
    """Body identifier does not name a body of the model."""


def check_finite(name, *values):
    """Raise ValueError unless every entry of every value is finite."""
    if not all(np.all(np.isfinite(np.asarray(v, dtype=float))) for v in values):
        raise ValueError(f"{name} must be finite")


def _as_matrix(m, name):
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"{name} must be 3x3, got {m.shape}")
    check_finite(name, m)
    if not np.allclose(m, m.T, atol=1e-12 * max(1.0, np.abs(m).max())):
        raise ValueError(f"{name} must be symmetric")
    return m


@dataclass(frozen=True)
class PlatformParams:
    """Suspended platform body: mass [kg], inertia about its CoM [kg m^2],
    rod length [m], mover rail height [m], manipulator mount point [m]."""

    mass: float
    inertia: np.ndarray
    wire_length: float
    rail_height: float
    mount_offset: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "inertia", _as_matrix(self.inertia, "platform inertia"))
        object.__setattr__(self, "mount_offset",
                           np.asarray(self.mount_offset, dtype=float).reshape(3))
        check_finite("platform parameters", self.mass, self.wire_length,
                      self.rail_height, self.mount_offset)
        if self.mass <= 0.0:
            raise ValueError("platform mass must be positive")
        if self.wire_length <= 0.0:
            raise ValueError("wire_length must be positive")
        if np.linalg.eigvalsh(self.inertia).min() <= 0.0:
            raise ValueError("platform inertia must be positive definite")


@dataclass(frozen=True)
class MoverParams:
    """Two identical point-mass movers; mover 1 on platform x, mover 2 on
    platform y.  ``travel_limit`` is a soft bound, logged but never enforced."""

    mass: float
    travel_limit: float = 0.8

    def __post_init__(self):
        check_finite("mover parameters", self.mass, self.travel_limit)
        if self.mass <= 0.0:
            raise ValueError("mover mass must be positive")
        if self.travel_limit <= 0.0:
            raise ValueError("travel limit must be positive")


@dataclass(frozen=True)
class SerialLink:
    """One revolute link: joint offset from the parent frame, unit joint axis
    in the parent frame, mass, CoM offset and inertia in the link frame."""

    parent_offset: np.ndarray
    axis: np.ndarray
    mass: float
    com_offset: np.ndarray
    inertia: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "parent_offset",
                           np.asarray(self.parent_offset, dtype=float).reshape(3))
        object.__setattr__(self, "com_offset",
                           np.asarray(self.com_offset, dtype=float).reshape(3))
        ax = np.asarray(self.axis, dtype=float).reshape(3)
        check_finite("link parameters", self.parent_offset, self.com_offset,
                      ax, self.mass)
        if abs(np.linalg.norm(ax) - 1.0) > 1e-12:
            raise ValueError("joint axis must be unit-norm to 1e-12")
        object.__setattr__(self, "axis", ax)
        object.__setattr__(self, "inertia", _as_matrix(self.inertia, "link inertia"))
        if self.mass < 0.0:
            raise ValueError("link mass must be nonnegative")
        if np.linalg.eigvalsh(self.inertia).min() < -1e-12:
            raise ValueError("link inertia must be positive semidefinite")


@dataclass(frozen=True)
class SystemModel:
    """Immutable physical description shared by all evaluations of one system."""

    platform: PlatformParams
    movers: MoverParams
    links: tuple = ()
    gravity: float = 9.81

    def __post_init__(self):
        object.__setattr__(self, "links", tuple(self.links))
        check_finite("gravity", self.gravity)
        if self.gravity <= 0.0:
            raise ValueError("gravity must be positive")
        # Packed arrays consumed by the batched evaluation engine.
        n = len(self.links)
        axes = np.array([l.axis for l in self.links]).reshape(n, 3)
        kmats = np.array([skew(a) for a in axes]).reshape(n, 3, 3)
        # Rodrigues factors K and K^2 of each joint: A = I + sin K + (1 - cos) K^2.
        object.__setattr__(self, "_rodrigues",
                           np.stack([kmats, np.einsum("kij,kjl->kil", kmats, kmats)]))
        # Body-fixed vectors rotated into the world by each frame of the
        # chain (platform, then link k): the point the frame's body is
        # measured from (mount offset, link k CoM), the next joint's parent
        # offset and the next joint's axis, as (frame, vector, 3, 1) columns.
        vecs = np.zeros((n + 1, 3, 3))
        vecs[0, 0] = self.platform.mount_offset
        vecs[1:, 0] = np.array([l.com_offset for l in self.links]).reshape(n, 3)
        vecs[:n, 1] = np.array([l.parent_offset for l in self.links]).reshape(n, 3)
        vecs[:n, 2] = axes
        object.__setattr__(self, "_frame_vecs", vecs[..., None])
        object.__setattr__(self, "_frame_inertias", np.concatenate(
            [self.platform.inertia[None],
             np.array([l.inertia for l in self.links]).reshape(n, 3, 3)]))
        masses = np.concatenate([[self.platform.mass, self.movers.mass, self.movers.mass],
                                 [l.mass for l in self.links]])
        object.__setattr__(self, "_masses", masses)
        object.__setattr__(self, "_total_mass", float(masses.sum()))
        object.__setattr__(self, "_inv_total_mass", 1.0 / self._total_mass)
        # Spatial inertia template of each body, diag(m I3, 0): the engine
        # fills the rotational block with the world inertia of each rotating
        # body (movers are point masses and keep a zero block).
        template = np.zeros((3 + n, 6, 6))
        template[:, [0, 1, 2], [0, 1, 2]] = masses[:, None]
        object.__setattr__(self, "_body_inertias", template)
        object.__setattr__(self, "_v0_cache", [None])

    @property
    def n_links(self):
        return len(self.links)

    @property
    def dof(self):
        """Generalized-coordinate count N = 5 + n."""
        return 5 + len(self.links)

    @property
    def n_bodies(self):
        return 3 + len(self.links)

    @property
    def total_mass(self):
        return self._total_mass


@dataclass
class State:
    """Time, generalized position and velocity of one system configuration."""

    t: float
    q: np.ndarray
    qd: np.ndarray

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float).ravel()
        self.qd = np.asarray(self.qd, dtype=float).ravel()
        if self.q.shape != self.qd.shape:
            raise ValueError("q and qd must have equal length")
        if not (np.all(np.isfinite(self.q)) and np.all(np.isfinite(self.qd))):
            raise ValueError("state entries must be finite")
        check_pitch(self.q[1])

    @classmethod
    def zeros(cls, model, t=0.0):
        return cls(t, np.zeros(model.dof), np.zeros(model.dof))


# Default platform geometry: a 1.0 x 1.0 x 0.1 m box of 10 kg.
_BOX_INERTIA = 10.0 / 12.0 * np.diag([1.0**2 + 0.1**2, 1.0**2 + 0.1**2, 1.0**2 + 1.0**2])

# Desk-scale 3-link arm: 7/5/3 kg cylinders of 0.4/0.3/0.2 m, axes z-y-y.
_DESK_LINKS = [
    (7.0, 0.4, (0.0, 0.0, 1.0)),
    (5.0, 0.3, (0.0, 1.0, 0.0)),
    (3.0, 0.2, (0.0, 1.0, 0.0)),
]

# Full-scale 7-link arm: 15 kg split over 7 cylinders, axes z-y-y-z-y-z-y.
_FULL7_LINKS = [
    (4.0, 0.25, (0.0, 0.0, 1.0)),
    (3.0, 0.25, (0.0, 1.0, 0.0)),
    (2.0, 0.20, (0.0, 1.0, 0.0)),
    (2.0, 0.20, (0.0, 0.0, 1.0)),
    (2.0, 0.15, (0.0, 1.0, 0.0)),
    (1.0, 0.15, (0.0, 0.0, 1.0)),
    (1.0, 0.10, (0.0, 1.0, 0.0)),
]

# Link body radius [m]; nonzero axial inertia keeps M positive definite when
# a joint axis lines up with the arm mass distribution (e.g. q_r = 0).
_LINK_RADIUS = 0.08


def _rod_links(defs):
    """Build straight-up links: each joint sits at the previous link's tip,
    the link extends along local +z with its CoM at mid-length."""
    links = []
    prev_len = 0.0
    for mass, length, axis in defs:
        r2 = _LINK_RADIUS**2
        i_trans = mass * (length**2 / 12.0 + r2 / 4.0)
        i_axial = mass * r2 / 2.0
        links.append(SerialLink(
            parent_offset=(0.0, 0.0, prev_len),
            axis=axis,
            mass=mass,
            com_offset=(0.0, 0.0, length / 2.0),
            inertia=np.diag([i_trans, i_trans, i_axial]),
        ))
        prev_len = length
    return links


def preset_paper(n):
    """Preset models: wire length 10 m, platform 10 kg, movers 10 kg each,
    manipulator 15 kg total.  n=3 is the desk-scale default chain, n=7 the
    full-scale chain.  At q_r = 0 the arm points straight up so the zero
    configuration is left-right symmetric."""
    if n == 3:
        defs = _DESK_LINKS
    elif n == 7:
        defs = _FULL7_LINKS
    else:
        raise UnsupportedPresetError(f"no preset with {n} links (choose 3 or 7)")
    platform = PlatformParams(
        mass=10.0,
        inertia=_BOX_INERTIA,
        wire_length=10.0,
        rail_height=0.05,
        mount_offset=(0.0, 0.0, 0.05),
    )
    return SystemModel(platform=platform,
                       movers=MoverParams(mass=10.0, travel_limit=0.8),
                       links=_rod_links(defs))


def _parse_body(model, body):
    """Map a body id string to (index b in the engine's p_bodies, whether the
    reference point is the joint origin of link body b rather than its CoM)."""
    if body == "platform":
        return 0, False
    if body in ("mover1", "mover2"):
        return int(body[-1]), False
    if body.startswith("link"):
        rest = body[4:]
        com = rest.endswith("_com")
        if com:
            rest = rest[:-4]
        if rest.isdigit():
            k = int(rest)
            if 1 <= k <= model.n_links:
                return 2 + k, not com
    raise InvalidBodyError(f"unknown body {body!r}")


def _point(a, b, joint):
    """World position of a body reference point in one-configuration
    assembly a."""
    return a.link_origin[0, b - 3] if joint else a.p_bodies[0, b]


def body_position(model, q, body):
    """World position of a body reference point.

    ``platform`` is the platform center, ``moverI`` the mover point mass,
    ``linkK`` the joint-K origin and ``linkK_com`` the link-K center of mass.
    """
    b, joint = _parse_body(model, body)
    return _point(engine.assemble1(model, q), b, joint)


def point_jacobian(model, q, body):
    """3xN Jacobian of the world position of a body reference point (see
    body_position) with respect to q, so point velocity = J @ qd.  It shifts
    the engine's rows of the body's CoM b to the point,
    J = Jv_b - skew(p - p_b) Jw_b."""
    b, joint = _parse_body(model, body)
    check_pitch(q[1])
    a = engine.assemble1(model, q)
    return a.Jv[0, b] - skew(_point(a, b, joint) - a.p_bodies[0, b]) @ a.Jw[0, b]


def model_to_dict(model):
    """JSON-ready dict with field names matching the parameter types."""
    return {
        "platform": {
            "mass": model.platform.mass,
            "inertia": model.platform.inertia.tolist(),
            "wire_length": model.platform.wire_length,
            "rail_height": model.platform.rail_height,
            "mount_offset": model.platform.mount_offset.tolist(),
        },
        "movers": {
            "mass": model.movers.mass,
            "travel_limit": model.movers.travel_limit,
        },
        "links": [
            {
                "parent_offset": l.parent_offset.tolist(),
                "axis": l.axis.tolist(),
                "mass": l.mass,
                "com_offset": l.com_offset.tolist(),
                "inertia": l.inertia.tolist(),
            }
            for l in model.links
        ],
        "gravity": model.gravity,
    }


def model_from_dict(doc):
    """Inverse of model_to_dict; raises ValueError on invalid parameters."""
    return SystemModel(
        platform=PlatformParams(**doc["platform"]),
        movers=MoverParams(**doc["movers"]),
        links=tuple(SerialLink(**entry) for entry in doc.get("links", [])),
        gravity=doc.get("gravity", 9.81),
    )
