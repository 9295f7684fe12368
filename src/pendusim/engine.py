"""Batched kinematics and mass-matrix assembly.

Everything the dynamics layer needs per configuration is assembled for a
whole batch of configurations in one vectorized pass, in spatial form
(Featherstone, *Rigid Body Dynamics Algorithms*, 2008): each body's point
and angular Jacobian rows are stacked into one 6-row Jacobian J = [Jv; Jw]
of shape (B, body, 6, N), its inertia into the block-diagonal H =
diag(m I3, Iw) with the world inertia Iw, and the mass matrix is one pair of
products,

    M = sym(J' (H J)),

with H J the body momentum Jacobians (momentum = H J qd).  g is the z row of
their sum over bodies times gravity.  ``Jv``, ``Jw`` and ``Iw`` are views of
J and H; the potential, the CoM and its Jacobian are built on first read.
``assemble`` (a batch) and ``dynamics.Eval`` (one state) are the only
readers of these terms.  Every operation is analytic, so a complex
configuration q + i h v assembles each quantity with its exact directional
derivative along v in the imaginary part (complex-step differentiation,
Squire & Trapp 1998): the dynamics layer reads the bias of one RK4 stage
from one such row, and builds dM/dq from one row per coordinate.  The real
parts of a complex row are the real assembly of q, to roundoff: numpy's
complex and real matrix products may accumulate in different orders.

Bodies are ordered: platform, mover 1, mover 2, link 1 .. link n (CoM).
Movers are point masses and carry no rotational inertia.
"""

import functools

import numpy as np

from . import spatial

_EYE3 = np.eye(3)


class _Layout:
    """Index tables of one (link count, batch size) for assemble."""

    __slots__ = ("gP", "gO", "gA", "G", "rod_trig", "rod_const", "eye",
                 "target", "gather", "n_cross", "mask")


@functools.lru_cache(maxsize=64)
def _layout(n, B):
    """Tables that let assemble build B configurations of an n-link model
    with a few flat array operations.

    The point table S holds 3-vectors as (group, batch, xyz): the rows of E,
    the body CoMs, the joint origins, the joint axes and a zero group.
    Every point-Jacobian entry that is a cross product,

        (a x (v - v0))[c] = a[c+1] (v - v0)[c+2] - a[c+2] (v - v0)[c+1],

    is named by the S indices of its six factors.  The attitude columns are
    E[:, col] x (p_body - 0), the arm columns axis_j x (p_i - origin_j).
    Subtracting the zero group (+0.0 is the exact identity of subtraction)
    and multiplying by a mask of 1.0, or 0.0 above the chain's diagonal,
    keeps every entry, signed zeros included, equal to the blockwise
    products it replaces.
    """
    nb, N = n + 3, n + 5
    lay = _Layout()
    lay.gP = 3                  # body CoMs, after the three rows of E
    lay.gO = lay.gP + nb        # joint origins
    lay.gA = lay.gO + n         # joint axes
    g_zero = lay.gA + n
    lay.G = g_zero + 1
    b = np.arange(B)

    def at(groups, comps):
        """Flat S indices of (groups[i], comps[i]) for every batch row."""
        return (groups[:, None] * B + b) * 3 + comps[:, None]

    # Rodrigues matrices of every joint, flat in (joint, batch, entry) order:
    # the joint angle's sine and cosine in a (sin|cos, coordinate, batch)
    # trig table, and K, K^2 in the model's (2, joint, entry) factors.
    k, bb, e = np.meshgrid(np.arange(n), b, np.arange(9), indexing="ij")
    lay.rod_trig = np.stack([(5 + k) * B + bb, (N + 5 + k) * B + bb]).reshape(2, -1)
    lay.rod_const = np.stack([k * 9 + e, (n + k) * 9 + e]).reshape(2, -1)
    lay.eye = np.tile(_EYE3.ravel(), n * B)

    # Vectors as (groups, comps) of their three components.
    xyz = np.arange(3)

    def column(c):
        return xyz, np.full(3, c)

    def point(g):
        return np.full(3, g), xyz

    entries = []                # (body, Jacobian column, a, v, v0, mask)
    for body in range(nb):
        for col in range(3):
            entries.append((body, col, column(col), point(lay.gP + body),
                            point(g_zero), 1.0))
    for i in range(n):
        for j in range(n):
            entries.append((3 + i, 5 + j, point(lay.gA + j), point(lay.gP + 3 + i),
                            point(lay.gO + j), 1.0 if j <= i else 0.0))
    nxt, prv = np.array([1, 2, 0]), np.array([2, 0, 1])
    target, mask, factors = [], [], [[] for _ in range(6)]
    for body, col, a, v, v0, m in entries:
        target.append(((b * nb + body) * 6 + xyz[:, None]) * N + col)
        mask.append(np.full((3, B), m))
        for f, (vec, perm) in zip(factors, [(a, nxt), (a, prv), (v, nxt),
                                            (v0, nxt), (v, prv), (v0, prv)]):
            f.append(at(vec[0][perm], vec[1][perm]))
    lay.n_cross = sum(t.size for t in target)

    # Angular Jacobian entries, the rows 3:6 of J, in (batch, body, xyz,
    # column) order: E for the platform and every link, the masked joint
    # axes for the links, the zero group elsewhere.
    w_g = np.full((nb, 3, N), g_zero)
    w_c = np.zeros((nb, 3, N), dtype=np.intp)
    w_mask = np.ones((nb, 3, N))
    for body in [0] + list(range(3, nb)):
        w_g[body, :, 0:3] = xyz[:, None]
        w_c[body, :, 0:3] = xyz
    for i in range(n):
        w_g[3 + i, :, 5:] = lay.gA + np.arange(n)
        w_c[3 + i, :, 5:] = xyz[:, None]
        w_mask[3 + i, :, 5:] = np.tril(np.ones((n, n)))[i]
    w_src = (w_g[None] * B + b[:, None, None, None]) * 3 + w_c[None]
    w_target = np.arange(B * nb * 6 * N).reshape(B, nb, 6, N)[:, :, 3:6]
    # One gather serves every factor: the six cross-product factor runs, then
    # Jw.  One scatter writes the cross products and Jw into J.
    lay.gather = np.concatenate([np.concatenate(f).ravel() for f in factors]
                                + [w_src.ravel()])
    lay.target = np.concatenate([t.ravel() for t in target + [w_target]])
    lay.mask = np.concatenate([m.ravel() for m in mask] + [np.tile(w_mask.ravel(), B)])
    return lay


class Assembled:
    """Products of one assembly call, one row per configuration:
    ``p_bodies``, the spatial Jacobians ``J`` (rows Jv; Jw), inertias ``H``
    (blocks m I3, Iw) and momentum Jacobians ``HJ`` per body in the module's
    order, ``link_origin`` per joint, ``M`` and ``g``.  ``Jv``, ``Jw`` and
    ``Iw`` are views of J and H; V, com and Jcom are built on first read."""

    def __init__(self, model, link_origin, p_bodies, J, H, HJ, M, g):
        self.model = model
        self.link_origin = link_origin
        self.p_bodies = p_bodies
        self.J = J
        self.H = H
        self.HJ = HJ
        self.M = M
        self.g = g

    @property
    def Jv(self):
        return self.J[:, :, 0:3]

    @property
    def Jw(self):
        return self.J[:, :, 3:6]

    @property
    def Iw(self):
        return self.H[:, :, 3:6, 3:6]

    @functools.cached_property
    def _first_moment(self):
        """sum_b m_b p_b per configuration."""
        return np.add.reduce(self.p_bodies * self.model._masses[:, None], axis=1)

    @functools.cached_property
    def V(self):
        """Potential energy."""
        return self.model.gravity * self._first_moment[:, 2]

    @functools.cached_property
    def com(self):
        """World x, y of the system CoM."""
        return self._first_moment[:, 0:2] * self.model._inv_total_mass

    @functools.cached_property
    def Jcom(self):
        """Jacobian of com: the x, y rows of sum_b m_b Jv_b over the total
        mass."""
        return np.add.reduce(self.HJ[:, :, 0:2], axis=1) * self.model._inv_total_mass


def assemble(model, Q):
    """Assemble dynamics quantities for a batch of configurations Q (B, N),
    real or complex; the outputs keep Q's dtype.

    The batch is small (one configuration per RK4 stage), so the cost is the
    number and shape of array operations rather than their size: the
    per-body kinematics run on contiguous (item, batch, xyz) blocks, the
    Jacobians are gathered and scattered into J in a few flat operations (see
    _layout), and M is the one pair of products J' (H J).  The point rows of
    H J are m Jv exactly (the off-diagonal blocks of H are zero), so g and
    Jcom are sums of m Jv over the bodies, in body order.
    """
    Q = np.asarray(Q)
    Q = Q.astype(complex if Q.dtype.kind == "c" else float, copy=False)
    dtype = Q.dtype
    B, N = Q.shape
    n = model.n_links
    nb = model.n_bodies
    if N != model.dof:
        raise ValueError(f"expected {model.dof} coordinates, got {N}")
    plat = model.platform
    lay = _layout(n, B)

    trig = np.empty((2, N, B), dtype=dtype)
    np.sin(Q.T, out=trig[0])
    np.cos(Q.T, out=trig[1])
    R, E = spatial.rpy_frames_sc(trig[0, 0:3], trig[1, 0:3])
    ez = R[:, :, 2]

    S = np.zeros((lay.G, B, 3), dtype=dtype)
    S[0:3] = E.transpose(1, 0, 2)

    # Body CoM positions: platform, movers 1-2, link CoMs.
    p_bodies = S[lay.gP:lay.gO]
    p_plat = np.multiply(-plat.wire_length, ez, out=p_bodies[0])
    np.add(p_plat + Q[:, 3:5].T[:, :, None] * R[:, :, 0:2].transpose(2, 0, 1),
           plat.rail_height * ez, out=p_bodies[1:3])

    # Frame chain: platform, then each link's rotation through Rodrigues
    # matrices built for all joints at once (indexed [k, b]).
    frames = np.empty((n + 1, B, 3, 3), dtype=dtype)
    frames[0] = R
    if n:
        sc = trig.reshape(-1).take(lay.rod_trig)
        K = model._rodrigues.reshape(-1).take(lay.rod_const)
        A = lay.eye + sc[0] * K[0]
        A += (1.0 - sc[1]) * K[1]
        A = A.reshape(n, B, 3, 3)
        for k in range(n):
            np.matmul(frames[k], A[k], out=frames[k + 1])
    # World images of each frame's body-fixed vectors, indexed [frame, vector,
    # b], then joint origins by accumulating offsets down the chain from the
    # mount point.
    P = (frames[:, None] @ model._frame_vecs[:, :, None])[..., 0]
    origins = S[lay.gO:lay.gA]
    origin = p_plat + P[0, 0]
    for k in range(n):
        origin = np.add(origin, P[k, 1], out=origins[k])
    np.add(origins, P[1:, 0], out=p_bodies[3:])
    S[lay.gA:lay.gA + n] = P[:n, 2]

    # Spatial Jacobians of every body CoM.  Point rows: attitude columns
    # E[:, c] x p (rigid rotation about the pivot), arm columns
    # axis_j x (p - origin_j) on and below the chain's diagonal, and the
    # movers' rail directions.  Angular rows for the rotating bodies
    # (platform and links).  The cross products overwrite the last factor
    # run, which directly precedes the Jw run, so one masked run is
    # scattered.
    F = S.reshape(-1).take(lay.gather)
    L = lay.n_cross
    an, ap, bn, bn0, bp, bp0 = (F[i * L:(i + 1) * L] for i in range(6))
    np.subtract(an * (bp - bp0), ap * (bn - bn0), out=F[5 * L:6 * L])
    vals = F[5 * L:]
    vals *= lay.mask
    J = np.zeros((B, nb, 6, N), dtype=dtype)
    J.reshape(-1)[lay.target] = vals
    J[:, 1, 0:3, 3] = R[:, :, 0]
    J[:, 2, 0:3, 4] = R[:, :, 1]

    # Spatial inertias: the model's mass template with the world inertias
    # of the rotating bodies, platform and links in one pass over the frame
    # chain.
    I_rot = frames @ model._frame_inertias[:, None] @ frames.transpose(0, 1, 3, 2)
    H = np.empty((B, nb, 6, 6), dtype=dtype)
    H[:] = model._body_inertias
    H[:, 0, 3:6, 3:6] = I_rot[0]
    H[:, 3:, 3:6, 3:6] = I_rot[1:].transpose(1, 0, 2, 3)

    HJ = H @ J
    M = J.reshape(B, nb * 6, N).transpose(0, 2, 1) @ HJ.reshape(B, nb * 6, N)
    M = np.add(M, M.transpose(0, 2, 1))
    M *= 0.5
    g = model.gravity * np.add.reduce(HJ[:, :, 2], axis=1)
    return Assembled(model, origins.transpose(1, 0, 2), p_bodies.transpose(1, 0, 2),
                     J, H, HJ, M, g)


def assemble1(model, q):
    """Single-configuration convenience wrapper."""
    return assemble(model, np.asarray(q, dtype=float)[None])


def potential_offset(model):
    """Potential of the zero configuration, cached on the model; subtracting
    it keeps logged/compared energies at oscillation scale instead of the
    absolute hanging-depth scale."""
    cache = model._v0_cache
    if cache[0] is None:
        cache[0] = float(assemble(model, np.zeros((1, model.dof))).V[0])
    return cache[0]
