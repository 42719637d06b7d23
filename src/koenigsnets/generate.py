"""Generators for test and demo nets.

All randomness goes through a caller-supplied ``numpy.random.Generator`` so
every construction is reproducible from a seed.
"""
from __future__ import annotations

from itertools import combinations

import numpy as np

from .errors import (CoincidentPoints, CollinearTriple, DegenerateQuad, DimensionTooLow, InvalidValue,
                     UnsupportedDimension, VanishingLastComponent)
from .geom import DEFAULT_TOL, Tolerances, _plane_frames, lift_to_lightcone
from .isothermic import IsothermicNet, lightcone_evolve, three_leg_evolve
from .koenigs import MoutardNet, moutard_evolve
from .qnet import EdgeLabelling, QNet, VertexScalar, _chart, _corners, _frozen, _raise_first_row, _wavefront

__all__ = [
    "grid",
    "random_koenigs_2d",
    "random_koenigs_3d",
    "random_qnet_3d",
    "random_isothermic_2d",
    "random_isothermic_lightcone",
    "perturb_in_plane",
    "apply_projective",
    "random_projective",
    "apply_moebius",
    "flip_corner_cross_ratio",
]


def grid(extents, ambient_dim: int = 3) -> QNet:
    """Regular coordinate grid embedded in the first m coordinate planes."""
    m = len(extents)
    if ambient_dim < m:
        raise DimensionTooLow("ambient dimension below lattice dimension")
    coords = np.meshgrid(*(np.arange(e) for e in extents), indexing="ij")
    verts = np.zeros(tuple(extents) + (ambient_dim,))
    for ax in range(m):
        verts[..., ax] = coords[ax]
    return QNet(verts)


def _random_axis_curve(n: int, axis: int, ambient_dim: int, rng, noise: float) -> np.ndarray:
    """Near-straight polyline along a coordinate axis with bounded noise."""
    if n < 2:
        raise InvalidValue("every axis needs at least 2 vertices")
    pts = np.zeros((n, ambient_dim))
    pts[:, axis % ambient_dim] = np.arange(n)
    pts += noise * rng.standard_normal((n, ambient_dim))
    pts[0] = 0.0  # shared origin across axes
    return pts


# per-axis growth factors of w = 1 / nu; the Moutard coefficient matching
# a_ij = (A_i A_j - 1) / (A_j - A_i) is then well away from 0 and infinity,
# and the diagonal ratio q_ij = 1 / (A_i A_j) stays away from 1.
_W_FACTORS = (-1.0, 2.0, -1.0 / 3.0, 3.0)


def _base_coeff(i: int, j: int) -> float:
    ai, aj = _W_FACTORS[i], _W_FACTORS[j]
    return (ai * aj - 1.0) / (aj - ai)


def random_koenigs_2d(extents, ambient_dim: int = 3, rng=None, noise: float = 0.05) -> QNet:
    """Random 2d Koenigs net: the net of :func:`random_koenigs_nd`."""
    if len(extents) != 2:
        raise ValueError("random_koenigs_2d needs two extents")
    return random_koenigs_nd(extents, ambient_dim, rng, noise)[0]


def _homogeneous_axis(n: int, axis: int, ambient_dim: int, rng, noise: float) -> np.ndarray:
    f = _random_axis_curve(n, axis, ambient_dim, rng, noise)
    with np.errstate(over="ignore"):  # moutard_evolve rejects what overflows
        w = _W_FACTORS[axis] ** np.arange(n) * (1.0 + noise * rng.standard_normal(n))
        return np.concatenate([f, np.ones((n, 1))], axis=-1) * w[:, None]


def random_koenigs_3d(extents, ambient_dim: int = 3, rng=None, noise: float = 0.04):
    """Random 3d Koenigs net; see :func:`random_koenigs_nd`."""
    return random_koenigs_nd(extents, ambient_dim, rng, noise)


def random_koenigs_nd(extents, ambient_dim: int = 3, rng=None, noise: float = 0.04):
    """Random Koenigs net for lattice dimension m = 2..4, from a Moutard
    evolution in homogeneous coordinates projected back to R^N.

    The coordinate planes are evolved independently; every other point is
    the common intersection of the face lines of a hexahedron below it (the
    Moutard evolution closes around cubes, so the lines meet).  Returns
    ``(net, nu, moutard_net)``.
    """
    rng = np.random.default_rng(rng)
    m = len(extents)
    if not 2 <= m <= len(_W_FACTORS):
        raise UnsupportedDimension(f"lattice dimension must be 2..{len(_W_FACTORS)}")
    axes = [_homogeneous_axis(n, ax, ambient_dim, rng, noise) for ax, n in enumerate(extents)]
    for ax in range(1, m):
        axes[ax][0] = axes[0][0]
    # coordinate planes by independent 2d evolutions
    planes = {}
    for i, j in combinations(range(m), 2):
        a = _base_coeff(i, j) + noise * rng.standard_normal((extents[i] - 1, extents[j] - 1))
        planes[(i, j)] = moutard_evolve({(0,): axes[i], (1,): axes[j]}, {(0, 1): a}).points
    # every other point, in order of |u|, from the hexahedron spanned by its
    # first three positive axes
    y = _wavefront(planes, _hexahedron_steps)
    coeffs = {}
    for i, j in planes:  # per quad, the least-squares a of y_ij - y = a (y_j - y_i)
        y0, yi, yij, yj = _corners(y, i, j)
        d = yj - yi
        coeffs[(i, j)] = _frozen(((yij - y0) * d).sum(axis=-1) / (d * d).sum(axis=-1))
    mn = MoutardNet(points=_frozen(y), coeffs=coeffs)
    net, nu = mn.project_homogeneous()
    return net, nu, mn


def _hexahedron_steps(y, level):
    """y_ijk on the hexahedron (i, j, k) below each vertex of a level, as the
    common point of the lines y_ijk - y_k || y_jk - y_ik and y_ijk - y_i ||
    y_ik - y_ij, by least squares (SVD, with the rank numpy.linalg.lstsq would find)."""
    i, j, k = level.axes[:3]
    p, q, yik, yi, yk = y[np.stack([level.back(i, j), level.back(j, k), level.back(j), level.back(i), level.back(k)])]
    d1, d2 = yi - yik, yik - yk
    w, sv, vt = np.linalg.svd(np.stack([d1, -d2], axis=-1), full_matrices=False)
    rank1 = sv[:, 1] <= np.finfo(float).eps * max(d1.shape[1], 2) * sv[:, 0]
    _raise_first_row(level.u, [(rank1, DegenerateQuad, "parallel Moutard lines in hexahedron fill")])
    t = (vt[:, :, 0] * np.einsum("nik,ni->nk", w, q - p) / sv).sum(axis=-1)
    return p + t[:, None] * d1


def random_qnet_3d(extents, rng=None, noise: float = 0.08) -> QNet:
    """Random 3d Q-net that is generically not Koenigs.

    Coordinate planes carry independent random planar-quad nets; interior
    vertices are the intersection of the three face planes of their
    hexahedron (Q-nets propagate this way in R^3).
    """
    if len(extents) != 3:
        raise ValueError("random_qnet_3d needs three extents")
    rng = np.random.default_rng(rng)
    axis_curves = [_random_axis_curve(n, ax, 3, rng, noise) for ax, n in enumerate(extents)]
    # coordinate planes: random fourth vertices inside each quad plane, lam
    # and mu drawn quad by quad, kept at the quad's last vertex
    planes = {}
    for i, j in ((0, 1), (0, 2), (1, 2)):
        lam_mu = np.zeros((extents[i], extents[j], 2))
        lam_mu[1:, 1:] = 1.0 + noise * rng.standard_normal((extents[i] - 1, extents[j] - 1, 2))

        def step(p, level, lam_mu=lam_mu.reshape(-1, 2)):
            b, (lam, mu) = level.back(0, 1), lam_mu[level.k].T
            return p[b] + lam[:, None] * (p[level.back(1)] - p[b]) + mu[:, None] * (p[level.back(0)] - p[b])

        planes[(i, j)] = _wavefront({(0,): axis_curves[i], (1,): axis_curves[j]}, step)
    return QNet(_wavefront(planes, _q_cube_steps))


def _q_cube_steps(f, level):
    """f_ijk at each vertex of a level: the common point of the face planes
    through (f_i, f_ij, f_ik) for each axis i of the cube below it."""
    s0, s1, s2 = level.strides
    back = [[s1 + s2, s2, s1], [s0 + s2, s2, s0], [s0 + s1, s1, s0]]  # f_ijk to (f_i, f_ij, f_ik) of face i
    p0, p1, p2 = np.moveaxis(f[level.k[:, None, None] - back], 2, 0)
    (a0, a1, a2), (b0, b1, b2) = np.moveaxis(p1 - p0, -1, 0), np.moveaxis(p2 - p0, -1, 0)
    normals = np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)  # np.cross, bit for bit
    return np.linalg.solve(normals, (normals * p0).sum(axis=-1)[..., None])[..., 0]


def random_isothermic_2d(extents, ambient_dim: int = 3, rng=None, noise: float = 0.05) -> IsothermicNet:
    """Random 2d isothermic net from the three-leg evolution with labels
    alpha_1 near 1 and alpha_2 near -1 (embedded quads)."""
    rng = np.random.default_rng(rng)
    n1, n2 = extents
    f1 = _random_axis_curve(n1, 0, ambient_dim, rng, noise)
    f2 = _random_axis_curve(n2, 1, ambient_dim, rng, noise)
    f2[0] = f1[0]
    labels = EdgeLabelling((
        1.0 + noise * rng.standard_normal(n1 - 1),
        -1.0 + noise * rng.standard_normal(n2 - 1),
    ))
    return three_leg_evolve((f1, f2), labels)


def random_isothermic_lightcone(extents, ambient_dim: int = 3, rng=None, noise: float = 0.05):
    """Random isothermic net, any m >= 2, from isotropic Moutard data.

    Axis data are light-cone lifts y = (f + e_0 + |f|^2 e_inf) / s of random
    axis curves with random metric values s.  Returns ``(MoutardNet,
    IsothermicNet)``.
    """
    rng = np.random.default_rng(rng)
    m = len(extents)
    axes = []
    for ax, n in enumerate(extents):
        f = _random_axis_curve(n, ax, ambient_dim, rng, noise)
        sign = np.where(np.arange(n) % 2 == 0, 1.0, -1.0) if ax == 1 else np.ones(n)
        s = sign * (1.0 + noise * rng.standard_normal(n))
        with np.errstate(over="ignore"):  # lightcone_evolve rejects what overflows
            axes.append(lift_to_lightcone(f) / s[:, None])
    for ax in range(1, m):
        axes[ax][0] = axes[0][0]
    return lightcone_evolve(axes)


def perturb_in_plane(net: QNet, rng=None, magnitude: float = 1e-2) -> QNet:
    """Move one window-corner vertex inside the plane of its only quad.

    Planarity of every elementary quad is preserved, so the result is still
    a Q-net, but diagonal products and duality generically break.
    """
    rng = np.random.default_rng(rng)
    corner = tuple(e - 1 for e in net.extents)
    sq = net.vertices[(slice(-2, None),) * 2 + corner[2:]]  # the (0, 1) quad at the corner
    e1 = sq[1, 0] - sq[0, 0]
    e2 = sq[0, 1] - sq[0, 0]
    step = rng.standard_normal() * e1 + rng.standard_normal() * e2
    step *= magnitude * net.diameter() / np.linalg.norm(step)
    verts = net.vertices.copy()
    verts[corner] = verts[corner] + step
    return QNet(verts)


def random_projective(ambient_dim: int, rng=None, spread: float = 0.1) -> np.ndarray:
    """Random projective transformation near the identity, as an
    (N+1) x (N+1) matrix acting on homogeneous coordinates."""
    rng = np.random.default_rng(rng)
    return np.eye(ambient_dim + 1) + spread * rng.standard_normal((ambient_dim + 1,) * 2)


def apply_projective(net: QNet, matrix: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> QNet:
    """Apply a projective map in homogeneous coordinates."""
    homog = np.concatenate([net.vertices, np.ones(net.extents + (1,))], axis=-1)
    image = homog @ np.asarray(matrix, dtype=float).T
    last = _chart(image, -1, VanishingLastComponent, "projective image passes through infinity", tol)
    return QNet(image[..., :-1] / last[..., None])


def apply_moebius(net: QNet, center=None, radius: float = 1.0, shift=None, scale: float = 1.0) -> QNet:
    """Similarity followed by an inversion f -> c + r^2 (f - c) / |f - c|^2.

    The center must lie off the net; circles map to circles, so circularity
    and isothermicity are preserved.
    """
    f = scale * net.vertices
    if shift is not None:
        f = f + np.asarray(shift, dtype=float)
    if center is None:
        lo = f.reshape(-1, net.ambient_dim).min(axis=0)
        center = lo - 1.5 * np.ones(net.ambient_dim)  # safely outside the window
    center = np.asarray(center, dtype=float)
    d = f - center
    norm2 = (d * d).sum(axis=-1, keepdims=True)
    if np.any(norm2 == 0.0):
        raise ValueError("inversion center lies on the net")
    return QNet(center + radius**2 * d / norm2)


def flip_corner_cross_ratio(iso: IsothermicNet):
    """Break isothermicity while keeping the discrete-metric factorization.

    In the last quad (f, f_1, f_12, f_2) of a 2d net, the corner f_12 moves
    to the other point of the quad's circle with its ratio of distances from
    f_1 and f_2.  In plane coordinates, w(z) = (z - z_1) / (z - z_2) maps the
    circle to a line through 0 and those points to |w| = |w(z_12)|, so the
    new corner solves w(z') = -w(z_12).  Both edge lengths into the corner
    rescale by the same factor, so |f_i - f|^2 = alpha_i s s_i still holds
    with one adjusted value of s, but the quad stops being embedded and its
    cross-ratio changes sign.  Returns ``(QNet, VertexScalar)``.
    """
    net = iso.net
    if net.m != 2:
        raise ValueError("corner construction is for m == 2")
    corner = tuple(e - 1 for e in net.extents)
    pts = net.vertices[-2:, -2:].reshape(4, -1)[[0, 2, 3, 1]]  # (f, f_1, f_12, f_2)
    u, v, z, nu, spans = (a[0] for a in _plane_frames(pts[None]))
    if nu == 0.0:
        raise CoincidentPoints("cannot build a frame from coincident points")
    if not spans.any():
        raise CollinearTriple("all points are collinear; no plane frame")
    _, zi, zij, zj = z.view(complex)[:, 0].tolist()
    w = (zij - zi) / (zij - zj) if zij != zj else complex("inf")
    if not np.isfinite(w) or 1.0 + w == 0.0:
        raise DegenerateQuad("the corner has no second point at its distance ratio")
    new = (zi + w * zj) / (1.0 + w)
    new_pt = pts[0] + new.real * u + new.imag * v
    verts = net.vertices.copy()
    verts[corner] = new_pt
    s = iso.metric.values.copy()
    # both edge lengths into the corner scale by the same factor, so one
    # rescaled metric value repairs both factorizations (gauge-free)
    d_new = new_pt - pts[1]
    d_old = pts[2] - pts[1]
    s[corner] *= float((d_new * d_new).sum() / (d_old * d_old).sum())
    return QNet(verts), VertexScalar(s)
