"""Generators for test and demo nets.

All randomness goes through a caller-supplied ``numpy.random.Generator`` so
every construction is reproducible from a seed.
"""
from __future__ import annotations

from itertools import combinations

import numpy as np

from .errors import CoincidentPoints, CollinearTriple, DegenerateQuad, DimensionTooLow, VanishingLastComponent
from .geom import DEFAULT_TOL, Tolerances, _plane_frames, lift_to_lightcone
from .isothermic import IsothermicNet, lightcone_evolve, three_leg_evolve
from .koenigs import MoutardNet, moutard_evolve
from .qnet import (
    EdgeLabelling,
    QNet,
    VertexScalar,
    _back,
    _corners,
    _first_positive_axes,
    _raise_first_row,
    _wavefront,
)

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


def grid(extents, ambient_dim: int = 3, spacing: float = 1.0) -> QNet:
    """Regular coordinate grid embedded in the first m coordinate planes."""
    m = len(extents)
    if ambient_dim < m:
        raise DimensionTooLow("ambient dimension below lattice dimension")
    coords = np.meshgrid(*(spacing * np.arange(e) for e in extents), indexing="ij")
    verts = np.zeros(tuple(extents) + (ambient_dim,))
    for ax in range(m):
        verts[..., ax] = coords[ax]
    return QNet(verts)


def _random_axis_curve(n: int, axis: int, ambient_dim: int, rng, noise: float) -> np.ndarray:
    """Near-straight polyline along a coordinate axis with bounded noise."""
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
    """Random 2d Koenigs net from a Moutard evolution in homogeneous
    coordinates, projected back to R^N."""
    rng = np.random.default_rng(rng)
    n1, n2 = extents
    y1 = _homogeneous_axis(n1, 0, ambient_dim, rng, noise)
    y2 = _homogeneous_axis(n2, 1, ambient_dim, rng, noise)
    y2[0] = y1[0]
    a = _base_coeff(0, 1) + noise * rng.standard_normal((n1 - 1, n2 - 1))
    mn = moutard_evolve((y1, y2), {(0, 1): a})
    net, _ = mn.project_homogeneous()
    return net


def _homogeneous_axis(n: int, axis: int, ambient_dim: int, rng, noise: float) -> np.ndarray:
    f = _random_axis_curve(n, axis, ambient_dim, rng, noise)
    w = _W_FACTORS[axis] ** np.arange(n) * (1.0 + noise * rng.standard_normal(n))
    with np.errstate(over="ignore"):  # moutard_evolve rejects what overflows
        return np.concatenate([f, np.ones((n, 1))], axis=-1) * w[:, None]


def random_koenigs_3d(extents, ambient_dim: int = 3, rng=None, noise: float = 0.04):
    """Random 3d Koenigs net; see :func:`random_koenigs_nd`."""
    return random_koenigs_nd(extents, ambient_dim, rng, noise)


def random_koenigs_nd(extents, ambient_dim: int = 3, rng=None, noise: float = 0.04):
    """Random Koenigs net for lattice dimension m >= 3 (m <= 4 supported).

    The coordinate planes are evolved independently; every other point is
    the common intersection of the face lines of a hexahedron below it (the
    Moutard evolution closes around cubes, so the lines meet).  Returns
    ``(net, nu, moutard_net)``.
    """
    rng = np.random.default_rng(rng)
    m = len(extents)
    if not 3 <= m <= len(_W_FACTORS):
        raise ValueError(f"lattice dimension must be 3..{len(_W_FACTORS)}")
    axes = [_homogeneous_axis(n, ax, ambient_dim, rng, noise) for ax, n in enumerate(extents)]
    for ax in range(1, m):
        axes[ax][0] = axes[0][0]
    # coordinate planes by independent 2d evolutions
    planes = {}
    for i, j in combinations(range(m), 2):
        a = _base_coeff(i, j) + noise * rng.standard_normal((extents[i] - 1, extents[j] - 1))
        planes[(i, j)] = moutard_evolve((axes[i], axes[j]), {(0, 1): a}).points
    # every other point, in order of |u|, from the hexahedron spanned by its
    # first three positive axes
    y = _wavefront(planes, _hexahedron_steps)
    coeffs = {pair: _fit_moutard_coeffs(y, *pair) for pair in planes}
    mn = MoutardNet(points=y, coeffs=coeffs)
    net, nu = mn.project_homogeneous()
    return net, nu, mn


def _hexahedron_steps(y, u):
    """y_ijk at u on the hexahedron (i, j, k) below it, as the common point
    of the lines y_ijk - y_k || y_jk - y_ik and y_ijk - y_i || y_ik - y_ij,
    by least squares (SVD, with the rank numpy.linalg.lstsq would find)."""
    i, j, k = _first_positive_axes(u, 3)
    p, q, yik = y[_back(u, i, j)], y[_back(u, j, k)], y[_back(u, j)]
    d1, d2 = y[_back(u, i)] - yik, yik - y[_back(u, k)]
    w, sv, vt = np.linalg.svd(np.stack([d1, -d2], axis=-1), full_matrices=False)
    rank1 = sv[:, 1] <= np.finfo(float).eps * max(d1.shape[1], 2) * sv[:, 0]
    _raise_first_row(u, [(rank1, DegenerateQuad, "parallel Moutard lines in hexahedron fill")])
    t = (vt[:, :, 0] * np.einsum("nik,ni->nk", w, q - p) / sv).sum(axis=-1)
    return p + t[:, None] * d1


def _fit_moutard_coeffs(y: np.ndarray, i: int, j: int) -> np.ndarray:
    """Per-quad least-squares coefficient of y_ij - y = a (y_j - y_i)."""
    y0, yi, yij, yj = _corners(y, i, j)
    d = yj - yi
    lhs = yij - y0
    return (lhs * d).sum(axis=-1) / (d * d).sum(axis=-1)


def random_qnet_3d(extents, rng=None, noise: float = 0.08) -> QNet:
    """Random 3d Q-net that is generically not Koenigs.

    Coordinate planes carry independent random planar-quad nets; interior
    vertices are the intersection of the three face planes of their
    hexahedron (Q-nets propagate this way in R^3).
    """
    rng = np.random.default_rng(rng)
    axis_curves = [_random_axis_curve(n, ax, 3, rng, noise) for ax, n in enumerate(extents)]
    # coordinate planes: random fourth vertices inside each quad plane, lam
    # and mu drawn quad by quad
    planes = {}
    for i, j in ((0, 1), (0, 2), (1, 2)):
        lam, mu = np.moveaxis(1.0 + noise * rng.standard_normal((extents[i] - 1, extents[j] - 1, 2)), -1, 0)

        def step(p, u, lam=lam, mu=mu):
            b = _back(u, 0, 1)
            return p[b] + lam[b][:, None] * (p[_back(u, 1)] - p[b]) + mu[b][:, None] * (p[_back(u, 0)] - p[b])

        planes[(i, j)] = _wavefront({(0,): axis_curves[i], (1,): axis_curves[j]}, step)
    return QNet(_wavefront(planes, _q_cube_steps))


def _q_cube_steps(f, u):
    """f_ijk at u: the common point of the face planes through (f_i, f_ij,
    f_ik) for each axis i of the cube below u."""
    normals, offsets = [], []
    for b, c in ((1, 2), (0, 2), (0, 1)):
        p0, p1, p2 = f[_back(u, b, c)], f[_back(u, c)], f[_back(u, b)]
        n = np.cross(p1 - p0, p2 - p0)
        normals.append(n)
        offsets.append((n * p0).sum(axis=-1))
    return np.linalg.solve(np.stack(normals, axis=1), np.stack(offsets, axis=1)[..., None])[..., 0]


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
    """Random isothermic net (m = 2 or 3) from isotropic Moutard data.

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
    last = image[..., -1]
    if np.any(np.abs(last) <= tol.incidence * np.abs(image).max()):
        raise VanishingLastComponent("projective image passes through infinity")
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


def flip_corner_cross_ratio(iso: IsothermicNet, tol: Tolerances = DEFAULT_TOL):
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
