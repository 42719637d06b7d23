"""Euclidean and Minkowski kernels over stacked arrays.

A quad is an array ``(4, N)``, N >= 2, of its vertices (A, B, C, D) in
cyclic order, and a stack of quads is one array ``(..., 4, N)``: each kernel
treats the whole stack in one numpy pass.  A point of Minkowski space R^{N+1,1} is a
flat array ``(..., N+2)`` with components [f_1, ..., f_N, e_0, e_inf], the
layout of the Moutard representation in the light cone.  Everything here is
a pure function of its inputs; tolerances are relative and collected in
:class:`Tolerances`.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import NamedTuple

import numpy as np

from .errors import (
    CoincidentPoints,
    CollinearTriple,
    DegenerateQuad,
    DimensionMismatch,
    GeneralPositionViolated,
    InvalidValue,
    NotConcircular,
    NotPlanar,
    PointOffLine,
    VertexOnDiagonal,
)

__all__ = [
    "Tolerances",
    "Diagonals",
    "quad_diagonals",
    "quad_planarity",
    "span_residual",
    "menelaus_product",
    "QuadCircles",
    "quad_circles",
    "raise_quad_error",
    "is_convex",
    "minkowski_dot",
    "lift_to_lightcone",
]


@dataclass(frozen=True)
class Tolerances:
    """Relative tolerances: ``incidence`` for point/line/plane predicates,
    ``product`` for multiplicative-cycle residuals."""

    incidence: float = 1e-9
    product: float = 1e-8

    def __post_init__(self):
        if self.incidence <= 0 or self.product <= 0:
            raise InvalidValue("tolerances must be strictly positive")


DEFAULT_TOL = Tolerances()


class Diagonals(NamedTuple):
    """Per-quad output of :func:`quad_diagonals`."""

    point: np.ndarray  # (Q, N) intersection M of the diagonals AC and BD
    t: np.ndarray  # (Q,) M = A + t (C - A)
    s: np.ndarray  # (Q,) M = B + s (D - B)
    q_ac: np.ndarray  # (Q,) l(M,C)/l(M,A)
    q_bd: np.ndarray  # (Q,) l(M,D)/l(M,B)


_ONE_QUAD = (  # messages(k, value) of the guards of quad_diagonals for a single quad
    lambda k, value: "diagonals are parallel (intersection at infinity)",
    lambda k, value: f"skew diagonals: residual {value:.3e} exceeds tolerance",
    lambda k, value: "diagonal intersection coincides with a vertex",
)
_EXACT_BELOW = 1e-4


def quad_diagonals(pts: np.ndarray, tol: Tolerances = DEFAULT_TOL, messages=_ONE_QUAD, rho=None) -> Diagonals:
    """Intersection of the diagonals AC and BD of stacked quads (Q, 4, N),
    each (A, B, C, D) in cyclic order, in float64.

    With h_X the signed distance of vertex X from the other diagonal,
    q_ac = h_C/h_A, q_bd = h_D/h_B, t = h_A/(h_A - h_C), s = h_B/(h_B - h_D),
    read in an orthonormal frame of the diagonals' plane found by
    Gram-Schmidt applied twice.  Quads with a height below ``_EXACT_BELOW``
    of the terms it sums (digits lost to cancellation) get their heights
    from :func:`_exact_heights`.  Guards, each over the whole stack before
    the next: DegenerateQuad for parallel diagonals (sin^2 of their angle <=
    tol.incidence) and for skew ones (``rho``, the quads'
    :func:`quad_planarity`, computed here if None, not <= tol.incidence),
    VertexOnDiagonal for t or s within tol.incidence of 0 or 1;
    ``messages[g](k, value)`` words the error of guard g at quad k.
    """
    abcd = np.moveaxis(np.asarray(pts, dtype=float), 0, -1)
    unit = _unit(abcd)
    abcd = np.ascontiguousarray(abcd if unit == 1.0 else abcd * unit)
    a, b, c, d = abcd  # (N, Q) each
    u, v, w = c - a, d - b, b - a
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        uu, vv = _dot(u, u), _dot(v, v)
        lu = np.sqrt(uu)
        e1 = u / lu
        (v1,), v_perp = _reject(v, e1)
        v2 = np.sqrt(_dot(v_perp, v_perp))  # v = v1 e1 + v2 e2
        (w1, w2), off = _reject(w, e1, v_perp / v2)  # off: from the line AC to the line BD
        rho = quad_planarity(np.moveaxis(abcd, -1, 0)) if rho is None else np.ravel(rho)
        _raise_first([(DegenerateQuad, ~(v2 * v2 > tol.incidence * vv), None),
                      (DegenerateQuad, ~(rho <= tol.incidence), rho)], messages)
        # the heights of A, C, A - C over BD (times |v|), of B, D, B - D over AC,
        # and the squared sizes of the terms each one sums
        h_a, h_ac, ww = w1 * v2 - w2 * v1, lu * v2, w1 * w1 + w2 * w2
        h = np.stack([h_a, h_a - h_ac, h_ac, w2, w2 + v2, -v2])
        sizes2 = np.stack([ww * vv, (ww + uu) * vv, uu * vv, ww, ww + vv, vv])
        rough = np.flatnonzero((h * h < _EXACT_BELOW**2 * sizes2).any(axis=0))
        if len(rough):
            h[:, rough] = _exact_heights(*abcd[:, :, rough])
        h_a, h_c, h_ac, h_b, h_d, h_bd = h
        t, s = h_a / h_ac, h_b / h_bd
        near = np.minimum.reduce([np.abs(t), np.abs(h_c / h_ac), np.abs(s), np.abs(h_d / h_bd)])
        diag = Diagonals(((a + t * u + 0.5 * off) / unit).T, t, s, h_c / h_a, h_d / h_b)
    _raise_first([(VertexOnDiagonal, near <= tol.incidence, near)], messages[2:])
    return diag


def quad_planarity(pts) -> np.ndarray:
    """Coplanarity residual rho of each quad of a stack (..., 4, N): the distance h = 6 vol / (2 max area) of
    the vertex opposite the largest corner triangle from its plane, over the quad's diameter; symmetric, 0 iff
    the points are coplanar, >= sigma_2 / sigma_0 of the centred points over sqrt(2).  Each quad is scaled by a
    power of two; 6 vol = |u ^ v ^ w| (u, v, w = B - A, C - A, D - A), 2 area = |x ^ y| from minors."""
    pts = np.asarray(pts, dtype=float)
    abcd = np.ascontiguousarray(np.moveaxis(pts.reshape(-1, 4, pts.shape[-1]), 0, -1))
    (i, j), _ = _subsets(pts.shape[-1], 2)
    pqr, at = _subsets(pts.shape[-1], 3)  # per triple p < q < r: the positions of (q, r), (p, r), (p, q) in pairs
    rho = np.empty(abcd.shape[-1])
    for k in range(0, len(rho), 512):  # larger wins in timeit, loses in pipelines: its temporaries pass mmap threshold
        s = np.subtract(*abcd[..., k:k + 512].take([[1, 2, 3, 2, 3, 3], [0, 0, 0, 1, 1, 2]], axis=0))  # the edges
        s = np.ldexp(s, -np.frexp(np.abs(s[:3]).max(axis=(0, 1)))[1], out=s)
        x, y = s.take([[0, 0, 1, 3], [1, 2, 2, 4]], axis=0)  # the legs of ABC, ABD, ACD, BCD from their first vertex
        wedge = x.take(i, axis=1) * y.take(j, axis=1) - x.take(j, axis=1) * y.take(i, axis=1)
        vol = s[2].take(pqr, axis=0) * wedge[0].take(at, axis=0)  # w_p (u ^ v)_qr, w_q (u ^ v)_pr, w_r (u ^ v)_pq
        vol, area2 = vol[0] - vol[1] + vol[2], (wedge * wedge).sum(axis=1).max(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            rho2 = _dot(vol, vol) / (area2 * (s * s).sum(axis=1).max(axis=0))
        rho[k:k + 512] = np.where(area2 == 0.0, 0.0, np.sqrt(rho2))
    return rho.reshape(pts.shape[:-2])


def span_residual(vectors, rank: int) -> np.ndarray:
    """sqrt(|^{r+1} A|^2 / (|^r A|^2 |A|_F^2)), r = ``rank``, of each matrix A of a stack (..., k, n), where
    |^s A|^2 is the sum of the squared s x s minors (1 for s = 0): zero iff the rows span at most r linear
    dimensions; 0 where A has rank below r or fewer than r + 1 rows or columns.  By Cauchy-Binet |^s A|^2 is
    the s-th elementary symmetric function of the sigma_i^2, so with p = min(k, n) the residual lies within
    [1 / sqrt(p C(p, r)), sqrt(C(p, r + 1))] sigma_r / sigma_0.  Centre the rows first to test the affine span."""
    a = np.asarray(vectors, dtype=float)
    res = np.zeros(a.shape[:-2])
    out = res.reshape(-1)
    for k, block in _blocks(a) if min(a.shape[-2:]) > rank else ():
        e = [1.0] + [_dot(w, w) for w in _wedges(block, rank + 1)]  # |^s A|^2, s = 0..rank + 1
        den = e[rank] * e[1]
        with np.errstate(divide="ignore", invalid="ignore"):
            out[k:k + block.shape[-1]] = np.where(den == 0.0, 0.0, np.sqrt(e[rank + 1] / den))
    return res


def _span_distances(vectors: np.ndarray, rank: int, probes: np.ndarray) -> np.ndarray:
    """Distances (V, P) of probes (V, P, n) from the span of the ``rank`` rows of each matrix of a stack
    (V, k, n) whose wedge R is largest: |R ^ x| / |R|, each (rank + 1)-minor of R ^ x by Laplace expansion
    along x over the rank-minors of R.  NaN where no ``rank`` rows are independent."""
    out = np.empty(probes.shape[:2])
    cols, drop = _subsets(probes.shape[-1], rank + 1)
    for k, block in _blocks(vectors):
        top = _wedges(block, rank)[-1].reshape(-1, comb(probes.shape[-1], rank), block.shape[-1])
        w2 = np.einsum("rcv,rcv->rv", top, top)
        r = np.take_along_axis(top, w2.argmax(axis=0)[None, None], axis=0)[0]  # (C(n, rank), B)
        terms = np.moveaxis(probes[k:k + block.shape[-1]], 0, -1)[:, cols] * r[drop]  # (P, rank + 1, C, B)
        wedge = terms[:, 0::2].sum(axis=1) - terms[:, 1::2].sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            out[k:k + block.shape[-1]] = np.sqrt(np.einsum("pcv,pcv->vp", wedge, wedge) / w2.max(axis=0)[:, None])
    return out


def _blocks(a: np.ndarray):
    """(start, block) over a stack (..., k, n) of matrices in blocks of 512, each coordinate-major (k, n, B)
    and each matrix scaled by a power of two to a largest entry in [1/2, 1), so that no minor overflows."""
    flat = a.reshape(-1, *a.shape[-2:])
    for k in range(0, len(flat), 512):
        block = np.ascontiguousarray(np.moveaxis(flat[k:k + 512], 0, -1))
        yield k, np.ldexp(block, -np.frexp(np.abs(block).max(axis=(0, 1)))[1], out=block)


def _wedges(a: np.ndarray, upto: int) -> list:
    """The s x s minors, s = 1..upto, of each matrix of a coordinate-major block (k, n, B), level by level by
    Laplace expansion along the first row: level s is (C(k, s) C(n, s), B), its row subsets major."""
    k, n, _ = a.shape
    levels = [a.reshape(k * n, -1)]
    for s in range(2, upto + 1):
        at_a, at_prev = _laplace(k, n, s)
        terms = levels[0].take(at_a, axis=0)
        terms *= levels[-1].take(at_prev, axis=0)  # (s, C(k, s) C(n, s), B)
        levels.append(terms[0::2].sum(axis=0) - terms[1::2].sum(axis=0))
        del terms  # before the next level's
    return levels


@functools.cache
def _subsets(n: int, s: int) -> tuple:
    """Per s-subset c of range(n), in lexicographic order: its elements c_t, and the index of c without c_t
    among the (s - 1)-subsets; each (s, C(n, s))."""
    subsets = list(combinations(range(n), s))
    index = {c: i for i, c in enumerate(combinations(range(n), s - 1))}
    drop = [[index[c[:t] + c[t + 1:]] for t in range(s)] for c in subsets]
    return np.array(subsets, dtype=int).reshape(-1, s).T, np.array(drop, dtype=int).reshape(-1, s).T


@functools.cache
def _laplace(k: int, n: int, s: int) -> tuple:
    """Where the terms of the s-minors of a (k, n) matrix sit, expanded along the first row of each row
    subset: the flat entry (first row, t-th column) and the (s - 1)-minor without them, each (s, C(k, s) C(n, s))."""
    (rows, row_drop), (cols, col_drop) = _subsets(k, s), _subsets(n, s)
    return ((rows[0][:, None] * n + cols[:, None]).reshape(s, -1),
            (row_drop[0][:, None] * comb(n, s - 1) + col_drop[:, None]).reshape(s, -1))


def _unit(x: np.ndarray) -> float:
    """1, or for coordinates x far from 1 the power of two that scales them
    exactly to below 1, so that no fourth power of a length overflows or
    underflows."""
    big = max(x.max(initial=0.0), -x.min(initial=0.0))
    return 1.0 if 2.0**-200 < big < 2.0**200 else 0.5 ** np.frexp(big)[1]


def _raise_first(checks, messages) -> None:
    """Raise the error of the first quad failing the first failing check,
    ((error class, failed (Q,), values (Q,) or None), ...)."""
    for (cls, failed, values), message in zip(checks, messages):
        if failed.any():
            k = int(np.argmax(failed))
            raise cls(message(k, None if values is None else float(values[k])))


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot products of vectors stored along the first axis."""
    return np.einsum("i...,i...->...", x, y)


def _reject(x: np.ndarray, *frame):
    """The coordinates of x along the orthonormal ``frame``, and the rest of
    x, by Gram-Schmidt applied twice (once leaves the rest far from
    orthogonal to the frame when x nearly lies in its span)."""
    coords = [0.0] * len(frame)
    for _ in range(2):
        for k, e in enumerate(frame):
            xe = _dot(x, e)
            coords[k], x = coords[k] + xe, x - xe * e
    return coords, x


def _exact_heights(a, b, c, d) -> np.ndarray:
    """The heights (A, C, A - C, B, D, B - D) of :func:`quad_diagonals` of the
    quads a, b, c, d (N, F), each triple up to a common factor, as
    <v ^ (A - B), u ^ v>, ..., <u ^ (B - D), u ^ v> with u = C - A, v = D - B:
    error-free (Dekker) until each wedge component is rounded once, and the
    bivectors of a planar quad are parallel, so the sums do not cancel."""
    i, j = np.triu_indices(len(a), 1)
    (uh, vh), (ul, vl) = _two_sum(np.stack([c, d]), -np.stack([a, b]))
    ref = uh[i] * vh[j] - uh[j] * vh[i]
    xh, xl = np.stack([vh] * 3 + [uh] * 3), np.stack([vl] * 3 + [ul] * 3)
    yh, yl = _two_sum(np.stack([a, c, a, b, d, b]), -np.stack([b, b, c, a, a, d]))
    p, p_lo = _two_prod(xh[:, i], yh[:, j])
    q, q_lo = _two_prod(xh[:, j], yh[:, i])
    wedge, lo = _two_sum(p, -q)
    lo += (p_lo + xh[:, i] * yl[:, j] + xl[:, i] * yh[:, j]) - (q_lo + xh[:, j] * yl[:, i] + xl[:, j] * yh[:, i])
    return ((wedge + lo) * ref).sum(axis=1)


def _two_sum(x, y):
    """x + y as an unevaluated sum (hi, lo) of two doubles, exactly."""
    s = x + y
    yv = s - x
    return s, (x - (s - yv)) + (y - yv)


def _two_prod(x, y):
    """x * y as an unevaluated sum (hi, lo) of two doubles, exactly: each
    factor splits into 26 leading bits and the rest by 2**27 + 1."""
    p = x * y
    xh, yh = (134217729.0 * z - (134217729.0 * z - z) for z in (x, y))
    xl, yl = x - xh, y - yh
    return p, ((xh * yh - p) + xh * yl + xl * yh) + xl * yl


def is_convex(quads) -> np.ndarray:
    """Whether each quad of a stack (..., 4, N) is convex (embedded, no
    crossing): in the plane frame of :func:`_plane_frames`, its four corners
    turn the same way, each strictly.  A quad without a plane frame is not
    convex."""
    pts = np.asarray(quads, dtype=float)
    z = _plane_frames(pts.reshape(-1, 4, pts.shape[-1]))[2]
    with np.errstate(invalid="ignore"):
        side = np.roll(z, -1, axis=1) - z  # B - A, C - B, D - C, A - D
        nxt = np.roll(side, -1, axis=1)
        turn = side[..., 0] * nxt[..., 1] - side[..., 1] * nxt[..., 0]
    return ((turn > 0).all(axis=1) | (turn < 0).all(axis=1)).reshape(pts.shape[:-2])


def menelaus_product(vertices, division_points, tol: Tolerances = DEFAULT_TOL) -> float:
    """Product of ratios of directed lengths for n+1 points dividing the
    sides of an n-simplex cycle.

    ``vertices`` are n+1 points in general position in R^n, and
    ``division_points[i]`` lies on the line (P_i, P_{i+1}).  The product
    equals (-1)^(n+1) iff the division points lie in an (n-1)-dimensional
    affine subspace.
    """
    verts = [np.asarray(p, dtype=float) for p in vertices]
    divs = [np.asarray(p, dtype=float) for p in division_points]
    n = len(verts) - 1
    if len(divs) != n + 1:
        raise DimensionMismatch("need as many division points as vertices")
    if not span_residual(np.subtract(verts, np.mean(verts, axis=0)), n - 1) > tol.incidence:
        raise GeneralPositionViolated("vertices do not span an n-dimensional affine space")
    scale = max(np.linalg.norm(p - verts[0]) for p in verts[1:])
    product = 1.0
    for i in range(n + 1):
        p, pn = verts[i], verts[(i + 1) % (n + 1)]
        edge = pn - p
        w = divs[i] - p
        xi = float(np.dot(w, edge) / np.dot(edge, edge))
        off = np.linalg.norm(w - xi * edge)
        if off > tol.incidence * scale:
            raise PointOffLine(f"division point {i} is off its line by {off:.3e}")
        if abs(xi) <= tol.incidence or abs(1.0 - xi) <= tol.incidence:
            raise PointOffLine(f"division point {i} coincides with an endpoint")
        product *= xi / (1.0 - xi)
    return product


def _plane_frames(pts: np.ndarray):
    """An orthonormal frame (u, v) of the plane of each point set of a stack
    (Q, k, N), k >= 3: u along points[1] - points[0], v from the first later
    point that leaves the line by more than 1e-13 of its distance.

    Returns (u, v, z, nu, spans): the unit vectors (Q, N), the plane
    coordinates z (Q, k, 2) of every point relative to points[0], the length
    nu (Q,) of points[1] - points[0], and whether each later point spans the
    plane (Q, k - 2).  A set with nu == 0 or no spanning point (as when its
    lengths overflow) has no frame; its u, v and z are then meaningless.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rel = pts - pts[:, :1]
        nu = _length(rel[:, 1])
        u = rel[:, 1] / nu[:, None]
        w = rel[:, 2:] - (rel[:, 2:] @ u[..., None]) * u[:, None]
        nw = _length(w)
        spans = nw > 1e-13 * np.maximum(nu[:, None], _length(rel[:, 2:]))
        pick = np.argmax(spans, axis=1)[:, None]
        v = np.take_along_axis(w, pick[..., None], axis=1)[:, 0] / np.take_along_axis(nw, pick, axis=1)
        z = np.stack([(rel @ u[..., None])[..., 0], (rel @ v[..., None])[..., 0]], axis=-1)
    return u, v, z, nu, spans


def _length(vectors: np.ndarray) -> np.ndarray:
    """Euclidean lengths over the last axis, each the square root of a dot
    product, as numpy.linalg.norm computes the length of one vector."""
    return np.sqrt((vectors[..., None, :] @ vectors[..., :, None])[..., 0, 0])


class QuadCircles(NamedTuple):
    """Per-quad output of :func:`quad_circles`, each an array of shape (Q,)."""

    residual: np.ndarray  # concircularity residual
    cross_ratio: np.ndarray  # real part of the cross-ratio
    error: np.ndarray  # key in _QUAD_ERRORS of the first predicate the quad fails, 0 if none
    detail: np.ndarray  # the value that failed it


# the predicates of quad_circles: 1-3 of a plane frame, 4-6 of the circle and the cross-ratio, in test order
_QUAD_ERRORS = {
    1: (NotPlanar, "points are not coplanar (residual {:.3e})"),
    2: (CoincidentPoints, "cannot build a frame from coincident points"),
    3: (CollinearTriple, "all points are collinear; no plane frame"),
    4: (NotConcircular, "points are not concircular (residual {:.3e})"),
    5: (CoincidentPoints, "consecutive points coincide"),
    6: (NotConcircular, "cross-ratio has imaginary residual {:.3e}"),
}


def quad_circles(pts: np.ndarray, tol: Tolerances = DEFAULT_TOL, rho=None) -> QuadCircles:
    """Plane frame, circularity residual and cross-ratio of stacked quads (Q, 4, N), each (a, b, c, d) in
    cyclic order.  In the plane coordinates of :func:`_plane_frames`, each quad scaled by a power of two, the
    residual is |det| of the rows (x, y, x^2 + y^2, 1) over the fourth power of the diameter, zero iff the
    points are concircular; the plane is the complex plane for the cross-ratio (a-b)(b-c)^-1(c-d)(d-a)^-1,
    real for concircular points, independent of the frame and negative exactly for embedded quads.  A quad is
    NotPlanar unless ``rho``, its :func:`quad_planarity` (computed here if None), is <= tol.incidence.  Nothing
    is raised: ``error`` holds the first predicate each quad fails, and :func:`raise_quad_error` raises it."""
    pts = np.asarray(pts, dtype=float)
    rel = np.subtract(pts, pts[:, :1], out=np.empty(pts.shape))  # C order: the frames' matmuls round by layout
    rel = np.ldexp(rel, -np.frexp(np.abs(rel).max(axis=(1, 2), initial=0.0))[1][:, None, None], out=rel)
    _, _, z, nu, spans = _plane_frames(rel)
    del rel  # before the residuals' temporaries
    planar = quad_planarity(pts) if rho is None else np.ravel(rho)
    with np.errstate(divide="ignore", invalid="ignore"):
        side = z[:, [0, 0, 0, 1, 1, 2]] - z[:, [1, 2, 3, 2, 3, 3]]
        diam = np.sqrt((side[..., 0] * side[..., 0] + side[..., 1] * side[..., 1]).max(axis=1))
        x, y = z[:, 1:].T  # (3, Q) each, of b, c, d: a is the origin, so its row is (0, 0, 0, 1)
        w = x * x + y * y
        det = (x[0] * (y[1] * w[2] - w[1] * y[2]) - y[0] * (x[1] * w[2] - w[1] * x[2])
               + w[0] * (x[1] * y[2] - y[1] * x[2]))
        residual = np.abs(det) / diam**4
        za, zb, zc, zd = np.moveaxis(z.view(complex)[..., 0], 1, 0)
        cr = (za - zb) / (zb - zc) * (zc - zd) / (zd - za)
    failed = [
        ~(planar <= tol.incidence),
        nu == 0.0,
        ~spans.any(axis=1),
        residual > tol.incidence,
        (za == zb) | (zb == zc) | (zc == zd) | (zd == za),
        np.abs(cr.imag) > tol.product * (np.abs(cr) + 1.0),
    ]
    error = np.select(failed, [1, 2, 3, 4, 5, 6], 0)  # the first predicate that fails
    detail = np.select(failed, [planar, nu, nu, residual, nu, cr.imag], 0.0)
    return QuadCircles(residual, cr.real.copy(), error, detail)


def raise_quad_error(circles: QuadCircles, upto: int, where=lambda k: "") -> None:
    """Raise the typed error of the first quad that fails one of the
    predicates 1..``upto`` of ``_QUAD_ERRORS``; ``where(k)`` prefixes the
    message with the position of quad k."""
    failed = (circles.error > 0) & (circles.error <= upto)
    if failed.any():
        k = int(np.argmax(failed))
        cls, message = _QUAD_ERRORS[int(circles.error[k])]
        raise cls(where(k) + message.format(circles.detail[k]))


# --- Minkowski space R^{N+1,1} ----------------------------------------------


def minkowski_dot(x, y) -> np.ndarray:
    """<x, y> = sum x_i y_i - (x_0 y_inf + x_inf y_0) / 2 of flat arrays
    (..., N+2): <e_0, e_0> = <e_inf, e_inf> = 0, <e_0, e_inf> = -1/2."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return (x[..., :-2] * y[..., :-2]).sum(axis=-1) - 0.5 * (
        x[..., -2] * y[..., -1] + x[..., -1] * y[..., -2]
    )


def lift_to_lightcone(f) -> np.ndarray:
    """f + e_0 + |f|^2 e_inf of points f (..., N), as (..., N+2); isotropic
    by construction.  |f|^2 is rounded as numpy.dot rounds it (see
    :func:`_length`)."""
    f = np.asarray(f, dtype=float)
    norm2 = (f[..., None, :] @ f[..., :, None])[..., 0]
    return np.concatenate([f, np.ones_like(norm2), norm2], axis=-1)
