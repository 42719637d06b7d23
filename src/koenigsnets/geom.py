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
from collections import namedtuple
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


_EXACT_BELOW = 1e-4


def quad_diagonals(pts: np.ndarray, tol: Tolerances = DEFAULT_TOL, where=lambda k: "") -> Diagonals:
    """Intersection of the diagonals AC and BD of stacked quads (Q, 4, N),
    each (A, B, C, D) in cyclic order, in float64.

    With h_X the signed distance of vertex X from the other diagonal,
    q_ac = h_C/h_A, q_bd = h_D/h_B, t = h_A/(h_A - h_C), s = h_B/(h_B - h_D),
    read in the quads' :func:`_diagonal_frame`.  Quads with a height below
    ``_EXACT_BELOW`` of the terms it sums (digits lost to cancellation) get
    their heights from :func:`_exact_heights`.  Guards, each over the whole
    stack before the next: DegenerateQuad for parallel diagonals (sin^2 of
    their angle <= tol.incidence) and for skew ones (the frame's rho, the
    quads' :func:`quad_planarity`, not <= tol.incidence), VertexOnDiagonal for
    t or s within tol.incidence of 0 or 1, each for its first failing quad k,
    named by ``where(k)`` (:func:`_raise_first`).
    """
    abcd = np.asarray(pts, dtype=float).transpose(1, 2, 0)
    return _diagonals(abcd, _diagonal_frame(abcd), tol, where)


def _diagonals(abcd: np.ndarray, frame, tol: Tolerances, where) -> Diagonals:
    """:func:`quad_diagonals` of the quads abcd (4, N, Q) from their :func:`_diagonal_frame`."""
    exp, lu, uu, vv, v1, v2, w1, w2, off, rho = frame
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        parallel = ~(v2 * v2 > tol.incidence * vv)
        _raise_first([(parallel, DegenerateQuad, "diagonals are parallel (intersection at infinity)")], where)
        skew = ~(rho <= tol.incidence)
        _raise_first([(skew, DegenerateQuad, "skew diagonals: residual {:.3e} exceeds tolerance", rho)], where)
        # the heights of A, C, A - C over BD (times |v|), of B, D, B - D over AC,
        # each rough where its square is below _EXACT_BELOW**2 of the squared sizes of the terms it sums
        h_a, h_ac, ww = w1 * v2 - w2 * v1, lu * v2, w1 * w1 + w2 * w2
        h, sizes = [h_a, h_a - h_ac, h_ac, w2, w2 + v2, -v2], (ww * vv, (ww + uu) * vv, uu * vv, ww, ww + vv, vv)
        rough = np.flatnonzero(functools.reduce(np.logical_or, (x * x < _EXACT_BELOW**2 * z for x, z in zip(h, sizes))))
        if len(rough):
            h[3], quads = w2.copy(), abcd[:, :, rough]  # not into the frame's w2
            for x, exact in zip(h, _exact_heights(*(quads * _unit(quads)))):
                x[rough] = exact
        h_a, h_c, h_ac, h_b, h_d, h_bd = h
        t, s = h_a / h_ac, h_b / h_bd
        near = np.minimum(np.minimum(np.abs(t), np.abs(h_c / h_ac)), np.minimum(np.abs(s), np.abs(h_d / h_bd)))
        a, c = abcd[0], abcd[2]
        point = a + t * (c - a) + 0.5 * np.ldexp(off, exp)  # off: from the line AC to the line BD
        diag = Diagonals(point.T, t, s, h_c / h_a, h_d / h_b)
    _raise_first([(~(near > tol.incidence), VertexOnDiagonal, "diagonal intersection coincides with a vertex")], where)
    return diag


def quad_planarity(pts) -> np.ndarray:
    """Coplanarity residual rho of each quad of a stack (..., 4, N), the rho of its :func:`_diagonal_frame`:
    :func:`span_residual` at rank 2 of the rows C - A, D - B and (B + D - A - C) / sqrt(2), which are sqrt(2)
    times an orthonormal transform of the centred quad.  So rho is that of the centred points, symmetric under
    every vertex order, 0 iff the points are coplanar, and within [1/3, 1] sigma_2 / sigma_0, near coplanarity
    >= sigma_2 / (sqrt(2) sigma_0)."""
    pts = np.asarray(pts, dtype=float)
    return _diagonal_frame(pts.reshape(-1, 4, pts.shape[-1]).transpose(1, 2, 0)).rho.reshape(pts.shape[:-2])


# the output of _diagonal_frame, per quad of a stack: each (Q,) but off (N, Q)
_Frame = namedtuple("_Frame", "exp lu uu vv v1 v2 w1 w2 off rho")
_TINY = np.finfo(float).tiny
_BLOCK = 4096  # quads per pass: the temporaries stay in cache and are reused, not mapped afresh


def _diagonal_frame(abcd: np.ndarray) -> _Frame:
    """The frame of the diagonals of each quad of a stack abcd (4, N, Q), and its coplanarity residual rho.

    The rows u = C - A, v = D - B and w = B - A of a quad are scaled by the power of two 2^-exp that brings
    their largest entry to [1/2, 1) and read in the orthonormal frame (e_1, e_2) of Gram-Schmidt applied twice
    (once leaves a rest far from orthogonal when its vector nearly lies in the frame's span): u = lu e_1,
    v = v1 e_1 + v2 e_2, w = w1 e_1 + w2 e_2 + off, uu = |u|^2, vv = |v|^2, with e_2 the rest of v over v2,
    or over the smallest normal double where v2 is below it.  rho is :func:`span_residual` at rank 2 of u, v and
    r = (2 w + v - u) / sqrt(2) of :func:`quad_planarity`, by Cauchy-Binet in the frame, where
    sqrt(2) r = R_1 e_1 + R_2 e_2 + 2 off, R_1 = 2 w1 + v1 - lu, R_2 = 2 w2 + v2: with P = R_2^2 + 4 |off|^2,
    |A|_F^2 = uu + vv + (R_1^2 + P) / 2 and |^2 A|^2 = uu (v2^2 + P / 2) + ((v1 R_2 - v2 R_1)^2 + 4 vv |off|^2) / 2
    add only positive terms, and |^3 A|^2 = 2 |u ^ (v - v1 e_1) ^ off|^2 sums the squared 3 x 3 minors of
    coordinates, so rho is exactly 0 where no minor survives the rounding (as in a coordinate plane), where
    u = 0 and where |^2 A| = 0; NaN where a coordinate is.  The stack is read in equal blocks of at most
    ``_BLOCK`` quads.
    """
    n_blocks = -(-abcd.shape[2] // _BLOCK)  # equal blocks: einsum would round a block of one quad otherwise
    if n_blocks <= 1:
        return _frame_block(abcd)
    blocks = [_frame_block(part) for part in np.array_split(abcd, n_blocks, axis=2)]
    return _Frame(*(np.concatenate(parts, axis=-1) for parts in zip(*blocks)))


def _frame_block(abcd: np.ndarray) -> _Frame:
    """:func:`_diagonal_frame` of one block."""
    rows = np.empty((3,) + abcd.shape[1:])
    np.subtract(abcd[2:], abcd[:2], out=rows[:2])  # u, v
    np.subtract(abcd[1], abcd[0], out=rows[2])  # w
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        exp = np.frexp(np.abs(rows).max(axis=(0, 1)))[1]
        u, v, w = np.ldexp(rows, -exp, out=rows)
        uu, vv = np.einsum("kiq,kiq->kq", rows[:2], rows[:2])
        lu = np.sqrt(uu)
        e1 = u / lu
        on_e1 = np.einsum("kiq,iq->kq", rows[1:], e1)  # v and w on e_1, then each rest on e_1 and e_2 in turn
        v, w = rows[1:] - on_e1[:, None] * e1
        again = _dot(v, e1)
        v1, v = on_e1[0] + again, v - again * e1
        v2 = np.sqrt(_dot(v, v))
        e2 = v / np.maximum(v2, _TINY)
        w2 = _dot(w, e2)
        w = w - w2 * e2
        again = _dot(w, e1)
        w1, w = on_e1[1] + again, w - again * e1
        again = _dot(w, e2)
        w2, off = w2 + again, w - again * e2
        r1, r2, oo = 2.0 * w1 + v1 - lu, 2.0 * w2 + v2, 4.0 * _dot(off, off)  # R_1, R_2, 4 |off|^2
        p, vr = r2 * r2 + oo, v1 * r2 - v2 * r1
        norm2 = uu + vv + 0.5 * (r1 * r1 + p)
        wedge2 = uu * (v2 * v2 + 0.5 * p) + 0.5 * (vr * vr + vv * oo)
        (j, k), _ = _subsets(len(u), 2)
        cols, drop = _subsets(len(u), 3)
        vo = v.take(j, axis=0) * off.take(k, axis=0) - v.take(k, axis=0) * off.take(j, axis=0)  # 2 x 2 minors
        terms = u.take(cols, axis=0) * vo.take(drop, axis=0)
        det = terms[0] - terms[1] + terms[2]  # by Laplace along u
        rho = np.where(lu == 0.0, 0.0, np.sqrt(2.0 * _dot(det, det) / np.fmax(norm2 * wedge2, _TINY)))
    return _Frame(exp, lu, uu, vv, v1, v2, w1, w2, off, rho)


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
        out[k:k + block.shape[-1]] = _residual(_wedges(block, rank + 1), rank)
    return res


def _residual(levels: list, rank: int) -> np.ndarray:
    """The :func:`span_residual` of a block from its minors ``levels`` (:func:`_wedges`) up to rank + 1."""
    e = [1.0] + [_dot(w, w) for w in levels]  # |^s A|^2, s = 0..rank + 1
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(e[rank] * e[1] == 0.0, 0.0, np.sqrt(e[rank + 1] / (e[rank] * e[1])))


class _SpanFit(NamedTuple):
    """Per-matrix output of :func:`_span_fit`."""

    residual: np.ndarray  # (V,) span_residual at the rank
    distances: np.ndarray  # (V, P) of the probes from the span of the largest wedge


def _span_fit(vectors: np.ndarray, rank: int, probes: np.ndarray) -> _SpanFit:
    """:func:`span_residual` of each matrix of a stack (V, k, n) at ``rank``, and the distances (V, P) of
    probes (V, P, n) from the span of its ``rank`` rows whose wedge R is largest, from one set of minors:
    |R ^ x| / |R|, each (rank + 1)-minor of R ^ x by Laplace expansion along x over the rank-minors of R.
    NaN distances where no ``rank`` rows are independent."""
    fit = _SpanFit(np.empty(len(vectors)), np.empty(probes.shape[:2]))
    cols, drop = _subsets(probes.shape[-1], rank + 1)
    for k, block in _blocks(vectors):
        levels, at = _wedges(block, rank + 1), slice(k, k + block.shape[-1])
        fit.residual[at] = _residual(levels, rank)
        top = levels[rank - 1].reshape(-1, comb(probes.shape[-1], rank), block.shape[-1])
        del levels  # before the distances' temporaries
        w2 = np.einsum("rcv,rcv->rv", top, top)
        r = np.take_along_axis(top, w2.argmax(axis=0)[None, None], axis=0)[0]  # (C(n, rank), B)
        terms = np.moveaxis(probes[at], 0, -1)[:, cols] * r[drop]  # (P, rank + 1, C, B)
        wedge = terms[:, 0::2].sum(axis=1) - terms[:, 1::2].sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            fit.distances[at] = np.sqrt(np.einsum("pcv,pcv->vp", wedge, wedge) / w2.max(axis=0)[:, None])
    return fit


def _blocks(a: np.ndarray):
    """(start, block) over a stack (..., k, n) of matrices in blocks of 512, each coordinate-major (k, n, B)
    and each matrix scaled by a power of two to a largest entry in [1/2, 1), so that no minor overflows."""
    flat = a.reshape(-1, *a.shape[-2:])
    for k in range(0, len(flat), 512):  # larger wins in timeit, loses in pipelines: its temporaries pass mmap threshold
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


def _raise_first(checks, where) -> None:
    """Raise for the first element k failing one of ``checks``, ((failed (n,), error class, message, *values
    (n,)), ...), the error of the first check k fails, worded where(k) + message.format(values at k)."""
    failed = np.logical_or.reduce([check[0] for check in checks])
    if failed.any():
        k = int(np.argmax(failed))
        _, cls, message, *values = next(check for check in checks if check[0][k])
        raise cls(where(k) + message.format(*(v[k] for v in values)))


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot products of vectors stored along the first axis."""
    return np.einsum("i...,i...->...", x, y)


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
        pick = np.arange(len(pts)), np.argmax(spans, axis=1)
        v = w[pick] / nw[pick][:, None]
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
    """Raise the typed error of the first quad that fails one of the predicates
    1..``upto`` of ``_QUAD_ERRORS``, named by ``where(k)`` (:func:`_raise_first`)."""
    _raise_first([(circles.error == e, *_QUAD_ERRORS[e], circles.detail) for e in range(1, upto + 1)], where)


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
