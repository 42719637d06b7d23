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
    """Relative tolerances: ``incidence`` for point/line/plane predicates, below 1 (at 1 or more no quad passes, as
    sin^2 of an angle is at most 1), ``product`` for multiplicative-cycle residuals."""

    incidence: float = 1e-9
    product: float = 1e-8

    def __post_init__(self):
        if not (0.0 < self.incidence < 1.0 and 0.0 < self.product < np.inf):  # also false for NaN
            raise InvalidValue("tolerances must be finite and strictly positive, and incidence below 1")


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


def _diagonals(abcd: np.ndarray, frame, tol: Tolerances, where, starts=(0,)) -> Diagonals:
    """:func:`quad_diagonals` of quads abcd (4, N, Q) from their frame, the guards by :func:`_raise_in_turn`."""
    exp, lu, uu, vv, v1, v2, w1, w2, off, rho = frame
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        parallel = ~(v2 * v2 > tol.incidence * vv)
        # the heights of A, C, A - C over BD (times |v|), of B, D, B - D over AC,
        # each rough where its square is below _EXACT_BELOW**2 of the squared sizes of the terms it sums
        h_a, h_ac, ww = w1 * v2 - w2 * v1, lu * v2, w1 * w1 + w2 * w2
        h, sizes = [h_a, h_a - h_ac, h_ac, w2, w2 + v2, -v2], (ww * vv, (ww + uu) * vv, uu * vv, ww, ww + vv, vv)
        rough = np.flatnonzero(functools.reduce(np.logical_or, (x * x < _EXACT_BELOW**2 * z for x, z in zip(h, sizes))))
        if len(rough):
            h[3], quads = w2.copy(), abcd[:, :, rough]  # not into the frame's w2
            for x, exact in zip(h, _exact_heights(*(quads * _unit(quads, (0, 1))))):  # each quad at its own scale
                x[rough] = exact
        h_a, h_c, h_ac, h_b, h_d, h_bd = h
        t, s = h_a / h_ac, h_b / h_bd
        near = np.minimum(np.minimum(np.abs(t), np.abs(h_c / h_ac)), np.minimum(np.abs(s), np.abs(h_d / h_bd)))
        a, c = abcd[0], abcd[2]
        point = a + t * (c - a) + 0.5 * np.ldexp(off, exp)  # off: from the line AC to the line BD
        diag = Diagonals(point.T, t, s, h_c / h_a, h_d / h_b)
    _raise_in_turn([(parallel, DegenerateQuad, "diagonals are parallel (intersection at infinity)"),
                    (~(rho <= tol.incidence), DegenerateQuad, "skew diagonals: residual {:.3e} exceeds tolerance", rho),
                    (~(near > tol.incidence), VertexOnDiagonal, "diagonal intersection coincides with a vertex")],
                   where, starts)
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
    n_blocks = -(-abcd.shape[2] // _BLOCK)  # a quad reads alike in a block of any size (_dot)
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
        uu, vv = np.add.reduce(rows[:2] * rows[:2], axis=1)
        lu = np.sqrt(uu)
        e1 = u / lu
        on_e1 = np.add.reduce(rows[1:] * e1, axis=1)  # v and w on e_1, then each rest on e_1 and e_2 in turn
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


def _unit(x: np.ndarray, axis=None):
    """1, or for coordinates x far from 1 the power of two that scales them
    exactly to below 1, so that no fourth power of a length overflows or
    underflows; with ``axis``, one for each of the rest of x's axes."""
    big = np.maximum(x.max(axis, initial=0.0), -x.min(axis, initial=0.0))
    return np.where((2.0**-200 < big) & (big < 2.0**200), 1.0, 0.5 ** np.frexp(big)[1])[()]


def _raise_first(checks, where) -> None:
    """Raise for the first element k failing one of ``checks``, ((failed (n,), error class, message, *values
    (n,)), ...), the error of the first check k fails, worded where(k) + message.format(values at k)."""
    failed = np.logical_or.reduce([check[0] for check in checks])
    if failed.any():
        k = int(np.argmax(failed))
        _, cls, message, *values = next(check for check in checks if check[0][k])
        raise cls(where(k) + message.format(*(v[k] for v in values)))


def _raise_in_turn(guards, where, starts) -> None:
    """:func:`_raise_first` of ``guards`` in turn over each part of a stack, part by part, the parts starting at the
    elements ``starts``: the error of the first guard that fails in the first part where one fails."""
    hits = [(np.searchsorted(starts, np.argmax(failed), side="right"), g)
            for g, (failed, *_) in enumerate(guards) if failed.any()]
    if hits:
        _raise_first([guards[min(hits)[1]]], where)


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot products of vectors stored along the first axis, summed in coordinate order for any number of them."""
    return np.add.reduce(x * y, axis=0)


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
    """Whether each quad of a stack (..., 4, N) is convex (embedded): each diagonal separates the ends of the
    other, h_A h_C < 0 and h_B h_D < 0 with the heights of :func:`quad_diagonals` in the quads'
    :func:`_diagonal_frame`.  A skew quad is read in the plane of its diagonals' directions (the plane of A, B
    and C gives the same verdict for 97 % of random quads lifted out of a plane by 0.1 of their size, 90 % at
    0.3, 82 % of Gaussian quads in R^3).  A quad with a vertex on the other diagonal or no frame is not convex."""
    pts = np.asarray(quads, dtype=float)
    _, lu, _, _, v1, v2, w1, w2, _, _ = _diagonal_frame(pts.reshape(-1, 4, pts.shape[-1]).transpose(1, 2, 0))
    with np.errstate(invalid="ignore"):
        h_a = w1 * v2 - w2 * v1  # h_C = h_A - lu v2, h_B = w2, h_D = w2 + v2; their signs, so that nothing underflows
        convex = (np.sign(h_a) * np.sign(h_a - lu * v2) < 0) & (np.sign(w2) * np.sign(w2 + v2) < 0)
    return convex.reshape(pts.shape[:-2])


def menelaus_product(vertices, division_points, tol: Tolerances = DEFAULT_TOL):
    """The product of xi_i / (1 - xi_i), D_i = P_i + xi_i (P_{i+1} - P_i), of each cycle P_0, ..., P_n of a stack
    (..., n+1, N) of n-simplices, with division points D (..., n+1, N) on the lines of its sides; a scalar for
    one cycle, which reads alike alone and in any stack.  It equals (-1)^(n+1) iff the D_i lie in an
    (n-1)-dimensional affine subspace.  GeneralPositionViolated unless the P_i span n dimensions, PointOffLine
    for a D_i off its line or at an endpoint, each for the first failing cycle and point (:func:`_raise_first`)."""
    verts, divs = np.asarray(vertices, dtype=float), np.asarray(division_points, dtype=float)
    if verts.ndim < 2 or verts.shape != divs.shape:
        raise DimensionMismatch("need as many division points as vertices")
    n = verts.shape[-2] - 1
    general = span_residual(verts - verts.mean(axis=-2, keepdims=True), n - 1) > tol.incidence
    p, d = np.moveaxis(verts, -1, 0), np.moveaxis(divs, -1, 0)  # coordinates first, for _dot
    edge, w, rel = np.roll(p, -1, axis=-1) - p, d - p, p - p[..., :1]
    with np.errstate(divide="ignore", invalid="ignore"):
        xi = _dot(w, edge) / _dot(edge, edge)
        off = np.sqrt(_dot(w - xi * edge, w - xi * edge))
    point = np.broadcast_to(np.arange(n + 1), xi.shape).ravel()
    _raise_first([(np.broadcast_to(~general[..., None], xi.shape).ravel(), GeneralPositionViolated,
                   "vertices do not span an n-dimensional affine space"),
                  ((off > tol.incidence * np.sqrt(_dot(rel, rel)).max(axis=-1)[..., None]).ravel(), PointOffLine,
                   "division point {} is off its line by {:.3e}", point, off.ravel()),
                  ((np.minimum(np.abs(xi), np.abs(1.0 - xi)) <= tol.incidence).ravel(), PointOffLine,
                   "division point {} coincides with an endpoint", point)],
                 (lambda k: f"cycle {k // (n + 1)}: ") if verts.ndim > 2 else (lambda k: ""))
    return np.prod(xi / (1.0 - xi), axis=-1)[()]


def _plane_frames(pts: np.ndarray):
    """An orthonormal frame (u, v) of the plane of each point triple of a stack (Q, 3, N): u along
    points[1] - points[0], v along the rest of points[2] - points[0].  For :func:`isothermic._three_leg_steps`.

    Returns (u, v, z, nu, spans): the unit vectors (Q, N), the plane coordinates z (Q, 3, 2) of every point
    relative to points[0], the length nu (Q,) of points[1] - points[0], and whether points[2] leaves the line
    by more than 1e-13 of its distance (Q,).  A triple with nu == 0 or not spanning (as when its lengths
    overflow) has no frame; its u, v and z are then meaningless.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rel = pts - pts[:, :1]
        nu = _length(rel[:, 1])
        u = rel[:, 1] / nu[:, None]
        x = rel[:, 2:]  # (Q, 1, N): the products batch as for k points, so the bits stay
        w = (x - (x @ u[..., None]) * u[:, None])[:, 0]
        nw = _length(w)
        spans = nw > 1e-13 * np.maximum(nu, _length(x[:, 0]))
        v = w / nw[:, None]
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


# the predicates of quad_circles: 1-3 of the diagonal frame, 4-6 of the circle and the cross-ratio, in test order
_QUAD_ERRORS = {
    1: (NotPlanar, "points are not coplanar (residual {:.3e})"),
    2: (CoincidentPoints, "cannot build a frame from coincident points"),
    3: (CollinearTriple, "all points are collinear; no plane frame"),
    4: (NotConcircular, "points are not concircular (residual {:.3e})"),
    5: (CoincidentPoints, "consecutive points coincide"),
    6: (NotConcircular, "cross-ratio has imaginary residual {:.3e}"),
}


def quad_circles(pts: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> QuadCircles:
    """Circularity residual and cross-ratio of stacked quads (Q, 4, N), each (a, b, c, d) in cyclic order, in the
    plane of their :func:`_diagonal_frame` (each quad scaled by a power of two): a = (0, 0), b = (w1, y_b),
    c = (lu, 0), d = (w1 + v1, y_d), y_b = sqrt(w2^2 + |off|^2), y_d = +-sqrt((w2 + v2)^2 + |off|^2) signed as
    w2 (w2 + v2) + |off|^2, identities also where e_2 is not defined (parallel diagonals).  The residual
    |det (x, y, x^2 + y^2, 1)| / diam^4 is 0 iff the points are concircular; the cross-ratio (a-b)(b-c)^-1(c-d)(d-a)^-1
    is real for concircular points and negative exactly for embedded quads.  Predicates, in order (``error``, which
    :func:`raise_quad_error` raises; nothing is raised here): NotPlanar unless rho <= tol.incidence; CoincidentPoints
    where a == b or a == c (no frame); CollinearTriple where b, d lie within 1e-13 diam of the line ac; NotConcircular;
    CoincidentPoints where consecutive input corners are equal; NotConcircular for a non-real cross-ratio."""
    abcd = np.asarray(pts, dtype=float).transpose(1, 2, 0)
    return _frame_circles(abcd, _diagonal_frame(abcd), tol)


def _frame_circles(abcd: np.ndarray, frame: _Frame, tol: Tolerances) -> QuadCircles:
    """:func:`quad_circles` of the quads abcd (4, N, Q) from their :func:`_diagonal_frame`."""
    _, lu, _, _, v1, v2, w1, w2, off, rho = frame
    oo = _dot(off, off)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        wv = w2 + v2
        bx, by, dx, dy = w1, np.sqrt(w2 * w2 + oo), w1 + v1, np.copysign(np.sqrt(wv * wv + oo), w2 * wv + oo)
        bc, dc = bx - lu, dx - lu
        sides = (lu, 0.0), (bx, by), (dx, dy), (bc, by), (dc, dy), (dx - bx, dy - by)  # ac, ab, ad, cb, cd, bd
        diam2 = functools.reduce(np.maximum, [x * x + y * y for x, y in sides])
        det = lu * (dy * (bx * bc + by * by) - by * (dx * dc + dy * dy))  # of the rows (x, y, x^2 + y^2, 1)
        residual = np.abs(det) / (diam2 * diam2)
        zb, zd = bx + 1j * by, dx + 1j * dy
        cr = -zb / (zb - lu) * (lu - zd) / zd
    failed = [
        ~(rho <= tol.incidence),
        (lu == 0.0) | ((w1 == 0.0) & (w2 == 0.0) & ~off.any(axis=0)),
        np.fmax(by, np.abs(dy)) <= 1e-13 * np.sqrt(diam2),
        residual > tol.incidence,
        (abcd == abcd[[1, 2, 3, 0]]).all(axis=1).any(axis=0),
        np.abs(cr.imag) > tol.product * (np.abs(cr) + 1.0),
    ]
    error = np.zeros(rho.shape, dtype=int)
    for e in range(6, 0, -1):  # the first predicate that fails wins
        error[failed[e - 1]] = e
    detail = np.choose(error, [0.0, rho, 0.0, 0.0, residual, 0.0, cr.imag])
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
