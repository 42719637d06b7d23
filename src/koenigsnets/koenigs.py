"""Discrete Koenigs nets.

The diagonal one-form q, its closedness products, integration of the vertex
function nu, dual quadrilaterals and dual nets, Moutard lifts/evolution, and
the geometric characterizations for m = 2 and m = 3.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from types import MappingProxyType

import numpy as np

from .errors import (
    DimensionTooLow,
    EqualNuOnWhiteDiagonal,
    InvalidValue,
    NotAlternating,
    NotKoenigs,
    VanishingLastComponent,
    ZeroNu,
)
from .geom import (DEFAULT_TOL, Tolerances, _diagonals, _length, _raise_first, _unit, quad_diagonals, quad_planarity,
                   span_residual)
from .qnet import (
    CheckReport,
    QNet,
    VertexScalar,
    _QUAD,
    _base,
    _chart,
    _corners,
    _crop,
    _cubes,
    _frozen,
    _grid,
    _net_frame,
    _quad_at,
    _stack_at,
    _star,
    _vertex_at,
    _wavefront,
)

__all__ = [
    "DiagonalForm",
    "KoenigsData",
    "MoutardNet",
    "build_q_form",
    "check_closedness",
    "check_moutard",
    "integrate_nu",
    "dualize_quad",
    "dual_quad_residual",
    "dualize_net",
    "moutard_lift",
    "moutard_evolve",
    "check_koenigs_2d_geometric",
    "check_koenigs_3d_geometric",
    "normalize_nu_for_limit",
]


@dataclass(frozen=True)
class DiagonalForm:
    """Ratios of directed diagonal segments for every elementary quad.

    Canonical orientations: ``q_main[(i,j)][u]`` is q(f -> f_ij), taken from
    the lexicographically smaller corner; ``q_cross[(i,j)][u]`` is
    q(f_i -> f_j).  Reversing an orientation inverts the value.  ``m_points``
    holds the diagonal intersection points.  Each is a read-only mapping by
    axis pair of read-only arrays.
    """

    q_main: MappingProxyType
    q_cross: MappingProxyType
    m_points: MappingProxyType


def build_q_form(net: QNet, tol: Tolerances = DEFAULT_TOL) -> DiagonalForm:
    """The multiplicative one-form q on the diagonals of all elementary quads,
    built once per net and tolerances and kept by the net, read-only."""
    return net._memo(("q_form", tol), lambda: _build_q_form(net, tol))


def _build_q_form(net: QNet, tol: Tolerances) -> DiagonalForm:
    """:func:`quad_diagonals` of the quads of every axis pair in one pass over the stack and frame that
    :func:`qnet._net_frame` hands over, its guards pair by pair; each pair's arrays are views over its base grid."""
    abcd, pairs, frame = _net_frame(net, take=True)
    diag = _diagonals(abcd, frame, tol, _stack_at(pairs), [at.start for *_, at in pairs])
    per_pair = (MappingProxyType({key: a[at].reshape(shape + a.shape[1:]) for key, shape, at in pairs})
                for a in (_frozen(diag.q_ac), _frozen(diag.q_bd), _frozen(diag.point)))
    return DiagonalForm(*per_pair)


def check_closedness(net: QNet, tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """Closedness of the diagonal one-form on the black and white graphs.

    For every axis pair, the product of q over the 4-cycle of diagonals
    around each slice-interior vertex must be 1 (a part per pair, each cycle
    at the base of its four quads); for m >= 3 additionally the triangle
    products at every hexahedron corner (a part per axis triple, each
    triangle at its cube's base followed by the corner's number in
    ``_CORNERS``).  The net is Koenigs iff every |product - 1| <= tol.product.
    """
    form = build_q_form(net, tol)
    parts = {}
    for i, j in combinations(range(net.m), 2):
        c, _, c_ij, _ = _corners(form.q_cross[(i, j)], i, j)
        _, m_i, _, m_j = _corners(form.q_main[(i, j)], i, j)
        prod = c_ij * m_i / m_j / c
        parts[(i, j)] = np.abs(prod - 1.0).reshape(-1), _grid(prod.shape)
    for axes, res in _corner_triangle_products(net, form):
        parts[axes] = res.reshape(-1), _grid(res.shape)
    return CheckReport("closedness", tol.product, parts)


_CORNERS = tuple(product((0, 1), repeat=3))  # corner offsets of a cube along its axes (i, j, k)


def _corner_triangle_products(net: QNet, form: DiagonalForm):
    """Yield (axes, |product - 1|) per axis triple: q around the triangle of
    face diagonals between the three neighbours of each cube corner, over
    the cube base grid plus a last axis of corners in ``_CORNERS`` order."""
    for axes in combinations(range(net.m), 3):
        i, j, k = axes
        res = [
            np.abs(
                _opposite_diagonal(form, (i, j), k, bi, bj, bk, True)
                * _opposite_diagonal(form, (j, k), i, bj, bk, bi, True)
                * _opposite_diagonal(form, (i, k), j, bi, bk, bj, False)
                - 1.0
            )
            for bi, bj, bk in _CORNERS
        ]
        yield axes, np.stack(res, axis=-1)


def _opposite_diagonal(form: DiagonalForm, pair, r, bp, bq, br, forward):
    """q on the faces of plane ``pair`` at offset ``br`` along axis r, on the
    diagonal that misses the corner (bp, bq), from the corner's neighbour
    along p to the one along q (or backwards).  That is the canonical
    orientation, f -> f_ij or f_i -> f_j, exactly when bq == 0."""
    q = (form.q_cross if bp == bq else form.q_main)[pair]
    val = _crop(q, (r,), (br,))
    return val if forward == (bq == 0) else 1.0 / val


@dataclass(frozen=True)
class KoenigsData:
    """The vertex function nu of a Koenigs net, as :func:`integrate_nu` returns it."""

    nu: VertexScalar


def integrate_nu(net: QNet, base_black=None, base_white=None, tol: Tolerances = DEFAULT_TOL) -> KoenigsData:
    """Propagate nu along diagonals from one black and one white base value.

    Integrates nu_ij/nu = q(f -> f_ij) and nu_j/nu_i = q(f_i -> f_j) one
    layer at a time: cumulative products along the axis-0 line, each colour
    through the (0, 1) quads, then one step per layer along every further
    axis k through the (0, k) diagonals.  Each colour is rescaled to its base
    value, and every diagonal relation is re-verified.  Raises NotKoenigs if
    nu is not finite and nonzero, or unless every relation holds within
    tol.product (:func:`_nu_report`, "nu_relations").
    """
    form = build_q_form(net, tol)
    nu = _propagate_nu(net, form, base_black, base_white)
    _nu_report(net, form, nu, tol).require(NotKoenigs)
    return KoenigsData(nu=VertexScalar(nu))


def _propagate_nu(net: QNet, form: DiagonalForm, base_black, base_white) -> np.ndarray:
    """The nu of :func:`integrate_nu` on the diagonal form of ``net``, before its relations are verified."""
    if base_black is None:
        base_black = (tuple(0 for _ in range(net.m)), 1.0)
    if base_white is None:
        base_white = (tuple(1 if ax == 0 else 0 for ax in range(net.m)), 1.0)
    for (u, value), color in ((base_black, 0), (base_white, 1)):
        if sum(u) % 2 != color:
            raise ValueError(f"base vertex {tuple(u)} has the wrong parity")
        if not np.isfinite(value):
            raise InvalidValue(f"base value of nu must be finite, not {value}")
        if value == 0.0:
            raise ZeroNu("base value of nu must be nonzero")
    nu = np.empty(net.extents)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # nu(t + 2) = nu(t) q(t -> t + e_0 + e_1) / q(t + e_0 -> t + e_1) on the axis-0 line
        line = (slice(None),) + (0,) * (net.m - 1)
        steps = form.q_main[(0, 1)][line][:-1] / form.q_cross[(0, 1)][line][1:]
        nu[line][0::2] = np.cumprod(np.concatenate([[1.0], steps[0::2]]))
        nu[line][1::2] = np.cumprod(np.concatenate([[1.0], steps[1::2]]))
        for k in range(1, net.m):
            qm, qc = form.q_main[(0, k)], form.q_cross[(0, k)]
            for s in range(net.extents[k] - 1):
                at = (slice(None),) * k + (s,) + (0,) * (net.m - k - 1)
                nxt = at[:k] + (s + 1,) + at[k + 1:]
                nu[nxt][1:] = nu[at][:-1] * qm[at]  # nu(u + e_0 + e_k) = nu(u) q(u -> u + e_0 + e_k)
                nu[nxt][0] = nu[at][1] * qc[at][0]  # nu(u + e_k) = nu(u + e_0) q(u + e_0 -> u + e_k)
        black = np.indices(net.extents).sum(axis=0) % 2 == 0
        nu *= np.where(black, base_black[1] / nu[tuple(base_black[0])], base_white[1] / nu[tuple(base_white[0])])
    _raise_first([(~(np.isfinite(nu) & (nu != 0.0)).ravel(), NotKoenigs,
                   "nu propagation leaves the finite nonzero numbers")], _vertex_at(nu.shape))
    return nu


def _nu_report(net: QNet, form: DiagonalForm, nu: np.ndarray, tol: Tolerances) -> CheckReport:
    """Relative violations of the diagonal relations, each quad at its base: parts ("main", (i, j)) of
    nu_ij / nu = q(f -> f_ij) and ("cross", (i, j)) of nu_j / nu_i = q(f_i -> f_j)."""
    parts = {}
    for i, j in combinations(range(net.m), 2):
        qm, qc = form.q_main[(i, j)], form.q_cross[(i, j)]
        n, n_i, n_ij, n_j = _corners(nu, i, j)
        parts[("main", (i, j))] = (np.abs(n_ij / n - qm) / np.abs(qm)).reshape(-1), _grid(qm.shape)
        parts[("cross", (i, j))] = (np.abs(n_j / n_i - qc) / np.abs(qc)).reshape(-1), _grid(qc.shape)
    return CheckReport("nu_relations", tol.product, parts)


# --- dual quadrilaterals and dual nets ---------------------------------------


def dualize_quad(quads, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """One representative of the dual of each quad of a stack (..., 4, N),
    with the diagonal intersection of the dual placed at the origin.

    Corresponding sides of a dual are parallel to those of its quad, and its
    diagonals are parallel to the non-corresponding diagonals of the quad.
    Degenerate quads raise the errors of the guards of :func:`quad_diagonals`.
    """
    pts = np.asarray(quads, dtype=float)
    unit = _unit(pts)  # the dual of unit * Q is dual(Q) / unit
    flat = pts.reshape(-1, 4, pts.shape[-1]) * unit
    diag = quad_diagonals(flat, tol)
    u, v = flat[:, 2] - flat[:, 0], flat[:, 3] - flat[:, 1]
    # M - X = c (X's diagonal), c = t, s, q_ac t, q_bd s: X* is the other diagonal over c |C - A| |D - B|
    lengths = np.stack([diag.t, diag.s, diag.q_ac * diag.t, diag.q_bd * diag.s], axis=1) * _length(u)[:, None]
    return (np.stack([v, u, v, u], axis=1) / (lengths * _length(v)[:, None])[..., None]).reshape(pts.shape) * unit


def dual_quad_residual(quads, duals) -> np.ndarray:
    """Max sine of the angle between the vectors of the six parallelism predicates of duality, for each
    quad of a stack (..., 4, N) and its dual: four corresponding sides, and each diagonal of the dual
    against the other diagonal of the quad.  A sine is the length of the rejection of one unit vector
    from the other, accurate for nearly parallel vectors, where the Gram determinant cancels."""
    q, qd = np.asarray(quads, dtype=float), np.asarray(duals, dtype=float)
    u = np.concatenate([np.roll(q, -1, axis=-2) - q, qd[..., [2, 3], :] - qd[..., [0, 1], :]], axis=-2)
    v = np.concatenate([np.roll(qd, -1, axis=-2) - qd, q[..., [3, 2], :] - q[..., [1, 0], :]], axis=-2)
    u, v = u / _length(u)[..., None], v / _length(v)[..., None]
    return _length(v - (v * u).sum(axis=-1, keepdims=True) * u).max(axis=-1)


def dualize_net(net: QNet, kd: KoenigsData, tol: Tolerances = DEFAULT_TOL) -> QNet:
    """Integrate the edge one-form delta_i f* = delta_i f / (nu nu_i) from 0
    at the origin.

    Returns the dual net, whose vertex function is 1 / nu; raises ZeroNu
    where the form is not finite (:func:`_dual_edge_forms`), and NotKoenigs
    unless it closes within tol.product.
    """
    forms = _dual_edge_forms(net, kd.nu.values)
    _closure_report("dual_closure", net, forms, tol).require(NotKoenigs)
    return _integrate_one_form(net, forms)


def _dual_edge_forms(net: QNet, nu: np.ndarray):
    """Edge arrays G_i = delta_i f / (nu nu_i); ZeroNu at the first edge, axis by axis, where nu nu_i leaves the
    finite nonzero numbers or G_i overflows."""
    forms = {}
    with np.errstate(all="ignore"):  # what leaves the finite numbers is rejected below
        for i in range(net.m):
            prod = _crop(nu, (i,), (0,)) * _crop(nu, (i,), (1,))
            forms[i] = g = np.diff(net.vertices, axis=i) / prod[..., None]
            if not (np.isfinite(prod).all() and np.isfinite(g).all()):  # a flat test first: it is 25x faster
                _raise_first([(~(np.isfinite(prod) & (prod != 0.0)).ravel(), ZeroNu,
                               "nu nu_i leaves the finite nonzero numbers"),
                              (~np.isfinite(g).all(axis=-1).ravel(), ZeroNu, "delta_i f / (nu nu_i) overflows")],
                             lambda k: f"edge base {_base(prod.shape, k)} (axis {i}): ")
    return forms


def _closure_report(name: str, net: QNet, forms, tol: Tolerances) -> CheckReport:
    """Relative closure defects of an R^N-valued edge one-form, a part per
    axis pair, each quad at its base, NaN where the form is not finite."""
    parts, unit = {}, min(_unit(g) for g in forms.values())
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf and inf / inf read NaN
        squares = {i: _squared_norms(unit, g) for i, g in forms.items()}  # once per form, cropped per pair
        for i, j in combinations(range(net.m), 2):
            gi_lo, gi_hi = _crop(forms[i], (j,), (0,)), _crop(forms[i], (j,), (1,))
            gj_lo, gj_hi = _crop(forms[j], (i,), (0,)), _crop(forms[j], (i,), (1,))
            sizes = [_crop(squares[a], (b,), (off,)) for a, b in ((i, j), (j, i)) for off in (0, 1)]
            res = _relative_defect(unit, gi_lo + gj_hi - gj_lo - gi_hi, sizes)
            parts[(i, j)] = res.reshape(-1), _grid(res.shape)
    return CheckReport(name, tol.product, parts)


def _squared_norms(unit: float, x: np.ndarray) -> np.ndarray:
    """|unit x|^2 along the last axis, the squares summed one coordinate after the other: a crop's, bit for bit."""
    return np.add.reduce(np.square((x if unit == 1.0 else x * unit).transpose(-1, *range(x.ndim - 1)), order="C"))


def _relative_defect(unit: float, defect: np.ndarray, sizes) -> np.ndarray:
    """|defect| / max |term| of vectors along the last axis, given the :func:`_squared_norms` ``sizes`` of
    the terms, all scaled first by ``unit``, the power of two of :func:`geom._unit` of their source, so that
    no square overflows or underflows.  The largest norm is the square root of the largest squared norm, as
    sqrt is monotone and correctly rounded."""
    big = np.maximum(sizes[0], sizes[1])
    for x in sizes[2:]:
        np.maximum(big, x, out=big)  # the largest, kept in place
    return np.sqrt(_squared_norms(unit, defect)) / np.maximum(np.sqrt(big), 1e-300)


def _integrate_one_form(net: QNet, forms) -> QNet:
    """Sum an edge one-form from 0 at the origin along lexicographic paths
    (first along the last axis, then along each earlier one), one cumulative
    sum per axis."""
    out = np.zeros(net.extents + (net.ambient_dim,))
    for ax in reversed(range(net.m)):
        lead = (0,) * ax  # the earlier axes are still at 0
        col = out[lead]
        np.cumsum(np.concatenate([col[:1], forms[ax][lead]]), axis=0, out=col)
    return QNet(out)


# --- Moutard nets --------------------------------------------------------------


@dataclass(frozen=True)
class MoutardNet:
    """Lattice map into R^{N+1} (homogeneous chart) or R^{N+1,1} (flat light-cone layout [spatial..., e0,
    einf]) with per-quad Moutard coefficients satisfying tau_i tau_j y - y = a_ij (tau_j y - tau_i y); keeps
    read-only ``points`` and a read-only mapping ``coeffs`` of read-only arrays: an array as given if neither it
    nor any array it views is writable, else a read-only copy."""

    points: np.ndarray
    coeffs: MappingProxyType

    def __post_init__(self):
        def read_only(a):
            a = base = np.asarray(a, dtype=float)
            while isinstance(base, np.ndarray) and not base.flags.writeable:
                base = base.base
            return _frozen(a.copy()) if isinstance(base, np.ndarray) else a
        object.__setattr__(self, "points", read_only(self.points))
        object.__setattr__(self, "coeffs", MappingProxyType({key: read_only(a) for key, a in self.coeffs.items()}))

    @property
    def m(self) -> int:
        return self.points.ndim - 1

    @property
    def extents(self):
        return self.points.shape[:-1]

    def project_homogeneous(self, tol: Tolerances = DEFAULT_TOL):
        """Inverse of the homogeneous lift: f from the first N components
        over the last one, nu as the reciprocal last component."""
        last = _chart(self.points, -1, VanishingLastComponent, "projected point at infinity", tol)
        f = self.points[..., :-1] / last[..., None]
        return QNet(f), VertexScalar(1.0 / last)


def check_moutard(mn: MoutardNet, tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """The minus-sign Moutard equation y_ij - y = a (y_j - y_i) on every quad of ``mn`` (for m >= 3 this
    includes the cross-face consistency): the relative defects
    |y_ij - y - a (y_j - y_i)| / max(|y_ij - y|, |a (y_j - y_i)|, |y|), a part per axis pair, each quad at
    its base, NaN where a coefficient or point is NaN.

    This is the one Moutard residual.  For the lift y = (f, 1) w, w = 1/nu, the last component of the
    defect vanishes in exact arithmetic, and its spatial part is w_ij times the defect of the discrete
    Laplace equation of f with the coefficients of nu.  The switched lift y'(u) = (-1)^(u_axis) y(u) of a
    2d net, with a' = -a (axis 0) or +a (axis 1), has the plus-sign defect y'_12 + y' - a' (y'_1 + y'_2):
    -(-1)^(u_axis) times this defect bit for bit at the quad base u, as a product with -1 is exact."""
    parts, unit = {}, _unit(mn.points)
    for (i, j), a in mn.coeffs.items():
        y, yi, yij, yj = _corners(mn.points, i, j)
        lhs = yij - y
        rhs = a[..., None] * (yj - yi)
        res = _relative_defect(unit, lhs - rhs, [_squared_norms(unit, x) for x in (lhs, rhs, y)])
        parts[(i, j)] = res.reshape(-1), _grid(res.shape)
    return CheckReport("moutard", tol.product, parts)


def moutard_lift(net: QNet, kd: KoenigsData, tol: Tolerances = DEFAULT_TOL) -> MoutardNet:
    """Moutard representative y = (f, 1) / nu with the coefficients of
    :func:`_moutard_coeffs`; NotKoenigs unless :func:`check_moutard` passes."""
    nu = kd.nu.values
    y = np.concatenate([net.vertices, np.ones(net.extents + (1,))], axis=-1) / nu[..., None]
    mn = MoutardNet(points=_frozen(y), coeffs=_moutard_coeffs(1.0 / nu, tol))
    check_moutard(mn, tol).require(NotKoenigs)
    return mn


def _moutard_coeffs(w: np.ndarray, tol: Tolerances) -> dict:
    """The coefficients a_ij = (w_ij - w) / (w_j - w_i) of every quad, read-only, by axis pair over its base
    grid, of a Moutard net whose last homogeneous (or e_0) component is w; EqualNuOnWhiteDiagonal at the first
    quad with |w_j - w_i| <= tol.incidence (|w_i| + |w_j|)."""
    coeffs = {}
    for i, j in combinations(range(w.ndim), 2):
        w0, wi, wij, wj = _corners(w, i, j)
        denom = wj - wi
        _raise_first([((np.abs(denom) <= tol.incidence * (np.abs(wi) + np.abs(wj))).ravel(), EqualNuOnWhiteDiagonal,
                       "nu_i == nu_j: Moutard coefficient singular")], _quad_at(denom.shape, i, j))
        coeffs[(i, j)] = _frozen((wij - w0) / denom)
    return coeffs


def _moutard_fill(pieces: dict, coeff, tol: Tolerances) -> np.ndarray:
    """The Cauchy problem of the minus-sign Moutard equation at any m: :func:`qnet._wavefront` of
    ``pieces`` with the step y_ij = y + a (y_j - y_i) on the quad of the first two positive axes (i, j) of
    each vertex, where ``coeff(y, y_j - y_i, level)`` gives a at the quad bases y of a level's vertices."""
    def step(y, level):  # the quad (y, y_i, y_j) below each vertex, in one gather
        yb, yi, yj = y[level.below[_QUAD]]
        d = yj - yi
        return yb + coeff(yb, d, level)[:, None] * d
    return _wavefront(pieces, step, tol)


def moutard_evolve(pieces: dict, coeffs) -> MoutardNet:
    """Solve the minus-sign Moutard equation as an initial value problem, at any m.

    ``pieces`` maps axis tuples to the initial data on the coordinate subspaces they span, as
    :func:`qnet._wavefront` reads them: {(0,): y1, (1,): y2} for a 2d net, three planes or three axes for a
    3d one.  ``coeffs`` maps axis pairs to arrays over their quad base grids, as ``MoutardNet.coeffs``.
    :func:`_moutard_fill` fills every other vertex through the quad of its first two positive axes.
    VanishingLastComponent unless the data and the fill are finite; a fill that overflows, or needs a pair
    that ``coeffs`` lacks, is not.  Cross-face consistency is the caller's responsibility, and
    :func:`check_moutard` is the one check of the evolved net.
    """
    pieces = {axes: np.asarray(a, dtype=float) for axes, a in pieces.items()}
    if not all(np.isfinite(a).all() for a in pieces.values()):
        raise VanishingLastComponent("initial data are not finite")
    shape = tuple(dict(sorted((ax, n) for axes, arr in pieces.items() for ax, n in zip(axes, arr.shape))).values())
    at = np.full(shape, np.nan)  # at each vertex, a of the quad of its first two positive axes; NaN off coeffs
    for (i, j), a in coeffs.items():  # that is (i, j) where u_i, u_j > 0 and every other axis before j is 0
        rest = tuple(0 if ax < j and ax != i else slice(None) for ax in range(len(shape)))
        at[tuple(slice(1, None) if ax in (i, j) else r for ax, r in enumerate(rest))] = np.asarray(a)[rest]
    with np.errstate(over="ignore", invalid="ignore"):  # what overflows is rejected below
        y = _moutard_fill(pieces, lambda yb, d, level: at.reshape(-1)[level.below[0]], DEFAULT_TOL)
    if not np.all(np.isfinite(y)):
        raise VanishingLastComponent("Moutard evolution produced non-finite values: "
                                     "it overflows, or coeffs lacks an axis pair the fill needs")
    return MoutardNet(points=_frozen(y), coeffs=coeffs)


# --- geometric characterizations ----------------------------------------------


def check_koenigs_2d_geometric(net: QNet, tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """Geometric Koenigs tests at every interior vertex of a 2d net.

    Part "m_points": the four diagonal intersection points of the adjacent
    quads are coplanar.  Part "vertices", for N >= 4: the five points f,
    f_{+-1,+-2} lie in a 3-space.  Vertices that are planar together with
    their four neighbours violate the precondition and are left out of both.
    """
    if net.m != 2:
        raise DimensionTooLow("2d characterization needs m == 2")
    if net.ambient_dim < 3:
        raise DimensionTooLow("vertex characterizations need N >= 3")
    form = build_q_form(net, tol)
    star = _star(net.vertices)
    five = star[:, :5]  # f and its edge neighbours: kept where they span more than a plane
    kept = ~(span_residual(five - five.mean(axis=1, keepdims=True), 2) <= tol.incidence)
    at = _grid((net.extents[0] - 2, net.extents[1] - 2), 1)[kept]
    parts = {"m_points": (quad_planarity(np.stack(_corners(form.m_points[(0, 1)], 0, 1), axis=2)).ravel()[kept], at)}
    if net.ambient_dim >= 4:
        five = star[:, [0, 5, 6, 7, 8]]
        parts["vertices"] = span_residual(five - five.mean(axis=1, keepdims=True), 3)[kept], at
    return CheckReport("koenigs_2d_geometric", tol.product, parts)


def check_koenigs_3d_geometric(net: QNet, tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """Per-hexahedron Koenigs tests for m >= 3, three parts per axis triple: coplanarity of the four black ("black")
    and of the four white ("white") vertices of each cube, at its base, in one call of the planarity kernel, and
    collinearity of the three adjacent-face diagonal intersection points at every corner ("corners"), at the cube's
    base followed by the corner's number in ``_CORNERS``."""
    if net.m < 3:
        raise DimensionTooLow("3d characterization needs m >= 3")
    form = build_q_form(net, tol)
    parts = {}
    for axes in combinations(range(net.m), 3):
        i, j, k = axes
        cube, shape = _cubes(net, axes)
        # the diagonal intersections of the three faces through each corner
        faces = (((i, j), k, 2), ((i, k), j, 1), ((j, k), i, 0))  # (plane, normal axis, its bit)
        ms = [[_crop(form.m_points[pair], (r,), (bits[b],)) for pair, r, b in faces] for bits in _CORNERS]
        ms = np.array(ms).reshape(8, 3, -1, net.ambient_dim).transpose(2, 0, 1, 3)
        at = _grid(shape)
        parts[("black", axes)], parts[("white", axes)] = ((rho, at) for rho in quad_planarity(cube).T)
        ms = ms - ms.mean(axis=2, keepdims=True)
        parts[("corners", axes)] = span_residual(ms, 1).reshape(-1), _grid(shape + (8,))  # collinear triples
    return CheckReport("koenigs_3d_geometric", tol.product, parts)


def normalize_nu_for_limit(kd: KoenigsData, axis: int) -> VertexScalar:
    """Remove the alternating sign of nu on an all-convex 2d net.

    Returns nu'(u) = (-1)^(u_axis) nu(u), flipped globally to be positive.
    Raises NotAlternating when the sign pattern of nu is inconsistent with
    the convexity assumption.
    """
    return VertexScalar(_limit_signs(kd.nu.values, axis))


def _limit_signs(values: np.ndarray, axis: int) -> np.ndarray:
    """(-1)^(u_axis) values(u) on a 2d lattice array, flipped globally to be positive;
    NotAlternating at the first vertex where its sign differs from that at the origin."""
    if values.ndim != 2:
        raise DimensionTooLow("the switched convention is defined for m == 2")
    if axis not in (0, 1):
        raise ValueError("axis must be 0 or 1")
    switched = np.where(np.indices(values.shape)[axis] % 2 == 0, 1.0, -1.0) * values
    positive = switched > 0
    _raise_first([((positive != positive.flat[0]).ravel(), NotAlternating,
                   f"sign does not alternate along axis {axis}")], _vertex_at(values.shape))
    return switched if positive.flat[0] else -switched
