"""Discrete Koenigs nets.

The diagonal one-form q, its closedness products, integration of the vertex
function nu, dual quadrilaterals and dual nets, Moutard lifts/evolution, and
the geometric characterizations for m = 2 and m = 3.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .errors import (
    DimensionTooLow,
    EqualNuOnWhiteDiagonal,
    NotAlternating,
    NotKoenigs,
    VanishingLastComponent,
    ZeroNu,
)
from .geom import DEFAULT_TOL, Tolerances, _length, _unit, quad_diagonals, quad_planarity, span_residual
from .qnet import (
    CheckReport,
    QNet,
    VertexScalar,
    _back,
    _base,
    _corners,
    _crop,
    _cubes,
    _frozen,
    _gather_quads,
    _grid,
    _planarity,
    _star,
    _wavefront,
    _worst,
)

__all__ = [
    "DiagonalForm",
    "KoenigsData",
    "MoutardNet",
    "build_q_form",
    "check_closedness",
    "integrate_nu",
    "dualize_quad",
    "dual_quad_residual",
    "dualize_net",
    "laplace_residual",
    "moutard_lift",
    "moutard_evolve",
    "check_koenigs_2d_geometric",
    "check_koenigs_3d_geometric",
    "normalize_nu_for_limit",
]


@dataclass
class DiagonalForm:
    """Ratios of directed diagonal segments for every elementary quad.

    Canonical orientations: ``q_main[(i,j)][u]`` is q(f -> f_ij), taken from
    the lexicographically smaller corner; ``q_cross[(i,j)][u]`` is
    q(f_i -> f_j).  Reversing an orientation inverts the value.  ``m_points``
    holds the diagonal intersection points.
    """

    q_main: dict
    q_cross: dict
    m_points: dict


def _diag_data(net: QNet, i: int, j: int, tol: Tolerances):
    """Diagonal intersections of all quads in the (i, j) plane, by
    :func:`quad_diagonals`: (m, q_main, q_cross) shaped like the base grid."""
    pts, shape = _gather_quads(net, i, j)
    diag = quad_diagonals(pts, tol, messages=(
        lambda k, _: f"parallel diagonals at quad base {_base(shape, k)} (axes {i},{j})",
        lambda k, _: f"skew diagonals at quad base {_base(shape, k)} (axes {i},{j})",
        lambda k, _: f"intersection at a vertex, quad base {_base(shape, k)}",
    ), rho=_planarity(net, i, j))
    return diag.point.reshape(shape + (net.ambient_dim,)), diag.q_ac.reshape(shape), diag.q_bd.reshape(shape)


def build_q_form(net: QNet, tol: Tolerances = DEFAULT_TOL) -> DiagonalForm:
    """The multiplicative one-form q on the diagonals of all elementary quads,
    built once per net and tolerances and kept by the net, read-only."""
    return net._memo(("q_form", tol), lambda: _build_q_form(net, tol))


def _build_q_form(net: QNet, tol: Tolerances) -> DiagonalForm:
    q_main, q_cross, m_points = {}, {}, {}
    for i, j in combinations(range(net.m), 2):
        m_points[(i, j)], q_main[(i, j)], q_cross[(i, j)] = (_frozen(a) for a in _diag_data(net, i, j, tol))
    return DiagonalForm(q_main=q_main, q_cross=q_cross, m_points=m_points)


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


@dataclass
class KoenigsData:
    """Vertex function nu together with the closedness diagnostic."""

    nu: VertexScalar
    closedness_residual: float


def integrate_nu(
    net: QNet,
    base_black=None,
    base_white=None,
    tol: Tolerances = DEFAULT_TOL,
    check: bool = True,
) -> KoenigsData:
    """Propagate nu along diagonals from one black and one white base value.

    Integrates nu_ij/nu = q(f -> f_ij) and nu_j/nu_i = q(f_i -> f_j) one
    layer at a time: cumulative products along the axis-0 line, each colour
    through the (0, 1) quads, then one step per layer along every further
    axis k through the (0, k) diagonals.  Each colour is rescaled to its base
    value, and every diagonal relation is re-verified.  Raises NotKoenigs if
    nu is not finite and nonzero, or if the residual exceeds tol.product
    (unless ``check`` is disabled, in which case the residual is reported in
    the result).
    """
    form = build_q_form(net, tol)
    if base_black is None:
        base_black = (tuple(0 for _ in range(net.m)), 1.0)
    if base_white is None:
        base_white = (tuple(1 if ax == 0 else 0 for ax in range(net.m)), 1.0)
    for (u, value), color in ((base_black, 0), (base_white, 1)):
        if sum(u) % 2 != color:
            raise ValueError(f"base vertex {tuple(u)} has the wrong parity")
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
    if not np.all(np.isfinite(nu) & (nu != 0.0)):
        raise NotKoenigs("nu propagation leaves the finite nonzero numbers")
    residual = _nu_residual(net, form, nu)
    if check and not residual <= tol.product:
        raise NotKoenigs(f"nu propagation inconsistent: residual {residual:.3e}")
    return KoenigsData(nu=VertexScalar(nu), closedness_residual=residual)


def _nu_residual(net: QNet, form: DiagonalForm, nu: np.ndarray) -> float:
    """Max relative violation of the two diagonal relations over all quads."""
    residuals = []
    for i, j in combinations(range(net.m), 2):
        qm, qc = form.q_main[(i, j)], form.q_cross[(i, j)]
        n, n_i, n_ij, n_j = _corners(nu, i, j)
        residuals += [np.abs(n_ij / n - qm) / np.abs(qm), np.abs(n_j / n_i - qc) / np.abs(qc)]
    return _worst(residuals)


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

    Returns the dual net; raises NotKoenigs unless the form closes within
    tol.product (a NaN residual does not).  The path-independence residual
    is available via :func:`dual_form_residual`.
    """
    nu = kd.nu.values
    if np.any(nu == 0.0):
        raise ZeroNu("nu vanishes at a vertex")
    forms = _dual_edge_forms(net, nu)
    residual = _one_form_closure_residual(net, forms)
    if not residual <= tol.product:
        raise NotKoenigs(f"dual one-form not closed: residual {residual:.3e}")
    return _integrate_one_form(net, forms)


def dual_form_residual(net: QNet, kd: KoenigsData) -> float:
    """Path-independence residual of the dual one-form (0 for Koenigs nets)."""
    return _one_form_closure_residual(net, _dual_edge_forms(net, kd.nu.values))


def _dual_edge_forms(net: QNet, nu: np.ndarray):
    """Edge arrays G_i = delta_i f / (nu nu_i), not finite where nu nu_i underflows."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return {i: np.diff(net.vertices, axis=i) / (_crop(nu, (i,), (0,)) * _crop(nu, (i,), (1,)))[..., None]
                for i in range(net.m)}


def _one_form_closure_residual(net: QNet, forms) -> float:
    """Max relative closure defect of an R^N-valued edge one-form over
    quads, NaN where the form is not finite."""
    residuals, unit = [], min(_unit(g) for g in forms.values())
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf and inf / inf read NaN
        for i, j in combinations(range(net.m), 2):
            gi_lo, gi_hi = _crop(forms[i], (j,), (0,)), _crop(forms[i], (j,), (1,))
            gj_lo, gj_hi = _crop(forms[j], (i,), (0,)), _crop(forms[j], (i,), (1,))
            residuals.append(_relative_defect(unit, gi_lo + gj_hi - gj_lo - gi_hi, gi_lo, gi_hi, gj_lo, gj_hi))
    return _worst(residuals)


def _relative_defect(unit: float, defect: np.ndarray, *terms) -> np.ndarray:
    """|defect| / max |term| of vectors along the last axis, all scaled first by ``unit``, the power of two
    of :func:`geom._unit` of their source, so that no square overflows or underflows.  The largest norm is
    the square root of the largest squared norm, as sqrt is monotone and correctly rounded."""
    sq = [np.einsum("...i,...i->...", x, x) for x in (v if unit == 1.0 else v * unit for v in (defect, *terms))]
    return np.sqrt(sq[0]) / np.maximum(np.sqrt(np.max(sq[1:], axis=0)), 1e-300)


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


# --- discrete Laplace equation ------------------------------------------------


def laplace_residual(net: QNet, kd: KoenigsData, tol: Tolerances = DEFAULT_TOL) -> float:
    """Residual of the discrete Laplace equation induced by nu.

    Quads with nu_i == nu_j have a singular coefficient; they are excluded
    rather than failing the whole net.
    """
    nu = kd.nu.values
    residuals = []
    diam = net.diameter()
    for i, j in combinations(range(net.m), 2):
        n, ni, nij, nj = _corners(nu, i, j)
        f, fi, fij, fj = _corners(net.vertices, i, j)
        sing = np.abs(ni - nj) <= tol.incidence * (np.abs(ni) + np.abs(nj))
        denom = np.where(sing, 1.0, n * (ni - nj))
        c1 = (nj * nij - n * ni) / denom
        c2 = -(ni * nij - n * nj) / denom
        lhs = fij - fi - fj + f
        rhs = c1[..., None] * (fi - f) + c2[..., None] * (fj - f)
        res = np.linalg.norm(lhs - rhs, axis=-1) / diam
        residuals.append(np.where(sing, 0.0, res))
    return _worst(residuals)


# --- Moutard nets --------------------------------------------------------------


@dataclass
class MoutardNet:
    """Lattice map into R^{N+1} (homogeneous chart) or R^{N+1,1} (flat
    light-cone layout [spatial..., e0, einf]) with per-quad Moutard
    coefficients satisfying tau_i tau_j y - y = a_ij (tau_j y - tau_i y)."""

    points: np.ndarray
    coeffs: dict

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)

    @property
    def m(self) -> int:
        return self.points.ndim - 1

    @property
    def extents(self):
        return self.points.shape[:-1]

    def moutard_residual(self) -> float:
        """Max relative defect of the minus-sign Moutard equation over all
        quads (for m >= 3 this includes the cross-face consistency), NaN if a
        coefficient or point is NaN."""
        residuals, unit = [], _unit(self.points)
        for (i, j), a in self.coeffs.items():
            y, yi, yij, yj = _corners(self.points, i, j)
            lhs = yij - y
            rhs = a[..., None] * (yj - yi)
            residuals.append(_relative_defect(unit, lhs - rhs, lhs, rhs, y))
        return _worst(residuals)

    def project_homogeneous(self, tol: Tolerances = DEFAULT_TOL):
        """Inverse of the homogeneous lift: f from the first N components
        over the last one, nu as the reciprocal last component."""
        last = self.points[..., -1]
        scale = np.abs(self.points).max()
        if np.any(np.abs(last) <= tol.incidence * scale):
            u = np.unravel_index(int(np.argmin(np.abs(last))), last.shape)
            raise VanishingLastComponent(f"projected point at infinity at {u}")
        f = self.points[..., :-1] / last[..., None]
        return QNet(f), VertexScalar(1.0 / last)


def moutard_lift(net: QNet, kd: KoenigsData, tol: Tolerances = DEFAULT_TOL, check: bool = True) -> MoutardNet:
    """Moutard representative y = (f, 1) / nu with the coefficients of
    :func:`_moutard_coeffs`; with ``check``, NotKoenigs unless its Moutard
    residual is within tol.product."""
    nu = kd.nu.values
    if np.any(nu == 0.0):
        raise ZeroNu("nu vanishes at a vertex")
    y = np.concatenate([net.vertices, np.ones(net.extents + (1,))], axis=-1) / nu[..., None]
    mn = MoutardNet(points=y, coeffs=_moutard_coeffs(1.0 / nu, tol))
    if check:
        res = mn.moutard_residual()
        if not res <= tol.product:
            raise NotKoenigs(f"Moutard residual {res:.3e} exceeds tolerance")
    return mn


def _moutard_coeffs(w: np.ndarray, tol: Tolerances) -> dict:
    """The coefficients a_ij = (w_ij - w) / (w_j - w_i) of every quad, by
    axis pair over its base grid, of a Moutard net whose last homogeneous
    (or e_0) component is w.  EqualNuOnWhiteDiagonal if some
    |w_j - w_i| <= tol.incidence (|w_i| + |w_j|)."""
    coeffs = {}
    for i, j in combinations(range(w.ndim), 2):
        w0, wi, wij, wj = _corners(w, i, j)
        denom = wj - wi
        if np.any(np.abs(denom) <= tol.incidence * (np.abs(wi) + np.abs(wj))):
            raise EqualNuOnWhiteDiagonal("nu_i == nu_j on a quad; Moutard coefficient singular")
        coeffs[(i, j)] = (wij - w0) / denom
    return coeffs


def moutard_evolve(axes_data, coeffs) -> MoutardNet:
    """Solve the minus-sign Moutard equation as an initial value problem.

    For m = 2, ``axes_data`` is a pair of arrays (y on the axis u_2 = 0 and
    on u_1 = 0, consistent at the origin) and ``coeffs`` maps (0, 1) to the
    per-quad coefficient array.  For m = 3, ``axes_data`` is a dict
    {(0,1): plane u_3 = 0, (0,2): plane u_2 = 0, (1,2): plane u_1 = 0} and
    the interior is filled through the (0, 1) faces; cross-face consistency
    is the caller's responsibility and is reported by
    :meth:`MoutardNet.moutard_residual`.
    """
    a01 = np.asarray(coeffs[(0, 1)], dtype=float)
    full = {(0, 1): a01}
    if isinstance(axes_data, dict):
        pieces = {axes: np.asarray(axes_data[axes], dtype=float) for axes in ((0, 1), (0, 2), (1, 2))}
        full.update((key, np.asarray(coeffs[key], dtype=float)) for key in ((0, 2), (1, 2)) if key in coeffs)
    else:
        pieces = {(k,): np.asarray(a, dtype=float) for k, a in enumerate(axes_data)}
    if not all(np.isfinite(a).all() for a in pieces.values()):
        raise VanishingLastComponent("initial data are not finite")

    def step(y, u):  # y_ij = y + a_01 (y_j - y_i) on the (0, 1) face below u
        return y[_back(u, 0, 1)] + a01[_back(u, 0, 1)][:, None] * (y[_back(u, 0)] - y[_back(u, 1)])

    with np.errstate(over="ignore", invalid="ignore"):  # what overflows is rejected below
        y = _wavefront(pieces, step)
    if not np.all(np.isfinite(y)):
        raise VanishingLastComponent("Moutard evolution produced non-finite values")
    return MoutardNet(points=y, coeffs=full)


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
    """Per-hexahedron Koenigs tests for m >= 3, three parts per axis triple:
    coplanarity of the four black ("black") and of the four white ("white")
    vertices of each cube, at its base, and collinearity of the three
    adjacent-face diagonal intersection points at every corner ("corners"),
    at the cube's base followed by the corner's number in ``_CORNERS``."""
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
        parts[("black", axes)] = quad_planarity(cube[:, [0, 4, 5, 6]]), at  # f, f_ij, f_ik, f_jk
        parts[("white", axes)] = quad_planarity(cube[:, [1, 2, 3, 7]]), at  # f_i, f_j, f_k, f_ijk
        ms = ms - ms.mean(axis=2, keepdims=True)
        parts[("corners", axes)] = span_residual(ms, 1).reshape(-1), _grid(shape + (8,))  # collinear triples
    return CheckReport("koenigs_3d_geometric", tol.product, parts)


def normalize_nu_for_limit(kd: KoenigsData, axis: int, tol: Tolerances = DEFAULT_TOL) -> VertexScalar:
    """Remove the alternating sign of nu on an all-convex 2d net.

    Returns nu'(u) = (-1)^(u_axis) nu(u), flipped globally to be positive.
    Raises NotAlternating when the sign pattern of nu is inconsistent with
    the convexity assumption.
    """
    nu = kd.nu.values
    if nu.ndim != 2:
        raise DimensionTooLow("sign normalization is defined for m == 2")
    if axis not in (0, 1):
        raise ValueError("axis must be 0 or 1")
    idx = np.indices(nu.shape)[axis]
    switched = np.where(idx % 2 == 0, nu, -nu)
    if np.all(switched > 0):
        return VertexScalar(switched)
    if np.all(switched < 0):
        return VertexScalar(-switched)
    raise NotAlternating("sign of nu does not alternate along the chosen axis")


def switched_laplace_residual(net: QNet, nu_prime: VertexScalar) -> float:
    """Residual of the discrete Laplace equation in the sign-switched
    convention, where the coefficient denominator is nu'(nu'_1 + nu'_2)."""
    if net.m != 2:
        raise DimensionTooLow("the switched convention is defined for m == 2")
    n, n1, n12, n2 = _corners(nu_prime.values, 0, 1)
    f, f1, f12, f2 = _corners(net.vertices, 0, 1)
    denom = n * (n1 + n2)
    if np.any(denom == 0.0):
        raise ZeroNu("nu' vanishes or nu'_1 + nu'_2 == 0")
    c1 = (n2 * n12 - n * n1) / denom
    c2 = (n1 * n12 - n * n2) / denom
    lhs = f12 - f1 - f2 + f
    rhs = c1[..., None] * (f1 - f) + c2[..., None] * (f2 - f)
    return float(np.linalg.norm(lhs - rhs, axis=-1).max() / net.diameter())


def switched_moutard_residual(mn: MoutardNet, axis: int) -> float:
    """Max relative defect of the plus-sign Moutard equation
    tau_1 tau_2 y' + y' = a'(tau_1 y' + tau_2 y') for the switched lift
    y'(u) = (-1)^(u_axis) y(u); a' = -a for axis 0 and +a for axis 1."""
    if mn.m != 2:
        raise DimensionTooLow("the switched convention is defined for m == 2")
    idx = np.indices(mn.extents)[axis]
    y = np.where((idx % 2 == 0)[..., None], mn.points, -mn.points)
    a = -mn.coeffs[(0, 1)] if axis == 0 else mn.coeffs[(0, 1)]
    y0, y1, y12, y2 = _corners(y, 0, 1)
    lhs = y12 + y0
    rhs = a[..., None] * (y1 + y2)
    scale = np.abs(y).max()
    return float(np.linalg.norm(lhs - rhs, axis=-1).max() / scale)
