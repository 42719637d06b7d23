"""Discrete Koenigs nets.

The diagonal one-form q, its closedness products, integration of the vertex
function nu, dual quadrilaterals and dual nets, Moutard lifts/evolution, and
the geometric characterizations for m = 2 and m = 3.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product, repeat

import numpy as np

from .errors import (
    DimensionTooLow,
    EqualNuOnWhiteDiagonal,
    NotAlternating,
    NotKoenigs,
    VanishingLastComponent,
    VertexOnDiagonal,
    ZeroNu,
)
from .geom import DEFAULT_TOL, Tolerances, _length, quad_diagonals, rank_residual
from .qnet import QNet, VertexScalar, _back, _base, _crop, _cubes, _frozen, _gather_quads, _star, _wavefront

__all__ = [
    "DiagonalForm",
    "KoenigsData",
    "MoutardNet",
    "ClosednessReport",
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


def _shift(u, *axes):
    v = list(u)
    for ax in axes:
        v[ax] += 1
    return tuple(v)


def _diag_data(net: QNet, i: int, j: int, tol: Tolerances):
    """Diagonal intersections of all quads in the (i, j) plane, by
    :func:`quad_diagonals`: (m, q_main, q_cross) shaped like the base grid."""
    pts, shape = _gather_quads(net, i, j)
    diag = quad_diagonals(pts, tol, messages=(
        lambda k, _: f"parallel diagonals at quad base {_base(shape, k)} (axes {i},{j})",
        lambda k, _: f"skew diagonals at quad base {_base(shape, k)} (axes {i},{j})",
        lambda k, _: f"intersection at a vertex, quad base {_base(shape, k)}",
    ))
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


@dataclass
class ClosednessReport:
    is_koenigs: bool
    max_residual: float
    n_cycles: int
    failures: list  # (description, residual)


def check_closedness(net: QNet, tol: Tolerances = DEFAULT_TOL, form: DiagonalForm | None = None) -> ClosednessReport:
    """Closedness of the diagonal one-form on the black and white graphs.

    For every axis pair, the product of q over the 4-cycle of diagonals
    around each slice-interior vertex must be 1; for m >= 3 additionally the
    triangle products at every hexahedron corner.  The net is Koenigs iff
    every |product - 1| <= tol.product.
    """
    if form is None:
        form = build_q_form(net, tol)
    failures = []
    max_res = 0.0
    n_cycles = 0
    # 4-cycles around slice-interior vertices, one per axis pair
    for i, j in combinations(range(net.m), 2):
        qm = form.q_main[(i, j)]
        qc = form.q_cross[(i, j)]
        hi = net.extents[i] - 1
        hj = net.extents[j] - 1
        if hi < 2 or hj < 2:
            continue
        prod = (
            _crop(qc, (i, j), (1, 1))
            * _crop(qm, (i, j), (1, 0))
            / _crop(qm, (i, j), (0, 1))
            / _crop(qc, (i, j), (0, 0))
        )
        res = np.abs(prod - 1.0)
        n_cycles += res.size
        max_res = max(max_res, float(res.max()))
        for idx in zip(*np.nonzero(res > tol.product)):
            failures.append((f"vertex cycle axes ({i},{j}) at base {tuple(map(int, idx))}", float(res[idx])))
    # triangle cycles at hexahedron corners
    if net.m >= 3:
        for axes, res in _corner_triangle_products(net, form):
            n_cycles += res.size
            max_res = max(max_res, float(res.max()))
            for *w, c in zip(*np.nonzero(res > tol.product)):
                w = tuple(int(x) for x in w)
                corner = _shift(w, *(ax for ax, bit in zip(axes, _CORNERS[c]) if bit))
                failures.append((f"corner {corner} of cube {w} axes {axes}", float(res[w][c])))
    return ClosednessReport(
        is_koenigs=max_res <= tol.product,
        max_residual=max_res,
        n_cycles=n_cycles,
        failures=failures,
    )


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
    form: DiagonalForm | None = None,
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
    if form is None:
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
    worst = 0.0
    for i, j in combinations(range(net.m), 2):
        qm = form.q_main[(i, j)]
        qc = form.q_cross[(i, j)]
        n00 = _crop(nu, (i, j), (0, 0))
        n10 = _crop(nu, (i, j), (1, 0))
        n01 = _crop(nu, (i, j), (0, 1))
        n11 = _crop(nu, (i, j), (1, 1))
        r1 = np.abs(n11 / n00 - qm) / np.abs(qm)
        r2 = np.abs(n01 / n10 - qc) / np.abs(qc)
        worst = max(worst, float(r1.max()), float(r2.max()))
    return worst


# --- dual quadrilaterals and dual nets ---------------------------------------


def dualize_quad(quads, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """One representative of the dual of each quad of a stack (..., 4, N),
    with the diagonal intersection of the dual placed at the origin.

    Corresponding sides of a dual are parallel to those of its quad, and its
    diagonals are parallel to the non-corresponding diagonals of the quad.
    Parallel or skew diagonals raise DegenerateQuad (:func:`quad_diagonals`,
    skew measured against the quad's diameter), and a diagonal intersection
    within tol.incidence times the diameter of a vertex VertexOnDiagonal.
    """
    pts = np.asarray(quads, dtype=float)
    flat = pts.reshape(-1, 4, pts.shape[-1])
    diam = _length(flat[:, [0, 0, 0, 1, 1, 2]] - flat[:, [1, 2, 3, 2, 3, 3]]).max(axis=1)
    m = quad_diagonals(flat, tol, scale=diam, guards=2).point
    a, b, c, d = np.moveaxis(flat, 1, 0)
    e1 = (c - a) / _length(c - a)[:, None]
    e2 = (d - b) / _length(d - b)[:, None]
    axis = np.stack([e1, e2, e1, e2], axis=1)  # the diagonal through each vertex
    height = ((flat - m[:, None]) * axis).sum(axis=-1)  # its signed distance from m
    if (np.abs(height).min(axis=1) <= tol.incidence * diam).any():
        raise VertexOnDiagonal("diagonal intersection coincides with a vertex")
    return (-axis[:, [1, 0, 1, 0]] / height[..., None]).reshape(pts.shape)


def _angular_residual(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Sine of the angle between each pair of vectors u, v (..., N) (0 for
    parallel vectors).

    Computed as the norm of the orthogonal rejection, which stays accurate
    to machine precision for nearly parallel vectors where the Gram
    determinant cancels.
    """
    uh = u / _length(u)[..., None]
    vh = v / _length(v)[..., None]
    return _length(vh - (vh * uh).sum(axis=-1, keepdims=True) * uh)


def dual_quad_residual(quads, duals) -> np.ndarray:
    """Max angular residual of each quad of a stack (..., 4, N) and its dual
    over the six parallelism predicates of duality: four corresponding
    sides, and each diagonal of the dual against the other diagonal of the
    quad."""
    q, qd = np.asarray(quads, dtype=float), np.asarray(duals, dtype=float)
    u = np.concatenate([np.roll(q, -1, axis=-2) - q, qd[..., [2, 3], :] - qd[..., [0, 1], :]], axis=-2)
    v = np.concatenate([np.roll(qd, -1, axis=-2) - qd, q[..., [3, 2], :] - q[..., [1, 0], :]], axis=-2)
    return _angular_residual(u, v).max(axis=-1)


def dualize_net(
    net: QNet,
    kd: KoenigsData,
    base=None,
    tol: Tolerances = DEFAULT_TOL,
    check: bool = True,
):
    """Integrate the edge one-form delta_i f* = delta_i f / (nu nu_i).

    Returns the dual net; raises NotKoenigs when the form fails to close
    (unless ``check`` is disabled).  The path-independence residual is
    available via :func:`dual_form_residual`.
    """
    nu = kd.nu.values
    if np.any(nu == 0.0):
        raise ZeroNu("nu vanishes at a vertex")
    forms = _dual_edge_forms(net, nu)
    residual = _one_form_closure_residual(net, forms)
    if check and residual > tol.product:
        raise NotKoenigs(f"dual one-form not closed: residual {residual:.3e}")
    if base is None:
        base = (tuple(0 for _ in range(net.m)), np.zeros(net.ambient_dim))
    return _integrate_one_form(net, forms, base)


def dual_form_residual(net: QNet, kd: KoenigsData) -> float:
    """Path-independence residual of the dual one-form (0 for Koenigs nets)."""
    return _one_form_closure_residual(net, _dual_edge_forms(net, kd.nu.values))


def _dual_edge_forms(net: QNet, nu: np.ndarray):
    """Edge arrays G_i = delta_i f / (nu nu_i)."""
    forms = {}
    for i in range(net.m):
        df = _crop(net.vertices, (i,), (1,)) - _crop(net.vertices, (i,), (0,))
        forms[i] = df / (_crop(nu, (i,), (0,)) * _crop(nu, (i,), (1,)))[..., None]
    return forms


def _one_form_closure_residual(net: QNet, forms) -> float:
    """Max relative closure defect of an R^N-valued edge one-form over quads."""
    worst = 0.0
    for i, j in combinations(range(net.m), 2):
        gi = forms[i]
        gj = forms[j]
        gi_lo = _crop(gi, (j,), (0,))
        gi_hi = _crop(gi, (j,), (1,))
        gj_lo = _crop(gj, (i,), (0,))
        gj_hi = _crop(gj, (i,), (1,))
        defect = gi_lo + gj_hi - gj_lo - gi_hi
        scale = np.maximum.reduce([
            np.linalg.norm(gi_lo, axis=-1),
            np.linalg.norm(gi_hi, axis=-1),
            np.linalg.norm(gj_lo, axis=-1),
            np.linalg.norm(gj_hi, axis=-1),
        ])
        rel = np.linalg.norm(defect, axis=-1) / np.maximum(scale, 1e-300)
        worst = max(worst, float(rel.max()))
    return worst


def _integrate_one_form(net: QNet, forms, base) -> QNet:
    """Sum an edge one-form along lexicographic paths (first along the last
    axis, then along each earlier one), one cumulative sum per axis, then
    translate so the base vertex lands on its prescribed value."""
    u0, f0 = base
    out = np.zeros(net.extents + (net.ambient_dim,))
    for ax in reversed(range(net.m)):
        lead = (0,) * ax  # the earlier axes are still at 0
        col = out[lead]
        np.cumsum(np.concatenate([col[:1], forms[ax][lead]]), axis=0, out=col)
    out += np.asarray(f0, dtype=float) - out[tuple(u0)]
    return QNet(out)


# --- discrete Laplace equation ------------------------------------------------


@dataclass
class LaplaceReport:
    max_residual: float
    singular_quads: list  # (u, i, j) with nu_i == nu_j

    def __float__(self):
        return self.max_residual


def laplace_residual(net: QNet, kd: KoenigsData, tol: Tolerances = DEFAULT_TOL) -> LaplaceReport:
    """Residual of the discrete Laplace equation induced by nu.

    Quads with nu_i == nu_j have a singular coefficient; they are reported
    and excluded rather than failing the whole net.
    """
    nu = kd.nu.values
    worst = 0.0
    singular = []
    diam = net.diameter()
    for i, j in combinations(range(net.m), 2):
        n = _crop(nu, (i, j), (0, 0))
        ni = _crop(nu, (i, j), (1, 0))
        nj = _crop(nu, (i, j), (0, 1))
        nij = _crop(nu, (i, j), (1, 1))
        f = _crop(net.vertices, (i, j), (0, 0))
        fi = _crop(net.vertices, (i, j), (1, 0))
        fj = _crop(net.vertices, (i, j), (0, 1))
        fij = _crop(net.vertices, (i, j), (1, 1))
        sing = np.abs(ni - nj) <= tol.incidence * (np.abs(ni) + np.abs(nj))
        denom = np.where(sing, 1.0, n * (ni - nj))
        c1 = (nj * nij - n * ni) / denom
        c2 = -(ni * nij - n * nj) / denom
        lhs = fij - fi - fj + f
        rhs = c1[..., None] * (fi - f) + c2[..., None] * (fj - f)
        res = np.linalg.norm(lhs - rhs, axis=-1) / diam
        if np.any(sing):
            for idx in zip(*np.nonzero(sing)):
                singular.append((idx, i, j))
            res = np.where(sing, 0.0, res)
        worst = max(worst, float(res.max()))
    return LaplaceReport(max_residual=worst, singular_quads=singular)


# --- Moutard nets --------------------------------------------------------------


@dataclass
class MoutardNet:
    """Lattice map into R^{N+1} (homogeneous chart) or R^{N+1,1} (flat
    light-cone layout [spatial..., e0, einf]) with per-quad Moutard
    coefficients satisfying tau_i tau_j y - y = a_ij (tau_j y - tau_i y)."""

    points: np.ndarray
    coeffs: dict
    lightcone: bool = False

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
        quads (for m >= 3 this includes the cross-face consistency)."""
        worst = 0.0
        for (i, j), a in self.coeffs.items():
            y = _crop(self.points, (i, j), (0, 0))
            yi = _crop(self.points, (i, j), (1, 0))
            yj = _crop(self.points, (i, j), (0, 1))
            yij = _crop(self.points, (i, j), (1, 1))
            lhs = yij - y
            rhs = a[..., None] * (yj - yi)
            scale = np.maximum(
                np.linalg.norm(lhs, axis=-1),
                np.maximum(np.linalg.norm(rhs, axis=-1), np.linalg.norm(y, axis=-1)),
            )
            rel = np.linalg.norm(lhs - rhs, axis=-1) / np.maximum(scale, 1e-300)
            worst = max(worst, float(rel.max()))
        return worst

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
    """Moutard representative y = (f, 1) / nu with coefficients
    a_ij = (1/nu_ij - 1/nu) / (1/nu_j - 1/nu_i)."""
    nu = kd.nu.values
    if np.any(nu == 0.0):
        raise ZeroNu("nu vanishes at a vertex")
    y = np.concatenate([net.vertices, np.ones(net.extents + (1,))], axis=-1) / nu[..., None]
    coeffs = {}
    for i, j in combinations(range(net.m), 2):
        w = 1.0 / nu
        winv = _crop(w, (i, j), (0, 0))
        wi = _crop(w, (i, j), (1, 0))
        wj = _crop(w, (i, j), (0, 1))
        wij = _crop(w, (i, j), (1, 1))
        denom = wj - wi
        if np.any(np.abs(denom) <= tol.incidence * (np.abs(wi) + np.abs(wj))):
            raise EqualNuOnWhiteDiagonal("nu_i == nu_j on a quad; Moutard coefficient singular")
        coeffs[(i, j)] = (wij - winv) / denom
    mn = MoutardNet(points=y, coeffs=coeffs)
    if check:
        res = mn.moutard_residual()
        if res > tol.product:
            raise NotKoenigs(f"Moutard residual {res:.3e} exceeds tolerance")
    return mn


def moutard_evolve(axes_data, coeffs, lightcone: bool = False) -> MoutardNet:
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

    def step(y, u):  # y_ij = y + a_01 (y_j - y_i) on the (0, 1) face below u
        return y[_back(u, 0, 1)] + a01[_back(u, 0, 1)][:, None] * (y[_back(u, 0)] - y[_back(u, 1)])

    y = _wavefront(pieces, step)
    if not np.all(np.isfinite(y)):
        raise ValueError("Moutard evolution produced non-finite values")
    return MoutardNet(points=y, coeffs=full, lightcone=lightcone)


# --- geometric characterizations ----------------------------------------------


@dataclass
class Vertex2DRecord:
    u: tuple
    excluded: bool  # planar vertex, precondition violated
    rank_m_points: float | None  # criterion (a) residual
    rank_vertices: float | None  # criterion (b) residual, N >= 4
    common_line: float | None  # criterion (c) residual, N = 3


@dataclass
class Geometric2DReport:
    passed: bool
    records: list
    max_residual: float


def _rank_residual(points: np.ndarray, rank: int) -> np.ndarray:
    """Relative size of the first singular value beyond the target affine
    rank, for each point set in a stack (..., k, N)."""
    return rank_residual(points - points.mean(axis=-2, keepdims=True), rank)


def check_koenigs_2d_geometric(
    net: QNet,
    tol: Tolerances = DEFAULT_TOL,
    form: DiagonalForm | None = None,
) -> Geometric2DReport:
    """Geometric Koenigs tests at every interior vertex of a 2d net.

    (a) the four diagonal intersection points of the adjacent quads are
    coplanar; (b) for N >= 4, the five points f, f_{+-1,+-2} lie in a
    3-space; (c) for N = 3, the three planes through f spanned by opposite
    corner points and by the axis-1 neighbours share a line.  Vertices that
    are planar together with their four neighbours violate the precondition
    and are excluded from the verdict.
    """
    if net.m != 2:
        raise DimensionTooLow("2d characterization needs m == 2")
    if net.ambient_dim < 3:
        raise DimensionTooLow("vertex characterizations need N >= 3")
    if form is None:
        form = build_q_form(net, tol)
    star = _star(net.vertices)
    excluded = _rank_residual(star[:, :5], 2) <= tol.incidence  # f and its neighbours span a plane
    mpts = form.m_points[(0, 1)]
    ms = np.stack([mpts[:-1, :-1], mpts[1:, :-1], mpts[:-1, 1:], mpts[1:, 1:]], axis=2)
    res_a = _rank_residual(ms.reshape(len(star), 4, net.ambient_dim), 2)
    res_b = res_c = [None] * len(star)
    if net.ambient_dim >= 4:
        res_b = _rank_residual(star[:, [0, 5, 6, 7, 8]], 3).tolist()
    if net.ambient_dim == 3:
        legs = star[:, 1:] - star[:, :1]
        normals = np.cross(legs[:, [4, 5, 0]], legs[:, [6, 7, 1]])
        with np.errstate(divide="ignore", invalid="ignore"):
            normals /= np.linalg.norm(normals, axis=-1, keepdims=True)
            res_c = np.abs(np.linalg.det(normals)).tolist()
    records = [
        Vertex2DRecord(u, True, None, None, None) if ex else Vertex2DRecord(u, False, ra, rb, rc)
        for u, ex, ra, rb, rc in zip(net.interior_indices(), excluded.tolist(), res_a.tolist(), res_b, res_c)
    ]
    kept = res_a[~excluded]
    return Geometric2DReport(
        passed=bool(np.all(kept <= tol.product)), records=records, max_residual=float(kept.max(initial=0.0))
    )


@dataclass
class Hexahedron3DRecord:
    u: tuple
    axes: tuple
    black_residual: float
    white_residual: float
    corner_residuals: list


@dataclass
class Geometric3DReport:
    passed: bool
    records: list
    max_residual: float


def check_koenigs_3d_geometric(
    net: QNet,
    tol: Tolerances = DEFAULT_TOL,
    form: DiagonalForm | None = None,
) -> Geometric3DReport:
    """Per-hexahedron Koenigs tests for m >= 3: coplanarity of the four black
    and the four white vertices, and collinearity of the three adjacent-face
    diagonal intersection points at every corner."""
    if net.m < 3:
        raise DimensionTooLow("3d characterization needs m >= 3")
    if form is None:
        form = build_q_form(net, tol)
    records = []
    max_res = 0.0
    for axes in combinations(range(net.m), 3):
        i, j, k = axes
        cube = _cubes(net, axes)
        res_black = _rank_residual(cube[:, [0, 4, 5, 6]], 2)  # f, f_ij, f_ik, f_jk
        res_white = _rank_residual(cube[:, [1, 2, 3, 7]], 2)  # f_i, f_j, f_k, f_ijk
        # the diagonal intersections of the three faces through each corner
        faces = (((i, j), k, 2), ((i, k), j, 1), ((j, k), i, 0))  # (plane, normal axis, its bit)
        ms = [[_crop(form.m_points[pair], (r,), (bits[b],)) for pair, r, b in faces] for bits in _CORNERS]
        ms = np.array(ms).reshape(8, 3, -1, net.ambient_dim).transpose(2, 0, 1, 3)
        res_corner = _rank_residual(ms, 1)
        worst = np.maximum(np.maximum(res_black, res_white), res_corner.max(axis=1))
        max_res = max(max_res, float(worst.max()))
        rows = zip(net.base_indices(*axes), repeat(axes), res_black.tolist(), res_white.tolist(), res_corner.tolist())
        records += [Hexahedron3DRecord(*row) for row in rows]
    return Geometric3DReport(passed=max_res <= tol.product, records=records, max_residual=max_res)


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
    nu = nu_prime.values
    n = nu[:-1, :-1]
    n1 = nu[1:, :-1]
    n2 = nu[:-1, 1:]
    n12 = nu[1:, 1:]
    f = net.vertices[:-1, :-1]
    f1 = net.vertices[1:, :-1]
    f2 = net.vertices[:-1, 1:]
    f12 = net.vertices[1:, 1:]
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
    lhs = y[1:, 1:] + y[:-1, :-1]
    rhs = a[..., None] * (y[1:, :-1] + y[:-1, 1:])
    scale = np.abs(y).max()
    return float(np.linalg.norm(lhs - rhs, axis=-1).max() / scale)
