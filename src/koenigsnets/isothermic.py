"""Discrete isothermic nets: circular Koenigs nets.

Circularity and cross-ratio checks, edge labels, the discrete metric s,
Christoffel transforms, the three-leg evolution, and Moutard representatives
in the Minkowski light cone.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (
    CoincidentPoints,
    CollinearTriple,
    EqualLabels,
    FormNotClosed,
    InconsistentCrossRatios,
    NotCircular,
    NullDiagonalDifference,
    ZeroE0Component,
    ZeroEdge,
    ZeroLeg,
)
from .geom import (
    DEFAULT_TOL,
    QuadCircles,
    Tolerances,
    _frame_circles,
    _plane_frames,
    _raise_first,
    _span_fit,
    lift_to_lightcone,
    minkowski_dot,
    raise_quad_error,
    span_residual,
)
from .koenigs import (
    MoutardNet,
    _closure_report,
    _integrate_one_form,
    _limit_signs,
    _moutard_coeffs,
    _moutard_fill,
    check_moutard,
    integrate_nu,
)
from .qnet import (
    CheckReport,
    EdgeLabelling,
    QNet,
    VertexScalar,
    _QUAD,
    _chart,
    _corners,
    _crop,
    _cubes,
    _frozen,
    _grid,
    _net_frame,
    _quad_at,
    _raise_first_row,
    _stack_at,
    _star,
    _wavefront,
)

__all__ = [
    "IsothermicNet",
    "check_circular",
    "quad_cross_ratios",
    "check_isothermic",
    "recover_labels",
    "recover_metric",
    "christoffel",
    "three_leg_evolve",
    "lightcone_lift",
    "lightcone_evolve",
    "check_moebius_characterizations",
]


@dataclass(frozen=True)
class IsothermicNet:
    """Circular Koenigs net together with its labels and discrete metric."""

    net: QNet
    labels: EdgeLabelling
    metric: VertexScalar


def _circles(net: QNet, tol: Tolerances) -> tuple:
    """:func:`geom.quad_circles` of the quads of every axis pair in one pass over the stack and frame that
    :func:`qnet._net_frame` reads, once per net and tolerances: (its pairs, read-only QuadCircles of the stack)."""

    def build():
        abcd, pairs, frame = _net_frame(net, take=False)
        return pairs, QuadCircles(*(_frozen(a) for a in _frame_circles(abcd, frame, tol)))

    return net._memo(("circles", tol), build)


def check_circular(net: QNet, tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """Per-quad concircularity residuals, one part per axis pair, each quad
    at its base; passes iff all are <= tol.incidence."""
    pairs, qc = _circles(net, tol)
    raise_quad_error(qc, 3, _stack_at(pairs))  # the first quad that fails, in axis-pair and base order
    return CheckReport("circular", tol.incidence, {key: (qc.residual[at], _grid(shape)) for key, shape, at in pairs})


def quad_cross_ratios(net: QNet, tol: Tolerances = DEFAULT_TOL) -> dict:
    """Cross-ratio q(f, f_i, f_ij, f_j) of every elementary quad, keyed by axis pair, as arrays over the base grid."""
    pairs, qc = _circles(net, tol)
    raise_quad_error(qc, 6, _stack_at(pairs))
    return {key: qc.cross_ratio[at].reshape(shape) for key, shape, at in pairs}


def check_isothermic(net: QNet, tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """Cross-ratio products of adjacent quadrilaterals.

    For m = 2 the condition q * q_{-1,-2} = q_{-1} * q_{-2} at every interior
    vertex; for m >= 3 the triple product over the three forward faces at
    every vertex equals 1, a part per axis triple.  Requires a circular net.
    """
    check_circular(net, tol).require(NotCircular)
    cross_ratios = quad_cross_ratios(net, tol)
    parts = {}
    if net.m == 2:
        c, c_i, c_ij, c_j = _corners(cross_ratios[(0, 1)], 0, 1)
        lhs = c_ij * c
        rhs = c_j * c_i
        parts[(0, 1)] = (np.abs(lhs - rhs) / np.maximum(np.abs(lhs), np.abs(rhs))).reshape(-1), _grid(lhs.shape, 1)
    for i, j, k in combinations(range(net.m), 3):
        prod = (
            _crop(cross_ratios[(i, j)], (k,), (0,))
            * _crop(cross_ratios[(j, k)], (i,), (0,))
            / _crop(cross_ratios[(i, k)], (j,), (0,))
        )
        parts[(i, j, k)] = np.abs(prod - 1.0).reshape(-1), _grid(prod.shape)
    return CheckReport("isothermic", tol.product, parts)


def recover_labels(net: QNet, tol: Tolerances = DEFAULT_TOL) -> EdgeLabelling:
    """Solve q(f, f_i, f_ij, f_j) = alpha_i / alpha_j for the edge labels.

    Gauge alpha_1(0) = 1; labels are unique up to one global scale.  Raises
    InconsistentCrossRatios unless the factorization reproduces every quad's
    cross-ratio cr within tol.product: report "label_factorization" of
    |cr - alpha_i / alpha_j| / max(|cr|, |alpha_i / alpha_j|), a part per
    axis pair, each quad at its base.
    """
    cross_ratios = quad_cross_ratios(net, tol)

    def along(q, j):  # q on the line along axis j through the origin
        return q[(0,) * j + (slice(None),) + (0,) * (net.m - j - 1)]

    # alpha_j = alpha_0(0) / q along axis j, then alpha_0 = q alpha_1(0) along axis 0
    rest = [1.0 / along(cross_ratios[(0, j)], j) for j in range(1, net.m)]
    first = along(cross_ratios[(0, 1)], 0) * rest[0][0]
    first[0] = 1.0
    labels = EdgeLabelling((first, *rest))
    parts = {}
    for (i, j), cr in cross_ratios.items():
        layer = [1] * net.m
        layer[i] = -1
        expected = labels.per_axis[i].reshape(layer)
        layer[i], layer[j] = 1, -1
        expected = expected / labels.per_axis[j].reshape(layer)
        res = np.abs(cr - expected) / np.maximum(np.abs(cr), np.abs(expected))
        parts[(i, j)] = res.reshape(-1), _grid(res.shape)
    CheckReport("label_factorization", tol.product, parts).require(InconsistentCrossRatios)
    return labels


def recover_metric(net: QNet, tol: Tolerances = DEFAULT_TOL) -> VertexScalar:
    """Discrete metric s from the diagonal-ratio propagation.

    Same integration as nu for general Koenigs nets; additionally asserts the
    labelling property of alpha_i = |f_i - f|^2 / (s s_i) by :func:`_metric_report`.
    """
    s = integrate_nu(net, tol=tol).nu
    _metric_report(net, s.values, tol).require(InconsistentCrossRatios)
    return s


def _metric_report(net: QNet, s: np.ndarray, tol: Tolerances) -> CheckReport:
    """:func:`_layer_report` "metric_labels" of the labels alpha_i = |f_i - f|^2 / (s s_i) of every edge."""
    return _layer_report("metric_labels", [_edge_alpha(net, s, i) for i in range(net.m)], tol)


def _layer_report(name: str, alphas, tol: Tolerances) -> CheckReport:
    """Labels alpha_i given on every axis-i edge (one array per axis i) against the first edge of their
    layer: |alpha_i - alpha_i(first)| / max |alpha_i|, a part per axis i, each edge at its base."""
    parts = {}
    for i, alpha in enumerate(alphas):
        first = alpha[tuple(slice(None) if ax == i else slice(1) for ax in range(alpha.ndim))]
        res = np.abs(alpha - first) / np.maximum(np.abs(alpha).max(), 1e-300)
        parts[i] = res.reshape(-1), _grid(res.shape)
    return CheckReport(name, tol.product, parts)


def _edge_alpha(net: QNet, s: np.ndarray, i: int) -> np.ndarray:
    """alpha_i = |f_i - f|^2 / (s s_i) on every axis-i edge."""
    df = np.diff(net.vertices, axis=i)
    return (df * df).sum(axis=-1) / (_crop(s, (i,), (0,)) * _crop(s, (i,), (1,)))


def metric_labels(net: QNet, s: VertexScalar) -> EdgeLabelling:
    """Edge labelling alpha_i = |f_i - f|^2 / (s s_i), averaged per layer."""
    alphas = [_edge_alpha(net, s.values, i) for i in range(net.m)]
    return EdgeLabelling(tuple(a.mean(axis=tuple(ax for ax in range(a.ndim) if ax != i)) for i, a in enumerate(alphas)))


def christoffel(iso: IsothermicNet, limit_signs: bool = False, tol: Tolerances = DEFAULT_TOL) -> IsothermicNet:
    """Christoffel transform: integrate delta_i f* = alpha_i delta_i f / |delta_i f|^2
    from 0 at the origin; FormNotClosed unless the form closes within
    tol.product (a NaN residual does not).

    The result carries the same cross-ratios and the metric s* = 1/s.  With
    ``limit_signs`` the continuous-limit convention is applied to the returned
    decorations (s* switched along axis 2 and made positive, else NotAlternating;
    alpha_2 negated); the dual surface itself is the same.
    """
    net = iso.net
    forms = _christoffel_forms(net, iso.labels)
    _closure_report("christoffel_closure", net, forms, tol).require(FormNotClosed)
    dual = _integrate_one_form(net, forms)
    s_star = 1.0 / iso.metric.values
    labels = iso.labels
    if limit_signs:
        s_star = _limit_signs(s_star, 1)
        labels = EdgeLabelling((labels.per_axis[0], -labels.per_axis[1]))
    return IsothermicNet(net=dual, labels=labels, metric=VertexScalar(s_star))


def _christoffel_forms(net: QNet, labels: EdgeLabelling):
    forms = {}
    for i in range(net.m):
        df = np.diff(net.vertices, axis=i)
        norm2 = (df * df).sum(axis=-1)
        if np.any(norm2 == 0.0):
            raise ZeroEdge("zero-length edge in Christoffel one-form")
        alpha = labels.per_axis[i]
        shape = [1] * net.m
        shape[i] = len(alpha)
        with np.errstate(over="ignore"):  # a form that overflows fails its closure gate
            forms[i] = alpha.reshape(shape)[..., None] * df / norm2[..., None]
    return forms


def three_leg_evolve(axes_data, labels: EdgeLabelling, tol: Tolerances = DEFAULT_TOL) -> IsothermicNet:
    """Fill a 2d window from axis data by the three-leg relation
    (alpha_i - alpha_j)(f_ij - f)^{-1} = alpha_i (f_i - f)^{-1} - alpha_j (f_j - f)^{-1}.

    Each new quad is solved in the plane of its three known points with
    complex arithmetic; every produced quad is concircular with cross-ratio
    alpha_i / alpha_j.
    """
    a1, a2 = labels.per_axis
    pieces = {(k,): np.asarray(a, dtype=float) for k, a in enumerate(axes_data)}
    if not all(np.isfinite(a).all() for a in pieces.values()):
        raise ZeroLeg("initial data are not finite")
    f = _wavefront(pieces, lambda f, level: _three_leg_steps(f, level, a1, a2), tol)
    net = QNet(f)
    metric = recover_metric(net, tol=tol)
    return IsothermicNet(net=net, labels=labels, metric=metric)


def _three_leg_steps(f, level, a1, a2):
    """Fourth vertices f_ij of the quads (f, f_i, f_ij, f_j) below the vertices of a level, with labels a1, a2."""
    alpha_i, alpha_j = a1[level.u[:, 0] - 1], a2[level.u[:, 1] - 1]
    pts = f[level.below.T[:, _QUAD]]
    e1, e2, z, nu, spans = _plane_frames(pts)
    zi, zj = np.moveaxis(z.view(complex)[:, 1:, 0], 1, 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = alpha_i / zi - alpha_j / zj
        zij = (alpha_i - alpha_j) / w
    _raise_first_row(level.u, [
        (alpha_i == alpha_j, EqualLabels, "alpha_i == alpha_j: fourth vertex at infinity"),
        (nu == 0.0, CoincidentPoints, "cannot build a frame from coincident points"),
        (~spans, CollinearTriple, "all points are collinear; no plane frame"),
        ((zi == 0) | (zj == 0) | (w == 0), ZeroLeg, "degenerate three-leg step: fourth vertex at infinity"),
    ])
    return pts[:, 0] + zij.real[:, None] * e1 + zij.imag[:, None] * e2


# --- light-cone Moutard representatives ---------------------------------------


def lightcone_lift(iso: IsothermicNet, tol: Tolerances = DEFAULT_TOL) -> MoutardNet:
    """Light-cone Moutard representative y = (f + e_0 + |f|^2 e_inf) / s.

    Flat layout [spatial..., e0, einf], with the coefficients of
    :func:`~koenigsnets.koenigs._moutard_coeffs` for w = 1/s.  FormNotClosed
    unless :func:`~koenigsnets.koenigs.check_moutard` passes, and
    InconsistentCrossRatios unless its labels are constant on each layer by
    the rule of :func:`recover_metric`.  The labels -2 <y, tau_i y> equal
    alpha_i = |f_i - f|^2 / (s s_i), as <lift a, lift b> = -|a - b|^2 / 2;
    the gate reads them from that form (:func:`_edge_alpha`), where the
    Minkowski product loses the digits its |f|^2 terms cancel.
    """
    s = iso.metric.values
    y = lift_to_lightcone(iso.net.vertices) / s[..., None]
    mn = MoutardNet(points=_frozen(y), coeffs=_moutard_coeffs(1.0 / s, tol))
    check_moutard(mn, tol).require(FormNotClosed)
    _metric_report(iso.net, s, tol).require(InconsistentCrossRatios)
    return mn


def lightcone_evolve(axes_data, tol: Tolerances = DEFAULT_TOL) -> tuple:
    """Evolve isotropic axis data by the unique light-cone Moutard step
    a_ij = -2 <y, y_j - y_i> / <y_j - y_i, y_j - y_i> of :func:`~koenigsnets.koenigs._moutard_fill`.

    Accepts one axis array per lattice axis, any m >= 2, in flat Minkowski
    layout.  Returns ``(MoutardNet, IsothermicNet)``.  The cross-face
    consistency of m >= 3 has no gate: :func:`~koenigsnets.koenigs.check_moutard`
    is the one check of the evolved net.
    """
    axes_data = [np.asarray(a, dtype=float) for a in axes_data]
    if not all(np.isfinite(a).all() for a in axes_data):
        raise ZeroE0Component("initial data are not finite")
    for arr in axes_data:
        iso_res = np.abs(minkowski_dot(arr, arr))
        scale = (arr * arr).sum(axis=-1)
        if np.any(iso_res > tol.incidence * np.maximum(scale, 1e-300)):
            raise ValueError("axis data must be isotropic")

    def coeff(yb, d, level):
        a, null = _lightcone_coeff(yb, d, tol)
        _raise_first_row(level.u, [(null, NullDiagonalDifference, "diagonal difference is isotropic")])
        return a

    y = _moutard_fill({(k,): a for k, a in enumerate(axes_data)}, coeff, tol)
    coeffs = {}
    for i, j in combinations(range(len(axes_data)), 2):  # every face, those the fill did not use included
        y0, yi, _, yj = _corners(y, i, j)
        coeffs[(i, j)], null = _lightcone_coeff(y0, yj - yi, tol)
        _raise_first([(null.ravel(), NullDiagonalDifference, "diagonal difference is isotropic")],
                     _quad_at(null.shape, i, j))
    mn = MoutardNet(points=_frozen(y), coeffs={key: _frozen(a) for key, a in coeffs.items()})
    return mn, project_lightcone_net(mn, tol)


def _lightcone_coeff(y, d, tol: Tolerances):
    """a = -2 <y, d> / <d, d> of the step y + a d along diagonal differences
    d, and where d is isotropic: |<d, d>| <= tol.incidence |d|^2."""
    dd = minkowski_dot(d, d)
    null = np.abs(dd) <= tol.incidence * (d * d).sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return -2.0 * minkowski_dot(y, d) / dd, null


def project_lightcone_net(mn: MoutardNet, tol: Tolerances = DEFAULT_TOL) -> IsothermicNet:
    """Project a light-cone Moutard net to (f, s, labels) in R^N."""
    s = 1.0 / _chart(mn.points, -2, ZeroE0Component, "net passes through the point at infinity", tol)
    net = QNet(mn.points[..., :-2] * s[..., None])
    metric = VertexScalar(s)
    return IsothermicNet(net=net, labels=metric_labels(net, metric), metric=metric)


# --- Moebius-geometric characterizations ---------------------------------------


def _similar_lift(points: np.ndarray, origin, scale: np.ndarray) -> np.ndarray:
    """Light-cone lift of (points - origin) / scale.  The similarity keeps
    every Moebius incidence, and keeps |f|^2 from swamping the other
    components; a zero scale (all points at the origin) is taken as 1."""
    return lift_to_lightcone((points - origin) / np.where(scale > 0.0, scale, 1.0))


def check_moebius_characterizations(net: QNet, tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """Moebius-geometric isothermic tests through light-cone lifts.

    m = 2, net not contained in a 2-sphere: at every interior vertex the five lifts of f and f_{+-1,+-2} span
    at most 4 dimensions (a common 2-sphere): with f at the origin, its lift e_0, part "sphere" holds the
    span_residual of the in-sphere matrix [p, |p|^2] of f_{+-1,+-2} at rank 3.  Where an edge neighbour's lift
    is within sine tol.incidence of e_0 plus the span of that matrix's three rows with the largest wedge, the
    2-sphere contains the whole star (each quad's circle meets it in three points), so the star gets the test
    of a net in a 2-sphere or plane, part "in_sphere": the three circles through f share a second point.
    m = 3: per hexahedron, the four white lifts are concircular iff the four black ones are.  Each stencil
    is lifted after a similarity that puts f (or the cube's base vertex) at the origin and its farthest
    neighbour (or the cube's diameter) at distance 1; the whole net, for the 2-sphere test, is centred at
    its centroid and scaled by its diameter.  The report is named after the mode, "moebius_sphere",
    "moebius_in_sphere" (net in a 2-sphere) or "moebius_hexahedra"; its parts are the stars of each test,
    "sphere" and "in_sphere", or the cubes' ("black", axes) and ("white", axes).
    """
    if net.m >= 3:
        return _moebius_hexahedra(net, tol)
    flat = net.vertices.reshape(-1, net.ambient_dim)
    whole = _similar_lift(flat, flat.mean(axis=0), np.float64(net.diameter()))
    legs = _star(net.vertices)
    legs = legs - legs[:, :1]
    sq = np.einsum("vki,vki->vk", legs, legs)
    scale = np.where(sq.max(axis=1) > 0.0, sq.max(axis=1), 1.0)[:, None]
    legs /= np.sqrt(scale)[..., None]
    rest = np.concatenate([legs, (sq / scale)[..., None]], axis=-1)  # the lifts less e_0; f's is e_0
    at = _grid((net.extents[0] - 2, net.extents[1] - 2), 1)
    if span_residual(np.linalg.qr(whole, mode="r"), 4) <= tol.incidence:  # a 2-sphere's lifts span 4 dimensions
        return CheckReport("moebius_in_sphere", tol.product, {"in_sphere": (_circles_residual(rest), at)})
    sphere, sines = _central_sphere(rest)
    in_star = (sines <= tol.incidence).any(axis=1)
    parts = {"sphere": (sphere[~in_star], at[~in_star]),
             "in_sphere": (_circles_residual(rest[in_star]), at[in_star])}
    return CheckReport("moebius_sphere", tol.product, parts)


def _central_sphere(rest: np.ndarray) -> tuple:
    """Per star (V, 9, dim - 1) of lifts without their e_0 component, f's lift being e_0: the lifts of f and
    f_{+-1+-2} span at most 4 dimensions iff the in-sphere matrix M = [p, |p|^2] (4, dim - 1) of f_{+-1+-2}
    has rank <= 3.  Returns span_residual(M, 3), and the sines (V, 4) of the angles between the lifts of
    f_{+1}, f_{-1}, f_{+2}, f_{-2} and e_0 plus the span of the three rows of M with the largest wedge."""
    lengths = np.sqrt((rest[:, 1:5] ** 2).sum(axis=-1) + 1.0)  # of the lifts, their e_0 component 1
    sphere, distances = _span_fit(rest[:, 5:], 3, rest[:, 1:5])
    return sphere, distances / lengths


def _circles_residual(rest: np.ndarray) -> np.ndarray:
    """Per star (V, 9, n) of lifts without their e_0 component, f's lift being e_0: the circles (f, f_{+-1+2}),
    (f, f_{+-1-2}) and (f, f_{+-1}) share a second point iff the planes of the other two rows of each share a
    line, i.e. the stacked orthonormal complements of the planes (from a complete QR) have rank <= n - 1."""
    n = rest.shape[-1]
    complements = np.linalg.qr(np.swapaxes(rest[:, [[5, 7], [6, 8], [1, 2]]], -1, -2), mode="complete")[0][..., 2:]
    stacked = np.swapaxes(complements, -1, -2).reshape(len(rest), 3 * (n - 2), n)
    return span_residual(np.linalg.qr(stacked, mode="r"), n - 1)


def _moebius_hexahedra(net: QNet, tol: Tolerances) -> CheckReport:
    parts = {}
    for axes in combinations(range(net.m), 3):
        cube, shape = _cubes(net, axes)
        flat = cube.reshape(len(cube), 8, -1)
        diam = np.linalg.norm(flat[:, :, None] - flat[:, None], axis=-1).max(axis=(1, 2))
        lifted = _similar_lift(cube, flat[:, None, :1], diam[:, None, None, None])
        parts[("black", axes)], parts[("white", axes)] = ((res, _grid(shape)) for res in span_residual(lifted, 3).T)
    return CheckReport("moebius_hexahedra", tol.product, parts)
