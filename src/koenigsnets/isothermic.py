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
    DimensionTooLow,
    EqualLabels,
    FormNotClosed,
    InconsistentCrossRatios,
    NotCircular,
    NullDiagonalDifference,
    ZeroE0Component,
    ZeroEdge,
    ZeroLeg,
    ZeroMetric,
)
from .geom import (
    DEFAULT_TOL,
    QuadCircles,
    Tolerances,
    _plane_frames,
    _span_distances,
    lift_to_lightcone,
    minkowski_dot,
    quad_circles,
    raise_quad_error,
    span_residual,
)
from .koenigs import (
    MoutardNet,
    _integrate_one_form,
    _moutard_coeffs,
    _one_form_closure_residual,
    integrate_nu,
)
from .qnet import (
    CheckReport,
    EdgeLabelling,
    QNet,
    VertexScalar,
    _back,
    _base,
    _corners,
    _crop,
    _cubes,
    _first_positive_axes,
    _frozen,
    _gather_quads,
    _grid,
    _planarity,
    _raise_first_row,
    _star,
    _wavefront,
    _worst,
)

__all__ = [
    "IsothermicNet",
    "check_circular",
    "quad_cross_ratios",
    "check_isothermic",
    "recover_labels",
    "recover_metric",
    "christoffel",
    "christoffel_form_residual",
    "three_leg_evolve",
    "lightcone_lift",
    "lightcone_evolve",
    "check_moebius_characterizations",
]


@dataclass
class IsothermicNet:
    """Circular Koenigs net together with its labels and discrete metric."""

    net: QNet
    labels: EdgeLabelling
    metric: VertexScalar


def _circles(net: QNet, tol: Tolerances) -> tuple:
    """:func:`quad_circles` on the quads of every axis pair, once per net and
    tolerances: ((i, j, base grid shape, read-only QuadCircles), ...), the
    cross-ratios shaped like the base grid."""

    def build():
        return tuple(_pair_circles(net, i, j, tol) for i, j in combinations(range(net.m), 2))

    return net._memo(("circles", tol), build)


def _pair_circles(net: QNet, i: int, j: int, tol: Tolerances) -> tuple:
    pts, shape = _gather_quads(net, i, j)
    qc = quad_circles(pts, tol, _planarity(net, i, j))
    qc = qc._replace(cross_ratio=qc.cross_ratio.reshape(shape))
    return i, j, shape, QuadCircles(*(_frozen(a) for a in qc))


def _raise_first(circles: tuple, upto: int) -> None:
    """Raise the error of the first quad, in axis-pair and base order, that
    fails one of the predicates 1..``upto`` of the kernel."""
    for i, j, shape, qc in circles:
        raise_quad_error(qc, upto, lambda k: f"quad base {_base(shape, k)} (axes {i},{j}): ")


def check_circular(net: QNet, tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """Per-quad concircularity residuals, one part per axis pair, each quad
    at its base; passes iff all are <= tol.incidence."""
    circles = _circles(net, tol)
    _raise_first(circles, 3)
    parts = {(i, j): (qc.residual, _grid(shape)) for i, j, shape, qc in circles}
    return CheckReport("circular", tol.incidence, parts)


def quad_cross_ratios(net: QNet, tol: Tolerances = DEFAULT_TOL) -> dict:
    """Cross-ratio q(f, f_i, f_ij, f_j) of every elementary quad, keyed by
    axis pair, as arrays over the quad base grid."""
    circles = _circles(net, tol)
    _raise_first(circles, 6)
    return {(i, j): qc.cross_ratio for i, j, _, qc in circles}


def check_isothermic(net: QNet, tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """Cross-ratio products of adjacent quadrilaterals.

    For m = 2 the condition q * q_{-1,-2} = q_{-1} * q_{-2} at every interior
    vertex; for m >= 3 the triple product over the three forward faces at
    every vertex equals 1, a part per axis triple.  Requires a circular net.
    """
    circles = _circles(net, tol)
    _raise_first(circles, 3)
    max_circ = _worst(qc.residual for _, _, _, qc in circles)
    if not max_circ <= tol.incidence:
        raise NotCircular(f"net is not circular (max residual {max_circ:.3e})")
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
    InconsistentCrossRatios if the factorization does not reproduce every
    quad's cross-ratio.
    """
    if net.m not in (2, 3):
        raise DimensionTooLow("label recovery supports m = 2 or 3")
    cross_ratios = quad_cross_ratios(net, tol)

    def along(q, j):  # q on the line along axis j through the origin
        return q[(0,) * j + (slice(None),) + (0,) * (net.m - j - 1)]

    # alpha_j = alpha_0(0) / q along axis j, then alpha_0 = q alpha_1(0) along axis 0
    rest = [1.0 / along(cross_ratios[(0, j)], j) for j in range(1, net.m)]
    first = along(cross_ratios[(0, 1)], 0) * rest[0][0]
    first[0] = 1.0
    labels = EdgeLabelling((first, *rest))
    # consistency: every quad's cross-ratio must factor as alpha_i / alpha_j
    for (i, j), cr in cross_ratios.items():
        layer = [1] * net.m
        layer[i] = -1
        expected = labels.per_axis[i].reshape(layer)
        layer[i], layer[j] = 1, -1
        expected = np.broadcast_to(expected / labels.per_axis[j].reshape(layer), cr.shape)
        bad = np.abs(cr - expected) > tol.product * np.maximum(np.abs(cr), np.abs(expected))
        if bad.any():
            u = _base(bad.shape, int(np.argmax(bad)))
            raise InconsistentCrossRatios(
                f"quad {u} axes ({i},{j}): cross-ratio {cr[u]:.6g} != {expected[u]:.6g}"
            )
    return labels


def recover_metric(net: QNet, base_black=None, base_white=None, tol: Tolerances = DEFAULT_TOL) -> VertexScalar:
    """Discrete metric s from the diagonal-ratio propagation.

    Same integration as nu for general Koenigs nets; additionally asserts the
    labelling property of alpha_i = |f_i - f|^2 / (s s_i).
    """
    s = integrate_nu(net, base_black, base_white, tol).nu.values
    for i in range(net.m):
        alpha = _edge_alpha(net, s, i)
        # constant across every transverse axis
        for ax in (ax for ax in range(net.m) if ax != i):
            spread = np.abs(alpha - alpha.take([0], axis=ax)).max()
            if not spread <= tol.product * np.abs(alpha).max():
                raise InconsistentCrossRatios(f"alpha_{i} is not constant along axis {ax} (spread {spread:.3e})")
    return VertexScalar(s)


def _edge_alpha(net: QNet, s: np.ndarray, i: int) -> np.ndarray:
    """alpha_i = |f_i - f|^2 / (s s_i) on every axis-i edge."""
    df = np.diff(net.vertices, axis=i)
    return (df * df).sum(axis=-1) / (_crop(s, (i,), (0,)) * _crop(s, (i,), (1,)))


def metric_labels(net: QNet, s: VertexScalar, tol: Tolerances = DEFAULT_TOL) -> EdgeLabelling:
    """Edge labelling alpha_i = |f_i - f|^2 / (s s_i), averaged per layer."""
    return _layer_means([_edge_alpha(net, s.values, i) for i in range(net.m)])


def _layer_means(alphas) -> EdgeLabelling:
    """The labels alpha_i, given on every axis-i edge (one array per axis
    i), averaged over each layer of edges."""
    return EdgeLabelling(tuple(a.mean(axis=tuple(ax for ax in range(a.ndim) if ax != i)) for i, a in enumerate(alphas)))


def christoffel(iso: IsothermicNet, limit_signs: bool = False, tol: Tolerances = DEFAULT_TOL) -> IsothermicNet:
    """Christoffel transform: integrate delta_i f* = alpha_i delta_i f / |delta_i f|^2
    from 0 at the origin; FormNotClosed unless the form closes within
    tol.product (a NaN residual does not).

    The result carries the same cross-ratios and the metric s* = 1/s.  With
    ``limit_signs`` the continuous-limit convention is applied to the returned
    decorations (s* made positive along axis 2, alpha_2 negated); the dual
    surface itself is the same.
    """
    net = iso.net
    forms = _christoffel_forms(net, iso.labels)
    residual = _one_form_closure_residual(net, forms)
    if not residual <= tol.product:
        raise FormNotClosed(f"Christoffel one-form not closed: residual {residual:.3e}")
    dual = _integrate_one_form(net, forms)
    s_star = 1.0 / iso.metric.values
    labels = iso.labels
    if limit_signs:
        if net.m != 2:
            raise DimensionTooLow("limit-sign convention is defined for m == 2")
        idx = np.indices(s_star.shape)[1]
        switched = np.where(idx % 2 == 0, s_star, -s_star)
        if np.all(switched < 0):
            switched = -switched
        s_star = switched
        labels = EdgeLabelling((labels.per_axis[0], -labels.per_axis[1]))
    return IsothermicNet(net=dual, labels=labels, metric=VertexScalar(s_star))


def christoffel_form_residual(iso: IsothermicNet) -> float:
    """Closure residual of the Christoffel one-form (0 iff isothermic)."""
    return _one_form_closure_residual(iso.net, _christoffel_forms(iso.net, iso.labels))


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
    f = _wavefront(pieces, lambda f, u: _three_leg_steps(f, u, a1[u[:, 0] - 1], a2[u[:, 1] - 1]), tol)
    net = QNet(f)
    metric = recover_metric(net, tol=tol)
    return IsothermicNet(net=net, labels=labels, metric=metric)


def _three_leg_steps(f, u, alpha_i, alpha_j):
    """Fourth vertices f_ij at u of the quads (f, f_i, f_ij, f_j) below u."""
    pts = np.stack([f[_back(u, 0, 1)], f[_back(u, 1)], f[_back(u, 0)]], axis=1)
    e1, e2, z, nu, spans = _plane_frames(pts)
    zi, zj = np.moveaxis(z.view(complex)[:, 1:, 0], 1, 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = alpha_i / zi - alpha_j / zj
        zij = (alpha_i - alpha_j) / w
    _raise_first_row(u, [
        (alpha_i == alpha_j, EqualLabels, "alpha_i == alpha_j: fourth vertex at infinity"),
        (nu == 0.0, CoincidentPoints, "cannot build a frame from coincident points"),
        (~spans[:, 0], CollinearTriple, "all points are collinear; no plane frame"),
        ((zi == 0) | (zj == 0) | (w == 0), ZeroLeg, "degenerate three-leg step: fourth vertex at infinity"),
    ])
    return pts[:, 0] + zij.real[:, None] * e1 + zij.imag[:, None] * e2


# --- light-cone Moutard representatives ---------------------------------------


def lightcone_lift(iso: IsothermicNet, tol: Tolerances = DEFAULT_TOL, check: bool = True) -> MoutardNet:
    """Light-cone Moutard representative y = (f + e_0 + |f|^2 e_inf) / s.

    Flat layout [spatial..., e0, einf], with the coefficients of
    :func:`~koenigsnets.koenigs._moutard_coeffs` for w = 1/s.  With
    ``check``, FormNotClosed unless its Moutard residual is within
    tol.product, and InconsistentCrossRatios unless the labels
    alpha_i = -2 <y, tau_i y> are constant across layers within tol.product.
    """
    f = iso.net.vertices
    s = iso.metric.values
    if np.any(s == 0.0):
        raise ZeroMetric("metric vanishes at a vertex")
    y = lift_to_lightcone(f) / s[..., None]
    mn = MoutardNet(points=y, coeffs=_moutard_coeffs(1.0 / s, tol))
    if check:
        res = mn.moutard_residual()
        if not res <= tol.product:
            raise FormNotClosed(f"light-cone Moutard residual {res:.3e}")
        for i in range(iso.net.m):
            alpha = lift_labels(mn, i)
            layered = np.moveaxis(alpha, i, 0).reshape(alpha.shape[i], -1)
            spread = np.abs(layered - layered[:, :1]).max()
            if not spread <= tol.product * np.abs(alpha).max():
                raise InconsistentCrossRatios(f"-2<y, tau_{i} y> not constant across layers")
    return mn


def lift_labels(mn: MoutardNet, axis: int) -> np.ndarray:
    """alpha_axis = -2 <y, tau_axis y> on every axis edge of a light-cone net."""
    return -2.0 * minkowski_dot(_crop(mn.points, (axis,), (0,)), _crop(mn.points, (axis,), (1,)))


def lightcone_evolve(axes_data, tol: Tolerances = DEFAULT_TOL) -> tuple:
    """Evolve isotropic axis data by the unique light-cone Moutard step
    a_ij = -2 <y, y_j - y_i> / <y_j - y_i, y_j - y_i>.

    Accepts two (m = 2) or three (m = 3) axis arrays in flat Minkowski
    layout.  Returns ``(MoutardNet, IsothermicNet)``; for m = 3 the
    cross-face residual is available via ``MoutardNet.moutard_residual``.
    """
    axes_data = [np.asarray(a, dtype=float) for a in axes_data]
    if not all(np.isfinite(a).all() for a in axes_data):
        raise ZeroE0Component("initial data are not finite")
    for arr in axes_data:
        iso_res = np.abs(minkowski_dot(arr, arr))
        scale = (arr * arr).sum(axis=-1)
        if np.any(iso_res > tol.incidence * np.maximum(scale, 1e-300)):
            raise ValueError("axis data must be isotropic")
    if len(axes_data) not in (2, 3):
        raise DimensionTooLow("lightcone_evolve supports m = 2 or 3")
    mn = _lightcone_fill(axes_data, tol)
    iso = project_lightcone_net(mn, tol)
    return mn, iso


def _lightcone_fill(axes, tol: Tolerances) -> MoutardNet:
    """Fill from the axis data one hyperplane at a time, each vertex through
    the quad of its first two positive axes; then the coefficients of every
    face, those the fill did not use included."""
    m = len(axes)

    def step(y, u):
        i, j = _first_positive_axes(u, 2)
        yb, d = y[_back(u, i, j)], y[_back(u, i)] - y[_back(u, j)]
        a, null = _lightcone_coeff(yb, d, tol)
        _raise_first_row(u, [(null, NullDiagonalDifference, "diagonal difference is isotropic")])
        return yb + a[:, None] * d

    y = _wavefront({(k,): a for k, a in enumerate(axes)}, step, tol)
    coeffs = {}
    for i, j in combinations(range(m), 2):
        y0, yi, _, yj = _corners(y, i, j)
        coeffs[(i, j)], null = _lightcone_coeff(y0, yj - yi, tol)
        if null.any():
            base = _base(null.shape, int(np.argmax(null)))
            raise NullDiagonalDifference(f"quad base {base} (axes {i},{j}): diagonal difference is isotropic")
    return MoutardNet(points=y, coeffs=coeffs)


def _lightcone_coeff(y, d, tol: Tolerances):
    """a = -2 <y, d> / <d, d> of the step y + a d along diagonal differences
    d, and where d is isotropic: |<d, d>| <= tol.incidence |d|^2."""
    dd = minkowski_dot(d, d)
    null = np.abs(dd) <= tol.incidence * (d * d).sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return -2.0 * minkowski_dot(y, d) / dd, null


def project_lightcone_net(mn: MoutardNet, tol: Tolerances = DEFAULT_TOL) -> IsothermicNet:
    """Project a light-cone Moutard net to (f, s, labels) in R^N."""
    e0 = mn.points[..., -2]
    scale = np.abs(mn.points).max()
    if np.any(np.abs(e0) <= tol.incidence * scale):
        raise ZeroE0Component("net passes through the point at infinity")
    s = 1.0 / e0
    net = QNet(mn.points[..., :-2] * s[..., None])
    labels = _layer_means([lift_labels(mn, i) for i in range(mn.m)])
    return IsothermicNet(net=net, labels=labels, metric=VertexScalar(s))


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
    if net.m != 2:
        raise DimensionTooLow("Moebius characterizations need m >= 2")
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
    return span_residual(rest[:, 5:], 3), _span_distances(rest[:, 5:], 3, rest[:, 1:5]) / lengths


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
        diam = np.linalg.norm(cube[:, :, None] - cube[:, None], axis=-1).max(axis=(1, 2))
        lifted = _similar_lift(cube, cube[:, :1], diam[:, None, None])
        at = _grid(shape)
        parts[("black", axes)] = span_residual(lifted[:, [0, 4, 5, 6]], 3), at  # f, f_ij, f_ik, f_jk
        parts[("white", axes)] = span_residual(lifted[:, [1, 2, 3, 7]], 3), at  # f_i, f_j, f_k, f_ijk
    return CheckReport("moebius_hexahedra", tol.product, parts)
