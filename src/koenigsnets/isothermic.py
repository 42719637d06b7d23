"""Discrete isothermic nets: circular Koenigs nets.

Circularity and cross-ratio checks, edge labels, the discrete metric s,
Christoffel transforms, the three-leg evolution, and Moutard representatives
in the Minkowski light cone.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, repeat

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
    ZeroEdge,
    ZeroLeg,
    ZeroMetric,
)
from .geom import (
    DEFAULT_TOL,
    QuadCircles,
    Tolerances,
    _plane_frames,
    lift_to_lightcone,
    minkowski_dot,
    quad_circles,
    raise_quad_error,
    rank_residual,
)
from .koenigs import (
    MoutardNet,
    _integrate_one_form,
    _one_form_closure_residual,
    integrate_nu,
)
from .qnet import (
    EdgeLabelling,
    QNet,
    VertexScalar,
    _back,
    _base,
    _crop,
    _cubes,
    _first_positive_axes,
    _frozen,
    _gather_quads,
    _raise_first_row,
    _star,
    _wavefront,
)

__all__ = [
    "IsothermicNet",
    "CircularityReport",
    "IsothermicReport",
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
    "central_sphere",
]


@dataclass
class IsothermicNet:
    """Circular Koenigs net together with its labels and discrete metric."""

    net: QNet
    labels: EdgeLabelling
    metric: VertexScalar


@dataclass
class CircularityReport:
    passed: bool
    max_residual: float
    offenders: list


def _circles(net: QNet, tol: Tolerances) -> tuple:
    """:func:`quad_circles` on the quads of every axis pair, once per net and
    tolerances: ((i, j, base grid shape, read-only QuadCircles), ...), the
    cross-ratios shaped like the base grid."""

    def build():
        return tuple(_pair_circles(net, i, j, tol) for i, j in combinations(range(net.m), 2))

    return net._memo(("circles", tol), build)


def _pair_circles(net: QNet, i: int, j: int, tol: Tolerances) -> tuple:
    pts, shape = _gather_quads(net, i, j)
    qc = quad_circles(pts, tol)
    qc = qc._replace(cross_ratio=qc.cross_ratio.reshape(shape))
    return i, j, shape, QuadCircles(*(_frozen(a) for a in qc))


def _raise_first(circles: tuple, upto: int) -> None:
    """Raise the error of the first quad, in axis-pair and base order, that
    fails one of the predicates 1..``upto`` of the kernel."""
    for i, j, shape, qc in circles:
        raise_quad_error(qc, upto, lambda k: f"quad base {_base(shape, k)} (axes {i},{j}): ")


def _max_residual(circles: tuple) -> float:
    return max(float(qc.residual.max(initial=0.0)) for _, _, _, qc in circles)


def check_circular(net: QNet, tol: Tolerances = DEFAULT_TOL) -> CircularityReport:
    """Per-quad concircularity residuals; passes iff all <= tol.incidence."""
    circles = _circles(net, tol)
    _raise_first(circles, 3)
    max_res = _max_residual(circles)
    offenders = [
        (_base(shape, k), i, j, float(qc.residual[k]))
        for i, j, shape, qc in circles
        for k in np.flatnonzero(qc.residual > tol.incidence)
    ]
    return CircularityReport(passed=max_res <= tol.incidence, max_residual=max_res, offenders=offenders)


def quad_cross_ratios(net: QNet, tol: Tolerances = DEFAULT_TOL) -> dict:
    """Cross-ratio q(f, f_i, f_ij, f_j) of every elementary quad, keyed by
    axis pair, as arrays over the quad base grid."""
    circles = _circles(net, tol)
    _raise_first(circles, 6)
    return {(i, j): qc.cross_ratio for i, j, _, qc in circles}


@dataclass
class IsothermicReport:
    passed: bool
    max_residual: float
    failures: list
    cross_ratios: dict


def check_isothermic(net: QNet, tol: Tolerances = DEFAULT_TOL, cross_ratios: dict | None = None) -> IsothermicReport:
    """Cross-ratio products of adjacent quadrilaterals.

    For m = 2 the condition q * q_{-1,-2} = q_{-1} * q_{-2} at every interior
    vertex; for m >= 3 the triple product over the three forward faces at
    every vertex equals 1.  Requires a circular net.
    """
    circles = _circles(net, tol)
    _raise_first(circles, 3)
    max_circ = _max_residual(circles)
    if max_circ > tol.incidence:
        raise NotCircular(f"net is not circular (max residual {max_circ:.3e})")
    if cross_ratios is None:
        _raise_first(circles, 6)
        cross_ratios = {(i, j): qc.cross_ratio for i, j, _, qc in circles}
    failures = []
    max_res = 0.0
    if net.m == 2:
        cr = cross_ratios[(0, 1)]
        lhs = cr[1:, 1:] * cr[:-1, :-1]
        rhs = cr[:-1, 1:] * cr[1:, :-1]
        res = np.abs(lhs - rhs) / np.maximum(np.abs(lhs), np.abs(rhs))
        max_res = float(res.max(initial=0.0))
        for idx in zip(*np.nonzero(res > tol.product)):
            failures.append((f"interior vertex {tuple(int(x) + 1 for x in idx)}", float(res[idx])))
    else:
        for i, j, k in combinations(range(net.m), 3):
            prod = (
                _crop(cross_ratios[(i, j)], (k,), (0,))
                * _crop(cross_ratios[(j, k)], (i,), (0,))
                / _crop(cross_ratios[(i, k)], (j,), (0,))
            )
            res = np.abs(prod - 1.0)
            max_res = max(max_res, float(res.max()))
            for u in zip(*np.nonzero(res > tol.product)):
                failures.append((f"corner {tuple(int(x) for x in u)} axes ({i},{j},{k})", float(res[u])))
    return IsothermicReport(
        passed=max_res <= tol.product,
        max_residual=max_res,
        failures=failures,
        cross_ratios=cross_ratios,
    )


def recover_labels(net: QNet, tol: Tolerances = DEFAULT_TOL, cross_ratios: dict | None = None) -> EdgeLabelling:
    """Solve q(f, f_i, f_ij, f_j) = alpha_i / alpha_j for the edge labels.

    Gauge alpha_1(0) = 1; labels are unique up to one global scale.  Raises
    InconsistentCrossRatios if the factorization does not reproduce every
    quad's cross-ratio.
    """
    if net.m not in (2, 3):
        raise DimensionTooLow("label recovery supports m = 2 or 3")
    if cross_ratios is None:
        cross_ratios = quad_cross_ratios(net, tol)
    per_axis = [np.empty(e - 1) for e in net.extents]
    per_axis[0][0] = 1.0
    origin = tuple(0 for _ in range(net.m))
    # alpha_j(0) from the first quad in each (0, j) plane
    for j in range(1, net.m):
        per_axis[j][0] = per_axis[0][0] / cross_ratios[(0, j)][origin]
    # layers along axis 0 from the (0, 1) plane, transverse axes at 0
    for u0 in range(1, net.extents[0] - 1):
        u = (u0,) + origin[1:]
        per_axis[0][u0] = cross_ratios[(0, 1)][u] * per_axis[1][0]
    for j in range(1, net.m):
        for uj in range(1, net.extents[j] - 1):
            u = tuple(uj if ax == j else 0 for ax in range(net.m))
            per_axis[j][uj] = per_axis[0][0] / cross_ratios[(0, j)][u]
    labels = EdgeLabelling(tuple(per_axis))
    # consistency: every quad's cross-ratio must factor as alpha_i / alpha_j
    for (i, j), cr in cross_ratios.items():
        layer = [1] * net.m
        layer[i] = -1
        expected = labels.per_axis[i].reshape(layer)
        layer[i], layer[j] = 1, -1
        expected = np.broadcast_to(expected / labels.per_axis[j].reshape(layer), cr.shape)
        bad = np.abs(cr - expected) > tol.product * np.maximum(np.abs(cr), np.abs(expected))
        if bad.any():
            u = tuple(int(x) for x in np.unravel_index(np.argmax(bad), bad.shape))
            raise InconsistentCrossRatios(
                f"quad {u} axes ({i},{j}): cross-ratio {cr[u]:.6g} != {expected[u]:.6g}"
            )
    return labels


def recover_metric(
    net: QNet,
    base_black=None,
    base_white=None,
    tol: Tolerances = DEFAULT_TOL,
    check: bool = True,
) -> VertexScalar:
    """Discrete metric s from the diagonal-ratio propagation.

    Same integration as nu for general Koenigs nets; additionally asserts the
    labelling property of alpha_i = |f_i - f|^2 / (s s_i).
    """
    kd = integrate_nu(net, base_black, base_white, tol, check=check)
    s = kd.nu.values
    if check:
        for i in range(net.m):
            alpha = _edge_alpha(net, s, i)
            # constant across every transverse axis
            for ax in range(net.m):
                if ax == i:
                    continue
                spread = np.abs(alpha - alpha.take([0], axis=ax)).max()
                if spread > tol.product * np.abs(alpha).max():
                    raise InconsistentCrossRatios(
                        f"alpha_{i} is not constant along axis {ax} (spread {spread:.3e})"
                    )
    return VertexScalar(s)


def _edge_alpha(net: QNet, s: np.ndarray, i: int) -> np.ndarray:
    """alpha_i = |f_i - f|^2 / (s s_i) on every axis-i edge."""
    df = _crop(net.vertices, (i,), (1,)) - _crop(net.vertices, (i,), (0,))
    return (df * df).sum(axis=-1) / (_crop(s, (i,), (0,)) * _crop(s, (i,), (1,)))


def metric_labels(net: QNet, s: VertexScalar, tol: Tolerances = DEFAULT_TOL) -> EdgeLabelling:
    """Edge labelling alpha_i = |f_i - f|^2 / (s s_i), averaged per layer."""
    per_axis = []
    for i in range(net.m):
        alpha = _edge_alpha(net, s.values, i)
        other = tuple(ax for ax in range(net.m) if ax != i)
        per_axis.append(alpha.mean(axis=other) if other else alpha)
    return EdgeLabelling(tuple(per_axis))


def christoffel(
    iso: IsothermicNet,
    base=None,
    limit_signs: bool = False,
    tol: Tolerances = DEFAULT_TOL,
    check: bool = True,
) -> IsothermicNet:
    """Christoffel transform: integrate delta_i f* = alpha_i delta_i f / |delta_i f|^2.

    The result carries the same cross-ratios and the metric s* = 1/s.  With
    ``limit_signs`` the continuous-limit convention is applied to the returned
    decorations (s* made positive along axis 2, alpha_2 negated); the dual
    surface itself is the same.
    """
    net = iso.net
    forms = _christoffel_forms(net, iso.labels)
    residual = _one_form_closure_residual(net, forms)
    if check and residual > tol.product:
        raise FormNotClosed(f"Christoffel one-form not closed: residual {residual:.3e}")
    if base is None:
        base = (tuple(0 for _ in range(net.m)), np.zeros(net.ambient_dim))
    dual = _integrate_one_form(net, forms, base)
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
        df = _crop(net.vertices, (i,), (1,)) - _crop(net.vertices, (i,), (0,))
        norm2 = (df * df).sum(axis=-1)
        if np.any(norm2 == 0.0):
            raise ZeroEdge("zero-length edge in Christoffel one-form")
        alpha = labels.per_axis[i]
        shape = [1] * net.m
        shape[i] = len(alpha)
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

    Flat layout [spatial..., e0, einf].  Also verifies the label identity
    alpha_i = -2 <y, tau_i y> when ``check`` is on.
    """
    f = iso.net.vertices
    s = iso.metric.values
    if np.any(s == 0.0):
        raise ZeroMetric("metric vanishes at a vertex")
    y = lift_to_lightcone(f) / s[..., None]
    coeffs = {}
    for i, j in combinations(range(iso.net.m), 2):
        w = 1.0 / s
        denom = _crop(w, (i, j), (0, 1)) - _crop(w, (i, j), (1, 0))
        coeffs[(i, j)] = (_crop(w, (i, j), (1, 1)) - _crop(w, (i, j), (0, 0))) / denom
    mn = MoutardNet(points=y, coeffs=coeffs, lightcone=True)
    if check:
        res = mn.moutard_residual()
        if res > tol.product:
            raise FormNotClosed(f"light-cone Moutard residual {res:.3e}")
        for i in range(iso.net.m):
            alpha = lift_labels(mn, i)
            layered = np.moveaxis(alpha, i, 0).reshape(alpha.shape[i], -1)
            spread = np.abs(layered - layered[:, :1]).max()
            if spread > tol.product * np.abs(alpha).max():
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
        d = _crop(y, (i, j), (0, 1)) - _crop(y, (i, j), (1, 0))
        coeffs[(i, j)], null = _lightcone_coeff(_crop(y, (i, j), (0, 0)), d, tol)
        if null.any():
            base = tuple(int(x) for x in np.unravel_index(np.argmax(null), null.shape))
            raise NullDiagonalDifference(f"quad base {base} (axes {i},{j}): diagonal difference is isotropic")
    return MoutardNet(points=y, coeffs=coeffs, lightcone=True)


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
        from .errors import ZeroE0Component

        raise ZeroE0Component("net passes through the point at infinity")
    s = 1.0 / e0
    f = mn.points[..., :-2] * s[..., None]
    net = QNet(f)
    per_axis = []
    for i in range(mn.m):
        alpha = lift_labels(mn, i)
        other = tuple(ax for ax in range(mn.m) if ax != i)
        per_axis.append(alpha.mean(axis=other) if other else alpha)
    return IsothermicNet(net=net, labels=EdgeLabelling(tuple(per_axis)), metric=VertexScalar(s))


# --- Moebius-geometric characterizations ---------------------------------------


@dataclass
class MoebiusReport:
    passed: bool
    max_residual: float
    mode: str  # "sphere" (part 1), "in_sphere" (part 2), or "hexahedra"
    records: list


def _similar_lift(points: np.ndarray, origin, scale: np.ndarray) -> np.ndarray:
    """Light-cone lift of (points - origin) / scale.  The similarity keeps
    every Moebius incidence, and keeps |f|^2 from swamping the other
    components; a zero scale (all points at the origin) is taken as 1."""
    return lift_to_lightcone((points - origin) / np.where(scale > 0.0, scale, 1.0))


def check_moebius_characterizations(net: QNet, tol: Tolerances = DEFAULT_TOL) -> MoebiusReport:
    """Moebius-geometric isothermic tests through light-cone lifts.

    m = 2, net not contained in a 2-sphere: at every interior vertex the five
    lifts of f and f_{+-1,+-2} span at most a 4-dimensional linear space (a
    common 2-sphere).  Where that sphere contains a neighbour, it contains
    the whole star (each quad's circle meets it in three points) and the
    five-point test says nothing, so the star gets the test of a net in a
    2-sphere or plane: the three circles through f share a second point.
    m = 3: per hexahedron, the four white lifts are concircular iff the four
    black ones are.  Each stencil is lifted after a similarity that puts f
    (or the cube's base vertex) at the origin and its farthest neighbour (or
    the cube's diameter) at distance 1; the whole net, for the 2-sphere test,
    is centred at its centroid and scaled by its diameter.
    """
    if net.m >= 3:
        return _moebius_hexahedra(net, tol)
    if net.m != 2:
        raise DimensionTooLow("Moebius characterizations need m >= 2")
    flat = net.vertices.reshape(-1, net.ambient_dim)
    whole = _similar_lift(flat, flat.mean(axis=0), np.float64(net.diameter()))
    in_sphere = rank_residual(whole, 4) <= tol.incidence  # a 2-sphere's lifts span 4 dimensions
    legs = _star(net.vertices)
    legs = legs - legs[:, :1]
    lifted = _similar_lift(legs, 0.0, np.linalg.norm(legs, axis=-1).max(axis=1)[:, None, None])
    if in_sphere:
        res, contained = _circles_residual(lifted), repeat(None)
    else:
        five = lifted[:, [0, 5, 6, 7, 8]]  # f and its diagonal neighbours
        res = rank_residual(five, 4)
        six = [rank_residual(np.concatenate([five, lifted[:, k:k + 1]], axis=1), 4) for k in range(1, 5)]
        contained = np.stack(six, axis=1) <= tol.incidence
        in_star = contained.any(axis=1)
        res[in_star] = _circles_residual(lifted[in_star])
        contained = contained.tolist()
    records = list(zip(net.interior_indices(), res.tolist(), contained))
    mode = "in_sphere" if in_sphere else "sphere"
    return MoebiusReport(bool(np.all(res <= tol.product)), float(res.max(initial=0.0)), mode, records)


def _circles_residual(lifted: np.ndarray) -> np.ndarray:
    """Per star of lifts (V, 9, dim): the circles (f, f_{+-1+2}), (f, f_{+-1-2})
    and (f, f_{+-1}) share a second point iff their 3-spaces meet in >= 2
    dimensions, i.e. the stacked complements have rank at most dim - 2."""
    n, dim = lifted.shape[0], lifted.shape[-1]
    _, _, vt = np.linalg.svd(lifted[:, [[0, 5, 7], [0, 6, 8], [0, 1, 2]]])
    return rank_residual(vt[..., 3:, :].reshape(n, 3 * (dim - 3), dim), dim - 2)


def _moebius_hexahedra(net: QNet, tol: Tolerances) -> MoebiusReport:
    records = []
    max_res = 0.0
    for axes in combinations(range(net.m), 3):
        cube = _cubes(net, axes)
        diam = np.linalg.norm(cube[:, :, None] - cube[:, None], axis=-1).max(axis=(1, 2))
        lifted = _similar_lift(cube, cube[:, :1], diam[:, None, None])
        res_b = rank_residual(lifted[:, [0, 4, 5, 6]], 3)  # f, f_ij, f_ik, f_jk
        res_w = rank_residual(lifted[:, [1, 2, 3, 7]], 3)  # f_i, f_j, f_k, f_ijk
        max_res = max(max_res, float(res_b.max()), float(res_w.max()))
        records += zip(net.base_indices(*axes), repeat(axes), res_b.tolist(), res_w.tolist())
    return MoebiusReport(passed=max_res <= tol.product, max_residual=max_res, mode="hexahedra", records=records)


def central_sphere(net: QNet, u, tol: Tolerances = DEFAULT_TOL):
    """Center and radius of the sphere through f and f_{+-1,+-2} at an
    interior vertex (a by-product of the rank test; no properties claimed)."""
    u1, u2 = u
    lifted = lift_to_lightcone(net.vertices)
    five = np.stack([
        lifted[u1, u2],
        lifted[u1 + 1, u2 + 1], lifted[u1 + 1, u2 - 1],
        lifted[u1 - 1, u2 + 1], lifted[u1 - 1, u2 - 1],
    ])
    _, _, vt = np.linalg.svd(five)
    n = vt[-1]  # Euclidean normal of the span
    # x . n = <x, S> with S = (n_spatial, -2 n_einf, -2 n_e0); the sphere
    # vector S is proportional to c + e_0 + (|c|^2 - r^2) e_inf
    sphere = np.concatenate([n[:-2], [-2.0 * n[-1], -2.0 * n[-2]]])
    e0 = sphere[-2]
    if abs(e0) <= tol.incidence * np.linalg.norm(sphere):
        raise ZeroMetric("five-point sphere degenerates to a plane")
    rep = sphere / e0
    center = rep[:-2]
    r2 = float(np.dot(center, center) - rep[-1])
    return center, float(np.sqrt(max(r2, 0.0)))
