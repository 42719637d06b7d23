"""One report type for every check: what a CheckReport derives from its
per-element residuals, on passing and failing nets of each check; and the
stage gates, which fail on a NaN residual as the checks do."""
import json
import warnings

import numpy as np
import pytest

from conftest import unchecked_nu
from koenigsnets import generate, isothermic, koenigs, qnet
from koenigsnets.errors import EqualNuOnWhiteDiagonal, FormNotClosed, NotCircular, NotKoenigs, ZeroNu
from koenigsnets.geom import DEFAULT_TOL, _unit
from koenigsnets.isothermic import check_circular, check_isothermic, check_moebius_characterizations
from koenigsnets.koenigs import (
    check_closedness,
    check_koenigs_2d_geometric,
    check_koenigs_3d_geometric,
    dual_quad_residual,
    dualize_quad,
)
from koenigsnets.qnet import EdgeLabelling, QNet, VertexScalar, check_qnet


def _raised(extents, u):
    """A unit grid in R^3 with the vertex u lifted out of its plane."""
    v = generate.grid(extents).vertices.copy()
    v[u + (2,)] += 0.1
    return QNet(v)


def _perturbed(net, seed, magnitude=1e-2):
    return generate.perturb_in_plane(net, rng=np.random.default_rng(seed), magnitude=magnitude)


def _r4(seed):
    return generate.random_koenigs_2d((10, 10), ambient_dim=4, rng=np.random.default_rng(seed))


# (check, net from the fixtures fx, expected verdict)
CASES = {
    "qnet-2d": (check_qnet, lambda fx: fx("koenigs_net_2d"), True),
    "qnet-3d-raised": (check_qnet, lambda fx: _raised((3, 4, 5), (1, 2, 3)), False),
    "closedness-3d": (check_closedness, lambda fx: fx("koenigs_net_3d")[0], True),
    "closedness-2d-perturbed": (check_closedness, lambda fx: _perturbed(fx("koenigs_net_2d"), 5), False),
    "closedness-3d-grid": (check_closedness, lambda fx: generate.grid((3, 3, 3)), False),
    "geometric-2d": (check_koenigs_2d_geometric, lambda fx: fx("koenigs_net_2d"), True),
    "geometric-2d-perturbed": (check_koenigs_2d_geometric, lambda fx: _perturbed(fx("koenigs_net_2d"), 9), False),
    "geometric-2d-r4": (check_koenigs_2d_geometric, lambda fx: _r4(0), True),
    "geometric-2d-r4-perturbed": (check_koenigs_2d_geometric, lambda fx: _perturbed(_r4(0), 1), False),
    "geometric-3d": (check_koenigs_3d_geometric, lambda fx: fx("koenigs_net_3d")[0], True),
    "geometric-3d-qnet": (
        check_koenigs_3d_geometric, lambda fx: generate.random_qnet_3d((3, 3, 3), rng=np.random.default_rng(11)), False),
    "circular-iso": (check_circular, lambda fx: fx("iso_net").net, True),
    "circular-koenigs": (check_circular, lambda fx: fx("koenigs_net_2d"), False),
    "isothermic-lightcone-3d": (check_isothermic, lambda fx: fx("iso_lightcone_3d")[1].net, True),
    "isothermic-flipped": (check_isothermic, lambda fx: generate.flip_corner_cross_ratio(fx("iso_net"))[0], False),
    "moebius-sphere": (check_moebius_characterizations, lambda fx: fx("iso_net").net, True),
    "moebius-sphere-flipped": (
        check_moebius_characterizations, lambda fx: generate.flip_corner_cross_ratio(fx("iso_net"))[0], False),
    "moebius-in-sphere": (check_moebius_characterizations, lambda fx: generate.grid((5, 5)), True),
    "moebius-hexahedra": (check_moebius_characterizations, lambda fx: fx("iso_lightcone_3d")[1].net, True),
}


def _residual_at(rep, key, u) -> float:
    res, at = rep.parts[key]
    rows = np.flatnonzero((at == np.array(u)).all(axis=1))
    assert len(rows) == 1
    return float(res[rows[0]])


@pytest.mark.parametrize("case", CASES)
def test_report_derives_its_verdict_from_the_residuals(case, request):
    check, build, verdict = CASES[case]
    rep = check(build(request.getfixturevalue))
    assert rep.passed == verdict == (rep.n_failed == 0) == rep.is_koenigs
    residuals = [res for res, _ in rep.parts.values()]
    assert rep.n_checked == sum(len(res) for res in residuals) > 0
    assert rep.n_failed == sum(int((res > rep.tol).sum()) for res in residuals)
    assert rep.max_residual == max(float(res.max(initial=0.0)) for res in residuals)
    key, u = rep.worst_at
    assert _residual_at(rep, key, u) == rep.max_residual
    # offenders: capped at k, part by part, each part in C order, plain ints
    every = rep.offenders(rep.n_checked)
    assert len(every) == rep.n_failed
    for k in (0, 1, 3):
        assert rep.offenders(k) == every[:k]
    order = [(list(rep.parts).index(key), u) for key, u, _ in every]
    assert order == sorted(order) and len(set(order)) == len(order)
    for key, u, r in every:
        assert all(type(x) is int for x in u) and r > rep.tol and _residual_at(rep, key, u) == r
    assert json.loads(json.dumps(rep.summary()))["n_failed"] == rep.n_failed


def _nan_first(fn, field=None):
    """``fn`` with the first residual of each nonempty result (or of its
    ``field``) NaN."""

    def wrapped(*args, **kwargs):
        out = fn(*args, **kwargs)
        arr = np.array(out if field is None else getattr(out, field), dtype=float)
        arr.reshape(-1)[:1] = np.nan
        return arr if field is None else out._replace(**{field: arr})

    return wrapped


# (passing case of CASES, module, kernel, the field of its result made NaN)
NAN_CASES = {
    "qnet": ("qnet-2d", qnet, "_diagonal_frame", "rho"),
    "closedness": ("closedness-3d", koenigs, "_diagonals", "q_bd"),
    "geometric-2d": ("geometric-2d", koenigs, "quad_planarity", None),
    "geometric-3d": ("geometric-3d", koenigs, "quad_planarity", None),
    "circular": ("circular-iso", isothermic, "_frame_circles", "residual"),
    "isothermic": ("isothermic-lightcone-3d", isothermic, "_frame_circles", "cross_ratio"),
    "moebius-sphere": ("moebius-sphere", isothermic, "_span_fit", "residual"),
    "moebius-hexahedra": ("moebius-hexahedra", isothermic, "span_residual", None),
}


@pytest.mark.parametrize("case", NAN_CASES)
def test_nan_residual_fails(case, request, monkeypatch):
    passing, module, kernel, field = NAN_CASES[case]
    check, build, _ = CASES[passing]
    net = build(request.getfixturevalue)
    monkeypatch.setattr(module, kernel, _nan_first(getattr(module, kernel), field))
    rep = check(QNet(net.vertices))  # a new net: the form and the circles are kept per net
    assert not rep.passed and rep.n_failed >= 1 and np.isnan(rep.max_residual)
    key, u = rep.worst_at
    assert np.isnan(_residual_at(rep, key, u))
    assert any(np.isnan(r) for _, _, r in rep.offenders(rep.n_failed))


def test_nan_circularity_is_not_circular(iso_net, monkeypatch):
    monkeypatch.setattr(isothermic, "_frame_circles", _nan_first(isothermic._frame_circles, "residual"))
    with pytest.raises(NotCircular, match="max residual nan"):
        check_isothermic(QNet(iso_net.net.vertices))


@pytest.mark.parametrize("m, n_cycles", [(2, 42), (3, 264), (4, 822)])
def test_closedness_counts_every_cycle(m, n_cycles, koenigs_net_2d, koenigs_net_3d):
    # the numbers of 4-cycles and corner triangles closedness reports counted before
    nets = {
        2: koenigs_net_2d,
        3: koenigs_net_3d[0],
        4: generate.random_koenigs_nd((3, 3, 3, 3), rng=np.random.default_rng(1), noise=0.03)[0],
    }
    assert check_closedness(nets[m]).n_checked == n_cycles


class TestFivePointCriterion:
    """Part "vertices" of the 2d geometric check: for N >= 4 the five points
    f, f_{+-1,+-2} of a Koenigs net lie in a 3-space."""

    @pytest.mark.parametrize("seed", range(3))
    def test_koenigs_nets_in_r4(self, seed):
        rep = check_koenigs_2d_geometric(_r4(seed))
        res, at = rep.parts["vertices"]
        assert rep.passed and len(res) == 64 and res.max() <= 1e-12
        assert np.array_equal(at, rep.parts["m_points"][1])

    @pytest.mark.parametrize("seed", range(3))
    def test_perturbed_nets_in_r4(self, seed):
        rep = check_koenigs_2d_geometric(_perturbed(_r4(seed), seed))
        res, _ = rep.parts["vertices"]
        assert not rep.passed and res.max() >= 1e-7
        assert {key for key, _, _ in rep.offenders(rep.n_failed)} == {"m_points", "vertices"}

    def test_no_five_point_part_in_r3(self, koenigs_net_2d):
        assert list(check_koenigs_2d_geometric(koenigs_net_2d).parts) == ["m_points"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e-170, 1e-150, 1e150, 1e170])
def test_dualize_quad_at_extreme_scales(scale):
    # the dual of s Q is dual(Q) / s
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    dual = dualize_quad(square)
    scaled = dualize_quad(square * scale)
    assert np.allclose(scaled * scale, dual, rtol=1e-14, atol=0.0)
    assert dual_quad_residual(square, scaled * scale) <= 1e-14


# --- stage gates: a NaN residual fails them as it fails a check -----------------


def test_nan_coefficient_makes_the_moutard_residual_nan(koenigs_net_2d):
    mn = koenigs.moutard_lift(koenigs_net_2d, koenigs.integrate_nu(koenigs_net_2d))
    a = mn.coeffs[(0, 1)].copy()
    a[2, 3] = np.nan
    assert np.isnan(koenigs.check_moutard(koenigs.MoutardNet(mn.points, {(0, 1): a})).max_residual)


def _nan_coeffs(fn):
    """``fn`` with the first Moutard coefficient of every axis pair NaN."""

    def wrapped(*args):
        coeffs = {key: a.copy() for key, a in fn(*args).items()}
        for a in coeffs.values():
            a.reshape(-1)[0] = np.nan
        return coeffs

    return wrapped


def test_nan_coefficient_fails_the_lifts(koenigs_net_2d, iso_net, monkeypatch):
    monkeypatch.setattr(koenigs, "_moutard_coeffs", _nan_coeffs(koenigs._moutard_coeffs))
    monkeypatch.setattr(isothermic, "_moutard_coeffs", _nan_coeffs(isothermic._moutard_coeffs))
    with pytest.raises(NotKoenigs, match="residual nan"):
        koenigs.moutard_lift(koenigs_net_2d, koenigs.integrate_nu(koenigs_net_2d))
    with pytest.raises(FormNotClosed, match="residual nan"):
        isothermic.lightcone_lift(iso_net)


def _dual_report(net, kd):
    """The report the gate of dualize_net builds."""
    return koenigs._closure_report("dual_closure", net, koenigs._dual_edge_forms(net, kd.nu.values), DEFAULT_TOL)


def test_underflowing_dual_form_fails_its_gate(koenigs_net_2d):
    # two rows: nu nu_1 underflows on the first axis-0 edge, a degeneracy named at that edge
    net = QNet(koenigs_net_2d.vertices[:2])
    nu = koenigs.integrate_nu(net).nu.values.copy()
    nu[0, 0], nu[1, 0] = np.copysign(1e-200, nu[0, 0]), np.copysign(1e-200, nu[1, 0])  # nu nu_1 underflows
    kd = koenigs.KoenigsData(nu=VertexScalar(nu))
    with pytest.raises(ZeroNu, match=r"^edge base \(0, 0\) \(axis 0\): nu nu_i leaves the finite nonzero numbers$"):
        koenigs.dualize_net(net, kd)


def test_overflowing_christoffel_form_fails_its_gate(iso_net):
    # edges of length ~0.1 and a label of 1e308 on the first axis-0 layer: its form overflows
    a1, a2 = (0.01 * a for a in iso_net.labels.per_axis)
    a1[0] = 1e308
    iso = isothermic.IsothermicNet(QNet(0.1 * iso_net.net.vertices), EdgeLabelling((a1, a2)), iso_net.metric)
    with pytest.raises(FormNotClosed, match="residual nan"):
        isothermic.christoffel(iso)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e-170, 1e160, 1e170])
def test_dual_closure_residual_survives_scale(koenigs_net_2d, scale):
    # the forms' squares underflow or overflow unless they are rescaled first
    bad = _perturbed(koenigs_net_2d, 5)
    ref = _dual_report(bad, unchecked_nu(bad)).max_residual
    moved = QNet(bad.vertices * scale)
    kd = unchecked_nu(moved)
    assert ref > 1e-3 and _dual_report(moved, kd).max_residual == pytest.approx(ref, rel=1e-9)
    # the gate's report names the one quad the perturbation left open, at every scale
    with pytest.raises(NotKoenigs, match=r"^dual_closure: 1 of 56 fail, max residual .* at \(\(0, 1\), \(6, 7\)\) "):
        koenigs.dualize_net(moved, kd)
    good = QNet(koenigs_net_2d.vertices * scale)
    kd = koenigs.integrate_nu(good)
    assert _dual_report(good, kd).max_residual <= 1e-8
    assert np.all(np.isfinite(koenigs.dualize_net(good, kd).vertices))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e-170, 1e170])
def test_moutard_residual_survives_scale(koenigs_net_2d, scale):
    mn = koenigs.moutard_lift(koenigs_net_2d, koenigs.integrate_nu(koenigs_net_2d))
    bad = mn.points.copy()
    bad[3, 4] *= 1.01

    def residual(points):
        return koenigs.check_moutard(koenigs.MoutardNet(points, mn.coeffs)).max_residual

    ref = residual(bad)
    assert ref > 1e-4
    assert residual(bad * scale) == pytest.approx(ref, rel=1e-9)
    assert residual(mn.points * scale) <= 1e-12


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("scale", [1e-170, 1.0, 1e170])
def test_relative_defect_matches_the_norm_formula(scale, n):
    # squared norms and one sqrt of their maximum, against the norms of the formula it replaced: the two sum
    # the squares in different orders and round the quotient's two sides apart (measured at most 2.8 eps)
    rng = np.random.default_rng(7)
    terms = [rng.normal(size=(200, 40, n)) * scale * rng.uniform(0.5, 2.0, (200, 40, 1)) for _ in range(4)]
    defect = (terms[0] + terms[1] - terms[2] - terms[3]) * 10.0 ** rng.uniform(-14, 0, (200, 40, 1))
    unit = min(_unit(t) for t in terms)
    norms = [np.linalg.norm(t * unit, axis=-1) for t in terms]
    old = np.linalg.norm(defect * unit, axis=-1) / np.maximum(np.max(norms, axis=0), 1e-300)
    assert (unit == 1.0) == (scale == 1.0)
    got = koenigs._relative_defect(unit, defect, [koenigs._squared_norms(unit, t) for t in terms])
    assert np.all(np.abs(got - old) <= 4 * np.finfo(float).eps * old)


def test_lightcone_lift_rejects_equal_metric_on_a_white_diagonal(iso_net):
    s = iso_net.metric.values.copy()
    s[1, 0] = s[0, 1]
    iso = isothermic.IsothermicNet(iso_net.net, iso_net.labels, VertexScalar(s))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(EqualNuOnWhiteDiagonal):
            isothermic.lightcone_lift(iso)
