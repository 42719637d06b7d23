import re

import numpy as np
import pytest

from koenigsnets import generate
from koenigsnets.errors import (
    CoincidentPoints,
    CollinearTriple,
    DimensionTooLow,
    EqualLabels,
    FormNotClosed,
    InconsistentCrossRatios,
    NotCircular,
    NotConcircular,
    NotPlanar,
    NullDiagonalDifference,
)
from koenigsnets.isothermic import (
    IsothermicNet,
    _central_sphere,
    _similar_lift,
    check_circular,
    check_isothermic,
    check_moebius_characterizations,
    christoffel,
    christoffel_form_residual,
    lift_labels,
    lightcone_evolve,
    lightcone_lift,
    metric_labels,
    project_lightcone_net,
    quad_cross_ratios,
    recover_labels,
    recover_metric,
    three_leg_evolve,
)
from koenigsnets.koenigs import check_closedness
from koenigsnets.qnet import EdgeLabelling, QNet, VertexScalar, _star


def grid_metric(extents):
    """s = (-1)^(u_2): the discrete metric of the unit grid."""
    return np.where(np.indices(extents)[1] % 2 == 0, 1.0, -1.0)


def grid_isothermic(extents):
    net = generate.grid(extents)
    labels = EdgeLabelling((np.ones(extents[0] - 1), -np.ones(extents[1] - 1)))
    return IsothermicNet(net=net, labels=labels, metric=VertexScalar(grid_metric(extents)))


@pytest.fixture(scope="module")
def flipped(iso_net):
    net, s = generate.flip_corner_cross_ratio(iso_net)
    return net, s


class TestCircularity:
    def test_grid_passes(self):
        rep = check_circular(generate.grid((4, 4)))
        assert rep.passed and rep.max_residual <= 1e-12

    def test_three_leg_net_passes(self, iso_net):
        assert check_circular(iso_net.net).passed

    def test_generic_koenigs_net_fails(self, koenigs_net_2d):
        rep = check_circular(koenigs_net_2d)
        assert not rep.passed and rep.n_failed > 0

    def test_similarity_invariance(self, iso_net, rng):
        rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        moved = QNet(3.0 * iso_net.net.vertices @ rot.T + 1.0)
        assert check_circular(moved).passed


def _grid_with(extents, changes):
    """Unit grid in R^3 with some vertices moved: {lattice index: new point}."""
    v = generate.grid(extents).vertices.copy()
    for u, p in changes.items():
        v[u] = p
    return QNet(v)


class TestDegenerateQuads:
    """One bad quad inside a net: the error class of its first failing
    predicate, and the base of the first failing quad in the message."""

    # moved vertices, then (error, base) from check_circular and from quad_cross_ratios
    CASES = {
        "not planar": ({(2, 2): (2.0, 2.0, 0.3)}, (NotPlanar, "(1, 1)"), (NotPlanar, "(1, 1)")),
        # the quad at (1, 1) lies on a line; the one at (0, 1) only has three collinear corners
        "collinear": (
            {(2, 2): (3.0, 1.0, 0.0), (1, 2): (1.5, 1.0, 0.0)},
            (CollinearTriple, "(1, 1)"),
            (NotConcircular, "(0, 1)"),
        ),
        # f_i == f at (1, 1); at (1, 0) the last two corners coincide, which is still concircular
        "coincident": ({(2, 1): (1.0, 1.0, 0.0)}, (CoincidentPoints, "(1, 1)"), (CoincidentPoints, "(1, 0)")),
        "not concircular": ({(2, 2): (2.2, 2.0, 0.0)}, None, (NotConcircular, "(1, 1)")),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_first_failing_quad(self, case):
        changes, circ, cross = self.CASES[case]
        net = _grid_with((5, 5), changes)
        if circ is None:
            assert not check_circular(net).passed
        else:
            with pytest.raises(circ[0], match=re.escape(f"quad base {circ[1]}")):
                check_circular(net)
        with pytest.raises(cross[0], match=re.escape(f"quad base {cross[1]}")):
            quad_cross_ratios(net)
        # circularity is tested on every quad before any cross-ratio
        with pytest.raises(circ[0] if circ else NotCircular):
            check_isothermic(net)

    def test_offenders_name_every_bad_quad(self):
        net = _grid_with((5, 5), {(2, 2): (2.2, 2.0, 0.0)})
        rep = check_circular(net)
        assert [(key, u) for key, u, _ in rep.offenders(10)] == [((0, 1), u) for u in ((1, 1), (1, 2), (2, 1), (2, 2))]


class TestCrossRatios:
    def test_grid_minus_one(self):
        cr = quad_cross_ratios(generate.grid((4, 4)))[(0, 1)]
        assert np.allclose(cr, -1.0)

    def test_factorization(self, iso_net):
        # q = alpha_i / alpha_j on every quad
        cr = quad_cross_ratios(iso_net.net)[(0, 1)]
        a1, a2 = iso_net.labels.per_axis
        expected = a1[:, None] / a2[None, :]
        assert np.abs(cr - expected).max() <= 1e-8 * np.abs(cr).max()

    def test_sign_flips_for_crossed_quad(self, iso_net, flipped):
        net, _ = flipped
        corner = tuple(e - 2 for e in net.extents)
        before = quad_cross_ratios(iso_net.net)[(0, 1)][corner]
        after = quad_cross_ratios(net)[(0, 1)][corner]
        assert before < 0 < after


class TestCheckIsothermic:
    def test_three_leg_net(self, iso_net):
        rep = check_isothermic(iso_net.net)
        assert rep.passed and rep.max_residual <= 1e-9

    def test_grid(self):
        assert check_isothermic(generate.grid((5, 5))).passed

    def test_lightcone_3d(self, iso_lightcone_3d):
        _, iso = iso_lightcone_3d
        rep = check_isothermic(iso.net)
        assert rep.passed and rep.max_residual <= 1e-9

    def test_rejects_non_circular(self, koenigs_net_2d):
        with pytest.raises(NotCircular):
            check_isothermic(koenigs_net_2d)

    def test_flipped_corner_fails(self, flipped):
        net, _ = flipped
        rep = check_isothermic(net)
        assert not rep.passed and rep.n_failed > 0

    def test_failures_name_plain_indices(self, flipped):
        rep = check_isothermic(flipped[0])
        offenders = rep.offenders(rep.n_failed)
        assert len(offenders) == rep.n_failed > 0
        # each one an interior vertex of the 6 x 6 net, as plain ints
        assert all(key == (0, 1) and all(type(x) is int and 1 <= x <= 4 for x in u) for key, u, _ in offenders)

    def test_isothermic_nets_are_koenigs(self, iso_net):
        assert check_closedness(iso_net.net).passed


class TestRecoverLabels:
    def test_reproduces_generator_labels(self, iso_net):
        rec = recover_labels(iso_net.net)
        a1, a2 = iso_net.labels.per_axis
        r1, r2 = rec.per_axis
        scale = a1[0] / r1[0]
        assert np.abs(r1 * scale - a1).max() <= 1e-8
        assert np.abs(r2 * scale - a2).max() <= 1e-8

    def test_gauge(self, iso_net):
        rec = recover_labels(iso_net.net)
        assert rec.per_axis[0][0] == 1.0

    def test_inconsistent_net_rejected(self, flipped):
        net, _ = flipped
        with pytest.raises(InconsistentCrossRatios):
            recover_labels(net)


class TestRecoverMetric:
    def test_matches_generator(self, iso_net):
        s = recover_metric(iso_net.net)
        ratio = s.values / iso_net.metric.values
        parity = np.indices(s.values.shape).sum(axis=0) % 2
        for p in (0, 1):
            vals = ratio[parity == p]
            assert np.abs(vals / vals.flat[0] - 1.0).max() <= 1e-9

    def test_metric_labels_match(self, iso_net):
        # equal to the generator labels up to the single gauge factor of s
        lab = metric_labels(iso_net.net, iso_net.metric)
        a1, a2 = iso_net.labels.per_axis
        scale = a1[0] / lab.per_axis[0][0]
        assert np.abs(lab.per_axis[0] * scale - a1).max() <= 1e-8
        assert np.abs(lab.per_axis[1] * scale - a2).max() <= 1e-8

    def test_gauge_law(self, iso_net):
        # rescaling s by (lambda, mu) on the two colors divides alpha by
        # lambda * mu
        net = iso_net.net
        s1 = recover_metric(net)
        s2 = recover_metric(net, ((0, 0), 2.0), ((1, 0), 3.0))
        l1 = metric_labels(net, s1)
        l2 = metric_labels(net, s2)
        for ax in (0, 1):
            assert np.allclose(l2.per_axis[ax] * 6.0, l1.per_axis[ax])


class TestChristoffel:
    def test_dual_is_isothermic(self, iso_net):
        dual = christoffel(iso_net)
        assert check_isothermic(dual.net).passed

    def test_same_cross_ratios(self, iso_net):
        dual = christoffel(iso_net)
        cr = quad_cross_ratios(iso_net.net)[(0, 1)]
        cr_dual = quad_cross_ratios(dual.net)[(0, 1)]
        assert np.abs(cr - cr_dual).max() <= 1e-8 * np.abs(cr).max()

    def test_metric_inverts(self, iso_net):
        dual = christoffel(iso_net)
        assert np.allclose(dual.metric.values * iso_net.metric.values, 1.0)

    def test_involution(self, iso_net):
        back = christoffel(christoffel(iso_net))
        diff = back.net.vertices - iso_net.net.vertices
        assert np.abs(diff - diff[0, 0]).max() <= 1e-8 * iso_net.net.diameter()

    def test_three_leg_identity(self):
        # unit quad 0, 1, 1+i, i: 2 (1+i)^{-1} = 1/1 - (-1)/i
        f1 = np.array([[0.0, 0.0], [1.0, 0.0]])
        f2 = np.array([[0.0, 0.0], [0.0, 1.0]])
        labels = EdgeLabelling((np.array([1.0]), np.array([-1.0])))
        iso = three_leg_evolve((f1, f2), labels)
        assert np.allclose(iso.net.vertices[1, 1], [1.0, 1.0])

    def test_equal_labels_rejected(self):
        f1 = np.array([[0.0, 0.0], [1.0, 0.0]])
        f2 = np.array([[0.0, 0.0], [0.0, 1.0]])
        labels = EdgeLabelling((np.array([1.0]), np.array([1.0])))
        with pytest.raises(EqualLabels):
            three_leg_evolve((f1, f2), labels)

    def test_wrong_labels_not_closed(self, iso_net):
        a1, a2 = iso_net.labels.per_axis
        wrong = IsothermicNet(
            net=iso_net.net,
            labels=EdgeLabelling((a1 + 0.5, a2)),
            metric=iso_net.metric,
        )
        assert christoffel_form_residual(wrong) > 1e-3
        with pytest.raises(FormNotClosed):
            christoffel(wrong)

    def test_limit_signs(self, iso_net):
        dual = christoffel(iso_net, limit_signs=True)
        assert np.all(dual.metric.values > 0)
        assert np.allclose(dual.labels.per_axis[0], iso_net.labels.per_axis[0])
        assert np.allclose(dual.labels.per_axis[1], -iso_net.labels.per_axis[1])

    def test_limit_signs_need_2d(self, iso_lightcone_3d):
        _, iso = iso_lightcone_3d
        with pytest.raises(DimensionTooLow):
            christoffel(iso, limit_signs=True)


class TestLightconeLift:
    def test_grid_lift(self):
        iso = grid_isothermic((4, 4))
        mn = lightcone_lift(iso)
        assert mn.moutard_residual() <= 1e-14
        assert np.allclose(mn.coeffs[(0, 1)], 1.0)

    def test_isotropy(self, iso_net):
        from koenigsnets.geom import minkowski_dot

        mn = lightcone_lift(iso_net)
        norms = minkowski_dot(mn.points, mn.points)
        assert np.abs(norms).max() <= 1e-10 * (mn.points**2).sum(axis=-1).max()

    def test_moutard_residual(self, iso_net):
        assert lightcone_lift(iso_net).moutard_residual() <= 1e-9

    def test_label_identity(self, iso_net):
        # -2<y, tau_i y> reproduces the labels up to the gauge factor of s
        mn = lightcone_lift(iso_net)
        a1, a2 = iso_net.labels.per_axis
        l1 = lift_labels(mn, 0)
        l2 = lift_labels(mn, 1)
        assert np.abs(l1 - l1[:, :1]).max() <= 1e-9 * np.abs(l1).max()
        assert np.abs(l2 - l2[:1, :]).max() <= 1e-9 * np.abs(l2).max()
        scale = a1[0] / l1[0, 0]
        assert np.abs(l1[:, 0] * scale - a1).max() <= 1e-8
        assert np.abs(l2[0, :] * scale - a2).max() <= 1e-8

    def test_round_trip(self, iso_net):
        mn = lightcone_lift(iso_net)
        back = project_lightcone_net(mn)
        assert np.allclose(back.net.vertices, iso_net.net.vertices)
        assert np.allclose(back.metric.values, iso_net.metric.values)

    def test_non_isothermic_rejected(self, flipped):
        net, s = flipped
        bad = IsothermicNet(net=net, labels=EdgeLabelling((np.ones(5), -np.ones(5))), metric=s)
        with pytest.raises(FormNotClosed):
            lightcone_lift(bad)


class TestLightconeEvolve:
    def test_2d(self):
        mn, iso = generate.random_isothermic_lightcone((5, 6), rng=np.random.default_rng(201))
        assert mn.moutard_residual() <= 1e-12
        assert check_isothermic(iso.net).passed

    def test_3d_fixture(self, iso_lightcone_3d):
        mn, iso = iso_lightcone_3d
        assert mn.moutard_residual() <= 1e-9
        assert check_circular(iso.net).passed

    def test_round_trip_through_lift(self):
        mn, iso = generate.random_isothermic_lightcone((5, 5), rng=np.random.default_rng(202))
        mn2 = lightcone_lift(iso)
        assert np.allclose(mn2.points, mn.points)

    def test_null_diagonal_rejected(self):
        from koenigsnets.geom import lift_to_lightcone

        # both diagonal endpoints lift the same point with different metric
        # values, so their difference is isotropic
        f0 = np.array([0.0, 0.0, 0.0])
        f1 = np.array([1.0, 0.0, 0.0])
        y0 = lift_to_lightcone(f0)
        y1 = lift_to_lightcone(f1) / 2.0
        y2 = lift_to_lightcone(f1) / 3.0
        with pytest.raises(NullDiagonalDifference):
            lightcone_evolve((np.stack([y0, y1]), np.stack([y0, y2])))

    def test_non_isotropic_rejected(self, rng):
        with pytest.raises(ValueError):
            lightcone_evolve((rng.standard_normal((3, 5)), rng.standard_normal((3, 5))))


class TestMoebiusCharacterizations:
    def test_generic_2d_sphere_mode(self, iso_net):
        rep = check_moebius_characterizations(iso_net.net)
        assert rep.name == "moebius_sphere"
        assert rep.passed and rep.max_residual <= 1e-9

    def test_planar_net_in_sphere_mode(self):
        rep = check_moebius_characterizations(generate.grid((5, 5)))
        assert rep.name == "moebius_in_sphere" and list(rep.parts) == ["in_sphere"]
        assert rep.passed

    def test_3d_hexahedra_mode(self, iso_lightcone_3d):
        _, iso = iso_lightcone_3d
        rep = check_moebius_characterizations(iso.net)
        assert rep.name == "moebius_hexahedra"
        assert rep.passed
        assert {kind for kind, _ in rep.parts} == {"black", "white"}
        for res, _ in rep.parts.values():
            assert np.all(res <= 1e-8)

    def test_flipped_corner_fails(self, flipped):
        net, _ = flipped
        rep = check_moebius_characterizations(net)
        assert not rep.passed

    def test_agreement_with_cross_ratio_check(self, iso_net, flipped):
        assert check_moebius_characterizations(iso_net.net).passed
        assert check_isothermic(iso_net.net).passed
        net, _ = flipped
        assert not check_moebius_characterizations(net).passed
        assert not check_isothermic(net).passed

    @pytest.mark.parametrize("extents", [(2, 5), (5, 2)])
    def test_net_without_interior_vertices(self, extents):
        net = QNet(generate.grid(extents).vertices + np.array([0.0, 0.0, 1.0]) * np.arange(extents[1])[:, None] ** 2)
        rep = check_moebius_characterizations(net)
        assert rep.passed and rep.n_checked == 0 and rep.max_residual == 0.0 and rep.worst_at is None
        assert check_isothermic(net).passed

    def test_star_in_its_central_sphere(self):
        # at vertex (29, 42) the five-point sphere passes within 2e-10 of f_{+1},
        # so the whole star lies in it and the in-sphere test judges that star
        net = generate.random_isothermic_2d((48, 48), rng=np.random.default_rng(47)).net
        rep = check_moebius_characterizations(net)
        assert rep.name == "moebius_sphere" and rep.passed
        assert rep.parts["in_sphere"][1].tolist() == [[29, 42]]
        assert rep.n_checked == 46 * 46

    @pytest.mark.parametrize("seed, u", [(224, [18, 17]), (247, [16, 17]), (370, [26, 24])])
    def test_star_near_its_central_sphere(self, seed, u):
        # f_{-2}'s lift (f_{+1}'s at seed 370) is 1.4e-9 to 3.0e-9 (the sine of
        # its angle) from the span of the five lifts, so the star stays in the
        # five-point test; the six-point sigma_4/sigma_0 once read 4.7e-10 to
        # 9.9e-10 there and routed it to the in-sphere test
        net = generate.random_isothermic_2d((48, 48), rng=np.random.default_rng(seed)).net
        rep = check_moebius_characterizations(net)
        assert rep.name == "moebius_sphere" and rep.passed
        assert rep.parts["in_sphere"][1].size == 0 and u in rep.parts["sphere"][1].tolist()

    @pytest.mark.parametrize("lift, part", [(1.0, "in_sphere"), (1.0 + 1e-6, "sphere")])
    def test_edge_neighbour_on_the_central_sphere(self, lift, part):
        # f, its four diagonal neighbours and f_{+1} lie on the sphere |x| = 5;
        # the other edge neighbours do not, so the net is in no 2-sphere
        v = np.array([
            [[-4.0, 0.0, 3.0], [1.0, -1.0, 2.0], [0.0, 3.0, 4.0]],
            [[2.0, 1.0, 1.0], [0.0, 0.0, 5.0], [-1.0, 2.0, 3.0]],
            [[0.0, -4.0, 3.0], [4.0 * lift, 3.0 * lift, 0.0], [3.0, 0.0, 4.0]],
        ])
        rep = check_moebius_characterizations(QNet(v))
        assert rep.name == "moebius_sphere"
        assert rep.parts[part][1].tolist() == [[1, 1]] and rep.n_checked == 1

    def test_planar_net(self):
        iso = generate.random_isothermic_2d((6, 6), ambient_dim=2, rng=np.random.default_rng(3))
        rep = check_moebius_characterizations(iso.net)
        assert rep.name == "moebius_in_sphere" and rep.passed
        assert not check_moebius_characterizations(generate.flip_corner_cross_ratio(iso)[0]).passed

    def test_net_in_a_3_sphere(self, iso_net, flipped):
        # inverse stereographic projection into S^3 in R^4 is a Moebius map;
        # the net is in a 3-sphere, not a 2-sphere, so the five-point test applies
        def to_s3(v):
            n2 = (v * v).sum(axis=-1, keepdims=True)
            return QNet(np.concatenate([2 * v, n2 - 1], axis=-1) / (n2 + 1))

        rep = check_moebius_characterizations(to_s3(iso_net.net.vertices))
        assert rep.name == "moebius_sphere" and rep.passed
        assert not check_moebius_characterizations(to_s3(flipped[0].vertices)).passed


def _central_sphere_oracle(star, mpmath):
    """40-digit sines of the angles between the lifts of f_{+1}, f_{-1}, f_{+2},
    f_{-2} and the best 4-dimensional fit to the lifts of f and f_{+-1+-2}, in
    a star of float lifts (9, dim) taken as exact."""
    with mpmath.workdps(40):
        _, _, vt = mpmath.svd_r(mpmath.matrix(star[[0, 5, 6, 7, 8]].tolist()), full_matrices=True)
        normals = vt[4:, :]
        return [float(mpmath.norm(normals * mpmath.matrix(x.tolist())) / mpmath.norm(mpmath.matrix(x.tolist())))
                for x in star[1:5]]


def test_neighbour_sines_match_the_oracle():
    # stars of 6 x 6 isothermic nets in R^3 and isometrically in R^4 (two
    # normals), and the star of seed 47 whose f_{+1} is 1.9e-10 off the fit.
    # A sine is relative to |lift_k|, so rounding moves it by an absolute
    # amount, through the fit's normals: about eps sigma_0 / sigma_3 (Wedin);
    # bound 4 eps sigma_0 / sigma_3, measured <= 2.1 on the stars of seeds
    # 0-5 (<= 1.1 here).  On the 6 x 6 stars (sines >= 1.4e-5) the relative
    # error is also bounded by 1e-10, measured <= 4e-12
    mpmath = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    embed = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 3)))[0].T
    nets = [generate.random_isothermic_2d((6, 6), rng=np.random.default_rng(seed)).net.vertices for seed in range(2)]
    near = generate.random_isothermic_2d((48, 48), rng=np.random.default_rng(47)).net.vertices
    cases = [(_star(v), 1e-10) for v in nets + [v @ embed for v in nets]] + [(_star(near)[[28 * 46 + 41]], np.inf)]
    for star, rel in cases:
        star = star - star[:, :1]
        lifted = _similar_lift(star, 0.0, np.linalg.norm(star, axis=-1).max(axis=1)[:, None, None])
        _, sines = _central_sphere(np.delete(lifted, -2, axis=-1))
        sv = np.linalg.svd(lifted[:, [0, 5, 6, 7, 8]], compute_uv=False)
        for got, one, kappa in zip(sines, lifted, sv[:, 0] / sv[:, 3]):
            oracle = np.array(_central_sphere_oracle(one, mpmath))
            assert np.all(np.abs(got - oracle) <= np.minimum(4 * eps * kappa, rel * oracle))


def _symmetries(net, rng):
    """The net under the similarities and lattice symmetries every verdict must survive."""
    v = net.vertices
    rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    return {
        "as generated": v,
        "translated by 100": v + 100.0,
        "scaled by 1e-4": 1e-4 * v,
        "scaled by 1e4": 1e4 * v,
        "rotated": v @ rot.T,
        "lattice axes swapped": v.transpose(1, 0, 2),
        "lattice axis reversed": v[::-1],
    }


class TestMetamorphic:
    @pytest.mark.parametrize("n", [10, 48])
    def test_verdicts_survive_symmetries(self, n):
        net = generate.random_isothermic_2d((n, n), rng=np.random.default_rng(n)).net
        for name, v in _symmetries(net, np.random.default_rng(7)).items():
            moved = QNet(v)
            assert check_circular(moved).passed, name
            assert check_isothermic(moved).passed, name
            assert check_moebius_characterizations(moved).passed, name


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("exponent", [100, -100, 150, -150, 170, -170])
def test_circular_checks_at_extreme_scales(iso_net, exponent):
    # each quad is scaled by a power of two before its plane frame and its
    # diam**4: at the nearest power of two the residuals are bitwise those at
    # scale 1, and at 10**exponent they agree within 1e-12 (they are relative)
    v = iso_net.net.vertices
    for check in (check_circular, check_isothermic):
        base = check(QNet(v))
        assert base.passed
        for scale, within in ((10.0**exponent, 1e-12), (2.0 ** round(exponent * np.log2(10)), 0.0)):
            rep = check(QNet(v * scale))
            assert rep.passed and rep.parts.keys() == base.parts.keys()
            for key, (res, at) in rep.parts.items():
                assert np.array_equal(at, base.parts[key][1])
                assert np.all(np.abs(res - base.parts[key][0]) <= within)


class TestMoebiusInvariance:
    def test_inversion_preserves_verdict(self, iso_net):
        img = QNet(generate.apply_moebius(iso_net.net).vertices)
        rep = check_isothermic(img)
        assert rep.passed

    def test_inversion_preserves_cross_ratios(self, iso_net):
        img = generate.apply_moebius(iso_net.net, scale=1.3, shift=(0.2, -0.1, 0.4))
        cr = quad_cross_ratios(iso_net.net)[(0, 1)]
        cr_img = quad_cross_ratios(img)[(0, 1)]
        assert np.abs(cr - cr_img).max() <= 1e-8 * np.abs(cr).max()

    def test_negative_verdict_preserved(self, flipped):
        net, _ = flipped
        img = generate.apply_moebius(net)
        assert not check_isothermic(img).passed


class TestMetricCaveat:
    @pytest.mark.parametrize("error", [CoincidentPoints, CollinearTriple])
    def test_degenerate_corner_quad_rejected(self, iso_net, error):
        v = iso_net.net.vertices.copy()
        f, f2 = v[-2, -2].copy(), v[-2, -1].copy()
        if error is CoincidentPoints:
            v[-1, -2] = f  # f_1 onto f
        else:  # f_1 and f_12 onto the line of f and f_2
            v[-1, -2], v[-1, -1] = 2 * f - f2, 3 * f2 - 2 * f
        bad = IsothermicNet(net=QNet(v), labels=iso_net.labels, metric=iso_net.metric)
        with pytest.raises(error):
            generate.flip_corner_cross_ratio(bad)

    def test_flipped_net_keeps_metric_property(self, flipped):
        # the counterexample still satisfies |f_i - f|^2 = alpha_i s s_i ...
        from koenigsnets.isothermic import _edge_alpha

        net, s = flipped
        for i in (0, 1):
            alpha = _edge_alpha(net, s.values, i)
            layered = np.moveaxis(alpha, i, 0).reshape(alpha.shape[i], -1)
            spread = np.abs(layered - layered[:, :1]).max()
            assert spread <= 1e-9 * np.abs(alpha).max()

    def test_flipped_net_is_circular_but_not_isothermic(self, flipped):
        # ... and stays circular, yet fails the cross-ratio test
        net, _ = flipped
        assert check_circular(net).passed
        assert not check_isothermic(net).passed

    def test_embedded_sufficiency(self, iso_net):
        # with all quads embedded, the metric property implies isothermic
        from koenigsnets.geom import is_convex
        from koenigsnets.qnet import _gather_quads

        assert is_convex(_gather_quads(iso_net.net, 0, 1)[0]).all()
        assert check_isothermic(iso_net.net).passed
