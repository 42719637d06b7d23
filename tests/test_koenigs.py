import re
from itertools import combinations, product

import numpy as np
import pytest

from conftest import gather_quads, switched_defects, unchecked_homogeneous_lift, unchecked_nu
from koenigsnets import generate, koenigs, qnet
from koenigsnets.errors import (
    DegenerateQuad,
    NotAlternating,
    NotKoenigs,
    VanishingLastComponent,
)
from koenigsnets.geom import quad_diagonals, quad_planarity
from koenigsnets.koenigs import (
    build_q_form,
    check_closedness,
    check_koenigs_2d_geometric,
    check_koenigs_3d_geometric,
    check_moutard,
    dual_quad_residual,
    dualize_net,
    dualize_quad,
    integrate_nu,
    moutard_evolve,
    moutard_lift,
    normalize_nu_for_limit,
)
from koenigsnets.qnet import QNet, check_qnet


def _directed(form, base, i, j, frm, to) -> float:
    """q for the directed diagonal ``frm -> to`` of the quad at ``base`` in
    the (i, j) plane, from the canonical orientations of the form."""
    c00 = tuple(base)
    c10, c01, c11 = (tuple(b + (ax in axes) for ax, b in enumerate(c00)) for axes in ((i,), (j,), (i, j)))
    frm, to = tuple(frm), tuple(to)
    if {frm, to} == {c00, c11}:
        val = form.q_main[(i, j)][c00]
        return val if frm == c00 else 1.0 / val
    if {frm, to} == {c10, c01}:
        val = form.q_cross[(i, j)][c00]
        return val if frm == c10 else 1.0 / val
    raise ValueError("vertices are not a diagonal of this quad")


class TestQForm:
    def test_grid_all_minus_one(self):
        form = build_q_form(generate.grid((4, 4)))
        assert np.allclose(form.q_main[(0, 1)], -1.0)
        assert np.allclose(form.q_cross[(0, 1)], -1.0)

    def test_matches_single_quad_ratio(self):
        # net consisting of one quad; its form is the quad's diagonal ratios
        v = np.array([[[0, 0], [0.25, 1]], [[1, 0], [1, 1]]], dtype=float)
        form = build_q_form(QNet(v))
        diag = quad_diagonals(np.array([[[0, 0], [1, 0], [1, 1], [0.25, 1]]], dtype=float))
        assert form.q_main[(0, 1)][0, 0] == pytest.approx(diag.q_ac[0])
        assert form.q_cross[(0, 1)][0, 0] == pytest.approx(diag.q_bd[0])

    def test_crossed_quad_positive(self):
        # crossed quad: a diagonal ratio turns positive
        v = np.empty((2, 2, 2))
        v[0, 0] = (0.0, 0.0)
        v[1, 0] = (2.0, 0.0)
        v[1, 1] = (0.5, 1.0)
        v[0, 1] = (1.5, 1.0)
        form = build_q_form(QNet(v))
        assert form.q_main[(0, 1)][0, 0] > 0

    def test_reversal_inverts(self, koenigs_net_2d):
        form = build_q_form(koenigs_net_2d)
        base = (2, 3)
        fwd = _directed(form, base, 0, 1, (2, 3), (3, 4))
        bwd = _directed(form, base, 0, 1, (3, 4), (2, 3))
        assert fwd * bwd == pytest.approx(1.0)


class TestClosedness:
    def test_grid(self):
        rep = check_closedness(generate.grid((5, 5)))
        assert rep.passed and rep.max_residual == pytest.approx(0.0, abs=1e-12)

    def test_moutard_net(self, koenigs_net_2d):
        rep = check_closedness(koenigs_net_2d)
        assert rep.passed and rep.max_residual <= 1e-10

    def test_moutard_net_3d(self, koenigs_net_3d):
        net, _, _ = koenigs_net_3d
        rep = check_closedness(net)
        assert rep.passed and rep.max_residual <= 1e-10

    def test_m4_algebra(self):
        net, _, mn = generate.random_koenigs_nd((3, 3, 3, 3), rng=np.random.default_rng(1), noise=0.03)
        assert check_moutard(mn).max_residual <= 1e-10
        rep = check_closedness(net)
        assert rep.passed and rep.max_residual <= 1e-9

    def test_perturbation_fails_adjacent_cycles(self, koenigs_net_2d):
        bad = generate.perturb_in_plane(koenigs_net_2d, rng=np.random.default_rng(5))
        rep = check_closedness(bad)
        assert not rep.passed
        # the moved corner vertex lies in a single quad, so exactly one
        # interior 4-cycle breaks
        assert rep.n_failed == 1

    def test_grid_3d_is_not_koenigs(self):
        # triangle products on a translational net are (-1)^3
        rep = check_closedness(generate.grid((3, 3, 3)))
        assert not rep.passed


def _corner_products_reference(net, form):
    """Loop reference for the triangle cycles: ((axes, cube base + (corner
    number,)), |product - 1|) at every hexahedron corner, from one directed q
    per face diagonal."""
    out = []
    for axes in combinations(range(net.m), 3):
        i, j, k = axes
        for w in product(*(range(e - 1) if ax in axes else range(e) for ax, e in enumerate(net.extents))):
            for c, bits in enumerate(product((0, 1), repeat=3)):
                corner = list(w)
                for ax, bit in zip(axes, bits):
                    corner[ax] += bit
                corner = tuple(corner)
                nb = {}  # the corner's neighbours inside the cube
                for ax in axes:
                    n = list(corner)
                    n[ax] = 2 * w[ax] + 1 - corner[ax]
                    nb[ax] = tuple(n)
                prod = 1.0
                for (p, q), (frm, to) in (((i, j), (nb[i], nb[j])), ((j, k), (nb[j], nb[k])), ((i, k), (nb[k], nb[i]))):
                    r = next(ax for ax in axes if ax not in (p, q))
                    base = list(w)
                    base[r] = corner[r]
                    prod *= _directed(form, base, p, q, frm, to)
                out.append(((axes, w + (c,)), abs(prod - 1.0)))
    return out


class TestTriangleCycles:
    def test_perturbed_vertex_matches_loop_reference(self):
        # in R^2 every quad stays planar when a vertex moves
        net, _, _ = generate.random_koenigs_3d((4, 4, 4), ambient_dim=2, rng=np.random.default_rng(102))
        assert check_closedness(net).passed
        v = net.vertices.copy()
        v[2, 2, 2] += (0.01, 0.02)
        bad = QNet(v)
        rep = check_closedness(bad)
        ref = [(d, r) for d, r in _corner_products_reference(bad, build_q_form(bad)) if r > 1e-8]
        offenders = rep.offenders(rep.n_failed)
        got = [((key, u), r) for key, u, r in offenders if len(key) == 3]
        assert len(ref) > 0
        assert [d for d, _ in got] == [d for d, _ in ref]
        assert np.allclose([r for _, r in got], [r for _, r in ref], rtol=1e-12, atol=0.0)
        # every broken triangle lies in a cube around the moved vertex
        assert {u[:3] for (_, u), _ in got} <= set(product((1, 2), repeat=3))
        # the 4-cycles come first, at their bases, in plain ints, not numpy scalars
        cycles = [(key, u) for key, u, _ in offenders if len(key) == 2]
        assert cycles and offenders[:len(cycles)] == [o for o in offenders if len(o[0]) == 2]
        assert all(len(u) == 3 and all(type(x) is int for x in u) for _, u in cycles)


class TestIntegrateNu:
    def test_grid_alternating(self):
        kd = integrate_nu(generate.grid((4, 5)), ((0, 0), 1.0), ((1, 0), -1.0))
        expected = np.where(np.indices((4, 5))[0] % 2 == 0, 1.0, -1.0)
        assert np.allclose(kd.nu.values, expected)

    def test_black_gauge(self, koenigs_net_2d):
        kd1 = integrate_nu(koenigs_net_2d)
        kd2 = integrate_nu(koenigs_net_2d, ((0, 0), 3.0))
        parity = np.indices(koenigs_net_2d.extents).sum(axis=0) % 2
        ratio = kd2.nu.values / kd1.nu.values
        assert np.allclose(ratio[parity == 0], 3.0)
        assert np.allclose(ratio[parity == 1], 1.0)

    def test_recovers_generator_nu(self, koenigs_net_3d):
        net, nu_true, _ = koenigs_net_3d
        kd = integrate_nu(net)
        ratio = kd.nu.values / nu_true.values
        parity = np.indices(net.extents).sum(axis=0) % 2
        for p in (0, 1):
            vals = ratio[parity == p]
            assert np.abs(vals / vals.flat[0] - 1.0).max() <= 1e-9

    def test_wrong_parity_base_rejected(self, koenigs_net_2d):
        with pytest.raises(ValueError):
            integrate_nu(koenigs_net_2d, base_black=((1, 0), 1.0))

    def test_non_koenigs_rejected(self, koenigs_net_2d):
        bad = generate.perturb_in_plane(koenigs_net_2d, rng=np.random.default_rng(6))
        with pytest.raises(NotKoenigs):
            integrate_nu(bad)


class TestDualQuad:
    def test_unit_square(self):
        q = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        d = dualize_quad(q)
        assert dual_quad_residual(q, d) <= 1e-12
        # dual vertices sit along the original diagonal directions
        assert abs(np.dot(d[0], [1, 1])) <= 1e-12  # A* on the (1,-1) direction
        assert abs(np.dot(d[1], [1, -1])) <= 1e-12

    def test_double_dual_similar(self, rng):
        from conftest import random_planar_quad

        for _ in range(50):
            q = random_planar_quad(rng)
            dd = dualize_quad(dualize_quad(q))
            v1 = q - q.mean(axis=0)
            v2 = dd - dd.mean(axis=0)
            scale = float((v2 * v1).sum() / (v1 * v1).sum())
            assert np.allclose(v2, scale * v1, atol=1e-9 * np.abs(v2).max())

    def test_random_parallelism(self, rng):
        from conftest import random_planar_quad

        quads = np.stack([random_planar_quad(rng) for _ in range(100)]).reshape(10, 10, 4, 3)
        duals = dualize_quad(quads)
        assert duals.shape == quads.shape
        res = dual_quad_residual(quads, duals)
        assert res.shape == (10, 10) and res.max() <= 1e-9
        # the stack gives each quad the dual it gets alone, up to rounding: a
        # stack and a stack of one round differently on about 40 % of quads,
        # by at most 1.6e-13 of the dual's largest coordinate over 3,000
        # random_planar_quad draws (3.7e-13 over 30,000)
        alone = dualize_quad(quads[3, 7])
        assert np.abs(duals[3, 7] - alone).max() <= 1e-12 * np.abs(alone).max()

    def test_skew_guard_scales_with_the_diameter(self):
        # a crossed quad with diagonals of length 1 and sides near 100; D is
        # lifted by g off the plane of ABC, which leaves the centred quad
        # sigma_2 = 3.55e-3 g against sigma_0 near 100: rho = 3.57e-5 g
        def quad(g):
            return np.array([[0, 0, 0], [100, 0.5, 0], [1, 0, 0], [100, -0.5, g]], dtype=float)

        def net(g):  # the quad (f, f_1, f_12, f_2) as a 2 x 2 net
            return QNet(quad(g)[[0, 3, 1, 2]].reshape(2, 2, 3))

        assert quad_planarity(quad(1e-4)) == pytest.approx(3.57e-9, rel=1e-3)
        assert np.isfinite(dualize_quad(quad(1e-6))).all()  # rho 3.6e-11
        assert check_qnet(net(1e-6)).passed
        with pytest.raises(DegenerateQuad, match="skew diagonals"):
            dualize_quad(quad(1e-4))  # rho 3.6e-9
        assert not check_qnet(net(1e-4)).passed


class TestDualizeNet:
    def test_grid_mirror(self):
        g = generate.grid((4, 4))
        kd = integrate_nu(g, ((0, 0), 1.0), ((1, 0), -1.0))
        dual = dualize_net(g, kd)
        # nu nu_1 = -1 and nu nu_2 = +1: axis-1 edges flip, axis-2 edges keep
        d1 = dual.vertices[1:, :] - dual.vertices[:-1, :]
        e1 = g.vertices[1:, :] - g.vertices[:-1, :]
        d2 = dual.vertices[:, 1:] - dual.vertices[:, :-1]
        e2 = g.vertices[:, 1:] - g.vertices[:, :-1]
        assert np.allclose(d1, -e1)
        assert np.allclose(d2, e2)

    def test_per_quad_duality(self, koenigs_net_2d):
        kd = integrate_nu(koenigs_net_2d)
        dual = dualize_net(koenigs_net_2d, kd)
        quads, duals = gather_quads(koenigs_net_2d, 0, 1)[0], gather_quads(dual, 0, 1)[0]
        assert dual_quad_residual(quads, duals).max() <= 1e-9

    def test_involution(self, koenigs_net_2d):
        kd = integrate_nu(koenigs_net_2d)
        dual = dualize_net(koenigs_net_2d, kd)
        kd_dual = koenigs.KoenigsData(nu=qnet.VertexScalar(1.0 / kd.nu.values))
        back = dualize_net(dual, kd_dual)
        diff = back.vertices - koenigs_net_2d.vertices
        assert np.abs(diff - diff[0, 0]).max() <= 1e-8 * koenigs_net_2d.diameter()

    def test_diagonal_relations(self, koenigs_net_2d):
        # f*_ij - f* = a_ij (f_j - f_i)/(nu_i nu_j) and
        # f*_j - f*_i = (1/a_ij)(f_ij - f)/(nu nu_ij)
        net = koenigs_net_2d
        kd = integrate_nu(net)
        dual = dualize_net(net, kd)
        mn = moutard_lift(net, kd)
        nu = kd.nu.values
        a = mn.coeffs[(0, 1)]
        f, fs = net.vertices, dual.vertices
        def rel(lhs, rhs):
            scale = np.maximum(
                np.linalg.norm(lhs, axis=-1), np.linalg.norm(rhs, axis=-1)
            )
            return (np.linalg.norm(lhs - rhs, axis=-1) / scale).max()

        lhs1 = fs[1:, 1:] - fs[:-1, :-1]
        rhs1 = a[..., None] * (f[:-1, 1:] - f[1:, :-1]) / (nu[1:, :-1] * nu[:-1, 1:])[..., None]
        assert rel(lhs1, rhs1) <= 1e-9
        lhs2 = fs[:-1, 1:] - fs[1:, :-1]
        rhs2 = (f[1:, 1:] - f[:-1, :-1]) / (a * nu[:-1, :-1] * nu[1:, 1:])[..., None]
        assert rel(lhs2, rhs2) <= 1e-9

    def test_gauge_covariance(self, koenigs_net_2d):
        net = koenigs_net_2d
        d1 = dualize_net(net, integrate_nu(net))
        d2 = dualize_net(net, integrate_nu(net, ((0, 0), 2.0), ((1, 0, ), 3.0)))
        e1 = d1.vertices[1:, :] - d1.vertices[:-1, :]
        e2 = d2.vertices[1:, :] - d2.vertices[:-1, :]
        assert np.allclose(e2, e1 / 6.0)

    def test_closure_fails_on_non_koenigs(self, koenigs_net_2d):
        bad = generate.perturb_in_plane(koenigs_net_2d, rng=np.random.default_rng(7))
        kd = unchecked_nu(bad)
        with pytest.raises(NotKoenigs) as err:
            dualize_net(bad, kd)
        assert float(re.search(r"max residual (\S+) at", str(err.value))[1]) > 1e-3


class TestLaplace:
    """The discrete Laplace equation of nu, read from the Moutard report of the homogeneous lift, whose
    spatial defect is w_ij times the Laplace defect."""

    def test_moutard_net(self, koenigs_net_2d):
        rep = check_moutard(moutard_lift(koenigs_net_2d, integrate_nu(koenigs_net_2d)))
        assert rep.passed and rep.max_residual <= 1e-9

    def test_grid_zero(self):
        g = generate.grid((4, 4))
        kd = integrate_nu(g, ((0, 0), 1.0), ((1, 0), -1.0))
        assert check_moutard(moutard_lift(g, kd)).max_residual == pytest.approx(0.0, abs=1e-14)

    def test_perturbed(self, koenigs_net_2d):
        bad = generate.perturb_in_plane(koenigs_net_2d, rng=np.random.default_rng(8))
        rep = check_moutard(unchecked_homogeneous_lift(bad, unchecked_nu(bad).nu.values))
        assert not rep.passed and rep.max_residual >= 1e-3


class TestMoutard:
    def test_grid_lift_coefficient(self):
        g = generate.grid((3, 3))
        kd = integrate_nu(g, ((0, 0), 1.0), ((1, 0), -1.0))
        mn = moutard_lift(g, kd)
        assert mn.coeffs[(0, 1)][0, 0] == pytest.approx(-1.0)
        assert check_moutard(mn).max_residual <= 1e-14

    def test_round_trip(self, koenigs_net_2d):
        kd = integrate_nu(koenigs_net_2d)
        mn = moutard_lift(koenigs_net_2d, kd)
        net2, nu2 = mn.project_homogeneous()
        assert np.allclose(net2.vertices, koenigs_net_2d.vertices)
        assert np.allclose(nu2.values, kd.nu.values)

    def test_evolve_reproduces_grid_lift(self):
        g = generate.grid((4, 4))
        kd = integrate_nu(g, ((0, 0), 1.0), ((1, 0), -1.0))
        mn = moutard_lift(g, kd)
        evolved = moutard_evolve(
            {(0,): mn.points[:, 0], (1,): mn.points[0, :]}, {(0, 1): np.full((3, 3), -1.0)}
        )
        assert np.allclose(evolved.points, mn.points)

    def test_zero_coefficient_degenerates(self):
        y1 = np.array([[0, 0, 1], [1, 0.2, -1], [2, 0, 1]], dtype=float)
        y2 = np.array([[0, 0, 1], [0.2, 1, 1], [0, 2, 1]], dtype=float)
        mn = moutard_evolve({(0,): y1, (1,): y2}, {(0, 1): np.zeros((2, 2))})
        net, _ = mn.project_homogeneous()
        with pytest.raises(DegenerateQuad, match=r"quad base \(0, 0\) \(axes 0,1\): diagonals are parallel"):
            build_q_form(net)

    def test_infinity_flagged(self):
        # axis data forcing the last homogeneous component through zero
        y1 = np.array([[0, 0, 1], [1, 0, -1]], dtype=float)
        y2 = np.array([[0, 0, 1], [0, 1, 1]], dtype=float)
        mn = moutard_evolve({(0,): y1, (1,): y2}, {(0, 1): np.array([[-0.5]])})
        with pytest.raises(VanishingLastComponent):
            mn.project_homogeneous()

    def test_random_evolution_is_koenigs(self, rng):
        for _ in range(5):
            net = generate.random_koenigs_2d((7, 7), rng=rng)
            assert check_closedness(net).max_residual <= 1e-10


class TestGeometric2D:
    def test_positive(self, koenigs_net_2d):
        rep = check_koenigs_2d_geometric(koenigs_net_2d)
        assert rep.passed and rep.max_residual <= 1e-8

    def test_negative_agrees_with_closedness(self, koenigs_net_2d):
        bad = generate.perturb_in_plane(koenigs_net_2d, rng=np.random.default_rng(9))
        assert not check_koenigs_2d_geometric(bad).passed
        assert not check_closedness(bad).passed

    def test_r4_five_point_criterion(self):
        net = generate.random_koenigs_2d((6, 6), ambient_dim=4, rng=np.random.default_rng(10))
        rep = check_koenigs_2d_geometric(net)
        assert rep.passed

    def test_planar_vertices_excluded(self):
        rep = check_koenigs_2d_geometric(generate.grid((4, 4)))
        # every interior vertex of a flat grid violates the precondition
        assert rep.n_checked == 0 and list(rep.parts) == ["m_points"]
        assert rep.passed

    @pytest.mark.parametrize("extents", [(2, 5), (5, 2)])
    def test_net_without_interior_vertices(self, extents):
        rep = check_koenigs_2d_geometric(generate.grid(extents))
        assert rep.passed and rep.n_checked == 0 and rep.max_residual == 0.0 and rep.worst_at is None


class TestGeometric3D:
    def test_positive(self, koenigs_net_3d):
        net, _, _ = koenigs_net_3d
        rep = check_koenigs_3d_geometric(net)
        assert rep.passed and rep.max_residual <= 1e-9

    def test_black_iff_white(self, koenigs_net_3d):
        net, _, _ = koenigs_net_3d
        rep = check_koenigs_3d_geometric(net)
        assert rep.n_checked == (2 + 8) * 27  # black, white and eight corners per cube
        for (kind, _), (res, _) in rep.parts.items():
            assert kind == "corners" or np.all(res <= 1e-9)

    def test_negative(self):
        bad = generate.random_qnet_3d((3, 3, 3), rng=np.random.default_rng(11))
        rep = check_koenigs_3d_geometric(bad)
        assert not rep.passed
        assert not check_closedness(bad).passed


def _projective_image(net, rng, spread=0.02):
    """Image under a random projective map, redrawn if the image degenerates
    (a vertex or a diagonal intersection at infinity)."""
    from koenigsnets.errors import DegeneracyError

    while True:
        P = generate.random_projective(net.ambient_dim, rng=rng, spread=spread)
        try:
            img = generate.apply_projective(net, P)
            build_q_form(img)
        except DegeneracyError:
            continue
        return img


class TestProjectiveInvariance:
    def test_verdict_preserved(self, koenigs_net_2d, rng):
        for _ in range(10):
            img = _projective_image(koenigs_net_2d, rng)
            assert check_closedness(img).passed
            assert check_koenigs_2d_geometric(img).passed

    def test_negative_verdict_preserved(self, koenigs_net_2d, rng):
        bad = generate.perturb_in_plane(koenigs_net_2d, rng=np.random.default_rng(12))
        for _ in range(5):
            img = _projective_image(bad, rng)
            assert not check_closedness(img).passed


class TestLimitNormalization:
    def test_grid_axis0(self):
        g = generate.grid((4, 4))
        kd = integrate_nu(g, ((0, 0), 1.0), ((1, 0), -1.0))
        nup = normalize_nu_for_limit(kd, 0)
        assert np.allclose(nup.values, 1.0)

    def test_three_leg_net_positive(self, iso_net):
        kd = integrate_nu(iso_net.net)
        nup = normalize_nu_for_limit(kd, 1)
        assert np.all(nup.values > 0)

    def test_crossed_net_not_alternating(self):
        # a crossed quad has positive diagonal ratios, so nu keeps its sign
        # along the black diagonal and no axis switch can fix the parity
        v = np.empty((2, 2, 2))
        v[0, 0] = (0.0, 0.0)
        v[1, 0] = (2.0, 0.0)
        v[1, 1] = (0.5, 1.0)
        v[0, 1] = (1.5, 1.0)
        kd = integrate_nu(QNet(v))
        for axis in (0, 1):
            with pytest.raises(NotAlternating):
                normalize_nu_for_limit(kd, axis)

    def test_switched_equations(self, iso_net):
        # the plus-sign defect of the switched lift is -(-1)^(u_axis) times the minus-sign one, bit for bit
        kd = integrate_nu(iso_net.net)
        assert np.all(normalize_nu_for_limit(kd, 1).values > 0)
        mn = moutard_lift(iso_net.net, kd)
        assert check_moutard(mn).passed
        for axis in (0, 1):
            plus, minus = switched_defects(mn, axis)
            sign = np.where(np.indices(minus.shape[:-1])[axis] % 2 == 0, 1.0, -1.0)[..., None]
            assert np.any(minus != 0.0) and np.array_equal(plus, -sign * minus)
