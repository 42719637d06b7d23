import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_planar_quad
from koenigsnets.errors import (
    DegenerateQuad,
    GeneralPositionViolated,
    NotConcircular,
    PointOffLine,
    VertexOnDiagonal,
    ZeroE0Component,
)
from koenigsnets.geom import (
    Tolerances,
    affine_rank,
    circularity_residual,
    cross_ratio,
    is_convex,
    lift_to_lightcone,
    menelaus_product,
    minkowski_dot,
    quad_circles,
    quad_diagonals,
)
from koenigsnets.isothermic import project_lightcone_net
from koenigsnets.koenigs import MoutardNet, dual_quad_residual, dualize_quad

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
ASYMMETRIC = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.25, 1.0]])


class TestPlanarQuad:
    """A quad is a (4, N) array; dualize_quad rejects those that are not
    planar quads with well-defined diagonals."""

    def test_nonplanar_rejected(self):
        with pytest.raises(DegenerateQuad, match="skew diagonals"):
            dualize_quad([[0, 0, 0], [1, 0, 0], [1, 1, 0.3], [0, 1, 0]])

    def test_collinear_triple_rejected(self):
        # B lies on the diagonal AC, so the diagonals meet at B
        with pytest.raises(VertexOnDiagonal):
            dualize_quad([[0, 0], [1, 0], [2, 0], [0, 1]])

    def test_valid_in_r3(self):
        q = np.array([[0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]], dtype=float)
        d = dualize_quad(q)
        assert d.shape == (4, 3)
        assert dual_quad_residual(q, d) <= 1e-15
        assert is_convex(q) and is_convex(d)


class TestIntersectDiagonals:
    def test_unit_square(self):
        diag = quad_diagonals(UNIT_SQUARE[None])
        assert np.allclose(diag.point, [[0.5, 0.5]])
        assert diag.t[0] == pytest.approx(0.5)
        assert diag.s[0] == pytest.approx(0.5)

    def test_asymmetric_quad(self):
        # intersection of y=x with the segment from (1,0) to (0.25,1),
        # solved independently: x = 4/7
        diag = quad_diagonals(ASYMMETRIC[None])
        assert np.allclose(diag.point, [[4 / 7, 4 / 7]])
        assert diag.t[0] == pytest.approx(4 / 7)
        assert diag.s[0] == pytest.approx(4 / 7)

    def test_parallel_diagonals(self):
        # diagonals (AC) and (BD) are both horizontal
        with pytest.raises(DegenerateQuad, match="parallel"):
            quad_diagonals(np.array([[[0, 0], [0.5, 1], [1, 0], [-0.5, 1]]]))


class TestDiagonalRatios:
    def test_unit_square(self):
        diag = quad_diagonals(UNIT_SQUARE[None])
        assert diag.q_ac[0] == pytest.approx(-1.0)
        assert diag.q_bd[0] == pytest.approx(-1.0)

    def test_asymmetric_quad(self):
        assert quad_diagonals(ASYMMETRIC[None]).q_bd[0] == pytest.approx(-3 / 4)

    def test_vertex_on_diagonal(self):
        # diagonals meet within 1e-12 of vertex A
        m = np.array([1e-12, 0.0])
        s = np.array([0.3, -0.5])
        with pytest.raises(VertexOnDiagonal):
            quad_diagonals(np.array([[[0, 0], m + s, [1, 0], m - 2 * s]]))

    def test_reversal_inverts(self, rng):
        quads = np.stack([random_planar_quad(rng) for _ in range(50)])
        q_ac = quad_diagonals(quads).q_ac
        r_ac = quad_diagonals(quads[:, [2, 1, 0, 3]]).q_ac
        assert np.allclose(r_ac, 1.0 / q_ac, rtol=1e-9, atol=0.0)

    def test_convexity_criterion(self, rng):
        quads = np.stack([random_planar_quad(rng) for _ in range(100)])
        diag = quad_diagonals(quads)
        assert np.array_equal((diag.q_ac < 0) & (diag.q_bd < 0), is_convex(quads))

    def test_crossed_quad_positive_ratio(self, rng):
        quads = np.stack([random_planar_quad(rng, convex=False) for _ in range(50)])
        diag = quad_diagonals(quads)
        assert np.all((diag.q_ac > 0) | (diag.q_bd > 0))


class TestIsConvex:
    def test_stack_matches_single_quads(self, rng):
        quads = np.stack([random_planar_quad(rng, ambient_dim=4) for _ in range(30)]).reshape(5, 6, 4, 4)
        got = is_convex(quads)
        assert got.shape == (5, 6)
        assert got.tolist() == [[bool(is_convex(q)) for q in row] for row in quads]

    def test_degenerate_quads_are_not_convex(self):
        quads = np.array([
            [[0, 0], [0, 0], [1, 1], [0, 1]],  # coincident first vertices: no frame
            [[0, 0], [1, 0], [2, 0], [3, 0]],  # all collinear: no frame
            [[0, 0], [1, 0], [2, 0], [0, 1]],  # a straight corner
            [[0, 0], [1e-200, 1e-200], [1, 2], [0, 1]],  # the first side's length underflows: no frame
        ], dtype=float)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert not is_convex(quads).any()


class TestAffineRank:
    def test_coplanar_points(self):
        pts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]
        assert affine_rank(pts) == 2

    def test_cube_vertices(self):
        pts = [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)]
        assert affine_rank(pts) == 3

    def test_collinear(self):
        assert affine_rank([[0, 0], [1, 1], [2, 2]]) == 1

    def test_single_point(self):
        assert affine_rank([[3, 4]]) == 0


class TestMenelaus:
    def test_triangle_cut_by_line(self):
        # triangle cut by the line y = x - 1/4
        verts = [[0, 0], [1, 0], [0, 1]]
        divs = [[0.25, 0.0], [5 / 8, 3 / 8], [0.0, -0.25]]
        assert menelaus_product(verts, divs) == pytest.approx(-1.0)

    def test_edge_midpoints(self):
        verts = [[0, 0], [1, 0], [0, 1]]
        divs = [[0.5, 0], [0.5, 0.5], [0, 0.5]]
        assert menelaus_product(verts, divs) == pytest.approx(1.0)

    def test_tetrahedron_plane_section(self, rng):
        # a random plane meets the 4-edge cycle of a tetrahedron in coplanar
        # points, so the product must be (-1)^4 = +1
        for _ in range(20):
            verts = rng.standard_normal((4, 3))
            if affine_rank(verts) != 3:
                continue
            normal = rng.standard_normal(3)
            offset = float(np.dot(normal, verts.mean(axis=0)))
            divs = []
            ok = True
            for i in range(4):
                p, q = verts[i], verts[(i + 1) % 4]
                denom = np.dot(normal, q - p)
                if abs(denom) < 1e-9:
                    ok = False
                    break
                t = (offset - np.dot(normal, p)) / denom
                if not 0.05 < t < 0.95:
                    ok = False
                    break
                divs.append(p + t * (q - p))
            if not ok:
                continue
            assert menelaus_product(verts, divs) == pytest.approx(1.0, abs=1e-8)

    def test_degenerate_vertices(self):
        with pytest.raises(GeneralPositionViolated):
            menelaus_product([[0, 0], [1, 1], [2, 2]], [[0.5, 0.5]] * 3)

    def test_off_line_point(self):
        verts = [[0, 0], [1, 0], [0, 1]]
        divs = [[0.5, 0.3], [0.5, 0.5], [0, 0.5]]
        with pytest.raises(PointOffLine):
            menelaus_product(verts, divs)


class TestCircularity:
    def test_unit_circle_points(self):
        assert circularity_residual([1, 0], [0, 1], [-1, 0], [0, -1]) == pytest.approx(0.0, abs=1e-15)

    def test_square(self):
        assert circularity_residual([0, 0], [1, 0], [1, 1], [0, 1]) == pytest.approx(0.0, abs=1e-15)

    def test_non_concircular(self):
        # circumcircle of the first three has center (0.5, 0.5); (0, 2) is off it
        assert circularity_residual([0, 0], [1, 0], [1, 1], [0, 2]) > 1e-3

    def test_scale_invariance(self, rng):
        pts = rng.standard_normal((4, 2))
        r1 = circularity_residual(*pts)
        r2 = circularity_residual(*(1e3 * pts))
        assert r1 == pytest.approx(r2, rel=1e-6)


class TestCrossRatio:
    def test_inscribed_square(self):
        s = np.sqrt(0.5)
        pts = [[s, s], [-s, s], [-s, -s], [s, -s]]
        assert cross_ratio(*pts) == pytest.approx(-1.0)

    def test_unit_lattice_quad(self):
        # a=0, b=1, c=1+i, d=i in plane coordinates
        assert cross_ratio([0, 0], [1, 0], [1, 1], [0, 1]) == pytest.approx(-1.0)

    def test_sign_tracks_embeddedness(self, rng):
        for _ in range(50):
            center = rng.standard_normal(2)
            r = rng.uniform(0.5, 2.0)
            angles = np.sort(rng.uniform(0, 2 * np.pi, 4))
            if np.min(np.diff(angles, append=angles[0] + 2 * np.pi)) < 0.2:
                continue
            pts = [center + r * np.array([np.cos(t), np.sin(t)]) for t in angles]
            assert cross_ratio(*pts) < 0  # cyclic order on the circle: embedded
            crossed = [pts[0], pts[2], pts[1], pts[3]]
            assert cross_ratio(*crossed) > 0

    def test_moebius_invariance(self, rng):
        for _ in range(30):
            angles = np.sort(rng.uniform(0, 2 * np.pi, 4))
            if np.min(np.diff(angles, append=angles[0] + 2 * np.pi)) < 0.2:
                continue
            pts = np.stack([np.cos(angles), np.sin(angles)], axis=1) + np.array([2.5, 0.5])
            cr = cross_ratio(*pts)
            # similarity
            rot = np.array([[0.6, -0.8], [0.8, 0.6]]) * 1.7
            sim = pts @ rot.T + np.array([3.0, -1.0])
            assert cross_ratio(*sim) == pytest.approx(cr, rel=1e-8)
            # inversion in the unit circle (origin is off the circle)
            inv = pts / (pts**2).sum(axis=1, keepdims=True)
            assert cross_ratio(*inv) == pytest.approx(cr, rel=1e-8)

    def test_rejects_non_concircular(self):
        with pytest.raises(NotConcircular):
            cross_ratio([0, 0], [1, 0], [1, 1], [0, 2])


def _mp_circle(quad):
    """50-digit reference: (circularity residual, real cross-ratio) of one
    planar quad, from the same double inputs."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        pts = [[mpmath.mpf(float(x)) for x in p] for p in quad]
        rel = [[x - o for x, o in zip(p, pts[0])] for p in pts]

        def dot(a, b):
            return mpmath.fsum(x * y for x, y in zip(a, b))

        u = [x / mpmath.sqrt(dot(rel[1], rel[1])) for x in rel[1]]
        w = [x - dot(rel[2], u) * y for x, y in zip(rel[2], u)]
        v = [x / mpmath.sqrt(dot(w, w)) for x in w]
        z = [mpmath.mpc(dot(p, u), dot(p, v)) for p in rel]
        rows = mpmath.matrix([[c.real, c.imag, abs(c) ** 2, 1] for c in z])
        diam = max(abs(z[a] - z[b]) for a in range(4) for b in range(a + 1, 4))
        cr = (z[0] - z[1]) / (z[1] - z[2]) * (z[2] - z[3]) / (z[3] - z[0])
        return float(abs(mpmath.det(rows)) / diam**4), float(cr.real)


def _random_circle_quads(rng, n, concircular):
    """Quads on (or, with random radii, off) random circles in R^3, corners
    at least 0.3 rad apart."""
    quads = []
    while len(quads) < n:
        angles = np.sort(rng.uniform(0.0, 2 * np.pi, 4))
        if np.min(np.diff(angles, append=angles[0] + 2 * np.pi)) < 0.3:
            continue
        frame, _ = np.linalg.qr(rng.standard_normal((3, 2)))
        radii = rng.uniform(0.5, 2.0) * (np.ones(4) if concircular else rng.uniform(0.5, 1.5, 4))
        circle = np.stack([np.cos(angles), np.sin(angles)], axis=1) * radii[:, None]
        quads.append(rng.standard_normal(3) + circle @ frame.T)
    return np.stack(quads)


class TestQuadCircles:
    def test_cross_ratios_match_high_precision(self, rng):
        quads = _random_circle_quads(rng, 40, concircular=True)
        out = quad_circles(quads)
        assert np.all(out.error == 0)
        ref = np.array([_mp_circle(q) for q in quads])
        # the residual is dimensionless, and both read rounding noise here
        assert np.abs(out.residual).max() <= 1e-12 and np.abs(ref[:, 0]).max() <= 1e-12
        assert np.all(np.abs(out.cross_ratio - ref[:, 1]) <= 1e-12 * np.abs(ref[:, 1]))

    def test_residuals_match_high_precision(self, rng):
        quads = _random_circle_quads(rng, 40, concircular=False)
        out = quad_circles(quads)
        ref = np.array([_mp_circle(q)[0] for q in quads])
        assert np.all(ref > 1e-6)
        assert np.all(np.abs(out.residual - ref) <= 1e-12 * ref)
        assert np.all(out.error == 4)  # not concircular

    def test_scalar_wrappers_are_a_batch_of_one(self, rng):
        quads = _random_circle_quads(rng, 5, concircular=True)
        out = quad_circles(quads)
        for q, res, cr in zip(quads, out.residual, out.cross_ratio):
            assert circularity_residual(*q) == pytest.approx(res, rel=1e-12, abs=1e-15)
            assert cross_ratio(*q) == pytest.approx(cr, rel=1e-12)


class TestMinkowski:
    E0 = np.array([0.0, 0.0, 1.0, 0.0])
    EINF = np.array([0.0, 0.0, 0.0, 1.0])

    def test_basis_products(self):
        assert minkowski_dot(self.E0, self.EINF) == pytest.approx(-0.5)
        assert minkowski_dot(self.E0, self.E0) == 0.0
        assert minkowski_dot(self.EINF, self.EINF) == 0.0
        assert minkowski_dot([1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]) == 1.0
        # a stack against one vector
        assert minkowski_dot(np.stack([self.E0, self.EINF]), self.EINF).tolist() == [-0.5, 0.0]

    def test_lift_of_unit_point(self):
        y = lift_to_lightcone([1.0, 0.0])
        assert y.tolist() == [1.0, 0.0, 1.0, 1.0]
        assert minkowski_dot(y, y) == pytest.approx(0.0, abs=1e-15)

    def test_lift_three_four(self):
        y = lift_to_lightcone([3.0, 4.0])
        assert y[-1] == 25.0
        assert minkowski_dot(y, y) == pytest.approx(0.0, abs=1e-12)

    def test_lift_origin(self):
        y = lift_to_lightcone([0.0, 0.0])
        assert y.tolist() == [0.0, 0.0, 1.0, 0.0]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_lift_rounds_as_numpy_dot(self, rng, n):
        # |f|^2 must round exactly as np.dot does: (f * f).sum(-1) differs
        # in the last bit on some rows, which changes generated nets
        f = rng.standard_normal((400, n)) * 10.0 ** rng.integers(-3, 4, (400, 1))
        y = lift_to_lightcone(f)
        assert y.shape == (400, n + 2)
        assert np.all(y[:, -1] == np.array([np.dot(p, p) for p in f]))
        assert np.all(y[:, :n] == f) and np.all(y[:, n] == 1.0)
        stacked = lift_to_lightcone(f.reshape(20, 20, n))
        assert np.array_equal(stacked, y.reshape(20, 20, n + 2))

    def test_project_scaled(self):
        # y = 2 (f + e_0 + |f|^2 e_inf) on a unit square f: s = 1/2
        f = np.array([[[0.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [1.0, 1.0]]])
        iso = project_lightcone_net(MoutardNet(2.0 * lift_to_lightcone(f), {}, lightcone=True))
        assert np.allclose(iso.metric.values, 0.5)
        assert np.allclose(iso.net.vertices, f)

    def test_project_infinity(self):
        y = lift_to_lightcone(np.array([[[0.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [1.0, 1.0]]]))
        y[1, 1] = self.EINF
        with pytest.raises(ZeroE0Component):
            project_lightcone_net(MoutardNet(y, {}, lightcone=True))

    def test_round_trip(self, rng):
        f = rng.uniform(-10, 10, (5, 6, 3))
        scale = rng.uniform(0.1, 5.0, (5, 6))
        iso = project_lightcone_net(MoutardNet(lift_to_lightcone(f) * scale[..., None], {}, lightcone=True))
        assert np.allclose(iso.net.vertices, f, atol=1e-12)
        assert np.allclose(iso.metric.values, 1.0 / scale, rtol=1e-12, atol=0.0)


@settings(max_examples=50, deadline=None)
@given(
    t=st.floats(min_value=0.05, max_value=0.95).filter(lambda t: abs(t - 0.5) > 0.01),
    skew=st.floats(min_value=-0.3, max_value=0.3),
)
def test_ratio_formula_property(t, skew):
    # quad built so the diagonal intersection sits at a prescribed parameter
    a = np.array([0.0, 0.0])
    c = np.array([1.0, 0.0])
    m = a + t * (c - a)
    s = np.array([skew, -0.5])
    b = m + s
    d = m - 1.4 * s  # B, M, D collinear, so the diagonals meet at M
    try:
        q_ac = quad_diagonals(np.stack([a, b, c, d])[None]).q_ac[0]
    except (DegenerateQuad, VertexOnDiagonal):
        return
    assert q_ac == pytest.approx((1 - t) / (-t), rel=1e-9)


def test_tolerances_validation():
    with pytest.raises(ValueError):
        Tolerances(incidence=-1.0)
    with pytest.raises(ValueError):
        Tolerances(product=0.0)
