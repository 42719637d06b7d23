import warnings
from itertools import combinations, permutations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gather_quads, random_planar_quad
from koenigsnets import qnet
from koenigsnets.errors import (
    CoincidentPoints,
    CollinearTriple,
    DegenerateQuad,
    GeneralPositionViolated,
    InvalidValue,
    NotConcircular,
    PointOffLine,
    VertexOnDiagonal,
    ZeroE0Component,
)
from koenigsnets.geom import (
    Tolerances,
    is_convex,
    lift_to_lightcone,
    menelaus_product,
    minkowski_dot,
    quad_circles,
    quad_diagonals,
    quad_planarity,
    raise_quad_error,
    span_residual,
)
from koenigsnets.isothermic import project_lightcone_net
from koenigsnets.koenigs import MoutardNet, dual_quad_residual, dualize_quad
from koenigsnets.qnet import QNet, check_qnet

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
        ], dtype=float)
        tiny_side = np.array([[0, 0], [1e-200, 1e-200], [1, 2], [0, 1]], dtype=float)  # turns left at every corner
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert not is_convex(quads).any()
            assert is_convex(tiny_side)  # the frame is scaled, so the tiny first side does not underflow


def _affine_rank(points, tol=1e-9):
    """The least r whose span residual of the centred points is at most tol."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return next(r for r in range(min(pts.shape) + 1) if span_residual(pts - pts.mean(axis=0), r) <= tol)


class TestAffineRank:
    def test_coplanar_points(self):
        pts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]
        assert _affine_rank(pts) == 2

    def test_cube_vertices(self):
        pts = [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)]
        assert _affine_rank(pts) == 3

    def test_collinear(self):
        assert _affine_rank([[0, 0], [1, 1], [2, 2]]) == 1

    def test_single_point(self):
        assert _affine_rank([[3, 4]]) == 0


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
            if _affine_rank(verts) != 3:
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

    @staticmethod
    def _cycles(rng, n, count):
        """``count`` simplices (count, n + 1, n) cut by random hyperplanes, and their division points,
        each at least 0.05 of its edge away from both endpoints."""
        verts, divs = [], []
        while len(verts) < count:
            v = rng.standard_normal((n + 1, n))
            normal, edge = rng.standard_normal(n), np.roll(v, -1, axis=0) - v
            t = (normal @ v.mean(axis=0) - v @ normal) / (edge @ normal)
            if _affine_rank(v) == n and np.all(np.minimum(np.abs(t), np.abs(1 - t)) > 0.05):
                verts.append(v)
                divs.append(v + t[:, None] * edge)
        return np.array(verts), np.array(divs)

    @staticmethod
    def _loop(verts, divs):
        """The product of the ratios, point by point."""
        product = 1.0
        for i, (p, d) in enumerate(zip(verts, divs)):
            edge = verts[(i + 1) % len(verts)] - p
            xi = float(np.dot(d - p, edge) / np.dot(edge, edge))
            product *= xi / (1.0 - xi)
        return product

    @pytest.mark.parametrize("n", [2, 3])
    def test_stack_reads_each_cycle_alone(self, rng, n):
        verts, divs = self._cycles(rng, n, 40)
        stacked = menelaus_product(verts.reshape(5, 8, n + 1, n), divs.reshape(5, 8, n + 1, n))
        alone = [menelaus_product(v, d) for v, d in zip(verts, divs)]
        assert stacked.shape == (5, 8) and all(np.ndim(p) == 0 for p in alone)
        assert np.array_equal(stacked.ravel(), alone)
        assert np.allclose(alone, [self._loop(v, d) for v, d in zip(verts, divs)], rtol=1e-12, atol=0.0)
        assert np.allclose(alone, (-1.0) ** (n + 1), rtol=1e-8, atol=0.0)

    def test_stack_names_the_first_failing_cycle(self, rng):
        verts, divs = self._cycles(rng, 2, 4)
        divs[1, 2] += [0.0, 0.5] if abs(verts[1, 0, 0] - verts[1, 2, 0]) > 0.1 else [0.5, 0.0]  # off its line
        verts[2, 1] = verts[2, 0]  # degenerate, later
        with pytest.raises(PointOffLine, match=r"^cycle 1: division point 2 is off its line by "):
            menelaus_product(verts, divs)
        with pytest.raises(GeneralPositionViolated, match=r"^cycle 0: vertices do not span"):
            menelaus_product(verts[2:], divs[2:])

    def test_one_cycle_messages(self):
        verts = [[0, 0], [1, 0], [0, 1]]
        with pytest.raises(PointOffLine, match=r"^division point 0 is off its line by 3\.000e-01$"):
            menelaus_product(verts, [[0.5, 0.3], [0.5, 0.5], [0, 0.5]])
        with pytest.raises(PointOffLine, match=r"^division point 1 coincides with an endpoint$"):
            menelaus_product(verts, [[0.5, 0], [1, 0], [0, 0.5]])


def _one_quad(quad, upto):
    """quad_circles of one quad (4, N), raising the error of its first failed predicate 1..upto."""
    circles = quad_circles(np.asarray(quad, dtype=float)[None])
    raise_quad_error(circles, upto)
    return circles


def circularity_residual(*quad):
    """The circularity residual of one quad, as geom.quad_circles computes it."""
    return float(_one_quad(quad, 3).residual[0])


def cross_ratio(*quad):
    """The real cross-ratio of one quad, as geom.quad_circles computes it."""
    return float(_one_quad(quad, 6).cross_ratio[0])


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
    planar quad, from the same double inputs, in the frame of a, b and the
    later corner farthest from the line ab."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        pts = [[mpmath.mpf(float(x)) for x in p] for p in quad]
        rel = [[x - o for x, o in zip(p, pts[0])] for p in pts]

        def dot(a, b):
            return mpmath.fsum(x * y for x, y in zip(a, b))

        u = [x / mpmath.sqrt(dot(rel[1], rel[1])) for x in rel[1]]
        rests = [[x - dot(p, u) * y for x, y in zip(p, u)] for p in rel[2:]]
        w = max(rests, key=lambda r: dot(r, r))  # from c, or from d where c lies on the line ab
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


def _placements(quad, rng):
    """A quad (4, 2) of the plane as it is, and moved into R^3 by a random rotation and translation."""
    flat = np.asarray(quad, dtype=float)
    rot = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    return [flat, np.pad(flat, ((0, 0), (0, 1))) @ rot.T + rng.uniform(-10.0, 10.0, 3)]


class TestFrameDegeneracies:
    """quad_circles where a quad's diagonal frame degenerates: its e_2 where the diagonals are parallel,
    its e_1 where a == c; each quad in the plane and moved into R^3."""

    def test_parallel_diagonals_on_a_circle(self, rng):
        for quad in _placements([[-0.6, 0.8], [0.8, -0.6], [0.6, 0.8], [-0.8, -0.6]], rng):
            out = quad_circles(quad[None])
            residual, cr = _mp_circle(quad)
            assert out.error[0] == 0 and out.residual[0] <= 1e-12 and residual <= 1e-12
            assert cr == pytest.approx(1.96, rel=1e-12)
            assert abs(out.cross_ratio[0] - cr) <= 1e-12 * cr

    CASES = {
        "a == c": ([[0.3, 0.7], [1.1, 0.2], [0.3, 0.7], [0.1, -0.9]], 2, CoincidentPoints, "coincident points"),
        "c == d": ([[0.1, 0.2], [1.3, 0.7], [0.7, 1.9], [0.7, 1.9]], 5, CoincidentPoints, "consecutive points"),
        "collinear": ([[0.1, 0.3], [0.52, 0.86], [1.24, 1.82], [0.88, 1.34]], 3, CollinearTriple, "collinear"),
        "b on ac": ([[0.1, 0.3], [0.52, 0.86], [1.24, 1.82], [-0.4, 1.1]], 4, NotConcircular, "not concircular"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_first_failing_predicate(self, case, rng):
        quad, error, cls, message = self.CASES[case]
        for pts in _placements(quad, rng):
            assert quad_circles(pts[None]).error[0] == error
            with pytest.raises(cls, match=message):
                _one_quad(pts, 6)

    def test_b_on_ac_reads_its_residual(self, rng):
        # the frame's line is ac, so b on it leaves the frame well defined
        for pts in _placements(self.CASES["b on ac"][0], rng):
            ref = _mp_circle(pts)[0]
            assert abs(quad_circles(pts[None]).residual[0] - ref) <= 1e-12 * ref


def test_quad_circles_round_the_same_in_any_layout(iso_net, rng):
    # the same quads stored as (4, N, Q) and as (Q, 4, N) memory
    quads = np.concatenate([gather_quads(iso_net.net, 0, 1)[0], _random_circle_quads(rng, 40, True),
                            _random_circle_quads(rng, 40, False)])
    coordinate_major = np.ascontiguousarray(np.moveaxis(quads, 0, -1))
    one, other = quad_circles(np.ascontiguousarray(quads)), quad_circles(np.moveaxis(coordinate_major, -1, 0))
    assert all(np.array_equal(a, b) for a, b in zip(one, other))
    assert np.array_equal(is_convex(quads), is_convex(np.moveaxis(coordinate_major, -1, 0)))


def _planarity_quads(rng, n, dim, lift):
    """Random quads in the plane of the first two coordinates of R^dim, D
    lifted by ``lift`` (times the quad's size) along the third, then, if
    lifted, put into general position by a random rotation and translation."""
    quads = np.zeros((n, 4, dim))
    quads[..., :2] = rng.standard_normal((n, 4, 2))
    if lift:
        quads[:, 3, 2] = lift * np.abs(quads[..., :2]).max(axis=(1, 2))
        rot = np.linalg.qr(rng.standard_normal((n, dim, dim)))[0]
        quads = quads @ rot + rng.standard_normal((n, 1, dim))
    return quads


class TestQuadPlanarity:
    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    @pytest.mark.parametrize("scale", [1e-170, 1.0, 1e170])
    def test_matches_high_precision(self, dim, scale):
        rng = np.random.default_rng(31)
        for lift in ([0.0] if dim == 2 else [0.0, 1e-3, 0.1, 1.0]):
            quads = _planarity_quads(rng, 20, dim, lift) * scale
            got = quad_planarity(quads)
            ref = np.array([_mp_span_residual(q - q.mean(axis=0), 2) for q in quads])
            if lift == 0.0:  # exactly planar in the coordinates; the reference reads its own rounding
                assert np.all(got == 0.0) and np.all(ref <= 1e-20)
            else:  # 1e-12 relative, and the rounding of the rows at the quad's size; measured 0.09 of it
                assert np.all(ref > 0.0)
                assert np.all(np.abs(got - ref) <= 1e-12 * ref + 2 * np.finfo(float).eps)

    def test_bounds_the_singular_value_ratio(self):
        rng = np.random.default_rng(32)
        # sigma_2 / sigma_0 / 3 <= rho <= sigma_2 / sigma_0, and rho >= sigma_2 / (sqrt(2) sigma_0) to first
        # order near coplanarity
        quads = [rng.standard_normal((4000, 4, dim)) for dim in (3, 4, 5)]
        thin = rng.standard_normal((4000, 4, 3)) * [1.0, 1e-3, 1e-2]
        flat = [rng.standard_normal((4000, 4, 3)) * size for size in ([1.0, 1.0, 1e-5], [1.0, 1e-3, 1e-5])]
        crossed = np.array([[0, 0, 0], [100, 0.5, 0], [1, 0, 0], [100, -0.5, 0]]) + rng.standard_normal((4000, 4, 3))
        n_near = 0
        for stack in quads + flat + [thin, crossed]:
            sv = np.linalg.svd(stack - stack.mean(axis=1, keepdims=True), compute_uv=False)
            ratio = sv[:, 2] / sv[:, 0]
            rho = quad_planarity(stack)[ratio > 1e-7]
            ratio = ratio[ratio > 1e-7]
            assert len(ratio) > 3000
            assert np.all(ratio / 3 <= rho) and np.all(rho <= ratio)
            near = ratio <= 1e-4
            n_near += near.sum()
            assert np.all((1 - 1e-6) * ratio[near] / np.sqrt(2) <= rho[near])
        assert n_near > 7000  # the flat stacks

    def test_matches_the_span_residual_of_its_rows(self):
        # the frame's closed form against span_residual's minors of the same three rows, on the stacks of
        # test_bounds_the_singular_value_ratio: measured within 1.7e-16 absolute
        rng = np.random.default_rng(34)
        stacks = [rng.standard_normal((4000, 4, dim)) for dim in (3, 4, 5)]
        stacks += [rng.standard_normal((4000, 4, 3)) * size for size in ([1.0, 1e-3, 1e-2], [1.0, 1.0, 1e-5],
                                                                          [1.0, 1e-3, 1e-5])]
        stacks.append(np.array([[0, 0, 0], [100, 0.5, 0], [1, 0, 0], [100, -0.5, 0]])
                      + rng.standard_normal((4000, 4, 3)))
        for stack in stacks:
            a, b, c, d = np.moveaxis(stack, -2, 0)
            ref = span_residual(np.stack([c - a, d - b, (b - a + (d - c)) * np.sqrt(0.5)], axis=-2), 2)
            assert np.all(np.abs(quad_planarity(stack) - ref) <= 1e-13 * ref + 2 * np.finfo(float).eps)

    def test_each_quad_of_a_mixed_scale_stack_reads_as_alone(self):
        # every quad is scaled by its own power of two, so no fourth or sixth power over- or underflows
        unit = np.random.default_rng(35).standard_normal((30, 4, 3))
        quads = unit * np.array([2.0**500, 2.0**-500, 1.0] * 10)[:, None, None]
        rho = quad_planarity(quads)
        assert np.array_equal(rho, quad_planarity(unit)) and np.all(np.isfinite(rho))
        alone = np.array([quad_planarity(q) for q in quads])  # a lone quad sums its coordinates in the same order
        assert np.array_equal(rho, alone)

    def test_coplanar_diagonals_read_zero(self):
        quads = np.array([
            [[1, 2, 3], [0, 1, 5], [1, 2, 3], [4, -1, 2]],  # A = C
            [[1, 2, 3], [0, 1, 5], [4, -1, 2], [0, 1, 5]],  # B = D
            [[0, 0, 0], [5, -1, 2], [1, 2, 3], [7, 3, 8]],  # D - B = 2 (C - A)
        ], dtype=float)
        assert np.array_equal(quad_planarity(quads), [0.0, 0.0, 0.0])

    def test_nan_reaches_check_qnet_at_its_quad(self, iso_net, monkeypatch):
        gather = qnet._stack_quads

        def with_nan(net):  # one coordinate of the vertex C of quad 7 is NaN
            abcd, pairs = gather(net)
            abcd[2, 1, 7] = np.nan
            return abcd, pairs

        clean = check_qnet(QNet(iso_net.net.vertices))
        monkeypatch.setattr(qnet, "_stack_quads", with_nan)
        rep = check_qnet(QNet(iso_net.net.vertices))
        (res, at), (ref, _) = rep.parts[(0, 1)], clean.parts[(0, 1)]
        assert not rep.passed and np.isnan(rep.max_residual) and rep.worst_at == ((0, 1), tuple(at[7]))
        assert np.array_equal(np.delete(res, 7), np.delete(ref, 7))

    def test_symmetric_and_shaped_like_the_stack(self):
        quads = np.random.default_rng(33).standard_normal((3, 5, 4, 3))
        rho = quad_planarity(quads)
        assert rho.shape == (3, 5)
        for perm in permutations(range(4)):  # measured within 6.9e-15
            assert np.allclose(quad_planarity(quads[..., perm, :]), rho, rtol=1e-13, atol=0)

    def test_degenerate_quads(self):
        collinear = np.array([[0.0, 0, 0], [1, 1, 1], [2, 2, 2], [3, 3, 3]])
        assert quad_planarity(collinear) == 0.0 and quad_planarity(np.zeros((4, 3))) == 0.0
        nan = collinear.copy()
        nan[0, 0] = np.nan
        assert np.isnan(quad_planarity(nan))


# (rows, columns, rank) of the span tests: the 2D geometric "kept" star and corner triples, the in-sphere
# matrix, the hexahedra, the five-point "vertices" star for N = 4
SPAN_SHAPES = [(5, 3, 2), (4, 4, 3), (4, 5, 3), (3, 3, 1), (5, 4, 3)]


def _span_stacks(rng, n, k, m, r, decades):
    """n matrices (k, m) with r singular values in [0.3, 1] and the rest 10^-u times [0.3, 1], u uniform in
    [0, decades]."""
    p = min(k, m)
    sv = np.concatenate([rng.uniform(0.3, 1.0, (n, r)), rng.uniform(0.3, 1.0, (n, p - r))
                         * 10.0 ** -rng.uniform(0.0, decades, (n, 1))], axis=1)
    left, right = (np.linalg.qr(rng.standard_normal((n, d, p)))[0] for d in (k, m))
    return np.einsum("vkp,vp,vmp->vkm", left, sv, right)


def _mp_span_residual(matrix, rank):
    """40-digit span_residual from the singular values of the same double matrix: |^s A|^2 = e_s(sigma^2)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        sq = [x**2 for x in mpmath.svd_r(mpmath.matrix(matrix.tolist()), compute_uv=False)]

        def e(s):
            return mpmath.fsum(mpmath.fprod(c) for c in combinations(sq, s))

        return float(mpmath.sqrt(e(rank + 1) / (e(rank) * e(1))))


class TestSpanResidual:
    @pytest.mark.parametrize("scale", [1e-170, 1.0, 1e170])
    @pytest.mark.parametrize("k, m, r", SPAN_SHAPES)
    def test_matches_high_precision(self, k, m, r, scale):
        # residuals from 1 down to 1e-8; measured within 0.25 eps absolute
        stacks = _span_stacks(np.random.default_rng(k * 100 + m * 10 + r), 20, k, m, r, 8) * scale
        got = span_residual(stacks, r)
        ref = np.array([_mp_span_residual(a, r) for a in stacks])
        assert np.all(np.abs(got - ref) <= 1e-12 * ref + np.finfo(float).eps)

    def test_bounds_the_singular_value_ratio(self):
        # within [1 / sqrt(p C(p, r)), sqrt(C(p, r + 1))] sigma_r / sigma_0 on 20,000 stacks; measured at
        # least 1.07 times the lower end and at most 0.96 times the upper one
        rng = np.random.default_rng(41)
        for k, m, r in SPAN_SHAPES:
            stacks = _span_stacks(rng, 4000, k, m, r, 6.4)  # sigma_r / sigma_0 >= 0.3 * 10**-6.4 > 1e-7
            sv = np.linalg.svd(stacks, compute_uv=False)
            ratio = sv[:, r] / sv[:, 0]
            res, ratio = span_residual(stacks, r)[ratio > 1e-7], ratio[ratio > 1e-7]
            assert len(ratio) == 4000
            p = min(k, m)
            assert np.all(res >= ratio / np.sqrt(p * comb(p, r))) and np.all(res <= ratio * np.sqrt(comb(p, r + 1)))

    @pytest.mark.parametrize("k, m, r", SPAN_SHAPES)
    def test_rank_deficient_stacks(self, k, m, r):
        rng = np.random.default_rng(42)
        stacks = rng.standard_normal((20000, k, r)) @ rng.standard_normal((20000, r, m))
        assert np.all(span_residual(stacks, r) <= 1e-14)
        assert np.all(span_residual(stacks, r - 1) > 1e-14)

    def test_nan_zero_and_small_matrices(self):
        stacks = np.random.default_rng(43).standard_normal((3, 2, 4, 4))
        stacks[1, 0, 2, 3] = np.nan
        res = span_residual(stacks, 3)
        assert res.shape == (3, 2) and np.isnan(res[1, 0]) and np.isfinite(np.delete(res.ravel(), 2)).all()
        assert span_residual(np.zeros((2, 4, 4)), 3).tolist() == [0.0, 0.0]
        assert span_residual(np.ones((2, 3, 3)), 3).tolist() == [0.0, 0.0]  # no 4 x 4 minor
        assert span_residual(np.ones((3, 5)), 0) == 1.0


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
        iso = project_lightcone_net(MoutardNet(2.0 * lift_to_lightcone(f), {}))
        assert np.allclose(iso.metric.values, 0.5)
        assert np.allclose(iso.net.vertices, f)

    def test_project_infinity(self):
        y = lift_to_lightcone(np.array([[[0.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [1.0, 1.0]]]))
        y[1, 1] = self.EINF
        with pytest.raises(ZeroE0Component, match=r"^vertex \(1, 1\): net passes through the point at infinity$"):
            project_lightcone_net(MoutardNet(y, {}))

    def test_round_trip(self, rng):
        f = rng.uniform(-10, 10, (5, 6, 3))
        scale = rng.uniform(0.1, 5.0, (5, 6))
        iso = project_lightcone_net(MoutardNet(lift_to_lightcone(f) * scale[..., None], {}))
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
    for field in ("incidence", "product"):
        for value in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(InvalidValue, match="finite and strictly positive"):
                Tolerances(**{field: value})
    # sin^2 of the diagonals' angle is at most 1, so at incidence >= 1 no quad could pass
    for value in (1.0, 2.0, 1e300):
        with pytest.raises(InvalidValue, match="incidence below 1"):
            Tolerances(incidence=value)
    Tolerances(incidence=0.999, product=1e300)
