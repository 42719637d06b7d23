import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_planar_quad
from koenigsnets.errors import (
    CollinearTriple,
    DegenerateQuad,
    GeneralPositionViolated,
    NotConcircular,
    NotPlanar,
    PointOffLine,
    VertexOnDiagonal,
    ZeroE0Component,
)
from koenigsnets.geom import (
    MinkowskiVec,
    PlanarQuad,
    Tolerances,
    affine_rank,
    circularity_residual,
    cross_ratio,
    diagonal_ratios,
    intersect_diagonals,
    is_convex,
    lift_to_lightcone,
    menelaus_product,
    minkowski_dot,
    project_from_lightcone,
    quad_circles,
)

UNIT_SQUARE = PlanarQuad([0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0])


class TestPlanarQuad:
    def test_nonplanar_rejected(self):
        with pytest.raises(NotPlanar):
            PlanarQuad([0, 0, 0], [1, 0, 0], [1, 1, 0.3], [0, 1, 0])

    def test_collinear_triple_rejected(self):
        with pytest.raises(CollinearTriple):
            PlanarQuad([0, 0], [1, 0], [2, 0], [0, 1])

    def test_valid_in_r3(self):
        q = PlanarQuad([0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1])
        assert q.diameter == pytest.approx(np.sqrt(2))


class TestIntersectDiagonals:
    def test_unit_square(self):
        m, t_ac, t_bd = intersect_diagonals(UNIT_SQUARE)
        assert np.allclose(m, [0.5, 0.5])
        assert t_ac == pytest.approx(0.5)
        assert t_bd == pytest.approx(0.5)

    def test_asymmetric_quad(self):
        # intersection of y=x with the segment from (1,0) to (0.25,1),
        # solved independently: x = 4/7
        q = PlanarQuad([0, 0], [1, 0], [1, 1], [0.25, 1])
        m, t_ac, t_bd = intersect_diagonals(q)
        assert np.allclose(m, [4 / 7, 4 / 7])
        assert t_ac == pytest.approx(4 / 7)
        assert t_bd == pytest.approx(4 / 7)

    def test_parallel_diagonals(self):
        # diagonals (AC) and (BD) are both horizontal
        with pytest.raises(DegenerateQuad):
            q = PlanarQuad([0, 0], [0.5, 1], [1, 0], [-0.5, 1])
            intersect_diagonals(q)


class TestDiagonalRatios:
    def test_unit_square(self):
        q_ac, q_bd = diagonal_ratios(UNIT_SQUARE)
        assert q_ac == pytest.approx(-1.0)
        assert q_bd == pytest.approx(-1.0)

    def test_asymmetric_quad(self):
        q = PlanarQuad([0, 0], [1, 0], [1, 1], [0.25, 1])
        _, q_bd = diagonal_ratios(q)
        assert q_bd == pytest.approx(-3 / 4)

    def test_vertex_on_diagonal(self):
        # diagonals meet within 1e-12 of vertex A; a tight plane tolerance
        # keeps the nearly-collinear triple (D, A, B) constructible
        m = np.array([1e-12, 0.0])
        s = np.array([0.3, -0.5])
        q = PlanarQuad([0, 0], m + s, [1, 0], m - 2 * s, plane_tolerance=1e-15)
        with pytest.raises(VertexOnDiagonal):
            diagonal_ratios(q)

    def test_reversal_inverts(self, rng):
        for _ in range(50):
            q = random_planar_quad(rng)
            q_ac, q_bd = diagonal_ratios(q)
            rev = PlanarQuad(q.c, q.b, q.a, q.d)
            r_ac, _ = diagonal_ratios(rev)
            assert r_ac == pytest.approx(1.0 / q_ac, rel=1e-9)

    def test_convexity_criterion(self, rng):
        for _ in range(100):
            q = random_planar_quad(rng)
            q_ac, q_bd = diagonal_ratios(q)
            assert (q_ac < 0 and q_bd < 0) == is_convex(q)

    def test_crossed_quad_positive_ratio(self, rng):
        for _ in range(50):
            q = random_planar_quad(rng, convex=False)
            q_ac, q_bd = diagonal_ratios(q)
            assert q_ac > 0 or q_bd > 0


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
    E0 = MinkowskiVec(spatial=np.zeros(2), e0=1.0, einf=0.0)
    EINF = MinkowskiVec(spatial=np.zeros(2), e0=0.0, einf=1.0)

    def test_basis_products(self):
        assert minkowski_dot(self.E0, self.EINF) == pytest.approx(-0.5)
        assert minkowski_dot(self.E0, self.E0) == 0.0
        assert minkowski_dot(self.EINF, self.EINF) == 0.0
        e1 = MinkowskiVec(spatial=np.array([1.0, 0.0]), e0=0.0, einf=0.0)
        assert minkowski_dot(e1, e1) == 1.0

    def test_lift_of_unit_point(self):
        y = lift_to_lightcone([1.0, 0.0])
        assert y.e0 == 1.0 and y.einf == 1.0
        assert minkowski_dot(y, y) == pytest.approx(0.0, abs=1e-15)

    def test_lift_three_four(self):
        y = lift_to_lightcone([3.0, 4.0])
        assert y.einf == 25.0
        assert minkowski_dot(y, y) == pytest.approx(0.0, abs=1e-12)

    def test_lift_origin(self):
        y = lift_to_lightcone([0.0, 0.0])
        assert y.e0 == 1.0 and y.einf == 0.0 and np.all(y.spatial == 0.0)

    def test_project_scaled(self):
        y = MinkowskiVec(spatial=np.array([2.0, 0.0]), e0=2.0, einf=2.0)
        s, f = project_from_lightcone(y)
        assert s == pytest.approx(0.5)
        assert np.allclose(f, [1.0, 0.0])

    def test_project_infinity(self):
        with pytest.raises(ZeroE0Component):
            project_from_lightcone(self.EINF)

    def test_round_trip(self, rng):
        for _ in range(50):
            f = rng.uniform(-10, 10, 3)
            scale = rng.uniform(0.1, 5.0)
            y = lift_to_lightcone(f)
            scaled = MinkowskiVec(y.spatial * scale, y.e0 * scale, y.einf * scale)
            s, f2 = project_from_lightcone(scaled)
            assert np.allclose(f2, f, atol=1e-12)
            assert s == pytest.approx(1.0 / scale, rel=1e-12)


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
        q = PlanarQuad(a, b, c, d)
        q_ac, _ = diagonal_ratios(q)
    except (NotPlanar, CollinearTriple, DegenerateQuad, VertexOnDiagonal):
        return
    assert q_ac == pytest.approx((1 - t) / (-t), rel=1e-9)


def test_tolerances_validation():
    with pytest.raises(ValueError):
        Tolerances(incidence=-1.0)
    with pytest.raises(ValueError):
        Tolerances(product=0.0)
