"""The float64 diagonal kernel (geom.quad_diagonals) against a 40-digit
oracle and against the long-double computation it replaces, kept here as a
reference; and the per-net memo of the coplanarity residuals, the diagonal
form and the circles."""
from itertools import combinations, permutations

import mpmath
import numpy as np
import pytest

from conftest import gather_quads
from koenigsnets import generate, geom, isothermic, koenigs, qnet
from koenigsnets.errors import DegenerateQuad, GeometryError, NotPlanar, VertexOnDiagonal
from koenigsnets.geom import Tolerances, _diagonals, _frame_circles, quad_circles, quad_diagonals, quad_planarity
from koenigsnets.koenigs import _build_q_form, build_q_form, check_closedness
from koenigsnets.qnet import QNet, _base, _quad_at, check_qnet

TOL = Tolerances()

# --- references -----------------------------------------------------------------


def longdouble_diag_data(net, i, j, tol):
    """The diagonal intersections as computed before the float64 kernel:
    normal equations in np.longdouble.  Returns (m, q_main, q_cross)."""
    pts, shape = gather_quads(net, i, j)
    bases = [_base(shape, k) for k in range(len(pts))]
    pts = pts.astype(np.longdouble)
    a, b, c, d = pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3]
    u = c - a
    v = d - b
    uu = (u * u).sum(axis=1)
    vv = (v * v).sum(axis=1)
    uv = (u * v).sum(axis=1)
    det = uu * vv - uv * uv
    bad = det <= tol.incidence * uu * vv
    if np.any(bad):
        raise DegenerateQuad(f"quad base {bases[int(np.argmax(bad))]} (axes {i},{j}): diagonals are parallel "
                             "(intersection at infinity)")
    w = b - a
    wu = (w * u).sum(axis=1)
    wv = (w * v).sum(axis=1)
    t = (vv * wu - uv * wv) / det
    s = (uv * wu - uu * wv) / det
    p1 = a + t[:, None] * u
    p2 = b + s[:, None] * v
    diam = np.sqrt(np.maximum(uu, vv))
    resid = np.linalg.norm(p1 - p2, axis=1)
    bad = resid > tol.incidence * diam
    if np.any(bad):
        raise DegenerateQuad(f"quad base {bases[int(np.argmax(bad))]} (axes {i},{j}): skew diagonals")
    near = np.minimum(np.minimum(np.abs(t), np.abs(1 - t)), np.minimum(np.abs(s), np.abs(1 - s)))
    bad = near <= tol.incidence
    if np.any(bad):
        raise VertexOnDiagonal(f"quad base {bases[int(np.argmax(bad))]} (axes {i},{j}): diagonal intersection "
                               "coincides with a vertex")
    q_main = ((1.0 - t) / (-t)).reshape(shape).astype(float)
    q_cross = ((1.0 - s) / (-s)).reshape(shape).astype(float)
    return (0.5 * (p1 + p2)).reshape(shape + (net.ambient_dim,)).astype(float), q_main, q_cross


def diag_data(net, i, j, tol):
    """(m, q_main, q_cross) of the (i, j) quads by geom.quad_diagonals, shaped like their base grid."""
    pts, shape = gather_quads(net, i, j)
    diag = quad_diagonals(pts, tol, _quad_at(shape, i, j))
    return diag.point.reshape(shape + (net.ambient_dim,)), diag.q_ac.reshape(shape), diag.q_bd.reshape(shape)


def oracle(quad):
    """(q_ac, q_bd, t, s, m) of one quad (4, N) from its float coordinates,
    with 40 significant digits; m is the midpoint of the closest points of
    the two diagonal lines."""
    with mpmath.workdps(40):
        a, b, c, d = ([mpmath.mpf(float(x)) for x in p] for p in quad)

        def dot(x, y):
            return mpmath.fsum(xi * yi for xi, yi in zip(x, y))

        u = [ci - ai for ci, ai in zip(c, a)]
        v = [di - bi for di, bi in zip(d, b)]
        w = [bi - ai for bi, ai in zip(b, a)]
        uu, vv, uv, wu, wv = dot(u, u), dot(v, v), dot(u, v), dot(w, u), dot(w, v)
        det = uu * vv - uv * uv
        t = (vv * wu - uv * wv) / det
        s = (uv * wu - uu * wv) / det
        m = np.array([float((ai + t * ui + bi + s * vi) / 2) for ai, ui, bi, vi in zip(a, u, b, v)])
        return tuple(float(x) for x in ((1 - t) / (-t), (1 - s) / (-s), t, s)) + (m,)


def outcome(fn, *args):
    """fn(*args), or the class and message of the library error it raises."""
    try:
        return fn(*args)
    except GeometryError as exc:
        return type(exc), str(exc)


def assert_matches_reference(net):
    """Same guard decisions, error classes and messages as the long-double
    reference; q within 1e-11 of it, and m within 1e-11 of |m - A| + |C - A|.
    Where the reference itself is further off, the same bounds hold against
    the oracle instead.  The one exception is the reference's skew rule (the
    gap between the diagonal lines over the longer diagonal), which the
    kernel replaces by geom.quad_planarity: where the reference raises "skew"
    and the kernel returns, every quad's q and m are within 1e-11 of the
    oracle."""
    for i, j in combinations(range(net.m), 2):
        ref = outcome(longdouble_diag_data, net, i, j, TOL)
        got = outcome(diag_data, net, i, j, TOL)
        pts = gather_quads(net, i, j)[0]
        if isinstance(ref[0], type) and "skew" in ref[1] and not isinstance(got[0], type):
            for k in range(len(pts)):
                assert_matches_oracle(pts[k], got[1].flat[k], got[2].flat[k], got[0].reshape(len(pts), -1)[k])
            continue
        if isinstance(ref[0], type):
            assert got == ref
            continue
        assert not isinstance(got[0], type), got
        n = net.ambient_dim
        m_ref, m_got = ref[0].reshape(-1, n), got[0].reshape(-1, n)
        scale = np.linalg.norm(m_ref - pts[:, 0], axis=1) + np.linalg.norm(pts[:, 2] - pts[:, 0], axis=1)
        off = [np.abs(got[k] - ref[k]).ravel() > 1e-11 * np.abs(ref[k]).ravel() for k in (1, 2)]
        off.append(np.abs(m_got - m_ref).max(axis=1) > 1e-11 * scale)
        for k in np.flatnonzero(np.logical_or.reduce(off)):
            assert_matches_oracle(pts[k], got[1].flat[k], got[2].flat[k], m_got[k])


def assert_matches_oracle(quad, q_main, q_cross, m_got):
    """q within 1e-11 of the oracle, m within 1e-11 of |m - A| + |C - A|."""
    q_ac, q_bd, _, _, m = oracle(quad)
    assert q_main == pytest.approx(q_ac, rel=1e-11, abs=0)
    assert q_cross == pytest.approx(q_bd, rel=1e-11, abs=0)
    assert np.abs(m_got - m).max() <= 1e-11 * (np.linalg.norm(m - quad[0]) + np.linalg.norm(quad[2] - quad[0]))


# --- the kernel against the oracle ---------------------------------------------


def planar_quad(rng, t, s, angle, dim=3, shift=0.0):
    """A quad whose diagonals meet at parameters t (on AC) and s (on BD) at
    the given angle, built in plane coordinates around the origin and put
    into R^dim by a random orthonormal frame, then translated by ``shift``."""
    e1 = np.array([1.0, 0.0])
    e2 = np.array([np.cos(angle), np.sin(angle)])
    a = -t * e1
    c = a + e1
    b = -s * e2
    d = b + e2
    flat = np.array([a, b, c, d])
    flat -= flat.mean(axis=0)
    frame, _ = np.linalg.qr(rng.standard_normal((dim, 2)))
    return flat @ frame.T + rng.uniform(-1.0, 1.0, dim) + shift


CASES = {
    "near-parallel": [dict(t=0.4, s=0.6, angle=np.sqrt(x)) for x in (1e-2, 1e-4, 1e-6, 1e-8)],
    "near a vertex": [dict(t=1e-7, s=0.5, angle=1.0), dict(t=0.5, s=1 - 1e-7, angle=0.7),
                      dict(t=-1e-7, s=0.3, angle=1.2), dict(t=1 + 1e-7, s=0.6, angle=0.4)],
    "far": [dict(t=1e4, s=1e4 + 0.3, angle=1e-4), dict(t=-1e4, s=-1e4 + 0.5, angle=1e-4)],
    "translated by 1e3": [dict(t=0.3, s=0.7, angle=0.8, shift=1e3), dict(t=1e-5, s=0.4, angle=0.5, shift=-1e3)],
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("dim", [2, 3, 5])
def test_kernel_matches_the_oracle(case, dim):
    rng = np.random.default_rng(7)
    for kwargs in CASES[case]:
        quads = np.array([planar_quad(rng, dim=dim, **kwargs) for _ in range(40)])
        diag = quad_diagonals(quads)
        for k, quad in enumerate(quads):
            q_ac, q_bd, t, s, m = oracle(quad)
            assert diag.q_ac[k] == pytest.approx(q_ac, rel=1e-11, abs=0)
            assert diag.q_bd[k] == pytest.approx(q_bd, rel=1e-11, abs=0)
            assert diag.t[k] == pytest.approx(t, rel=1e-11, abs=0)
            assert diag.s[k] == pytest.approx(s, rel=1e-11, abs=0)
            size = np.linalg.norm(m - quad[0]) + np.linalg.norm(quad[2] - quad[0])
            assert np.abs(diag.point[k] - m).max() <= 1e-11 * size


def test_far_intersection_of_nearly_parallel_diagonals():
    # t = 1e6 at sin(angle) = 5e-5: the exact heights of C - A and D - B are
    # their own wedge products; as differences they would lose |t| ulps in t
    rng = np.random.default_rng(8)
    quads = np.array([planar_quad(rng, t=1e6, s=1e6 + 0.4, angle=5e-5, dim=2) for _ in range(20)])
    diag = quad_diagonals(quads)
    for k, quad in enumerate(quads):
        _, _, t, s, m = oracle(quad)
        assert diag.t[k] == pytest.approx(t, rel=1e-11, abs=0)
        assert diag.s[k] == pytest.approx(s, rel=1e-11, abs=0)
        assert np.abs(diag.point[k] - m).max() <= 1e-11 * np.linalg.norm(m - quad[0])


# quads rough in one of the six heights (A, C, A - C, B, D, B - D) of _diagonals and in no other: B near the
# line AC (s = 1e-7), and A - C together with B - D, whose tests both read sin^2 of the diagonals' angle below
# _EXACT_BELOW**2 (up to rounding), so no quad is rough in one of them alone.  From the frame's heights, t or
# s would be off by up to 6e-10 and 1.4e-10; the A - C case needs an angle (1e-6) that only tolerances below
# the default accept, as above it the frame's heights of A - C and B - D are within 1e-11
ROUGH = {
    "B near AC": (dict(t=0.5, s=1e-7, angle=1.0, dim=3), TOL),
    "A - C and B - D": (dict(t=1e3, s=1e3 + 0.3, angle=1e-6, dim=2), Tolerances(incidence=1e-14)),
}


@pytest.mark.parametrize("case", sorted(ROUGH))
def test_a_quad_rough_in_one_height_gets_exact_heights(case):
    kwargs, tol = ROUGH[case]
    rng = np.random.default_rng(9)
    quads = np.array([planar_quad(rng, **kwargs) for _ in range(40)])
    diag = quad_diagonals(quads, tol)
    for k, quad in enumerate(quads):
        q_ac, q_bd, t, s, m = oracle(quad)
        assert (diag.q_ac[k], diag.q_bd[k]) == pytest.approx((q_ac, q_bd), rel=1e-11, abs=0)
        assert (diag.t[k], diag.s[k]) == pytest.approx((t, s), rel=1e-11, abs=0)
        size = np.linalg.norm(m - quad[0]) + np.linalg.norm(quad[2] - quad[0])
        assert np.abs(diag.point[k] - m).max() <= 1e-11 * size


@pytest.mark.parametrize("scale", [1e-150, 1e150])
def test_rough_quads_read_alike_in_a_stack_of_any_scale(scale):
    # the exact heights are scaled by a power of two of the rough quads' own; by that of the whole stack,
    # quads 1e150 times larger pushed them below the smallest double, and every rough quad read NaN
    rng = np.random.default_rng(10)
    rough = np.array([planar_quad(rng, **kwargs) for kwargs in CASES["near a vertex"] for _ in range(5)])
    other = np.array([planar_quad(rng, t=0.4, s=0.5, angle=1.0) for _ in range(5)]) * scale
    alone, mixed = quad_diagonals(rough), quad_diagonals(np.concatenate([rough, other]))
    assert all(np.array_equal(a, b[:len(rough)]) for a, b in zip(alone, mixed))


def test_rough_quads_of_scales_far_apart_read_alike_in_one_stack():
    # each rough quad's exact heights are scaled by its own power of two; by one for all rough quads of the
    # stack, those at 1e-100 underflowed beside those at 1e100 and raised VertexOnDiagonal
    rng = np.random.default_rng(10)
    rough = np.array([planar_quad(rng, **kwargs) for kwargs in CASES["near a vertex"] for _ in range(5)])
    small, big = rough * 1e-100, rough * 1e100
    mixed = quad_diagonals(np.concatenate([small, big]))
    for alone, at in ((quad_diagonals(small), slice(0, len(rough))), (quad_diagonals(big), slice(len(rough), None))):
        assert all(np.array_equal(a, b[at]) for a, b in zip(alone, mixed))


def test_guards_in_order_over_the_whole_stack():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    parallel = np.array([[0.0, 0.0], [0.5, 1.0], [1.0, 0.0], [-0.5, 1.0]])
    at_vertex = np.array([[0.0, 0.0], [0.3, -0.5], [1.0, 0.0], [-0.6, 1.0]])
    skew = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 1e-3]], dtype=float)
    with pytest.raises(VertexOnDiagonal, match="coincides with a vertex"):
        quad_diagonals(np.array([square, at_vertex]))
    with pytest.raises(DegenerateQuad, match="parallel"):
        quad_diagonals(np.array([at_vertex, parallel]))
    with pytest.raises(DegenerateQuad, match="skew diagonals: residual 3.536e-04"):
        quad_diagonals(np.array([skew]))  # D is 1e-3 off the plane of ABC: sigma_2 / sigma_0 = 5e-4 = sqrt(2) rho
    flat = np.concatenate([np.array([at_vertex, square]), np.zeros((2, 4, 1))], axis=2)
    with pytest.raises(DegenerateQuad, match="skew"):
        quad_diagonals(np.array([flat[0], skew]))  # skew before the vertex guard
    with pytest.raises(VertexOnDiagonal, match="^at quad 1: diagonal intersection coincides with a vertex$"):
        quad_diagonals(np.array([square, at_vertex]), where=lambda k: f"at quad {k}: ")


def test_nan_heights_fail_the_vertex_guard(monkeypatch):
    # B is 1e-7 off the line AC, so the quad is rough and reads its heights from _exact_heights: NaN heights
    # give NaN t, s and q, which the vertex guard must not pass
    rough = np.array([[[0.0, 0.0, 0.0], [0.5, 1e-7, 0.0], [1.0, 0.0, 0.0], [0.3, -1.0, 0.0]]])
    assert np.isfinite(quad_diagonals(rough).t).all()
    monkeypatch.setattr(geom, "_exact_heights", lambda *quads: np.full((6, quads[0].shape[1]), np.nan))
    with pytest.raises(VertexOnDiagonal, match="coincides with a vertex"):
        quad_diagonals(rough)


@pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e160, 1e200])
def test_verdicts_survive_extreme_scales(iso_net, koenigs_net_3d, scale):
    # long double had the exponent range for these; float64 squares must not
    # overflow or underflow
    for net in (iso_net.net, koenigs_net_3d[0]):
        moved = QNet(net.vertices * scale)
        assert check_closedness(moved).passed
        form, ref = build_q_form(moved), build_q_form(net)
        for key, q in ref.q_main.items():
            assert np.allclose(form.q_main[key], q, rtol=1e-12, atol=0)
            m = ref.m_points[key] * scale
            assert np.abs(form.m_points[key] - m).max() <= 1e-12 * np.abs(m).max()


# --- the kernel against the long-double reference -------------------------------


needs_long_double = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="np.longdouble is no wider than float64 here, so it is no reference",
)


@needs_long_double
def test_reference_on_the_fixtures(koenigs_net_2d, koenigs_net_3d, iso_net, iso_lightcone_3d):
    for net in (koenigs_net_2d, koenigs_net_3d[0], iso_net.net, iso_lightcone_3d[1].net):
        assert_matches_reference(net)


@needs_long_double
def test_reference_on_lightcone_nets():
    for seed in range(300):
        try:
            net = generate.random_isothermic_lightcone((4, 4, 4), rng=np.random.default_rng(seed))[1].net
        except Exception:
            continue
        assert_matches_reference(net)


@needs_long_double
def test_reference_on_koenigs_3d_nets():
    for seed in range(60):
        try:
            net = generate.random_koenigs_3d((6, 6, 6), rng=np.random.default_rng(seed))[0]
        except Exception:
            continue
        assert_matches_reference(net)


def nets_of_every_m(koenigs_net_2d, koenigs_net_3d, iso_net, iso_lightcone_3d):
    """m = 2, 3 and 4 nets that pass, and nets with degenerate quads: light-cone 4^3 nets of seeds 0-39 (some
    raise DegenerateQuad in the diagonal form), a random 2 x 2 x 2 net (skew) and a 2 x 2 x 2 grid."""
    nets = [koenigs_net_2d, koenigs_net_3d[0], iso_net.net, iso_lightcone_3d[1].net, generate.grid((2, 2, 2)),
            QNet(np.random.default_rng(3).normal(size=(2, 2, 2, 3))),
            generate.random_koenigs_nd((3, 3, 3, 3), rng=np.random.default_rng(1), noise=0.03)[0]]
    for seed in range(40):
        try:
            nets.append(generate.random_isothermic_lightcone((4, 4, 4), rng=np.random.default_rng(seed))[1].net)
        except GeometryError:
            continue
    return nets


def test_kernels_given_the_planarity_agree_with_their_own(koenigs_net_2d, koenigs_net_3d, iso_net, iso_lightcone_3d):
    # rho, the diagonal form and the circles of the one stack of a net, against the public kernels run on each
    # axis pair alone, bit for bit; the errors of the stack are those of the first pair that raises
    for net in nets_of_every_m(koenigs_net_2d, koenigs_net_3d, iso_net, iso_lightcone_3d):
        rho = qnet._planarity(QNet(net.vertices))
        form = outcome(build_q_form, QNet(net.vertices))
        pairs, circles = isothermic._circles(QNet(net.vertices), TOL)
        assert [key for key, _, _ in pairs] == list(combinations(range(net.m), 2))
        first = {"form": None, 3: None, 6: None}
        for (i, j), _, at in pairs:
            pts, shape = gather_quads(net, i, j)
            assert np.array_equal(rho[(i, j)], quad_planarity(pts).reshape(shape))
            own = outcome(diag_data, net, i, j, TOL)
            if isinstance(own[0], type):
                first["form"] = first["form"] or own
            elif not isinstance(form, tuple):
                stacked = form.m_points[(i, j)], form.q_main[(i, j)], form.q_cross[(i, j)]
                assert all(np.array_equal(a, b) for a, b in zip(own, stacked))
            alone = quad_circles(pts)
            assert all(np.array_equal(a, b[at]) for a, b in zip(alone, circles))
            for upto in (3, 6):
                first[upto] = first[upto] or outcome(geom.raise_quad_error, alone, upto, _quad_at(shape, i, j))
        assert form == first["form"] if first["form"] else not isinstance(form, tuple)
        for upto in (3, 6):
            assert outcome(geom.raise_quad_error, circles, upto, qnet._stack_at(pairs)) == first[upto]


def test_a_skew_quad_of_the_first_pair_raises_before_a_parallel_one_of_the_last():
    # the guards run in turn pair by pair: a stack-wide parallel guard would name the quads of (0, 2) and (1, 2)
    f = generate.grid((3, 3, 3)).vertices.copy()
    f[1, 1, 1, 2] += 0.01  # the four (0, 1) quads around it are skew; in the (0, 2) and (1, 2) planes it stays
    f[0, 2, 2, 2] = 0.0  # the (1, 2) quad at (0, 1, 1), and the (0, 2) quad at (0, 2, 1), get parallel diagonals
    net = QNet(f)
    assert "parallel" in outcome(diag_data, net, 1, 2, TOL)[1]
    assert "parallel" in outcome(quad_diagonals, np.concatenate([gather_quads(net, i, j)[0] for i, j in
                                                                combinations(range(3), 2)]))[1]
    message = r"quad base \(0, 0, 1\) \(axes 0,1\): skew diagonals: residual 3\.535e-03 exceeds tolerance"
    with pytest.raises(DegenerateQuad, match=message):
        build_q_form(net)


def test_a_failing_quad_of_the_third_pair_is_named_by_its_own_axes_and_base():
    f = generate.grid((3, 3, 3)).vertices.copy()
    f[1, 1, 1, 0] += 0.01  # off the plane of the four (1, 2) quads around it, in those of the (0, 1) and (0, 2) quads
    net = QNet(f)
    rep = check_qnet(net)
    assert rep.n_failed == 4 and rep.worst_at[0] == (1, 2) and rep.offenders(1)[0][:2] == ((1, 2), (1, 0, 0))
    with pytest.raises(DegenerateQuad, match=r"^quad base \(1, 0, 0\) \(axes 1,2\): skew diagonals"):
        build_q_form(net)
    with pytest.raises(NotPlanar, match=r"^quad base \(1, 0, 0\) \(axes 1,2\): points are not coplanar"):
        isothermic.check_circular(net)


@pytest.mark.parametrize("n_quads", [4097, 9000])
def test_the_blocks_of_a_frame_leave_its_bits(n_quads, monkeypatch):
    abcd = np.random.default_rng(36).standard_normal((4, 3, n_quads))
    blocked = geom._diagonal_frame(abcd)
    monkeypatch.setattr(geom, "_BLOCK", n_quads)
    assert all(np.array_equal(a, b) for a, b in zip(blocked, geom._diagonal_frame(abcd)))


def test_a_quad_reads_alike_alone_and_in_its_stack():
    # the dot products sum one coordinate after the other for any number of quads (einsum did not for one)
    nets = [generate.random_isothermic_2d((12, 12), rng=np.random.default_rng(2)).net]
    nets.append(generate.random_isothermic_lightcone((4, 4, 4), rng=np.random.default_rng(0))[1].net)
    for net in nets:
        for i, j in combinations(range(net.m), 2):
            pts = gather_quads(net, i, j)[0]
            rho, diag = quad_planarity(pts), quad_diagonals(pts)
            for k, quad in enumerate(pts):
                assert quad_planarity(quad) == rho[k]
                assert all(np.array_equal(a[0], b[k]) for a, b in zip(quad_diagonals(quad[None]), diag))


# --- the memo ---------------------------------------------------------------------


def count_calls(monkeypatch, module, name):
    """The arguments of every call of ``module.name`` from here on."""
    calls, run = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or run(*args))
    return calls


def test_planarity_is_computed_once_per_net(iso_net, koenigs_net_3d, monkeypatch):
    # the net's frames, and the kernels' own
    calls = [count_calls(monkeypatch, module, "_diagonal_frame") for module in (qnet, geom)]
    for vertices in (iso_net.net.vertices, koenigs_net_3d[0].vertices):
        for c in calls:
            c.clear()
        net = QNet(vertices)
        check_qnet(net)
        rho = net._cache["planarity"]
        for check, built in ((check_closedness, 1), (isothermic.check_circular, 2), (check_qnet, 2)):
            check(net)
            assert sum(map(len, calls)) == built  # the diagonal form took the frame: the circles build their own
        assert net._cache["planarity"] is rho
        isothermic.check_circular(QNet(vertices))  # a new net of the same vertices computes its own
        assert sum(map(len, calls)) == 3


@pytest.mark.parametrize("order", list(permutations([check_qnet, check_closedness, isothermic.check_circular])))
def test_the_frame_is_built_once_in_any_order(iso_net, koenigs_net_3d, order, monkeypatch):
    # the diagonal form takes the stack and its frame off the net, which keeps rho; circles after it build a frame again
    calls = count_calls(monkeypatch, qnet, "_diagonal_frame")
    again = order.index(check_closedness) < order.index(isothermic.check_circular)
    for vertices in (iso_net.net.vertices, koenigs_net_3d[0].vertices):
        calls.clear()
        net = QNet(vertices)
        for check in order:
            check(net)
        assert len(calls) == (2 if again else 1)
        assert "stack" not in net._cache and "planarity" in net._cache
        build_q_form(net, Tolerances(incidence=1e-10))  # a form at other tolerances builds a frame again
        assert len(calls) == (3 if again else 2)


def test_one_frame_per_net_on_the_recovery_path(monkeypatch):
    # christoffel and the light-cone lift of a vertex-only net: the labels read the frame, the metric takes it
    calls = count_calls(monkeypatch, qnet, "_diagonal_frame")
    net = QNet(generate.random_isothermic_lightcone((4, 4, 4), rng=np.random.default_rng(0))[1].net.vertices)
    calls.clear()
    isothermic.recover_labels(net)
    isothermic.recover_metric(net)
    assert len(calls) == 1 and "stack" not in net._cache
    check_closedness(net)
    isothermic.check_circular(net)  # the circles' own memo, at the same tolerances: nothing new
    assert len(calls) == 1
    report = QNet(net.vertices)  # the order of the CLI report: the circles after closedness build one more
    check_qnet(report)
    check_closedness(report)
    isothermic.check_circular(report)
    assert len(calls) == 3


def test_one_gather_per_net(koenigs_net_3d, monkeypatch):
    # the stack the planarity gathers is the one the diagonal form and the circles read
    calls = count_calls(monkeypatch, qnet, "_stack_quads")
    check_closedness(QNet(koenigs_net_3d[0].vertices))
    net = QNet(koenigs_net_3d[0].vertices)
    check_qnet(net)
    check_closedness(net)
    assert len(calls) == 2
    net = QNet(generate.random_isothermic_lightcone((4, 4, 4), rng=np.random.default_rng(0))[1].net.vertices)
    isothermic.recover_labels(net)
    isothermic.recover_metric(net)
    assert len(calls) == 3


def test_nan_planarity_fails_the_guards(iso_net, monkeypatch):
    run = qnet._diagonal_frame
    monkeypatch.setattr(qnet, "_diagonal_frame", lambda abcd: run(abcd)._replace(rho=np.full(abcd.shape[2], np.nan)))
    with pytest.raises(DegenerateQuad, match=r"quad base \(0, 0\) \(axes 0,1\): skew diagonals: residual nan"):
        build_q_form(QNet(iso_net.net.vertices))
    with pytest.raises(NotPlanar, match="residual nan"):
        isothermic.check_circular(QNet(iso_net.net.vertices))


def test_one_form_per_net_and_tolerances(koenigs_net_2d):
    net = QNet(koenigs_net_2d.vertices)
    form = build_q_form(net)
    assert build_q_form(net) is form and build_q_form(net, Tolerances()) is form
    other = build_q_form(net, Tolerances(incidence=1e-10))
    assert other is not form and build_q_form(net, Tolerances(incidence=1e-10)) is other
    assert np.array_equal(other.q_main[(0, 1)], form.q_main[(0, 1)])


def test_memoized_arrays_are_read_only(iso_net, koenigs_net_3d):
    for vertices in (iso_net.net.vertices, koenigs_net_3d[0].vertices):
        net = QNet(vertices)
        isothermic.check_circular(net)
        form = build_q_form(net)
        for arrays in (form.q_main, form.q_cross, form.m_points, qnet._planarity(net)):
            for values in arrays.values():
                with pytest.raises(ValueError):
                    values.flat[0] = 1.0
        for values in isothermic._circles(net, TOL)[1]:
            assert not values.flags.writeable


def test_a_failed_build_is_not_kept(monkeypatch):
    # one quad (f, f_1, f_12, f_2) whose diagonals are parallel
    net = QNet(np.array([[[0.0, 0.0], [-0.5, 1.0]], [[0.5, 1.0], [1.0, 0.0]]]))
    calls = count_calls(monkeypatch, koenigs, "_build_q_form")
    first = outcome(build_q_form, net)
    second = outcome(build_q_form, net)
    assert isinstance(first[0], type) and first == second
    assert len(calls) == 2


def test_short_lived_nets_do_not_share_forms():
    rng = np.random.default_rng(11)
    base = generate.random_isothermic_2d((5, 5), rng=rng).net.vertices
    for _ in range(200):
        net = QNet(base * rng.uniform(0.5, 2.0) + rng.uniform(-1.0, 1.0, 3))
        form = build_q_form(net)
        fresh = _build_q_form(net, TOL)
        assert np.array_equal(form.m_points[(0, 1)], fresh.m_points[(0, 1)])
        assert np.array_equal(form.q_main[(0, 1)], fresh.q_main[(0, 1)])
        del net, form


def test_checks_on_one_net_build_the_form_once(koenigs_net_3d, monkeypatch):
    net = QNet(koenigs_net_3d[0].vertices)
    calls = count_calls(monkeypatch, koenigs, "_build_q_form")
    check_closedness(net)
    koenigs.integrate_nu(net)
    koenigs.check_koenigs_3d_geometric(net)
    assert len(calls) == 1  # one per net and tolerances, every axis pair in it


def test_circularity_checks_share_one_circles_run(iso_net, monkeypatch):
    net = QNet(iso_net.net.vertices)
    calls = count_calls(monkeypatch, isothermic, "_frame_circles")
    assert isothermic.check_circular(net).passed
    assert isothermic.check_isothermic(net).passed
    isothermic.quad_cross_ratios(net)
    assert len(calls) == 1
