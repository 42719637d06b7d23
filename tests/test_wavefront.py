"""The layer-sweep integrators and the wavefront fills against the
vertex-by-vertex loops they replace, kept here as references."""
import hashlib
from collections import deque
from itertools import combinations, product

import numpy as np
import pytest

from koenigsnets import generate, koenigs
from koenigsnets.errors import (
    CoincidentPoints,
    CollinearTriple,
    DegenerateQuad,
    EqualLabels,
    InvalidValue,
    NotKoenigs,
    NullDiagonalDifference,
    VanishingLastComponent,
    ZeroE0Component,
    ZeroLeg,
)
from koenigsnets.generate import _hexahedron_steps, _q_cube_steps
from koenigsnets.geom import _length, lift_to_lightcone, minkowski_dot
from koenigsnets.isothermic import _lightcone_coeff, lightcone_evolve, three_leg_evolve
from koenigsnets.koenigs import (
    DiagonalForm,
    _integrate_one_form,
    build_q_form,
    check_closedness,
    integrate_nu,
    moutard_evolve,
)
from koenigsnets.qnet import EdgeLabelling, QNet, _levels, _raise_first_row, _wavefront

# --- loop references ------------------------------------------------------------


def _shift(u, *axes, by=1):
    v = list(u)
    for ax in axes:
        v[ax] += by
    return tuple(v)


def loop_one_form(net, forms, base):
    u0, f0 = base
    out = np.empty(net.extents + (net.ambient_dim,))
    out[(0,) * net.m] = 0.0
    for u in product(*(range(e) for e in net.extents)):
        for ax in range(net.m):
            if u[ax] > 0:
                prev = _shift(u, ax, by=-1)
                out[u] = out[prev] + forms[ax][prev]
                break
    out += np.asarray(f0, dtype=float) - out[tuple(u0)]
    return out


def bfs_nu(net, form, base_black, base_white):
    nu = np.full(net.extents, np.nan)
    for u, value in (base_black, base_white):
        nu[tuple(u)] = value
        queue = deque([tuple(u)])
        while queue:
            v = queue.popleft()
            for i, j in combinations(range(net.m), 2):
                qm, qc = form.q_main[(i, j)], form.q_cross[(i, j)]
                steps = []
                if v[i] + 1 < net.extents[i] and v[j] + 1 < net.extents[j]:
                    steps.append((_shift(v, i, j), qm[v]))
                if v[i] >= 1 and v[j] >= 1:
                    b = _shift(v, i, j, by=-1)
                    steps.append((b, 1.0 / qm[b]))
                if v[i] >= 1 and v[j] + 1 < net.extents[j]:
                    b = _shift(v, i, by=-1)
                    steps.append((_shift(b, j), qc[b]))
                if v[j] >= 1 and v[i] + 1 < net.extents[i]:
                    b = _shift(v, j, by=-1)
                    steps.append((_shift(b, i), 1.0 / qc[b]))
                for w, factor in steps:
                    if np.isnan(nu[w]):
                        nu[w] = nu[v] * factor
                        queue.append(w)
    return nu


def loop_moutard(axes_data, a01):
    if isinstance(axes_data, dict):
        p01, p02, p12 = (np.asarray(axes_data[k], dtype=float) for k in ((0, 1), (0, 2), (1, 2)))
        n1, n2, d = p01.shape
        y = np.empty((n1, n2, p02.shape[1], d))
        y[:, :, 0], y[:, 0, :], y[0, :, :] = p01, p02, p12
        for u3, u1, u2 in product(range(1, y.shape[2]), range(1, n1), range(1, n2)):
            y[u1, u2, u3] = y[u1 - 1, u2 - 1, u3] + a01[u1 - 1, u2 - 1, u3] * (
                y[u1 - 1, u2, u3] - y[u1, u2 - 1, u3]
            )
        return y
    y1, y2 = axes_data
    y = np.empty((len(y1), len(y2), y1.shape[1]))
    y[:, 0], y[0, :] = y1, y2
    for u1, u2 in product(range(1, len(y1)), range(1, len(y2))):
        y[u1, u2] = y[u1 - 1, u2 - 1] + a01[u1 - 1, u2 - 1] * (y[u1 - 1, u2] - y[u1, u2 - 1])
    return y


def _scalar_frame(pts):
    origin = pts[0]
    u = pts[1] - origin
    nu = np.linalg.norm(u)
    if nu == 0.0:
        raise CoincidentPoints("coincident")
    u = u / nu
    for p in pts[2:]:
        w = p - origin
        w = w - np.dot(w, u) * u
        nw = np.linalg.norm(w)
        if nw > 1e-13 * max(nu, np.linalg.norm(p - origin)):
            return origin, u, w / nw
    raise CollinearTriple("collinear")


def loop_three_leg(f1, f2, labels):
    a1, a2 = labels.per_axis
    f = np.empty((len(f1), len(f2), f1.shape[1]))
    f[:, 0], f[0, :] = f1, f2
    for u1, u2 in product(range(1, len(f1)), range(1, len(f2))):
        ai, aj = a1[u1 - 1], a2[u2 - 1]
        if ai == aj:
            raise EqualLabels("equal labels")
        base, fi, fj = f[u1 - 1, u2 - 1], f[u1, u2 - 1], f[u1 - 1, u2]
        origin, eu, ev = _scalar_frame(np.stack([base, fi, fj]))
        rel = np.stack([fi, fj]) - origin
        zi, zj = (complex(p[0], p[1]) for p in np.stack([rel @ eu, rel @ ev], axis=-1))
        if zi == 0 or zj == 0:
            raise ZeroLeg("zero leg")
        w = ai / zi - aj / zj
        if w == 0:
            raise ZeroLeg("fourth vertex at infinity")
        zij = (ai - aj) / w
        f[u1, u2] = origin + zij.real * eu + zij.imag * ev
    return f


def _loop_lightcone_step(y, yi, yj):
    d = yj - yi
    dd = minkowski_dot(d, d)
    if abs(dd) <= 1e-300:
        raise NullDiagonalDifference("isotropic")
    a = -2.0 * minkowski_dot(y, d) / dd
    return y + a * d, float(a)


def loop_lightcone(axes):
    m = len(axes)
    y = np.full(tuple(len(a) for a in axes) + (axes[0].shape[1],), np.nan)
    for k, a in enumerate(axes):
        y[tuple(slice(None) if ax == k else 0 for ax in range(m))] = a
    coeffs = {(i, j): np.empty(tuple(e - 1 if ax in (i, j) else e for ax, e in enumerate(y.shape[:-1])))
              for i, j in combinations(range(m), 2)}
    for u in product(*(range(e) for e in y.shape[:-1])):
        if not np.any(np.isnan(y[u])):
            continue
        i, j = [ax for ax in range(m) if u[ax] > 0][:2]
        b = _shift(u, i, j, by=-1)
        y[u], coeffs[(i, j)][b] = _loop_lightcone_step(y[b], y[_shift(b, i)], y[_shift(b, j)])
    for (i, j), arr in coeffs.items():
        for b in product(*(range(e) for e in arr.shape)):
            dvec = y[_shift(b, j)] - y[_shift(b, i)]
            arr[b] = -2.0 * minkowski_dot(y[b], dvec) / minkowski_dot(dvec, dvec)
    return y, coeffs


def loop_hexahedra(y):
    """Fill the NaN points of y from the hexahedra of their first three
    positive axes, in order of |u|."""
    for u in sorted(product(*(range(n) for n in y.shape[:-1])), key=sum):
        if not np.any(np.isnan(y[u])):
            continue
        i, j, k = [ax for ax in range(len(u)) if u[ax] > 0][:3]
        b = _shift(u, i, j, k, by=-1)
        yk, yjk, yik, yi, yij = (y[_shift(b, *s)] for s in ((k,), (j, k), (i, k), (i,), (i, j)))
        a = np.stack([yjk - yik, -(yik - yij)], axis=1)
        sol, _, rank, _ = np.linalg.lstsq(a, yi - yk, rcond=None)
        if rank < 2:
            raise DegenerateQuad("parallel Moutard lines in hexahedron fill")
        y[u] = yk + sol[0] * (yjk - yik)
    return y


def loop_random_koenigs_nd(extents, rng, noise=0.04):
    rng = np.random.default_rng(rng)
    m = len(extents)
    axes = [generate._homogeneous_axis(n, ax, 3, rng, noise) for ax, n in enumerate(extents)]
    for ax in range(1, m):
        axes[ax][0] = axes[0][0]
    y = np.full(tuple(extents) + (4,), np.nan)
    for i, j in combinations(range(m), 2):
        a = generate._base_coeff(i, j) + noise * rng.standard_normal((extents[i] - 1, extents[j] - 1))
        sl = [0] * m + [slice(None)]
        sl[i] = sl[j] = slice(None)
        y[tuple(sl)] = loop_moutard((axes[i], axes[j]), a)
    return loop_hexahedra(y), rng


def loop_random_qnet_3d(extents, rng, noise=0.08):
    rng = np.random.default_rng(rng)
    f = np.full(tuple(extents) + (3,), np.nan)
    curves = [generate._random_axis_curve(n, ax, 3, rng, noise) for ax, n in enumerate(extents)]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        plane = np.zeros((extents[i], extents[j], 3))
        plane[:, 0], plane[0, :] = curves[i], curves[j]
        for a, b in product(range(1, extents[i]), range(1, extents[j])):
            p, pi, pj = plane[a - 1, b - 1], plane[a, b - 1], plane[a - 1, b]
            lam = 1.0 + noise * rng.standard_normal()
            mu = 1.0 + noise * rng.standard_normal()
            plane[a, b] = p + lam * (pi - p) + mu * (pj - p)
        sl = [0, 0, 0, slice(None)]
        sl[i] = sl[j] = slice(None)
        f[tuple(sl)] = plane
    for u1, u2, u3 in product(*(range(1, n) for n in extents)):
        c = lambda *s: f[u1 - 1 + s[0], u2 - 1 + s[1], u3 - 1 + s[2]]  # noqa: E731
        normals, offsets = [], []
        for t0, t1, t2 in (((1, 0, 0), (1, 1, 0), (1, 0, 1)), ((0, 1, 0), (1, 1, 0), (0, 1, 1)),
                           ((0, 0, 1), (1, 0, 1), (0, 1, 1))):
            p0, p1, p2 = c(*t0), c(*t1), c(*t2)
            n = np.cross(p1 - p0, p2 - p0)
            normals.append(n)
            offsets.append(np.dot(n, p0))
        f[u1, u2, u3] = np.linalg.solve(np.stack(normals), np.array(offsets))
    return f, rng


def _lightcone_axes(extents, rng, noise=0.05, scale=1.0):
    """The axis data of generate.random_isothermic_lightcone."""
    axes = []
    for ax, n in enumerate(extents):
        f = generate._random_axis_curve(n, ax, 3, rng, noise)
        sign = np.where(np.arange(n) % 2 == 0, 1.0, -1.0) if ax == 1 else np.ones(n)
        axes.append(scale * lift_to_lightcone(f) / (sign * (1.0 + noise * rng.standard_normal(n)))[:, None])
    for ax in range(1, len(axes)):
        axes[ax][0] = axes[0][0]
    return axes


def _grid_axes(scale=1.0):
    """Axis data of a slightly bent 4 x 4 grid."""
    f1 = scale * np.array([[0.0, 0.0, 0.0], [1.0, 0.1, 0.0], [2.0, 0.0, 0.1], [3.0, 0.1, 0.0]])
    f2 = scale * np.array([[0.0, 0.0, 0.0], [0.1, 1.0, 0.0], [0.0, 2.0, 0.1], [0.1, 3.0, 0.0]])
    return f1, f2


def _rel(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


# --- index-tuple references ------------------------------------------------------
# The fills as they ran before the cached level schedule: each level's vertices u (n, m) from
# argwhere/argsort/split on every call, and every neighbour gathered by an index tuple built per
# level.  The library fills must give bitwise the same values and the same errors.


def ref_wavefront(pieces, step):
    m = 1 + max(ax for axes in pieces for ax in axes)
    extents = [0] * m
    for axes, values in pieces.items():
        for ax, n in zip(axes, values.shape):
            extents[ax] = n
        tail = values.shape[len(axes):]
    y = np.empty(tuple(extents) + tail)
    known = np.zeros(extents, dtype=bool)
    for axes, values in pieces.items():
        idx = tuple(slice(None) if ax in axes else 0 for ax in range(m))
        y[idx] = values
        known[idx] = True
    todo = np.argwhere(~known)
    level = todo.sum(axis=1)
    order = np.argsort(level, kind="stable")
    if len(todo):
        for u in np.split(todo[order], np.flatnonzero(np.diff(level[order])) + 1):
            y[tuple(u.T)] = step(y, u)
    return y


def ref_back(u, *axes):
    eye = np.eye(u.shape[1], dtype=int)
    return tuple((u - sum(eye[ax] for ax in axes)).T)


def ref_first_positive_axes(u, n):
    return np.argsort(u <= 0, axis=1, kind="stable")[:, :n].T


def ref_plane_frames(pts):
    """geom._plane_frames as it selected v with take_along_axis."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rel = pts - pts[:, :1]
        nu = _length(rel[:, 1])
        u = rel[:, 1] / nu[:, None]
        w = rel[:, 2:] - (rel[:, 2:] @ u[..., None]) * u[:, None]
        nw = _length(w)
        spans = nw > 1e-13 * np.maximum(nu[:, None], _length(rel[:, 2:]))
        pick = np.argmax(spans, axis=1)[:, None]
        v = np.take_along_axis(w, pick[..., None], axis=1)[:, 0] / np.take_along_axis(nw, pick, axis=1)
        z = np.stack([(rel @ u[..., None])[..., 0], (rel @ v[..., None])[..., 0]], axis=-1)
    return u, v, z, nu, spans


def ref_three_leg_steps(f, u, alpha_i, alpha_j):
    pts = np.stack([f[ref_back(u, 0, 1)], f[ref_back(u, 1)], f[ref_back(u, 0)]], axis=1)
    e1, e2, z, nu, spans = ref_plane_frames(pts)
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


def ref_three_leg(f1, f2, labels):
    a1, a2 = labels.per_axis
    return ref_wavefront({(0,): f1, (1,): f2}, lambda f, u: ref_three_leg_steps(f, u, a1[u[:, 0] - 1], a2[u[:, 1] - 1]))


def ref_lightcone(axes, tol=generate.DEFAULT_TOL):
    def step(y, u):
        i, j = ref_first_positive_axes(u, 2)
        yb, d = y[ref_back(u, i, j)], y[ref_back(u, i)] - y[ref_back(u, j)]
        a, null = _lightcone_coeff(yb, d, tol)
        _raise_first_row(u, [(null, NullDiagonalDifference, "diagonal difference is isotropic")])
        return yb + a[:, None] * d

    return ref_wavefront({(k,): a for k, a in enumerate(axes)}, step)


def ref_moutard(pieces, a01):
    def step(y, u):
        return y[ref_back(u, 0, 1)] + a01[ref_back(u, 0, 1)][:, None] * (y[ref_back(u, 0)] - y[ref_back(u, 1)])

    with np.errstate(over="ignore", invalid="ignore"):
        return ref_wavefront(pieces, step)


def ref_hexahedron_steps(y, u):
    i, j, k = ref_first_positive_axes(u, 3)
    p, q, yik = y[ref_back(u, i, j)], y[ref_back(u, j, k)], y[ref_back(u, j)]
    d1, d2 = y[ref_back(u, i)] - yik, yik - y[ref_back(u, k)]
    w, sv, vt = np.linalg.svd(np.stack([d1, -d2], axis=-1), full_matrices=False)
    rank1 = sv[:, 1] <= np.finfo(float).eps * max(d1.shape[1], 2) * sv[:, 0]
    _raise_first_row(u, [(rank1, DegenerateQuad, "parallel Moutard lines in hexahedron fill")])
    t = (vt[:, :, 0] * np.einsum("nik,ni->nk", w, q - p) / sv).sum(axis=-1)
    return p + t[:, None] * d1


def ref_q_cube_steps(f, u):
    normals, offsets = [], []
    for b, c in ((1, 2), (0, 2), (0, 1)):
        p0, p1, p2 = f[ref_back(u, b, c)], f[ref_back(u, c)], f[ref_back(u, b)]
        n = np.cross(p1 - p0, p2 - p0)
        normals.append(n)
        offsets.append((n * p0).sum(axis=-1))
    return np.linalg.solve(np.stack(normals, axis=1), np.stack(offsets, axis=1)[..., None])[..., 0]


def ref_random_koenigs_nd(extents, rng, noise=0.04):
    """The Moutard points of generate.random_koenigs_nd, and the generator after its draws."""
    rng = np.random.default_rng(rng)
    m = len(extents)
    axes = [generate._homogeneous_axis(n, ax, 3, rng, noise) for ax, n in enumerate(extents)]
    for ax in range(1, m):
        axes[ax][0] = axes[0][0]
    planes = {}
    for i, j in combinations(range(m), 2):
        a = generate._base_coeff(i, j) + noise * rng.standard_normal((extents[i] - 1, extents[j] - 1))
        planes[(i, j)] = ref_moutard({(0,): axes[i], (1,): axes[j]}, a)
    return ref_wavefront(planes, ref_hexahedron_steps), rng


def ref_random_qnet_3d(extents, rng, noise=0.08):
    """The vertices of generate.random_qnet_3d, and the generator after its draws."""
    rng = np.random.default_rng(rng)
    curves = [generate._random_axis_curve(n, ax, 3, rng, noise) for ax, n in enumerate(extents)]
    planes = {}
    for i, j in ((0, 1), (0, 2), (1, 2)):
        lam, mu = np.moveaxis(1.0 + noise * rng.standard_normal((extents[i] - 1, extents[j] - 1, 2)), -1, 0)

        def step(p, u, lam=lam, mu=mu):
            b = ref_back(u, 0, 1)
            return p[b] + lam[b][:, None] * (p[ref_back(u, 1)] - p[b]) + mu[b][:, None] * (p[ref_back(u, 0)] - p[b])

        planes[(i, j)] = ref_wavefront({(0,): curves[i], (1,): curves[j]}, step)
    return ref_wavefront(planes, ref_q_cube_steps), rng


# --- integrators ----------------------------------------------------------------


class TestIntegrators:
    @pytest.mark.parametrize("extents", [(5, 7), (4, 3, 5)])
    def test_one_form_matches_lexicographic_loop(self, rng, extents):
        net = QNet(rng.standard_normal(extents + (3,)))
        forms = {ax: rng.standard_normal(tuple(e - (a == ax) for a, e in enumerate(extents)) + (3,))
                 for ax in range(len(extents))}
        base = ((0,) * len(extents), np.zeros(3))
        assert np.array_equal(_integrate_one_form(net, forms).vertices, loop_one_form(net, forms, base))

    @pytest.mark.parametrize("bases", [(None, None), (((2, 2), 3.0), ((1, 2), -0.5))])
    def test_nu_matches_bfs_2d(self, koenigs_net_2d, bases):
        self._check_nu(koenigs_net_2d, *bases)

    @pytest.mark.parametrize("bases", [(None, None), (((1, 2, 1), -2.0), ((3, 1, 3), 0.25))])
    def test_nu_matches_bfs_3d(self, koenigs_net_3d, bases):
        self._check_nu(koenigs_net_3d[0], *bases)

    @pytest.mark.parametrize("seed", [5, 6])
    @pytest.mark.parametrize("bases", [(None, None), (((10, 20), 0.5), ((47, 0), 7.0))])
    def test_nu_matches_bfs_three_leg_48(self, seed, bases):
        # the sweep and the BFS take different paths, so they differ by the
        # net's own path dependence, which the closedness residual measures:
        # over seeds 0-9 they differ by 0.97-1.96 times it (seed 5: 1.6e-12 at
        # 1.3e-12; seed 6, the largest: 4.3e-10 at 3.2e-10)
        net = generate.random_isothermic_2d((48, 48), rng=np.random.default_rng(seed)).net
        self._check_nu(net, *bases, slack=4.0 * check_closedness(net).max_residual)

    @staticmethod
    def _check_nu(net, black, white, slack=0.0):
        black = black or ((0,) * net.m, 1.0)
        white = white or ((1,) + (0,) * (net.m - 1), 1.0)
        got = integrate_nu(net, black, white).nu.values
        ref = bfs_nu(net, build_q_form(net), black, white)
        assert np.abs(got / ref - 1.0).max() <= 1e-12 + slack

    def test_non_finite_nu_is_not_koenigs(self, monkeypatch):
        # a closed form whose products overflow along the diagonals
        big = np.full((4, 4), 1e200)
        form = DiagonalForm(q_main={(0, 1): big}, q_cross={(0, 1): big}, m_points={})
        monkeypatch.setattr(koenigs, "build_q_form", lambda net, tol: form)
        with pytest.raises(NotKoenigs, match="finite"):
            integrate_nu(generate.grid((5, 5)))


# --- wavefront fills --------------------------------------------------------------


class TestFills:
    def test_moutard_2d_bit_identical(self, rng):
        y1, y2 = rng.standard_normal((9, 4)), rng.standard_normal((7, 4))
        y2[0] = y1[0]
        a = -1.0 + 0.1 * rng.standard_normal((8, 6))
        assert np.array_equal(moutard_evolve({(0,): y1, (1,): y2}, {(0, 1): a}).points, loop_moutard((y1, y2), a))

    def test_moutard_3d_bit_identical(self, rng):
        y = rng.standard_normal((5, 6, 4, 4))
        planes = {(0, 1): y[:, :, 0], (0, 2): y[:, 0, :], (1, 2): y[0, :, :]}
        a = -1.0 + 0.1 * rng.standard_normal((4, 5, 4))
        assert np.array_equal(moutard_evolve(planes, {(0, 1): a}).points, loop_moutard(planes, a))

    def test_three_leg_48(self):
        rng = np.random.default_rng(7)
        f1 = generate._random_axis_curve(48, 0, 3, rng, 0.05)
        f2 = generate._random_axis_curve(48, 1, 3, rng, 0.05)
        labels = EdgeLabelling((1.0 + 0.05 * rng.standard_normal(47), -1.0 + 0.05 * rng.standard_normal(47)))
        got = three_leg_evolve((f1, f2), labels).net
        assert np.abs(got.vertices - loop_three_leg(f1, f2, labels)).max() <= 1e-11 * got.diameter()

    @pytest.mark.parametrize("extents", [(6, 7), (4, 5, 4)])
    def test_lightcone(self, extents):
        axes = _lightcone_axes(extents, np.random.default_rng(11))
        mn, _ = lightcone_evolve(axes)
        y, coeffs = loop_lightcone(axes)
        assert _rel(mn.points, y) <= 1e-12
        assert mn.coeffs.keys() == coeffs.keys()
        for key, a in coeffs.items():
            assert _rel(mn.coeffs[key], a) <= 1e-12

    @pytest.mark.parametrize("extents", [(5, 5, 5), (3, 4, 3, 3)])
    def test_random_koenigs_nd(self, extents):
        rng = np.random.default_rng(3)
        _, _, mn = generate.random_koenigs_nd(extents, rng=rng)
        y, ref_rng = loop_random_koenigs_nd(extents, np.random.default_rng(3))
        assert _rel(mn.points, y) <= 1e-12
        assert rng.standard_normal() == ref_rng.standard_normal()

    # blake2b digests of random_koenigs_2d nets taken when it ran its own 2d evolution, before it became the
    # m = 2 case of random_koenigs_nd: `generate moutard` output is unchanged
    KOENIGS_2D = {
        ((8, 9), 3, 101, 0.05): "8b769fe07b3654f64b8109130a68942d",
        ((5, 5), 3, 7, 0.05): "d2439f93b874be9940bb942ec0783a9f",
        ((6, 6), 4, 3, 0.05): "917553e4f410af6799e92d985c5adf5b",
        ((12, 7), 2, 0, 0.1): "107d496e26e0a0647d4211f7d2a1f241",
        ((16, 16), 3, 5, 0.05): "82233765b68acdefdd3be6f73b57ca28",
    }

    @pytest.mark.parametrize("case", sorted(KOENIGS_2D))
    def test_random_koenigs_2d_digests(self, case):
        extents, dim, seed, noise = case
        v = generate.random_koenigs_2d(extents, dim, np.random.default_rng(seed), noise).vertices
        assert hashlib.blake2b(v.tobytes(), digest_size=16).hexdigest() == self.KOENIGS_2D[case]

    def test_random_qnet_3d(self):
        rng = np.random.default_rng(4)
        net = generate.random_qnet_3d((5, 4, 6), rng=rng)
        f, ref_rng = loop_random_qnet_3d((5, 4, 6), np.random.default_rng(4))
        assert _rel(net.vertices, f) <= 1e-12
        assert rng.standard_normal() == ref_rng.standard_normal()

    def test_array_draws_equal_scalar_draws(self):
        a, b = np.random.default_rng(9), np.random.default_rng(9)
        assert np.array_equal(a.standard_normal((3, 4, 2)).ravel(), [b.standard_normal() for _ in range(24)])
        assert a.standard_normal() == b.standard_normal()

    # the draws of the generators whose fills draw nothing, at extents (5, 6)
    DRAWS = {
        "random_isothermic_2d": lambda r: [
            generate._random_axis_curve(5, 0, 3, r, 0.05),
            generate._random_axis_curve(6, 1, 3, r, 0.05),
            r.standard_normal(4),
            r.standard_normal(5),
        ],
        "random_isothermic_lightcone": lambda r: _lightcone_axes((5, 6), r),
        "random_koenigs_2d": lambda r: [
            generate._homogeneous_axis(5, 0, 3, r, 0.05),
            generate._homogeneous_axis(6, 1, 3, r, 0.05),
            r.standard_normal((4, 5)),
        ],
    }

    @pytest.mark.parametrize("make", sorted(DRAWS))
    def test_generators_leave_rng_as_the_loop(self, make):
        rng, ref = np.random.default_rng(12), np.random.default_rng(12)
        getattr(generate, make)((5, 6), rng=rng)
        self.DRAWS[make](ref)
        assert rng.standard_normal() == ref.standard_normal()


class TestLevelSchedule:
    """The fills on the cached level schedule against the index-tuple references: bitwise the same."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("extents", [(48, 48), (7, 12)])
    def test_three_leg(self, extents, seed):
        rng = np.random.default_rng(seed)
        f1 = generate._random_axis_curve(extents[0], 0, 3, rng, 0.05)
        f2 = generate._random_axis_curve(extents[1], 1, 3, rng, 0.05)
        f2[0] = f1[0]
        labels = EdgeLabelling((1.0 + 0.05 * rng.standard_normal(extents[0] - 1),
                                -1.0 + 0.05 * rng.standard_normal(extents[1] - 1)))
        assert np.array_equal(three_leg_evolve((f1, f2), labels).net.vertices, ref_three_leg(f1, f2, labels))

    @pytest.mark.parametrize("extents", [(6, 7), (16, 16), (4, 5, 4)])
    def test_lightcone(self, extents):
        axes = _lightcone_axes(extents, np.random.default_rng(11))
        assert np.array_equal(lightcone_evolve(axes)[0].points, ref_lightcone(axes))

    def test_moutard_2d(self, rng):
        y1, y2 = rng.standard_normal((9, 4)), rng.standard_normal((7, 4))
        y2[0] = y1[0]
        a = -1.0 + 0.1 * rng.standard_normal((8, 6))
        assert np.array_equal(moutard_evolve({(0,): y1, (1,): y2}, {(0, 1): a}).points, ref_moutard({(0,): y1, (1,): y2}, a))

    def test_moutard_3d(self, rng):
        y = rng.standard_normal((5, 6, 4, 4))
        planes = {(0, 1): y[:, :, 0], (0, 2): y[:, 0, :], (1, 2): y[0, :, :]}
        a = -1.0 + 0.1 * rng.standard_normal((4, 5, 4))
        assert np.array_equal(moutard_evolve(planes, {(0, 1): a}).points, ref_moutard(planes, a))

    @pytest.mark.parametrize("seed", [3, 4])
    @pytest.mark.parametrize("extents", [(5, 5, 5), (6, 6, 6), (3, 4, 3, 3)])
    def test_random_koenigs_nd(self, extents, seed):
        rng = np.random.default_rng(seed)
        mn = generate.random_koenigs_nd(extents, rng=rng)[2]
        y, ref_rng = ref_random_koenigs_nd(extents, seed)
        assert np.array_equal(mn.points, y)
        assert rng.standard_normal() == ref_rng.standard_normal()

    @pytest.mark.parametrize("seed", [4, 5])
    @pytest.mark.parametrize("extents", [(5, 4, 6), (6, 6, 6)])
    def test_random_qnet_3d(self, extents, seed):
        rng = np.random.default_rng(seed)
        net = generate.random_qnet_3d(extents, rng=rng)
        f, ref_rng = ref_random_qnet_3d(extents, seed)
        assert np.array_equal(net.vertices, f)
        assert rng.standard_normal() == ref_rng.standard_normal()

    def test_cube_step_normals_are_np_cross(self, rng):
        # the face normals are written out as component rows: on random points, every level's step is the
        # np.cross reference's bit for bit
        f = rng.standard_normal((5, 6, 7, 3))
        for level in _levels((5, 6, 7), ((0, 1), (0, 2), (1, 2))):
            assert np.array_equal(_q_cube_steps(f.reshape(-1, 3), level), ref_q_cube_steps(f, level.u))

    def test_levels_are_read_only_and_built_once_per_shape(self):
        _levels.cache_clear()
        levels = _levels((4, 5, 3), ((0, 1), (0, 2), (1, 2)))
        for level in levels:
            for arr in (level.u, level.k, level.strides, level.axes):
                assert not arr.flags.writeable
        assert _levels((4, 5, 3), ((0, 1), (0, 2), (1, 2))) is levels
        assert _levels.cache_info().hits == 1

    @pytest.mark.parametrize("extents, spans", [
        ((4, 5, 3), ((0, 1), (0, 2), (1, 2))),
        ((3, 4, 2, 3), ((0,), (1,), (2,), (3,))),
    ])
    def test_levels_sweep_the_hyperplanes_in_c_order(self, extents, spans):
        # every vertex off the data has at least two positive axes, so each can move back along two
        levels = _levels(extents, spans)
        eye = np.eye(len(extents), dtype=int)
        off = [u for u in product(*map(range, extents)) if not any(set(np.flatnonzero(u)) <= set(sp) for sp in spans)]
        assert [tuple(u) for level in levels for u in level.u] == sorted(off, key=sum)
        for level in levels:
            assert len(set(level.u.sum(axis=1))) == 1
            assert np.array_equal(level.k, np.ravel_multi_index(tuple(level.u.T), extents))
            i, j = level.axes[:2]
            assert np.all(level.u[np.arange(len(i)), i] > 0) and np.all(level.u[np.arange(len(j)), j] > 0)
            back = np.ravel_multi_index(tuple((level.u - eye[i] - eye[j]).T), extents)
            assert np.array_equal(level.back(i, j), back)

    def test_the_cache_is_bounded(self):
        _levels.cache_clear()
        bound = _levels.cache_info().maxsize
        for n in range(2, bound + 6):
            _levels((n, 3), ((0,), (1,)))
        assert _levels.cache_info().currsize == bound


class TestGeneratorArguments:
    @pytest.mark.parametrize("n", [0, -2])
    @pytest.mark.parametrize("make, extents", [
        ("random_isothermic_2d", (5, None)), ("random_koenigs_2d", (5, None)),
        ("random_isothermic_lightcone", (5, None)), ("random_koenigs_3d", (4, None, 4)),
        ("random_qnet_3d", (4, None, 4)),
    ])
    def test_an_axis_below_two_vertices_is_invalid(self, make, extents, n):
        with pytest.raises(InvalidValue, match="at least 2 vertices"):
            getattr(generate, make)(tuple(n if e is None else e for e in extents), rng=np.random.default_rng(0))

    @pytest.mark.parametrize("extents", [(3, 3), (3, 3, 3, 3)])
    def test_qnet_3d_needs_three_extents(self, extents):
        with pytest.raises(ValueError, match="three extents"):
            generate.random_qnet_3d(extents)


# --- degenerate steps -------------------------------------------------------------


def _same_error(new, loop, ref=None):
    """The error of ``new``, of the class ``loop`` raises, and with the class and message of ``ref``."""
    with pytest.raises(Exception) as got:
        new()
    with pytest.raises(Exception) as want:
        loop()
    assert type(got.value) is type(want.value)
    if ref is not None:
        with pytest.raises(Exception) as same:
            ref()
        assert (type(got.value), str(got.value)) == (type(same.value), str(same.value))
    return got.value


class TestDegenerateSteps:
    @staticmethod
    def _three_leg(f1, f2, a1, a2):
        labels = EdgeLabelling((np.asarray(a1, dtype=float), np.asarray(a2, dtype=float)))
        return ((lambda: three_leg_evolve((f1, f2), labels)), (lambda: loop_three_leg(f1, f2, labels)),
                (lambda: ref_three_leg(f1, f2, labels)))

    def test_equal_labels(self):
        f1, f2 = _grid_axes()
        err = _same_error(*self._three_leg(f1, f2, [1.0, 1.1, 0.9], [-1.0, 1.1, -0.9]))
        assert isinstance(err, EqualLabels) and "(2, 2)" in str(err)

    def test_equal_labels_name_the_first_vertex_of_their_hyperplane(self):
        # alpha_1 == alpha_2 at (1, 2) and at (2, 1): the error names the first in C order
        f1, f2 = _grid_axes()
        err = _same_error(*self._three_leg(f1, f2, [1.0, 1.1, 0.9], [1.1, 1.0, -0.9]))
        assert isinstance(err, EqualLabels) and "(1, 2)" in str(err)

    def test_coincident_points(self):
        f1, f2 = _grid_axes()
        f1[2] = f1[1]
        assert isinstance(_same_error(*self._three_leg(f1, f2, [1.0] * 3, [-1.0] * 3)), CoincidentPoints)

    def test_collinear_triple(self):
        f1, f2 = _grid_axes()
        f2[1] = -f1[1]
        assert isinstance(_same_error(*self._three_leg(f1, f2, [1.0] * 3, [-1.0] * 3)), CollinearTriple)

    def test_zero_leg(self):
        # both terms of alpha_i / z_i - alpha_j / z_j underflow to 0
        f1, f2 = _grid_axes(1e150)
        assert isinstance(_same_error(*self._three_leg(f1, f2, [1e-200] * 3, [-1e-200] * 3)), ZeroLeg)

    def test_null_diagonal_difference(self):
        y = lift_to_lightcone(np.array([[u1, u2, 0.0] for u1, u2 in product(range(3), range(3))]))
        y = y.reshape(3, 3, 5) * np.array([1.0, 2.0, 3.0])[None, :, None]
        y[1, 0], y[0, 1] = lift_to_lightcone(np.ones(3)) / 2.0, lift_to_lightcone(np.ones(3)) / 3.0  # null first diagonal
        axes = (y[:, 0], y[0, :])
        assert isinstance(_same_error(lambda: lightcone_evolve(axes), lambda: loop_lightcone(axes),
                                      lambda: ref_lightcone(axes)), NullDiagonalDifference)

    def test_parallel_hexahedron_lines(self):
        # y(u) = |u| v + c: every hexahedron's lines are degenerate
        n = 3
        v, c = np.array([1.0, 2.0, 0.5, 1.0]), np.array([0.0, 0.0, 0.0, 1.0])
        planes = {pair: np.add.outer(np.add.outer(np.arange(n), np.arange(n)), 0.0)[..., None] * v + c
                  for pair in combinations(range(3), 2)}
        y = np.full((n, n, n, 4), np.nan)
        for (i, j), p in planes.items():
            sl = [0, 0, 0, slice(None)]
            sl[i] = sl[j] = slice(None)
            y[tuple(sl)] = p
        err = _same_error(lambda: _wavefront(planes, _hexahedron_steps), lambda: loop_hexahedra(y.copy()),
                          lambda: ref_wavefront(planes, ref_hexahedron_steps))
        assert isinstance(err, DegenerateQuad) and "(1, 1, 1)" in str(err)


# --- relative guards ----------------------------------------------------------------


class TestRelativeGuards:
    def test_disagreeing_origin_at_small_scale(self):
        f1, f2 = _grid_axes(1e-12)
        f2 = f2 + 0.5e-12  # passes np.allclose, whose tolerance is absolute
        with pytest.raises(ValueError, match="disagree"):
            moutard_evolve({(0,): f1, (1,): f2}, {(0, 1): np.full((3, 3), -1.0)})
        with pytest.raises(ValueError, match="disagree"):
            three_leg_evolve((f1, f2), EdgeLabelling((np.ones(3), -np.ones(3))))

    @pytest.mark.parametrize("shape", [(4, 4), (2, 3)])
    def test_moutard_coefficients_must_fit_the_lattice(self, shape):
        # the fill gathers a_01 by the flat index of each vertex, so a coefficient array of another
        # shape than the quads' would read the wrong quad's value
        f1, f2 = _grid_axes()
        with pytest.raises(ValueError):
            moutard_evolve({(0,): f1, (1,): f2}, {(0, 1): np.full(shape, -1.0)})

    def test_non_finite_origin_fails_the_agreement_check(self):
        f1, f2 = _grid_axes()
        f2[0] = np.nan
        with pytest.raises(ValueError, match="disagree .* nan"):
            _wavefront({(0,): f1, (1,): f2}, lambda y, level: np.zeros((len(level.k), 3)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_evolutions_reject_non_finite_data(self):
        f1, f2 = _grid_axes()
        f1[2, 0] = np.inf
        with pytest.raises(VanishingLastComponent, match="not finite"):
            moutard_evolve({(0,): f1, (1,): f2}, {(0, 1): np.full((3, 3), -1.0)})
        with pytest.raises(ZeroLeg, match="not finite"):
            three_leg_evolve((f1, f2), EdgeLabelling((np.ones(3), -np.ones(3))))
        axes = _lightcone_axes((4, 5), np.random.default_rng(22))
        axes[1][3, -1] = np.inf
        with pytest.raises(ZeroE0Component, match="not finite"):
            lightcone_evolve(axes)

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    def test_extreme_scales_fill(self, scale):
        rng = np.random.default_rng(21)
        y1, y2 = rng.standard_normal((5, 4)), rng.standard_normal((6, 4))
        y2[0] = y1[0]
        a = -1.0 + 0.1 * rng.standard_normal((4, 5))
        ref = moutard_evolve({(0,): y1, (1,): y2}, {(0, 1): a}).points
        got = moutard_evolve({(0,): scale * y1, (1,): scale * y2}, {(0, 1): a}).points
        assert _rel(got / scale, ref) <= 1e-12

        f1, f2 = _grid_axes()
        labels = EdgeLabelling((np.array([1.0, 1.1, 0.9]), np.array([-1.0, -1.1, -0.9])))
        ref = three_leg_evolve((f1, f2), labels).net.vertices
        got = three_leg_evolve((scale * f1, scale * f2), labels).net.vertices
        assert _rel(got / scale, ref) <= 1e-12

        axes = _lightcone_axes((4, 5), np.random.default_rng(22))
        mn, _ = lightcone_evolve(axes)
        scaled, _ = lightcone_evolve([scale * a for a in axes])
        assert _rel(scaled.points / scale, mn.points) <= 1e-12
