"""Acceptance gate: one pass/fail line per criterion.

Randomized property tests at desk scale covering the dual-quad law,
generator soundness, the Koenigs characterization equivalences (m = 2, 3),
duality involutions, projective and Moebius invariance, the isothermic
pipeline, the Christoffel contract, the metric caveat, the Menelaus
predicate, and the continuous-limit sign conventions.
"""
import numpy as np
import pytest

from conftest import lightcone_labels, random_planar_quad, switched_defects, unchecked_nu
from koenigsnets import generate
from koenigsnets.errors import DegeneracyError, FormNotClosed, NotKoenigs
from koenigsnets.geom import Tolerances, menelaus_product, span_residual
from koenigsnets.isothermic import (
    check_isothermic,
    christoffel,
    lightcone_lift,
    quad_cross_ratios,
    recover_labels,
    recover_metric,
)
from koenigsnets.isothermic import _edge_alpha
from koenigsnets.koenigs import (
    KoenigsData,
    build_q_form,
    check_closedness,
    check_koenigs_2d_geometric,
    check_koenigs_3d_geometric,
    check_moutard,
    dual_quad_residual,
    dualize_net,
    dualize_quad,
    integrate_nu,
    moutard_lift,
    normalize_nu_for_limit,
)
from koenigsnets.qnet import QNet, VertexScalar


def _report(num: int, name: str, passed: bool, detail: str = "") -> None:
    line = f"{'PASS' if passed else 'FAIL'} acceptance {num} ({name})"
    if detail:
        line += f": {detail}"
    print(line)
    assert passed, line


def _draw(fn, rng, n):
    """n generator outputs, redrawing on numerical degeneracies."""
    out = []
    while len(out) < n:
        try:
            out.append(fn(rng))
        except DegeneracyError:
            continue
    return out


@pytest.fixture(scope="module")
def nets_2d():
    rng = np.random.default_rng(2026_01)
    return _draw(lambda r: generate.random_koenigs_2d((10, 10), rng=r), rng, 100)


def _random_koenigs_3d_checked(rng):
    # reject nets whose quads only turn out ill-conditioned at check time
    net = generate.random_koenigs_nd((5, 5, 5), rng=rng)[0]
    build_q_form(net)
    return net


@pytest.fixture(scope="module")
def nets_3d():
    rng = np.random.default_rng(2026_02)
    return _draw(_random_koenigs_3d_checked, rng, 100)


@pytest.fixture(scope="module")
def iso_nets():
    rng = np.random.default_rng(2026_03)
    return _draw(lambda r: generate.random_isothermic_2d((6, 6), rng=r), rng, 100)


@pytest.fixture(scope="module")
def lightcone_nets():
    rng = np.random.default_rng(2026_04)
    return _draw(lambda r: generate.random_isothermic_lightcone((6, 6), rng=r), rng, 100)


def test_criterion_01_dual_quad_law():
    rng = np.random.default_rng(2026_05)
    quads = np.stack([random_planar_quad(rng) for _ in range(1000)])
    d = dualize_quad(quads)
    worst_parallel = float(dual_quad_residual(quads, d).max())
    dd = dualize_quad(d)
    v1 = quads - quads.mean(axis=1, keepdims=True)
    v2 = dd - dd.mean(axis=1, keepdims=True)
    scale = (v2 * v1).sum(axis=(1, 2)) / (v1 * v1).sum(axis=(1, 2))
    shape = np.linalg.norm(v2 - scale[:, None, None] * v1, axis=(1, 2)) / np.linalg.norm(v2, axis=(1, 2))
    worst_shape = float(shape.max())
    _report(
        1, "dual-quad law",
        worst_parallel <= 1e-9 and worst_shape <= 1e-9,
        f"1000 quads, parallelism {worst_parallel:.2e}, dual-of-dual shape {worst_shape:.2e}",
    )


def test_criterion_02_generator_soundness(nets_2d, nets_3d):
    worst = 0.0
    for net in nets_2d + nets_3d:
        rep = check_closedness(net)
        worst = max(worst, rep.max_residual)
    _report(
        2, "generator soundness",
        worst <= 1e-9,
        f"200 Moutard-evolved nets (m=2 10x10, m=3 5x5x5), max |product-1| {worst:.2e}",
    )


def _passes(run, cls) -> bool:
    """Whether ``run()`` passes its gate, which raises ``cls`` when it fails."""
    try:
        run()
    except cls:
        return False
    return True


def _verdicts_2d(net):
    closed = check_closedness(net).passed
    geometric = check_koenigs_2d_geometric(net).passed
    kd = unchecked_nu(net)
    # the dual and the lift fail exactly when their closure and Moutard residuals exceed 1e-8
    dual_ok = _passes(lambda: dualize_net(net, kd), NotKoenigs)
    moutard_ok = _passes(lambda: moutard_lift(net, kd), NotKoenigs)
    return closed, geometric, dual_ok, moutard_ok


def test_criterion_03_equivalence_2d(nets_2d):
    rng = np.random.default_rng(2026_06)
    agree = 0
    total = 0
    for net in nets_2d:
        v = _verdicts_2d(net)
        agree += v == (True,) * 4
        total += 1
    for net in nets_2d:
        bad = generate.perturb_in_plane(net, rng=rng, magnitude=1e-2)
        v = _verdicts_2d(bad)
        agree += v == (False,) * 4
        total += 1
    _report(
        3, "characterization equivalence m=2",
        agree == total,
        f"{agree}/{total} nets with all four verdicts in agreement",
    )


def _verdicts_3d(net):
    rep = check_koenigs_3d_geometric(net)
    fine = dict.fromkeys(("black", "white", "corners"), True)
    for (kind, _), (res, _) in rep.parts.items():
        fine[kind] = fine[kind] and bool(np.all(res <= 1e-8))
    return fine["black"], fine["white"], fine["corners"], check_closedness(net).passed


def test_criterion_04_equivalence_3d(nets_3d):
    rng = np.random.default_rng(2026_07)
    negatives = _draw(lambda r: generate.random_qnet_3d((4, 4, 4), rng=r), rng, 100)
    agree = sum(_verdicts_3d(net) == (True,) * 4 for net in nets_3d)
    agree += sum(_verdicts_3d(net) == (False,) * 4 for net in negatives)
    _report(
        4, "characterization equivalence m=3",
        agree == 200,
        f"{agree}/200 hexahedral verdicts in agreement",
    )


def test_criterion_05_duality_involution(nets_2d, iso_nets):
    worst = 0.0
    for net in nets_2d[:5]:
        kd = integrate_nu(net)
        dual = dualize_net(net, kd)
        kd_dual = KoenigsData(nu=VertexScalar(1.0 / kd.nu.values))
        back = dualize_net(dual, kd_dual)
        diff = back.vertices - net.vertices
        worst = max(worst, np.abs(diff - diff[0, 0]).max() / net.diameter())
    for iso in iso_nets[:5]:
        back = christoffel(christoffel(iso))
        diff = back.net.vertices - iso.net.vertices
        worst = max(worst, np.abs(diff - diff[0, 0]).max() / iso.net.diameter())
    _report(
        5, "duality involution",
        worst <= 1e-8,
        f"Koenigs and Christoffel double duals, max vertex error {worst:.2e}",
    )


def test_criterion_06_invariance(nets_2d, iso_nets):
    rng = np.random.default_rng(2026_08)
    net = nets_2d[0]
    bad = generate.perturb_in_plane(net, rng=rng)
    ok = True
    done = 0
    while done < 50:
        P = generate.random_projective(3, rng=rng, spread=0.02)
        try:
            img = generate.apply_projective(net, P)
            img_bad = generate.apply_projective(bad, P)
            build_q_form(img)
            build_q_form(img_bad)
        except DegeneracyError:
            continue
        ok = ok and check_closedness(img).passed
        ok = ok and not check_closedness(img_bad).passed
        done += 1
    iso = iso_nets[0]
    cr = quad_cross_ratios(iso.net)[(0, 1)]
    worst_cr = 0.0
    for k in range(50):
        if k % 2 == 0:
            rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            img = QNet((0.5 + rng.random()) * iso.net.vertices @ rot.T + rng.standard_normal(3))
        else:
            img = generate.apply_moebius(
                iso.net, scale=0.5 + rng.random(), shift=rng.standard_normal(3)
            )
        ok = ok and check_isothermic(img).passed
        worst_cr = max(worst_cr, np.abs(quad_cross_ratios(img)[(0, 1)] - cr).max())
    ok = ok and worst_cr <= 1e-8 * np.abs(cr).max()
    _report(
        6, "projective/Moebius invariance",
        ok,
        f"50 projective + 50 Moebius maps, cross-ratio drift {worst_cr:.2e}",
    )


def _labels_match(recovered, reference, tol):
    r = np.concatenate(recovered.per_axis)
    a = np.concatenate(reference.per_axis)
    scale = a[0] / r[0]
    return np.abs(r * scale - a).max() <= tol * np.abs(a).max()


def test_criterion_07_isothermic_pipeline(iso_nets, lightcone_nets):
    ok = True
    worst_alpha = 0.0
    worst_lift = 0.0
    for iso in iso_nets + [pair[1] for pair in lightcone_nets]:
        ok = ok and check_isothermic(iso.net).passed
        ok = ok and _labels_match(recover_labels(iso.net), iso.labels, 1e-8)
        s = recover_metric(iso.net)
        for i in (0, 1):
            alpha = _edge_alpha(iso.net, s.values, i)
            layered = np.moveaxis(alpha, i, 0).reshape(alpha.shape[i], -1)
            worst_alpha = max(
                worst_alpha,
                np.abs(layered - layered[:, :1]).max() / np.abs(alpha).max(),
            )
        mn = lightcone_lift(iso)
        worst_lift = max(worst_lift, check_moutard(mn).max_residual)
        for i in (0, 1):  # -2 <y, tau_i y> = |f_i - f|^2 / (s s_i), constant on each layer
            lifted = lightcone_labels(mn, i)
            alpha = _edge_alpha(iso.net, iso.metric.values, i)
            layered = np.moveaxis(lifted, i, 0).reshape(lifted.shape[i], -1)
            worst_lift = max(
                worst_lift,
                np.abs(layered - layered[:, :1]).max() / np.abs(lifted).max(),
                np.abs(lifted - alpha).max() / np.abs(alpha).max(),
            )
    ok = ok and worst_alpha <= 1e-9 and worst_lift <= 1e-9
    _report(
        7, "isothermic pipeline",
        ok,
        f"200 nets, labelling variance {worst_alpha:.2e}, lift identity {worst_lift:.2e}",
    )


def test_criterion_08_christoffel_contract(iso_nets):
    worst_cr = 0.0
    worst_diag = 0.0
    worst_metric = 0.0
    for iso in iso_nets[:25]:
        dual = christoffel(iso)
        cr = quad_cross_ratios(iso.net)[(0, 1)]
        cr_dual = quad_cross_ratios(dual.net)[(0, 1)]
        worst_cr = max(worst_cr, np.abs(cr - cr_dual).max() / np.abs(cr).max())
        worst_metric = max(
            worst_metric, np.abs(dual.metric.values * iso.metric.values - 1.0).max()
        )
        f = iso.net.vertices
        fs = dual.net.vertices
        a1, a2 = iso.labels.per_axis
        diff = (a1[:, None] - a2[None, :])[..., None]
        d_black = f[1:, 1:] - f[:-1, :-1]
        d_white = f[1:, :-1] - f[:-1, 1:]
        rhs_white = diff * d_black / (d_black * d_black).sum(axis=-1, keepdims=True)
        rhs_black = diff * d_white / (d_white * d_white).sum(axis=-1, keepdims=True)
        lhs_white = fs[1:, :-1] - fs[:-1, 1:]
        lhs_black = fs[1:, 1:] - fs[:-1, :-1]
        scale = np.abs(fs - fs.mean(axis=(0, 1))).max()
        worst_diag = max(
            worst_diag,
            np.abs(lhs_white - rhs_white).max() / scale,
            np.abs(lhs_black - rhs_black).max() / scale,
        )
    ok = worst_cr <= 1e-9 and worst_diag <= 1e-9 and worst_metric <= 1e-12
    _report(
        8, "Christoffel contract",
        ok,
        f"cross-ratio drift {worst_cr:.2e}, diagonal relations {worst_diag:.2e}, "
        f"s* s deviation {worst_metric:.2e}",
    )


def test_criterion_09_metric_caveat(iso_nets):
    iso = iso_nets[0]
    net, s = generate.flip_corner_cross_ratio(iso)
    metric_holds = True
    for i in (0, 1):
        alpha = _edge_alpha(net, s.values, i)
        layered = np.moveaxis(alpha, i, 0).reshape(alpha.shape[i], -1)
        spread = np.abs(layered - layered[:, :1]).max()
        metric_holds = metric_holds and spread <= 1e-9 * np.abs(alpha).max()
    counterexample = metric_holds and not check_isothermic(net).passed
    closes = _passes(lambda: christoffel(iso, tol=Tolerances(product=1e-9)), FormNotClosed)  # within 1e-9
    sufficiency = check_isothermic(iso.net).passed and closes
    _report(
        9, "metric caveat",
        counterexample and sufficiency,
        "sign-flipped net keeps the metric property yet fails; embedded case passes",
    )


def _menelaus_instance(n, rng):
    """(vertices, division points on the sides of a random hyperplane slice)."""
    while True:
        verts = rng.standard_normal((n + 1, n))
        if not span_residual(verts - verts.mean(axis=0), n - 1) > 1e-9:  # affine rank below n
            continue
        w = rng.standard_normal(n)
        c = float(w @ verts.mean(axis=0))
        divs = []
        ok = True
        for i in range(n + 1):
            p, pn = verts[i], verts[(i + 1) % (n + 1)]
            denom = float(w @ (pn - p))
            if abs(denom) < 1e-3:
                ok = False
                break
            t = (c - float(w @ p)) / denom
            if min(abs(t), abs(1.0 - t)) < 0.05:
                ok = False
                break
            divs.append(p + t * (pn - p))
        if ok:
            return verts, divs


def test_criterion_10_menelaus():
    rng = np.random.default_rng(2026_09)
    ok = True
    for k in range(1000):
        n = 2 if k % 2 == 0 else 3
        target = (-1.0) ** (n + 1)
        verts, divs = _menelaus_instance(n, rng)
        ok = ok and abs(menelaus_product(verts, divs) - target) <= 1e-8
        # negative: slide one division point along its line by >= 1e-3
        i = int(rng.integers(n + 1))
        edge = verts[(i + 1) % (n + 1)] - verts[i]
        divs[i] = divs[i] + (1e-3 + rng.random()) * edge
        ok = ok and abs(menelaus_product(verts, divs) - target) > 1e-8
    _report(10, "Menelaus predicate", ok, "1000 sliced simplices in R^2 and R^3")


def test_criterion_11_continuous_limit(iso_nets):
    worst_moutard = 0.0
    positive = True
    switched = True
    for iso in iso_nets[:25]:
        kd = integrate_nu(iso.net)
        nu_prime = normalize_nu_for_limit(kd, 1)
        positive = positive and np.all(nu_prime.values > 0)
        mn = moutard_lift(iso.net, kd)
        worst_moutard = max(worst_moutard, check_moutard(mn).max_residual)
        # the plus-sign defect of the switched lift is -(-1)^(u_2) times the minus-sign one, bit for bit
        plus, minus = switched_defects(mn, 1)
        sign = np.where(np.arange(minus.shape[1]) % 2 == 0, 1.0, -1.0)[:, None]
        switched = switched and np.array_equal(plus, -sign * minus)
    ok = positive and switched and worst_moutard <= 1e-9
    _report(
        11, "continuous-limit sanity",
        ok,
        f"switched Moutard defects equal, Moutard {worst_moutard:.2e}",
    )
