"""One verdict path: every pipeline stage gate builds a CheckReport and fails
through CheckReport.require, whose one message names the report, its counts,
its largest residual and the element that holds it; every residual of a
stage is read from its report."""
import dataclasses
import re

import numpy as np
import pytest

from conftest import unchecked_homogeneous_lift, unchecked_lightcone_lift, unchecked_nu
from koenigsnets import generate, isothermic, koenigs
from koenigsnets.errors import FormNotClosed, InconsistentCrossRatios, NotCircular, NotKoenigs
from koenigsnets.geom import DEFAULT_TOL
from koenigsnets.isothermic import IsothermicNet
from koenigsnets.qnet import CheckReport, EdgeLabelling, VertexScalar


class TestRequire:
    AT = np.array([[0, 0], [0, 1], [1, 0]])

    def test_passing_report_is_returned(self):
        rep = CheckReport("demo", 1e-8, {(0, 1): (np.array([0.0, 1e-9, 1e-8]), self.AT)})
        assert rep.require(NotKoenigs) is rep

    def test_message_names_counts_worst_residual_and_element(self):
        rep = CheckReport("demo", 1e-8, {(0, 1): (np.array([0.0, 5e-8, 2e-8]), self.AT),
                                         (0, 2): (np.array([5e-8]), np.array([[3, 4]]))})
        with pytest.raises(FormNotClosed) as err:
            rep.require(FormNotClosed)
        assert str(err.value) == "demo: 3 of 4 fail, max residual 5.000e-08 at ((0, 1), (0, 1)) exceeds 1e-08"

    def test_nan_fails_and_is_named(self):
        rep = CheckReport("demo", 1e-8, {"part": (np.array([0.0, np.nan, 1.0]), self.AT)})
        with pytest.raises(NotCircular, match=re.escape("demo: 2 of 3 fail, max residual nan at ('part', (0, 1))")):
            rep.require(NotCircular)


def _k2():
    return generate.random_koenigs_2d((8, 9), rng=np.random.default_rng(101))


def _iso():
    return generate.random_isothermic_2d((6, 6), rng=np.random.default_rng(103))


def _perturbed(seed):
    return generate.perturb_in_plane(_k2(), rng=np.random.default_rng(seed))


def _nu_gate(mp):
    net = _perturbed(6)  # tests/test_koenigs.py::test_non_koenigs_rejected
    nu = unchecked_nu(net).nu.values
    return (lambda: koenigs.integrate_nu(net),
            lambda: koenigs._nu_report(net, koenigs.build_q_form(net), nu, DEFAULT_TOL))


def _dual_gate(mp):
    net = _perturbed(7)  # tests/test_koenigs.py::test_closure_fails_on_non_koenigs
    kd = unchecked_nu(net)
    forms = koenigs._dual_edge_forms(net, kd.nu.values)
    return (lambda: koenigs.dualize_net(net, kd),
            lambda: koenigs._closure_report("dual_closure", net, forms, DEFAULT_TOL))


def _moutard_gate(mp):
    net = _perturbed(7)
    kd = unchecked_nu(net)
    return (lambda: koenigs.moutard_lift(net, kd),
            lambda: koenigs.check_moutard(unchecked_homogeneous_lift(net, kd.nu.values)))


def _christoffel_gate(mp):
    iso = _iso()  # tests/test_isothermic.py::test_wrong_labels_not_closed
    a1, a2 = iso.labels.per_axis
    wrong = IsothermicNet(iso.net, EdgeLabelling((a1 + 0.5, a2)), iso.metric)
    forms = isothermic._christoffel_forms(wrong.net, wrong.labels)
    return (lambda: isothermic.christoffel(wrong),
            lambda: koenigs._closure_report("christoffel_closure", wrong.net, forms, DEFAULT_TOL))


def _lightcone_moutard_gate(mp):
    net, s = generate.flip_corner_cross_ratio(_iso())  # tests/test_isothermic.py::test_non_isothermic_rejected
    bad = IsothermicNet(net, EdgeLabelling((np.ones(5), -np.ones(5))), s)
    return (lambda: isothermic.lightcone_lift(bad),
            lambda: koenigs.check_moutard(unchecked_lightcone_lift(bad)))


def _lightcone_labels_gate(mp):
    # a valid lift whose axis-1 labels are made to differ on one edge of layer 2
    iso = _iso()
    edge_alpha = isothermic._edge_alpha

    def moved(net, s, axis):
        alpha = edge_alpha(net, s, axis)
        if axis == 1:
            alpha = alpha.copy()
            alpha[3, 2] *= 1.0 + 1e-6
        return alpha

    mp.setattr(isothermic, "_edge_alpha", moved)
    s = iso.metric.values
    return (lambda: isothermic.lightcone_lift(iso),
            lambda: isothermic._layer_report("metric_labels", [moved(iso.net, s, i) for i in range(2)], DEFAULT_TOL))


def _metric_gate(mp):
    net = _k2()  # a Koenigs net that is not isothermic: nu exists, its labels are not constant on layers
    s = koenigs.integrate_nu(net).nu.values
    return (lambda: isothermic.recover_metric(net),
            lambda: isothermic._layer_report("metric_labels", [isothermic._edge_alpha(net, s, i) for i in range(2)],
                                             DEFAULT_TOL))


def _labels_gate(mp):
    # a circular net whose cross-ratios do not factor: the labels of the origin's axis lines miss a quad
    net, _ = generate.flip_corner_cross_ratio(_iso())  # tests/test_isothermic.py::test_non_isothermic_rejected
    cr = isothermic.quad_cross_ratios(net)[(0, 1)]
    a2 = 1.0 / cr[0]
    a1 = cr[:, 0] * a2[0]
    a1[0] = 1.0
    expected = a1[:, None] / a2[None, :]
    res = np.abs(cr - expected) / np.maximum(np.abs(cr), np.abs(expected))
    at = np.argwhere(np.ones(res.shape))
    return (lambda: isothermic.recover_labels(net),
            lambda: CheckReport("label_factorization", DEFAULT_TOL.product, {(0, 1): (res.ravel(), at)}))


def _circular_gate(mp):
    net = _k2()  # tests/test_isothermic.py::test_rejects_non_circular
    return lambda: isothermic.check_isothermic(net), lambda: isothermic.check_circular(net)


# the gate's negative control (with pytest's monkeypatch), its error class at the parent, and its report name
GATES = {
    "integrate_nu": (_nu_gate, NotKoenigs, "nu_relations"),
    "dualize_net": (_dual_gate, NotKoenigs, "dual_closure"),
    "moutard_lift": (_moutard_gate, NotKoenigs, "moutard"),
    "christoffel": (_christoffel_gate, FormNotClosed, "christoffel_closure"),
    "lightcone_lift moutard": (_lightcone_moutard_gate, FormNotClosed, "moutard"),
    "lightcone_lift labels": (_lightcone_labels_gate, InconsistentCrossRatios, "metric_labels"),
    "recover_metric": (_metric_gate, InconsistentCrossRatios, "metric_labels"),
    "recover_labels": (_labels_gate, InconsistentCrossRatios, "label_factorization"),
    "check_isothermic circularity": (_circular_gate, NotCircular, "circular"),
}


@pytest.mark.parametrize("gate", GATES)
def test_every_gate_fails_through_its_report(gate, monkeypatch):
    control, cls, name = GATES[gate]
    run, report = control(monkeypatch)
    with pytest.raises(cls) as err:
        run()
    message = str(err.value)
    rep = report()
    found = re.fullmatch(name + r": (\d+) of (\d+) fail, max residual (\S+) at (.+) exceeds (\S+)", message)
    assert found, message
    assert "np." not in message
    assert not rep.passed and rep.name == name
    assert (int(found[1]), int(found[2])) == (rep.n_failed, rep.n_checked)
    assert found[3] == f"{rep.max_residual:.3e}" and found[5] == f"{rep.tol:.0e}"
    assert found[4] == str(rep.worst_at)


def _is_largest(rep):
    """Whether a report's max_residual is the largest residual of its parts, NaN included."""
    a, b = rep.max_residual, float(np.max(np.concatenate([res for res, _ in rep.parts.values()])))
    return a == b or (np.isnan(a) and np.isnan(b))


@pytest.mark.parametrize("seed", [None, 6, 7])
def test_float_residuals_are_their_reports_maxima(seed):
    # the one float residual of each Koenigs stage is its report's max_residual
    net = _k2() if seed is None else _perturbed(seed)
    kd = unchecked_nu(net)
    assert _is_largest(koenigs._nu_report(net, koenigs.build_q_form(net), kd.nu.values, DEFAULT_TOL))
    assert _is_largest(koenigs._closure_report("dual_closure", net, koenigs._dual_edge_forms(net, kd.nu.values),
                                               DEFAULT_TOL))
    assert _is_largest(koenigs.check_moutard(unchecked_homogeneous_lift(net, kd.nu.values)))


def test_unchecked_nu_is_the_nu(koenigs_net_3d):
    # the nu the controls build without a gate is the one integrate_nu returns, bit for bit
    for net in (_k2(), _iso().net, koenigs_net_3d[0]):
        assert np.array_equal(unchecked_nu(net).nu.values, koenigs.integrate_nu(net).nu.values)


def test_unchecked_lifts_are_the_lifts():
    # the lifts the controls build without a gate are those the gated lifts return, bit for bit
    net, iso = _k2(), _iso()
    kd = koenigs.integrate_nu(net)
    for lift, unchecked in ((koenigs.moutard_lift(net, kd), unchecked_homogeneous_lift(net, kd.nu.values)),
                            (isothermic.lightcone_lift(iso), unchecked_lightcone_lift(iso))):
        assert np.array_equal(lift.points, unchecked.points)
        assert lift.coeffs.keys() == unchecked.coeffs.keys()
        assert all(np.array_equal(lift.coeffs[k], unchecked.coeffs[k]) for k in lift.coeffs)


@pytest.mark.parametrize("shift", [0.0, 0.5])
def test_christoffel_residual_is_its_reports_maximum(shift):
    iso = _iso()
    a1, a2 = iso.labels.per_axis
    iso = IsothermicNet(iso.net, EdgeLabelling((a1 + shift, a2)), iso.metric)
    forms = isothermic._christoffel_forms(iso.net, iso.labels)
    rep = koenigs._closure_report("christoffel_closure", iso.net, forms, DEFAULT_TOL)
    assert _is_largest(rep)
    assert rep.passed == (shift == 0.0)


def test_layer_report_holds_each_edge_against_the_first_of_its_layer():
    # axis-0 labels on a 2 x 2 x 2 block of edges: layer 1 differs from its first edge only at (1, 1, 1),
    # by 0.5 of the largest label 2.5; each transverse axis alone would see a spread there too
    alpha = np.ones((2, 2, 2))
    alpha[1] = 2.0
    alpha[1, 1, 1] = 2.5
    rep = isothermic._layer_report("labels", [alpha], DEFAULT_TOL)
    res, at = rep.parts[0]
    assert res.tolist() == [0.0] * 7 + [0.2]
    assert at.tolist() == np.argwhere(np.ones((2, 2, 2))).tolist()
    assert rep.worst_at == (0, (1, 1, 1)) and rep.n_failed == 1


def test_report_indices_are_shared_and_read_only():
    net = _k2()
    rep = koenigs._nu_report(net, koenigs.build_q_form(net), koenigs.integrate_nu(net).nu.values, DEFAULT_TOL)
    (_, main), (_, cross) = rep.parts.values()
    assert main is cross and not main.flags.writeable


def test_vertex_scalar_keeps_a_read_only_copy():
    values = np.array([[1.0, -2.0], [3.0, 4.0]])
    s = VertexScalar(values)
    assert not s.values.flags.writeable and values.flags.writeable
    values[0, 0] = 0.0  # the caller's array stays its own
    assert s.values[0, 0] == 1.0
    with pytest.raises(ValueError):
        s.values[0, 0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.values = np.zeros((2, 2))


def test_edge_labelling_keeps_read_only_copies():
    a = np.array([1.0, 2.0])
    labels = EdgeLabelling((a, -a))
    assert not any(x.flags.writeable for x in labels.per_axis) and a.flags.writeable
    a[0] = 0.0  # the caller's array stays its own
    assert labels.per_axis[0][0] == 1.0 and labels.per_axis[1][0] == -1.0
    with pytest.raises(ValueError):
        labels.per_axis[0][0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        labels.per_axis = (a, -a)


def _lift(net):
    return koenigs.moutard_lift(net, koenigs.integrate_nu(net))


def _evolved(mn):
    return koenigs.moutard_evolve({(0,): mn.points[:, 0], (1,): mn.points[0, :]}, {(0, 1): mn.coeffs[(0, 1)]})


MOUTARD_BUILDERS = {  # a Moutard net from each builder of the library, given a generator
    "moutard_lift": lambda rng: _lift(_k2()),
    "moutard_evolve": lambda rng: _evolved(_lift(_k2())),
    "lightcone_lift": lambda rng: isothermic.lightcone_lift(generate.random_isothermic_2d((6, 6), rng=rng)),
    "lightcone_evolve": lambda rng: generate.random_isothermic_lightcone((4, 4, 4), rng=rng)[0],
    "random_koenigs_3d": lambda rng: generate.random_koenigs_3d((4, 4, 4), rng=rng)[2],
}


@pytest.mark.parametrize("builder", sorted(MOUTARD_BUILDERS))
def test_moutard_net_is_read_only(builder):
    mn = MOUTARD_BUILDERS[builder](np.random.default_rng(104))
    before = koenigs.check_moutard(mn)
    for arr in (mn.points, *mn.coeffs.values()):
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] += 1.0
    with pytest.raises(TypeError):
        mn.coeffs[(0, 1)] = np.zeros(1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        mn.points = mn.points.copy()
    after = koenigs.check_moutard(mn)
    assert after.passed and after.parts.keys() == before.parts.keys()
    assert all(np.array_equal(after.parts[key][0], res) for key, (res, _) in before.parts.items())


def test_moutard_net_copies_only_what_its_caller_can_write():
    mn = _lift(_k2())
    again = koenigs.MoutardNet(mn.points, mn.coeffs)  # read-only already: kept, not copied
    assert again.points is mn.points and again.coeffs[(0, 1)] is mn.coeffs[(0, 1)]
    points, a = mn.points.copy(), mn.coeffs[(0, 1)].copy()
    coeffs = {(0, 1): a}
    own = koenigs.MoutardNet(points, coeffs)
    points[2, 3, 0] += 1.0  # the caller's arrays and mapping stay its own
    a[2, 3] = np.nan
    coeffs[(0, 2)] = a
    assert points.flags.writeable and a.flags.writeable and list(own.coeffs) == [(0, 1)]
    assert np.array_equal(own.points, mn.points) and np.array_equal(own.coeffs[(0, 1)], mn.coeffs[(0, 1)])
    assert koenigs.check_moutard(own).passed
    # a read-only view of a writable array is copied too: a write to the array must not reach the net
    view = points.view()
    view.setflags(write=False)
    through = koenigs.MoutardNet(view, {(0, 1): a.reshape(-1).reshape(a.shape)})
    assert through.points is not view and through.points.base is None
    before = through.points.copy()
    points[0, 0, 0] += 1.0
    assert np.array_equal(through.points, before)


def test_frozen_values(iso_net):
    # writes to every field of the pipeline's values, to every mapping and to every array they hold raise
    net = _k2()
    kd, form = koenigs.integrate_nu(net), koenigs.build_q_form(net)
    closed = koenigs.check_closedness(net)
    for value, fields in ((kd, ("nu",)), (form, ("q_main", "q_cross", "m_points")),
                          (iso_net, ("net", "labels", "metric"))):
        for name in fields:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, None)
    for mapping in (form.q_main, form.q_cross, form.m_points):
        with pytest.raises(TypeError):
            mapping[(0, 1)] = np.ones(1)
        with pytest.raises(ValueError):
            mapping[(0, 1)].flat[0] = 1.0
    for arr in (kd.nu.values, iso_net.metric.values, *iso_net.labels.per_axis, iso_net.net.vertices):
        with pytest.raises(ValueError):
            arr.flat[0] = 1.0
    assert koenigs.build_q_form(net) is form and koenigs.check_closedness(net).passed == closed.passed
