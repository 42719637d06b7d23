"""One element locator for every degeneracy: geom._raise_first picks the
first failing element and the first check it fails, and every guard names
that element as ``quad base (a, b) (axes i,j): ...`` or ``vertex (...): ...``
with plain ints."""
import re

import numpy as np
import pytest

from koenigsnets import generate, isothermic, koenigs
from koenigsnets.errors import (
    CoincidentPoints,
    DegenerateQuad,
    EqualLabels,
    EqualNuOnWhiteDiagonal,
    NotAlternating,
    NotConcircular,
    NotKoenigs,
    NotPlanar,
    NullDiagonalDifference,
    VanishingLastComponent,
    VertexOnDiagonal,
    ZeroLeg,
)
from koenigsnets.geom import _raise_first
from koenigsnets.qnet import EdgeLabelling, QNet, VertexScalar


class TestRaiseFirst:
    VALUES = np.array([0.5, 1.25, 2.0, 3.0])

    def test_first_element_wins_then_its_first_check(self):
        # element 1 fails the second and third checks, element 2 the first two:
        # element 1 comes first, and its first failing check is the second
        checks = [
            (np.array([False, False, True, True]), DegenerateQuad, "first {:.3e}", self.VALUES),
            (np.array([False, True, True, False]), ZeroLeg, "second {:.3e} of {}", self.VALUES, np.arange(4)),
            (np.array([False, True, False, False]), CoincidentPoints, "third"),
        ]
        with pytest.raises(ZeroLeg) as err:
            _raise_first(checks, lambda k: f"at {k}: ")
        assert str(err.value) == "at 1: second 1.250e+00 of 1"

    def test_values_are_formatted_at_the_element(self):
        checks = [(np.array([False, False, False, True]), NotPlanar, "residual {} and {:.2f}", self.VALUES,
                   self.VALUES * 2)]
        with pytest.raises(NotPlanar, match=r"^residual 3\.0 and 6\.00$"):
            _raise_first(checks, lambda k: "")

    def test_nothing_fails(self):
        assert _raise_first([(np.zeros(4, dtype=bool), NotPlanar, "never")], lambda k: "never") is None
        assert _raise_first([(np.zeros(0, dtype=bool), NotPlanar, "never")], lambda k: "never") is None


def _grid_with(extents, dim, changes):
    """A unit grid in R^dim with some vertices moved: {lattice index: new point}."""
    v = generate.grid(extents, ambient_dim=dim).vertices.copy()
    for u, p in changes.items():
        v[u] = p
    return QNet(v)


def _three_leg_equal_labels():
    f1 = np.array([[0.0, 0.0, 0.0], [1.0, 0.1, 0.0], [2.0, 0.0, 0.1], [3.0, 0.1, 0.0]])
    f2 = np.array([[0.0, 0.0, 0.0], [0.1, 1.0, 0.0], [0.0, 2.0, 0.1], [0.1, 3.0, 0.0]])
    labels = EdgeLabelling((np.array([1.0, 1.1, 0.9]), np.array([-1.0, 1.1, -0.9])))  # equal at (2, 2)
    isothermic.three_leg_evolve((f1, f2), labels)


def _vanishing_last_component():
    y1 = np.array([[0, 0, 1], [1, 0, -1]], dtype=float)
    y2 = np.array([[0, 0, 1], [0, 1, 1]], dtype=float)
    koenigs.moutard_evolve((y1, y2), {(0, 1): np.array([[-0.5]])}).project_homogeneous()


def _lightcone_faces(monkeypatch):
    """lightcone_evolve on valid data, with the face check told that the
    faces at (2, 0) and (1, 2) are isotropic: the fill does not see them."""
    mn, _ = generate.random_isothermic_lightcone((4, 4), rng=np.random.default_rng(5))
    coeff = isothermic._lightcone_coeff

    def flagged(y, d, tol):
        a, null = coeff(y, d, tol)
        if null.ndim == 2:  # the face check's base grid; the fill's levels are flat
            null = null.copy()
            null[2, 0] = null[1, 2] = True
        return a, null

    monkeypatch.setattr(isothermic, "_lightcone_coeff", flagged)
    isothermic.lightcone_evolve((mn.points[:, 0], mn.points[0, :]))


def _equal_nu_on_a_white_diagonal():
    iso = generate.random_isothermic_2d((6, 6), rng=np.random.default_rng(103))
    s = iso.metric.values.copy()
    s[2, 1] = s[1, 2]
    isothermic.lightcone_lift(isothermic.IsothermicNet(iso.net, iso.labels, VertexScalar(s)))


def _overflowing_nu(monkeypatch):
    """integrate_nu on a closed form whose products overflow along the diagonals."""
    big = np.full((4, 4), 1e200)
    form = koenigs.DiagonalForm(q_main={(0, 1): big}, q_cross={(0, 1): big}, m_points={})
    monkeypatch.setattr(koenigs, "build_q_form", lambda net, tol: form)
    koenigs.integrate_nu(generate.grid((5, 5)))


def _constant_metric_limit_signs():
    iso = generate.random_isothermic_2d((6, 6), rng=np.random.default_rng(1))
    isothermic.christoffel(isothermic.IsothermicNet(iso.net, iso.labels, VertexScalar(np.ones((6, 6)))),
                           limit_signs=True)


NUMBER = r"[0-9.e+-]+"

# the guard, run with pytest's monkeypatch, then its error class and message
GUARDS = {
    "diagonals parallel": (lambda mp: koenigs.build_q_form(_grid_with((4, 4), 2, {(2, 3): (0.5, 2.5)})),
                           DegenerateQuad,
                           re.escape("quad base (1, 2) (axes 0,1): diagonals are parallel (intersection at infinity)")),
    "diagonals skew": (lambda mp: koenigs.build_q_form(_grid_with((4, 4), 3, {(2, 2): (2.0, 2.0, 0.3)})),
                       DegenerateQuad,
                       re.escape("quad base (1, 1) (axes 0,1): skew diagonals: residual ") + NUMBER
                       + " exceeds tolerance"),
    "diagonals meet at a vertex": (lambda mp: koenigs.build_q_form(_grid_with((4, 4), 2, {(2, 1): (1.5, 1.5)})),
                                   VertexOnDiagonal,
                                   re.escape("quad base (1, 1) (axes 0,1): diagonal intersection coincides with a "
                                             "vertex")),
    "circles": (lambda mp: isothermic.check_circular(_grid_with((5, 5), 3, {(2, 2): (2.0, 2.0, 0.3)})),
                NotPlanar, re.escape("quad base (1, 1) (axes 0,1): points are not coplanar (residual ") + NUMBER
                + r"\)"),
    "cross-ratios": (lambda mp: isothermic.quad_cross_ratios(_grid_with((5, 5), 3, {(2, 2): (2.2, 2.0, 0.0)})),
                     NotConcircular, re.escape("quad base (1, 1) (axes 0,1): points are not concircular (residual ")
                     + NUMBER + r"\)"),
    "light-cone faces": (_lightcone_faces, NullDiagonalDifference,
                         re.escape("quad base (1, 2) (axes 0,1): diagonal difference is isotropic")),
    "fill step": (lambda mp: _three_leg_equal_labels(), EqualLabels,
                  re.escape("vertex (2, 2): alpha_i == alpha_j: fourth vertex at infinity")),
    "projection": (lambda mp: _vanishing_last_component(), VanishingLastComponent,
                   re.escape("vertex (1, 1): projected point at infinity")),
    "Moutard coefficients": (lambda mp: _equal_nu_on_a_white_diagonal(), EqualNuOnWhiteDiagonal,
                             re.escape("quad base (1, 1) (axes 0,1): nu_i == nu_j: Moutard coefficient singular")),
    "non-finite nu": (_overflowing_nu, NotKoenigs,
                      re.escape("vertex (0, 2): nu propagation leaves the finite nonzero numbers")),
    "limit signs": (lambda mp: _constant_metric_limit_signs(), NotAlternating,
                    re.escape("vertex (0, 1): sign does not alternate along axis 1")),
}


@pytest.mark.parametrize("case", GUARDS)
def test_every_guard_names_its_element_in_one_format(case, monkeypatch):
    run, cls, message = GUARDS[case]
    with pytest.raises(cls) as err:
        run(monkeypatch)
    assert re.fullmatch(message, str(err.value)), str(err.value)
    assert "np." not in str(err.value)
