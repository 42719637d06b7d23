import numpy as np
import pytest

from koenigsnets import generate
from koenigsnets.geom import DEFAULT_TOL, lift_to_lightcone, minkowski_dot
from koenigsnets.koenigs import KoenigsData, MoutardNet, _moutard_coeffs, _propagate_nu, build_q_form
from koenigsnets.qnet import VertexScalar, _corners, _crop, _stack_quads


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture(scope="session")
def koenigs_net_2d():
    return generate.random_koenigs_2d((8, 9), rng=np.random.default_rng(101))


@pytest.fixture(scope="session")
def koenigs_net_3d():
    net, nu, mn = generate.random_koenigs_3d((4, 4, 4), rng=np.random.default_rng(102))
    return net, nu, mn


@pytest.fixture(scope="session")
def iso_net():
    return generate.random_isothermic_2d((6, 6), rng=np.random.default_rng(103))


@pytest.fixture(scope="session")
def iso_lightcone_3d():
    mn, iso = generate.random_isothermic_lightcone((4, 4, 4), rng=np.random.default_rng(104))
    return mn, iso


def gather_quads(net, i, j):
    """The (i, j) quads (Q, 4, N) of a net, bases in C order, and the shape of their base grid: their part of
    the net's quad stack (qnet._stack_quads), in the layout of the public kernels."""
    abcd, pairs = _stack_quads(net)
    (shape, at), = [(shape, at) for key, shape, at in pairs if key == (i, j)]
    return np.moveaxis(abcd[:, :, at], -1, 0), shape


def unchecked_nu(net):
    """The KoenigsData of integrate_nu, without its nu_relations gate, so that a test can dualize or lift
    a net that is not Koenigs."""
    return KoenigsData(VertexScalar(_propagate_nu(net, build_q_form(net), None, None)))


def unchecked_lift(points, w):
    """A Moutard net on ``points`` whose last homogeneous (or e_0) component is w, with the coefficients
    the lifts use and no gate, so that a test can read the report of a lift that would not pass."""
    return MoutardNet(points, _moutard_coeffs(w, DEFAULT_TOL))


def unchecked_homogeneous_lift(net, nu):
    """The lift y = (f, 1) / nu of moutard_lift, without its gate."""
    return unchecked_lift(np.concatenate([net.vertices, np.ones(net.extents + (1,))], axis=-1) / nu[..., None],
                          1.0 / nu)


def unchecked_lightcone_lift(iso):
    """The lift y = (f + e_0 + |f|^2 e_inf) / s of lightcone_lift, without its gates."""
    s = iso.metric.values
    return unchecked_lift(lift_to_lightcone(iso.net.vertices) / s[..., None], 1.0 / s)


def lightcone_labels(mn, axis):
    """-2 <y, tau_axis y> on every axis edge of a light-cone Moutard net."""
    return -2.0 * minkowski_dot(_crop(mn.points, (axis,), (0,)), _crop(mn.points, (axis,), (1,)))


def switched_defects(mn, axis):
    """The plus-sign defect y'_12 + y' - a' (y'_1 + y'_2) of the switched lift y'(u) = (-1)^(u_axis) y(u),
    a' = -a for axis 0 and +a for axis 1, of a 2d Moutard net, and its minus-sign defect
    y_12 - y - a (y_2 - y_1) as the Moutard report computes it, both over the quad base grid."""
    sign = np.where(np.indices(mn.extents)[axis] % 2 == 0, 1.0, -1.0)
    a = mn.coeffs[(0, 1)][..., None]
    y, y1, y12, y2 = _corners(sign[..., None] * mn.points, 0, 1)
    plus = y12 + y - (-a if axis == 0 else a) * (y1 + y2)
    y, y1, y12, y2 = _corners(mn.points, 0, 1)
    return plus, y12 - y - a * (y2 - y1)


def random_planar_quad(rng, ambient_dim=3, convex=None):
    """Random planar quad (4, N) in R^N with well-conditioned diagonals.

    convex=True forces an embedded quad, convex=False a crossed one,
    None accepts either.  Draws whose vertices leave a common 2-plane by
    more than 1e-9 of their spread, or with three consecutive vertices
    collinear to 1e-9 of the squared diameter, are redrawn.
    """
    from koenigsnets.geom import is_convex, span_residual

    while True:
        origin = rng.standard_normal(ambient_dim)
        u = rng.standard_normal(ambient_dim)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(ambient_dim)
        v -= np.dot(v, u) * u
        v /= np.linalg.norm(v)
        angles = np.sort(rng.uniform(0.0, 2 * np.pi, 4))
        if np.min(np.diff(angles, append=angles[0] + 2 * np.pi)) < 0.3:
            continue  # nearly coincident corners are ill-conditioned
        radii = rng.uniform(0.5, 1.5, 4)
        pts = [origin + r * (np.cos(t) * u + np.sin(t) * v) for r, t in zip(radii, angles)]
        if convex is False:
            pts[1], pts[2] = pts[2], pts[1]  # swap two corners to cross the quad
        quad = np.stack(pts)
        if span_residual(quad - quad.mean(axis=0), 2) > 1e-9 or _has_collinear_triple(quad, 1e-9):
            continue
        if convex is None or is_convex(quad) == convex:
            return quad


def _has_collinear_triple(quad, tol):
    """Whether some three consecutive vertices span a triangle of area at
    most tol times the squared diameter (|u x v| from the Gram determinant)."""
    diam = max(np.linalg.norm(p - q) for p in quad for q in quad)
    for k in range(4):
        u, v = quad[k] - quad[k - 1], quad[(k + 1) % 4] - quad[k]
        area = np.sqrt(max(np.dot(u, u) * np.dot(v, v) - np.dot(u, v) ** 2, 0.0))
        if area <= tol * diam * diam:
            return True
    return False
