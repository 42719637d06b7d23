import numpy as np
import pytest

from koenigsnets import generate


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
