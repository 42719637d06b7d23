"""One Moutard layer: the point-at-infinity guard of every affine chart is
per vertex, |w_v| <= tol.incidence max_c |y_vc|, and names the first vertex
it flags; lifts that grow along the net are not at infinity.  The light-cone
labels are read from |f_i - f|^2 / (s s_i), which loses no digits to the
|f|^2 terms that cancel in -2 <y, tau_i y>."""
import numpy as np
import pytest

from koenigsnets import generate, isothermic, koenigs, netio, qnet
from koenigsnets.errors import VanishingLastComponent
from koenigsnets.geom import DEFAULT_TOL


class TestPerVertexRule:
    def test_threshold_is_each_vertex_own_scale(self):
        # vertex (1, 0) sits at the threshold of its own largest component, 2; vertex (1, 1) is far larger
        # but finite, and a whole-net scale would flag every vertex below 1e-9 of it, (1, 0) included
        y = np.ones((2, 2, 3))
        y[1, 0] = (2.0, 0.0, 2e-9)
        y[1, 1] = (1e3, 0.0, 1.0)
        with pytest.raises(VanishingLastComponent, match=r"^vertex \(1, 0\): projected point at infinity$"):
            koenigs.MoutardNet(y, {}).project_homogeneous()
        y[1, 0, 2] = 2.1e-9
        net, nu = koenigs.MoutardNet(y, {}).project_homogeneous()
        assert np.array_equal(nu.values, 1.0 / y[..., -1]) and net.vertices[1, 1, 0] == 1e3

    def test_a_vertex_of_zeros_is_at_infinity(self):
        y = np.ones((2, 3, 3))
        y[0, 2] = 0.0
        with pytest.raises(VanishingLastComponent, match=r"^vertex \(0, 2\): "):
            koenigs.MoutardNet(y, {}).project_homogeneous()

    def test_growing_lift_projects(self):
        # max |y| is about 3e10 here, so 164 of 900 vertices fell under a whole-net scale
        net, nu, mn = generate.random_koenigs_nd((30, 30), rng=0)
        back, nu_back = mn.project_homogeneous()
        assert np.array_equal(back.vertices, net.vertices) and np.array_equal(nu_back.values, nu.values)

    def test_projective_map_names_the_vertex_it_sends_to_infinity(self):
        # x + 3 y - 5 vanishes on the 3 x 3 grid at (2, 1) alone
        P = np.eye(4)
        P[3] = (1.0, 3.0, 0.0, -5.0)
        with pytest.raises(VanishingLastComponent,
                           match=r"^vertex \(2, 1\): projective image passes through infinity$"):
            generate.apply_projective(generate.grid((3, 3)), P)
        P[3, 3] = -5.5
        assert generate.apply_projective(generate.grid((3, 3)), P).extents == (3, 3)


class TestGenerators:
    @pytest.mark.parametrize("n", [30, 40])
    @pytest.mark.parametrize("seed", range(10))
    def test_random_koenigs_2d_passes_its_checkers(self, n, seed):
        net = generate.random_koenigs_2d((n, n), rng=np.random.default_rng(seed))
        assert qnet.check_qnet(net).passed and koenigs.check_closedness(net).passed

    def test_lightcone_generator_returns_at_30(self):
        mn, iso = generate.random_isothermic_lightcone((30, 30), rng=np.random.default_rng(3))
        assert np.array_equal(iso.metric.values, 1.0 / mn.points[..., -2])


@pytest.mark.parametrize("seed", [1375672475, 754190851])
def test_lift_labels_of_valid_48_nets(seed):
    # -2 <y, tau_i y> read 1.9e-8 and 3.0e-8 from its layer on these nets; |f_i - f|^2 / (s s_i) reads 1e-11
    iso = generate.random_isothermic_2d((48, 48), 3, np.random.default_rng(seed), 0.05)
    doc = netio.NetDocument(m=2, extents=(48, 48), ambient_dim=3, vertices=iso.net.vertices.reshape(-1))
    net = netio.loads(netio.saves(doc)).to_net()
    labels = isothermic.recover_labels(net)
    s = isothermic.recover_metric(net)
    mn = isothermic.lightcone_lift(isothermic.IsothermicNet(net, labels, s))
    assert isothermic._metric_report(net, s.values, DEFAULT_TOL).max_residual <= 1e-10
    assert koenigs.check_moutard(mn).max_residual <= DEFAULT_TOL.product
