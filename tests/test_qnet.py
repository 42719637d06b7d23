from itertools import combinations, product

import numpy as np
import pytest

from koenigsnets import generate
from koenigsnets.errors import DimensionTooLow
from koenigsnets.qnet import (
    BLACK,
    WHITE,
    EdgeLabelling,
    QNet,
    VertexScalar,
    _gather_quads,
    check_qnet,
    vertex_parity,
)


def _n_quads(net):
    """Elementary quads of a net, counted from the stacks the checks gather."""
    return sum(len(_gather_quads(net, i, j)[0]) for i, j in combinations(range(net.m), 2))


class TestQNetConstruction:
    def test_rejects_low_dimension(self):
        with pytest.raises(DimensionTooLow):
            QNet(np.zeros((4, 1)))  # m = 1

    def test_rejects_nonfinite(self):
        v = np.zeros((2, 2, 3))
        v[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            QNet(v)

    def test_immutable(self):
        net = generate.grid((3, 3))
        with pytest.raises(ValueError):
            net.vertices[0, 0, 0] = 5.0

    def test_leaves_the_callers_array_writable(self):
        v = np.zeros((2, 2, 3))
        QNet(v)
        v[0, 0, 0] = 1.0

    def test_owns_its_vertices(self):
        base = np.zeros((3, 2, 2, 3))
        net = QNet(base[1])  # a view
        base[1, 0, 0, 0] = 1.0
        assert net.vertices[0, 0, 0] == 0.0


class TestParity:
    def test_origin_black(self):
        assert vertex_parity((0, 0)) == BLACK

    def test_neighbours_white(self):
        assert vertex_parity((1, 0)) == WHITE
        assert vertex_parity((1, 1, 1)) == WHITE

    def test_adjacent_opposite(self, rng):
        for _ in range(20):
            u = tuple(rng.integers(0, 5, 3))
            for ax in range(3):
                v = list(u)
                v[ax] += 1
                assert vertex_parity(u) != vertex_parity(tuple(v))

    def test_diagonals_connect_equal_parity(self):
        # both diagonals of any quad join same-colored vertices
        u = (2, 3)
        assert vertex_parity(u) == vertex_parity((u[0] + 1, u[1] + 1))
        assert vertex_parity((u[0] + 1, u[1])) == vertex_parity((u[0], u[1] + 1))


class TestIterators:
    def test_quad_count_3x3(self):
        assert _n_quads(generate.grid((3, 3))) == 4

    def test_quad_count_4x3(self):
        net = generate.grid((4, 3))
        assert _n_quads(net) == 6
        # in C order of their bases, each (f, f_1, f_12, f_2)
        pts, shape = _gather_quads(net, 0, 1)
        assert shape == (3, 2)
        assert np.array_equal(pts[3], net.vertices[[1, 2, 2, 1], [1, 1, 2, 2]])

    def test_quad_count_cube(self):
        assert _n_quads(generate.grid((2, 2, 2))) == 6

    def test_counts_match_formula(self, koenigs_net_3d):
        net, _, _ = koenigs_net_3d
        e = net.extents
        expected = sum(
            (e[i] - 1) * (e[j] - 1) * np.prod([e[k] for k in range(3) if k not in (i, j)])
            for i in range(3)
            for j in range(i + 1, 3)
        )
        assert _n_quads(net) == expected


class TestCheckQnet:
    def test_grid_passes(self):
        rep = check_qnet(generate.grid((4, 4)))
        assert rep.passed and rep.max_residual == 0.0

    def test_lifted_vertex_offends_four_quads(self):
        v = generate.grid((4, 4)).vertices.copy()
        v[1, 1, 2] += 0.1  # interior vertex raised out of plane
        rep = check_qnet(QNet(v))
        assert not rep.passed
        assert rep.n_failed == 4 and len(rep.offenders(10)) == 4

    def test_offenders_name_their_base_with_plain_ints(self):
        v = generate.grid((3, 4, 5)).vertices.copy()
        v[1, 2, 3] += 0.1
        rep = check_qnet(QNet(v))
        bases = {(i, j): set(product(*(range(e - (k in (i, j))) for k, e in enumerate((3, 4, 5)))))
                 for i, j in ((0, 1), (0, 2), (1, 2))}
        assert rep.n_failed == 12
        for (i, j), u, _ in rep.offenders(12):
            assert u in bases[(i, j)] and all(type(x) is int for x in u)
            assert all(u[k] in (c - 1, c) if k in (i, j) else u[k] == c for k, c in enumerate((1, 2, 3)))

    def test_moutard_net_passes(self, koenigs_net_2d):
        assert check_qnet(koenigs_net_2d).passed

    def test_similarity_invariance(self, koenigs_net_2d, rng):
        v = koenigs_net_2d.vertices
        rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        moved = 17.0 * (v @ rot.T) + rng.standard_normal(3)
        r1 = check_qnet(koenigs_net_2d)
        r2 = check_qnet(QNet(moved))
        assert r2.max_residual == pytest.approx(r1.max_residual, abs=1e-12)


class TestDecorations:
    def test_vertex_scalar_rejects_zero(self):
        with pytest.raises(ValueError):
            VertexScalar(np.array([[1.0, 0.0], [1.0, 1.0]]))

    def test_edge_labelling_rejects_zero(self):
        with pytest.raises(ValueError):
            EdgeLabelling((np.array([1.0, 0.0]), np.array([1.0])))

    def test_edge_labelling_lookup(self):
        lab = EdgeLabelling((np.array([1.0, 2.0]), np.array([-1.0])))
        assert lab.per_axis[0][1] == 2.0
        assert lab.per_axis[1][0] == -1.0
