import numpy as np
import pytest

from koenigsnets import generate, koenigs, netio
from koenigsnets.errors import ParseError, SchemaMismatch, UnsupportedDimension
from koenigsnets.koenigs import integrate_nu


class TestRoundTrip:
    def test_byte_identical(self, koenigs_net_2d, tmp_path):
        kd = integrate_nu(koenigs_net_2d)
        doc = netio.NetDocument.from_net(koenigs_net_2d, nu=kd.nu.values)
        path = tmp_path / "net.json"
        netio.save(doc, path)
        first = path.read_bytes()
        netio.save(netio.load(path), path)
        assert path.read_bytes() == first

    def test_net_reconstruction(self, koenigs_net_2d):
        doc = netio.loads(netio.saves(netio.NetDocument.from_net(koenigs_net_2d)))
        assert np.array_equal(doc.to_net().vertices, koenigs_net_2d.vertices)

    def test_decorations_survive(self, iso_net):
        doc = netio.NetDocument.from_net(
            iso_net.net, s=iso_net.metric.values, labels=iso_net.labels.per_axis
        )
        back = netio.loads(netio.saves(doc))
        assert np.array_equal(back.s, iso_net.metric.values)
        for a, b in zip(back.labels, iso_net.labels.per_axis):
            assert np.array_equal(a, b)

    def test_moutard_block(self, koenigs_net_3d):
        net, nu, mn = koenigs_net_3d
        doc = netio.NetDocument.from_net(net, nu=nu.values, moutard=mn)
        back = netio.loads(netio.saves(doc))
        assert back.moutard.points.shape[-1] == mn.points.shape[-1]
        assert np.array_equal(back.moutard.points, mn.points)
        assert set(back.moutard.coeffs) == set(mn.coeffs)

    def test_lattice_shaped_and_frozen(self, koenigs_net_3d):
        net, nu, mn = koenigs_net_3d
        labels = tuple(np.ones(e - 1) for e in net.extents)
        doc = netio.loads(netio.saves(netio.NetDocument.from_net(net, nu=nu.values, s=nu.values, labels=labels,
                                                                 moutard=mn)))
        assert doc.vertices.shape == net.vertices.shape and doc.nu.shape == doc.s.shape == net.extents
        assert [a.shape for a in doc.labels] == [(e - 1,) for e in net.extents]
        assert all(np.array_equal(doc.moutard.coeffs[key], a) for key, a in mn.coeffs.items())
        for key in ("m", "extents", "ambient_dim", "vertices", "nu", "s", "labels", "moutard"):
            with pytest.raises(AttributeError):
                setattr(doc, key, None)
        for arr in (doc.vertices, doc.nu, doc.s, *doc.labels, doc.moutard.points, *doc.moutard.coeffs.values()):
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1.0
        # a flat vertex block is read in C order, and a caller's array is copied, not frozen
        flat = net.vertices.reshape(-1).copy()
        doc = netio.NetDocument(m=net.m, extents=net.extents, ambient_dim=net.ambient_dim, vertices=flat)
        assert np.array_equal(doc.vertices, net.vertices) and flat.flags.writeable

    def test_negative_zero_round_trips(self, tmp_path):
        # "%.17g" writes -0.0 as "-0", which JSON reads as the integer 0 unless integers read as floats
        doc = netio.NetDocument(m=2, extents=(2, 2), ambient_dim=2, vertices=[-0.0, 1, 2, 3, 4, 5, 6, 7],
                                nu=[-0.0, 1, 1, 1])
        path = tmp_path / "net.json"
        netio.save(doc, path)
        first = path.read_bytes()
        assert b'"vertices": [-0, 1, ' in first
        back = netio.load(path)
        assert np.signbit(back.vertices[0, 0, 0]) and np.signbit(back.nu[0, 0])
        netio.save(back, path)
        assert path.read_bytes() == first

    def test_nonfinite_rejected(self):
        doc = netio.NetDocument(m=2, extents=(2, 2), ambient_dim=2,
                                vertices=np.array([0.0, np.inf] + [0.0] * 6))
        with pytest.raises(ValueError):
            netio.saves(doc)

    def test_float_bytes_pinned(self, tmp_path):
        values = [-0.0, 5e-324, 1e16, 1e17, 1.797e308, 0.1, 1 / 3, -2.5, 123456789.0, 1e-5]
        doc = netio.NetDocument(m=2, extents=(2, 2), ambient_dim=2, vertices=np.array(values[:8]),
                                nu=np.array(values[6:]))
        text = netio.saves(doc)
        assert '"vertices": [-0, 4.9406564584124654e-324, 10000000000000000, 1e+17, 1.797e+308, ' \
               '0.10000000000000001, 0.33333333333333331, -2.5]' in text
        assert '"nu": [0.33333333333333331, -2.5, 123456789, 1.0000000000000001e-05]' in text
        # each value as format(x, ".17g") writes it
        rng = np.random.default_rng(5)
        x = np.concatenate([rng.standard_normal(500) * 10.0 ** rng.integers(-300, 300, 500),
                            [np.finfo(float).max, np.finfo(float).tiny, -np.finfo(float).eps]])
        assert netio._fmt_list(x) == "[" + ", ".join(format(v, ".17g") for v in x.tolist()) + "]"
        netio.export_obj(netio.NetDocument(m=2, extents=(2, 2), ambient_dim=2, vertices=np.array(values[:8])),
                         tmp_path / "net.obj")
        assert (tmp_path / "net.obj").read_text().splitlines()[:2] == [
            "v -0 4.9406564584124654e-324 0", "v 10000000000000000 1e+17 0"]

    @pytest.mark.parametrize("block", ["vertices", "nu", "s", "labels", "moutard points", "moutard coeffs"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rejected_in_every_block(self, block, bad, tmp_path):
        def fields(last):  # every block finite, but the last value of ``block``
            blocks = {key: np.ones(n) for key, n in
                      (("vertices", 8), ("nu", 4), ("s", 4), ("labels", 1), ("moutard points", 12),
                       ("moutard coeffs", 1))}
            blocks[block][-1] = last
            return dict(vertices=blocks["vertices"], nu=blocks["nu"], s=blocks["s"],
                        labels=(np.ones(1), blocks["labels"]),
                        moutard=koenigs.MoutardNet(blocks["moutard points"].reshape(2, 2, 3),
                                                   {(0, 1): blocks["moutard coeffs"].reshape(1, 1)}))

        doc = netio.NetDocument(m=2, extents=(2, 2), ambient_dim=2, **fields(1.0))
        assert netio.loads(netio.saves(doc)).labels is not None  # finite: it round-trips
        doc = netio.NetDocument(m=2, extents=(2, 2), ambient_dim=2, **fields(bad))
        with pytest.raises(ValueError, match="non-finite"):
            netio.saves(doc)
        if block == "vertices":
            with pytest.raises(ValueError, match="non-finite"):
                netio.export_obj(doc, tmp_path / "net.obj")
            assert not (tmp_path / "net.obj").exists()


class TestLoadErrors:
    def test_truncated_file(self, koenigs_net_2d):
        text = netio.saves(netio.NetDocument.from_net(koenigs_net_2d))
        with pytest.raises(ParseError) as exc:
            netio.loads(text[: len(text) // 2])
        assert "line" in str(exc.value)

    def test_missing_field(self):
        with pytest.raises(ParseError):
            netio.loads('{"schema_version": 1, "m": 2}')

    def test_wrong_schema_version(self):
        with pytest.raises(SchemaMismatch):
            netio.loads(
                '{"schema_version": 99, "m": 2, "extents": [2, 2], '
                '"ambient_dim": 2, "vertices": []}'
            )

    def test_extent_count_mismatch(self):
        with pytest.raises(SchemaMismatch):
            netio.loads(
                '{"schema_version": 1, "m": 3, "extents": [2, 2], '
                '"ambient_dim": 2, "vertices": []}'
            )

    def test_vertex_count_mismatch(self):
        with pytest.raises(SchemaMismatch):
            netio.loads(
                '{"schema_version": 1, "m": 2, "extents": [2, 2], '
                '"ambient_dim": 2, "vertices": [0.0, 1.0]}'
            )

    @pytest.mark.parametrize("key", ["0;1", "0,1,2", "a,b"])
    def test_bad_coefficient_key(self, key):
        with pytest.raises(ParseError):
            netio.loads(
                '{"schema_version": 1, "m": 2, "extents": [2, 2], "ambient_dim": 2, '
                '"vertices": [0, 0, 1, 0, 0, 1, 1, 1], '
                '"moutard": {"dim": 1, "points": [1, 1, 1, 1], "coeffs": {"%s": [0.5]}}}' % key
            )

    def test_bad_label_lengths(self, koenigs_net_2d):
        text = netio.saves(netio.NetDocument.from_net(koenigs_net_2d))
        with pytest.raises(SchemaMismatch):
            netio.loads(text.replace('\n}', ',\n  "labels": [[1, 1], [1, 1]]\n}'))
        with pytest.raises(SchemaMismatch):
            netio.NetDocument.from_net(koenigs_net_2d, labels=(np.ones(2), np.ones(2)))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            netio.load(tmp_path / "nope.json")


class TestObjExport:
    def test_2x2(self, tmp_path):
        doc = netio.NetDocument.from_net(generate.grid((2, 2)))
        path = tmp_path / "net.obj"
        netio.export_obj(doc, path)
        lines = path.read_text().splitlines()
        assert sum(1 for ln in lines if ln.startswith("v ")) == 4
        assert [ln for ln in lines if ln.startswith("f ")] == ["f 1 3 4 2"]

    def test_3x3(self, tmp_path):
        doc = netio.NetDocument.from_net(generate.grid((3, 3)))
        path = tmp_path / "net.obj"
        netio.export_obj(doc, path)
        lines = path.read_text().splitlines()
        assert sum(1 for ln in lines if ln.startswith("v ")) == 9
        assert sum(1 for ln in lines if ln.startswith("f ")) == 4

    def test_2d_ambient_padded(self, tmp_path):
        doc = netio.NetDocument.from_net(generate.grid((2, 2), ambient_dim=2))
        path = tmp_path / "net.obj"
        netio.export_obj(doc, path)
        for ln in path.read_text().splitlines():
            if ln.startswith("v "):
                assert ln.split()[-1] == "0"

    def test_3d_lattice_rejected(self, tmp_path):
        doc = netio.NetDocument.from_net(generate.grid((2, 2, 2)))
        with pytest.raises(UnsupportedDimension):
            netio.export_obj(doc, tmp_path / "net.obj")

    def test_high_ambient_rejected(self, tmp_path, rng):
        net = generate.random_koenigs_2d((3, 3), ambient_dim=4, rng=rng)
        doc = netio.NetDocument.from_net(net)
        with pytest.raises(UnsupportedDimension):
            netio.export_obj(doc, tmp_path / "net.obj")
