import numpy as np
import pytest

from koenigsnets import generate, netio
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
        assert np.array_equal(back.s_grid(), iso_net.metric.values)
        for a, b in zip(back.labels, iso_net.labels.per_axis):
            assert np.array_equal(a, b)

    def test_moutard_block(self, koenigs_net_3d):
        net, nu, mn = koenigs_net_3d
        doc = netio.NetDocument.from_net(
            net,
            nu=nu.values,
            moutard={
                "dim": mn.points.shape[-1],
                "points": mn.points.reshape(-1),
                "coeffs": {k: v.reshape(-1) for k, v in mn.coeffs.items()},
            },
        )
        back = netio.loads(netio.saves(doc))
        assert back.moutard["dim"] == mn.points.shape[-1]
        assert np.array_equal(back.moutard["points"], mn.points.reshape(-1))
        assert set(back.moutard["coeffs"]) == set(mn.coeffs)

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
        fields = dict(
            vertices=np.zeros(8), nu=np.ones(4), s=np.ones(4), labels=(np.ones(1), np.ones(1)),
            moutard={"dim": 3, "points": np.ones(12), "coeffs": {(0, 1): np.ones(1)}},
        )
        target = {"labels": fields["labels"][1], "moutard points": fields["moutard"]["points"],
                  "moutard coeffs": fields["moutard"]["coeffs"][(0, 1)]}.get(block, fields.get(block))
        doc = netio.NetDocument(m=2, extents=(2, 2), ambient_dim=2, **fields)
        assert netio.loads(netio.saves(doc)).labels is not None  # finite: it round-trips
        target[-1] = bad
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
        doc = netio.NetDocument.from_net(koenigs_net_2d)
        doc.labels = (np.ones(2), np.ones(2))
        with pytest.raises(SchemaMismatch):
            netio.loads(netio.saves(doc))

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
