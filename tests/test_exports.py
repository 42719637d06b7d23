"""Export hygiene: every name a module lists in ``__all__`` exists, and the
deleted scalar layer and report types are exported nowhere (a stale name in
``__all__`` only breaks a star-import)."""
import importlib
import pkgutil

import pytest

import koenigsnets

MODULES = sorted(m.name for m in pkgutil.iter_modules(koenigsnets.__path__) if m.name != "__main__")

# the scalar layer, replaced by the batched (..., 4, N) and (..., N+2) kernels
DELETED = (
    "PlanarQuad", "MinkowskiVec", "project_from_lightcone", "intersect_diagonals", "diagonal_ratios",
    "plane_frame", "to_plane_coords", "planarity_residual", "minkowski_dot_arrays", "quad_points",
    "quads", "NotOnLightCone",
    # the report and record types, replaced by qnet.CheckReport
    "PlanarityReport", "ClosednessReport", "Geometric2DReport", "Geometric3DReport", "CircularityReport",
    "IsothermicReport", "MoebiusReport", "LaplaceReport", "Vertex2DRecord", "Hexahedron3DRecord", "_pack",
)


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_resolves(name):
    mod = importlib.import_module(f"koenigsnets.{name}")
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []
    namespace = {}
    exec(f"from koenigsnets.{name} import *", namespace)
    assert set(getattr(mod, "__all__", ())) <= set(namespace)


def test_deleted_names_are_gone():
    modules = [koenigsnets] + [importlib.import_module(f"koenigsnets.{name}") for name in MODULES]
    assert [(m.__name__, n) for m in modules for n in DELETED if hasattr(m, n)] == []
    assert not hasattr(koenigsnets.koenigs.DiagonalForm, "directed")
    assert not hasattr(koenigsnets.qnet.QNet, "vertex")
    assert not hasattr(koenigsnets.qnet.QNet, "interior_indices")
