"""Export hygiene: every name a module lists in ``__all__`` exists, and the
deleted scalar layer and report types are exported nowhere (a stale name in
``__all__`` only breaks a star-import); no module of the package imports a
name it never uses or defines a private name nothing in the package reads."""
import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

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
    # API only tests called
    "hexahedra", "central_sphere",
    # the SVD span tests, replaced by geom.span_residual
    "affine_rank", "rank_residual", "RankComplement", "rank_complement", "_sv_ratio", "_rank_residual",
    "_minor_indices",
    # batch-of-one wrappers over geom.quad_circles that nothing in the package called
    "circularity_residual", "cross_ratio", "_one_quad", "_as_point",
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
    assert not hasattr(koenigsnets.qnet.QNet, "base_indices")
    assert not hasattr(koenigsnets.qnet.VertexScalar, "__getitem__")
    assert not hasattr(koenigsnets.qnet.EdgeLabelling, "label")


# options no caller set, by function
REMOVED_OPTIONS = {
    koenigsnets.koenigs.dualize_net: ("base", "check"),
    koenigsnets.isothermic.christoffel: ("base", "check"),
    koenigsnets.isothermic.recover_metric: ("check",),
    koenigsnets.koenigs.moutard_evolve: ("lightcone",),
    koenigsnets.koenigs._integrate_one_form: ("base",),
    koenigsnets.geom.quad_diagonals: ("scale", "guards"),
    koenigsnets.qnet.VertexScalar: ("nonzero",),
}


def test_removed_options_are_gone():
    assert [(fn.__name__, p) for fn, params in REMOVED_OPTIONS.items()
            for p in params if p in inspect.signature(fn).parameters] == []
    assert "lightcone" not in {f.name for f in dataclasses.fields(koenigsnets.koenigs.MoutardNet)}
    assert "nonzero" not in {f.name for f in dataclasses.fields(koenigsnets.qnet.VertexScalar)}


# --- dead code: imports never used, private names nothing references -----------

SRC = Path(koenigsnets.__file__).resolve().parent
TREES = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _loaded_names(tree) -> set:
    """Names a module reads, as names or as attributes of other objects."""
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def _exported(tree) -> set:
    """The strings listed in a module-level ``__all__``."""
    return {elt.value for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for elt in node.value.elts}


@pytest.mark.parametrize("name", [name for name in TREES if name != "__init__.py"])  # __init__ imports to re-export
def test_every_import_is_used(name):
    tree = TREES[name]
    imported = {(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    assert sorted(imported - _loaded_names(tree) - _exported(tree)) == []


def test_every_private_name_is_referenced():
    referenced = set().union(*(_loaded_names(tree) for tree in TREES.values()))
    unused = []
    for name, tree in TREES.items():
        for node in tree.body:
            targets = ([node] if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                       else node.targets if isinstance(node, ast.Assign) else [])
            for target in targets:
                defined = target.name if hasattr(target, "name") else getattr(target, "id", "")
                if defined.startswith("_") and not defined.startswith("__") and defined not in referenced:
                    unused.append((name, defined))
    assert unused == []
