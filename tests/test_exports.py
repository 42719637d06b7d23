"""Export hygiene: every name a module lists in ``__all__`` exists, and the
deleted scalar layer and report types are exported nowhere (a stale name in
``__all__`` only breaks a star-import); no module of the package imports a
name it never uses or defines a private name nothing in the package reads,
no function has a parameter its body never reads, every public name has a
caller outside the tests or is listed in the README as a paper-level helper,
and every check failure leaves through one of two raise sites."""
import ast
import builtins
import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import koenigsnets
from koenigsnets import errors
from koenigsnets.errors import CheckFailure

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
    # the sines' own pass over the in-sphere minors, now shared with the residual in geom._span_fit
    "_span_distances",
    # the per-level index tuples of the fills, replaced by the neighbour tables of qnet._levels (_Level.below, which
    # replaced the per-step index arithmetic of _Level.back in turn); single-use helpers
    "_back", "_first_positive_axes", "_lightcone_fill", "_fit_moutard_coeffs",
    # the message lambdas of quad_diagonals, replaced by one locator through geom._raise_first
    "_ONE_QUAD",
    # the residual reducers of the stage gates, replaced by reports that fail through CheckReport.require;
    # the error of the metric's zero guard, which VertexScalar makes unreachable
    "_nu_residual", "_one_form_closure_residual", "ZeroMetric",
    # the Laplace and switched residuals, equal bit for bit to the Moutard report (switching multiplies by -1);
    # the Minkowski labels, replaced by the metric labels they equal; the sign helper folded into _limit_signs
    "laplace_residual", "switched_laplace_residual", "switched_moutard_residual", "lift_labels", "_layer_means",
    "_alternating",
    # the float getters beside the stage gates, whose reports they read; the Moutard report, now check_moutard;
    # the vertex colours, which only their own tests read
    "dual_form_residual", "christoffel_form_residual", "_moutard_report", "vertex_parity", "BLACK", "WHITE",
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
    assert not hasattr(koenigsnets.koenigs.MoutardNet, "moutard_residual")
    assert koenigsnets.qnet._Level._fields == ("u", "below") and not hasattr(koenigsnets.qnet._Level, "back")
    assert tuple(f.name for f in dataclasses.fields(koenigsnets.koenigs.KoenigsData)) == ("nu",)


# options no caller set, by function
REMOVED_OPTIONS = {
    koenigsnets.koenigs.dualize_net: ("base", "check"),
    koenigsnets.isothermic.christoffel: ("base", "check"),
    koenigsnets.koenigs.moutard_evolve: ("lightcone",),
    koenigsnets.koenigs._integrate_one_form: ("base",),
    koenigsnets.geom.quad_diagonals: ("scale", "guards", "messages", "rho"),
    koenigsnets.qnet.VertexScalar: ("nonzero",),
    koenigsnets.koenigs.normalize_nu_for_limit: ("tol",),
    koenigsnets.isothermic.metric_labels: ("tol",),
    koenigsnets.isothermic.recover_metric: ("check", "base_black", "base_white"),
    koenigsnets.generate.flip_corner_cross_ratio: ("tol",),
    koenigsnets.generate.grid: ("spacing",),
    koenigsnets.koenigs.moutard_lift: ("check",),
    koenigsnets.isothermic.lightcone_lift: ("check",),
    koenigsnets.koenigs.integrate_nu: ("check",),
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


ROOT = SRC.parent.parent


def _readme_helpers() -> set:
    """(module, name) of each `module.name` listed in the README's section on the helpers only tests call."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Paper-level helpers\n", 1)[1].split("\n## ", 1)[0]
    return {tuple(ref.split(".")) for ref in re.findall(r"`(\w+\.\w+)`", section)}


def test_every_public_name_has_a_caller_or_is_listed():
    # a public name is run by the package, the CLI, the benchmark or a demo, or it is a paper-level
    # helper the README lists as called by tests only
    trees = list(TREES.values()) + [ast.parse(path.read_text()) for folder in ("bench", "demos")
                                    for path in sorted((ROOT / folder).glob("*.py"))]
    called = set().union(*(_loaded_names(tree) for tree in trees))
    listed = _readme_helpers()
    exported = {(name[:-3], n) for name, tree in TREES.items() for n in _exported(tree)}
    assert sorted(listed - exported) == []  # the list names only public names
    assert sorted((m, n) for m, n in exported if n not in called and (m, n) not in listed) == []
    assert sorted((m, n) for m, n in listed if n in called) == []  # and only those without a caller


def test_every_parameter_is_read():
    # a parameter the body never reads is an option no caller can use
    unread = []
    for name, tree in TREES.items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = fn.args
                params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg] if a]
                read = {n.id for stmt in fn.body for n in ast.walk(stmt) if isinstance(n, ast.Name)
                        and isinstance(n.ctx, ast.Load)}
                unread += [(name, fn.name, p) for p in params if p not in read]
    assert unread == []


def _raises(tree):
    """(innermost enclosing function, raise node) of every ``raise`` in a module tree."""
    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise):
                yield fn, child
            yield from visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn)

    return visit(tree, None)


def test_check_failures_leave_through_require_or_raise_first():
    # a verdict fails through CheckReport.require, naming its worst element, or, for a guard, through
    # geom._raise_first, naming the first failing element; no raise builds a CheckFailure by name
    failures = {name for name, obj in vars(errors).items() if isinstance(obj, type) and issubclass(obj, CheckFailure)}
    by_name, generic = [], set()
    for name, tree in TREES.items():
        for fn, node in _raises(tree):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in failures:
                by_name.append((name, node.lineno, exc.id))
            elif isinstance(node.exc, ast.Call) and isinstance(exc, ast.Name) and not hasattr(builtins, exc.id) \
                    and not hasattr(errors, exc.id):
                generic.add((name, fn))  # a class held in a variable
    assert by_name == []
    assert generic == {("geom.py", "_raise_first"), ("qnet.py", "require")}
