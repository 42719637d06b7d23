"""Finite windows of maps Z^m -> R^N with planar quadrilaterals.

Storage is a dense row-major array of shape ``extents + (ambient_dim,)``.
Nets are immutable after construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DimensionTooLow, InvalidValue
from .geom import DEFAULT_TOL, Tolerances, quad_planarity

__all__ = [
    "QNet",
    "VertexScalar",
    "EdgeLabelling",
    "CheckReport",
    "check_qnet",
    "vertex_parity",
    "BLACK",
    "WHITE",
]

BLACK = "black"
WHITE = "white"


def vertex_parity(u) -> str:
    """Black iff u_1 + ... + u_m is even."""
    return BLACK if sum(u) % 2 == 0 else WHITE


class QNet:
    """A window of a map Z^m -> R^N, m >= 2, N >= 2; keeps a read-only copy
    of ``vertices``."""

    def __init__(self, vertices):
        vertices = np.array(vertices, dtype=float)
        if vertices.ndim < 3:
            raise DimensionTooLow("need lattice dimension m >= 2 and a coordinate axis")
        if not np.all(np.isfinite(vertices)):
            raise InvalidValue("net vertices must be finite")
        self._vertices = _frozen(vertices)
        self._cache = {}
        self.m = vertices.ndim - 1
        self.extents = vertices.shape[:-1]
        self.ambient_dim = vertices.shape[-1]
        if any(e < 2 for e in self.extents):
            raise InvalidValue("every axis needs at least 2 vertices")
        if self.ambient_dim < 2:
            raise DimensionTooLow("ambient dimension must be >= 2")

    @property
    def vertices(self) -> np.ndarray:
        return self._vertices

    def _memo(self, key, build):
        """``build()``, computed on the first call for ``key``, such as
        (name, Tolerances), and kept by the net unless it raises."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def diameter(self) -> float:
        flat = self._vertices.reshape(-1, self.ambient_dim)
        return float(np.linalg.norm(flat.max(axis=0) - flat.min(axis=0)))


@dataclass(frozen=True, eq=False)
class CheckReport:
    """The verdict of one check: per-element residuals held against one
    tolerance.

    ``parts`` maps each part of the check (an axis pair, an axis triple or a
    criterion) to (residuals (n,), lattice indices (n, d) of their elements)
    in C order of the indices.  An element fails unless its residual is
    <= ``tol``, so a NaN residual fails; an element the check excludes is not
    in its part.  Everything else is derived from these.
    """

    name: str
    tol: float
    parts: dict

    @property
    def passed(self) -> bool:
        return self.n_failed == 0

    @property
    def is_koenigs(self) -> bool:
        """Alias of ``passed`` for callers that read closedness verdicts by this name."""
        return self.passed

    @property
    def n_checked(self) -> int:
        return sum(len(res) for res, _ in self.parts.values())

    @property
    def n_failed(self) -> int:
        return sum(int(np.count_nonzero(~(res <= self.tol))) for res, _ in self.parts.values())

    @property
    def max_residual(self) -> float:
        """The largest residual, NaN if one is NaN, 0.0 if nothing was checked."""
        return _worst(res for res, _ in self.parts.values())

    @property
    def worst_at(self):
        """(part, lattice index) of the first element whose residual is
        ``max_residual``, or None if nothing was checked."""
        top = self.max_residual
        for key, (res, at) in self.parts.items():
            hit = np.flatnonzero(np.isnan(res) if np.isnan(top) else res == top)
            if len(hit):
                return key, _ints(at[hit[0]])
        return None

    def offenders(self, k: int) -> list:
        """(part, lattice index, residual) of the first k failing elements,
        part by part, each part in C order."""
        out = []
        for key, (res, at) in self.parts.items():
            out += [(key, _ints(at[n]), float(res[n])) for n in np.flatnonzero(~(res <= self.tol))[:k - len(out)]]
        return out

    def summary(self) -> dict:
        """passed, max_residual, n_checked, n_failed and worst_at, as JSON values."""
        return {"passed": self.passed, "max_residual": self.max_residual, "n_checked": self.n_checked,
                "n_failed": self.n_failed, "worst_at": self.worst_at}


def check_qnet(net: QNet, tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """Per-quad :func:`geom.quad_planarity` residuals, one part per axis pair,
    each quad at its base; passes iff all are <= tol.incidence."""
    parts = {}
    for i, j in combinations(range(net.m), 2):
        pts, shape = _gather_quads(net, i, j)
        parts[(i, j)] = quad_planarity(pts), _grid(shape)
    return CheckReport("qnet", tol.incidence, parts)


def _grid(shape: tuple, origin: int = 0) -> np.ndarray:
    """The lattice indices (n, d) of the cells of a grid ``shape`` in C
    order, cell 0 at ``origin`` (1 for interior vertices)."""
    return np.indices(shape).reshape(len(shape), -1).T + origin


def _ints(u) -> tuple:
    return tuple(int(x) for x in u)


def _gather_quads(net: QNet, i: int, j: int):
    """Stacked quad vertex arrays (Q, 4, N), bases in C order, a view of a
    (4, Q, N) array, plus the shape of the base grid (see :func:`_base`)."""
    corners = np.stack(_corners(np.moveaxis(net.vertices, -1, 0), i + 1, j + 1))
    return np.moveaxis(corners.reshape(4, net.ambient_dim, -1), -1, 0), corners.shape[2:]


def _base(shape: tuple, k: int) -> tuple:
    """The base multi-index, as plain ints, of cell k of a grid ``shape``."""
    return _ints(np.unravel_index(k, shape))


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _crop(arr, axes, offsets):
    """Values at the corner ``offsets`` of every cell spanned by ``axes``:
    along each of these axes, drop the last (offset 0) or the first
    (offset 1) layer."""
    sl = [slice(None)] * arr.ndim
    for ax, off in zip(axes, offsets):
        sl[ax] = slice(1, None) if off else slice(0, -1)
    return arr[tuple(sl)]


def _corners(arr, i: int, j: int) -> tuple:
    """The values (x, x_i, x_ij, x_j) of ``arr`` at the four corners of
    every quad spanned by axes i and j, each over the quad base grid."""
    return tuple(_crop(arr, (i, j), c) for c in ((0, 0), (1, 0), (1, 1), (0, 1)))


def _worst(residuals) -> float:
    """The largest value in an iterable of residual arrays, NaN if one is
    NaN, 0.0 if there are none.  A stage gate passes iff ``residual <= tol``,
    so a NaN residual fails it as it fails a check."""
    return float(np.max([res.max(initial=0.0) for res in residuals], initial=0.0))


# vertex offsets of a cube along its axes (i, j, k): f, f_i, f_j, f_k, f_ij, f_ik, f_jk, f_ijk
_CUBE = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1))


def _cubes(net: QNet, axes):
    """The vertices (W, 8, N) of every cube spanned by ``axes``, bases in C
    order, each cube in ``_CUBE`` order, plus the shape of the base grid."""
    cube = np.stack([_crop(net.vertices, axes, bits) for bits in _CUBE], axis=net.m)
    return cube.reshape(-1, 8, net.ambient_dim), cube.shape[:net.m]


def _star(values: np.ndarray) -> np.ndarray:
    """The star of every interior vertex of a 2d lattice array, as (V, 9, ...)
    in C order of the vertices: f; f_{+1}, f_{-1}, f_{+2}, f_{-2}; then
    f_{+1+2}, f_{+1-2}, f_{-1+2}, f_{-1-2}."""
    n1, n2 = values.shape[:2]
    offsets = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1))
    cols = [values[1 + a:n1 - 1 + a, 1 + b:n2 - 1 + b] for a, b in offsets]
    return np.stack(cols, axis=2).reshape((n1 - 2) * (n2 - 2), 9, *values.shape[2:])


def _wavefront(pieces: dict, step, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Solve a Cauchy problem on a lattice block one hyperplane
    u_1 + ... + u_m = k at a time, in increasing k.

    ``pieces`` maps axis tuples to the initial data on the coordinate
    subspaces they span (every other coordinate 0), written in order; where
    two pieces meet, no coordinate may differ by more than tol.incidence
    times the largest in the data (NaN does), else ValueError.  Every other
    vertex is computed by ``step(y, u)``, which gets the vertices u (n, m) of
    one hyperplane in C order and returns their values from those on lower
    hyperplanes, raising the typed error of its first degenerate vertex (:func:`_raise_first_row`).
    """
    m = 1 + max(ax for axes in pieces for ax in axes)
    extents = [0] * m
    for axes, values in pieces.items():
        for ax, n in zip(axes, values.shape):
            extents[ax] = n
        tail = values.shape[len(axes):]
    y = np.empty(tuple(extents) + tail)
    known = np.zeros(extents, dtype=bool)
    scale = max(float(np.abs(values).max()) for values in pieces.values())
    gaps = []
    for axes, values in pieces.items():
        idx = tuple(slice(None) if ax in axes else 0 for ax in range(m))
        meet = known[idx]
        gaps.append(np.abs(y[idx][meet] - values[meet]))
        y[idx] = values
        known[idx] = True
    gap = _worst(gaps)
    if not gap <= tol.incidence * scale:
        raise ValueError(f"initial data disagree where they meet (by {gap:.3e} at scale {scale:.3e})")
    todo = np.argwhere(~known)
    level = todo.sum(axis=1)
    order = np.argsort(level, kind="stable")  # by hyperplane, C order within one
    if len(todo):
        for u in np.split(todo[order], np.flatnonzero(np.diff(level[order])) + 1):
            y[tuple(u.T)] = step(y, u)
    return y


def _back(u: np.ndarray, *axes) -> tuple:
    """Index tuple of the vertices u (n, m) moved back by one along each of
    ``axes`` (ints, or arrays with one axis per vertex)."""
    eye = np.eye(u.shape[1], dtype=int)
    return tuple((u - sum(eye[ax] for ax in axes)).T)


def _first_positive_axes(u: np.ndarray, n: int) -> np.ndarray:
    """The first n axes along which each vertex u (k, m) is positive, (n, k)."""
    return np.argsort(u <= 0, axis=1, kind="stable")[:, :n].T


def _raise_first_row(u: np.ndarray, checks) -> None:
    """Raise the error of the first vertex u[k] that fails one of ``checks``,
    (failed (n,), error class, message) in the order a vertex is tested."""
    failed = np.logical_or.reduce([bad for bad, _, _ in checks])
    if failed.any():
        k = int(np.argmax(failed))
        _, cls, message = next(check for check in checks if check[0][k])
        raise cls(f"vertex {_ints(u[k])}: {message}")


@dataclass
class VertexScalar:
    """Nonzero real-valued function on the vertices of a net."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(self.values)):
            raise InvalidValue("vertex scalars must be finite")
        if np.any(self.values == 0.0):
            raise InvalidValue("vertex scalar declared nonzero but contains zeros")


@dataclass
class EdgeLabelling:
    """Per-axis labels alpha_i(u_i), one value per edge layer.

    Constant on opposite edges of every elementary quad by construction.
    """

    per_axis: tuple

    def __post_init__(self):
        self.per_axis = tuple(np.asarray(a, dtype=float) for a in self.per_axis)
        for a in self.per_axis:
            if np.any(a == 0.0) or not np.all(np.isfinite(a)):
                raise InvalidValue("edge labels must be finite and nonzero")
