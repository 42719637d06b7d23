"""Finite windows of maps Z^m -> R^N with planar quadrilaterals.

Storage is a dense row-major array of shape ``extents + (ambient_dim,)``.
Nets are immutable after construction; all iterators are read-only.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterator

import numpy as np

from .errors import DimensionTooLow
from .geom import DEFAULT_TOL, Tolerances, rank_residual

__all__ = [
    "QNet",
    "VertexScalar",
    "EdgeLabelling",
    "PlanarityReport",
    "hexahedra",
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
            raise ValueError("net vertices must be finite")
        self._vertices = _frozen(vertices)
        self._cache = {}
        self.m = vertices.ndim - 1
        self.extents = vertices.shape[:-1]
        self.ambient_dim = vertices.shape[-1]
        if any(e < 2 for e in self.extents):
            raise ValueError("every axis needs at least 2 vertices")
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

    def base_indices(self, *axes: int) -> Iterator[tuple]:
        """Base multi-indices of all elementary cells spanned by ``axes``
        (quads for an axis pair, hexahedra for a triple), in C order."""
        ranges = [
            range(e - 1) if ax in axes else range(e)
            for ax, e in enumerate(self.extents)
        ]
        return product(*ranges)

    def interior_indices(self) -> Iterator[tuple]:
        return product(*(range(1, e - 1) for e in self.extents))


def hexahedra(net: QNet) -> Iterator[tuple]:
    """Yield each combinatorial cube as (u, (i, j, k), points).

    Points are ordered (f, f_i, f_j, f_k, f_ij, f_ik, f_jk, f_ijk).
    """
    if net.m < 3:
        raise DimensionTooLow("hexahedra need lattice dimension m >= 3")
    for axes in combinations(range(net.m), 3):
        yield from ((u, axes, pts) for u, pts in zip(net.base_indices(*axes), _cubes(net, axes)))


@dataclass
class PlanarityReport:
    passed: bool
    max_residual: float
    offenders: list  # (u, i, j, residual) of quads above tolerance


def check_qnet(net: QNet, tol: Tolerances = DEFAULT_TOL) -> PlanarityReport:
    """Per-quad planarity residuals (smallest/largest singular value of the
    centered 4xN point matrix).  Passes iff the maximum is <= tol.incidence."""
    max_res = 0.0
    offenders = []
    for i, j in combinations(range(net.m), 2):
        pts, shape = _gather_quads(net, i, j)
        res = rank_residual(pts - pts.mean(axis=1, keepdims=True), 2)
        max_res = max(max_res, float(res.max(initial=0.0)))
        for k in np.flatnonzero(res > tol.incidence):
            offenders.append((_base(shape, k), i, j, float(res[k])))
    return PlanarityReport(passed=max_res <= tol.incidence, max_residual=max_res, offenders=offenders)


def _gather_quads(net: QNet, i: int, j: int):
    """Stacked quad vertex arrays (Q, 4, N) in base_indices order, a view of
    a (4, N, Q) array, plus the shape of the base grid (see :func:`_base`)."""
    coords = np.moveaxis(net.vertices, -1, 0)
    corners = np.stack([_crop(coords, (i + 1, j + 1), c) for c in ((0, 0), (1, 0), (1, 1), (0, 1))])
    return np.moveaxis(corners.reshape(4, net.ambient_dim, -1), -1, 0), corners.shape[2:]


def _base(shape: tuple, k: int) -> tuple:
    """The base multi-index, as plain ints, of cell k of a grid ``shape``."""
    return tuple(int(x) for x in np.unravel_index(k, shape))


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


# vertex offsets of a cube along its axes (i, j, k), in hexahedra() order
_CUBE = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1))


def _cubes(net: QNet, axes) -> np.ndarray:
    """The vertices of every cube spanned by ``axes``, as (W, 8, N) in
    base_indices order, each cube in hexahedra() order."""
    cube = np.stack([_crop(net.vertices, axes, bits) for bits in _CUBE], axis=net.m)
    return cube.reshape(-1, 8, net.ambient_dim)


def _star(values: np.ndarray) -> np.ndarray:
    """The star of every interior vertex of a 2d lattice array, as (V, 9, ...)
    in interior_indices order: f; f_{+1}, f_{-1}, f_{+2}, f_{-2}; then
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
    two pieces meet they must agree within tol.incidence times the largest
    norm in the data, else ValueError.  Every other vertex is computed by
    ``step(y, u)``, which gets the vertices u (n, m) of one hyperplane in C
    order and returns their values from those on lower hyperplanes, raising
    the typed error of its first degenerate vertex (:func:`_raise_first_row`).
    """
    m = 1 + max(ax for axes in pieces for ax in axes)
    extents = [0] * m
    for axes, values in pieces.items():
        for ax, n in zip(axes, values.shape):
            extents[ax] = n
        tail = values.shape[len(axes):]
    y = np.empty(tuple(extents) + tail)
    known = np.zeros(extents, dtype=bool)
    scale = max(float(np.linalg.norm(values, axis=-1).max()) for values in pieces.values())
    gap = 0.0
    for axes, values in pieces.items():
        idx = tuple(slice(None) if ax in axes else 0 for ax in range(m))
        meet = known[idx]
        if meet.any():
            gap = max(gap, float(np.linalg.norm(y[idx][meet] - values[meet], axis=-1).max()))
        y[idx] = values
        known[idx] = True
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
        raise cls(f"vertex {tuple(int(x) for x in u[k])}: {message}")


@dataclass
class VertexScalar:
    """Real-valued function on the vertices of a net."""

    values: np.ndarray
    nonzero: bool = True

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("vertex scalars must be finite")
        if self.nonzero and np.any(self.values == 0.0):
            raise ValueError("vertex scalar declared nonzero but contains zeros")

    def __getitem__(self, u) -> float:
        return float(self.values[tuple(u)])


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
                raise ValueError("edge labels must be finite and nonzero")

    def label(self, axis: int, layer: int) -> float:
        return float(self.per_axis[axis][layer])
