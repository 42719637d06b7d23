"""Finite windows of maps Z^m -> R^N with planar quadrilaterals.

Storage is a dense row-major array of shape ``extents + (ambient_dim,)``.
Nets are immutable after construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .errors import DimensionTooLow, InvalidValue
from .geom import DEFAULT_TOL, Tolerances, _diagonal_frame, _raise_first

__all__ = [
    "QNet",
    "VertexScalar",
    "EdgeLabelling",
    "CheckReport",
    "check_qnet",
]


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
        """``build()``, computed on the first call for ``key`` and kept by the net unless it raises; a
        key names the Tolerances its result depends on, if any: ("q_form", tol), "planarity"."""
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

    def require(self, cls):
        """This report if it passed, else ``cls`` raised naming its counts, its worst residual and where."""
        if not self.passed:
            raise cls(f"{self.name}: {self.n_failed} of {self.n_checked} fail, max residual {self.max_residual:.3e} "
                      f"at {self.worst_at} exceeds {self.tol:.0e}")
        return self

    def summary(self) -> dict:
        """passed, max_residual, n_checked, n_failed and worst_at, as JSON values."""
        return {"passed": self.passed, "max_residual": self.max_residual, "n_checked": self.n_checked,
                "n_failed": self.n_failed, "worst_at": self.worst_at}


def check_qnet(net: QNet, tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """Per-quad :func:`geom.quad_planarity` residuals, one part per axis pair,
    each quad at its base; passes iff all are <= tol.incidence."""
    return CheckReport("qnet", tol.incidence, {key: (r.ravel(), _grid(r.shape)) for key, r in _planarity(net).items()})


def _net_stack(net: QNet) -> tuple:
    abcd, pairs = _stack_quads(net)
    return abcd, pairs, _diagonal_frame(abcd)


def _planarity(net: QNet) -> dict:
    """:func:`geom.quad_planarity` of the quads of every axis pair, {(i, j): rho over their base grid}: read-only
    views of the rho of the frame of the net's quad stack, built once per net and kept by it.  The net keeps the
    stack and frame (40 N + 68 bytes per quad) for the circles until the diagonal form takes them
    (:func:`_net_frame`)."""

    def build():
        net._cache["stack"] = (_, pairs, frame) = _net_stack(net)
        return {key: _frozen(frame.rho)[at].reshape(shape) for key, shape, at in pairs}

    return net._memo("planarity", build)


def _net_frame(net: QNet, take: bool) -> tuple:
    """The net's quad stack, its pairs (:func:`_stack_quads`) and its :func:`geom._diagonal_frame`: those that
    :func:`_planarity` left on the net, dropped from it if ``take`` (the diagonal form), or new ones once taken."""
    _planarity(net)
    stack = (net._cache.pop if take else net._cache.get)("stack", None)
    return _net_stack(net) if stack is None else stack


@lru_cache(maxsize=16)
def _grid(shape: tuple, origin: int = 0) -> np.ndarray:
    """The lattice indices (n, d) of the cells of a grid ``shape`` in C order, cell 0 at ``origin``
    (1 for interior vertices), read-only, built once per shape and origin and shared by every report."""
    return _frozen(np.indices(shape).reshape(len(shape), -1).T + origin)


def _ints(u) -> tuple:
    return tuple(int(x) for x in u)


def _stack_quads(net: QNet) -> tuple:
    """The quads abcd (4, N, Q) of every axis pair (i, j) of a net, pair after pair in combinations order, bases in
    C order (the kernels' layout, so they copy nothing), and the pairs: ((i, j), base grid shape, slice of abcd), ..."""
    located, start = [], 0
    for key in combinations(range(net.m), 2):
        shape = tuple(n - (ax in key) for ax, n in enumerate(net.extents))
        located.append((key, shape, slice(start, start := start + int(np.prod(shape)))))
    abcd = np.empty((4, net.ambient_dim, start))
    coords = np.moveaxis(net.vertices, -1, 0)
    for (i, j), shape, at in located:
        np.stack(_corners(coords, i + 1, j + 1), out=abcd[:, :, at].reshape(abcd.shape[:2] + shape))
    return abcd, tuple(located)


def _base(shape: tuple, k: int) -> tuple:
    """The base multi-index, as plain ints, of cell k of a grid ``shape``."""
    return _ints(np.unravel_index(k, shape))


def _quad_at(shape: tuple, i: int, j: int):
    """The locator of :func:`geom._raise_first` for the (i, j) quads over a base grid ``shape``."""
    return lambda k: f"quad base {_base(shape, k)} (axes {i},{j}): "


def _stack_at(pairs: tuple):
    """The locator of :func:`geom._raise_first` for a stack of the quads of axis ``pairs`` (:func:`_stack_quads`)."""
    return lambda k: next(_quad_at(shape, *key)(k - at.start) for key, shape, at in pairs if k < at.stop)


def _vertex_at(shape: tuple):
    """The locator of :func:`geom._raise_first` for the vertices of a lattice array ``shape``."""
    return lambda k: f"vertex {_base(shape, k)}: "


def _chart(points: np.ndarray, c: int, cls, message: str, tol: Tolerances) -> np.ndarray:
    """The component c of every point of a lattice array (..., n), the denominator of an affine chart; ``cls``
    through :func:`geom._raise_first` at the first vertex v at infinity, |y_vc| <= tol.incidence max |y_v|."""
    w = points[..., c]
    _raise_first([((np.abs(w) <= tol.incidence * np.abs(points).max(axis=-1)).ravel(), cls, message)],
                 _vertex_at(w.shape))
    return w


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
    NaN (which fails ``worst <= tol``), 0.0 if there are none."""
    return float(np.max([res.max(initial=0.0) for res in residuals], initial=0.0))


# vertex offsets of a cube along its axes (i, j, k): the black f, f_ij, f_ik, f_jk, then the white f_i, f_j, f_k, f_ijk
_CUBE = ((0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))
_QUAD = np.array([3, 2, 1])  # rows of _Level.below: the quad (f, f_i, f_j) below each vertex f_ij


def _cubes(net: QNet, axes):
    """The black and the white quad (W, 2, 4, N) of every cube spanned by ``axes``, bases in C order, in ``_CUBE``
    order, plus the shape of the base grid: one kernel call reads both colours."""
    cube = np.stack([_crop(net.vertices, axes, bits) for bits in _CUBE], axis=net.m)
    return cube.reshape(-1, 2, 4, net.ambient_dim), cube.shape[:net.m]


def _star(values: np.ndarray) -> np.ndarray:
    """The star of every interior vertex of a 2d lattice array, as (V, 9, ...)
    in C order of the vertices: f; f_{+1}, f_{-1}, f_{+2}, f_{-2}; then
    f_{+1+2}, f_{+1-2}, f_{-1+2}, f_{-1-2}."""
    n1, n2 = values.shape[:2]
    offsets = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1))
    cols = [values[1 + a:n1 - 1 + a, 1 + b:n2 - 1 + b] for a, b in offsets]
    return np.stack(cols, axis=2).reshape((n1 - 2) * (n2 - 2), 9, *values.shape[2:])


class _Level(NamedTuple):
    """One hyperplane of a wavefront schedule, read-only: its vertices u (n, m) in C order and their neighbour
    table ``below`` (2^r, n), r = min(m, 3).  Row b is each vertex moved back by one along those of its first r
    positive axes that the bits of b select (bit 0 the first): row 0 its flat index, row 3 its quad's base."""

    u: np.ndarray
    below: np.ndarray


@lru_cache(maxsize=16)
def _levels(extents: tuple, spans: tuple) -> tuple:
    """The ``_Level`` of every hyperplane u_1 + ... + u_m = k, in increasing k, of the vertices of a lattice block
    ``extents`` off the coordinate subspaces spanned by each axis tuple in ``spans``; int32 where the block fits."""
    known = np.zeros(extents, dtype=bool)
    for axes in spans:
        known[tuple(slice(None) if ax in axes else 0 for ax in range(len(extents)))] = True
    strides = [int(np.prod(extents[ax + 1:])) for ax in range(len(extents))]
    flat = np.flatnonzero(~known).astype(np.int32 if known.size < 2**31 else np.intp)

    def coords(ix):  # the multi-index of flat indices, axis by axis, in their dtype
        return [ix // stride % e for stride, e in zip(strides, extents)]

    k = sum(coords(flat))  # the hyperplane of each vertex
    flat = flat[np.argsort(k, kind="stable")]  # by hyperplane, C order within one
    k.sort()
    u = np.stack(coords(flat), axis=1)
    r = min(len(extents), 3)
    below = np.empty((2**r, len(flat)), flat.dtype)
    below[0] = flat
    for t in range(r):  # bit t moves each vertex back along its (t + 1)-th positive axis, if it has one
        step, rank = np.zeros_like(flat), np.zeros_like(flat)
        for ax, stride in enumerate(strides):
            positive = u[:, ax] > 0
            rank += positive
            step[positive & (rank == t + 1)] = stride
        np.subtract(below[:2**t], step, out=below[2**t:2**(t + 1)])
    cuts = np.flatnonzero(np.diff(k)) + 1
    _frozen(u), _frozen(below)  # each level's tables are views of these
    return tuple(_Level(lu, lb) for lu, lb in zip(np.split(u, cuts), np.split(below, cuts, axis=1)) if len(lu))


def _wavefront(pieces: dict, step, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Solve a Cauchy problem on a lattice block one hyperplane
    u_1 + ... + u_m = k at a time, in increasing k.

    ``pieces`` maps axis tuples to the initial data on the coordinate
    subspaces they span (every other coordinate 0), written in order; where
    two pieces meet, no coordinate may differ by more than tol.incidence
    times the largest in the data (NaN does), else ValueError.  Every other
    vertex is computed by ``step(flat, level)``, which gets the (V, ...) view
    of the output and the ``_Level`` of one hyperplane, and returns the values
    of its vertices from those on lower hyperplanes, gathered at once through
    rows of ``level.below`` (cached per block by :func:`_levels`), raising the
    typed error of its first degenerate vertex (:func:`_raise_first_row`).
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
        gaps.append(np.abs(y[idx][known[idx]] - values[known[idx]]))
        y[idx], known[idx] = values, True
    gap = _worst(gaps)
    if not gap <= tol.incidence * scale:
        raise ValueError(f"initial data disagree where they meet (by {gap:.3e} at scale {scale:.3e})")
    flat = y.reshape((-1,) + tail)
    for level in _levels(tuple(extents), tuple(pieces)):
        flat[level.below[0]] = step(flat, level)
    return y


def _raise_first_row(u: np.ndarray, checks) -> None:
    """:func:`geom._raise_first` of ``checks`` over the vertices u (n, m) of a fill step."""
    _raise_first(checks, lambda k: f"vertex {_ints(u[k])}: ")


@dataclass(frozen=True)
class VertexScalar:
    """Nonzero real-valued function on the vertices of a net; keeps a read-only copy of ``values``."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(np.array(self.values, dtype=float)))
        if not np.all(np.isfinite(self.values)):
            raise InvalidValue("vertex scalars must be finite")
        if np.any(self.values == 0.0):
            raise InvalidValue("vertex scalar declared nonzero but contains zeros")


@dataclass(frozen=True)
class EdgeLabelling:
    """Per-axis labels alpha_i(u_i), one value per edge layer; keeps read-only copies of ``per_axis``.

    Constant on opposite edges of every elementary quad by construction.
    """

    per_axis: tuple

    def __post_init__(self):
        object.__setattr__(self, "per_axis", tuple(_frozen(np.array(a, dtype=float)) for a in self.per_axis))
        for a in self.per_axis:
            if np.any(a == 0.0) or not np.all(np.isfinite(a)):
                raise InvalidValue("edge labels must be finite and nonzero")
