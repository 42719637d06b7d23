"""Net document serialization (JSON schema v1) and OBJ export.

A :class:`NetDocument` holds lattice-shaped, read-only values: vertices
(extents..., N), nu and s (extents...), one label array (extents[i] - 1,)
per axis and a :class:`koenigs.MoutardNet`.  The JSON layout is known here
alone: :func:`saves` writes every float block flat in C order, and every
block read, from a file or given to the constructor, passes through
:func:`_block`.  Documents are written canonically: fixed key order, one
block per line, floats with 17 significant digits.  ``save(load(path))``
reproduces the file byte for byte.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParseError, SchemaMismatch, UnsupportedDimension
from .koenigs import MoutardNet
from .qnet import QNet, _frozen

__all__ = ["NetDocument", "load", "loads", "save", "saves", "export_obj"]

SCHEMA_VERSION = 1


def _block(value, shape: tuple, what: str) -> np.ndarray:
    """A read-only float copy of ``value`` in ``shape``; SchemaMismatch unless it holds that many values."""
    arr = np.array(value, dtype=float)
    if arr.size != int(np.prod(shape)):
        raise SchemaMismatch(f"{what} has {arr.size} values for shape {shape}")
    return _frozen(arr.reshape(shape))


@dataclass(frozen=True)
class NetDocument:
    """Serializable net with optional scalar decorations, each block read through :func:`_block`."""

    m: int
    extents: tuple
    ambient_dim: int
    vertices: np.ndarray  # (extents..., ambient_dim)
    nu: np.ndarray | None = None  # (extents...)
    s: np.ndarray | None = None  # (extents...)
    labels: tuple | None = None  # (extents[i] - 1,) per axis i
    moutard: MoutardNet | None = None

    def __post_init__(self):
        extents = tuple(self.extents)
        if len(extents) != self.m or min(extents, default=0) < 0:
            raise SchemaMismatch(f"extents must be m = {self.m} vertex counts >= 0, not {list(extents)}")
        blocks = {"extents": extents, "vertices": _block(self.vertices, extents + (self.ambient_dim,), "vertices")}
        for key in ("nu", "s"):
            if getattr(self, key) is not None:
                blocks[key] = _block(getattr(self, key), extents, key)
        if self.labels is not None:
            if len(self.labels) != self.m:
                raise SchemaMismatch(f"labels must hold one array per axis, not {len(self.labels)}")
            blocks["labels"] = tuple(_block(a, (e - 1,), f"labels of axis {i}")
                                     for i, (a, e) in enumerate(zip(self.labels, extents)))
        for key, value in blocks.items():
            object.__setattr__(self, key, value)

    @classmethod
    def from_net(cls, net: QNet, nu=None, s=None, labels=None, moutard=None) -> "NetDocument":
        return cls(m=net.m, extents=net.extents, ambient_dim=net.ambient_dim, vertices=net.vertices,
                   nu=nu, s=s, labels=labels, moutard=moutard)

    def to_net(self) -> QNet:
        return QNet(self.vertices)


def _fmt(values, sep: str = ", ") -> str:
    """The values with 17 significant digits, joined by ``sep``, through one
    format string ("%.17g" writes what format(x, ".17g") writes)."""
    flat = np.asarray(values, dtype=float).reshape(-1)
    if not np.isfinite(flat).all():
        raise ValueError("cannot serialize non-finite value")
    return sep.join(["%.17g"] * len(flat)) % tuple(flat.tolist())


def _fmt_list(values) -> str:
    return "[" + _fmt(values) + "]"


def saves(doc: NetDocument) -> str:
    """Canonical JSON text of a document, each float block flat in C order."""
    lines = ["{"]
    lines.append(f'  "schema_version": {SCHEMA_VERSION},')
    lines.append(f'  "m": {int(doc.m)},')
    lines.append('  "extents": [' + ", ".join(str(int(e)) for e in doc.extents) + "],")
    lines.append(f'  "ambient_dim": {int(doc.ambient_dim)},')
    body = [f'  "vertices": {_fmt_list(doc.vertices)}']
    if doc.nu is not None:
        body.append(f'  "nu": {_fmt_list(doc.nu)}')
    if doc.s is not None:
        body.append(f'  "s": {_fmt_list(doc.s)}')
    if doc.labels is not None:
        inner = ", ".join(_fmt_list(a) for a in doc.labels)
        body.append(f'  "labels": [{inner}]')
    if doc.moutard is not None:
        mn = doc.moutard
        coeff_items = ", ".join(f'"{i},{j}": {_fmt_list(a)}' for (i, j), a in sorted(mn.coeffs.items()))
        body.append('  "moutard": {"dim": %d, "points": %s, "coeffs": {%s}}'
                    % (mn.points.shape[-1], _fmt_list(mn.points), coeff_items))
    lines.append(",\n".join(body))
    lines.append("}")
    return "\n".join(lines) + "\n"


def save(doc: NetDocument, path) -> None:
    with open(path, "w") as fh:
        fh.write(saves(doc))


def loads(text: str) -> NetDocument:
    try:
        raw = json.loads(text, parse_int=float)  # "-0", as "%.17g" writes -0.0, reads back as -0.0
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ParseError("top level must be an object")
    for key in ("schema_version", "m", "extents", "ambient_dim", "vertices"):
        if key not in raw:
            raise ParseError(f"missing field {key!r}")
    if raw["schema_version"] != SCHEMA_VERSION:
        raise SchemaMismatch(f"schema_version {raw['schema_version']} != {SCHEMA_VERSION}")
    try:
        doc = NetDocument(m=int(raw["m"]), extents=tuple(int(e) for e in raw["extents"]),
                          ambient_dim=int(raw["ambient_dim"]), vertices=raw["vertices"], nu=raw.get("nu"),
                          s=raw.get("s"), labels=raw.get("labels"))
        return doc if raw.get("moutard") is None else replace(doc, moutard=_moutard(raw["moutard"], doc.extents))
    except (TypeError, ValueError, OverflowError) as exc:  # int() or float() of a value of the wrong type or form
        raise ParseError(f"malformed value: {exc}") from exc


def _moutard(blk, extents: tuple) -> MoutardNet:
    """The Moutard net of a document's "moutard" block: points (extents..., dim), coefficients over quad bases."""
    if "dim" not in blk or "points" not in blk:
        raise ParseError("moutard block needs 'dim' and 'points'")
    if not isinstance(blk.get("coeffs", {}), dict):
        raise ParseError("moutard coeffs must be an object")
    coeffs = {}
    for key, arr in blk.get("coeffs", {}).items():
        i, j = (int(x) for x in key.split(","))
        if not 0 <= i < j < len(extents):
            raise SchemaMismatch(f"coefficient axes {key!r} outside 0 <= i < j < {len(extents)}")
        shape = tuple(e - (ax in (i, j)) for ax, e in enumerate(extents))
        coeffs[(i, j)] = _block(arr, shape, f"coefficient block {key!r}")
    return MoutardNet(_block(blk["points"], extents + (int(blk["dim"]),), "moutard points"), coeffs)


def load(path) -> NetDocument:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(str(exc)) from exc
    return loads(text)


def export_obj(doc: NetDocument, path) -> None:
    """OBJ quad mesh for a 2d net; 2d ambient data is padded with z = 0."""
    if doc.m != 2:
        raise UnsupportedDimension("OBJ export needs a 2d lattice")
    if doc.ambient_dim > 3:
        raise UnsupportedDimension("OBJ export needs ambient dimension <= 3")
    n1, n2 = doc.extents
    pts = doc.vertices.reshape(n1 * n2, doc.ambient_dim)
    if doc.ambient_dim < 3:
        pts = np.concatenate([pts, np.zeros((len(pts), 3 - doc.ambient_dim))], axis=1)
    lines = ["v " + _fmt(p, " ") for p in pts]
    for a in range(n1 - 1):
        for b in range(n2 - 1):
            i00 = a * n2 + b + 1  # OBJ indices are 1-based
            lines.append(f"f {i00} {i00 + n2} {i00 + n2 + 1} {i00 + 1}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
