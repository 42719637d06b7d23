"""Net document serialization (JSON schema v1) and OBJ export.

Documents are written canonically: fixed key order, one block per line,
floats with 17 significant digits.  ``save(load(path))`` reproduces the
file byte for byte.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, SchemaMismatch, UnsupportedDimension
from .qnet import QNet

__all__ = ["NetDocument", "load", "loads", "save", "saves", "export_obj"]

SCHEMA_VERSION = 1


@dataclass
class NetDocument:
    """Serializable net with optional scalar decorations."""

    m: int
    extents: tuple
    ambient_dim: int
    vertices: np.ndarray  # flat, row-major multi-index, coordinate-major
    nu: np.ndarray | None = None
    s: np.ndarray | None = None
    labels: tuple | None = None  # per-axis 1d arrays
    moutard: dict | None = None  # {"dim": int, "points": flat, "coeffs": {(i,j): flat}}
    schema_version: int = SCHEMA_VERSION

    @classmethod
    def from_net(cls, net: QNet, nu=None, s=None, labels=None, moutard=None) -> "NetDocument":
        return cls(
            m=net.m,
            extents=tuple(net.extents),
            ambient_dim=net.ambient_dim,
            vertices=net.vertices.reshape(-1).copy(),
            nu=None if nu is None else np.asarray(nu).reshape(-1),
            s=None if s is None else np.asarray(s).reshape(-1),
            labels=None if labels is None else tuple(np.asarray(a) for a in labels),
            moutard=moutard,
        )

    def to_net(self) -> QNet:
        shape = tuple(self.extents) + (self.ambient_dim,)
        return QNet(np.asarray(self.vertices, dtype=float).reshape(shape))

    def nu_grid(self) -> np.ndarray | None:
        if self.nu is None:
            return None
        return np.asarray(self.nu, dtype=float).reshape(tuple(self.extents))

    def s_grid(self) -> np.ndarray | None:
        if self.s is None:
            return None
        return np.asarray(self.s, dtype=float).reshape(tuple(self.extents))


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
    """Canonical JSON text of a document."""
    lines = ["{"]
    lines.append(f'  "schema_version": {int(doc.schema_version)},')
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
        m = doc.moutard
        coeffs = m.get("coeffs", {})
        coeff_items = ", ".join(
            f'"{i},{j}": {_fmt_list(arr)}' for (i, j), arr in sorted(coeffs.items())
        )
        body.append(
            '  "moutard": {"dim": %d, "points": %s, "coeffs": {%s}}'
            % (int(m["dim"]), _fmt_list(m["points"]), coeff_items)
        )
    lines.append(",\n".join(body))
    lines.append("}")
    return "\n".join(lines) + "\n"


def save(doc: NetDocument, path) -> None:
    with open(path, "w") as fh:
        fh.write(saves(doc))


def loads(text: str) -> NetDocument:
    try:
        raw = json.loads(text)
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
        return _from_raw(raw)
    except (TypeError, ValueError) as exc:  # int() or float() of a value of the wrong type or form
        raise ParseError(f"malformed value: {exc}") from exc


def _from_raw(raw: dict) -> NetDocument:
    m = int(raw["m"])
    extents = tuple(int(e) for e in raw["extents"])
    ambient_dim = int(raw["ambient_dim"])
    if len(extents) != m or min(extents, default=0) < 0:
        raise SchemaMismatch(f"extents must be m = {m} vertex counts >= 0, not {list(extents)}")
    n_vertices = int(np.prod(extents))
    vertices = np.asarray(raw["vertices"], dtype=float)
    if vertices.size != n_vertices * ambient_dim:
        raise SchemaMismatch(
            f"vertex count {vertices.size} != extents product {n_vertices} * ambient_dim {ambient_dim}"
        )
    doc = NetDocument(m=m, extents=extents, ambient_dim=ambient_dim, vertices=vertices)
    for key in ("nu", "s"):
        if raw.get(key) is not None:
            arr = np.asarray(raw[key], dtype=float)
            if arr.size != n_vertices:
                raise SchemaMismatch(f"{key} has {arr.size} values for {n_vertices} vertices")
            setattr(doc, key, arr)
    if raw.get("labels") is not None:
        labels = tuple(np.asarray(a, dtype=float) for a in raw["labels"])
        if len(labels) != m or any(len(a) != e - 1 for a, e in zip(labels, extents)):
            raise SchemaMismatch("labels must hold extents[i] - 1 values per axis")
        doc.labels = labels
    if raw.get("moutard") is not None:
        blk = raw["moutard"]
        if "dim" not in blk or "points" not in blk:
            raise ParseError("moutard block needs 'dim' and 'points'")
        dim = int(blk["dim"])
        pts = np.asarray(blk["points"], dtype=float)
        if pts.size != n_vertices * dim:
            raise SchemaMismatch("moutard point count inconsistent with extents")
        if not isinstance(blk.get("coeffs", {}), dict):
            raise ParseError("moutard coeffs must be an object")
        coeffs = {}
        for key, arr in blk.get("coeffs", {}).items():
            i, j = (int(x) for x in key.split(","))
            if not 0 <= i < j < m:
                raise SchemaMismatch(f"coefficient axes {key!r} outside 0 <= i < j < {m}")
            coeffs[(i, j)] = np.asarray(arr, dtype=float)
            n_quads = int(np.prod([e - (ax in (i, j)) for ax, e in enumerate(extents)]))
            if coeffs[(i, j)].size != n_quads:
                raise SchemaMismatch(f"coefficient block {key!r} has {coeffs[(i, j)].size} values for {n_quads} quads")
        doc.moutard = {"dim": dim, "points": pts, "coeffs": coeffs}
    return doc


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
    pts = np.asarray(doc.vertices, dtype=float).reshape(n1 * n2, doc.ambient_dim)
    if doc.ambient_dim < 3:
        pts = np.concatenate([pts, np.zeros((len(pts), 3 - doc.ambient_dim))], axis=1)
    lines = ["v " + _fmt(p, " ") for p in pts]
    for a in range(n1 - 1):
        for b in range(n2 - 1):
            i00 = a * n2 + b + 1  # OBJ indices are 1-based
            lines.append(f"f {i00} {i00 + n2} {i00 + n2 + 1} {i00 + 1}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
