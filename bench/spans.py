"""Spans around calls into the koenigsnets modules, recorded from outside.

``Tracer.install`` replaces every public function of the traced modules by a
wrapper, at every name the package calls it through: a function defined in
``geom`` and imported into ``isothermic`` is patched in both namespaces, so a
call from either is recorded.  The CLI subcommands are private functions held
in ``cli._COMMANDS``; they are wrapped there and named ``cli.<subcommand>``.
Generator functions are not wrapped, because a span around them would end
before their work is done; their cost stays in the caller's self time.

A span is (name, start, end, parent, op) plus a failed flag and an element
count.  Spans are kept in flat arrays while the run lasts and written out by
``save`` when it ends.  Self time is a span's duration minus the durations of
its direct children, multiplied by the factor its root span was given in
``scales`` (timing.OpTimer puts there the probe factor that normalizes the
op stage the root times), so per-layer times are on the scale of op_p50_s.
"""
from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np


def n_quads(extents) -> int:
    """Elementary quads of a lattice block with these extents."""
    extents = tuple(int(e) for e in extents)
    total = 0
    for i in range(len(extents)):
        for j in range(i + 1, len(extents)):
            n = 1
            for ax, e in enumerate(extents):
                n *= e - 1 if ax in (i, j) else e
            total += n
    return total


class Tracer:
    """Records spans for the functions of the given koenigsnets modules."""

    def __init__(self, layers):
        from koenigsnets.isothermic import IsothermicNet
        from koenigsnets.netio import NetDocument
        from koenigsnets.qnet import QNet

        self._net_types = (QNet, IsothermicNet, NetDocument)
        self._quads_cache = {}
        self.names = []  # span name id -> name
        self._name_ids = {}
        self.name = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.elems = array("q")
        self.scales = {}  # root span index -> factor for the self times under it
        self._stack = [-1]
        self._op_id = -1
        self._patches = []  # (namespace dict, key, original)
        self._wrappers = self._build_wrappers(layers)

    # -- wrapping ---------------------------------------------------------

    def _build_wrappers(self, layers) -> dict:
        """Original function -> traced wrapper, for every traced function."""
        wrappers = {}
        for layer in layers:
            mod = sys.modules[f"koenigsnets.{layer}"]
            for key, fn in vars(mod).items():
                if (
                    key.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(fn)
                ):
                    continue
                wrappers[fn] = self._wrap(fn, f"{layer}.{key}", self._measure_for(layer, key))
        return wrappers

    def _measure_for(self, layer: str, key: str):
        if (layer, key) == ("netio", "saves"):
            return lambda args, out: len(out)
        if (layer, key) == ("netio", "loads"):
            return lambda args, out: len(args[0])
        return lambda args, out: self._quads_of(args)

    def _quads_of(self, args) -> int:
        """Quads of the net a call works on; 1 for calls on single quads."""
        if not args:
            return 1
        a = args[0]
        if isinstance(a, self._net_types):
            extents = a.net.extents if hasattr(a, "net") else a.extents
        elif isinstance(a, (tuple, list)) and a and all(isinstance(e, int) for e in a):
            extents = a  # generator extents
        else:
            return 1
        extents = tuple(extents)
        n = self._quads_cache.get(extents)
        if n is None:
            n = self._quads_cache[extents] = n_quads(extents)
        return n

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int, parent: int) -> int:
        """Start a span under ``parent`` and make it the innermost one."""
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(parent)
        self.op.append(self._op_id)
        self.failed.append(0)
        self.elems.append(0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _wrap(self, fn, name: str, measure):
        nid = self._name_id(name)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = rec._open(nid, rec._stack[-1])
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec.failed[i] = 1
                raise
            finally:
                rec.end[i] = perf_counter()
                rec._stack.pop()
            rec.elems[i] = measure(args, out)
            return out

        return traced

    def install(self) -> None:
        """Patch every module namespace of the package that holds a traced
        function, and the CLI subcommand table."""
        if self._patches:
            return
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "koenigsnets" or modname.startswith("koenigsnets.")):
                continue
            ns = vars(mod)
            for key, val in list(ns.items()):
                if inspect.isfunction(val) and val in self._wrappers:
                    self._patches.append((ns, key, val))
                    ns[key] = self._wrappers[val]
        commands = sys.modules["koenigsnets.cli"]._COMMANDS
        for key, fn in list(commands.items()):
            self._patches.append((commands, key, fn))
            commands[key] = self._wrap(fn, f"cli.{key}", lambda args, out: 1)

    def uninstall(self) -> None:
        for ns, key, val in reversed(self._patches):
            ns[key] = val
        self._patches = []

    # -- root spans -------------------------------------------------------

    def begin(self, name: str, op_id: int) -> int:
        """Open a root span (an op or a set-up) that later spans nest under."""
        self._op_id = op_id
        return self._open(self._name_id(name), -1)

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()
        self._op_id = -1

    # -- analysis ---------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.asarray(self.name, dtype=np.int64),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "op": np.asarray(self.op, dtype=np.int64),
            "start": np.asarray(self.start, dtype=float),
            "end": np.asarray(self.end, dtype=float),
            "failed": np.asarray(self.failed, dtype=np.int8),
            "elems": np.asarray(self.elems, dtype=np.int64),
        }

    def layer_table(self, root: str) -> dict:
        """Per-name totals over the spans under root spans called ``root``.

        Returns {name: {"calls", "failed", "self_s", "elems"}} summed over
        those roots, plus {"roots": count} under the root's own name.
        """
        a = self.arrays()
        name = a["name"]
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        children = np.zeros(len(dur))
        np.add.at(children, a["parent"][child], dur[child])
        top = np.arange(len(dur))  # each span's root span
        while True:
            up = np.where(a["parent"][top] >= 0, a["parent"][top], top)
            if np.array_equal(up, top):
                break
            top = up
        scale = np.ones(len(dur))
        scale[list(self.scales)] = list(self.scales.values())
        self_s = (dur - children) * scale[top]
        root_id = self._name_ids.get(root)
        root_spans = np.flatnonzero((a["parent"] < 0) & (name == root_id))
        keep = np.isin(a["op"], a["op"][root_spans]) if root_id is not None else np.zeros(len(dur), bool)
        n = len(self.names)
        sel = name[keep]
        calls = np.bincount(sel, minlength=n)
        failed = np.bincount(sel, weights=a["failed"][keep], minlength=n)
        self_tot = np.bincount(sel, weights=self_s[keep], minlength=n)
        elems = np.bincount(sel, weights=a["elems"][keep], minlength=n)
        return {
            self.names[k]: {
                "calls": int(calls[k]),
                "failed": int(failed[k]),
                "self_s": float(self_tot[k]),
                "elems": int(elems[k]),
            }
            for k in range(n)
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
