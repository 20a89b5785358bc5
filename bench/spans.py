"""Spans around the public entry points of each swcalc layer.

The wrappers live here, not in swcalc: install() replaces each entry point
in every swcalc namespace that holds it (sw and cli import alexander_skein,
from_manifold and others by name, so patching swcalc.knots alone would miss
the walker's skein calls) and wraps LaurentPoly.__mul__ / __rmul__ /
__str__, LinkDiagram.reduce_kinks and Interpreter._statement on their
classes. uninstall() puts the originals back.

A span is (name, start, end, parent span, op id), kept in flat arrays while
the run lasts and written out by write() as a compact binary file, since a
traced Fox run makes about a million laurent.mul spans; read() loads it. Self time is a span's duration
minus the durations of its direct children; spans nest exactly because the
program is single-threaded.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from array import array
from collections import Counter

SETUP_OP = -1

# span name -> (module, attribute) of each wrapped function
FUNCTIONS = {
    "laurent.exact_div": [("swcalc.laurent", "exact_div")],
    "laurent.parse_poly": [("swcalc.laurent", "parse_poly")],
    "knots.canonical_form": [("swcalc.knots", "canonical_form")],
    "knots.alexander_skein": [("swcalc.knots", "alexander_skein")],
    "knots.alexander_fox": [("swcalc.knots", "alexander_fox")],
    "knots.parse_pd": [("swcalc.knots", "parse_pd")],
    "knots.braid_closure": [("swcalc.knots", "braid_closure")],
    "sw.from_manifold": [("swcalc.sw", "from_manifold")],
    "sw.glue": [("swcalc.sw", "glue")],
    "sw.blowup_formula": [("swcalc.sw", "blowup_formula")],
    "sw.knot_surgery_formula": [("swcalc.sw", "knot_surgery_formula")],
    "sw.log_transform": [("swcalc.sw", "log_transform")],
    "manifolds.build": [("swcalc.manifolds", n) for n in (
        "cp2", "cp2_bar", "s2xs2", "elliptic", "horikawa", "connected_sum",
        "blowup", "fiber_sum", "torus_surgery", "knot_surgery",
        "rational_blowdown", "reverse_orientation")],
}

# span name -> (module, class, method)
METHODS = {
    "laurent.mul": [("swcalc.laurent", "LaurentPoly", "__mul__"),
                    ("swcalc.laurent", "LaurentPoly", "__rmul__")],
    "laurent.str": [("swcalc.laurent", "LaurentPoly", "__str__")],
    "knots.reduce_kinks": [("swcalc.knots", "LinkDiagram", "reduce_kinks")],
    "cli.statement": [("swcalc.cli", "Interpreter", "_statement")],
}


class Tracer:
    def __init__(self):
        self.names: list = []
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack = [-1]
        self.op_id = SETUP_OP
        self.errors: Counter = Counter()
        self.counters: Counter = Counter()
        self.walker_nodes: set = set()
        self._undo: list = []

    def _wrap(self, name, fn, after=None):
        nid = len(self.names)
        self.names.append(name)
        name_of, start, end = self.name_of, self.start, self.end
        parent, op, stack, errors = self.parent, self.op, self.stack, self.errors
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            op.append(tracer.op_id)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(out, args)
            return out

        return wrapper

    def _count_terms(self, out, args):
        if out is not NotImplemented:
            self.counters["laurent.mul.terms_out"] += len(out)

    def _count_node(self, out, args):
        self.walker_nodes.add((self.op_id, id(args[0])))

    def _skein_with_memo(self, fn):
        """Pass a fresh memo (what the default does) and count its entries."""
        counters = self.counters

        def call(diagram, *args, memo=None, **kwargs):
            if memo is None:
                memo = {}
            out = fn(diagram, *args, memo=memo, **kwargs)
            counters["knots.skein.memo_entries"] += len(memo)
            return out

        return call

    def install(self) -> None:
        for modname in ("swcalc", "swcalc.cli"):
            importlib.import_module(modname)
        mods = {n: m for n, m in sys.modules.items()
                if n == "swcalc" or n.startswith("swcalc.")}
        for name, targets in FUNCTIONS.items():
            for modname, attr in targets:
                original = getattr(mods[modname], attr)
                inner = original
                after = None
                if name == "knots.alexander_skein":
                    inner = self._skein_with_memo(original)
                elif name == "sw.from_manifold":
                    after = self._count_node
                wrapped = self._wrap(name, inner, after)
                for mod in mods.values():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
                            self._undo.append((mod, key, original))
        for name, targets in METHODS.items():
            for modname, cls_name, attr in targets:
                cls = getattr(mods[modname], cls_name)
                original = cls.__dict__[attr]
                after = self._count_terms if name == "laurent.mul" else None
                setattr(cls, attr, self._wrap(name, original, after))
                self._undo.append((cls, attr, original))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()

    # ---- results ----

    def layer_totals(self):
        """Per span name: calls and self seconds, and the self seconds of
        alexander_skein spans that run inside the walker."""
        n = len(self.start)
        start, end, parent, name_of = (self.start, self.end, self.parent,
                                       self.name_of)
        self_s = [end[i] - start[i] for i in range(n)]
        fm = (self.names.index("sw.from_manifold")
              if "sw.from_manifold" in self.names else -2)
        in_walker = bytearray(n)
        for i in range(n):
            p = parent[i]
            if p >= 0:
                self_s[p] -= end[i] - start[i]
                in_walker[i] = in_walker[p] or name_of[p] == fm
        calls: Counter = Counter()
        seconds: Counter = Counter()
        skein_in_walker = 0.0
        for i in range(n):
            name = self.names[name_of[i]]
            calls[name] += 1
            seconds[name] += self_s[i]
            if in_walker[i] and name == "knots.alexander_skein":
                skein_in_walker += self_s[i]
        return calls, seconds, skein_in_walker

    def write(self, path) -> int:
        """Write every span; returns the count. See read() for the layout."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.names, "count": len(self.start),
                  "columns": [[col, getattr(self, col).typecode]
                              for col in COLUMNS]}
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for col in COLUMNS:
                getattr(self, col).tofile(fh)
        return len(self.start)


COLUMNS = ("name_of", "op", "parent", "start", "end")


def read(path) -> list:
    """Spans of a file that write() made, as (name, op, parent, start, end)
    tuples; span i is the i-th tuple and parent -1 means none. The file is
    gzip: one JSON header line, then each column as raw native-endian
    values."""
    with gzip.open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["count"]
        cols = []
        for _, code in header["columns"]:
            arr = array(code)
            arr.frombytes(fh.read(n * arr.itemsize))
            cols.append(arr)
    names = header["names"]
    return [(names[cols[0][i]], cols[1][i], cols[2][i], cols[3][i],
             cols[4][i]) for i in range(n)]
