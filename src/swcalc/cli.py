"""Command line interface: a line-oriented script language over the
calculator.

A script is a sequence of statements, one per line ('#' starts a comment):

    knot K = unknot | trefoil | figure8 | twist(n) | torus(p,q)
             | pretzel(q1,q2,q3) | mirror(K) | connect_sum(K1,K2)
             | table(entry) | pd: X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)
             | braid: 1 1 1
    manifold M = CP2 | CP2bar | S2xS2 | E(n) | H(m,n)
             | connected_sum(A,B) | blowup(A[,k]) | fiber_sum(A,B[,LA[,LB]])
             | torus_surgery(A,L,p,q,r) | knot_surgery(A,L,K)
             | rational_blowdown(A,p[,even|odd]) | reverse(A)
    sw S = sw(M) | elliptic(n) | blowup_formula(S,e1,e2,...)
             | knot_surgery_formula(S,K) | log_transform(S,r)
             | double_log_transform(n,r,s) | relative(S) | e1_rel | t2d2
             | glue(S1,S2) | descend(S,CFG) | e1_twist_fixture(n)
    config CFG = blowdown(p[, taut]; var: a0 a1 ... -> image; ...)
    print sw|invariants|alexander|geography NAME
    assert [not] homeo(A,B) | sw_equal(S1,S2) | sw_is(S, poly)
             | alexander_is(K, poly) | alexander_equal(K1[,K2])
    emit geography N [> path]

An argument is a name defined earlier (no nesting), an integer, a bare word
(a label such as F, an exceptional class name, even|odd) or a polynomial.
An operation checks its argument count, then its arguments left to right,
and reports the first bad one.

Exit status: 0 on success, 1 on a failed assertion (both sides are
printed), 2 on any script or evaluation error (reported with line number).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import List, Optional, Tuple

from . import __version__
from .errors import CalcError, KindError, ScriptError
from .geography import chart_rows, classify
from .knots import (
    DEFAULT_NODE_BUDGET,
    alexander_fox,
    alexander_skein,
    braid_closure,
    connect_sum,
    figure_eight,
    load_knot_table,
    mirror,
    parse_pd,
    pretzel,
    torus_knot,
    trefoil,
    twist_knot,
    unknot,
)
from .laurent import LaurentPoly, VarBasis, parse_poly
from .manifolds import (
    ManifoldDesc,
    blowup,
    connected_sum,
    cp2,
    cp2_bar,
    elliptic,
    fiber_sum,
    homeo_equal,
    horikawa,
    knot_surgery,
    rational_blowdown,
    reverse_orientation,
    s2xs2,
    torus_surgery,
)
from .sw import (
    ConfigIntersections,
    SWInvariant,
    _delta,
    blowup_formula,
    descend,
    double_log_transform,
    e1_relative,
    from_manifold,
    glue,
    knot_surgery_formula,
    log_transform,
    relative_from_closed,
    sw_e1_twist_knot,
    sw_elliptic,
    t2d2_piece,
)

__all__ = ["main", "run_script"]

_STMT_DEF = re.compile(r"^(knot|manifold|sw|config)\s+([A-Za-z_]\w*)\s*=\s*(\S.*)$")
_STMT_PRINT = re.compile(r"^print\s+(sw|invariants|alexander|geography)\s+([A-Za-z_]\w*)$")
_STMT_ASSERT = re.compile(r"^assert\s+(not\s+)?(\S.*)$")
_STMT_EMIT = re.compile(r"^emit\s+geography\s+(\d+)\s*(?:>\s*(\S+))?$")
_CALL = re.compile(r"^([A-Za-z_]\w*)\s*(?:\((.*)\))?$", re.S)
_INT = re.compile(r"^-?\d+$")
_ARG_MARKS = re.compile(r"[(),]")


def _split_args(text: str) -> List[str]:
    """Split on top-level commas (no nesting across parentheses)."""
    parts, depth, start = [], 0, 0
    for m in _ARG_MARKS.finditer(text):
        ch = m.group()
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise KindError("unbalanced parentheses")
        elif depth == 0:
            parts.append(text[start:m.start()].strip())
            start = m.end()
    if depth != 0:
        raise KindError("unbalanced parentheses")
    tail = text[start:].strip()
    if tail or parts:
        parts.append(tail)
    return parts


def _parse_call(text: str) -> Tuple[str, List[str]]:
    m = _CALL.match(text.strip())
    if not m:
        raise KindError(f"cannot parse expression {text.strip()!r}")
    head, inner = m.group(1), m.group(2)
    return head, _split_args(inner or "")


def _want_int(arg: str, what: str) -> int:
    if not _INT.match(arg):
        raise KindError(f"{what} must be an integer, got {arg!r}")
    return int(arg)


def _want_arity(op: str, args: List[str], *counts: int) -> None:
    if len(args) not in counts:
        want = " or ".join(str(c) for c in counts)
        raise KindError(f"{op} takes {want} argument(s), got {len(args)}")


# family -> op -> (argument kinds, function). A kind is a defined name of
# that kind (knot, manifold, sw, config), "int <what>", "word" (taken as
# written) or "parity" (even|odd -> 0|1); a leading "?" marks an optional
# argument, and "*word <usage>" one or more trailing words, too few of which
# is reported as "<op> takes <usage>". The function gets the interpreter and
# the converted arguments. Each is a lambda so that the swcalc function it
# calls is looked up in this module's globals at call time: a wrapper put
# there (as bench/spans.py does) then sees every call.
_OPS = {
    "knot": {
        "unknot": ((), lambda it: unknot()),
        "trefoil": ((), lambda it: trefoil()),
        "figure8": ((), lambda it: figure_eight()),
        "twist": (("int twist index",), lambda it, n: twist_knot(n)),
        "torus": (("int p", "int q"), lambda it, p, q: torus_knot(p, q)),
        "pretzel": (("int pretzel twist",) * 3,
                    lambda it, a, b, c: pretzel(a, b, c)),
        "mirror": (("knot",), lambda it, k: mirror(k)),
        "connect_sum": (("knot", "knot"), lambda it, a, b: connect_sum(a, b)),
        "table": (("word",), lambda it, entry: it._table_knot(entry)),
    },
    "manifold": {
        "CP2": ((), lambda it: cp2()),
        "CP2bar": ((), lambda it: cp2_bar()),
        "S2xS2": ((), lambda it: s2xs2()),
        "E": (("int elliptic index",), lambda it, n: elliptic(n)),
        "H": (("int m", "int n"), lambda it, m, n: horikawa(m, n)),
        "connected_sum": (("manifold", "manifold"),
                          lambda it, a, b: connected_sum(a, b)),
        "blowup": (("manifold", "?int blowup count"),
                   lambda it, a, k=1: blowup(a, k)),
        "fiber_sum": (("manifold", "manifold", "?word", "?word"),
                      lambda it, a, b, la="F", lb=None:
                      fiber_sum(a, b, la, lb)),
        "torus_surgery": (("manifold", "word")
                          + ("int surgery coefficient",) * 3,
                          lambda it, a, label, p, q, r:
                          torus_surgery(a, label, p, q, r)),
        "knot_surgery": (("manifold", "word", "knot"),
                         lambda it, a, label, k: knot_surgery(a, label, k)),
        "rational_blowdown": (("manifold", "int p", "?parity"),
                              lambda it, a, p, parity=None:
                              rational_blowdown(a, p, parity)),
        "reverse": (("manifold",), lambda it, a: reverse_orientation(a)),
    },
    "sw": {
        "sw": (("manifold",),
               lambda it, m: from_manifold(m, node_budget=it.node_budget,
                                           deltas=it._deltas)),
        "elliptic": (("int elliptic index",), lambda it, n: sw_elliptic(n)),
        "blowup_formula": (("sw", "*word a value and names"),
                           lambda it, s, *names: blowup_formula(s, names)),
        "knot_surgery_formula": (("sw", "knot"),
                                 lambda it, s, k:
                                 knot_surgery_formula(s, it._alexander(k))),
        "log_transform": (("sw", "int multiplicity"),
                          lambda it, s, r: log_transform(s, r)),
        "double_log_transform": (("int parameter",) * 3,
                                 lambda it, n, r, q:
                                 double_log_transform(n, r, q)),
        "relative": (("sw",), lambda it, s: relative_from_closed(s)),
        "e1_rel": ((), lambda it: e1_relative()),
        "t2d2": ((), lambda it: t2d2_piece()),
        "glue": (("sw", "sw"), lambda it, a, b: glue(a, b)),
        "descend": (("sw", "config"), lambda it, s, c: descend(s, c)),
        "e1_twist_fixture": (("int twist index",),
                             lambda it, n:
                             SWInvariant.closed(sw_e1_twist_knot(n))),
    },
    # an assertion gives (holds, left side, right side); the sides are
    # rendered with str() only when the assertion fails
    "assert": {
        "homeo": (("manifold", "manifold"), lambda it, a, b: _homeo(a, b)),
        "sw_equal": (("sw", "sw"),
                     lambda it, a, b: _compare(a.value(), b.value())),
        "sw_is": (("sw", "word"),
                  lambda it, s, p: _compare(s.value(), parse_poly(p))),
        "alexander_is": (("knot", "word"),
                         lambda it, k, p:
                         _compare(it._alexander(k), parse_poly(p))),
        # with one knot, the skein engine against the Fox engine
        "alexander_equal": (("knot", "?knot"),
                            lambda it, k, k2=None: _compare(
                                it._alexander(k),
                                alexander_fox(k) if k2 is None
                                else it._alexander(k2))),
    },
}

# what errors call an unknown op of each family and a name of each kind
_UNKNOWN = {"knot": "knot operation", "manifold": "manifold operation",
            "sw": "sw operation", "assert": "assertion"}
_NAMED = {"knot": "knot", "manifold": "manifold", "sw": "sw value",
          "config": "config"}


def _compare(a: LaurentPoly,
             b: LaurentPoly) -> Tuple[bool, LaurentPoly, LaurentPoly]:
    """Whether two polynomials agree over the union of their bases, and
    both polynomials."""
    union = VarBasis(tuple(sorted(set(a.basis) | set(b.basis))))
    return a.extended(union) == b.extended(union), a, b


def _homeo(a: ManifoldDesc, b: ManifoldDesc) -> Tuple[bool, str, str]:
    def side(m: ManifoldDesc) -> str:
        return f"(e={m.euler}, sigma={m.sigma}, t={m.parity})"
    return homeo_equal(a, b), side(a), side(b)


class Interpreter:
    def __init__(self, *, json_mode: bool = False,
                 node_budget: int = DEFAULT_NODE_BUDGET, out=None):
        self.json_mode = json_mode
        self.node_budget = node_budget
        self.out = out if out is not None else sys.stdout
        self.values: dict = {kind: {} for kind in _NAMED}
        self._table = None
        # Alexander polynomial of each knot diagram met in this run; a
        # diagram is a frozen dataclass, so equal diagrams share an entry
        self._deltas: dict = {}

    # ---- output ----

    def _emit(self, line: int, text: str, payload: dict) -> None:
        if self.json_mode:
            self.out.write(json.dumps({"line": line, **payload},
                                      sort_keys=True) + "\n")
        else:
            self.out.write(text + "\n")

    # ---- evaluation ----

    def _lookup(self, kind: str, name: str):
        if name not in self.values[kind]:
            raise KindError(f"{name!r} is not a defined {_NAMED[kind]}")
        return self.values[kind][name]

    def _alexander(self, knot) -> LaurentPoly:
        """The skein engine's Delta, computed once per diagram in a run and
        shared with the walker's knot-surgery nodes (sw._delta holds the
        rule). The engine is looked up here, in this module, so a wrapper
        set on swcalc.cli after import sees the call."""
        return _delta(knot, self.node_budget, self._deltas, alexander_skein)

    def _table_knot(self, entry: str):
        if self._table is None:
            self._table = load_knot_table()
        if entry not in self._table:
            raise KindError(f"no table entry named {entry!r}")
        return self._table[entry]

    def _call(self, family: str, expr: str):
        """Evaluate an op of the table: the op must exist, the argument count
        must fit, and the arguments are converted left to right, so the first
        bad one is the one reported."""
        op, args = _parse_call(expr)
        if op not in _OPS[family]:
            raise KindError(f"unknown {_UNKNOWN[family]} {op!r}")
        kinds, fn = _OPS[family][op]
        if kinds and kinds[-1].startswith("*"):
            if len(args) < len(kinds):
                raise KindError(f"{op} takes {kinds[-1].split(' ', 1)[1]}")
            kinds += kinds[-1:] * (len(args) - len(kinds))
        else:
            required = sum(not k.startswith("?") for k in kinds)
            _want_arity(op, args, *range(required, len(kinds) + 1))
        return fn(self, *(self._arg(op, kind, arg)
                          for kind, arg in zip(kinds, args)))

    def _arg(self, op: str, kind: str, arg: str):
        kind, _, what = kind.lstrip("?*").partition(" ")
        if kind == "int":
            return _want_int(arg, what)
        if kind == "word":
            return arg
        if kind == "parity":
            if arg not in ("even", "odd"):
                raise KindError(f"{op} parity must be 'even' or 'odd'")
            return 0 if arg == "even" else 1
        return self._lookup(kind, arg)

    # ---- config expressions ----

    def eval_config(self, expr: str) -> ConfigIntersections:
        expr = expr.strip()
        if not (expr.startswith("blowdown(") and expr.endswith(")")):
            raise KindError("config expression must be blowdown(...)")
        inner = expr[len("blowdown("):-1]
        sections = [s.strip() for s in inner.split(";")]
        head = _split_args(sections[0])
        if not head or not _INT.match(head[0]):
            raise KindError("blowdown config needs the integer p first")
        p = int(head[0])
        taut = False
        for extra in head[1:]:
            if extra == "taut":
                taut = True
            else:
                raise KindError(f"unknown config option {extra!r}")
        rows: dict = {}
        images: dict = {}
        for section in sections[1:]:
            if not section:
                continue
            if ":" not in section:
                raise KindError(f"config row {section!r} needs 'var: entries'")
            var, rest = section.split(":", 1)
            var = var.strip()
            if "->" in rest:
                nums, image = rest.split("->", 1)
                images[var] = _parse_image(image.strip())
            else:
                nums = rest
            entries = nums.split()
            if not entries:
                raise KindError(f"config row for {var!r} has no entries")
            rows[var] = tuple(_want_int(x, "intersection number")
                              for x in entries)
        return ConfigIntersections.make(p, rows, images, taut)

    # ---- statements ----

    def run(self, text: str) -> int:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                ok = self._statement(lineno, line)
            except ScriptError:
                raise
            except CalcError as exc:
                raise ScriptError(str(exc), lineno, 1) from exc
            if not ok:
                return 1
        return 0

    def _statement(self, lineno: int, line: str) -> bool:
        m = _STMT_DEF.match(line)
        if m:
            kind, name, expr = m.groups()
            if kind == "config":
                value = self.eval_config(expr)
            elif kind == "knot" and expr.startswith("pd:"):
                value = parse_pd(expr[3:].strip())
            elif kind == "knot" and expr.startswith("braid:"):
                word = expr[6:].split()
                if not word:
                    raise KindError("braid word is empty")
                value = braid_closure([_want_int(w, "braid letter")
                                       for w in word])
            else:
                value = self._call(kind, expr)
            self.values[kind][name] = value
            return True
        m = _STMT_PRINT.match(line)
        if m:
            self._print(lineno, m.group(1), m.group(2))
            return True
        m = _STMT_ASSERT.match(line)
        if m:
            negate = bool(m.group(1))
            return self._assert(lineno, m.group(2).strip(), negate)
        m = _STMT_EMIT.match(line)
        if m:
            self._emit_geography(lineno, int(m.group(1)), m.group(2))
            return True
        raise ScriptError(f"cannot parse statement {line!r}", lineno, 1)

    def _print(self, lineno: int, what: str, name: str) -> None:
        if what == "sw":
            s = self._lookup("sw", name)
            value = str(s)
            self._emit(lineno, f"basis: {' '.join(s.basis)} | SW: {value}", {
                "print": "sw", "name": name, "basis": list(s.basis),
                "kind": s.kind, "value": value})
            return
        if what == "invariants":
            desc = self._lookup("manifold", name)
            inv, labels = desc.invariants, desc.labels
            lab_text = " ".join(
                f"{k}(g={v.genus},sq={v.self_int}"
                + (",char)" if v.characteristic else ")")
                for k, v in labels)
            text = (f"e={inv.euler} sigma={inv.sigma} b+={inv.b_plus} "
                    f"b-={inv.b_minus} chi_h={inv.chi_h} c={inv.c} "
                    f"t={inv.parity} spin={'yes' if inv.spin else 'no'}")
            if lab_text:
                text += f" | labels: {lab_text}"
            self._emit(lineno, text, {
                "print": "invariants", "name": name, "e": inv.euler,
                "sigma": inv.sigma, "b_plus": inv.b_plus,
                "b_minus": inv.b_minus, "chi_h": str(inv.chi_h), "c": inv.c,
                "t": inv.parity, "spin": inv.spin,
                "labels": {k: {"genus": v.genus, "self_int": v.self_int,
                               "characteristic": v.characteristic}
                           for k, v in labels}})
            return
        if what == "alexander":
            value = str(self._alexander(self._lookup("knot", name)))
            self._emit(lineno, f"Delta: {value}", {
                "print": "alexander", "name": name, "value": value})
            return
        desc = self._lookup("manifold", name)
        chi = desc.chi_h
        if not isinstance(chi, int):
            raise KindError(
                f"geography needs integer chi_h, {name} has {chi}")
        tags = classify(chi, desc.c)
        self._emit(lineno,
                   f"chi_h={chi} c={desc.c} tags: {','.join(tags)}", {
                       "print": "geography", "name": name, "chi_h": chi,
                       "c": desc.c, "tags": list(tags)})

    def _assert(self, lineno: int, pred: str, negate: bool) -> bool:
        got, left, right = self._call("assert", pred)
        wanted = not got if negate else got
        shown = f"assert {'not ' if negate else ''}{pred}"
        if wanted:
            self._emit(lineno, f"ok: {shown}", {
                "assert": pred, "negated": negate, "ok": True})
            return True
        left, right = str(left), str(right)
        self._emit(lineno, f"FAILED: {shown}\n  left:  {left}\n"
                   f"  right: {right}", {
                       "assert": pred, "negated": negate, "ok": False,
                       "left": left, "right": right})
        return False

    def _emit_geography(self, lineno: int, max_chi: int,
                        path: Optional[str]) -> None:
        rows = list(chart_rows(max_chi))
        if path:
            try:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write("\n".join(rows) + "\n")
            except OSError as exc:
                raise ScriptError(str(exc), lineno, 1) from exc
            self._emit(lineno, f"wrote {len(rows)} rows to {path}", {
                "emit": "geography", "max_chi": max_chi, "rows": len(rows),
                "path": path})
        elif self.json_mode:
            self._emit(lineno, "", {
                "emit": "geography", "max_chi": max_chi,
                "rows": len(rows), "data": rows})
        else:
            for row in rows:
                self.out.write(row + "\n")


def _parse_image(text: str) -> Tuple[str, Fraction]:
    """An image monomial like t, t^2 or t^(1/2) -> (variable, multiplier)."""
    poly = parse_poly(text)
    terms = poly.terms()
    if len(terms) != 1 or terms[0][1] != 1 or len(terms[0][0]) != 1:
        raise KindError(f"image {text!r} must be a single plain power")
    (var, exp), = terms[0][0].items()
    return var, Fraction(exp)


def run_script(text: str, *, json_mode: bool = False,
               node_budget: int = DEFAULT_NODE_BUDGET, out=None) -> int:
    """Execute script text; returns the process exit status (0, 1 or 2
    semantics are the caller's to map -- errors raise ScriptError)."""
    return Interpreter(json_mode=json_mode, node_budget=node_budget,
                       out=out).run(text)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="swcalc",
        description="symbolic calculator for simply connected 4-manifolds")
    parser.add_argument("script", nargs="?", default="-",
                        help="script file, or - for stdin (default)")
    parser.add_argument("--json", action="store_true",
                        help="emit one JSON object per output line")
    parser.add_argument("--node-budget", type=int,
                        default=DEFAULT_NODE_BUDGET, metavar="N",
                        help="skein evaluation node budget")
    parser.add_argument("--version", action="store_true",
                        help="print the version and exit")
    args = parser.parse_args(argv)
    if args.version:
        print(__version__)
        return 0
    if args.node_budget < 1:
        parser.error("--node-budget must be >= 1")
    if args.script == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.script, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        return run_script(text, json_mode=args.json,
                          node_budget=args.node_budget)
    except ScriptError as exc:
        line = exc.line if exc.line is not None else 0
        col = exc.col if exc.col is not None else 1
        print(f"error (line {line}, col {col}): {exc}", file=sys.stderr)
        return 2
    except CalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # last resort for the exit contract: a defect (such as the recursion
        # limit on a deep build tree) is an error, not a failed assert
        print(f"error: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2
