"""Command line interface: a line-oriented script language over the
calculator.

A script is a sequence of statements, one per line ('#' starts a comment):

    knot K = trefoil | figure8 | unknot | twist(n) | torus(p,q)
             | pretzel(q1,q2,q3) | mirror(K) | connect_sum(K1,K2)
             | table(entry) | pd: X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)
             | braid: 1 1 1
    manifold M = CP2 | CP2bar | S2xS2 | E(n) | H(m,n)
             | connected_sum(A,B) | blowup(A,k) | fiber_sum(A,B[,LA[,LB]])
             | torus_surgery(A,L,p,q,r) | knot_surgery(A,L,K)
             | rational_blowdown(A,p[,even|odd]) | reverse(A)
    sw S = sw(M) | elliptic(n) | blowup_formula(S,e1,...)
             | knot_surgery_formula(S,K) | log_transform(S,r)
             | double_log_transform(n,r,s) | relative(S) | e1_rel | t2d2
             | glue(S1,S2) | descend(S,CFG) | e1_twist_fixture(n)
    config CFG = blowdown(p[, taut]; var: a0 a1 ... -> image; ...)
    print sw|invariants|alexander|geography NAME
    assert [not] homeo(A,B) | sw_equal(S1,S2) | sw_is(S, poly)
             | alexander_is(K, poly) | alexander_equal(K1[,K2])
    emit geography N [> path]

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


def _split_args(text: str) -> List[str]:
    """Split on top-level commas (no nesting across parentheses)."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise KindError("unbalanced parentheses")
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise KindError("unbalanced parentheses")
    tail = "".join(cur).strip()
    if tail or parts:
        parts.append(tail)
    return parts


def _parse_call(text: str) -> Tuple[str, List[str]]:
    m = _CALL.match(text.strip())
    if not m:
        raise KindError(f"cannot parse expression {text.strip()!r}")
    head, inner = m.group(1), m.group(2)
    if inner is None:
        return head, []
    args = _split_args(inner)
    if args == [""]:
        args = []
    return head, args


def _want_int(arg: str, what: str) -> int:
    if not _INT.match(arg):
        raise KindError(f"{what} must be an integer, got {arg!r}")
    return int(arg)


def _want_arity(op: str, args: List[str], *counts: int) -> None:
    if len(args) not in counts:
        want = " or ".join(str(c) for c in counts)
        raise KindError(f"{op} takes {want} argument(s), got {len(args)}")


class Interpreter:
    def __init__(self, *, json_mode: bool = False,
                 node_budget: int = DEFAULT_NODE_BUDGET, out=None):
        self.json_mode = json_mode
        self.node_budget = node_budget
        self.out = out if out is not None else sys.stdout
        self.knots: dict = {}
        self.manifolds: dict = {}
        self.sws: dict = {}
        self.configs: dict = {}
        self._table = None

    # ---- output ----

    def _emit(self, line: int, text: str, payload: dict) -> None:
        if self.json_mode:
            self.out.write(json.dumps({"line": line, **payload},
                                      sort_keys=True) + "\n")
        else:
            self.out.write(text + "\n")

    # ---- name lookups ----

    def _knot(self, name: str):
        if name not in self.knots:
            raise KindError(f"{name!r} is not a defined knot")
        return self.knots[name]

    def _manifold(self, name: str) -> ManifoldDesc:
        if name not in self.manifolds:
            raise KindError(f"{name!r} is not a defined manifold")
        return self.manifolds[name]

    def _sw(self, name: str) -> SWInvariant:
        if name not in self.sws:
            raise KindError(f"{name!r} is not a defined sw value")
        return self.sws[name]

    def _config(self, name: str) -> ConfigIntersections:
        if name not in self.configs:
            raise KindError(f"{name!r} is not a defined config")
        return self.configs[name]

    # ---- knot expressions ----

    def eval_knot(self, expr: str):
        expr = expr.strip()
        if expr.startswith("pd:"):
            return parse_pd(expr[3:].strip())
        if expr.startswith("braid:"):
            word = expr[6:].split()
            if not word:
                raise KindError("braid word is empty")
            return braid_closure([_want_int(w, "braid letter") for w in word])
        op, args = _parse_call(expr)
        if op == "unknot":
            _want_arity(op, args, 0)
            return unknot()
        if op == "trefoil":
            _want_arity(op, args, 0)
            return trefoil()
        if op == "figure8":
            _want_arity(op, args, 0)
            return figure_eight()
        if op == "twist":
            _want_arity(op, args, 1)
            return twist_knot(_want_int(args[0], "twist index"))
        if op == "torus":
            _want_arity(op, args, 2)
            return torus_knot(_want_int(args[0], "p"), _want_int(args[1], "q"))
        if op == "pretzel":
            _want_arity(op, args, 3)
            return pretzel(*(_want_int(a, "pretzel twist") for a in args))
        if op == "mirror":
            _want_arity(op, args, 1)
            return mirror(self._knot(args[0]))
        if op == "connect_sum":
            _want_arity(op, args, 2)
            return connect_sum(self._knot(args[0]), self._knot(args[1]))
        if op == "table":
            _want_arity(op, args, 1)
            if self._table is None:
                self._table = load_knot_table()
            if args[0] not in self._table:
                raise KindError(f"no table entry named {args[0]!r}")
            return self._table[args[0]]
        raise KindError(f"unknown knot operation {op!r}")

    # ---- manifold expressions ----

    def eval_manifold(self, expr: str) -> ManifoldDesc:
        op, args = _parse_call(expr)
        if op == "CP2":
            _want_arity(op, args, 0)
            return cp2()
        if op == "CP2bar":
            _want_arity(op, args, 0)
            return cp2_bar()
        if op == "S2xS2":
            _want_arity(op, args, 0)
            return s2xs2()
        if op == "E":
            _want_arity(op, args, 1)
            return elliptic(_want_int(args[0], "elliptic index"))
        if op == "H":
            _want_arity(op, args, 2)
            return horikawa(_want_int(args[0], "m"), _want_int(args[1], "n"))
        if op == "connected_sum":
            _want_arity(op, args, 2)
            return connected_sum(self._manifold(args[0]),
                                 self._manifold(args[1]))
        if op == "blowup":
            _want_arity(op, args, 1, 2)
            k = _want_int(args[1], "blowup count") if len(args) == 2 else 1
            return blowup(self._manifold(args[0]), k)
        if op == "fiber_sum":
            _want_arity(op, args, 2, 3, 4)
            la = args[2] if len(args) >= 3 else "F"
            lb = args[3] if len(args) == 4 else None
            return fiber_sum(self._manifold(args[0]), self._manifold(args[1]),
                             la, lb)
        if op == "torus_surgery":
            _want_arity(op, args, 5)
            return torus_surgery(self._manifold(args[0]), args[1],
                                 *(_want_int(a, "surgery coefficient")
                                   for a in args[2:]))
        if op == "knot_surgery":
            _want_arity(op, args, 3)
            return knot_surgery(self._manifold(args[0]), args[1],
                                self._knot(args[2]))
        if op == "rational_blowdown":
            _want_arity(op, args, 2, 3)
            parity = None
            if len(args) == 3:
                if args[2] not in ("even", "odd"):
                    raise KindError(
                        "rational_blowdown parity must be 'even' or 'odd'")
                parity = 0 if args[2] == "even" else 1
            return rational_blowdown(self._manifold(args[0]),
                                     _want_int(args[1], "p"), parity)
        if op == "reverse":
            _want_arity(op, args, 1)
            return reverse_orientation(self._manifold(args[0]))
        raise KindError(f"unknown manifold operation {op!r}")

    # ---- sw expressions ----

    def eval_sw(self, expr: str) -> SWInvariant:
        op, args = _parse_call(expr)
        if op == "sw":
            _want_arity(op, args, 1)
            return from_manifold(self._manifold(args[0]),
                                 node_budget=self.node_budget)
        if op == "elliptic":
            _want_arity(op, args, 1)
            return sw_elliptic(_want_int(args[0], "elliptic index"))
        if op == "blowup_formula":
            if len(args) < 2:
                raise KindError("blowup_formula takes a value and names")
            return blowup_formula(self._sw(args[0]), args[1:])
        if op == "knot_surgery_formula":
            _want_arity(op, args, 2)
            delta = alexander_skein(self._knot(args[1]),
                                    node_budget=self.node_budget)
            return knot_surgery_formula(self._sw(args[0]), delta)
        if op == "log_transform":
            _want_arity(op, args, 2)
            return log_transform(self._sw(args[0]),
                                 _want_int(args[1], "multiplicity"))
        if op == "double_log_transform":
            _want_arity(op, args, 3)
            return double_log_transform(*(_want_int(a, "parameter")
                                          for a in args))
        if op == "relative":
            _want_arity(op, args, 1)
            return relative_from_closed(self._sw(args[0]))
        if op == "e1_rel":
            _want_arity(op, args, 0)
            return e1_relative()
        if op == "t2d2":
            _want_arity(op, args, 0)
            return t2d2_piece()
        if op == "glue":
            _want_arity(op, args, 2)
            return glue(self._sw(args[0]), self._sw(args[1]))
        if op == "descend":
            _want_arity(op, args, 2)
            return descend(self._sw(args[0]), self._config(args[1]))
        if op == "e1_twist_fixture":
            _want_arity(op, args, 1)
            return SWInvariant.closed(
                sw_e1_twist_knot(_want_int(args[0], "twist index")))
        raise KindError(f"unknown sw operation {op!r}")

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
            if kind == "knot":
                self.knots[name] = self.eval_knot(expr)
            elif kind == "manifold":
                self.manifolds[name] = self.eval_manifold(expr)
            elif kind == "sw":
                self.sws[name] = self.eval_sw(expr)
            else:
                self.configs[name] = self.eval_config(expr)
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
            s = self._sw(name)
            basis = " ".join(s.basis)
            if s.is_reduced():
                text = f"basis: {basis} | SW: {s.num}"
            else:
                text = f"basis: {basis} | SW: ({s.num}) / ({s.den})"
            self._emit(lineno, text, {
                "print": "sw", "name": name, "basis": list(s.basis),
                "kind": s.kind, "value": str(s)})
            return
        if what == "invariants":
            inv = self._manifold(name).invariants
            labels = self._manifold(name).labels
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
            delta = alexander_skein(self._knot(name),
                                    node_budget=self.node_budget)
            self._emit(lineno, f"Delta: {delta}", {
                "print": "alexander", "name": name, "value": str(delta)})
            return
        desc = self._manifold(name)
        chi = desc.chi_h
        if not isinstance(chi, int):
            raise KindError(
                f"geography needs integer chi_h, {name} has {chi}")
        tags = classify(chi, desc.c)
        self._emit(lineno,
                   f"chi_h={chi} c={desc.c} tags: {','.join(tags)}", {
                       "print": "geography", "name": name, "chi_h": chi,
                       "c": desc.c, "tags": list(tags)})

    def _poly_from_text(self, text: str) -> LaurentPoly:
        return parse_poly(text.strip())

    @staticmethod
    def _same_poly(a: LaurentPoly, b: LaurentPoly) -> bool:
        union = VarBasis(tuple(sorted(set(a.basis) | set(b.basis))))
        return a.extended(union) == b.extended(union)

    def _assert(self, lineno: int, pred: str, negate: bool) -> bool:
        op, args = _parse_call(pred)
        if op == "homeo":
            _want_arity(op, args, 2)
            a, b = self._manifold(args[0]), self._manifold(args[1])
            got = homeo_equal(a, b)
            left = f"(e={a.euler}, sigma={a.sigma}, t={a.parity})"
            right = f"(e={b.euler}, sigma={b.sigma}, t={b.parity})"
        elif op == "sw_equal":
            _want_arity(op, args, 2)
            va, vb = self._sw(args[0]).value(), self._sw(args[1]).value()
            got = self._same_poly(va, vb)
            left, right = str(va), str(vb)
        elif op == "sw_is":
            _want_arity(op, args, 2)
            va = self._sw(args[0]).value()
            vb = self._poly_from_text(args[1])
            got = self._same_poly(va, vb)
            left, right = str(va), str(vb)
        elif op == "alexander_is":
            _want_arity(op, args, 2)
            va = alexander_skein(self._knot(args[0]),
                                 node_budget=self.node_budget)
            vb = self._poly_from_text(args[1])
            got = self._same_poly(va, vb)
            left, right = str(va), str(vb)
        elif op == "alexander_equal":
            _want_arity(op, args, 1, 2)
            if len(args) == 2:
                va = alexander_skein(self._knot(args[0]),
                                     node_budget=self.node_budget)
                vb = alexander_skein(self._knot(args[1]),
                                     node_budget=self.node_budget)
            else:
                va = alexander_skein(self._knot(args[0]),
                                     node_budget=self.node_budget)
                vb = alexander_fox(self._knot(args[0]))
            got = self._same_poly(va, vb)
            left, right = str(va), str(vb)
        else:
            raise KindError(f"unknown assertion {op!r}")
        wanted = not got if negate else got
        shown = f"assert {'not ' if negate else ''}{pred}"
        if wanted:
            self._emit(lineno, f"ok: {shown}", {
                "assert": pred, "negated": negate, "ok": True})
            return True
        self._emit(lineno, f"FAILED: {shown}\n  left:  {left}\n"
                   f"  right: {right}", {
                       "assert": pred, "negated": negate, "ok": False,
                       "left": left, "right": right})
        return False

    def _emit_geography(self, lineno: int, max_chi: int,
                        path: Optional[str]) -> None:
        rows = list(chart_rows(max_chi))
        if path:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(rows) + "\n")
            self._emit(lineno, f"wrote {len(rows)} rows to {path}", {
                "emit": "geography", "max_chi": max_chi, "rows": len(rows),
                "path": path})
        else:
            if self.json_mode:
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
