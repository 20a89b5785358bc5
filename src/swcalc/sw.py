"""Seiberg-Witten invariants as exact Laurent data, plus the transformation
formulas that drive them through the surgery operations.

A closed invariant is a Laurent polynomial: each monomial is a basic class
(its exponent vector, over the fiber variable t and any exceptional-sphere
variables), the coefficient its value. Relative invariants of fiber-sum
pieces are stored as exact numerator/denominator pairs; gluing multiplies
the pairs and reduces by exact division, so a wrong gluing surfaces as a
division error instead of a silently wrong polynomial. The walker over
build trees (from_manifold) keeps each value as a polynomial in t times one
in the exceptional classes, and expands the product once.

Regime notes: closed invariants here live at b+ > 1 with simple type.
b+ = 1 needs a chamber; the only b+ = 1 data shipped are the truncated
chamber series for E(1) and the twist-knot fixture, both explicit about
their windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Tuple

from .errors import (
    BasisMismatch,
    ChamberMismatch,
    InexactDivision,
    InvalidParameters,
    KindError,
    MissingIntersectionData,
    NonIntegralDimension,
    NotSymmetric,
    NotTaut,
    RegimeError,
    ResourceLimit,
    SimpleTypeRequired,
    UnsupportedForSW,
)
from .knots import DEFAULT_NODE_BUDGET, alexander_skein
from .laurent import LaurentPoly, VarBasis, exact_div, is_symmetric
from .manifolds import CharInvariants, ManifoldDesc

__all__ = [
    "SWInvariant",
    "T_BASIS",
    "sw_elliptic",
    "relative_from_closed",
    "e1_relative",
    "t2d2_piece",
    "glue",
    "blowup_formula",
    "knot_surgery_formula",
    "log_transform",
    "double_log_transform",
    "mms_combine",
    "wall_crossing_delta",
    "ChamberedSeries",
    "chamber_series_e1",
    "sw_e1_twist_knot",
    "count_basic_classes",
    "sw_dimension",
    "adjunction_check",
    "ConfigIntersections",
    "standard_blowdown_rows",
    "descend",
    "from_manifold",
]

T_BASIS = VarBasis(("t",))

# the blowup formula doubles the term count per new class; refuse products
# past this many numerator terms instead of exhausting memory
MAX_BLOWUP_TERMS = 1 << 18


def _t_poly(pairs) -> LaurentPoly:
    """Laurent polynomial in t from (exponent, coefficient) pairs with
    distinct integer exponents, as every caller passes."""
    return LaurentPoly._make(T_BASIS, {(2 * e,): c for e, c in pairs})


_NECK = _t_poly([(-1, 1), (1, -1)])  # t^-1 - t, the fiber complement's neck


def _bracket_power(k: int, m: int) -> LaurentPoly:
    """(t^k - t^-k)^m as its binomial terms (-1)^j C(m, j) t^(k(m - 2j))."""
    return _t_poly([(k * (m - 2 * j), (-1) ** j * math.comb(m, j))
                    for j in range(m + 1)])


def _spread(r: int, k: int = 1) -> LaurentPoly:
    """t^(k(r-1)) + t^(k(r-3)) + ... + t^(-k(r-1)), the r-term spread."""
    return _t_poly([(k * (r - 1 - 2 * j), 1) for j in range(r)])


@dataclass(frozen=True)
class SWInvariant:
    """An exact Seiberg-Witten value: numerator/denominator pair plus kind.

    kind is "closed" or "relative". simple_type records that every basic
    class has dimension zero, which the blowup formula needs.
    """

    num: LaurentPoly
    den: LaurentPoly
    kind: str = "closed"
    simple_type: bool = True

    def __post_init__(self):
        if self.kind not in ("closed", "relative"):
            raise KindError(f"unknown invariant kind {self.kind!r}")
        if self.num.basis != self.den.basis:
            raise BasisMismatch("numerator and denominator bases differ")
        if self.den.is_zero():
            raise InvalidParameters("denominator must be nonzero")

    @classmethod
    def closed(cls, poly: LaurentPoly, simple_type: bool = True) -> "SWInvariant":
        return cls(poly, LaurentPoly.one(poly.basis), "closed", simple_type)

    @classmethod
    def relative(cls, num: LaurentPoly,
                 den: Optional[LaurentPoly] = None) -> "SWInvariant":
        if den is None:
            den = LaurentPoly.one(num.basis)
        return cls(num, den, "relative")

    @property
    def basis(self) -> VarBasis:
        return self.num.basis

    def is_reduced(self) -> bool:
        return self.den.is_one()

    def reduced(self) -> "SWInvariant":
        """Divide out the denominator; raises InexactDivision if it cannot."""
        if self.den.is_one():
            return self
        q = exact_div(self.num, self.den)
        return SWInvariant(q, LaurentPoly.one(self.basis), self.kind,
                           self.simple_type)

    def reduced_if_exact(self) -> "SWInvariant":
        """The reduced invariant when the denominator divides exactly, else
        self (the pair is kept)."""
        try:
            return self.reduced()
        except InexactDivision:
            return self

    def value(self) -> LaurentPoly:
        """The invariant as a single polynomial (reducing if needed)."""
        return self.reduced().num

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def scaled(self, factor: LaurentPoly) -> "SWInvariant":
        if factor.basis != self.basis:
            raise BasisMismatch("factor basis differs from invariant basis")
        return SWInvariant(self.num * factor, self.den, self.kind,
                           self.simple_type)

    def extended(self, basis: VarBasis) -> "SWInvariant":
        return SWInvariant(self.num.extended(basis), self.den.extended(basis),
                           self.kind, self.simple_type)

    def __str__(self) -> str:
        if self.den.is_one():
            return str(self.num)
        return f"({self.num}) / ({self.den})"


def sw_elliptic(n: int) -> SWInvariant:
    """SW(E(n)) = (t - t^-1)^(n-2) for n >= 2, built from its binomial terms.

    E(1) has b+ = 1 and no chamber-free value; see chamber_series_e1.
    """
    if n < 1:
        raise InvalidParameters("elliptic surfaces E(n) need n >= 1")
    if n == 1:
        raise RegimeError(
            "E(1) has b+ = 1; its invariant is chamber-dependent "
            "(use chamber_series_e1)")
    return SWInvariant.closed(_bracket_power(1, n - 2))


def relative_from_closed(sw: SWInvariant) -> SWInvariant:
    """Relative value of the fiber complement: multiply by t^-1 - t."""
    if sw.kind != "closed":
        raise KindError("relative_from_closed takes a closed invariant")
    return SWInvariant(sw.num * _NECK.extended(sw.basis), sw.den, "relative",
                       sw.simple_type)


def e1_relative() -> SWInvariant:
    """Seeded relative value of E(1) minus a fiber neighborhood: -1."""
    return SWInvariant.relative(LaurentPoly.constant(T_BASIS, -1))


def t2d2_piece() -> SWInvariant:
    """The trivial fiber neighborhood T^2 x D^2 as the pair 1 / (t^-1 - t).

    Gluing it onto a relative complement value returns the closed invariant.
    """
    return SWInvariant.relative(LaurentPoly.one(T_BASIS), _NECK)


def glue(a: SWInvariant, b: SWInvariant,
         result_kind: str = "closed") -> SWInvariant:
    """Glue two relative pieces: multiply the pairs, then reduce.

    A closed result must reduce to a polynomial; the division error
    propagates if it does not.
    """
    if a.kind != "relative" or b.kind != "relative":
        raise KindError("glue takes two relative invariants")
    if a.basis != b.basis:
        common = VarBasis(tuple(sorted(set(a.basis) | set(b.basis))))
        a = a.extended(common)
        b = b.extended(common)
    out = SWInvariant(a.num * b.num, a.den * b.den, result_kind,
                      a.simple_type and b.simple_type)
    if result_kind == "closed":
        return out.reduced()
    return out.reduced_if_exact()


def blowup_formula(sw: SWInvariant, names: Sequence[str]) -> SWInvariant:
    """Multiply by prod (e_i + e_i^-1) over fresh exceptional variables.
    On a walker pair (sw, classes) it multiplies classes and checks both."""
    split = not isinstance(sw, SWInvariant)
    part, classes = sw if split else (sw, _NO_CLASSES)
    if not part.simple_type:
        raise SimpleTypeRequired("the blowup formula needs simple type")
    if not names:
        raise InvalidParameters("blowup formula needs at least one new class")
    if len(set(names)) != len(names):
        raise InvalidParameters("exceptional class names must be distinct")
    for name in names:
        if name in part.basis or name in classes.basis:
            raise InvalidParameters(
                f"exceptional class {name!r} already tracked")
    terms = len(part.num) * len(classes) << len(names)
    if terms > MAX_BLOWUP_TERMS:
        raise ResourceLimit(
            f"blowup formula would produce {terms} terms "
            f"(limit {MAX_BLOWUP_TERMS})")
    basis = VarBasis(tuple(sorted(set(classes.basis) | set(names))))
    factor = classes.extended(basis)
    for name in names:
        v = LaurentPoly.variable(basis, name)
        factor = factor * (v + v.invert_variables([name]))
    if split:
        return part, factor
    basis = VarBasis(tuple(sorted(set(part.basis) | set(names))))
    return part.extended(basis).scaled(factor.extended(basis))


def knot_surgery_formula(sw: SWInvariant, delta: LaurentPoly) -> SWInvariant:
    """Knot surgery on the fiber torus: multiply by Delta(t^2), where t is
    the fiber class.

    delta must be a symmetric Laurent polynomial in t alone with
    |Delta(1)| = 1 (the knot condition).
    """
    if delta.basis != T_BASIS:
        raise InvalidParameters("Alexander polynomial must be univariate in 't'")
    if not is_symmetric(delta):
        raise NotSymmetric(f"{delta} is not symmetric under t -> 1/t")
    if abs(delta.eval_at_one()) != 1:
        raise InvalidParameters(
            f"|Delta(1)| = {abs(delta.eval_at_one())}, not 1: not a knot "
            f"polynomial")
    return sw.scaled(delta.substitute_power("t", 2).extended(sw.basis))


def log_transform(sw: SWInvariant, r: int) -> SWInvariant:
    """Single logarithmic transform of multiplicity r on the fiber torus t:

        SW -> SW(t^r) * (t^(r-1) + t^(r-3) + ... + t^(1-r)).

    The spread is written down as its r terms, and a pair is reduced when
    it divides exactly. r = 0 kills the invariant. Composing two transforms
    on the same torus is not this formula twice; use double_log_transform.
    """
    if r < 0:
        raise InvalidParameters("multiplicity r must be >= 0")
    if "t" not in sw.basis:
        raise InvalidParameters("no tracked class named 't'")
    if r == 0:
        return SWInvariant(LaurentPoly.zero(sw.basis),
                           LaurentPoly.one(sw.basis), sw.kind, sw.simple_type)
    num = sw.num.substitute_power("t", r) * _spread(r).extended(sw.basis)
    den = sw.den.substitute_power("t", r)
    return SWInvariant(num, den, sw.kind, sw.simple_type).reduced_if_exact()


def double_log_transform(n: int, r: int, s: int) -> SWInvariant:
    """SW of the elliptic surface E(n) with two multiple fibers r, s:

        (t^(rs) - t^(-rs))^n / ((t^r - t^(-r)) (t^s - t^(-s)))

    for coprime r, s and n >= 2. Dividing t^(rs) - t^(-rs) by t^r - t^(-r)
    leaves the geometric sum t^(r(s-1)) + t^(r(s-3)) + ... + t^(-r(s-1)),
    so the value is (t^(rs) - t^(-rs))^(n-2) times two such sums, built
    term by term with no division.
    """
    if n < 2:
        raise InvalidParameters("double transform formula needs n >= 2")
    if r < 1 or s < 1:
        raise InvalidParameters("multiplicities must be >= 1")
    if math.gcd(r, s) != 1:
        raise InvalidParameters("multiplicities must be coprime")
    return SWInvariant.closed(_bracket_power(r * s, n - 2) * _spread(s, r)
                              * _spread(r, s))


def mms_combine(p: int, q: int, r: int, sw_p: SWInvariant, sw_q: SWInvariant,
                sw_r: SWInvariant) -> SWInvariant:
    """Surgery-coefficient linear combination p*A + q*B + r*C of closed
    invariants (the internal sum rule for torus surgeries)."""
    parts = (sw_p, sw_q, sw_r)
    for part in parts:
        if part.kind != "closed":
            raise KindError("mms_combine takes closed invariants")
    basis = VarBasis(tuple(sorted(set().union(*(x.basis for x in parts)))))
    total = LaurentPoly.zero(basis)
    for mult, part in zip((p, q, r), parts):
        term = part.value().extended(basis)
        total = total + term * mult
    return SWInvariant.closed(total, all(x.simple_type for x in parts))


def wall_crossing_delta(dimension: int) -> int:
    """Jump of a b+ = 1 invariant across the wall on a class of even
    nonnegative expected dimension d: (-1)^(1 + d/2)."""
    if dimension < 0 or dimension % 2 != 0:
        raise InvalidParameters(
            f"wall crossing needs an even nonnegative dimension, got "
            f"{dimension}")
    return (-1) ** (1 + dimension // 2)


@dataclass(frozen=True)
class ChamberedSeries:
    """A truncated b+ = 1 invariant: chamber tag plus the window of
    exponents on which the truncation is complete (|exponent| <= window)."""

    chamber: str
    window: int
    poly: LaurentPoly

    def __post_init__(self):
        if self.chamber not in ("plus", "minus"):
            raise InvalidParameters("chamber must be 'plus' or 'minus'")

    def scaled_by(self, factor: LaurentPoly) -> "ChamberedSeries":
        """Multiply by a polynomial; the complete window shrinks by the
        factor's exponent spread."""
        if factor.basis != self.poly.basis:
            raise BasisMismatch("factor basis differs from series basis")
        spread = 0
        for name in factor.basis:
            lo = factor.min_exponent(name)
            hi = factor.max_exponent(name)
            if lo is not None:
                spread = max(spread, abs(lo), abs(hi))
        return ChamberedSeries(self.chamber, self.window - spread,
                               self.poly * factor)

    def difference(self, other: "ChamberedSeries") -> "ChamberedSeries":
        """Subtract a series in the same chamber, keeping the smaller window."""
        if self.chamber != other.chamber:
            raise ChamberMismatch(
                f"cannot combine {self.chamber} and {other.chamber} chamber "
                f"values")
        return ChamberedSeries(self.chamber,
                               min(self.window, other.window),
                               self.poly - other.poly)

    def restricted(self, var: str = "t") -> LaurentPoly:
        """Drop every term outside the complete window."""
        kept = [(exps, coeff) for exps, coeff in self.poly.terms()
                if abs(exps.get(var, 0)) <= self.window]
        return LaurentPoly.from_terms(self.poly.basis, kept)


def chamber_series_e1(n_terms: int) -> Tuple[ChamberedSeries, ChamberedSeries]:
    """Truncated chamber pair for E(1):

        minus chamber: t + t^3 + t^5 + ...
        plus chamber: -t^-1 - t^-3 - t^-5 - ...

    Each truncation keeps n_terms terms and is complete on
    |exponent| <= 2 n_terms.
    """
    if n_terms < 1:
        raise InvalidParameters("need at least one term")
    minus = _t_poly([(2 * m + 1, 1) for m in range(n_terms)])
    plus = _t_poly([(-(2 * m + 1), -1) for m in range(n_terms)])
    window = 2 * n_terms
    return (ChamberedSeries("minus", window, minus),
            ChamberedSeries("plus", window, plus))


def sw_e1_twist_knot(n: int) -> LaurentPoly:
    """Fixture: the small-class part of the minus-chamber invariant of E(1)
    knot-surgered along the n-th twist knot, relative to E(1) itself:
    -n t + n t^-1.

    The value satisfies the published consistency checks (zero at t = 1,
    odd symmetry matching (-1)^chi_h with chi_h = 1, wall-crossing jump -1
    on every class in the window); the tests derive it independently from
    the chamber series and the surgery factor.
    """
    if n < 1:
        raise InvalidParameters("twist knots are indexed by n >= 1")
    return _t_poly([(1, -n), (-1, n)])


def count_basic_classes(sw: SWInvariant) -> int:
    return len(sw.value().support())


def sw_dimension(k_square: int, inv: CharInvariants) -> int:
    """Expected dimension (k^2 - c) / 4 of the class with square k_square."""
    d = Fraction(k_square - inv.c, 4)
    if d.denominator != 1:
        raise NonIntegralDimension(
            f"(k^2 - c)/4 = {d} is not an integer: not a characteristic "
            f"square")
    return int(d)


def adjunction_check(genus: int, self_int: int, pairing: int) -> bool:
    """2g - 2 >= [Sigma]^2 + |k . [Sigma]| for an essential surface of
    positive genus against a basic class."""
    if genus < 1:
        raise InvalidParameters(
            "the adjunction bound applies to genus >= 1 surfaces")
    return 2 * genus - 2 >= self_int + abs(pairing)


# ---- rational blowdown descent ----

@dataclass(frozen=True)
class ConfigIntersections:
    """Intersection data of SW variables against the blowdown configuration
    spheres U_0 .. U_(p-2), plus where each variable descends.

    rows maps a variable name to its p-1 pairings. images maps a variable
    name to (target variable, exponent multiplier); unmapped variables
    descend to themselves. taut switches to the short rule that only looks
    at the U_0 pairing.
    """

    p: int
    rows: tuple
    images: tuple = ()
    taut: bool = False

    def __post_init__(self):
        if self.p < 2:
            raise InvalidParameters("blowdown configurations need p >= 2")
        for name, row in self.rows:
            if len(row) != self.p - 1:
                raise InvalidParameters(
                    f"row for {name!r} has {len(row)} entries, configuration "
                    f"needs {self.p - 1}")

    @classmethod
    def make(cls, p: int, rows: Mapping[str, Sequence[int]],
             images: Optional[Mapping[str, Tuple[str, Fraction]]] = None,
             taut: bool = False) -> "ConfigIntersections":
        row_t = tuple(sorted((k, tuple(v)) for k, v in rows.items()))
        img_t = tuple(sorted((k, (tv, Fraction(m)))
                             for k, (tv, m) in (images or {}).items()))
        return cls(p, row_t, img_t, taut)

    def row(self, name: str) -> tuple:
        for key, vec in self.rows:
            if key == name:
                return vec
        raise MissingIntersectionData(
            f"no intersection row for tracked class {name!r}")

    def image(self, name: str) -> Tuple[str, Fraction]:
        for key, val in self.images:
            if key == name:
                return val
        return (name, Fraction(1))


def standard_blowdown_rows(p: int) -> dict:
    """Pairings of the exceptional classes e1 .. e(p-1) against the
    standard configuration U_0 = F - 2 e_1 - e_2 - ... - e_(p-1),
    U_j = e_j - e_(j+1)."""
    if p < 2:
        raise InvalidParameters("blowdown configurations need p >= 2")
    rows = {}
    for i in range(1, p):
        row = [2 if i == 1 else 1]
        for j in range(1, p - 1):
            row.append(-1 if i == j else (1 if i == j + 1 else 0))
        rows[f"e{i}"] = tuple(row)
    return rows


def descend(sw: SWInvariant, cfg: ConfigIntersections) -> SWInvariant:
    """Descend a closed invariant through a rational blowdown.

    Each basic class pairs with the configuration spheres; classes whose
    restriction extends over the rational ball survive, the rest drop.
    Surviving classes are rewritten through the image map; distinct classes
    landing on the same descended class must carry equal values.
    """
    if sw.kind != "closed":
        raise KindError("descend takes a closed invariant")
    value = sw.value()
    basis = value.basis
    p = cfg.p
    weights = [1 + j * (p + 1) for j in range(p - 1)]
    mod = p * p

    targets = set()
    for name in basis:
        tv, _ = cfg.image(name)
        targets.add(tv)
    out_basis = VarBasis(tuple(sorted(targets)))

    kept: dict = {}
    for exps, coeff in value.terms():
        pair = [Fraction(0)] * (p - 1)
        for name, exp in exps.items():
            row = cfg.row(name)
            for j in range(p - 1):
                pair[j] += Fraction(exp) * row[j]
        a = []
        for v in pair:
            if v.denominator != 1:
                raise InvalidParameters(
                    f"class pairs fractionally ({v}) with the configuration")
            a.append(int(v))
        if cfg.taut:
            lead = a[0]
            if lead == 0:
                continue
            if abs(lead) != p:
                raise NotTaut(
                    f"class pairs with U_0 as {lead}, not 0 or +-{p}")
        else:
            val = sum(ai * w for ai, w in zip(a, weights)) % mod
            if val % p != 0:
                continue
            if p % 2 == 0 and (val // p) % 2 != 1:
                continue
        image_exp = [Fraction(0)] * len(out_basis)
        for name, exp in exps.items():
            tv, mult = cfg.image(name)
            image_exp[out_basis.position(tv)] += Fraction(exp) * mult
        for v in image_exp:
            if (2 * v).denominator != 1:
                raise InvalidParameters(
                    f"descended exponent {v} is not on the half-unit lattice")
        key = tuple(image_exp)
        if key in kept and kept[key] != coeff:
            raise InvalidParameters(
                f"descended classes collide with unequal values "
                f"({kept[key]} vs {coeff})")
        kept[key] = coeff
    poly = LaurentPoly.from_terms(out_basis, [
        ({name: e for name, e in zip(out_basis, vec) if e != 0}, coeff)
        for vec, coeff in kept.items()])
    return SWInvariant.closed(poly, sw.simple_type)


# ---- the walker over manifold descriptions ----

def _added_exceptional_names(node: ManifoldDesc) -> list:
    parent_names = {name for name, _ in node.parents[0].labels}
    return sorted((name for name, _ in node.labels
                   if name not in parent_names),
                  key=lambda s: (len(s), s))


def _has_prior_transform(node: ManifoldDesc, label: str) -> bool:
    # walk ancestors that keep the label alive; a fiber sum makes a fresh
    # glued surface, so the scan stops there
    stack = list(node.parents)
    while stack:
        cur = stack.pop()
        if cur.op == "fiber_sum":
            continue
        if cur.op == "torus_surgery" and cur.params[0] == label:
            return True
        stack.extend(cur.parents)
    return False


def _delta(diagram, budget: int, deltas: dict, skein) -> LaurentPoly:
    """Delta of diagram, read from deltas or computed by skein (the caller's
    alexander_skein) and kept there. Only successes are kept, so a
    ResourceLimit is raised again at each use."""
    delta = deltas.get(diagram)
    if delta is None:
        delta = deltas[diagram] = skein(diagram, node_budget=budget)
    return delta


# The walker keeps each value as a pair (sw, classes): sw over T_BASIS, and
# classes in the exceptional classes alone (this 1 before any blowup). The t
# rules act on sw, the blowup rule on classes; _expanded multiplies them.
_NO_CLASSES = LaurentPoly.one(())


def _expanded(part: SWInvariant, classes: LaurentPoly) -> SWInvariant:
    """part * classes over sorted({"t"} | classes' names), glue's basis. The
    variables are disjoint, so each product of two terms is its own term:
    the class key with the t exponent spliced in."""
    basis = VarBasis(tuple(sorted(T_BASIS + classes.basis)))
    i = basis.index("t")
    terms = {key[:i] + t + key[i:]: a * b
             for t, a in part.num._terms.items()
             for key, b in classes._terms.items()}
    return SWInvariant(LaurentPoly._make(basis, terms),
                       part.den.extended(basis), part.kind, part.simple_type)


def _chain_value(desc: ManifoldDesc, budget: int, deltas: dict,
                 leaf: bool = False) -> tuple:
    """Walk desc's one-parent chain to its base without recursion, value the
    base (a fiber-sum block directly, else by from_manifold) and apply the
    rules from the base up. In a fiber-sum leaf (leaf=True), top knot
    surgeries and blowups act on e1_relative() for E(1), else on the closed
    value below times t^-1 - t (the None step, which telescopes a
    log-transform spread); their Deltas are looked up on the way down."""
    chain, node = [], desc
    while True:
        if leaf and node.op not in ("knot_surgery", "blowup"):
            leaf = node.op == "E" and node.params == (1,)
            if chain and not leaf:
                chain.append(None)
        if node.op not in ("knot_surgery", "blowup", "torus_surgery"):
            break
        if node.op == "torus_surgery" and _has_prior_transform(
                node, node.params[0]):
            raise UnsupportedForSW(
                "two transforms on one torus do not compose variable-wise; "
                "use double_log_transform for the two-parameter formula")
        if leaf and node.op == "knot_surgery":
            _delta(node.params[1], budget, deltas, alexander_skein)
        chain.append(node)
        node = node.parents[0]
    if node.op == "fiber_sum":
        sw, classes = _fiber_sum_block(node, budget, deltas)
    else:
        sw, classes = (e1_relative() if leaf else from_manifold(
            node, node_budget=budget, deltas=deltas)), _NO_CLASSES
    for node in reversed(chain):
        if node is None:
            sw = relative_from_closed(sw)
        elif node.op == "knot_surgery":
            sw = knot_surgery_formula(sw, _delta(node.params[1], budget,
                                                 deltas, alexander_skein))
        elif node.op == "blowup":
            sw, classes = blowup_formula((sw, classes),
                                         _added_exceptional_names(node))
        else:
            sw = log_transform(sw, node.params[3])
    return sw, classes


def _block_leaves(desc: ManifoldDesc) -> list:
    """(leaf, multiplicity) pairs of the fiber-sum block at desc: its
    non-fiber_sum nodes in order of first visit, left side first, each
    counted once per path from desc (a shared node is walked once)."""
    seen, sums, stack = {}, [], [(desc, False)]    # sums in postorder
    while stack:
        node, done = stack.pop()
        if done:
            sums.append(node)
        elif id(node) not in seen:
            seen[id(node)] = node
            if node.op == "fiber_sum":
                stack.append((node, True))
                stack.extend((p, False) for p in reversed(node.parents))
    paths = {id(desc): 1}
    for node in reversed(sums):
        for parent in node.parents:
            paths[id(parent)] = paths.get(id(parent), 0) + paths[id(node)]
    return [(node, paths[key]) for key, node in seen.items()
            if node.op != "fiber_sum"]


def _fiber_sum_block(desc: ManifoldDesc, budget: int,
                     deltas: dict) -> tuple:
    """(t^-1 - t)^(n-2) * prod rel(L) over the block's n leaves L. A closed
    leaf's rel(L) is SW(L) (t^-1 - t): it adds one to the neck exponent.
    The leaves' class factors multiply over the union of their names."""
    parts = [(_chain_value(leaf, budget, deltas, leaf=True), m)
             for leaf, m in _block_leaves(desc)]
    neck = sum(m if part.kind == "relative" else 2 * m
               for (part, _), m in parts) - 2
    basis = VarBasis(tuple(sorted(set().union(    # glue's basis rule
        *(factor.basis for (_, factor), _ in parts)))))
    num = _bracket_power(-1, neck)    # (t^-1 - t)^neck
    classes = LaurentPoly.one(basis)
    for (part, factor), m in parts:    # value() is num: dens are 1 here
        if not part.num.is_one():
            num = num * part.value() ** m
        if factor.basis:
            classes = classes * factor.extended(basis) ** m
    return SWInvariant.closed(
        num, all(part.simple_type for (part, _), _ in parts)), classes


def from_manifold(desc: ManifoldDesc, *,
                  node_budget: int = DEFAULT_NODE_BUDGET,
                  deltas: Optional[dict] = None) -> SWInvariant:
    """Closed Seiberg-Witten invariant of a manifold description.

    Raises RegimeError outside b+ > 1 and UnsupportedForSW where the value
    is not determined by the tracked data (orientation reversal, rational
    blowdowns without intersection data, repeated transforms on one torus).
    deltas is a diagram -> Alexander polynomial table that the knot-surgery
    nodes read and fill; the CLI passes its per-run table, and a call
    without one starts a fresh table, so each distinct knot runs the skein
    engine once per call.
    Chains of one-parent operations are walked without recursion. Fiber
    sums built directly from fiber sums form one block, valued as
    (t^-1 - t)^(n-2) times the relative values of its n leaves (non-fiber_sum
    inputs, counted once per path), each distinct leaf walked once. Values
    are kept as a t part times a factor in the exceptional classes, and
    multiplied out once, at the return.
    """
    if deltas is None:
        deltas = {}
    op = desc.op
    if op in ("CP2", "S2xS2"):
        raise RegimeError(f"{op} has b+ = 1; no chamber-free invariant")
    if op == "CP2bar":
        raise RegimeError("negative definite piece: b+ = 0 has no invariant")
    if op == "E":
        return sw_elliptic(desc.params[0])
    if op == "H":
        m, n = desc.params
        if m == 2 or n == 2:
            return sw_elliptic(desc.chi_h)
        return SWInvariant.closed(_t_poly([(1, 1), (-1, (-1) ** desc.chi_h)]))
    if op == "connected_sum":
        a, b = desc.parents
        if a.invariants.b_plus >= 1 and b.invariants.b_plus >= 1:
            if desc.invariants.b_plus <= 1:
                raise RegimeError("sum has b+ <= 1; no chamber-free invariant")
            return SWInvariant.closed(LaurentPoly.zero(T_BASIS))
        raise UnsupportedForSW(
            "connected sums with a definite summand are blowups; build them "
            "with the blowup operation")
    if op in ("fiber_sum", "knot_surgery", "blowup", "torus_surgery"):
        return _expanded(*_chain_value(desc, node_budget, deltas))
    if op == "rational_blowdown":
        raise UnsupportedForSW(
            "rational blowdown values need the configuration's intersection "
            "data; compute the ambient invariant and call descend()")
    if op == "reverse":
        raise UnsupportedForSW(
            "orientation reversal does not determine the invariant from the "
            "tracked data")
    raise UnsupportedForSW(f"no invariant rule for operation {op!r}")
