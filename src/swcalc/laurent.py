"""Exact multivariate Laurent polynomials over Z with half-integer exponents.

The lattice of allowed exponents is (1/2)Z in every variable. Internally an
exponent is stored as an int equal to twice its true value, so t^(1/2) is the
stored exponent 1 and t^2 is the stored exponent 4. All arithmetic is exact
integer arithmetic; nothing in this module ever rounds.

A polynomial is a dict from stored-exponent vectors to coefficients. Every
stored term holds one invariant: its key is a tuple of ints as long as the
variable basis, and its coefficient is a nonzero int. The public
constructors (LaurentPoly(basis, terms), zero, one, constant, variable,
monomial, from_terms) check it on their input. LaurentPoly._make is the one
unchecked path: it only drops zero coefficients, and it is used only on
results computed from operands that already hold the invariant, and by
parse_poly, which makes the int keys and int coefficients itself from the
tokens of its text.
The canonical term order used for printing and for division is descending
lexicographic order on the stored vectors.

exact_div has two routes that give the same quotient and raise in the same
cases, chosen from the input alone. One-variable input whose numerator's
stored exponents span at most 4 * (len(num) + len(den)) + 16 (every division
in the Fox determinant) is divided densely, on a coefficient list; all other
input, multivariate or wide and sparse, is divided on the term dicts.
"""

from __future__ import annotations

import heapq
import operator
import re
import string
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import (
    BasisMismatch,
    DivisionByZero,
    InexactDivision,
    InvalidParameters,
    ParseError,
    UnknownVariable,
)

__all__ = [
    "VarBasis",
    "LaurentPoly",
    "parse_poly",
    "exact_div",
    "is_symmetric",
]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# Exponents accepted from the public API: ints, or Fractions with
# denominator 1 or 2.
ExpLike = Union[int, Fraction]


class VarBasis(tuple):
    """Ordered tuple of distinct variable names.

    The order is the canonical print/term order, so ("t", "e1") and
    ("e1", "t") are different bases on purpose.
    """

    def __new__(cls, names: Iterable[str]) -> "VarBasis":
        names = tuple(names)
        for n in names:
            if not isinstance(n, str) or not _NAME_RE.match(n):
                raise UnknownVariable(f"bad variable name {n!r}")
        if len(set(names)) != len(names):
            raise BasisMismatch(f"duplicate variable in basis {names!r}")
        return super().__new__(cls, names)

    def position(self, name: str) -> int:
        try:
            return self.index(name)
        except ValueError:
            raise UnknownVariable(
                f"variable {name!r} not in basis {tuple(self)!r}"
            ) from None


def _store(exp: ExpLike) -> int:
    """Convert a true exponent to its stored (doubled) form."""
    if isinstance(exp, int):
        return 2 * exp
    if isinstance(exp, Fraction):
        doubled = exp * 2
        if doubled.denominator != 1:
            raise InvalidParameters(
                f"exponent {exp} not on the half-integer lattice"
            )
        return int(doubled)
    raise InvalidParameters(f"exponent {exp!r} must be int or Fraction")


def _unstore(stored: int) -> ExpLike:
    """Stored form back to a true exponent: int when even, Fraction when odd."""
    if stored % 2 == 0:
        return stored // 2
    return Fraction(stored, 2)


class LaurentPoly:
    """Immutable sparse Laurent polynomial over a fixed variable basis."""

    __slots__ = ("basis", "_terms", "_hash")

    def __init__(self, basis: Iterable[str], terms: Mapping[tuple, int] = ()):
        """Build from a mapping of stored-exponent vectors to coefficients.

        Most callers want the classmethod constructors (zero, one, constant,
        variable, monomial, from_terms) or parse_poly instead; this raw form
        expects stored (doubled) exponents.
        """
        b = basis if isinstance(basis, VarBasis) else VarBasis(basis)
        clean: dict = {}
        n = len(b)
        for vec, coeff in dict(terms).items():
            vec = tuple(vec)
            if len(vec) != n or not all(isinstance(e, int) for e in vec):
                raise BasisMismatch(
                    f"exponent vector {vec!r} does not fit basis {tuple(b)!r}"
                )
            if not isinstance(coeff, int):
                raise InvalidParameters(f"coefficient {coeff!r} is not an int")
            if coeff != 0:
                clean[vec] = clean.get(vec, 0) + coeff
                if clean[vec] == 0:
                    del clean[vec]
        object.__setattr__(self, "basis", b)
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _make(cls, basis: VarBasis, terms: dict) -> "LaurentPoly":
        """Unchecked constructor for results of operands over basis.

        terms must already have int-tuple keys of the basis length and int
        coefficients; zero coefficients are dropped. The dict is kept, not
        copied, so the caller must not touch it afterwards.
        """
        if 0 in terms.values():
            terms = {vec: c for vec, c in terms.items() if c}
        poly = object.__new__(cls)
        object.__setattr__(poly, "basis", basis)
        object.__setattr__(poly, "_terms", terms)
        object.__setattr__(poly, "_hash", None)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # ---- constructors ----

    @classmethod
    def zero(cls, basis: Iterable[str]) -> "LaurentPoly":
        return cls(basis, {})

    @classmethod
    def constant(cls, basis: Iterable[str], value: int) -> "LaurentPoly":
        b = basis if isinstance(basis, VarBasis) else VarBasis(basis)
        if value == 0:
            return cls(b, {})
        return cls(b, {(0,) * len(b): value})

    @classmethod
    def one(cls, basis: Iterable[str]) -> "LaurentPoly":
        return cls.constant(basis, 1)

    @classmethod
    def variable(cls, basis: Iterable[str], name: str,
                 exp: ExpLike = 1) -> "LaurentPoly":
        return cls.monomial(basis, {name: exp})

    @classmethod
    def monomial(cls, basis: Iterable[str], exps: Mapping[str, ExpLike],
                 coeff: int = 1) -> "LaurentPoly":
        b = basis if isinstance(basis, VarBasis) else VarBasis(basis)
        vec = [0] * len(b)
        for name, e in exps.items():
            vec[b.position(name)] = _store(e)
        return cls(b, {tuple(vec): coeff})

    @classmethod
    def from_terms(cls, basis: Iterable[str],
                   terms: Iterable[tuple]) -> "LaurentPoly":
        """Build from (exponent mapping, coefficient) pairs with true exponents."""
        b = basis if isinstance(basis, VarBasis) else VarBasis(basis)
        acc: dict = {}
        for exps, coeff in terms:
            vec = [0] * len(b)
            for name, e in exps.items():
                vec[b.position(name)] = _store(e)
            key = tuple(vec)
            acc[key] = acc.get(key, 0) + coeff
        return cls(b, acc)

    # ---- basic queries ----

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self._terms == {(0,) * len(self.basis): 1}

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        """Number of nonzero terms (the size of the support)."""
        return len(self._terms)

    def support(self) -> list:
        """Exponent vectors with nonzero coefficient, in canonical order.

        Entries are tuples of true exponents aligned with the basis (ints
        where integral, Fractions on the half lattice).
        """
        return [tuple(_unstore(e) for e in vec)
                for vec in sorted(self._terms, reverse=True)]

    def terms(self) -> list:
        """Canonically ordered (exponent dict, coefficient) pairs."""
        out = []
        for vec in sorted(self._terms, reverse=True):
            exps = {name: _unstore(e)
                    for name, e in zip(self.basis, vec) if e != 0}
            out.append((exps, self._terms[vec]))
        return out

    def coefficient(self, exps: Mapping[str, ExpLike]) -> int:
        vec = [0] * len(self.basis)
        for name, e in exps.items():
            vec[self.basis.position(name)] = _store(e)
        return self._terms.get(tuple(vec), 0)

    def min_exponent(self, name: str) -> Optional[ExpLike]:
        """Smallest exponent of the variable across the support; None if zero."""
        i = self.basis.position(name)
        if not self._terms:
            return None
        return _unstore(min(vec[i] for vec in self._terms))

    def max_exponent(self, name: str) -> Optional[ExpLike]:
        i = self.basis.position(name)
        if not self._terms:
            return None
        return _unstore(max(vec[i] for vec in self._terms))

    def eval_at_one(self) -> int:
        """Value with every variable set to 1: the sum of coefficients."""
        return sum(self._terms.values())

    # ---- equality / hashing ----

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self == LaurentPoly.constant(self.basis, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.basis == other.basis and self._terms == other._terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((tuple(self.basis), frozenset(self._terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    # ---- arithmetic ----

    def _check_basis(self, other: "LaurentPoly") -> None:
        if self.basis != other.basis:
            raise BasisMismatch(
                f"bases differ: {tuple(self.basis)!r} vs {tuple(other.basis)!r}"
            )

    def _coerce(self, other) -> Optional["LaurentPoly"]:
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly.constant(self.basis, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        self._check_basis(o)
        acc = dict(self._terms)
        get = acc.get
        for vec, c in o._terms.items():
            acc[vec] = get(vec, 0) + c
        return LaurentPoly._make(self.basis, acc)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._make(self.basis,
                                 {vec: -c for vec, c in self._terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        self._check_basis(o)
        acc = dict(self._terms)
        get = acc.get
        for vec, c in o._terms.items():
            acc[vec] = get(vec, 0) - c
        return LaurentPoly._make(self.basis, acc)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        self._check_basis(o)
        # the larger operand goes in the inner loop, so the per-row set-up
        # runs fewer times
        outer, inner = self._terms, o._terms
        if len(outer) > len(inner):
            outer, inner = inner, outer
        inner = inner.items()
        acc: dict = {}
        get = acc.get
        if len(self.basis) == 1:
            for (e1,), c1 in outer.items():
                for (e2,), c2 in inner:
                    key = (e1 + e2,)
                    acc[key] = get(key, 0) + c1 * c2
        else:
            add = operator.add
            for v1, c1 in outer.items():
                for v2, c2 in inner:
                    key = tuple(map(add, v1, v2))
                    acc[key] = get(key, 0) + c1 * c2
        return LaurentPoly._make(self.basis, acc)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            # Only unit monomials are invertible over Z.
            if len(self._terms) == 1:
                ((vec, c),) = self._terms.items()
                if c in (1, -1):
                    inv = LaurentPoly(self.basis,
                                      {tuple(-e for e in vec): c})
                    return inv ** (-n)
            raise InexactDivision("negative power of a non-unit")
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return LaurentPoly.one(self.basis) if result is None else result

    # ---- structural operations ----

    def substitute_power(self, name: str, k: int) -> "LaurentPoly":
        """Replace the variable with its k-th power (k any nonzero int)."""
        if not isinstance(k, int) or k == 0:
            raise InvalidParameters(f"substitution power must be a nonzero int, got {k!r}")
        i = self.basis.position(name)
        acc: dict = {}
        for vec, c in self._terms.items():
            nv = list(vec)
            nv[i] = nv[i] * k
            key = tuple(nv)
            acc[key] = acc.get(key, 0) + c
        return LaurentPoly._make(self.basis, acc)

    def invert_variables(self, names: Optional[Sequence[str]] = None) -> "LaurentPoly":
        """Send each listed variable (default: all) to its inverse."""
        if names is None:
            idx = range(len(self.basis))
        else:
            idx = [self.basis.position(n) for n in names]
        flip = set(idx)
        acc = {
            tuple(-e if j in flip else e for j, e in enumerate(vec)): c
            for vec, c in self._terms.items()
        }
        return LaurentPoly._make(self.basis, acc)

    def rename(self, mapping: Mapping[str, str]) -> "LaurentPoly":
        """Rename variables; the basis keeps its order."""
        for old in mapping:
            self.basis.position(old)
        new_names = [mapping.get(n, n) for n in self.basis]
        return LaurentPoly(VarBasis(new_names), dict(self._terms))

    def extended(self, basis: Iterable[str]) -> "LaurentPoly":
        """Reinterpret over a larger basis containing every current variable."""
        b = basis if isinstance(basis, VarBasis) else VarBasis(basis)
        if b == self.basis:
            return self
        positions = [b.position(n) for n in self.basis]
        acc = {}
        for vec, c in self._terms.items():
            nv = [0] * len(b)
            for p, e in zip(positions, vec):
                nv[p] = e
            acc[tuple(nv)] = c
        return LaurentPoly._make(b, acc)

    def dropped(self, names: Sequence[str]) -> "LaurentPoly":
        """Remove variables that appear in no term of the support."""
        drop = {self.basis.position(n) for n in names}
        for vec in self._terms:
            for i in drop:
                if vec[i] != 0:
                    raise BasisMismatch(
                        f"variable {self.basis[i]!r} still occurs; cannot drop")
        keep = [i for i in range(len(self.basis)) if i not in drop]
        b = VarBasis(self.basis[i] for i in keep)
        acc = {tuple(vec[i] for i in keep): c for vec, c in self._terms.items()}
        return LaurentPoly(b, acc)

    # ---- printing ----

    def _format_varpow(self, name: str, stored: int) -> str:
        if stored == 2:
            return name
        if stored % 2 == 0:
            return f"{name}^{stored // 2}"
        if stored > 0:
            return f"{name}^({stored}/2)"
        return f"{name}^(-{-stored}/2)"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for vec in sorted(self._terms, reverse=True):
            c = self._terms[vec]
            powers = [self._format_varpow(n, e)
                      for n, e in zip(self.basis, vec) if e != 0]
            mag = abs(c)
            if powers:
                body = (" ".join(powers) if mag == 1
                        else f"{mag}{powers[0]}" + "".join(" " + p for p in powers[1:]))
            else:
                body = str(mag)
            if not pieces:
                pieces.append(("-" if c < 0 else "") + body)
            else:
                pieces.append((" - " if c < 0 else " + ") + body)
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"LaurentPoly({str(self)!r}, basis={tuple(self.basis)!r})"


# ---- parsing ----

# one token per match: an unsigned integer, a variable name, an operator
# character, or any other non-space character, which is an error; space
# between tokens matches nothing and is skipped. \d is the Unicode decimal
# class, so str.isdecimal() holds for exactly the integer tokens.
_TOKEN_RE = re.compile(r"\d+|[A-Za-z_][A-Za-z0-9_]*|[()^+\-/*]|\S")
_NAME_START = frozenset(string.ascii_letters + "_")
_OPERATORS = frozenset("()^+-/*")


def _parse_error(text: str, toks: list, i: int, message: str):
    """Raise the error for a parse that failed at token i.

    A character that starts no token is reported first, wherever it is,
    as "unexpected character"; its position is 0 when the text opens with
    space that no token follows. Integer tokens before it are converted on
    the way, so an integer too long for int() raises its ValueError first.
    Otherwise message is raised at token i, or at the end of the text when
    i is past the last token.
    """
    starts = [m.start() for m in _TOKEN_RE.finditer(text)]
    for k, start in enumerate(starts):
        tok = toks[k]
        if tok.isdecimal():
            int(tok)
        elif tok not in _OPERATORS and tok[0] not in _NAME_START:
            if k == 0 and text[0].isspace():
                start = 0
            raise ParseError(f"unexpected character {text[start]!r}",
                             pos=start)
    if not starts and text:
        raise ParseError(f"unexpected character {text[0]!r}", pos=0)
    raise ParseError(message, pos=starts[i] if i < len(starts) else len(text))


def _exponent(text: str, toks: list, i: int) -> tuple:
    """The exponent whose first token is toks[i], after a '^': a signed
    integer, or a signed integer or half-integer in parentheses. Returns its
    stored (doubled) form and the index of the token after it."""
    paren = toks[i] == "("
    if paren:
        i += 1
    sign = 1
    if toks[i] == "+" or toks[i] == "-":
        sign = -1 if toks[i] == "-" else 1
        i += 1
    if not toks[i].isdecimal():
        _parse_error(text, toks, i, "expected integer exponent")
    stored = 2 * sign * int(toks[i])
    i += 1
    if not paren:
        return stored, i
    if toks[i] == "/":
        i += 1
        if not toks[i].isdecimal():
            _parse_error(text, toks, i, "expected denominator")
        den = int(toks[i])
        if den == 2:
            stored //= 2
        elif den != 1:
            _parse_error(text, toks, i,
                         "only half-integer exponents are supported")
        i += 1
    if toks[i] != ")":
        _parse_error(text, toks, i, "expected ')'")
    return stored, i + 1


def parse_poly(text: str, basis: Optional[Iterable[str]] = None) -> LaurentPoly:
    """Parse canonical polynomial text back into a LaurentPoly.

    If basis is omitted it is inferred as the sorted tuple of variables
    appearing in the text (a constant gets the empty basis). Round-tripping
    print output is exact: parse_poly(str(p), p.basis) == p.

    A polynomial is an optional sign and terms joined by + or -; a term is
    one or more factors, each optionally followed by '*': an unsigned
    integer, or a variable with an optional ^exponent (see _exponent).
    Factors of a term multiply, and repeated variables add their exponents.
    The text is split into tokens by one regex pass and parsed in one loop
    over them; ParseError.pos is the offset of the offending character,
    or len(text) for an early end. An explicit basis is checked after the
    text parses: the first variable of the text outside it raises
    UnknownVariable.
    """
    toks = _TOKEN_RE.findall(text)
    # the text's own basis: its variables, sorted
    own = VarBasis(sorted(t for t in set(toks) if t[0] in _NAME_START))
    index = {name: j for j, name in enumerate(own)}
    toks.append("")             # end of text: matches no test below
    acc: dict = {}
    get = acc.get
    i = 0
    sign = 1
    if toks[0] == "+" or toks[0] == "-":
        sign = -1 if toks[0] == "-" else 1
        i = 1
    while True:
        first = i
        coeff = 1
        vec = [0] * len(own)
        while True:
            tok = toks[i]
            j = index.get(tok)
            if j is not None:
                i += 1
                if toks[i] == "^":
                    stored, i = _exponent(text, toks, i + 1)
                    vec[j] += stored
                else:
                    vec[j] += 2
            elif tok.isdecimal():
                coeff *= int(tok)
                i += 1
            else:
                break
            if toks[i] == "*":
                i += 1
        if i == first:
            _parse_error(text, toks, i, "expected a term")
        key = tuple(vec)
        acc[key] = get(key, 0) + sign * coeff
        tok = toks[i]
        if tok == "+" or tok == "-":
            sign = -1 if tok == "-" else 1
            i += 1
        elif tok:
            _parse_error(text, toks, i, f"unexpected token {tok!r}")
        else:
            break

    poly = LaurentPoly._make(own, acc)
    if basis is None:
        return poly
    b = basis if isinstance(basis, VarBasis) else VarBasis(basis)
    outside = set(own).difference(b)
    if outside:
        # the text's first variable outside b, as the message names it
        b.position(next(t for t in toks if t in outside))
    return poly.extended(b)


# ---- exact division ----

def exact_div(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact quotient num / den over Z, or raise InexactDivision.

    The quotient is found by descending-lex long division against the single
    divisor. Each step must divide exactly (exponentwise and over the integer
    coefficients) and the remainder must reach zero; otherwise no Laurent
    quotient with integer coefficients exists and InexactDivision is raised.
    Fractional (half-lattice) exponents pass through exactly.

    Two routes give the same quotient and raise in the same cases. The route
    follows the input alone:

    - dense, when the basis has one variable and the numerator's stored
      exponents span at most 4 * (len(num) + len(den)) + 16: the division
      runs on a coefficient list indexed by exponent. Every Fox determinant
      step divides such narrow one-variable polynomials.
    - sparse, for every other input, including wide sparse one-variable
      input such as (t^(10^15) + 1)^2, whose coefficient list would not fit
      in memory: the division runs on the term dicts.
    """
    if not isinstance(num, LaurentPoly) or not isinstance(den, LaurentPoly):
        raise InvalidParameters("exact_div expects LaurentPoly arguments")
    if num.basis != den.basis:
        raise BasisMismatch(
            f"bases differ: {tuple(num.basis)!r} vs {tuple(den.basis)!r}")
    if den.is_zero():
        raise DivisionByZero("division by the zero polynomial")
    if num.is_zero():
        return LaurentPoly.zero(num.basis)
    if len(num.basis) == 1:
        exps = [e for (e,) in num._terms]
        if max(exps) - min(exps) <= 4 * (len(num) + len(den)) + 16:
            return _exact_div_dense(num, den)
    return _exact_div_sparse(num, den)


def _exact_div_dense(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """exact_div by schoolbook long division on coefficient lists.

    One-variable, nonzero operands only. Slot i of the list holds the
    coefficient of stored exponent nlo + i. The list is as long as the
    numerator's span, so exact_div sends only narrow input here.
    """
    exps = [e for (e,) in num._terms]
    nlo = min(exps)
    rem = [0] * (max(exps) - nlo + 1)
    for (e,), c in num._terms.items():
        rem[e - nlo] = c
    dlo = min(e for (e,) in den._terms)
    dhi = max(e for (e,) in den._terms)
    m = dhi - dlo
    lc = den._terms[(dhi,)]
    # offsets from the slot of the lead term; the lead slot itself is never
    # read again, so it is not updated
    lower = [(e - dhi, c) for (e,), c in den._terms.items() if e != dhi]
    shift = nlo - dlo - m
    quotient: dict = {}
    for i in range(len(rem) - 1, m - 1, -1):
        rc = rem[i]
        if not rc:
            continue
        if rc % lc:
            raise InexactDivision(f"({num}) is not divisible by ({den})")
        qc = rc // lc
        quotient[(i + shift,)] = qc
        for off, c in lower:
            rem[i + off] -= qc * c
    # a nonzero slot below m would need a quotient exponent below
    # nlo - dlo, the lowest a Laurent quotient can have
    if any(rem[:m]):
        raise InexactDivision(f"({num}) is not divisible by ({den})")
    return LaurentPoly._make(num.basis, quotient)


def _exact_div_sparse(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """exact_div by descending-lex division on the term dicts.

    Any basis, nonzero operands only. A quotient term q is possible only
    when q[i] >= min(num[i]) - min(den[i]) in every variable i, the
    exponents of the shift that takes both operands to the origin.

    The division runs on negated exponent vectors, where the leading term
    is the least key, so a heap of the remainder's keys yields it: a step
    costs the divisor's length times a log, not a scan of the remainder.
    A key is pushed when it enters the remainder, and an entry whose key
    has since cancelled is skipped when it surfaces. Each step removes the
    leading key and adds only later ones, so the first live entry popped
    is always the leading key.
    """
    add, sub, gt, neg = operator.add, operator.sub, operator.gt, operator.neg
    remainder = {tuple(map(neg, v)): c for v, c in num._terms.items()}
    dt = {tuple(map(neg, v)): c for v, c in den._terms.items()}
    # the floor above, negated
    ceiling = [max(v[i] for v in remainder) - max(v[i] for v in dt)
               for i in range(len(num.basis))]
    lt_den = min(dt)
    lc_den = dt.pop(lt_den)
    rest = dt.items()
    heap = list(remainder)
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    quotient: dict = {}
    while remainder:
        lt_r = pop(heap)
        lc_r = remainder.pop(lt_r, None)
        if lc_r is None:
            continue
        q_vec = tuple(map(sub, lt_r, lt_den))
        if any(map(gt, q_vec, ceiling)) or lc_r % lc_den != 0:
            raise InexactDivision(
                f"({num}) is not divisible by ({den})")
        q_c = lc_r // lc_den
        quotient[tuple(map(neg, q_vec))] = q_c
        for vec, c in rest:
            key = tuple(map(add, q_vec, vec))
            rc = remainder.get(key)
            if rc is None:
                remainder[key] = -q_c * c
                push(heap, key)
            else:
                rc -= q_c * c
                if rc:
                    remainder[key] = rc
                else:
                    del remainder[key]
    return LaurentPoly._make(num.basis, quotient)


def is_symmetric(p: LaurentPoly, sign: int = 1,
                 variables: Optional[Sequence[str]] = None) -> bool:
    """Whether inverting the variables reproduces sign * p.

    With the default arguments this is the palindrome condition
    p(t -> 1/t, ...) == p; sign=-1 tests odd symmetry. A subset of
    variables may be passed to invert only those.
    """
    if sign not in (1, -1):
        raise InvalidParameters("sign must be +1 or -1")
    flipped = p.invert_variables(variables)
    return flipped == (p if sign == 1 else -p)
