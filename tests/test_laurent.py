import re

import pytest
from fractions import Fraction
from hypothesis import example, given, settings, strategies as st

from swcalc.laurent import (LaurentPoly, VarBasis, _exact_div_dense,
                            _exact_div_sparse, exact_div, is_symmetric,
                            parse_poly)
from swcalc.errors import (BasisMismatch, CalcError, DivisionByZero,
                           InexactDivision, InvalidParameters, ParseError,
                           UnknownVariable)

T = VarBasis(("t",))
ET = VarBasis(("e1", "t"))


def tpoly(*pairs):
    return LaurentPoly.from_terms(T, [({"t": e}, c) for e, c in pairs])


def _poly_strategy(basis):
    exp = st.integers(min_value=-8, max_value=8)
    coeff = st.integers(min_value=-9, max_value=9)
    vec = st.tuples(*([exp] * len(basis)))
    return st.dictionaries(vec, coeff, max_size=6).map(
        lambda d: LaurentPoly(basis, d))


polys_t = _poly_strategy(T)
int_polys_t = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-9, max_value=9), max_size=5).map(
        lambda d: tpoly(*d.items()))
polys_et = _poly_strategy(ET)
# nonzero, stored exponents: odd ones lie on the half lattice
nonzero_stored_t = st.dictionaries(
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-9, max_value=9).filter(bool),
    min_size=1, max_size=5).map(
        lambda d: LaurentPoly(T, {(e,): c for e, c in d.items()}))


class TestConstruction:
    def test_zero_terms_dropped(self):
        p = LaurentPoly(T, {(2,): 0, (4,): 3})
        assert len(p) == 1 and p.coefficient({"t": 2}) == 3

    def test_accumulation_cancels(self):
        p = LaurentPoly.from_terms(T, [({"t": 1}, 2), ({"t": 1}, -2)])
        assert p.is_zero()

    def test_half_exponents(self):
        p = LaurentPoly.monomial(T, {"t": Fraction(1, 2)})
        assert str(p) == "t^(1/2)"
        assert p.support() == [(Fraction(1, 2),)]

    def test_quarter_exponent_rejected(self):
        with pytest.raises(InvalidParameters):
            LaurentPoly.monomial(T, {"t": Fraction(1, 4)})

    def test_noninteger_coefficient_rejected(self):
        with pytest.raises(InvalidParameters):
            LaurentPoly(T, {(0,): 1.5})

    @pytest.mark.parametrize("basis, vec", [
        (T, (2, 0)),
        (T, ()),
        (ET, (2,)),
        (T, (1.0,)),
        (T, ("2",)),
        (ET, (0, Fraction(1, 2))),
    ])
    def test_bad_exponent_vector_rejected(self, basis, vec):
        # results skip these checks, the public constructor must not
        with pytest.raises(BasisMismatch):
            LaurentPoly(basis, {vec: 1})

    def test_bad_variable_name(self):
        with pytest.raises(UnknownVariable):
            VarBasis(("2bad",))

    def test_duplicate_basis(self):
        with pytest.raises(BasisMismatch):
            VarBasis(("t", "t"))

    def test_immutable(self):
        p = tpoly((1, 1))
        with pytest.raises(AttributeError):
            p.basis = T


class TestArithmetic:
    @settings(max_examples=200)
    @given(polys_t, polys_t, polys_t)
    def test_ring_axioms_univariate(self, a, b, c):
        zero = LaurentPoly.zero(T)
        one = LaurentPoly.one(T)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a + zero == a
        assert a - a == zero
        assert a * one == a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=100)
    @given(polys_et, polys_et, polys_et)
    def test_ring_axioms_multivariate(self, a, b, c):
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)

    def test_basis_mismatch(self):
        with pytest.raises(BasisMismatch):
            tpoly((1, 1)) + LaurentPoly.one(ET)

    def test_power(self):
        p = tpoly((1, 1), (-1, -1))
        assert p ** 0 == LaurentPoly.one(T)
        assert p ** 3 == p * p * p

    def test_power_is_the_repeated_product(self):
        p = tpoly((2, 3), (0, -1), (-1, 2))
        product = LaurentPoly.one(T)
        for n in range(10):
            assert p ** n == product
            product = product * p

    def test_power_squares_only_while_bits_remain(self, monkeypatch):
        calls = []
        mul = LaurentPoly.__mul__
        monkeypatch.setattr(LaurentPoly, "__mul__",
                            lambda a, b: calls.append(1) or mul(a, b))
        p = tpoly((1, 1), (-1, -1))
        assert p ** 1 == p and calls == []
        assert p ** 8 == mul(mul(mul(p, p), mul(p, p)),
                             mul(mul(p, p), mul(p, p)))
        assert len(calls) == 3

    def test_negative_power_of_monomial(self):
        m = LaurentPoly.monomial(T, {"t": 2})
        assert m ** -2 == LaurentPoly.monomial(T, {"t": -4})

    def test_negative_power_of_sum_rejected(self):
        with pytest.raises(InexactDivision):
            tpoly((1, 1), (0, 1)) ** -1

    @settings(max_examples=200)
    @given(polys_t)
    def test_eval_at_one_is_coefficient_sum(self, p):
        assert p.eval_at_one() == sum(c for _, c in p.terms())


XYZ = VarBasis(("x", "y", "z"))


@st.composite
def _term_pairs(draw, basis):
    """Two term dicts over small half-lattice exponents (stored odd or even)
    where part of the second cancels part of the first."""
    exp = st.integers(min_value=-3, max_value=3)
    vec = st.tuples(*([exp] * len(basis)))
    coeff = st.integers(min_value=-4, max_value=4).filter(bool)
    a = draw(st.dictionaries(vec, coeff, max_size=8))
    b = draw(st.dictionaries(vec, coeff, max_size=8))
    for v in a:
        if draw(st.booleans()):
            b[v] = -a[v]
    return a, b


def _ref_sum(a, b, sign=1):
    out = dict(a)
    for v, c in b.items():
        out[v] = out.get(v, 0) + sign * c
    return {v: c for v, c in out.items() if c}


def _ref_product(a, b):
    out = {}
    for v1, c1 in a.items():
        for v2, c2 in b.items():
            key = tuple(x + y for x, y in zip(v1, v2))
            out[key] = out.get(key, 0) + c1 * c2
    return {v: c for v, c in out.items() if c}


class TestKernelAgainstReference:
    """Every arithmetic result equals the naive dict computation passed
    through the checked public constructor: same value, length and hash."""

    @staticmethod
    def _check(basis, got, ref):
        want = LaurentPoly(basis, ref)
        assert got == want
        assert len(got) == len(want) == len(ref)
        assert hash(got) == hash(want)

    def _run(self, basis, pair):
        ra, rb = pair
        a, b = LaurentPoly(basis, ra), LaurentPoly(basis, rb)
        self._check(basis, a + b, _ref_sum(ra, rb))
        self._check(basis, a - b, _ref_sum(ra, rb, -1))
        self._check(basis, -a, {v: -c for v, c in ra.items()})
        product = a * b
        self._check(basis, product, _ref_product(ra, rb))
        if rb:
            self._check(basis, exact_div(product, b), ra)

    @settings(max_examples=300)
    @given(_term_pairs(T))
    def test_univariate(self, pair):
        self._run(T, pair)

    @settings(max_examples=200)
    @given(_term_pairs(XYZ))
    def test_three_variables(self, pair):
        self._run(XYZ, pair)


class TestStructural:
    @settings(max_examples=200)
    @given(polys_t)
    def test_invert_twice_is_identity(self, p):
        assert p.invert_variables().invert_variables() == p

    @settings(max_examples=200)
    @given(polys_t, st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=4))
    def test_substitute_power_composes(self, p, k, m):
        assert (p.substitute_power("t", k).substitute_power("t", m)
                == p.substitute_power("t", k * m))

    @settings(max_examples=200)
    @given(polys_t, st.integers(min_value=1, max_value=5))
    def test_substitute_power_preserves_eval(self, p, k):
        assert p.substitute_power("t", k).eval_at_one() == p.eval_at_one()

    def test_substitute_negative_power(self):
        p = tpoly((2, 3), (0, 1))
        assert p.substitute_power("t", -1) == tpoly((-2, 3), (0, 1))

    def test_substitute_zero_rejected(self):
        with pytest.raises(InvalidParameters):
            tpoly((1, 1)).substitute_power("t", 0)

    def test_rename_and_extend(self):
        p = tpoly((1, 2))
        q = p.rename({"t": "s"})
        assert q.basis == VarBasis(("s",))
        r = p.extended(ET)
        assert r.coefficient({"t": 1}) == 2 and r.basis == ET

    def test_dropped(self):
        p = LaurentPoly.monomial(ET, {"t": 3}, 2)
        assert p.dropped(["e1"]).basis == T
        q = LaurentPoly.monomial(ET, {"e1": 1})
        with pytest.raises(BasisMismatch):
            q.dropped(["e1"])

    def test_is_symmetric(self):
        assert is_symmetric(tpoly((1, 1), (0, -1), (-1, 1)))
        assert is_symmetric(tpoly((1, 1), (-1, -1)), sign=-1)
        assert not is_symmetric(tpoly((1, 1), (0, 1), (2, 1)))
        p = LaurentPoly.from_terms(ET, [({"e1": 1, "t": 1}, 1),
                                        ({"e1": -1, "t": 1}, 1)])
        assert is_symmetric(p, variables=["e1"])
        assert not is_symmetric(p)


class TestDivision:
    @settings(max_examples=300)
    @given(polys_t, polys_t)
    def test_roundtrip(self, a, b):
        if b.is_zero():
            return
        q = exact_div(a * b, b)
        assert q == a

    @settings(max_examples=100)
    @given(polys_et, polys_et)
    def test_roundtrip_multivariate(self, a, b):
        if b.is_zero():
            return
        assert exact_div(a * b, b) == a

    @settings(max_examples=150, deadline=None)
    @given(int_polys_t, int_polys_t, int_polys_t)
    def test_agrees_with_sympy_div(self, a, b, c):
        # the Bareiss determinant divides through exact_div at every step:
        # it must return the cofactor of a product and raise exactly when
        # sympy's division over Z leaves a remainder
        sympy = pytest.importorskip("sympy")
        if b.is_zero():
            return
        assert exact_div(a * b, b) == a
        num = a * b + c
        if num.is_zero():
            assert exact_div(num, b).is_zero()
            return
        t = sympy.Symbol("t")

        def to_poly(p):
            # multiplying by a power of t (a unit) changes no divisibility
            low = p.min_exponent("t")
            return sympy.Poly(sum(coeff * t ** (exps.get("t", 0) - low)
                                  for exps, coeff in p.terms()), t,
                              domain=sympy.ZZ)

        _, rem = sympy.div(to_poly(num), to_poly(b), domain=sympy.ZZ)
        if rem.is_zero:
            assert exact_div(num, b) * b == num
        else:
            with pytest.raises(InexactDivision):
                exact_div(num, b)

    def test_divide_by_zero(self):
        with pytest.raises(DivisionByZero):
            exact_div(tpoly((1, 1)), LaurentPoly.zero(T))

    def test_inexact_coefficients(self):
        with pytest.raises(InexactDivision):
            exact_div(tpoly((0, 3)), tpoly((0, 2)))

    def test_inexact_structure(self):
        # 1 / (t - t^-1) has no Laurent polynomial quotient
        with pytest.raises(InexactDivision):
            exact_div(LaurentPoly.one(T), tpoly((1, 1), (-1, -1)))

    def test_sinh_quotient(self):
        num = tpoly((6, 1), (-6, -1))
        den = tpoly((2, 1), (-2, -1))
        assert exact_div(num, den) == tpoly((4, 1), (0, 1), (-4, 1))


class TestDivisionRoutes:
    """exact_div's dense and sparse routes on the same one-variable pairs."""

    @staticmethod
    def _outcome(route, num, den):
        try:
            return ("quotient", route(num, den))
        except InexactDivision as exc:
            return ("inexact", str(exc))

    @settings(max_examples=400, deadline=None)
    @given(nonzero_stored_t, nonzero_stored_t,
           st.one_of(st.none(), nonzero_stored_t),
           st.integers(min_value=1, max_value=7))
    # t^2 + t + t^-1 over t + 1 leaves t^-1 in a slot below the divisor's span
    @example(LaurentPoly(T, {(2,): 1}), LaurentPoly(T, {(2,): 1, (0,): 1}),
             LaurentPoly(T, {(-2,): 1}), 1)
    # a lead coefficient that does not divide
    @example(LaurentPoly(T, {(0,): 1}), LaurentPoly(T, {(2,): 2, (0,): 1}),
             LaurentPoly(T, {(2,): 1}), 1)
    # operands whose lowest exponents differ
    @example(LaurentPoly(T, {(3,): 1}), LaurentPoly(T, {(-5,): 3}), None, 2)
    def test_dense_and_sparse_agree(self, a, b, c, k):
        # substitute_power(t, k) spreads the supports out with stride k
        a, b = a.substitute_power("t", k), b.substitute_power("t", k)
        num = a * b if c is None else a * b + c
        if num.is_zero():
            return
        dense = self._outcome(_exact_div_dense, num, b)
        assert dense == self._outcome(_exact_div_sparse, num, b)
        if c is None:
            assert dense == ("quotient", a)

    def test_wide_one_variable_input_takes_the_sparse_route(self):
        # a coefficient list over this span would need about 4 * 10^15
        # slots; exact_div must see that from the input and not build it
        p = LaurentPoly(T, {(2 * 10 ** 15,): 1, (0,): 1})
        assert exact_div(p * p, p) == p

    @pytest.mark.parametrize("num, den", [
        # the quotient would need t^-2, below the range t^-1 / t
        ("t^-1 + 3", "t + 1"),
        ("3t + 1", "2t + 1"),
    ])
    def test_inexact_on_the_dense_route(self, num, den):
        num, den = parse_poly(num, T), parse_poly(den, T)
        message = f"({num}) is not divisible by ({den})"
        for route in (exact_div, _exact_div_dense):
            with pytest.raises(InexactDivision) as info:
                route(num, den)
            assert str(info.value) == message


class TestParsePrint:
    def test_canonical_forms(self):
        cases = [
            "t^4 + t^2 + 1 + t^-2 + t^-4",
            "t - 1 + t^-1",
            "-t + 3 - t^-1",
            "2t - 3 + 2t^-1",
            "t^(1/2) - t^(-1/2)",
            "0",
            "1",
            "-1",
            "7",
        ]
        for text in cases:
            assert str(parse_poly(text, T)) == text

    def test_multivariate_print(self):
        p = LaurentPoly.from_terms(ET, [({"e1": 1, "t": -1}, 3),
                                        ({"e1": -1}, -1)])
        assert str(p) == "3e1 t^-1 - e1^-1"

    @settings(max_examples=300)
    @given(polys_t)
    def test_roundtrip_univariate(self, p):
        assert parse_poly(str(p), T) == p

    @settings(max_examples=200)
    @given(polys_et)
    def test_roundtrip_multivariate(self, p):
        assert parse_poly(str(p), ET) == p

    def test_inferred_basis_is_sorted(self):
        p = parse_poly("t e1 + 1")
        assert p.basis == VarBasis(("e1", "t"))

    def test_explicit_basis_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            parse_poly("s + 1", T)

    def test_parse_errors_carry_position(self):
        with pytest.raises(ParseError) as exc:
            parse_poly("t^", T)
        assert exc.value.pos is not None
        with pytest.raises(ParseError):
            parse_poly("t + + 1", T)
        with pytest.raises(ParseError):
            parse_poly("", T)

    def test_half_exponent_forms(self):
        assert parse_poly("t^(1/2)", T) == LaurentPoly.monomial(
            T, {"t": Fraction(1, 2)})
        assert parse_poly("t^(-3/2)", T) == LaurentPoly.monomial(
            T, {"t": Fraction(-3, 2)})
        with pytest.raises(ParseError):
            parse_poly("t^(1/3)", T)


# ---- the two-stage parser that parse_poly replaced, kept as a reference ----

_REF_TOKEN_RE = re.compile(
    r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([()^+\-/*]))")


def _ref_tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _REF_TOKEN_RE.match(text, pos)
        if not m or m.end() == m.start():
            raise ParseError(f"unexpected character {text[pos]!r}", pos=pos)
        if m.group(1) is not None:
            out.append(("int", int(m.group(1)), m.start(1)))
        elif m.group(2) is not None:
            out.append(("name", m.group(2), m.start(2)))
        elif m.group(3) is not None:
            out.append(("op", m.group(3), m.start(3)))
        pos = m.end()
        while pos < len(text) and text[pos].isspace():
            pos += 1
    return out


class _RefPolyParser:
    def __init__(self, tokens, end_pos=0):
        self.toks = tokens
        self.i = 0
        self.end_pos = end_pos

    def peek(self):
        if self.i < len(self.toks):
            return self.toks[self.i]
        return (None, None, self.end_pos)

    def take(self):
        t = self.peek()
        self.i += 1
        return t

    def expect_op(self, op):
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos=pos)

    def parse_exponent(self):
        kind, val, pos = self.peek()
        if kind == "op" and val == "(":
            self.take()
            stored = self._signed_fraction()
            self.expect_op(")")
            return stored
        return self._signed_int() * 2

    def _signed_int(self):
        sign = 1
        kind, val, pos = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            sign = -1 if val == "-" else 1
            kind, val, pos = self.peek()
        if kind != "int":
            raise ParseError("expected integer exponent", pos=pos)
        self.take()
        return sign * val

    def _signed_fraction(self):
        num = self._signed_int()
        kind, val, pos = self.peek()
        if kind == "op" and val == "/":
            self.take()
            kind, val, pos = self.peek()
            if kind != "int":
                raise ParseError("expected denominator", pos=pos)
            self.take()
            if val == 1:
                return num * 2
            if val == 2:
                return num
            raise ParseError(
                "only half-integer exponents are supported", pos=pos)
        return num * 2

    def parse_term(self, vars_seen):
        coeff = None
        exps = {}
        saw_factor = False
        while True:
            kind, val, pos = self.peek()
            if kind == "int":
                self.take()
                coeff = val if coeff is None else coeff * val
                saw_factor = True
                nk, nv, _ = self.peek()
                if nk == "op" and nv == "*":
                    self.take()
                continue
            if kind == "name":
                self.take()
                vars_seen[val] = True
                nk, nv, _ = self.peek()
                if nk == "op" and nv == "^":
                    self.take()
                    stored = self.parse_exponent()
                else:
                    stored = 2
                exps[val] = exps.get(val, 0) + stored
                saw_factor = True
                nk, nv, _ = self.peek()
                if nk == "op" and nv == "*":
                    self.take()
                continue
            break
        if not saw_factor:
            raise ParseError("expected a term", pos=self.peek()[2])
        return exps, 1 if coeff is None else coeff


def _parse_poly_reference(text, basis=None):
    parser = _RefPolyParser(_ref_tokenize(text), end_pos=len(text))
    vars_seen = {}
    raw_terms = []
    sign = 1
    kind, val, pos = parser.peek()
    if kind == "op" and val in "+-":
        parser.take()
        sign = -1 if val == "-" else 1
    while True:
        exps, coeff = parser.parse_term(vars_seen)
        raw_terms.append((exps, sign * coeff))
        kind, val, pos = parser.peek()
        if kind is None:
            break
        if kind == "op" and val in "+-":
            parser.take()
            sign = -1 if val == "-" else 1
            continue
        raise ParseError(f"unexpected token {val!r}", pos=pos)
    if basis is None:
        b = VarBasis(sorted(vars_seen))
    else:
        b = basis if isinstance(basis, VarBasis) else VarBasis(basis)
    acc = {}
    for exps, coeff in raw_terms:
        vec = [0] * len(b)
        for name, stored in exps.items():
            vec[b.position(name)] = stored
        key = tuple(vec)
        acc[key] = acc.get(key, 0) + coeff
    return LaurentPoly(b, acc)


_NAMES = ("e1", "t", "x_2")
ETX = VarBasis(_NAMES)
_SPACE = st.sampled_from(["", "", " ", "  ", "\t", "\n "])


@st.composite
def _poly_texts(draw):
    """Polynomial text as a user may write it: signs, integer factors,
    variables with plain, signed, parenthesised and half-integer exponents,
    factors joined by space or '*', and extra whitespace anywhere a token
    ends."""
    def sp():
        return draw(_SPACE)

    def exponent():
        k = draw(st.integers(min_value=-9, max_value=9))
        form = draw(st.sampled_from(
            ["none", "int", "plus", "paren", "half", "over_one"]))
        sign = "-" if k < 0 else ""
        if form == "none":
            return ""
        if form == "int":
            return f"^{sp()}{k}"
        if form == "plus":
            return f"^{sp()}+{sp()}{abs(k)}"
        if form == "paren":
            return f"^{sp()}({sp()}{k}{sp()}){sp()}"
        den = 2 if form == "half" else 1
        return (f"^({sp()}{sign}{sp()}{abs(k)}{sp()}/{sp()}{den}{sp()})")

    terms = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        factors = []
        if draw(st.booleans()):
            factors.append(str(draw(st.integers(min_value=0, max_value=40))))
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            factors.append(draw(st.sampled_from(_NAMES)) + exponent())
        if not factors:
            factors.append("1")
        text = factors[0]
        for f in factors[1:]:
            text += draw(st.sampled_from([" ", "*", " * ", "\t", "* "])) + f
        terms.append(text)
    text = sp() + draw(st.sampled_from(["", "-", "+", "- "])) + terms[0]
    for term in terms[1:]:
        text += sp() + draw(st.sampled_from("+-")) + sp() + term
    return text + sp()


def _outcome(parse, text, basis):
    try:
        return parse(text, basis)
    except CalcError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "pos", None)


_BASES = st.sampled_from([None, T, ETX, ("t", "e1"), ("x_2", "t", "e1")])
_EDIT_CHARS = st.sampled_from(list("()^+-/*0123456789 \tetx_$.,é") + ["t"])


class TestParserAgainstReference:
    """parse_poly gives what the two-stage tokenizer and parser gave: the
    same polynomial, or the same error with the same message and pos."""

    @settings(max_examples=400)
    @given(_poly_texts(), _BASES)
    @example("t^(1/2) - t^(-3/2)", None)
    @example("  2 * e1^+3 t^( -5 / 2 )  -  x_2*7 ", ETX)
    def test_written_polynomials(self, text, basis):
        want = _outcome(_parse_poly_reference, text, basis)
        assert isinstance(want, LaurentPoly) or want[0] == "UnknownVariable"
        assert _outcome(parse_poly, text, basis) == want

    @settings(max_examples=200)
    @given(_poly_strategy(XYZ).map(
        lambda p: LaurentPoly(XYZ, {tuple(e - 1 for e in vec): c
                                    for vec, c in p._terms.items()})))
    def test_printed_polynomials(self, p):
        # shifting every stored exponent by one puts the odd ones, the
        # half-integer exponents, in the printed text
        text = str(p)
        assert parse_poly(text, XYZ) == _parse_poly_reference(text, XYZ) == p
        assert parse_poly(text) == _parse_poly_reference(text)

    @settings(max_examples=800)
    @given(_poly_texts(), _BASES, st.data())
    @example("t^", None, None)
    @example("t + + 1", None, None)
    @example("t^(1/3)", None, None)
    @example("t^(1 2)", None, None)
    @example("t^(1/)", None, None)
    @example("t^(-)", None, None)
    @example("t^2 ^ 3", None, None)
    @example("", None, None)
    @example("   ", None, None)
    @example(" $ t", None, None)
    @example("t $", None, None)
    @example("t + (2", None, None)
    @example("s + $", T, None)
    def test_corrupted_polynomials(self, text, basis, data):
        if data is not None:
            at = data.draw(st.integers(min_value=0, max_value=len(text)))
            edit = data.draw(st.sampled_from(["delete", "insert", "swap"]))
            if edit == "insert":
                text = text[:at] + data.draw(_EDIT_CHARS) + text[at:]
            elif edit == "delete":
                text = text[:at] + text[at + 1:]
            elif at + 1 < len(text):
                text = text[:at] + text[at + 1] + text[at] + text[at + 2:]
        assert (_outcome(parse_poly, text, basis)
                == _outcome(_parse_poly_reference, text, basis))
