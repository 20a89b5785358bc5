"""Independent reference values for the benchmark.

Nothing here imports swcalc. Polynomials are plain dicts: a univariate
Laurent polynomial in t is {exponent: coefficient} with int exponents, and
the blowup classes of a Seiberg-Witten value are kept as a tuple of names,
since every class contributes the same factor (e + e^-1).

Routes:
- Alexander polynomials from the (s-1) x (s-1) minor of I - Burau(beta),
  symmetrised and normalised to Delta(1) = 1, or from closed formulas for
  named families.
- Seiberg-Witten values from the closed formulas the walker composes:
  SW(E(n)) = (t - t^-1)^(n-2); a fiber sum multiplies the relative values
  rel = SW * (t^-1 - t), with rel(E(1)) = -1; knot surgery multiplies by
  Delta_K(t^2); a blowup multiplies by prod (e + e^-1) over new, distinct
  classes; a log transform of multiplicity r sends t to t^r and multiplies
  by t^(r-1) + t^(r-3) + ... + t^(1-r).
"""

from __future__ import annotations

from math import comb

ONE = {0: 1}
NECK = {-1: 1, 1: -1}          # t^-1 - t


# ---- univariate Laurent arithmetic on dicts ----

def padd(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + sign * c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def pmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            k = e1 + e2
            out[k] = out.get(k, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def psubst(a: dict, r: int) -> dict:
    """a(t^r)."""
    return {e * r: c for e, c in a.items()}


def bracket_power(r: int, m: int) -> dict:
    """(t^r - t^-r)^m by the binomial formula."""
    return {r * (m - 2 * j): (-1) ** j * comb(m, j) for j in range(m + 1)}


def spread(r: int) -> dict:
    """t^(r-1) + t^(r-3) + ... + t^(1-r)."""
    return {r - 1 - 2 * j: 1 for j in range(r)}


def pdiv_exact(num: dict, den: dict) -> dict:
    """Exact quotient num / den of univariate Laurent polynomials.

    Raises ValueError when den does not divide num.
    """
    if not den:
        raise ValueError("division by zero")
    rem = dict(num)
    dhi = max(den)
    dlc = den[dhi]
    qmin = min(num, default=0) - min(den)
    quo: dict = {}
    while rem:
        hi = max(rem)
        q = hi - dhi
        if q < qmin or rem[hi] % dlc:
            raise ValueError("inexact division")
        qc = rem[hi] // dlc
        quo[q] = qc
        for e, c in den.items():
            v = rem.get(e + q, 0) - qc * c
            if v:
                rem[e + q] = v
            else:
                rem.pop(e + q, None)
    return quo


def normalise_knot(p: dict) -> dict:
    """Shift to a symmetric exponent range and fix the sign so p(1) = 1."""
    if not p:
        raise ValueError("zero Alexander polynomial: not a knot")
    lo, hi = min(p), max(p)
    if (lo + hi) % 2:
        raise ValueError("odd exponent span: not a knot")
    shift = -(lo + hi) // 2
    at_one = sum(p.values())
    if at_one not in (1, -1):
        raise ValueError(f"Alexander polynomial has value {at_one} at 1")
    return {e + shift: c * at_one for e, c in p.items()}


# ---- Alexander polynomials ----

def _det(m: list) -> dict:
    """Determinant of a small square matrix of dict polynomials."""
    n = len(m)
    if n == 0:
        return dict(ONE)
    if n == 1:
        return dict(m[0][0])
    total: dict = {}
    for j, entry in enumerate(m[0]):
        if not entry:
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total = padd(total, pmul(entry, _det(minor)), 1 if j % 2 == 0 else -1)
    return total


def burau_alexander(word, strands: int) -> dict:
    """Delta(t) of the closure of a braid word (letters +-i, 1-indexed).

    Right-multiplies the unreduced Burau matrices, then takes the
    determinant of I - B with the last row and column deleted.
    """
    s = strands
    m = [[dict(ONE) if i == j else {} for j in range(s)] for i in range(s)]
    for w in word:
        i = abs(w) - 1
        if w > 0:
            block = (({0: 1, 1: -1}, {1: 1}), ({0: 1}, {}))
        else:
            block = (({}, {0: 1}), ({-1: 1}, {0: 1, -1: -1}))
        for row in m:
            a, b = row[i], row[i + 1]
            row[i] = padd(pmul(a, block[0][0]), pmul(b, block[1][0]))
            row[i + 1] = padd(pmul(a, block[0][1]), pmul(b, block[1][1]))
    a = [[padd(dict(ONE) if i == j else {}, m[i][j], -1) for j in range(s - 1)]
         for i in range(s - 1)]
    return normalise_knot(_det(a))


def pretzel_alexander(q1: int, q2: int, q3: int) -> dict:
    """Odd three-band pretzel: a t + (1 - 2a) + a t^-1,
    a = (q1 q2 + q2 q3 + q3 q1 + 1) / 4."""
    a = (q1 * q2 + q2 * q3 + q3 * q1 + 1) // 4
    return {e: c for e, c in {1: a, 0: 1 - 2 * a, -1: a}.items() if c}


def twist_alexander(n: int) -> dict:
    return pretzel_alexander(2 * n - 1, 1, 1)


def torus_word(p: int, q: int) -> list:
    return list(range(1, p)) * q


TREFOIL = {1: 1, 0: -1, -1: 1}
FIGURE8 = {1: -1, 0: 3, -1: -1}

# Delta of every entry of the bundled knot table, by the name's knot type.
TABLE_ALEXANDER = {
    "trefoil": TREFOIL,
    "trefoil_left": TREFOIL,
    "figure8": FIGURE8,
    "twist2": twist_alexander(2),
    "twist3": twist_alexander(3),
    "twist4": twist_alexander(4),
    "torus_2_5": burau_alexander(torus_word(2, 5), 2),
    "torus_2_7": burau_alexander(torus_word(2, 7), 2),
    "torus_2_9": burau_alexander(torus_word(2, 9), 2),
    "torus_3_4": burau_alexander(torus_word(3, 4), 3),
    "pretzel_3_1_1": pretzel_alexander(3, 1, 1),
    "pretzel_1_3_1": pretzel_alexander(1, 3, 1),
    "pretzel_3_3_1": pretzel_alexander(3, 3, 1),
    "pretzel_3_3_3": pretzel_alexander(3, 3, 3),
    "granny": pmul(TREFOIL, TREFOIL),
    "square": pmul(TREFOIL, TREFOIL),
    "tref_fig8": pmul(TREFOIL, FIGURE8),
    "braid_neg_trefoil": TREFOIL,
    "braid_5_1": burau_alexander(torus_word(2, 5), 2),
    "braid_6_2": {2: -1, 1: 3, 0: -3, -1: 3, -2: -1},
    "braid_6_3": {2: 1, 1: -3, 0: 5, -1: -3, -2: 1},
}


# ---- Seiberg-Witten values ----

class SW:
    """num / den over t, times prod (e + e^-1) over the named classes."""

    __slots__ = ("num", "den", "classes", "kind")

    def __init__(self, num, den=None, classes=(), kind="closed"):
        self.num = num
        self.den = dict(ONE) if den is None else den
        self.classes = tuple(classes)
        self.kind = kind

    def reduced(self) -> "SW":
        if self.den == ONE:
            return self
        return SW(pdiv_exact(self.num, self.den), None, self.classes, self.kind)

    def scaled(self, factor: dict) -> "SW":
        return SW(pmul(self.num, factor), self.den, self.classes, self.kind)

    def relative(self) -> "SW":
        return SW(pmul(self.num, NECK), self.den, self.classes, "relative")

    def same_value(self, other: "SW") -> bool:
        a, b = self.reduced(), other.reduced()
        return a.num == b.num and sorted(a.classes) == sorted(b.classes)


def sw_elliptic(n: int) -> SW:
    return SW(bracket_power(1, n - 2))


def glue(a: SW, b: SW) -> SW:
    """Closed value of two glued relative pieces."""
    return SW(pmul(a.num, b.num), pmul(a.den, b.den),
              a.classes + b.classes).reduced()


def log_transform(sw: SW, r: int) -> SW:
    out = SW(pmul(psubst(sw.num, r), spread(r)), psubst(sw.den, r),
             sw.classes, sw.kind)
    try:
        return out.reduced()
    except ValueError:
        return out


def double_log_transform(n: int, r: int, s: int) -> SW:
    """(t^(rs) - t^(-rs))^n / ((t^r - t^-r)(t^s - t^-s))."""
    num = bracket_power(r * s, n)
    return SW(pdiv_exact(num, pmul(bracket_power(r, 1), bracket_power(s, 1))))


def postorder(root, done):
    """Nodes of a build tree not yet in done (keyed by id), each after its
    operands. Iterative, so chains thousands deep are fine; a shared node
    is yielded once if the caller records it in done."""
    stack = [(root, False)]
    while stack:
        node, ready = stack.pop()
        if id(node) in done:
            continue
        if ready:
            yield node
            continue
        stack.append((node, True))
        op = node[0]
        kids = ((node[1], node[2]) if op == "fiber_sum"
                else () if op == "E" else (node[1],))
        stack.extend((k, False) for k in kids if id(k) not in done)


def manifold_sw(root, alexander, done=None) -> SW:
    """SW value of a build tree, with every blowup given its own classes.

    A node is a tuple: ("E", n), ("fiber_sum", a, b), ("blowup", a, k),
    ("knot_surgery", a, knot) or ("torus_surgery", a, r); alexander(knot)
    gives Delta of a knot operand. Shared subtrees are evaluated once. A
    value is held as (t - t^-1)^a * P(t) until a log transform or the end
    expands it, so a fiber-sum ladder costs a single binomial expansion.
    The returned classes are named E1, E2, ... in walk order. done may
    carry node values over from earlier calls on trees that share nodes;
    the caller keeps those nodes alive.
    """
    if done is None:
        done = {}
    for node in postorder(root, done):
        op = node[0]
        if op == "E":
            val = (node[1] - 2, ONE, 0)
        elif op == "fiber_sum":
            # rel = SW * (t^-1 - t) = -SW * (t - t^-1) on each side
            (a1, p1, k1), (a2, p2, k2) = done[id(node[1])], done[id(node[2])]
            val = (a1 + a2 + 2, pmul(p1, p2), k1 + k2)
        else:
            a, p, k = done[id(node[1])]
            if op == "blowup":
                val = (a, p, k + node[2])
            elif op == "knot_surgery":
                val = (a, pmul(p, psubst(alexander(node[2]), 2)), k)
            elif op == "torus_surgery":
                r = node[2]
                p = pmul(pmul(psubst(bracket_power(1, a), r), psubst(p, r)),
                         spread(r))
                val = (0, p, k)
            else:
                raise ValueError(f"unknown node {op!r}")
        done[id(node)] = val
    a, p, k = done[id(root)]
    return SW(pmul(bracket_power(1, a), p),
              classes=tuple(f"E{i}" for i in range(1, k + 1)))


# ---- canonical text of a value (the calculator's print format) ----

def _fmt_power(name: str, e: int) -> str:
    return name if e == 1 else f"{name}^{e}"


def expanded_terms(sw: SW, part: str = "num"):
    """(basis, [(exponent vector, coefficient)]) of num or den, expanded
    over the classes; the basis is the sorted names plus t."""
    poly = getattr(sw, part)
    basis = tuple(sorted(set(sw.classes) | {"t"}))
    ti = basis.index("t")
    cls_idx = [basis.index(c) for c in sw.classes] if part == "num" else []
    terms = []
    for e, c in poly.items():
        for mask in range(1 << len(cls_idx)):
            vec = [0] * len(basis)
            vec[ti] = e
            for bit, j in enumerate(cls_idx):
                vec[j] = -1 if mask >> bit & 1 else 1
            terms.append((tuple(vec), c))
    return basis, terms


def format_terms(basis, terms) -> str:
    if not terms:
        return "0"
    pieces = []
    for vec, c in sorted(terms, reverse=True):
        powers = [_fmt_power(n, e) for n, e in zip(basis, vec) if e]
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


def format_poly(p: dict) -> str:
    return format_terms(("t",), [((e,), c) for e, c in p.items()])


def format_sw(sw: SW) -> str:
    basis, num = expanded_terms(sw, "num")
    text = format_terms(basis, num)
    if sw.den == ONE:
        return text
    _, den = expanded_terms(sw, "den")
    return f"({text}) / ({format_terms(basis, den)})"
