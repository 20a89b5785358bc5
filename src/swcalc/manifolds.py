"""Simply connected 4-manifolds as build trees with classical invariants.

A manifold here is a description: a primitive (projective plane, quadric,
elliptic surface, Horikawa surface) or an operation node (connected sum,
blowup, fiber sum, torus surgery, knot surgery, rational blowdown,
orientation reversal) over parent descriptions. Classical invariants are
computed eagerly at construction and never touched again; the Seiberg-Witten
layer walks the same tree separately.

Invariant conventions: e is the Euler characteristic, sigma the signature,
chi_h = (e + sigma)/4 the holomorphic Euler characteristic (a Fraction when
not integral, which legitimately happens, e.g. for the reversed projective
plane), c = 3 sigma + 2e the would-be c_1^2, and parity t is 0 for even
intersection form, 1 for odd. For simply connected manifolds spin and
t == 0 coincide, and homeomorphism type is decided by (e, sigma, t).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Tuple, Union

from .errors import (
    InvalidParameters,
    LabelMismatch,
    NonIntegralResult,
    NotAKnot,
    NotSimplyConnected,
    UnknownLabel,
)
from .knots import LinkDiagram

__all__ = [
    "CharInvariants",
    "SurfaceLabel",
    "ManifoldDesc",
    "cp2",
    "cp2_bar",
    "s2xs2",
    "elliptic",
    "horikawa",
    "connected_sum",
    "blowup",
    "fiber_sum",
    "torus_surgery",
    "knot_surgery",
    "rational_blowdown",
    "reverse_orientation",
    "branched_cover_pair",
    "homeo_equal",
]


@dataclass(frozen=True)
class CharInvariants:
    """The classical package: (e, sigma, parity t, simply connected)."""

    euler: int
    sigma: int
    parity: int
    simply_connected: bool = True

    def __post_init__(self):
        if self.parity not in (0, 1):
            raise InvalidParameters("parity t must be 0 (even) or 1 (odd)")
        if self.simply_connected:
            b2 = self.euler - 2
            if b2 < 0 or (b2 + self.sigma) % 2 != 0:
                raise InvalidParameters(
                    f"(e, sigma) = ({self.euler}, {self.sigma}) is not a "
                    f"simply connected second Betti pattern")
            if abs(self.sigma) > b2:
                raise InvalidParameters(
                    f"|sigma| = {abs(self.sigma)} exceeds b2 = {b2}")

    @property
    def b2(self) -> int:
        return self.euler - 2

    @property
    def b_plus(self) -> int:
        return (self.b2 + self.sigma) // 2

    @property
    def b_minus(self) -> int:
        return (self.b2 - self.sigma) // 2

    @property
    def chi_h(self) -> Union[int, Fraction]:
        q, rem = divmod(self.euler + self.sigma, 4)
        return Fraction(self.euler + self.sigma, 4) if rem else q

    @property
    def c(self) -> int:
        return 3 * self.sigma + 2 * self.euler

    @property
    def spin(self) -> bool:
        # for simply connected manifolds an even intersection form is spin
        return self.simply_connected and self.parity == 0

    @classmethod
    def from_c_chi(cls, c: int, chi_h: int, parity: int,
                   simply_connected: bool = True) -> "CharInvariants":
        return cls(12 * chi_h - c, c - 8 * chi_h, parity, simply_connected)


@dataclass(frozen=True)
class SurfaceLabel:
    """A tracked embedded surface: genus, self-intersection, and whether its
    class is characteristic (needed for parity of fiber sums)."""

    genus: int
    self_int: int
    characteristic: bool = False


@dataclass(frozen=True)
class ManifoldDesc:
    """A build-tree node. labels is a sorted tuple of (name, SurfaceLabel)."""

    op: str
    params: tuple
    parents: tuple
    invariants: CharInvariants
    labels: tuple = ()

    _hash = None    # not a field: set by __hash__ at first use

    def __hash__(self) -> int:
        # the generated hash would recurse once per level of the tree, so
        # hash the unhashed ancestors bottom-up, each node from its parents'
        # cached hashes, and cache every result
        stack = [self]
        while self._hash is None:
            node = stack[-1]
            todo = [p for p in node.parents if p._hash is None]
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            object.__setattr__(node, "_hash", hash((
                node.op, node.params, tuple(p._hash for p in node.parents),
                node.invariants, node.labels)))
        return self._hash

    def __eq__(self, other) -> bool:
        # the generated == would recurse once per level of the tree, so
        # compare pairs of nodes from a stack, each pair once; equal cached
        # hashes are needed, and a shared node equals itself
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack, seen = [(self, other)], set()
        while stack:
            a, b = stack.pop()
            if a is b or (id(a), id(b)) in seen:
                continue
            seen.add((id(a), id(b)))
            if (a._hash is not None and b._hash is not None
                    and a._hash != b._hash):
                return False
            if (a.op, a.params, a.invariants, a.labels, len(a.parents)) != (
                    b.op, b.params, b.invariants, b.labels, len(b.parents)):
                return False
            stack.extend(zip(a.parents, b.parents))
        return True

    def label(self, name: str) -> SurfaceLabel:
        for key, lab in self.labels:
            if key == name:
                return lab
        raise UnknownLabel(f"no surface labeled {name!r} on this manifold")

    def labels_dict(self) -> dict:
        return dict(self.labels)

    # convenience passthroughs
    @property
    def euler(self) -> int:
        return self.invariants.euler

    @property
    def sigma(self) -> int:
        return self.invariants.sigma

    @property
    def chi_h(self):
        return self.invariants.chi_h

    @property
    def c(self) -> int:
        return self.invariants.c

    @property
    def parity(self) -> int:
        return self.invariants.parity

    @property
    def spin(self) -> bool:
        return self.invariants.spin


def _labels_tuple(mapping: Mapping[str, SurfaceLabel]) -> tuple:
    return tuple(sorted(mapping.items()))


# ---- primitives ----

def cp2() -> ManifoldDesc:
    """The complex projective plane: e = 3, sigma = 1, odd."""
    return ManifoldDesc("CP2", (), (), CharInvariants(3, 1, 1))


def cp2_bar() -> ManifoldDesc:
    """The reversed projective plane: e = 3, sigma = -1, odd."""
    return ManifoldDesc("CP2bar", (), (), CharInvariants(3, -1, 1))


def s2xs2() -> ManifoldDesc:
    """The quadric: e = 4, sigma = 0, even (spin)."""
    return ManifoldDesc("S2xS2", (), (), CharInvariants(4, 0, 0))


def elliptic(n: int) -> ManifoldDesc:
    """The simply connected elliptic surface E(n) without multiple fibers.

    e = 12n, sigma = -8n, parity n mod 2. Carries a fiber label F (torus of
    square 0, characteristic exactly when n is odd) and a section label S
    (sphere of square -n).
    """
    if n < 1:
        raise InvalidParameters("elliptic surfaces E(n) need n >= 1")
    inv = CharInvariants(12 * n, -8 * n, n % 2)
    labels = _labels_tuple({
        "F": SurfaceLabel(1, 0, characteristic=(n % 2 == 1)),
        "S": SurfaceLabel(0, -n),
    })
    return ManifoldDesc("E", (n,), (), inv, labels)


def horikawa(m: int, n: int) -> ManifoldDesc:
    """Horikawa-type surface with c = 4(m-2)(n-2), chi_h = (m-1)(n-1) + 1.

    For min(m, n) >= 3 these are odd minimal general-type surfaces; the
    family H(3, n) walks the Noether line c = 2 chi_h - 6. A degenerate
    index of 2 gives back the elliptic surface E(k) with its parity.
    """
    if m < 2 or n < 2:
        raise InvalidParameters("Horikawa parameters need m, n >= 2")
    c = 4 * (m - 2) * (n - 2)
    chi = (m - 1) * (n - 1) + 1
    if m == 2 or n == 2:
        k = chi  # the elliptic degeneration: chi_h determines E(k)
        parity = k % 2
    else:
        parity = 1
    return ManifoldDesc("H", (m, n), (),
                        CharInvariants.from_c_chi(c, chi, parity))


# ---- operations ----

def _require_sc(*ms: ManifoldDesc) -> None:
    for m in ms:
        if not m.invariants.simply_connected:
            raise NotSimplyConnected(
                "operation implemented for simply connected summands only")


def connected_sum(a: ManifoldDesc, b: ManifoldDesc) -> ManifoldDesc:
    """Connected sum: e adds minus 2, sigma adds, parity is the or.

    Labels survive from both sides; a name collision renames the right
    label with a _2 suffix.
    """
    _require_sc(a, b)
    inv = CharInvariants(a.euler + b.euler - 2, a.sigma + b.sigma,
                         a.parity | b.parity)
    labels = a.labels_dict()
    for name, lab in b.labels:
        key = name if name not in labels else name + "_2"
        while key in labels:
            key += "_2"
        labels[key] = lab
    return ManifoldDesc("connected_sum", (), (a, b), inv,
                        _labels_tuple(labels))


def blowup(a: ManifoldDesc, k: int = 1) -> ManifoldDesc:
    """Blow up k points: adds k reversed planes, labels the new spheres
    E1, E2, ... (continuing past any existing E-labels).

    The canonical class moves, so surviving labels lose their
    characteristic flag.
    """
    _require_sc(a)
    if k < 1:
        raise InvalidParameters("blowup count must be >= 1")
    inv = CharInvariants(a.euler + k, a.sigma - k, 1)
    labels = {name: (lab if not lab.characteristic
                     else SurfaceLabel(lab.genus, lab.self_int, False))
              for name, lab in a.labels}
    idx = 1
    added = 0
    while added < k:
        name = f"E{idx}"
        idx += 1
        if name in labels:
            continue
        labels[name] = SurfaceLabel(0, -1)
        added += 1
    return ManifoldDesc("blowup", (k,), (a,), inv, _labels_tuple(labels))


def fiber_sum(a: ManifoldDesc, b: ManifoldDesc, label_a: str = "F",
              label_b: Optional[str] = None) -> ManifoldDesc:
    """Fiber sum along square-zero tori (genus-1 surface labels).

    c and chi_h add (the genus-g terms 8g - 8 and g - 1 vanish at g = 1).
    The sum is spin exactly when both sides are spin or both glued surfaces
    are characteristic; the glued surface stays characteristic when one
    side was spin and the other surface characteristic. Section labels and
    the rest do not survive.
    """
    _require_sc(a, b)
    if label_b is None:
        label_b = label_a
    la = a.label(label_a)
    lb = b.label(label_b)
    if la.genus != 1 or lb.genus != 1:
        raise LabelMismatch(
            "fiber sum at genus 1, labels have genus "
            f"{la.genus} and {lb.genus}")
    if la.self_int != 0 or lb.self_int != 0:
        raise LabelMismatch("fiber sum needs square-zero surfaces")
    c = a.c + b.c
    chi = a.chi_h + b.chi_h
    if not isinstance(chi, int):
        raise NonIntegralResult(f"chi_h of the sum is {chi}")
    spin_pair = a.spin and b.spin
    char_pair = la.characteristic and lb.characteristic
    parity = 0 if (spin_pair or char_pair) else 1
    new_char = (a.spin and lb.characteristic) or (la.characteristic and b.spin)
    inv = CharInvariants.from_c_chi(c, chi, parity)
    labels = {label_a: SurfaceLabel(1, 0, new_char)}
    return ManifoldDesc("fiber_sum", (label_a, label_b), (a, b), inv,
                        _labels_tuple(labels))


def torus_surgery(a: ManifoldDesc, label: str, p: int, q: int,
                  r: int) -> ManifoldDesc:
    """Surgery on a square-zero torus with multiplicity r.

    Classical invariants are untouched. Evenness survives only odd
    multiplicities: t = 0 flips to 1 when r is even. The label survives as
    the core torus (its characteristic flag is dropped).
    """
    _require_sc(a)
    lab = a.label(label)
    if lab.genus != 1 or lab.self_int != 0:
        raise LabelMismatch("torus surgery needs a genus-1 square-zero label")
    if (p, q, r) == (0, 0, 0):
        raise InvalidParameters("surgery triple (0,0,0) is not a surgery")
    if r < 0:
        raise InvalidParameters("multiplicity r must be >= 0")
    parity = a.parity
    if parity == 0 and r % 2 == 0:
        parity = 1
    inv = CharInvariants(a.euler, a.sigma, parity)
    labels = a.labels_dict()
    labels[label] = SurfaceLabel(1, 0, False)
    return ManifoldDesc("torus_surgery", (label, p, q, r), (a,), inv,
                        _labels_tuple(labels))


def knot_surgery(a: ManifoldDesc, label: str,
                 knot: LinkDiagram) -> ManifoldDesc:
    """Knot surgery on a square-zero torus: classical invariants unchanged."""
    _require_sc(a)
    lab = a.label(label)
    if lab.genus != 1 or lab.self_int != 0:
        raise LabelMismatch("knot surgery needs a genus-1 square-zero label")
    if knot.component_count() != 1:
        raise NotAKnot("knot surgery takes a one-component diagram")
    return ManifoldDesc("knot_surgery", (label, knot), (a,), a.invariants,
                        a.labels)


def rational_blowdown(a: ManifoldDesc, p: int,
                      result_parity: Optional[int] = None,
                      consume: Sequence[str] = ()) -> ManifoldDesc:
    """Rational blowdown of the standard C_p sphere configuration.

    Trades p - 1 negative classes for a rational ball: e and b_minus drop
    by p - 1, sigma rises by p - 1, chi_h is unchanged and c rises by
    p - 1. The parity of the result is not determined by this data; it
    defaults to odd and can be overridden. Labels in consume are removed;
    survivors lose their characteristic flag.
    """
    _require_sc(a)
    if p < 2:
        raise InvalidParameters("rational blowdown needs p >= 2")
    if a.invariants.b_minus < p - 1:
        raise InvalidParameters(
            f"not enough negative classes: b- = {a.invariants.b_minus}, "
            f"configuration needs {p - 1}")
    parity = 1 if result_parity is None else result_parity
    inv = CharInvariants(a.euler - (p - 1), a.sigma + (p - 1), parity)
    labels = a.labels_dict()
    for name in consume:
        if name not in labels:
            raise UnknownLabel(f"no surface labeled {name!r} to consume")
        del labels[name]
    labels = {name: SurfaceLabel(lab.genus, lab.self_int, False)
              for name, lab in labels.items()}
    return ManifoldDesc("rational_blowdown", (p,), (a,), inv,
                        _labels_tuple(labels))


def reverse_orientation(a: ManifoldDesc) -> ManifoldDesc:
    """Reverse orientation: sigma and every self-intersection flip sign."""
    inv = CharInvariants(a.euler, -a.sigma, a.parity,
                         a.invariants.simply_connected)
    labels = {name: SurfaceLabel(lab.genus, -lab.self_int, lab.characteristic)
              for name, lab in a.labels}
    return ManifoldDesc("reverse", (), (a,), inv, _labels_tuple(labels))


def branched_cover_pair(base: Union[ManifoldDesc, CharInvariants, Tuple[int, int]],
                        degree: int, branch_euler: int,
                        branch_square: int) -> Tuple[int, int]:
    """(c, chi_h) of a cyclic branched cover from base data and branch curve.

    Uses e_X = d e_Y - (d-1) e_B and
    sigma_X = d sigma_Y - (d^2 - 1) B^2 / (3d), all over exact fractions;
    raises NonIntegralResult when the data is not consistent with a cover.
    The parity of the cover is not determined by this arithmetic, so only
    the pair is returned.
    """
    if degree < 2:
        raise InvalidParameters("cover degree must be >= 2")
    if isinstance(base, ManifoldDesc):
        e_y, s_y = base.euler, base.sigma
    elif isinstance(base, CharInvariants):
        e_y, s_y = base.euler, base.sigma
    else:
        c_y, chi_y = base
        e_y, s_y = 12 * chi_y - c_y, c_y - 8 * chi_y
    d = degree
    e_x = Fraction(d * e_y - (d - 1) * branch_euler)
    s_x = d * s_y - Fraction((d * d - 1) * branch_square, 3 * d)
    c = 3 * s_x + 2 * e_x
    chi = (e_x + s_x) / 4
    if c.denominator != 1 or chi.denominator != 1:
        raise NonIntegralResult(
            f"cover invariants (c, chi_h) = ({c}, {chi}) are not integers")
    return int(c), int(chi)


def homeo_equal(a: ManifoldDesc, b: ManifoldDesc) -> bool:
    """Same homeomorphism type: (e, sigma, t) agree (simply connected only)."""
    if not (a.invariants.simply_connected and b.invariants.simply_connected):
        raise NotSimplyConnected(
            "homeomorphism comparison implemented for simply connected "
            "manifolds only")
    return (a.euler, a.sigma, a.parity) == (b.euler, b.sigma, b.parity)
