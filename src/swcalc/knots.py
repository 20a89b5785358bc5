"""Planar diagram codes, knot builders, and two Alexander polynomial engines.

Diagram conventions
-------------------
A crossing is X(a, b, c, d): the four arc labels counterclockwise around
the crossing starting at the incoming under-strand a. The under-strand
runs a -> c. The over-strand occupies b and d; its direction is stored
explicitly (over_from_b: True means the over-strand enters at b and
leaves at d). A crossing is positive exactly when the over-strand enters
at b.

PD text input follows the usual successor convention: within each link
component the arcs are labeled consecutively along the orientation
(cyclically), so the under-strand must run a -> succ(a) and the
over-strand direction is whichever of b -> d / d -> b is compatible
with the successor map. When both are (a two-arc component), the
positive reading wins. One consequence: the one-crossing negative kink
has no PD text form, since its only candidate encoding X(1,1,2,2) gives
arc 1 two incoming ends; builders create such diagrams directly.

Both Alexander engines return the symmetric normalization with value +1 at
t = 1 (for knots). They share no code beyond the polynomial type: the skein
engine resolves diagrams against descending form, the Fox engine runs
Wirtinger calculus and a fraction-free (Bareiss) determinant, polynomial
time in the crossing count. Keeping the routes independent is the point; do
not "simplify" one in terms of the other. Each skein node makes one pass
over its crossings; the components it yields feed the split test and the
memo key, and its head slots the walk to the first crossing met under-first.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from typing import Mapping, Optional, Sequence

from .errors import (
    InvalidParameters,
    InvalidPD,
    NotAKnot,
    ParseError,
    ResourceLimit,
)
from .laurent import LaurentPoly, VarBasis, exact_div

__all__ = [
    "LinkDiagram",
    "parse_pd",
    "to_pd",
    "braid_closure",
    "torus_knot",
    "pretzel",
    "twist_knot",
    "unknot",
    "trefoil",
    "figure_eight",
    "hopf_link",
    "mirror",
    "connect_sum",
    "canonical_form",
    "alexander_skein",
    "skein_resolution",
    "ResolutionNode",
    "alexander_fox",
    "load_knot_table",
    "SKEIN_BASIS",
]

SKEIN_BASIS = VarBasis(("t",))

DEFAULT_NODE_BUDGET = 10 ** 6


@dataclass(frozen=True)
class LinkDiagram:
    """An oriented link diagram: crossings plus crossing-free loops.

    crossings[i] is the arc tuple (a, b, c, d); over_from_b[i] records the
    over-strand direction at crossing i. free_loops counts closed components
    that meet no crossing.
    """

    crossings: tuple
    over_from_b: tuple
    free_loops: int = 0

    def __post_init__(self):
        if len(self.crossings) != len(self.over_from_b):
            raise InvalidPD("crossing/direction lists differ in length")
        if self.free_loops < 0:
            raise InvalidPD("negative free loop count")

    # ---- basic structure ----

    @property
    def n_crossings(self) -> int:
        return len(self.crossings)

    def arcs(self) -> list:
        seen = set()
        for cr in self.crossings:
            seen.update(cr)
        return sorted(seen)

    def sign(self, i: int) -> int:
        return 1 if self.over_from_b[i] else -1

    def over_in(self, i: int) -> int:
        a, b, c, d = self.crossings[i]
        return b if self.over_from_b[i] else d

    def over_out(self, i: int) -> int:
        a, b, c, d = self.crossings[i]
        return d if self.over_from_b[i] else b

    def under_in(self, i: int) -> int:
        return self.crossings[i][0]

    def under_out(self, i: int) -> int:
        return self.crossings[i][2]

    def validate(self) -> "LinkDiagram":
        """Check the structural invariants; return self for chaining."""
        count = _arc_counts(self.crossings)
        heads, tails = {}, {}
        for i in range(self.n_crossings):
            for arc in (self.under_in(i), self.over_in(i)):
                heads[arc] = heads.get(arc, 0) + 1
            for arc in (self.under_out(i), self.over_out(i)):
                tails[arc] = tails.get(arc, 0) + 1
        for arc in count:
            if heads.get(arc, 0) != 1 or tails.get(arc, 0) != 1:
                raise InvalidPD(
                    f"arc {arc} appears with inconsistent orientation roles")
        return self

    # ---- traversal helpers ----

    def _walk(self) -> tuple:
        """One pass over the crossings: (heads, components()), or InvalidPD
        when a strand does not close. heads maps each arc to (crossing index,
        whether it ends there as under-strand)."""
        heads = {}
        succ = {}
        for i, ((a, b, c, d), from_b) in enumerate(
                zip(self.crossings, self.over_from_b)):
            over_in, over_out = (b, d) if from_b else (d, b)
            heads[a], heads[over_in] = (i, True), (i, False)
            succ[a], succ[over_in] = c, over_out
        cycles = []
        for start in sorted(succ):
            cyc, cur = [], start
            while cur in succ:
                cyc.append(cur)
                cur = succ.pop(cur)
            if cur != start:
                raise InvalidPD(f"the strand leaving arc {start} never closes")
            if cyc:
                cycles.append(tuple(cyc))
        return heads, cycles

    def components(self) -> list:
        """Arc cycles, one per link component meeting a crossing.

        Each cycle starts at its smallest arc and follows the orientation.
        Free loops are not listed (they have no arcs); component_count
        includes them. The same pass gives the skein engine its head slots.
        """
        return self._walk()[1]

    def component_count(self) -> int:
        return len(self.components()) + self.free_loops

    # ---- local moves ----

    def switch(self, i: int) -> "LinkDiagram":
        """Reverse which strand is on top at crossing i."""
        a, b, c, d = self.crossings[i]
        if self.over_from_b[i]:
            new_cr, new_flag = (b, c, d, a), False
        else:
            new_cr, new_flag = (d, a, b, c), True
        crossings = list(self.crossings)
        flags = list(self.over_from_b)
        crossings[i] = new_cr
        flags[i] = new_flag
        return LinkDiagram(tuple(crossings), tuple(flags), self.free_loops)

    def smooth(self, i: int) -> "LinkDiagram":
        """Oriented resolution of crossing i (both strands pass, no crossing)."""
        a, b, c, d = self.crossings[i]
        oi, oo = (b, d) if self.over_from_b[i] else (d, b)
        crossings = self.crossings[:i] + self.crossings[i + 1:]
        flags = self.over_from_b[:i] + self.over_from_b[i + 1:]
        loops = self.free_loops
        relabel = {}
        # incoming under joins outgoing over, incoming over joins outgoing under
        if a == oo:
            loops += 1
        else:
            relabel[oo] = a
        if oi == c:
            loops += 1
        else:
            relabel[c] = oi
        if relabel:
            g = relabel.get
            crossings = tuple([(g(p, p), g(q, q), g(r, r), g(s, s))
                               for p, q, r, s in crossings])
        return LinkDiagram(crossings, flags, loops)

    def mirror(self) -> "LinkDiagram":
        d = self
        for i in range(self.n_crossings):
            d = d.switch(i)
        return d

    def relabeled(self, mapping: Mapping[int, int]) -> "LinkDiagram":
        crossings = tuple(tuple(mapping.get(x, x) for x in cr)
                          for cr in self.crossings)
        return LinkDiagram(crossings, self.over_from_b, self.free_loops)

    def reduce_kinks(self) -> "LinkDiagram":
        """Remove reducible one-crossing curls until none remain.

        Smoothing a curl drops its crossing and closes the curl into a free
        loop of its own; removing the curl is that smoothing less the loop.
        """
        d = self
        while True:
            for i, ((a, b, c, e), from_b) in enumerate(
                    zip(d.crossings, d.over_from_b)):
                over_in, over_out = (b, e) if from_b else (e, b)
                if c == over_in or a == over_out:
                    break
            else:
                return d
            d = d.smooth(i)
            d = LinkDiagram(d.crossings, d.over_from_b, d.free_loops - 1)

    def is_split_as_drawn(self) -> bool:
        """True when the diagram visibly splits, read off components(): a free
        loop beside crossings, or components no chain of crossings joins."""
        return _split_as_drawn(self, self.components())

    def __str__(self) -> str:
        return to_pd(self)


def _arc_counts(crossings) -> dict:
    """arc -> number of crossing slots it fills; raises InvalidPD unless
    each crossing keeps its two strands apart and every arc fills two."""
    count: dict = {}
    for idx, (a, b, c, d) in enumerate(crossings):
        if a == c or b == d:
            raise InvalidPD(f"crossing {idx} reuses an arc on one strand")
        for arc in (a, b, c, d):
            count[arc] = count.get(arc, 0) + 1
    for arc, n in count.items():
        if n != 2:
            raise InvalidPD(f"arc {arc} appears {n} times, expected 2")
    return count


# ---- PD text ----

_PD_CROSSING_RE = re.compile(
    r"X\s*\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)")


def parse_pd(text: str) -> LinkDiagram:
    """Parse PD notation like "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)".

    Raises InvalidPD when the code violates the conventions documented at
    the top of this module.
    """
    pos = 0
    raw = []
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _PD_CROSSING_RE.match(text, pos)
        if not m:
            raise InvalidPD(f"unreadable PD text at offset {pos}")
        raw.append(tuple(int(g) for g in m.groups()))
        pos = m.end()
    if not raw:
        raise InvalidPD("empty PD code")

    count = _arc_counts(raw)

    # link components: cycles of the arc graph with an edge per strand passage
    adjacency: dict = {arc: [] for arc in count}
    for a, b, c, d in raw:
        adjacency[a].append(c)
        adjacency[c].append(a)
        adjacency[b].append(d)
        adjacency[d].append(b)
    comp_of: dict = {}
    for start in sorted(adjacency):
        if start in comp_of:
            continue
        group = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adjacency[x]:
                if y not in group:
                    group.add(y)
                    stack.append(y)
        members = sorted(group)
        succ_map = {members[i]: members[(i + 1) % len(members)]
                    for i in range(len(members))}
        for x in members:
            comp_of[x] = succ_map

    def succ(x: int) -> int:
        return comp_of[x][x]

    flags = []
    for idx, (a, b, c, d) in enumerate(raw):
        if comp_of[a] is not comp_of[c]:
            raise InvalidPD(
                f"under-strand of crossing {idx} changes component")
        if succ(a) != c:
            raise InvalidPD(
                f"under-strand of crossing {idx} runs {a} -> {c}, "
                f"but the component order requires {a} -> {succ(a)}")
        if comp_of[b] is not comp_of[d]:
            raise InvalidPD(
                f"over-strand of crossing {idx} changes component")
        if succ(b) == d:
            flags.append(True)
        elif succ(d) == b:
            flags.append(False)
        else:
            raise InvalidPD(
                f"over-strand arcs {b}, {d} of crossing {idx} are not "
                f"consecutive along their component")

    diagram = LinkDiagram(tuple(raw), tuple(flags), 0)
    return diagram.validate()


def to_pd(diagram: LinkDiagram) -> str:
    """Render as PD text with arcs relabeled consecutively along components.

    Raises InvalidPD for diagrams PD text cannot express (free loops, or the
    degenerate two-arc negative kink).
    """
    if diagram.free_loops:
        raise InvalidPD("free loops are not expressible in PD text")
    if diagram.n_crossings == 0:
        raise InvalidPD("empty diagram has no PD text")
    out = canonical_form(diagram)
    text = " ".join("X({},{},{},{})".format(*cr) for cr in out.crossings)
    if parse_pd(text) != out:
        raise InvalidPD("diagram is not expressible in PD text")
    return text


# ---- builders ----

def unknot() -> LinkDiagram:
    return LinkDiagram((), (), 1)


def braid_closure(word: Sequence[int], strands: Optional[int] = None) -> LinkDiagram:
    """Close a braid word; letters are nonzero ints, sign = crossing sense.

    Letter +i crosses strand i over strand i+1 (1-indexed), -i the reverse.
    Unused strands close into free loops.
    """
    word = list(word)
    for w in word:
        if not isinstance(w, int) or w == 0:
            raise InvalidParameters(f"braid letter {w!r} must be a nonzero int")
    width = max((abs(w) for w in word), default=0) + 1
    if strands is not None:
        if strands < width:
            raise InvalidParameters(
                f"braid word needs {width} strands, got {strands}")
        width = strands
    initial = list(range(1, width + 1))
    pos = list(initial)
    nxt = width + 1
    crossings = []
    flags = []
    for w in word:
        i = abs(w) - 1
        u, v = pos[i], pos[i + 1]
        wnew, znew = nxt, nxt + 1
        nxt += 2
        if w > 0:
            # strand i over strand i+1: under enters at v
            crossings.append((v, u, wnew, znew))
            flags.append(True)
        else:
            crossings.append((u, wnew, znew, v))
            flags.append(False)
        pos[i], pos[i + 1] = wnew, znew
    # closure: identify final positions with initial arcs
    relabel = {}
    loops = 0
    for init, fin in zip(initial, pos):
        if init == fin:
            loops += 1  # strand never crossed anything
        else:
            relabel[fin] = init
    crossings = [tuple(relabel.get(x, x) for x in cr) for cr in crossings]
    return LinkDiagram(tuple(crossings), tuple(flags), loops).validate()


def torus_knot(p: int, q: int) -> LinkDiagram:
    """Closure of (s1 s2 ... s(p-1))^q; a knot exactly when gcd(p, q) = 1."""
    if p < 2 or q < 1:
        raise InvalidParameters("torus parameters need p >= 2, q >= 1")
    return braid_closure(list(range(1, p)) * q)


def trefoil() -> LinkDiagram:
    return braid_closure([1, 1, 1])


def figure_eight() -> LinkDiagram:
    return braid_closure([1, -2, 1, -2])


def hopf_link() -> LinkDiagram:
    return braid_closure([1, 1])


def pretzel(q1: int, q2: int, q3: int) -> LinkDiagram:
    """Three-band pretzel with odd twist counts (a knot).

    Each band holds |q_i| crossings between two antiparallel strands; the
    sign picks the twist handedness. Only the all-odd three-band case is
    supported, which is what the twist-knot family needs.
    """
    qs = (q1, q2, q3)
    for q in qs:
        if not isinstance(q, int) or q == 0 or q % 2 == 0:
            raise InvalidParameters(
                f"pretzel twist counts must be odd nonzero ints, got {qs}")
    # shared arcs: top[j] joins band j's right top to band j+1's left top,
    # bottom[j] the same along the bottom (cyclic, j = 0,1,2)
    top = [1, 2, 3]
    bottom = [4, 5, 6]
    nxt = 7
    crossings = []
    flags = []
    for j, q in enumerate(qs):
        n = abs(q)
        down = [0] * (n + 1)   # down-strand pieces, top to bottom
        up = [0] * (n + 1)     # up-strand pieces, indexed by level above
        down[0] = top[(j - 1) % 3]   # enters at the band's top left
        up[0] = top[j]               # leaves at the band's top right
        # odd n: the down strand exits bottom right, the up strand enters
        # bottom left
        up[n] = bottom[(j - 1) % 3]
        down[n] = bottom[j]
        for i in range(1, n):
            down[i] = nxt
            up[i] = nxt + 1
            nxt += 2
        for i in range(1, n + 1):
            if q > 0:
                if i % 2 == 1:
                    crossings.append((up[i], down[i], up[i - 1], down[i - 1]))
                else:
                    crossings.append((down[i - 1], up[i - 1], down[i], up[i]))
                flags.append(False)
            else:
                if i % 2 == 1:
                    crossings.append((down[i - 1], up[i], down[i], up[i - 1]))
                else:
                    crossings.append((up[i], down[i - 1], up[i - 1], down[i]))
                flags.append(True)
    return LinkDiagram(tuple(crossings), tuple(flags), 0).validate()


def twist_knot(n: int) -> LinkDiagram:
    """The n-th positive twist knot: trefoil, 5_2, 7_2, ... as pretzels.

    twist_knot(n) is the (2n-1, 1, 1) pretzel; its Alexander polynomial is
    n t - (2n - 1) + n t^-1.
    """
    if n < 1:
        raise InvalidParameters("twist knots are indexed from 1")
    return pretzel(2 * n - 1, 1, 1)


def mirror(diagram: LinkDiagram) -> LinkDiagram:
    return diagram.mirror()


def connect_sum(d1: LinkDiagram, d2: LinkDiagram) -> LinkDiagram:
    """Connected sum of two knots (one component each)."""
    for d in (d1, d2):
        if d.component_count() != 1:
            raise NotAKnot("connected sum needs one-component diagrams")
    if d1.n_crossings == 0:
        return d2
    if d2.n_crossings == 0:
        return d1
    shift = max(d1.arcs()) + 1
    d2s = d2.relabeled({a: a + shift for a in d2.arcs()})
    x = max(d1.arcs())
    y = min(d2s.arcs())
    # swap the two heads: x now ends where y ended and vice versa
    xi, xunder = d1._walk()[0][x]
    yi, yunder = d2s._walk()[0][y]

    def replace_head(crossings, flags, idx, under, old, new):
        cr = list(crossings[idx])
        slot = 0 if under else 1 if flags[idx] else 3
        assert cr[slot] == old
        cr[slot] = new
        out = list(crossings)
        out[idx] = tuple(cr)
        return out

    crs1 = replace_head(list(d1.crossings), d1.over_from_b, xi, xunder, x, y)
    crs2 = replace_head(list(d2s.crossings), d2s.over_from_b, yi, yunder, y, x)
    return LinkDiagram(tuple(crs1) + tuple(crs2),
                       d1.over_from_b + d2s.over_from_b,
                       d1.free_loops + d2s.free_loops).validate()


# ---- canonical form ----

def canonical_form(diagram: LinkDiagram, *,
                   comps: Optional[list] = None) -> LinkDiagram:
    """Label normal form: arcs renumbered 1, 2, ... along each component in
    the order components() lists them, crossings sorted by (arcs, flag).

    The result is a relabeling of the diagram, so it has the same Alexander
    polynomial; the skein engine uses it as its memo key, and to_pd prints
    it. It is not an isomorphism invariant: the same diagram under other
    labels may get a different form. A caller that already holds
    diagram.components() may pass it as comps to skip that walk, as each
    skein node does; comps must then cover every arc (KeyError otherwise).
    """
    r: dict = {}
    for cyc in diagram.components() if comps is None else comps:
        for arc in cyc:
            r[arc] = len(r) + 1
    ordered = sorted(zip([(r[a], r[b], r[c], r[d])
                          for a, b, c, d in diagram.crossings],
                         diagram.over_from_b))
    return LinkDiagram(tuple(cr for cr, _ in ordered),
                       tuple(flag for _, flag in ordered),
                       diagram.free_loops)


# ---- skein engine ----

@dataclass
class ResolutionNode:
    """One node of the skein resolution tree.

    kind is "resolve" for internal nodes (with switch/smooth children) and
    one of "descending", "split" for leaves. value is the Alexander
    polynomial of this node's diagram.
    """

    diagram: LinkDiagram
    kind: str
    value: LaurentPoly
    crossing: Optional[int] = None
    sign: int = 0
    switch_child: Optional["ResolutionNode"] = None
    smooth_child: Optional["ResolutionNode"] = None

    def internal_nodes(self):
        if self.kind == "resolve":
            yield self
            yield from self.switch_child.internal_nodes()
            yield from self.smooth_child.internal_nodes()


_SKEIN_Z = LaurentPoly.from_terms(
    SKEIN_BASIS, [({"t": Fraction(1, 2)}, 1), ({"t": Fraction(-1, 2)}, -1)])
_ONE = LaurentPoly.one(SKEIN_BASIS)
_ZERO = LaurentPoly.zero(SKEIN_BASIS)


def _split_as_drawn(diagram: LinkDiagram, comps: list) -> bool:
    """is_split_as_drawn from comps, the diagram's components(): a knot
    with crossings never splits; otherwise union the components meeting at
    each crossing and split when more than one class is left."""
    if not diagram.crossings:
        return diagram.free_loops > 1
    if diagram.free_loops:
        return True
    if len(comps) == 1:
        return False
    comp_of = {arc: k for k, cyc in enumerate(comps) for arc in cyc}
    label = list(range(len(comps)))
    for a, b, _, _ in diagram.crossings:
        x, y = label[comp_of[a]], label[comp_of[b]]
        if x != y:
            label = [x if k == y else k for k in label]
    return len(set(label)) > 1


def _first_violation(heads: dict, comps: list) -> Optional[int]:
    """Index of the first crossing met under-first on the canonical walk
    along comps; heads and comps are one LinkDiagram._walk()."""
    over_first = set()
    for cyc in comps:
        for arc in cyc:
            i, under = heads[arc]
            if not under:
                over_first.add(i)
            elif i not in over_first:
                return i
    return None


def _leaf(d: LinkDiagram, knot: bool) -> ResolutionNode:
    return ResolutionNode(d, "descending" if knot else "split",
                          _ONE if knot else _ZERO)


class _SkeinState:
    __slots__ = ("memo", "budget", "used")

    def __init__(self, memo, budget):
        self.memo = memo if memo is not None else {}
        self.budget = budget
        self.used = 0


def _skein_eval(diagram: LinkDiagram, state: _SkeinState) -> ResolutionNode:
    state.used += 1
    if state.used > state.budget:
        raise ResourceLimit(
            f"skein resolution exceeded the node budget ({state.budget})")

    d = diagram.reduce_kinks()
    if not d.crossings:
        return _leaf(d, d.free_loops == 1)
    heads, comps = d._walk()     # one pass for every structural question
    if _split_as_drawn(d, comps):
        return ResolutionNode(d, "split", _ZERO)

    # the memo key is a relabeling of d, so equal keys mean diagrams that
    # differ only by labels and have the same polynomial. The walk below runs
    # on d's own labels: switching preserves them, so the first violation
    # moves strictly later and the resolution terminates
    ckey = canonical_form(d, comps=comps)
    key = (ckey.crossings, ckey.over_from_b, ckey.free_loops)
    hit = state.memo.get(key)
    if hit is not None:
        # a hit shares the subtree, so skein_resolution returns a DAG and
        # internal_nodes may yield a node more than once
        return hit

    violation = _first_violation(heads, comps)
    if violation is None:
        node = _leaf(d, len(comps) + d.free_loops == 1)
        state.memo[key] = node
        return node

    sign = d.sign(violation)
    switch_node = _skein_eval(d.switch(violation), state)
    smooth_node = _skein_eval(d.smooth(violation), state)
    z_smooth = _SKEIN_Z * smooth_node.value
    value = switch_node.value + (z_smooth if sign > 0 else -z_smooth)
    node = ResolutionNode(d, "resolve", value, crossing=violation, sign=sign,
                          switch_child=switch_node, smooth_child=smooth_node)
    state.memo[key] = node
    return node


def alexander_skein(diagram: LinkDiagram, *,
                    node_budget: int = DEFAULT_NODE_BUDGET,
                    memo: Optional[dict] = None) -> LaurentPoly:
    """Alexander polynomial via skein resolution against descending diagrams.

    Works for links; one-variable output over the basis ("t",), with
    half-integer exponents on even-component links. The Conway normalization
    is built in: the unknot gives 1 and split diagrams give 0.
    """
    state = _SkeinState(memo, node_budget)
    return _skein_eval(diagram, state).value


def skein_resolution(diagram: LinkDiagram, *,
                     node_budget: int = DEFAULT_NODE_BUDGET) -> ResolutionNode:
    """Full resolution tree for replaying the skein identity node by node."""
    state = _SkeinState(None, node_budget)
    return _skein_eval(diagram, state)


# ---- Fox calculus engine ----

def _fox_matrix(diagram: LinkDiagram):
    """Alexander matrix rows from the Wirtinger presentation.

    Wirtinger generators are overpass strands: PD edges merged wherever one
    passes over a crossing. One relation per crossing; the over generator
    column gets 1 - t (positive crossing) or 1 - 1/t (negative), the
    incoming under generator t (resp. 1/t), the outgoing under generator -1.
    Coinciding generators (kinks) sum their coefficients.
    """
    parent = {arc: arc for arc in diagram.arcs()}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(diagram.n_crossings):
        a, b = find(diagram.over_in(i)), find(diagram.over_out(i))
        if a != b:
            parent[max(a, b)] = min(a, b)

    reps = sorted({find(arc) for arc in parent})
    col = {rep: j for j, rep in enumerate(reps)}
    t = LaurentPoly.variable(SKEIN_BASIS, "t")
    t_inv = LaurentPoly.variable(SKEIN_BASIS, "t", -1)
    one = LaurentPoly.one(SKEIN_BASIS)
    zero = LaurentPoly.zero(SKEIN_BASIS)
    rows = []
    for i in range(diagram.n_crossings):
        coeffs: dict = {}

        def add(arc, val):
            j = col[find(arc)]
            coeffs[j] = coeffs.get(j, zero) + val

        if diagram.sign(i) > 0:
            add(diagram.over_in(i), one - t)
            add(diagram.under_in(i), t)
        else:
            add(diagram.over_in(i), one - t_inv)
            add(diagram.under_in(i), t_inv)
        add(diagram.under_out(i), -one)
        rows.append(coeffs)
    return rows, len(reps)


def _det(rows: list, cols: Sequence[int], zero: LaurentPoly) -> LaurentPoly:
    """Determinant of the square matrix rows x cols (rows are sparse
    {column: entry} dicts) by fraction-free Bareiss elimination: polynomial
    time, and each division by the previous pivot is exact by Sylvester's
    identity, so every entry stays in Z[t^+-1]."""
    m = [[row.get(j, zero) for j in cols] for row in rows]
    n = len(m)
    sign, prev = 1, zero + 1
    for k in range(n):
        swap = next((i for i in range(k, n) if m[i][k]), None)
        if swap is None:
            return zero
        if swap != k:
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot_row = m[k]
        pivot = pivot_row[k]
        for row in m[k + 1:]:
            lead = row[k]
            for j in range(k + 1, n):
                entry = pivot * row[j] if row[j] else zero
                if lead and pivot_row[j]:
                    entry -= lead * pivot_row[j]
                # step 0 divides by 1: skip it
                row[j] = exact_div(entry, prev) if entry and k else entry
        prev = pivot
    return prev if sign > 0 else -prev


def alexander_fox(diagram: LinkDiagram) -> LaurentPoly:
    """Alexander polynomial of a knot from Fox calculus on the Wirtinger
    presentation, symmetrized and normalized to value 1 at t = 1.

    This route is deliberately independent of the skein engine: no kink
    reduction, no canonical relabeling, just the presentation matrix and its
    Bareiss determinant, so it runs in polynomial time where the skein tree
    grows exponentially with the crossing count.
    """
    if diagram.component_count() != 1:
        raise NotAKnot("Fox calculus route requires a one-component diagram")
    if diagram.n_crossings == 0:
        return LaurentPoly.one(SKEIN_BASIS)

    rows, n_gens = _fox_matrix(diagram)
    # delete the last row and the last generator column
    rows = rows[:-1]
    cols = tuple(range(n_gens - 1))
    det = _det(rows, cols, LaurentPoly.zero(SKEIN_BASIS))
    if det.is_zero():
        raise InvalidPD("Wirtinger determinant vanished; diagram is not valid")

    lo = det.min_exponent("t")
    hi = det.max_exponent("t")
    shift = -Fraction(lo + hi, 2)
    centered = det * LaurentPoly.monomial(SKEIN_BASIS, {"t": shift})
    at_one = centered.eval_at_one()
    if at_one == 1:
        return centered
    if at_one == -1:
        return -centered
    raise InvalidPD(
        f"Alexander value at 1 is {at_one}, impossible for a knot diagram")


# ---- bundled knot table ----

def load_knot_table(path: Optional[str] = None) -> dict:
    """Read a knot table file: one "name: pd X(...) X(...)" entry per line.

    Blank lines and lines starting with # are skipped. Without a path the
    bundled table ships with the package; it is parsed once per process and
    each call gets a fresh dict of its (frozen) diagrams. A path is read at
    every call.
    """
    if path is None:
        return dict(_bundled_table())
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    table = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = re.match(r"([A-Za-z_0-9]+)\s*:\s*pd\s+(.*)\Z", line)
        if not m:
            raise ParseError(f"bad knot table line {lineno}: {line!r}")
        name, pd_text = m.group(1), m.group(2)
        if name in table:
            raise ParseError(f"duplicate knot table entry {name!r}")
        table[name] = parse_pd(pd_text)
    return table


@lru_cache(maxsize=None)
def _bundled_table() -> dict:
    source = resources.files("swcalc").joinpath("data/knot_table.txt")
    with resources.as_file(source) as path:
        return load_knot_table(str(path))
