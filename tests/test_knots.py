import random

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from swcalc import knots as knots_module
from swcalc.knots import (DEFAULT_NODE_BUDGET, LinkDiagram, ResolutionNode,
                          _SkeinState, _det, _fox_matrix, _skein_eval,
                          alexander_fox, alexander_skein, braid_closure,
                          canonical_form, connect_sum, figure_eight,
                          hopf_link, load_knot_table, mirror, parse_pd,
                          pretzel, skein_resolution, to_pd, torus_knot,
                          trefoil, twist_knot, unknot)
from swcalc.laurent import LaurentPoly, VarBasis, is_symmetric, parse_poly
from swcalc.errors import (InvalidPD, NotAKnot, ParseError, ResourceLimit,
                           InvalidParameters)

T = VarBasis(("t",))


def tp(text):
    return parse_poly(text, T)


TREFOIL_PD = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"


class TestParsePD:
    def test_trefoil_roundtrip(self):
        d = parse_pd(TREFOIL_PD)
        assert d.n_crossings == 3
        assert d.component_count() == 1
        assert to_pd(d) == TREFOIL_PD

    def test_writhe_and_signs(self):
        d = parse_pd(TREFOIL_PD)
        assert [d.sign(i) for i in range(3)] == [1, 1, 1]

    def test_inconsistent_roles_rejected(self):
        with pytest.raises(InvalidPD) as exc:
            parse_pd("X(1,1,2,2)")
        assert "inconsistent orientation roles" in str(exc.value)

    def test_malformed_text(self):
        with pytest.raises(InvalidPD):
            parse_pd("X(1,2,3)")
        with pytest.raises(InvalidPD):
            parse_pd("Y(1,2,3,4)")
        with pytest.raises(InvalidPD):
            parse_pd("")

    def test_under_strand_must_be_a_to_c(self):
        # arcs must advance along the component: a and c equal is degenerate
        with pytest.raises(InvalidPD):
            parse_pd("X(1,2,1,2)")

    def test_arc_appearing_three_times(self):
        with pytest.raises(InvalidPD):
            parse_pd("X(1,2,2,3) X(1,3,1,2)")

    def test_hopf_link(self):
        d = parse_pd("X(2,4,1,3) X(3,1,4,2)")
        assert d.component_count() == 2

    def test_unvalidated_diagram_with_an_open_strand(self):
        # built without validate(): arc 3 leaves the crossing and never
        # comes back, so no structural question has an answer
        d = LinkDiagram(((1, 2, 3, 4),), (True,))
        for ask in (d.components, d.component_count, d.is_split_as_drawn,
                    lambda: to_pd(d), lambda: alexander_skein(d)):
            with pytest.raises(InvalidPD, match="never closes"):
                ask()

    def test_canonical_form_needs_comps_covering_every_arc(self):
        with pytest.raises(KeyError):
            canonical_form(trefoil(), comps=[(1,)])


class TestBuilders:
    def test_unknot(self):
        d = unknot()
        assert d.n_crossings == 0 and d.component_count() == 1

    def test_trefoil_is_braid_closure(self):
        assert alexander_skein(trefoil()) == alexander_skein(
            braid_closure([1, 1, 1]))

    def test_braid_validation(self):
        assert braid_closure([]).component_count() == 1  # closure of nothing
        with pytest.raises(InvalidParameters):
            braid_closure([0])

    def test_pretzel_validation(self):
        with pytest.raises(InvalidParameters):
            pretzel(2, 1, 1)  # even twist counts give a link

    def test_torus_link_allowed(self):
        assert torus_knot(2, 4).component_count() == 2  # not coprime: a link
        with pytest.raises(InvalidParameters):
            torus_knot(1, 5)

    def test_twist_knot_is_pretzel(self):
        assert alexander_skein(twist_knot(3)) == alexander_skein(
            pretzel(5, 1, 1))

    def test_mirror_reverses_signs(self):
        d = trefoil()
        m = mirror(d)
        assert [m.sign(i) for i in range(3)] == [-1, -1, -1]

    def test_connect_sum_components(self):
        s = connect_sum(trefoil(), figure_eight())
        assert s.component_count() == 1
        assert s.n_crossings == 7

    def test_connect_sum_needs_knots(self):
        with pytest.raises(NotAKnot):
            connect_sum(trefoil(), hopf_link())


# Oracle values frozen from the Fox-calculus route (and the literature
# normalization Delta(1) = 1, symmetric in t -> 1/t).
FROZEN = [
    ("trefoil", trefoil, "t - 1 + t^-1"),
    ("figure8", figure_eight, "-t + 3 - t^-1"),
    ("twist1", lambda: twist_knot(1), "t - 1 + t^-1"),
    ("twist2", lambda: twist_knot(2), "2t - 3 + 2t^-1"),
    ("twist3", lambda: twist_knot(3), "3t - 5 + 3t^-1"),
    ("twist4", lambda: twist_knot(4), "4t - 7 + 4t^-1"),
    ("twist5", lambda: twist_knot(5), "5t - 9 + 5t^-1"),
    ("twist6", lambda: twist_knot(6), "6t - 11 + 6t^-1"),
    ("torus25", lambda: torus_knot(2, 5), "t^2 - t + 1 - t^-1 + t^-2"),
    ("torus27", lambda: torus_knot(2, 7),
     "t^3 - t^2 + t - 1 + t^-1 - t^-2 + t^-3"),
    ("torus34", lambda: torus_knot(3, 4), "t^3 - t^2 + 1 - t^-2 + t^-3"),
    ("torus35", lambda: torus_knot(3, 5),
     "t^4 - t^3 + t - 1 + t^-1 - t^-3 + t^-4"),
    ("granny", lambda: connect_sum(trefoil(), trefoil()),
     "t^2 - 2t + 3 - 2t^-1 + t^-2"),
    ("tref_fig8", lambda: connect_sum(trefoil(), figure_eight()),
     "-t^2 + 4t - 5 + 4t^-1 - t^-2"),
]


def _random_closed_braid(rng, strands, crossings, components):
    """Seeded closed braid with the given component count that does not
    split as drawn. The closure's component count is the number of cycles
    of the braid permutation, so the word length must have the parity of
    strands - components or no word qualifies."""
    assert (crossings - strands + components) % 2 == 0
    while True:
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                for _ in range(crossings)]
        d = braid_closure(word, strands)
        if d.component_count() == components and not d.is_split_as_drawn():
            return d


def _seeded_braids():
    rng = random.Random(20061030)
    out = []
    for strands in (3, 4, 5):
        for crossings in (8, 9, 10, 11, 12, 13):
            if (crossings - strands + 1) % 2 == 0:
                out.append((f"knot_s{strands}_c{crossings}",
                            _random_closed_braid(rng, strands, crossings, 1)))
    for strands, crossings, components in ((3, 9, 2), (4, 8, 2), (3, 8, 3),
                                           (4, 9, 3)):
        out.append((f"link{components}_s{strands}_c{crossings}",
                    _random_closed_braid(rng, strands, crossings,
                                         components)))
    return out


SEEDED_BRAIDS = _seeded_braids()


def _remove_kink_reference(d, i):
    """Kink removal as a move of its own, kept as a reference for
    reduce_kinks: drop curl i and reconnect around its loop arc."""
    a, c = d.under_in(i), d.under_out(i)
    oi, oo = d.over_in(i), d.over_out(i)
    crossings = [cr for j, cr in enumerate(d.crossings) if j != i]
    flags = [f for j, f in enumerate(d.over_from_b) if j != i]
    loops = d.free_loops
    relabel = {}
    if c == oi:
        # the loop arc is c; reconnect a to the over exit
        if a == oo:
            loops += 1
        else:
            relabel[oo] = a
    else:
        # a == oo: the loop arc is a; reconnect the over entry to c
        if oi == c:
            loops += 1
        else:
            relabel[c] = oi
    if relabel:
        crossings = [tuple(relabel.get(x, x) for x in cr)
                     for cr in crossings]
    return LinkDiagram(tuple(crossings), tuple(flags), loops)


def _reduce_kinks_reference(d):
    """(reduced diagram, kinks removed) by the reference move."""
    removed = 0
    while True:
        hit = next((i for i in range(d.n_crossings)
                    if d.under_out(i) == d.over_in(i)
                    or d.under_in(i) == d.over_out(i)), None)
        if hit is None:
            return d, removed
        d = _remove_kink_reference(d, hit)
        removed += 1


class TestReduceKinks:
    def test_positive_curl(self):
        d = braid_closure([1, 1, 1, 2])
        out = d.reduce_kinks()
        assert out == _reduce_kinks_reference(d)[0]
        assert (out.n_crossings, out.free_loops) == (3, 0)
        assert alexander_skein(out) == alexander_skein(trefoil())

    def test_negative_curl(self):
        d = braid_closure([1, 1, 1, -2])
        out = d.reduce_kinks()
        assert out == _reduce_kinks_reference(d)[0]
        assert (out.n_crossings, out.free_loops) == (3, 0)

    @pytest.mark.parametrize("letter", [1, -1])
    def test_both_strands_loop(self, letter):
        # the one-crossing closure: the crossing's two strands are each
        # closed by their own arc, and removing it leaves one free loop
        d = braid_closure([letter])
        assert d.n_crossings == 1
        out = d.reduce_kinks()
        assert out == _reduce_kinks_reference(d)[0]
        assert out == LinkDiagram((), (), 1)

    def test_matches_reference_on_seeded_moves(self):
        rng = random.Random(7031)
        kinks = 0
        for _ in range(2400):
            strands = rng.randint(2, 5)
            word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                    for _ in range(rng.randint(1, 14))]
            d = braid_closure(word, strands)
            for _ in range(rng.randint(0, 4)):
                if not d.n_crossings:
                    break
                i = rng.randrange(d.n_crossings)
                d = d.switch(i) if rng.random() < 0.5 else d.smooth(i)
            expect, removed = _reduce_kinks_reference(d)
            assert d.reduce_kinks() == expect, (word, d)
            kinks += removed
        assert kinks >= 1000


class TestAlexanderSkein:
    @pytest.mark.parametrize("name,make,expect",
                             FROZEN, ids=[f[0] for f in FROZEN])
    def test_frozen_values(self, name, make, expect):
        assert alexander_skein(make()) == tp(expect)

    def test_unknot_is_one(self):
        assert alexander_skein(unknot()) == LaurentPoly.one(T)

    def test_hopf_half_exponents(self):
        z = LaurentPoly.from_terms(T, [({"t": Fraction(1, 2)}, 1),
                                       ({"t": Fraction(-1, 2)}, -1)])
        assert alexander_skein(hopf_link()) == z

    def test_split_link_vanishes(self):
        # trefoil next to a disjoint unknotted circle
        d = trefoil()
        split = LinkDiagram(d.crossings, d.over_from_b, d.free_loops + 1)
        assert alexander_skein(split).is_zero()

    def test_mirror_invariance(self):
        for make in (trefoil, figure_eight, lambda: twist_knot(2)):
            d = make()
            assert alexander_skein(d) == alexander_skein(mirror(d))

    def test_connect_sum_multiplies(self):
        a, b = trefoil(), figure_eight()
        assert (alexander_skein(connect_sum(a, b))
                == alexander_skein(a) * alexander_skein(b))

    def test_symmetric_and_normalized(self):
        from swcalc.laurent import is_symmetric
        for name, make, _ in FROZEN:
            v = alexander_skein(make())
            assert is_symmetric(v), name
            assert v.eval_at_one() == 1, name

    def test_node_budget(self):
        with pytest.raises(ResourceLimit):
            alexander_skein(torus_knot(3, 5), node_budget=10)

    def test_memo_reuse(self):
        memo = {}
        a = alexander_skein(twist_knot(3), memo=memo)
        assert memo
        b = alexander_skein(twist_knot(3), memo=memo)
        assert a == b

    def test_memo_key_soundness_on_seeded_braids(self):
        # the memo key is a label normal form, not an invariant: relabeled
        # inputs and a memo shared across diagrams must not change a value
        rng = random.Random(7)
        shared = {}
        for name, d in SEEDED_BRAIDS:
            arcs = d.arcs()
            permuted = d.relabeled(dict(zip(arcs, rng.sample(arcs, len(arcs)))))
            value = alexander_skein(d)
            assert alexander_skein(permuted) == value, name
            assert alexander_skein(d, memo=shared) == value, name
            assert alexander_skein(permuted, memo=shared) == value, name
            if d.component_count() == 1:
                assert alexander_fox(d) == value, name


class TestFoxEngine:
    @pytest.mark.parametrize("name,make,expect",
                             FROZEN, ids=[f[0] for f in FROZEN])
    def test_frozen_values(self, name, make, expect):
        assert alexander_fox(make()) == tp(expect)

    def test_rejects_links(self):
        with pytest.raises(NotAKnot):
            alexander_fox(hopf_link())

    def test_agrees_with_skein_on_table(self):
        table = load_knot_table()
        assert len(table) >= 20
        for name, diagram in table.items():
            assert diagram.n_crossings <= 9, name
            assert alexander_skein(diagram) == alexander_fox(diagram), name


class TestKnotTable:
    def test_bundled_table_parsed_once_fresh_dict_each_call(self,
                                                            monkeypatch):
        first = load_knot_table()
        parses = []
        monkeypatch.setattr(knots_module, "parse_pd",
                            lambda text: parses.append(text) or
                            parse_pd(text))
        first["mine"] = trefoil()
        second = load_knot_table()
        assert parses == []
        assert "mine" not in second and second is not first
        assert all(second[name] is first[name] for name in second)

    def test_a_path_is_read_at_every_call(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text(f"tref: pd {TREFOIL_PD}\n")
        assert load_knot_table(str(path)) == {"tref": parse_pd(TREFOIL_PD)}
        path.write_text("# emptied\n")
        assert load_knot_table(str(path)) == {}


def _dense_det(matrix):
    """_det of a dense matrix of polynomial texts."""
    rows = [{j: tp(entry) for j, entry in enumerate(row)} for row in matrix]
    return _det(rows, range(len(matrix)), LaurentPoly.zero(T))


class TestDeterminant:
    def test_empty_matrix_is_one(self):
        assert _det([], (), LaurentPoly.zero(T)) == LaurentPoly.one(T)

    def test_one_by_one(self):
        assert _dense_det([["2t - 1 + t^-1"]]) == tp("2t - 1 + t^-1")
        assert _dense_det([["0"]]).is_zero()

    def test_swap_at_first_step(self):
        # [[0, t], [1 - t, 1]]: zero pivot, one swap flips the sign
        assert _dense_det([["0", "t"], ["1 - t", "1"]]) == tp("t^2 - t")

    def test_swap_at_middle_step(self):
        # step 0 leaves a zero at (1, 1) and a nonzero below it
        m = [["t", "t", "1"],
             ["1", "1", "t^-1 + 1"],
             ["1", "2", "3"]]
        assert _dense_det(m) == tp("-t")

    def test_two_swaps_keep_the_sign(self):
        m = [["0", "1", "0"],
             ["0", "0", "t"],
             ["t^-1", "0", "0"]]
        assert _dense_det(m) == tp("1")

    def test_singular_matrices_vanish(self):
        # a zero column at step 0, a zero pivot column after step 0, and
        # two rows that differ by the unit t^-1 (no zero pivot column)
        assert _dense_det([["0", "1"], ["0", "t"]]).is_zero()
        assert _dense_det([["1", "1", "1"],
                           ["1", "1", "2"],
                           ["2", "2", "3"]]).is_zero()
        assert _dense_det([["1 - t", "t", "-1"],
                           ["t^-1 - 1", "1", "-t^-1"],
                           ["1", "0", "2"]]).is_zero()

    @pytest.mark.parametrize("strands,crossings", [(3, 10), (4, 15), (4, 19),
                                                   (5, 20)])
    def test_matches_sympy_on_fox_matrices(self, strands, crossings):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(crossings * 100 + strands)
        d = _random_closed_braid(rng, strands, crossings, 1)
        rows, n_gens = _fox_matrix(d)
        rows, cols = rows[:-1], range(n_gens - 1)
        zero = LaurentPoly.zero(T)
        t = sympy.Symbol("t")

        def to_sympy(p):
            return sum(c * t ** e.get("t", 0) for e, c in p.terms())

        # sympy eliminates with fractions over Q(t), a different route
        expected = sympy.Matrix([[to_sympy(row.get(j, zero)) for j in cols]
                                 for row in rows]).det(method="domain-ge")
        assert sympy.expand(expected - to_sympy(_det(rows, cols, zero))) == 0

    def test_six_strand_forty_one_crossing_braid(self):
        # a size where an exponential determinant takes tens of seconds; Fox
        # only, as the skein tree is exponential here too
        d = _random_closed_braid(random.Random(641), 6, 41, 1)
        delta = alexander_fox(d)
        # frozen from a Laplace cofactor expansion of the same matrix
        assert delta == tp("-t^8 + 9t^7 - 37t^6 + 92t^5 - 160t^4 + 214t^3"
                           " - 233t^2 + 223t - 213 + 223t^-1 - 233t^-2"
                           " + 214t^-3 - 160t^-4 + 92t^-5 - 37t^-6 + 9t^-7"
                           " - t^-8")
        assert is_symmetric(delta)
        assert delta.eval_at_one() == 1
        # |Delta(-1)| is the knot determinant, always odd
        at_minus_one = sum(c * (-1) ** e.get("t", 0) for e, c in delta.terms())
        assert at_minus_one % 2 == 1


class TestResolution:
    def test_replay_identity(self):
        z = LaurentPoly.from_terms(T, [({"t": Fraction(1, 2)}, 1),
                                       ({"t": Fraction(-1, 2)}, -1)])
        for make in (trefoil, figure_eight, lambda: twist_knot(2),
                     lambda: torus_knot(2, 5)):
            root = skein_resolution(make())
            seen = set()
            count = 0
            for node in root.internal_nodes():
                if id(node) in seen:
                    continue
                seen.add(id(node))
                count += 1
                sign = LaurentPoly.constant(T, node.sign)
                assert node.value == (node.switch_child.value
                                      + sign * z * node.smooth_child.value)
            assert count >= 1

    def test_leaf_kinds(self):
        root = skein_resolution(trefoil())
        stack, kinds = [root], set()
        while stack:
            n = stack.pop()
            kinds.add(n.kind)
            if n.switch_child is not None:
                stack.extend([n.switch_child, n.smooth_child])
        assert "resolve" in kinds
        assert kinds & {"descending", "split"}

    def test_root_value_matches_direct(self):
        root = skein_resolution(figure_eight())
        assert root.value == alexander_skein(figure_eight())


class TestCanonicalForm:
    def test_relabeling_invariance(self):
        d = parse_pd(TREFOIL_PD)
        # the same crossings listed in another order
        shifted = parse_pd("X(3,6,4,1) X(5,2,6,3) X(1,4,2,5)")
        assert canonical_form(d) == canonical_form(shifted)

    def test_distinguishes_mirror(self):
        assert canonical_form(trefoil()) != canonical_form(mirror(trefoil()))

    @pytest.mark.parametrize("name,d", SEEDED_BRAIDS,
                             ids=[b[0] for b in SEEDED_BRAIDS])
    def test_is_a_relabeling(self, name, d):
        c = canonical_form(d)
        assert c.component_count() == d.component_count()
        assert sorted(c.over_from_b) == sorted(d.over_from_b)
        assert to_pd(c) == to_pd(d)


# ---- the skein engine against a frozen copy of its earlier per-node code ----
#
# Before each node made one pass over its crossings, it found its head slots
# twice (for components() and for the violation walk), tested splitting by a
# BFS over crossings sharing an arc, and built canonical_form through an
# intermediate relabeled() diagram. That code is kept here, standalone, as the
# reference the engine must match node for node.

_OLD_Z = LaurentPoly.from_terms(T, [({"t": Fraction(1, 2)}, 1),
                                    ({"t": Fraction(-1, 2)}, -1)])


def _old_over_in(d, i):
    a, b, c, e = d.crossings[i]
    return b if d.over_from_b[i] else e


def _old_over_out(d, i):
    a, b, c, e = d.crossings[i]
    return e if d.over_from_b[i] else b


def _old_head_slots(d):
    out = {}
    for i in range(len(d.crossings)):
        out[d.crossings[i][0]] = (i, "under")
        out[_old_over_in(d, i)] = (i, "over")
    return out


def _old_components(d):
    heads = _old_head_slots(d)
    succ = {}
    for arc, (i, role) in heads.items():
        succ[arc] = (d.crossings[i][2] if role == "under"
                     else _old_over_out(d, i))
    seen, cycles = set(), []
    for start in sorted(succ):
        if start in seen:
            continue
        cyc, cur = [], start
        while cur not in seen:
            seen.add(cur)
            cyc.append(cur)
            cur = succ[cur]
        cycles.append(tuple(cyc))
    return cycles


def _old_switch(d, i):
    a, b, c, e = d.crossings[i]
    new = ((b, c, e, a), False) if d.over_from_b[i] else ((e, a, b, c), True)
    crossings, flags = list(d.crossings), list(d.over_from_b)
    crossings[i], flags[i] = new
    return LinkDiagram(tuple(crossings), tuple(flags), d.free_loops)


def _old_smooth(d, i):
    a, c = d.crossings[i][0], d.crossings[i][2]
    oi, oo = _old_over_in(d, i), _old_over_out(d, i)
    crossings = [cr for j, cr in enumerate(d.crossings) if j != i]
    flags = [f for j, f in enumerate(d.over_from_b) if j != i]
    loops, relabel = d.free_loops, {}
    if a == oo:
        loops += 1
    else:
        relabel[oo] = a
    if oi == c:
        loops += 1
    else:
        relabel[c] = oi
    crossings = [tuple(relabel.get(x, x) for x in cr) for cr in crossings]
    return LinkDiagram(tuple(crossings), tuple(flags), loops)


def _old_reduce_kinks(d):
    while True:
        hit = next((i for i in range(len(d.crossings))
                    if d.crossings[i][2] == _old_over_in(d, i)
                    or d.crossings[i][0] == _old_over_out(d, i)), None)
        if hit is None:
            return d
        d = _old_smooth(d, hit)
        d = LinkDiagram(d.crossings, d.over_from_b, d.free_loops - 1)


def _old_is_split(d):
    n = len(d.crossings)
    if n == 0:
        return d.free_loops > 1
    if d.free_loops > 0:
        return True
    arc_where = {}
    for i, cr in enumerate(d.crossings):
        for arc in cr:
            arc_where.setdefault(arc, []).append(i)
    seen, stack = {0}, [0]
    while stack:
        for arc in d.crossings[stack.pop()]:
            for j in arc_where[arc]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
    return len(seen) < n


def _old_canonical(d, comps=None):
    relabel = {}
    for cyc in _old_components(d) if comps is None else comps:
        for arc in cyc:
            relabel[arc] = len(relabel) + 1
    out = d.relabeled(relabel)
    ordered = sorted(zip(out.crossings, out.over_from_b))
    return LinkDiagram(tuple(cr for cr, _ in ordered),
                       tuple(flag for _, flag in ordered), d.free_loops)


def _old_first_violation(d, comps):
    heads, visited, seen_arcs = _old_head_slots(d), set(), set()
    for cyc in comps:
        for arc in cyc:
            if arc in seen_arcs:
                continue
            seen_arcs.add(arc)
            i, role = heads[arc]
            if i not in visited:
                visited.add(i)
                if role == "under":
                    return i
    return None


class _OldState:
    def __init__(self, budget):
        self.memo, self.budget, self.used = {}, budget, 0


def _old_eval(diagram, state):
    state.used += 1
    if state.used > state.budget:
        raise ResourceLimit("node budget")
    one, zero = LaurentPoly.one(T), LaurentPoly.zero(T)
    d = _old_reduce_kinks(diagram)
    if d.n_crossings == 0:
        total = d.free_loops
        return ResolutionNode(d, "descending" if total == 1 else "split",
                              one if total == 1 else zero)
    if _old_is_split(d):
        return ResolutionNode(d, "split", zero)
    comps = _old_components(d)
    ckey = _old_canonical(d, comps)
    key = (ckey.crossings, ckey.over_from_b, ckey.free_loops)
    if key in state.memo:
        return state.memo[key]
    violation = _old_first_violation(d, comps)
    if violation is None:
        knot = len(comps) + d.free_loops == 1
        node = ResolutionNode(d, "descending" if knot else "split",
                              one if knot else zero)
    else:
        sign = 1 if d.over_from_b[violation] else -1
        sw = _old_eval(_old_switch(d, violation), state)
        sm = _old_eval(_old_smooth(d, violation), state)
        value = sw.value + sign * (_OLD_Z * sm.value)
        node = ResolutionNode(d, "resolve", value,
                              crossing=violation, sign=sign,
                              switch_child=sw, smooth_child=sm)
    state.memo[key] = node
    return node


def _old_to_pd(d):
    if d.free_loops or not d.crossings:
        return None
    out = _old_canonical(d)
    text = " ".join("X({},{},{},{})".format(*cr) for cr in out.crossings)
    try:
        return text if parse_pd(text) == out else None
    except InvalidPD:
        return None


def _same_tree(new, old):
    """Walk two resolution DAGs in step; each pair of shared nodes once."""
    seen, stack = set(), [(new, old)]
    while stack:
        a, b = stack.pop()
        if (id(a), id(b)) in seen:
            continue
        seen.add((id(a), id(b)))
        assert ((a.kind, a.crossing, a.sign, a.value, a.diagram)
                == (b.kind, b.crossing, b.sign, b.value, b.diagram))
        assert (a.switch_child is None) == (b.switch_child is None)
        if a.switch_child is not None:
            stack += [(a.switch_child, b.switch_child),
                      (a.smooth_child, b.smooth_child)]
    return len(seen)


@st.composite
def _braid_diagrams(draw):
    """Closed braids on 2-5 strands, unused strands closing into free
    loops; short enough that the skein tree stays small."""
    strands = draw(st.integers(2, 5))
    word = draw(st.lists(
        st.integers(1, strands - 1).flatmap(
            lambda i: st.sampled_from((i, -i))), max_size=9))
    return braid_closure(word, strands)


class TestOnePassMatchesEarlierNodes:
    @settings(max_examples=300, deadline=None)
    @given(_braid_diagrams())
    def test_tree_used_and_budget(self, d):
        state = _SkeinState(None, DEFAULT_NODE_BUDGET)
        new = _skein_eval(d, state)
        old_state = _OldState(DEFAULT_NODE_BUDGET)
        old = _old_eval(d, old_state)
        assert state.used == old_state.used
        _same_tree(new, old)
        assert alexander_skein(d, node_budget=state.used) == old.value
        if state.used > 1:
            with pytest.raises(ResourceLimit):
                alexander_skein(d, node_budget=state.used - 1)

    @settings(max_examples=300, deadline=None)
    @given(_braid_diagrams(), st.lists(st.tuples(st.integers(0, 99),
                                                 st.booleans()),
                                       max_size=4))
    def test_structure_after_moves(self, d, moves):
        # switches and smoothings make kinks, splits and free loops
        for k, smooth in moves:
            if not d.crossings:
                break
            i = k % d.n_crossings
            d = d.smooth(i) if smooth else d.switch(i)
        for e in (d, d.reduce_kinks()):
            assert e.reduce_kinks() == _old_reduce_kinks(e)
            assert e.is_split_as_drawn() == _old_is_split(e)
            assert e.components() == _old_components(e)
            assert canonical_form(e) == _old_canonical(e)
            expect = _old_to_pd(e)
            if expect is None:
                with pytest.raises(InvalidPD):
                    to_pd(e)
            else:
                assert to_pd(e) == expect

    def test_draws_reach_every_shape(self):
        # the cases the strategy is meant to cover all occur in a fixed sample
        rng = random.Random(12)
        shapes = set()
        for _ in range(400):
            strands = rng.randint(2, 5)
            word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                    for _ in range(rng.randint(0, 9))]
            d = braid_closure(word, strands)
            shapes.add("knot" if d.component_count() == 1 else "link")
            if d.free_loops:
                shapes.add("free loops")
            if d.reduce_kinks() != d:
                shapes.add("kinks")
            if d.is_split_as_drawn():
                shapes.add("split")
            assert _same_tree(skein_resolution(d),
                              _old_eval(d, _OldState(DEFAULT_NODE_BUDGET)))
        assert shapes == {"knot", "link", "free loops", "kinks", "split"}
