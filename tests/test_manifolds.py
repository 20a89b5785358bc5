import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from swcalc.manifolds import (CharInvariants, SurfaceLabel, ManifoldDesc,
                              cp2, cp2_bar, s2xs2, elliptic, horikawa,
                              connected_sum, blowup, fiber_sum,
                              torus_surgery, knot_surgery, rational_blowdown,
                              reverse_orientation, branched_cover_pair,
                              homeo_equal)
from swcalc.knots import figure_eight, trefoil, hopf_link
from swcalc.errors import (InvalidParameters, LabelMismatch, NotAKnot,
                           NonIntegralResult, NotSimplyConnected,
                           UnknownLabel)


def label_map(desc):
    return dict(desc.labels)


class TestCharInvariants:
    def test_basic_properties(self):
        k3 = CharInvariants(euler=24, sigma=-16, parity=0)
        assert k3.b2 == 22
        assert k3.b_plus == 3
        assert k3.b_minus == 19
        assert k3.chi_h == 2
        assert k3.c == 3 * (-16) + 2 * 24
        assert k3.spin

    def test_spin_needs_even_parity(self):
        assert not CharInvariants(euler=3, sigma=1, parity=1).spin
        assert not CharInvariants(euler=24, sigma=-16, parity=0,
                                  simply_connected=False).spin

    def test_fractional_chi_h(self):
        v = CharInvariants(euler=5, sigma=-1, parity=1)
        assert v.chi_h == Fraction(5 - 1, 4)
        assert isinstance(elliptic(3).invariants.chi_h, int)

    def test_chi_h_is_the_fraction_or_its_int(self):
        for euler in range(2, 40):
            for sigma in range(2 - euler, euler - 1, 2):
                want = Fraction(euler + sigma, 4)
                got = CharInvariants(euler, sigma, 1).chi_h
                assert got == want
                assert isinstance(got, int) == (want.denominator == 1)
        for euler, sigma in ((-3, 0), (-4, 0), (1, -6)):
            got = CharInvariants(euler, sigma, 1, simply_connected=False)
            assert got.chi_h == Fraction(euler + sigma, 4)

    def test_signature_bound(self):
        with pytest.raises(InvalidParameters):
            CharInvariants(euler=3, sigma=5, parity=1)
        with pytest.raises(InvalidParameters):
            CharInvariants(euler=1, sigma=-2, parity=1)

    def test_parity_constraint(self):
        # b2 + sigma must be even for a closed oriented 4-manifold
        with pytest.raises(InvalidParameters):
            CharInvariants(euler=4, sigma=1, parity=1)
        with pytest.raises(InvalidParameters):
            CharInvariants(euler=3, sigma=1, parity=2)

    def test_from_c_chi(self):
        v = CharInvariants.from_c_chi(0, 2, 0)
        assert (v.euler, v.sigma) == (24, -16)
        w = CharInvariants.from_c_chi(9, 1, 1)
        assert (w.euler, w.sigma) == (3, 1)

    @given(st.integers(min_value=-20, max_value=60),
           st.integers(min_value=1, max_value=8),
           st.integers(min_value=0, max_value=1))
    def test_from_c_chi_roundtrip(self, c, chi, parity):
        # c = 3 sigma + 2 e and chi_h = (e + sigma)/4 invert to integer
        # (e, sigma) exactly when c + chi is even-ish; skip impossible combos
        e = c - 8 * chi + 12 * chi
        sigma = c - 8 * chi
        if abs(sigma) > e - 2 or (e - 2 + sigma) % 2 != 0:
            return
        try:
            v = CharInvariants.from_c_chi(c, chi, parity)
        except InvalidParameters:
            return
        assert v.c == c
        assert v.chi_h == chi


class TestPrimitives:
    def test_cp2(self):
        v = cp2().invariants
        assert (v.euler, v.sigma, v.parity) == (3, 1, 1)
        assert v.c == 9 and v.chi_h == 1

    def test_cp2_bar(self):
        v = cp2_bar().invariants
        assert (v.euler, v.sigma) == (3, -1)

    def test_s2xs2(self):
        v = s2xs2().invariants
        assert (v.euler, v.sigma, v.parity) == (4, 0, 0)
        assert v.spin

    @pytest.mark.parametrize("n", range(1, 7))
    def test_elliptic(self, n):
        v = elliptic(n).invariants
        assert (v.euler, v.sigma) == (12 * n, -8 * n)
        assert v.chi_h == n and v.c == 0
        assert v.spin == (n % 2 == 0)

    def test_elliptic_labels(self):
        m = label_map(elliptic(1))
        assert m["F"] == SurfaceLabel(genus=1, self_int=0, characteristic=True)
        assert m["S"] == SurfaceLabel(genus=0, self_int=-1)
        m2 = label_map(elliptic(2))
        assert not m2["F"].characteristic
        assert m2["S"].self_int == -2

    def test_elliptic_validation(self):
        with pytest.raises(InvalidParameters):
            elliptic(0)

    @pytest.mark.parametrize("m,n", [(3, 3), (3, 4), (4, 4), (3, 7)])
    def test_horikawa_geography(self, m, n):
        v = horikawa(m, n).invariants
        assert v.c == 4 * (m - 2) * (n - 2)
        assert v.chi_h == (m - 1) * (n - 1) + 1
        assert v.parity == 1

    def test_horikawa_noether_line(self):
        # the m = 3 family walks the lower boundary of surface geography
        for n in range(3, 9):
            v = horikawa(3, n).invariants
            assert v.c == 2 * v.chi_h - 6

    def test_horikawa_elliptic_edge(self):
        # a degenerate fibration: H(2, k) has the homotopy type of E(k)
        for k in range(2, 6):
            assert homeo_equal(horikawa(2, k), elliptic(k))

    def test_horikawa_validation(self):
        with pytest.raises(InvalidParameters):
            horikawa(1, 4)


class TestConnectedSumAndBlowup:
    def test_sum_invariants(self):
        v = connected_sum(cp2(), cp2_bar()).invariants
        assert (v.euler, v.sigma, v.parity) == (4, 0, 1)

    def test_sum_spin(self):
        v = connected_sum(elliptic(2), elliptic(2)).invariants
        assert v.spin
        w = connected_sum(elliptic(2), cp2()).invariants
        assert w.parity == 1

    def test_label_collision_rename(self):
        s = connected_sum(elliptic(1), elliptic(1))
        names = [name for name, _ in s.labels]
        assert names.count("F") == 1 and "F_2" in names

    def test_blowup_invariants(self):
        b = blowup(elliptic(2), 3)
        v = b.invariants
        assert (v.euler, v.sigma, v.parity) == (27, -19, 1)
        assert v.chi_h == 2 and v.c == -3

    def test_blowup_labels_continue_numbering(self):
        b = blowup(blowup(elliptic(2), 2), 1)
        m = label_map(b)
        assert {"E1", "E2", "E3"} <= set(m)
        assert m["E3"] == SurfaceLabel(genus=0, self_int=-1)

    def test_blowup_clears_characteristic(self):
        b = blowup(elliptic(1))
        assert not label_map(b)["F"].characteristic

    def test_blowup_validation(self):
        with pytest.raises(InvalidParameters):
            blowup(elliptic(1), 0)

    def test_blowup_equals_sum_with_cp2bar(self):
        assert homeo_equal(blowup(cp2(), 1), connected_sum(cp2(), cp2_bar()))


class TestFiberSum:
    @pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 4)])
    def test_elliptic_additivity(self, m, n):
        s = fiber_sum(elliptic(m), elliptic(n))
        t = elliptic(m + n)
        assert s.invariants == t.invariants
        assert label_map(s)["F"] == label_map(t)["F"]

    def test_parity_both_spin(self):
        assert fiber_sum(elliptic(2), elliptic(2)).invariants.spin

    def test_parity_both_characteristic(self):
        # E(1) # _F E(1) = E(2): the fibers are characteristic, not the
        # manifolds, and the sum comes out spin
        s = fiber_sum(elliptic(1), elliptic(1))
        assert s.invariants.spin
        assert not label_map(s)["F"].characteristic

    def test_parity_mixed(self):
        s = fiber_sum(elliptic(1), elliptic(2))
        assert s.invariants.parity == 1
        assert label_map(s)["F"].characteristic

    def test_genus_must_match(self):
        with pytest.raises(LabelMismatch):
            fiber_sum(elliptic(1), elliptic(1), label_a="S", label_b="F")

    def test_unknown_label(self):
        with pytest.raises(UnknownLabel):
            fiber_sum(elliptic(1), elliptic(1), label_a="G")

    def test_euler_bookkeeping(self):
        a, b = elliptic(2), elliptic(3)
        s = fiber_sum(a, b)
        assert s.invariants.euler == a.invariants.euler + b.invariants.euler
        assert s.invariants.sigma == a.invariants.sigma + b.invariants.sigma


class TestSurgeries:
    def test_torus_surgery_fixes_numbers(self):
        x = torus_surgery(elliptic(2), "F", 1, 0, 5)
        v = x.invariants
        assert (v.euler, v.sigma) == (24, -16)
        assert v.parity == 0  # odd multiplicity keeps the even form

    def test_torus_surgery_even_multiplicity_breaks_parity(self):
        x = torus_surgery(elliptic(2), "F", 1, 0, 2)
        assert x.invariants.parity == 1
        y = torus_surgery(elliptic(2), "F", 0, 1, 0)
        assert y.invariants.parity == 1

    def test_torus_surgery_label_survives(self):
        x = torus_surgery(elliptic(2), "F", 1, 0, 3)
        assert label_map(x)["F"] == SurfaceLabel(genus=1, self_int=0)

    def test_torus_surgery_validation(self):
        with pytest.raises(InvalidParameters):
            torus_surgery(elliptic(2), "F", 0, 0, 0)
        with pytest.raises(InvalidParameters):
            torus_surgery(elliptic(2), "F", 1, 0, -1)
        with pytest.raises(LabelMismatch):
            torus_surgery(elliptic(2), "S", 1, 0, 2)
        with pytest.raises(UnknownLabel):
            torus_surgery(elliptic(2), "G", 1, 0, 2)

    def test_knot_surgery_preserves_everything(self):
        x = knot_surgery(elliptic(2), "F", trefoil())
        assert x.invariants == elliptic(2).invariants
        assert x.labels == elliptic(2).labels
        assert homeo_equal(x, elliptic(2))

    def test_knot_surgery_rejects_links(self):
        with pytest.raises(NotAKnot):
            knot_surgery(elliptic(2), "F", hopf_link())

    def test_rational_blowdown_bookkeeping(self):
        b = blowup(elliptic(2), 4)
        x = rational_blowdown(b, 5)
        v = x.invariants
        assert v.euler == b.invariants.euler - 4
        assert v.sigma == b.invariants.sigma + 4
        assert v.chi_h == b.invariants.chi_h
        assert v.c == b.invariants.c + 4
        assert v.parity == 1

    def test_rational_blowdown_parity_override(self):
        b = blowup(elliptic(2), 4)
        x = rational_blowdown(b, 5, result_parity=0)
        assert x.invariants.spin
        assert homeo_equal(x, elliptic(2))

    def test_rational_blowdown_needs_room(self):
        with pytest.raises(InvalidParameters):
            rational_blowdown(cp2(), 5)

    def test_rational_blowdown_consumes_labels(self):
        b = blowup(elliptic(2), 4)
        x = rational_blowdown(b, 5, consume=("E1", "E2", "E3", "E4"))
        names = {name for name, _ in x.labels}
        assert names == {"F", "S"}

    def test_rational_blowdown_validation(self):
        b = blowup(elliptic(2), 4)
        with pytest.raises(InvalidParameters):
            rational_blowdown(b, 1)
        with pytest.raises(UnknownLabel):
            rational_blowdown(b, 5, consume=("E9",))


class TestOrientationAndHomeo:
    def test_reverse_flips_signature(self):
        r = reverse_orientation(cp2())
        assert r.invariants.sigma == -1
        assert r.invariants.euler == 3
        assert reverse_orientation(r).invariants == cp2().invariants

    def test_reverse_flips_self_intersections(self):
        r = reverse_orientation(elliptic(2))
        assert label_map(r)["S"].self_int == 2

    def test_homeo_by_numbers(self):
        # same e, sigma, parity means homeomorphic in the simply
        # connected smooth world
        assert homeo_equal(connected_sum(cp2(), cp2_bar()),
                           blowup(cp2()))
        assert not homeo_equal(cp2(), cp2_bar())
        assert not homeo_equal(elliptic(2),
                               torus_surgery(elliptic(2), "F", 1, 0, 2))

    def test_homeo_requires_simply_connected(self):
        e2 = elliptic(2)
        inv = dataclasses.replace(e2.invariants, simply_connected=False)
        fake = dataclasses.replace(e2, invariants=inv)
        with pytest.raises(NotSimplyConnected):
            homeo_equal(fake, e2)


class TestBranchedCover:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_bidouble_elliptic_family(self, n):
        # double covers of the quadric branched in bidegree (4, 2n) land
        # on the elliptic line
        assert branched_cover_pair(s2xs2(), 2, 8 - 12 * n, 16 * n) == (0, n)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_bidouble_noether_family(self, n):
        got = branched_cover_pair((8, 1), 2, 12 - 20 * n, 24 * n)
        assert got == (4 * n - 8, 2 * n - 1)

    def test_fractional_result_rejected(self):
        with pytest.raises(NonIntegralResult):
            branched_cover_pair(s2xs2(), 2, 7, 5)

    def test_accepts_invariants_or_tuple(self):
        # the tuple form is (c, chi_h) of the base
        base = CharInvariants(euler=4, sigma=0, parity=0)
        assert (branched_cover_pair(base, 2, 8 - 12 * 2, 32)
                == branched_cover_pair((8, 1), 2, 8 - 12 * 2, 32))

    def test_degree_validation(self):
        with pytest.raises(InvalidParameters):
            branched_cover_pair(s2xs2(), 1, 0, 0)


class TestDescTree:
    def test_parents_recorded(self):
        x = knot_surgery(elliptic(2), "F", trefoil())
        assert x.op == "knot_surgery"
        assert x.parents[0].op == "E"

    def test_descriptors_hashable_and_frozen(self):
        a = elliptic(2)
        assert hash(a) == hash(elliptic(2))
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.op = "other"

    def test_hash_is_computed_at_first_use(self):
        x = knot_surgery(fiber_sum(elliptic(2), elliptic(3)), "F", trefoil())
        assert x._hash is None and x.parents[0]._hash is None
        h = hash(x)
        assert x._hash == h and x.parents[0]._hash is not None
        assert hash(x) == h

    def test_deep_trees_hash_without_recursion(self):
        def ladder(n):
            x = elliptic(2)
            for _ in range(n):
                x = fiber_sum(x, elliptic(3))
            return x

        def chain(n):
            x = elliptic(3)
            for i in range(n):
                x = (blowup(x) if i % 250 == 0
                     else knot_surgery(x, "F", trefoil()))
            return x

        def doubling(n):
            x = elliptic(2)
            for _ in range(n):
                x = fiber_sum(x, x)
            return x

        for build in (ladder, chain, doubling):
            n = 60 if build is doubling else 1000
            # equal trees built twice hash equal; every node gets a hash
            assert hash(build(n)) == hash(build(n))
            assert hash(build(n)) != hash(build(n - 1))

    def test_shared_and_copied_nodes_hash_equal(self):
        x = knot_surgery(elliptic(2), "F", trefoil())
        y = knot_surgery(elliptic(2), "F", trefoil())
        assert fiber_sum(x, x) == fiber_sum(x, y)
        assert hash(fiber_sum(x, x)) == hash(fiber_sum(x, y))
        assert len({fiber_sum(x, x), fiber_sum(y, x), fiber_sum(x, y)}) == 1

    def test_deep_trees_compare_without_recursion(self):
        def ladder(bottom, n=1000):
            x = knot_surgery(elliptic(2), "F", bottom)
            for _ in range(n):
                x = fiber_sum(x, elliptic(3))
            return x

        def doubling(n):
            x = elliptic(2)
            for _ in range(n):
                x = fiber_sum(x, x)
            return x

        assert ladder(trefoil()) == ladder(trefoil())
        # the walk reaches the one differing node, and cached hashes then
        # reject the same pair at the top
        a, b = ladder(trefoil()), ladder(figure_eight())
        assert a != b and b != a
        hash(a), hash(b)
        assert a != b
        # each pair of shared nodes is compared once, not once per path
        assert doubling(60) == doubling(60)
        assert doubling(60) != doubling(59)
        table = {ladder(trefoil()): "found"}
        assert table[ladder(trefoil())] == "found"
        assert ladder(figure_eight()) not in table
