import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from swcalc.laurent import (LaurentPoly, VarBasis, exact_div, is_symmetric,
                            parse_poly)
from swcalc.manifolds import (CharInvariants, elliptic, horikawa, cp2,
                              cp2_bar, s2xs2, connected_sum, blowup,
                              fiber_sum, torus_surgery, knot_surgery,
                              rational_blowdown, reverse_orientation)
from swcalc import sw as sw_module
from swcalc.knots import (DEFAULT_NODE_BUDGET, trefoil, twist_knot,
                          figure_eight, alexander_skein, braid_closure,
                          torus_knot, load_knot_table)
from swcalc.sw import (SWInvariant, T_BASIS, sw_elliptic,
                       relative_from_closed, e1_relative, t2d2_piece, glue,
                       blowup_formula, knot_surgery_formula, log_transform,
                       double_log_transform, mms_combine,
                       wall_crossing_delta, ChamberedSeries,
                       chamber_series_e1, sw_e1_twist_knot,
                       count_basic_classes, sw_dimension, adjunction_check,
                       ConfigIntersections, standard_blowdown_rows, descend,
                       from_manifold)
from swcalc.errors import (CalcError, ChamberMismatch, InexactDivision,
                           InvalidParameters, KindError,
                           MissingIntersectionData, NonIntegralDimension,
                           NotSymmetric, NotTaut, OutOfBand, RegimeError,
                           ResourceLimit, SimpleTypeRequired,
                           UnsupportedForSW)

T = VarBasis(T_BASIS)


def tp(text, basis=T):
    return parse_poly(text, basis)


def bracket(k):
    return tp(f"t^{k} - t^-{k}")


def log_transform_by_sum(sw, r):
    """The log transform as the r-fold sum of powers of t, the reference
    for the closed spread."""
    v = LaurentPoly.variable(sw.basis, "t")
    spread = LaurentPoly.zero(sw.basis)
    for j in range(r):
        spread = spread + v ** (r - 1 - 2 * j)
    return SWInvariant(sw.num.substitute_power("t", r) * spread,
                       sw.den.substitute_power("t", r), sw.kind,
                       sw.simple_type).reduced_if_exact()


class TestSWInvariant:
    def test_closed_value(self):
        s = SWInvariant.closed(tp("t - t^-1"))
        assert s.kind == "closed"
        assert s.value() == tp("t - t^-1")
        assert s.is_reduced()

    def test_unreduced_closed_must_reduce(self):
        s = SWInvariant(tp("t^2 - t^-2"), tp("t - t^-1"))
        assert not s.is_reduced()
        assert s.reduced().num == tp("t + t^-1")
        assert s.value() == tp("t + t^-1")

    def test_closed_value_requires_exactness(self):
        s = SWInvariant(LaurentPoly.one(T), tp("t - t^-1"))
        with pytest.raises(InexactDivision):
            s.value()

    def test_relative_keeps_denominator(self):
        s = t2d2_piece()
        assert s.kind == "relative"
        assert s.num == LaurentPoly.one(T)
        assert s.den == tp("t^-1 - t")

    def test_scaled(self):
        s = SWInvariant.closed(tp("t - t^-1"))
        assert s.scaled(tp("t")).value() == tp("t^2 - 1")

    def test_extended(self):
        s = SWInvariant.closed(tp("t - t^-1"))
        wide = s.extended(("e1", "t"))
        assert tuple(wide.num.basis) == ("e1", "t")

    def test_kind_validation(self):
        with pytest.raises(KindError):
            SWInvariant(LaurentPoly.one(T), LaurentPoly.one(T), kind="open")


class TestElliptic:
    @pytest.mark.parametrize("n,expect", [
        (2, "1"),
        (3, "t - t^-1"),
        (4, "t^2 - 2 + t^-2"),
        (5, "t^3 - 3t + 3t^-1 - t^-3"),
    ])
    def test_small_values(self, n, expect):
        assert sw_elliptic(n).value() == tp(expect)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 60))
    def test_power_structure(self, n):
        assert sw_elliptic(n).value() == tp("t - t^-1") ** (n - 2)

    def test_e1_needs_chambers(self):
        with pytest.raises(RegimeError):
            sw_elliptic(1)

    def test_sign_symmetry(self):
        # conjugation symmetry carries the sign (-1)^{chi_h}
        for n in range(2, 8):
            v = sw_elliptic(n).value()
            assert is_symmetric(v, sign=(-1) ** n)

    def test_basic_class_counts(self):
        assert count_basic_classes(sw_elliptic(2)) == 1
        assert count_basic_classes(sw_elliptic(3)) == 2
        assert count_basic_classes(sw_elliptic(6)) == 5


class TestGluing:
    def test_relative_from_closed(self):
        r = relative_from_closed(sw_elliptic(3))
        assert r.kind == "relative"
        assert r.value() == tp("t - t^-1") * tp("t^-1 - t")

    def test_e1_relative_seed(self):
        assert e1_relative().kind == "relative"
        assert e1_relative().value() == tp("-1")

    def test_fiber_sum_of_seeds_gives_k3(self):
        s = glue(e1_relative(), e1_relative())
        assert s.kind == "closed"
        assert s.value() == tp("1")
        assert count_basic_classes(s) == 1

    def test_closing_piece_cancels_one_factor(self):
        # gluing in the closing piece undoes one relative conversion
        rel = relative_from_closed(sw_elliptic(3))
        back = glue(rel, t2d2_piece())
        assert back.value() == sw_elliptic(3).value()

    def test_gluing_ladder_matches_elliptic(self):
        rel = {1: e1_relative()}
        for n in range(2, 7):
            closed = glue(rel[n - 1], rel[1])
            assert closed.kind == "closed"
            assert closed.value() == sw_elliptic(n).value()
            rel[n] = relative_from_closed(closed)

    def test_relative_seed_consistent_with_conversion(self):
        # the seeded E(1) complement value matches what the fiber-sum
        # identity E(1) # E(2) = E(3) forces it to be
        forced = glue(relative_from_closed(sw_elliptic(2)), e1_relative())
        assert forced.value() == sw_elliptic(3).value()

    def test_glue_kind(self):
        out = glue(e1_relative(), e1_relative(), result_kind="relative")
        assert out.kind == "relative"
        with pytest.raises(KindError):
            glue(e1_relative(), e1_relative(), result_kind="sideways")


class TestBlowupFormula:
    def test_single_blowup(self):
        s = blowup_formula(sw_elliptic(2), ["e1"])
        basis = s.num.basis
        assert tuple(basis) == ("e1", "t")
        assert s.value() == tp("e1 + e1^-1", VarBasis(("e1", "t")))

    def test_multiple_names(self):
        s = blowup_formula(sw_elliptic(3), ["e1", "e2"])
        v = s.value()
        b = v.basis
        expect = (tp("t - t^-1").extended(tuple(b))
                  * tp("e1 + e1^-1", b) * tp("e2 + e2^-1", b))
        assert v == expect

    def test_duplicate_names_rejected(self):
        with pytest.raises(InvalidParameters):
            blowup_formula(sw_elliptic(2), ["e1", "e1"])

    def test_collision_with_existing(self):
        s = blowup_formula(sw_elliptic(2), ["e1"])
        with pytest.raises(InvalidParameters):
            blowup_formula(s, ["e1"])

    def test_simple_type_required(self):
        s = SWInvariant.closed(tp("1"), simple_type=False)
        with pytest.raises(SimpleTypeRequired):
            blowup_formula(s, ["e1"])

    def test_term_bound_refuses_at_once(self):
        # 2^30 terms would exhaust memory; the bound trips before any product
        with pytest.raises(ResourceLimit):
            blowup_formula(sw_elliptic(2), [f"e{i}" for i in range(1, 31)])

    def test_term_bound_edge(self, monkeypatch):
        monkeypatch.setattr(sw_module, "MAX_BLOWUP_TERMS", 64)
        names = [f"e{i}" for i in range(1, 8)]
        assert len(blowup_formula(sw_elliptic(2), names[:6]).num) == 64
        with pytest.raises(ResourceLimit):
            blowup_formula(sw_elliptic(2), names)
        # the count is of numerator terms: 2 terms times 2^5 is 64
        assert len(blowup_formula(sw_elliptic(3), names[:5]).num) == 64
        with pytest.raises(ResourceLimit):
            blowup_formula(sw_elliptic(3), names[:6])


class TestKnotSurgeryFormula:
    def test_trefoil_on_k3(self):
        d = alexander_skein(trefoil())
        s = knot_surgery_formula(sw_elliptic(2), d)
        assert s.value() == tp("t^2 - 1 + t^-2")

    def test_substitution_is_square(self):
        d = alexander_skein(twist_knot(2))
        s = knot_surgery_formula(sw_elliptic(2), d)
        assert s.value() == tp("2t^2 - 3 + 2t^-2")

    def test_eval_at_one_survives(self):
        d = alexander_skein(figure_eight())
        s = knot_surgery_formula(sw_elliptic(2), d)
        assert abs(s.value().eval_at_one()) == 1

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            knot_surgery_formula(sw_elliptic(2), tp("t - 1"))

    def test_rejects_non_unit_at_one(self):
        with pytest.raises(InvalidParameters):
            knot_surgery_formula(sw_elliptic(2), tp("t + 1 + t^-1"))


class TestLogTransforms:
    def test_multiplicity_two_on_k3(self):
        s = log_transform(sw_elliptic(2), 2)
        assert s.value() == tp("t + t^-1")

    def test_multiplicity_three_on_k3(self):
        s = log_transform(sw_elliptic(2), 3)
        assert s.value() == tp("t^2 + 1 + t^-2")

    def test_multiplicity_one_is_identity(self):
        for n in (2, 3, 4):
            assert (log_transform(sw_elliptic(n), 1).value()
                    == sw_elliptic(n).value())

    def test_multiplicity_zero_kills(self):
        assert log_transform(sw_elliptic(2), 0).is_zero()

    def test_eval_at_one_counts_multiplicity(self):
        for r in (2, 3, 5):
            v = log_transform(sw_elliptic(2), r).value()
            assert v.eval_at_one() == r

    def test_double_matches_single_when_s_is_one(self):
        for n in (2, 3, 4):
            for r in (2, 3, 5):
                assert (double_log_transform(n, r, 1).value()
                        == log_transform(sw_elliptic(n), r).value())

    def test_double_transform_values(self):
        v = double_log_transform(2, 2, 3).value()
        num = tp("t^6 - t^-6") ** 2
        den = tp("t^2 - t^-2") * tp("t^3 - t^-3")
        assert v * den == num
        assert v.eval_at_one() == 6

    def test_double_transform_odd_case(self):
        v = double_log_transform(3, 2, 3).value()
        assert is_symmetric(v, sign=-1)
        assert v.eval_at_one() == 0

    def test_double_needs_coprime(self):
        with pytest.raises(InvalidParameters):
            double_log_transform(2, 2, 4)
        with pytest.raises(InvalidParameters):
            double_log_transform(1, 2, 3)

    def test_palindromes(self):
        for (n, r, s) in [(2, 2, 3), (3, 2, 3), (2, 3, 5)]:
            v = double_log_transform(n, r, s).value()
            assert is_symmetric(v, sign=(-1) ** n)

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([
        sw_elliptic(3),
        sw_elliptic(4),
        blowup_formula(sw_elliptic(3), ["e1", "e2"]),
        t2d2_piece(),
    ]), st.integers(1, 40))
    def test_spread_matches_sum_of_powers(self, sw, r):
        # t2d2_piece stays a pair: 1 / (t^-r - t^r) does not reduce
        got = log_transform(sw, r)
        want = log_transform_by_sum(sw, r)
        assert (got.num, got.den, got.kind) == (want.num, want.den, want.kind)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 6), st.integers(1, 12), st.integers(1, 12))
    def test_double_matches_exact_division(self, n, r, s):
        assume(math.gcd(r, s) == 1)
        want = exact_div(bracket(r * s) ** n, bracket(r) * bracket(s))
        got = double_log_transform(n, r, s)
        assert got.is_reduced()
        assert got.value() == want

    def test_large_parameters(self):
        # facts that need no reference formula; the closed forms build these
        # in well under a second
        e = sw_elliptic(1000).value()
        assert len(e) == 999
        assert is_symmetric(e)
        assert e.eval_at_one() == 0
        assert e.coefficient({}) == -math.comb(998, 499)
        for v, terms in [
                (log_transform(sw_elliptic(2), 10**4).value(), 10**4),
                (double_log_transform(2, 300, 301).value(), 90300)]:
            assert len(v) == terms
            assert is_symmetric(v)
            assert v.eval_at_one() == terms


class TestCombineAndWalls:
    def test_mms_combination(self):
        a = SWInvariant.closed(tp("t"))
        b = SWInvariant.closed(tp("t^-1"))
        c = SWInvariant.closed(tp("1"))
        out = mms_combine(2, 3, -1, a, b, c)
        assert out.value() == tp("2t + 3t^-1 - 1")

    def test_wall_crossing_signs(self):
        assert wall_crossing_delta(0) == -1
        assert wall_crossing_delta(2) == 1
        assert wall_crossing_delta(4) == -1

    def test_wall_crossing_validation(self):
        with pytest.raises(InvalidParameters):
            wall_crossing_delta(1)
        with pytest.raises(InvalidParameters):
            wall_crossing_delta(-2)


class TestChamberedSeries:
    def test_e1_series_shape(self):
        minus, plus = chamber_series_e1(3)
        assert minus.chamber == "minus"
        assert plus.chamber == "plus"
        assert minus.window == 6
        assert minus.poly == tp("t + t^3 + t^5")
        assert plus.poly == tp("-t^-1 - t^-3 - t^-5")

    def test_difference_same_chamber(self):
        minus, _ = chamber_series_e1(4)
        shifted = ChamberedSeries("minus", minus.window,
                                  minus.poly + tp("t"))
        d = minus.difference(shifted)
        assert d.poly == tp("-t")
        assert d.window == minus.window

    def test_difference_keeps_smaller_window(self):
        a = ChamberedSeries("minus", 6, tp("t"))
        b = ChamberedSeries("minus", 4, tp("t^-1"))
        assert a.difference(b).window == 4

    def test_chamber_mismatch(self):
        minus, plus = chamber_series_e1(2)
        with pytest.raises(ChamberMismatch):
            minus.difference(plus)

    def test_scaled_by_shrinks_window(self):
        minus, _ = chamber_series_e1(4)
        delta = alexander_skein(trefoil()).substitute_power("t", 2)
        scaled = minus.scaled_by(delta)
        assert scaled.window == minus.window - 2
        assert scaled.poly == minus.poly * delta

    def test_restricted_drops_outside(self):
        s = ChamberedSeries("minus", 2, tp("t^5 + t + t^-1 + t^-7"))
        assert s.restricted("t") == tp("t + t^-1")


class TestTwistFixture:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_fixture_values(self, n):
        v = sw_e1_twist_knot(n)
        assert v == tp(f"{-n}t + {n}t^-1")

    def test_consistency_eval_one(self):
        for n in (1, 2, 3):
            assert sw_e1_twist_knot(n).eval_at_one() == 0

    def test_consistency_odd_symmetry(self):
        for n in (1, 2, 3):
            assert is_symmetric(sw_e1_twist_knot(n), sign=-1)

    def test_chamber_route_agrees(self):
        # scale the minus chamber by the twist-knot polynomial in t^2,
        # subtract the unscaled chamber, keep the shared window
        for n in (1, 2, 3):
            minus, _ = chamber_series_e1(6)
            delta = alexander_skein(twist_knot(n)).substitute_power("t", 2)
            scaled = minus.scaled_by(delta)
            diff = scaled.difference(
                ChamberedSeries(minus.chamber, scaled.window, minus.poly))
            assert diff.restricted("t") == sw_e1_twist_knot(n)


class TestDimensionsAndBounds:
    def test_sw_dimension(self):
        k3 = CharInvariants(euler=24, sigma=-16, parity=0)
        assert sw_dimension(0, k3) == 0

    def test_dimension_non_integral(self):
        k3 = CharInvariants(euler=24, sigma=-16, parity=0)
        with pytest.raises(NonIntegralDimension):
            sw_dimension(1, k3)

    def test_adjunction(self):
        assert adjunction_check(1, 0, 0)
        assert adjunction_check(2, 1, 1)
        assert not adjunction_check(1, 2, 2)
        with pytest.raises(InvalidParameters):
            adjunction_check(0, 0, 0)


def c5_config(taut=False):
    images = {name: ("t", Fraction(1)) for name in ("e1", "e2", "e3", "e4")}
    return ConfigIntersections.make(
        5, standard_blowdown_rows(5), images=images, taut=taut)


class TestDescent:
    # p = 5 is test_standard_rows_p5
    @pytest.mark.parametrize("p,rows", [
        (2, {"e1": (2,)}),
        (3, {"e1": (2, -1), "e2": (1, 1)}),
        (4, {"e1": (2, -1, 0), "e2": (1, 1, -1), "e3": (1, 0, 1)}),
        (6, {"e1": (2, -1, 0, 0, 0), "e2": (1, 1, -1, 0, 0),
             "e3": (1, 0, 1, -1, 0), "e4": (1, 0, 0, 1, -1),
             "e5": (1, 0, 0, 0, 1)}),
    ])
    def test_standard_rows_frozen(self, p, rows):
        assert standard_blowdown_rows(p) == rows

    def test_standard_rows_p5(self):
        rows = standard_blowdown_rows(5)
        assert sorted(rows) == ["e1", "e2", "e3", "e4"]
        assert rows["e1"] == (2, -1, 0, 0)
        assert rows["e2"] == (1, 1, -1, 0)
        assert rows["e3"] == (1, 0, 1, -1)
        assert rows["e4"] == (1, 0, 0, 1)

    def test_c5_descent_palindrome(self):
        sw = blowup_formula(sw_elliptic(2), ["e1", "e2", "e3", "e4"])
        out = descend(sw, c5_config())
        assert out.value() == tp("t^4 + t^2 + 1 + t^-2 + t^-4")

    def test_c5_taut_inapplicable(self):
        # mixed-sign classes pair with the lead sphere as +-1 or +-3,
        # so the taut shortcut cannot process this configuration
        sw = blowup_formula(sw_elliptic(2), ["e1", "e2", "e3", "e4"])
        with pytest.raises(NotTaut):
            descend(sw, c5_config(taut=True))

    def test_c5_coefficient_conservation(self):
        sw = blowup_formula(sw_elliptic(2), ["e1", "e2", "e3", "e4"])
        before = sorted(abs(c) for _, c in sw.value().terms())
        out = descend(sw, c5_config())
        after = [abs(c) for _, c in out.value().terms()]
        # every kept class carries its coefficient through unchanged;
        # here all sixteen classes survive and collide in binomial groups
        assert sum(after) <= sum(before)
        assert set(after) <= set(before) | {1}

    def test_y4_descent(self):
        cfg = ConfigIntersections.make(
            2, {"t": (1,)}, images={"t": ("t", Fraction(1, 2))})
        out = descend(sw_elliptic(4), cfg)
        assert out.value() == tp("t + t^-1")

    def test_y4_taut_agrees(self):
        cfg = ConfigIntersections.make(
            2, {"t": (1,)}, images={"t": ("t", Fraction(1, 2))}, taut=True)
        assert descend(sw_elliptic(4), cfg).value() == tp("t + t^-1")

    def test_taut_violation(self):
        cfg = ConfigIntersections.make(2, {"t": (3,)}, taut=True)
        with pytest.raises(NotTaut):
            descend(sw_elliptic(4), cfg)

    def test_missing_row(self):
        sw = blowup_formula(sw_elliptic(2), ["e1"])
        cfg = ConfigIntersections.make(2, {"x": (1,)})
        with pytest.raises(MissingIntersectionData):
            descend(sw, cfg)

    def test_odd_classes_drop_at_p2(self):
        cfg = ConfigIntersections.make(2, {"t": (1,)})
        out = descend(SWInvariant.closed(tp("t + t^-1")), cfg)
        assert out.is_zero()

    def test_fractional_pairing_rejected(self):
        cfg = ConfigIntersections.make(2, {"t": (1,)})
        half = LaurentPoly.from_terms(T, [({"t": Fraction(1, 2)}, 1),
                                          ({"t": Fraction(-1, 2)}, 1)])
        with pytest.raises(InvalidParameters):
            descend(SWInvariant.closed(half), cfg)

    def test_collision_disagreement(self):
        # two classes mapping to the same image must carry equal values
        cfg = ConfigIntersections.make(
            2, {"t": (1,)}, images={"t": ("t", Fraction(0))})
        bad = SWInvariant.closed(tp("t^2 - t^-2"))
        with pytest.raises(InvalidParameters):
            descend(bad, cfg)

    def test_row_length_validation(self):
        with pytest.raises(InvalidParameters):
            ConfigIntersections.make(5, {"e1": (1, 2)})


class TestWalker:
    def test_elliptic(self):
        for n in (2, 3, 5):
            assert (from_manifold(elliptic(n)).value()
                    == sw_elliptic(n).value())

    def test_primitives_refused(self):
        for prim in (cp2(), s2xs2()):
            with pytest.raises(RegimeError):
                from_manifold(prim)
        with pytest.raises(RegimeError):
            from_manifold(cp2_bar())

    def test_horikawa_elliptic_edge(self):
        assert (from_manifold(horikawa(2, 3)).value()
                == sw_elliptic(3).value())

    def test_horikawa_general(self):
        v = from_manifold(horikawa(3, 4)).value()
        chi = horikawa(3, 4).invariants.chi_h
        assert v == tp("t") + tp(f"{(-1) ** chi}t^-1")

    def test_connected_sum_vanishes(self):
        s = connected_sum(elliptic(2), elliptic(2))
        assert from_manifold(s).is_zero()

    def test_connected_sum_definite_refused(self):
        with pytest.raises(UnsupportedForSW) as exc:
            from_manifold(connected_sum(elliptic(2), cp2_bar()))
        assert "blowup" in str(exc.value)

    def test_blowup_walks_formula(self):
        v = from_manifold(blowup(elliptic(2), 2)).value()
        b = v.basis
        assert tuple(b) == ("E1", "E2", "t")
        expect = tp("E1 + E1^-1", b) * tp("E2 + E2^-1", b)
        assert v == expect

    @staticmethod
    def _ladder(depth):
        x = elliptic(2)
        for _ in range(depth):
            x = fiber_sum(x, elliptic(2))
        return x

    @pytest.mark.parametrize("depth", [1, 55, 150])
    def test_fiber_sum_ladder(self, depth):
        # depth fiber sums of E(2) onto E(2) build E(2 depth + 2)
        assert (from_manifold(self._ladder(depth)).value()
                == sw_elliptic(2 * depth + 2).value())

    def test_blown_up_ladder(self):
        # three exceptional classes put the walker on the multivariate
        # product path
        v = from_manifold(blowup(self._ladder(20), 3)).value()
        expect = blowup_formula(sw_elliptic(42), ["E1", "E2", "E3"])
        assert len(v.basis) == 4
        assert v == expect.value()

    def test_fiber_sum_elliptic(self):
        s = fiber_sum(elliptic(1), elliptic(1))
        assert from_manifold(s).value() == tp("1")
        s3 = fiber_sum(s, elliptic(1))
        assert from_manifold(s3).value() == tp("t - t^-1")

    def test_knot_surgery(self):
        x = knot_surgery(elliptic(2), "F", trefoil())
        assert from_manifold(x).value() == tp("t^2 - 1 + t^-2")

    def test_knot_surgery_reads_and_fills_the_table(self, monkeypatch):
        # a table entry is used as given: a figure-eight Delta filed under
        # the trefoil changes the value, on both the closed and the fiber
        # complement path
        runs = []
        monkeypatch.setattr(sw_module, "alexander_skein",
                            lambda k, **kw: runs.append(k) or
                            alexander_skein(k, **kw))
        x = knot_surgery(elliptic(2), "F", trefoil())
        glued = fiber_sum(x, elliptic(2))
        planted = {trefoil(): alexander_skein(figure_eight())}
        fig8 = knot_surgery(elliptic(2), "F", figure_eight())
        assert (from_manifold(x, deltas=planted).value()
                == from_manifold(fig8).value())
        assert (from_manifold(glued, deltas=planted).value()
                == from_manifold(fiber_sum(fig8, elliptic(2))).value())
        assert runs == [figure_eight(), figure_eight()]
        table = {}
        assert (from_manifold(glued, deltas=table).value()
                == from_manifold(glued).value())
        assert table == {trefoil(): tp("t - 1 + t^-1")}
        runs.clear()
        from_manifold(x, deltas=table)
        assert runs == []

    def test_call_without_a_table_starts_its_own(self, monkeypatch):
        # a knot used twice in one manifold is resolved once per call
        runs = []
        monkeypatch.setattr(sw_module, "alexander_skein",
                            lambda k, **kw: runs.append(k) or
                            alexander_skein(k, **kw))
        x = knot_surgery(elliptic(2), "F", trefoil())
        doubled = fiber_sum(x, x)
        for _ in range(2):
            assert from_manifold(doubled).value() == from_manifold(
                doubled, deltas={trefoil(): tp("t - 1 + t^-1")}).value()
        assert runs == [trefoil(), trefoil()]

    def test_budget_failure_is_not_kept_in_the_table(self):
        table = {}
        x = knot_surgery(elliptic(2), "F", torus_knot(3, 5))
        for _ in range(2):
            with pytest.raises(ResourceLimit):
                from_manifold(x, node_budget=10, deltas=table)
            assert table == {}
        from_manifold(x, deltas=table)
        assert list(table) == [torus_knot(3, 5)]

    def test_torus_surgery_is_log_transform(self):
        x = torus_surgery(elliptic(2), "F", 1, 0, 3)
        assert (from_manifold(x).value()
                == log_transform(sw_elliptic(2), 3).value())

    def test_stacked_transforms_refused(self):
        x = torus_surgery(elliptic(2), "F", 1, 0, 2)
        y = torus_surgery(x, "F", 0, 1, 3)
        with pytest.raises(UnsupportedForSW) as exc:
            from_manifold(y)
        assert "double_log_transform" in str(exc.value)

    def test_transform_after_fiber_sum_allowed(self):
        # a fiber sum resets the one-transform budget: the scan for a
        # prior transform stops at the gluing
        x = torus_surgery(fiber_sum(elliptic(1), elliptic(1)), "F", 1, 0, 2)
        s = fiber_sum(x, elliptic(1))
        y = torus_surgery(s, "F", 0, 1, 3)
        v = from_manifold(y).value()
        assert v.eval_at_one() == 3 * from_manifold(s).value().eval_at_one()

    def test_rational_blowdown_refused(self):
        b = blowup(elliptic(2), 4)
        x = rational_blowdown(b, 5)
        with pytest.raises(UnsupportedForSW) as exc:
            from_manifold(x)
        assert "descend" in str(exc.value)

    def test_reverse_refused(self):
        with pytest.raises(UnsupportedForSW):
            from_manifold(reverse_orientation(elliptic(2)))

    def test_e1_alone_refused(self):
        with pytest.raises(RegimeError):
            from_manifold(elliptic(1))


# ---- the fiber-sum block product against the pairwise fold ----

def pairwise_walk(desc, budget, deltas):
    """Frozen reference: the walker as it was when each fiber sum glued its
    two sides' relative values, one gluing at a time (ops the trees below
    do not use go to from_manifold)."""
    op = desc.op
    if op == "fiber_sum":
        a, b = desc.parents
        return glue(pairwise_relative(a, budget, deltas),
                    pairwise_relative(b, budget, deltas))
    if op == "blowup":
        return blowup_formula(pairwise_walk(desc.parents[0], budget, deltas),
                              sw_module._added_exceptional_names(desc))
    if op == "knot_surgery":
        base = pairwise_walk(desc.parents[0], budget, deltas)
        return knot_surgery_formula(base, sw_module._delta(
            desc.params[1], budget, deltas, alexander_skein))
    if op == "torus_surgery":
        if sw_module._has_prior_transform(desc, desc.params[0]):
            raise UnsupportedForSW(
                "two transforms on one torus do not compose variable-wise; "
                "use double_log_transform for the two-parameter formula")
        return log_transform(pairwise_walk(desc.parents[0], budget, deltas),
                             desc.params[3])
    return from_manifold(desc, node_budget=budget, deltas=deltas)


def pairwise_relative(node, budget, deltas):
    if node.op == "E" and node.params == (1,):
        return e1_relative()
    if node.op == "knot_surgery":
        delta = sw_module._delta(node.params[1], budget, deltas,
                                 alexander_skein)
        return knot_surgery_formula(
            pairwise_relative(node.parents[0], budget, deltas), delta)
    if node.op == "blowup":
        return blowup_formula(
            pairwise_relative(node.parents[0], budget, deltas),
            sw_module._added_exceptional_names(node))
    return relative_from_closed(pairwise_walk(node, budget, deltas))


SMALL_KNOTS = ("trefoil", "figure8", "square", "granny", "torus_2_5",
               "twist2")


# a node's class degree is its exceptional classes counted once per path
# to their blowup, so a doubling doubles it; the walker's class factor for
# the node has at most 2^degree terms, so this cap keeps every tree cheap
MAX_CLASS_DEGREE = 6


@st.composite
def build_trees(draw):
    """A manifold grown by a few random steps from E(1..6) leaves: fiber
    sums (a node may be summed with itself), table-knot surgeries, torus
    surgeries, fiber-sum ladders, doublings, chains of up to 40 knot
    surgeries mixed with blowups (some over a fresh E(1)), and blowups on
    their own, on both sides of one fiber sum and above a fiber sum whose
    leaf blew up, so the fold checks class factors and collapsed names. A
    step whose node would pass MAX_CLASS_DEGREE adds nothing."""
    knots = load_knot_table()
    pool, degree = [elliptic(draw(st.integers(1, 6)))], [0]

    def pick():
        i = draw(st.integers(0, len(pool) - 1))
        return pool[i], degree[i]

    def add(node, k):
        if k <= MAX_CLASS_DEGREE:
            pool.append(node)
            degree.append(k)

    def blown(x, k):
        more = draw(st.integers(1, 2))
        return blowup(x, more), k + more

    for _ in range(draw(st.integers(2, 7))):
        step = draw(st.sampled_from(("leaf", "sum", "sum", "sum", "knot",
                                     "knot", "torus", "ladder", "double",
                                     "chain", "blowup", "both", "above")))
        if step == "leaf":
            add(elliptic(draw(st.integers(1, 6))), 0)
        elif step == "sum":
            (a, ka), (b, kb) = pick(), pick()
            add(fiber_sum(a, b), ka + kb)
        elif step == "knot":
            name = draw(st.sampled_from(SMALL_KNOTS))
            x, k = pick()
            add(knot_surgery(x, "F", knots[name]), k)
        elif step == "torus":
            x, k = pick()
            add(torus_surgery(x, "F", 1, 0, draw(st.integers(0, 4))), k)
        elif step == "ladder":
            x, k = pick()
            for _ in range(draw(st.integers(1, 25))):
                x = fiber_sum(x, elliptic(draw(st.integers(1, 3))))
            add(x, k)
        elif step == "double":
            x, k = pick()
            for _ in range(draw(st.integers(1, 3))):
                x, k = fiber_sum(x, x), 2 * k
            add(x, k)
        elif step == "chain":
            x, k = (elliptic(1), 0) if draw(st.booleans()) else pick()
            for _ in range(draw(st.integers(1, 40))):
                if draw(st.integers(0, 5)) == 0:
                    x, k = blowup(x, 1), k + 1
                else:
                    name = draw(st.sampled_from(SMALL_KNOTS))
                    x = knot_surgery(x, "F", knots[name])
            add(x, k)
        elif step == "both":
            (a, ka), (b, kb) = blown(*pick()), blown(*pick())
            add(fiber_sum(a, b), ka + kb)
        elif step == "above":
            (a, ka), (b, kb) = blown(*pick()), pick()
            add(*blown(fiber_sum(a, b), ka + kb))
        else:
            add(*blown(*pick()))
    return pool[-1]


def block_walk(desc, budget, deltas):
    return from_manifold(desc, node_budget=budget, deltas=deltas)


def _outcome(walk, desc, budget):
    try:
        v = walk(desc, budget, {})
    except CalcError as exc:
        return type(exc), str(exc)
    return (v.num, v.den, tuple(v.basis), v.kind, v.simple_type, str(v))


class TestFiberSumBlocks:
    @settings(max_examples=150, deadline=None)
    @given(build_trees(), st.sampled_from((3, 40, DEFAULT_NODE_BUDGET)))
    def test_block_product_matches_the_pairwise_fold(self, desc, budget):
        assert (_outcome(block_walk, desc, budget)
                == _outcome(pairwise_walk, desc, budget))

    def test_refusals_match_the_pairwise_fold(self):
        stacked = torus_surgery(torus_surgery(elliptic(2), "F", 1, 0, 2),
                                "F", 0, 1, 3)
        surgered = knot_surgery(elliptic(3), "F", trefoil())
        # the first leaf to fail, left to right, sets the error
        for desc, budget in ((fiber_sum(elliptic(2), stacked), 10 ** 6),
                             (elliptic(1), 10 ** 6),
                             (fiber_sum(fiber_sum(elliptic(1), surgered),
                                        surgered), 3),
                             (fiber_sum(stacked, surgered), 3),
                             (fiber_sum(surgered, stacked), 3)):
            got = _outcome(block_walk, desc, budget)
            assert got == _outcome(pairwise_walk, desc, budget)
            assert issubclass(got[0], CalcError)

    def test_deep_doubling_walks_one_leaf(self, monkeypatch):
        calls = []
        walker = sw_module.from_manifold
        monkeypatch.setattr(sw_module, "from_manifold",
                            lambda d, **kw: calls.append(d) or walker(d, **kw))
        x = elliptic(2)
        for _ in range(10):
            x = fiber_sum(x, x)
        # 1024 copies of E(2) summed along fibers: E(2048)
        assert sw_module.from_manifold(x).value() == sw_elliptic(2048).value()
        assert len(calls) <= 2

    def test_shared_leaf_counts_once_per_path(self):
        k = knot_surgery(elliptic(2), "F", trefoil())
        y = fiber_sum(k, elliptic(3))
        x = fiber_sum(fiber_sum(y, k), fiber_sum(y, y))
        assert sw_module._block_leaves(x) == [(k, 4), (elliptic(3), 3)]
        assert from_manifold(x).value() == pairwise_walk(
            x, DEFAULT_NODE_BUDGET, {}).value()


class TestChainWalk:
    def test_deep_chain_takes_two_walker_calls(self, monkeypatch):
        calls, skein_calls = [], []
        walker, skein = sw_module.from_manifold, sw_module.alexander_skein
        monkeypatch.setattr(sw_module, "from_manifold",
                            lambda d, **kw: calls.append(d) or walker(d, **kw))
        monkeypatch.setattr(sw_module, "alexander_skein",
                            lambda *a, **kw: skein_calls.append(a)
                            or skein(*a, **kw))
        x = elliptic(3)
        for _ in range(1000):
            x = knot_surgery(x, "F", braid_closure([1, -2], 3))
        # Delta = 1 at every node: the value stays SW(E(3))
        assert sw_module.from_manifold(x).value() == sw_elliptic(3).value()
        assert calls == [x, elliptic(3)]
        assert len(skein_calls) == 1

    def test_deep_chain_over_e1_in_a_fiber_sum(self):
        knot = braid_closure([1, -2], 3)
        x = elliptic(1)
        for _ in range(1000):
            x = knot_surgery(x, "F", knot)
        one_step = fiber_sum(knot_surgery(elliptic(1), "F", knot),
                             elliptic(2))
        got = from_manifold(fiber_sum(x, elliptic(2)))
        assert str(got) == str(from_manifold(one_step))
        assert str(got) == str(pairwise_walk(one_step, DEFAULT_NODE_BUDGET,
                                             {}))
        assert got.value() == sw_elliptic(3).value()

    def test_leaf_looks_delta_up_before_its_base(self):
        # a leaf's failing Delta is raised before the stacked transforms
        # below it; in a closed chain the base comes first
        stacked = torus_surgery(torus_surgery(elliptic(2), "F", 1, 0, 2),
                                "F", 0, 1, 3)
        surgered = knot_surgery(stacked, "F", torus_knot(3, 5))
        with pytest.raises(ResourceLimit):
            from_manifold(fiber_sum(surgered, elliptic(2)), node_budget=3)
        with pytest.raises(UnsupportedForSW):
            from_manifold(surgered, node_budget=3)

    def test_leaf_blowups_act_on_the_relative_value(self, monkeypatch):
        # t^-1 - t telescopes a log-transform spread, so a leaf's relative
        # value can have fewer terms than its closed value, or more; the
        # blowup term bound sees the relative value, as the pairwise fold did
        monkeypatch.setattr(sw_module, "MAX_BLOWUP_TERMS", 1 << 6)
        spread = torus_surgery(elliptic(2), "F", 1, 0, 3)
        for base, refused in ((spread, False), (elliptic(3), True)):
            desc = fiber_sum(blowup(base, 5), elliptic(2))
            got = _outcome(block_walk, desc, DEFAULT_NODE_BUDGET)
            assert got == _outcome(pairwise_walk, desc, DEFAULT_NODE_BUDGET)
            assert (got[0] is ResourceLimit) == refused


class TestClassFactor:
    def test_term_bound_matches_the_pairwise_fold(self, monkeypatch):
        # the bound counts sw terms times class terms, so it trips at the
        # same blowup, with the same count, as on the multiplied-out value;
        # a blowup above the block collides with the leaves' E1 first
        monkeypatch.setattr(sw_module, "MAX_BLOWUP_TERMS", 64)
        seen = set()
        for n in range(2, 9):
            left = blowup(knot_surgery(blowup(elliptic(n), 1), "F",
                                       trefoil()), 2)
            block = fiber_sum(left, blowup(elliptic(2), 1))
            for desc in (block, blowup(block, 1)):
                got = _outcome(block_walk, desc, DEFAULT_NODE_BUDGET)
                assert got == _outcome(pairwise_walk, desc,
                                       DEFAULT_NODE_BUDGET)
                seen.add(got[0] if isinstance(got[0], type) else "value")
        assert seen == {"value", ResourceLimit, InvalidParameters}

    def test_ten_classes_keep_the_sorted_basis(self):
        names = [f"E{i}" for i in range(1, 11)]
        expect = blowup_formula(sw_elliptic(3), names)
        for desc in (blowup(elliptic(3), 10),
                     fiber_sum(blowup(elliptic(3), 10), elliptic(2))):
            got = from_manifold(desc)
            assert tuple(got.basis) == ("E1", "E10") + tuple(
                f"E{i}" for i in range(2, 10)) + ("t",)
            assert got.basis == expect.basis
        assert str(from_manifold(blowup(elliptic(3), 10))) == str(expect)
