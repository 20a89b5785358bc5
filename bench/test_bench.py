"""The benchmark's own checks: generator, oracle and tracer.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle as O            # noqa: E402
import spans                  # noqa: E402
import workloads as W         # noqa: E402
import swcalc                 # noqa: E402
import swcalc.sw              # noqa: E402


def test_generated_closures_are_knots():
    rng = random.Random(0)
    cells = (W.KNOT_SKEIN.light + W.KNOT_SKEIN.heavy + W.KNOT_FOX.light
             + W.KNOT_FOX.heavy + [(2, 5), (3, 6), (4, 7)])
    for strands, crossings in cells:
        for _ in range(3):
            word, _ = W.knotted_braid(rng, strands, crossings)
            assert len(word) == crossings
            assert W.is_s_cycle(word, strands)
            diagram = swcalc.braid_closure(word, strands)
            assert diagram.component_count() == 1
    for wl in (W.KNOT_SKEIN, W.KNOT_FOX):
        fixed = [a[1:] for a in wl.anchors.values()]
        for word, strands in fixed + ([wl.lead] if wl.lead else []):
            assert W.is_s_cycle(word, strands)
            diagram = swcalc.braid_closure(list(word), strands)
            assert diagram.component_count() == 1


def test_impossible_length_is_refused_not_searched():
    with pytest.raises(ValueError):
        W.knotted_braid(random.Random(0), 4, 10)
    with pytest.raises(ValueError):
        W.knotted_braid(random.Random(0), 3, 9)


def test_oracle_alexander_on_known_knots():
    assert O.burau_alexander([1, 1, 1], 2) == {1: 1, 0: -1, -1: 1}
    assert O.burau_alexander([1, -2, 1, -2], 3) == {1: -1, 0: 3, -1: -1}
    assert O.burau_alexander([1] * 5, 2) == {2: 1, 1: -1, 0: 1, -1: -1, -2: 1}
    assert O.twist_alexander(1) == O.TREFOIL


def test_oracle_sw_on_elliptic_surfaces():
    e4 = {2: 1, 0: -2, -2: 1}
    assert O.manifold_sw(("E", 4), None).num == e4
    assert O.manifold_sw(("fiber_sum", ("E", 2), ("E", 2)), None).num == e4
    assert O.glue(O.SW({0: -1}, kind="relative"),
                  O.sw_elliptic(3).relative()).num == {2: 1, 0: -2, -2: 1}
    e2k = O.manifold_sw(("knot_surgery", ("E", 2), "trefoil"),
                        O.TABLE_ALEXANDER.get)
    assert O.format_sw(e2k) == "t^2 - 1 + t^-2"


def test_oracle_agrees_with_the_program():
    for word, strands in (([1, 1, 1], 2), ([1, -2, 1, -2], 3), ([1] * 5, 2)):
        diagram = swcalc.braid_closure(word, strands)
        ref = O.burau_alexander(word, strands)
        assert W.poly_of(swcalc.alexander_fox(diagram)) == ref
        assert W.poly_of(swcalc.alexander_skein(diagram)) == ref
    got = swcalc.from_manifold(swcalc.elliptic(4)).value()
    assert W.SWWalk().check(got, {"ref": O.manifold_sw(("E", 4), None)})[0]


def test_braid_pd_parses_to_the_same_knot():
    rng = random.Random(1)
    for strands, crossings in ((2, 5), (3, 6), (4, 7)):
        word, delta = W.knotted_braid(rng, strands, crossings)
        diagram = swcalc.parse_pd(W.braid_pd(word, strands))
        assert W.poly_of(swcalc.alexander_fox(diagram)) == delta


def test_probe_shapes_differ_from_the_reference_today():
    wl = W.SWWalk()
    items = wl.probe_plan(random.Random(2), 1)
    desc = wl.build(swcalc, items)
    both_sides = swcalc.from_manifold(desc[1]).value()
    assert wl.check(both_sides, items[1]) == (False, "collapsed_classes")


def test_tracer_patches_every_namespace_and_restores():
    original = swcalc.sw.alexander_skein
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert swcalc.sw.alexander_skein is not original
        x = swcalc.knot_surgery(swcalc.elliptic(2), "F", swcalc.trefoil())
        swcalc.from_manifold(x).value()
    finally:
        tracer.uninstall()
    assert swcalc.sw.alexander_skein is original
    calls, seconds, in_walker = tracer.layer_totals()
    assert calls["knots.alexander_skein"] == 1
    assert calls["sw.from_manifold"] == 2      # the node and its parent
    assert calls["manifolds.build"] == 2
    assert in_walker > 0
    assert tracer.counters["knots.skein.memo_entries"] > 0
    for name, seconds_ in seconds.items():
        assert seconds_ >= 0, name


def test_spans_round_trip(tmp_path):
    tracer = spans.Tracer()
    tracer.install()
    try:
        swcalc.alexander_fox(swcalc.trefoil())
    finally:
        tracer.uninstall()
    path = tmp_path / "spans.bin.gz"
    count = tracer.write(path)
    rows = spans.read(path)
    assert len(rows) == count
    names = [row[0] for row in rows]
    assert "knots.alexander_fox" in names and "laurent.mul" in names
    fox = names.index("knots.alexander_fox")
    assert all(row[2] >= fox for row in rows if row[0] == "laurent.mul")
