import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from swcalc import cli
from swcalc import sw as sw_module
from swcalc.errors import KindError, ScriptError
from swcalc.knots import braid_closure, figure_eight, trefoil

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.swc"))


def run_cli(args, stdin=None):
    return subprocess.run([sys.executable, "-m", "swcalc", *args],
                          input=stdin, capture_output=True, text=True,
                          timeout=120)


class TestBundledScripts:
    @pytest.mark.parametrize("script", SCRIPTS, ids=[s.stem for s in SCRIPTS])
    def test_script_passes(self, script):
        out = run_cli([str(script)])
        assert out.returncode == 0, out.stdout + out.stderr
        assert "FAILED" not in out.stdout

    def test_corpus_present(self):
        assert len(SCRIPTS) >= 8


class TestStatements:
    def test_knot_pipeline(self):
        src = ("knot K = trefoil\n"
               "print alexander K\n"
               "assert alexander_is(K, t - 1 + t^-1)\n")
        out = run_cli(["-"], stdin=src)
        assert out.returncode == 0
        assert "Delta: t - 1 + t^-1" in out.stdout
        assert "ok: assert alexander_is" in out.stdout

    def test_manifold_pipeline(self):
        src = ("manifold X = E(2)\n"
               "print invariants X\n"
               "sw S = sw(X)\n"
               "print sw S\n")
        out = run_cli(["-"], stdin=src)
        assert out.returncode == 0
        assert "e=24 sigma=-16" in out.stdout
        assert "spin=yes" in out.stdout
        assert "basis: t | SW: 1" in out.stdout

    def test_geography_print(self):
        src = ("manifold X = E(3)\n"
               "print geography X\n")
        out = run_cli(["-"], stdin=src)
        assert out.returncode == 0
        assert "chi_h=3 c=0" in out.stdout
        assert "elliptic-line" in out.stdout

    def test_surgery_chain(self):
        src = ("manifold X = E(2)\n"
               "knot K = twist(2)\n"
               "manifold Y = knot_surgery(X, F, K)\n"
               "assert homeo(X, Y)\n"
               "sw A = sw(X)\n"
               "sw B = sw(Y)\n"
               "assert not sw_equal(A, B)\n")
        out = run_cli(["-"], stdin=src)
        assert out.returncode == 0, out.stdout + out.stderr
        assert out.stdout.count("ok:") == 2

    def test_assert_failure_exits_one(self):
        src = ("manifold X = E(2)\n"
               "sw S = sw(X)\n"
               "assert sw_is(S, t)\n")
        out = run_cli(["-"], stdin=src)
        assert out.returncode == 1
        assert "FAILED" in out.stdout
        assert "left:" in out.stdout and "right:" in out.stdout

    def test_parse_error_exits_two(self):
        out = run_cli(["-"], stdin="knot K = trefoil(\n")
        assert out.returncode == 2
        assert out.stderr.startswith("error (line 1, col 1)")

    def test_error_reports_line_number(self):
        src = "knot K = trefoil\nmanifold X = E(zero)\n"
        out = run_cli(["-"], stdin=src)
        assert out.returncode == 2
        assert "line 2" in out.stderr

    def test_undefined_name(self):
        out = run_cli(["-"], stdin="sw S = sw(X)\n")
        assert out.returncode == 2
        assert "not a defined" in out.stderr

    def test_alexander_equal_two_engines(self):
        # one-argument form checks the two evaluation routes agree
        src = ("knot K = figure8\n"
               "assert alexander_equal(K)\n")
        out = run_cli(["-"], stdin=src)
        assert out.returncode == 0
        assert "ok:" in out.stdout


class TestConfigStatements:
    def test_blowdown_descent(self):
        src = ("manifold X = E(2)\n"
               "manifold B = blowup(X, 4)\n"
               "sw S = sw(B)\n"
               "config C = blowdown(5; E1: 2 -1 0 0 -> t; E2: 1 1 -1 0 -> t;"
               " E3: 1 0 1 -1 -> t; E4: 1 0 0 1 -> t)\n"
               "sw D = descend(S, C)\n"
               "assert sw_is(D, t^4 + t^2 + 1 + t^-2 + t^-4)\n")
        out = run_cli(["-"], stdin=src)
        assert out.returncode == 0, out.stdout + out.stderr

    def test_taut_blowdown(self):
        src = ("manifold X = E(4)\n"
               "sw S = sw(X)\n"
               "config C = blowdown(2, taut; t: 1 -> t^(1/2))\n"
               "sw D = descend(S, C)\n"
               "assert sw_is(D, t + t^-1)\n")
        out = run_cli(["-"], stdin=src)
        assert out.returncode == 0, out.stdout + out.stderr


class TestOutputModes:
    def test_json_mode(self):
        src = ("knot K = trefoil\n"
               "print alexander K\n"
               "assert alexander_is(K, t - 1 + t^-1)\n")
        out = run_cli(["--json", "-"], stdin=src)
        assert out.returncode == 0
        lines = [json.loads(l) for l in out.stdout.splitlines() if l.strip()]
        prints = [obj for obj in lines if obj.get("print") == "alexander"]
        assert prints and prints[0]["value"] == "t - 1 + t^-1"
        ok = [obj for obj in lines if "assert" in obj]
        assert ok and ok[0]["ok"] is True and ok[0]["line"] == 3

    def test_emit_geography_stdout(self):
        out = run_cli(["-"], stdin="emit geography 2\n")
        assert out.returncode == 0
        assert out.stdout.splitlines()[0] == "chi_h\tc\ttags"

    def test_emit_geography_file(self, tmp_path):
        target = tmp_path / "chart.tsv"
        out = run_cli(["-"], stdin=f"emit geography 2 > {target}\n")
        assert out.returncode == 0
        text = target.read_text()
        assert text.startswith("chi_h\tc\ttags")
        assert "1\t0\t" in text

    def test_emit_geography_unwritable_path(self, tmp_path):
        target = tmp_path / "missing" / "chart.tsv"
        out = run_cli(["-"], stdin=f"knot K = trefoil\n"
                                   f"emit geography 2 > {target}\n")
        assert out.returncode == 2
        assert out.stderr.startswith("error (line 2, col 1): ")
        assert str(target) in out.stderr
        assert "internal error" not in out.stderr

    def test_version(self):
        out = run_cli(["--version"])
        assert out.returncode == 0
        assert out.stdout.strip().split()[-1].count(".") == 2

    def test_node_budget_flag(self):
        src = ("knot K = torus(3, 5)\n"
               "assert alexander_equal(K)\n")
        out = run_cli(["--node-budget", "10", "-"], stdin=src)
        assert out.returncode == 2
        assert "node budget" in out.stderr

    def test_node_budget_validation(self):
        out = run_cli(["--node-budget", "0", "-"], stdin="")
        assert out.returncode == 2

    def test_blowup_term_bound_exits_two(self):
        src = ("manifold X = E(2)\n"
               "manifold B = blowup(X, 30)\n"
               "sw s = sw(B)\n")
        out = run_cli(["-"], stdin=src)
        assert out.returncode == 2
        assert out.stderr.startswith("error (line 3, col 1):")
        assert "Traceback" not in out.stderr

    def test_deep_blowup_chain_hits_the_term_bound(self):
        # the walker takes a 1200-deep blowup chain without recursion, so
        # the blowup formula's term bound is what refuses it
        lines = ["manifold m0 = E(2)"]
        lines += [f"manifold m{i} = blowup(m{i - 1}, 1)"
                  for i in range(1, 1200)]
        lines.append("sw s = sw(m1199)")
        out = run_cli(["-"], stdin="\n".join(lines) + "\n")
        assert out.returncode == 2
        assert out.stderr.startswith(
            "error (line 1201, col 1): blowup formula would produce")
        assert "Traceback" not in out.stderr

    def test_internal_error_exits_two_without_traceback(self, monkeypatch,
                                                        capsys):
        # a defect that is not a CalcError must still honour the exit
        # contract (1 is for asserts)
        def broken(*args, **kwargs):
            raise RuntimeError("planted defect")
        monkeypatch.setattr(cli, "from_manifold", broken)
        monkeypatch.setattr(sys, "stdin",
                            io.StringIO("manifold X = E(2)\nsw s = sw(X)\n"))
        assert cli.main(["-"]) == 2
        err = capsys.readouterr().err
        assert err == "error: internal error: RuntimeError: planted defect\n"


def test_deep_fiber_sum_ladder_exits_zero():
    # 1000 fiber sums of E(2) build E(2002); the walker takes the ladder as
    # one product, where gluing one sum at a time hit the recursion limit
    lines = ["manifold m0 = E(2)"]
    lines += [f"manifold m{i} = fiber_sum(m{i - 1}, m0)"
              for i in range(1, 1001)]
    lines += ["sw s = sw(m1000)", "print sw s"]
    out = io.StringIO()
    assert cli.run_script("\n".join(lines) + "\n", out=out) == 0
    assert out.getvalue() == f"basis: t | SW: {sw_module.sw_elliptic(2002)}\n"


def test_deep_knot_surgery_chain_exits_zero():
    # 1000 knot surgeries along a knot with Delta = 1 leave SW(E(3)); the
    # walker takes the chain without recursion
    lines = ["manifold m0 = E(3)", "knot K = braid: 1 -2"]
    lines += [f"manifold m{i} = knot_surgery(m{i - 1}, F, K)"
              for i in range(1, 1001)]
    lines += ["sw s = sw(m1000)", "print sw s"]
    out = run_cli(["-"], stdin="\n".join(lines) + "\n")
    assert out.returncode == 0, out.stderr
    assert out.stdout == "basis: t | SW: t - t^-1\n"


def test_table_resolves_functions_at_call_time(monkeypatch):
    # a wrapper put in swcalc.cli after import (as bench/spans.py does)
    # must see the calls the op table makes
    seen = []
    for name in ("cp2", "twist_knot", "glue", "alexander_skein",
                 "homeo_equal"):
        original = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, _f=original, _n=name, **k:
                            seen.append(_n) or _f(*a, **k))
    src = ("manifold X = CP2\n"
           "knot K = twist(2)\n"
           "sw R = e1_rel\n"
           "sw G = glue(R, R)\n"
           "print alexander K\n"
           "assert homeo(X, X)\n")
    assert cli.run_script(src, out=io.StringIO()) == 0
    assert sorted(seen) == ["alexander_skein", "cp2", "glue", "homeo_equal",
                            "twist_knot"]


# one failing assert of each kind after _FAIL_SETUP, with the sides the
# interpreter printed before it rendered them only on failure
_FAIL_SETUP = ("sw A = elliptic(3)\n"
               "sw B = elliptic(4)\n"
               "knot K = trefoil\n"
               "knot F = figure8\n"
               "manifold X = E(2)\n"
               "manifold Y = E(3)\n"
               "sw R = blowup_formula(A, e1)\n")
_FAILING = [
    ("sw_equal(A, B)", False, "t - t^-1", "t^2 - 2 + t^-2"),
    ("sw_is(R, t + e1)", False, "e1 t - e1 t^-1 + e1^-1 t - e1^-1 t^-1",
     "e1 + t"),
    ("alexander_is(K, t^2 - 1 + t^-2)", False, "t - 1 + t^-1",
     "t^2 - 1 + t^-2"),
    ("alexander_equal(K, F)", False, "t - 1 + t^-1", "-t + 3 - t^-1"),
    ("homeo(X, Y)", False, "(e=24, sigma=-16, t=0)",
     "(e=36, sigma=-24, t=1)"),
    ("alexander_equal(K)", True, "t - 1 + t^-1", "t - 1 + t^-1"),
    ("sw_is(A, t - t^-1)", True, "t - t^-1", "t - t^-1"),
]


class TestFailedAssertText:
    @pytest.mark.parametrize("pred,negated,left,right", _FAILING,
                             ids=[f[0].split("(")[0] + ("_not" if f[1] else "")
                                  for f in _FAILING])
    def test_sides_in_text_and_json(self, pred, negated, left, right):
        src = _FAIL_SETUP + f"assert {'not ' if negated else ''}{pred}\n"
        out = io.StringIO()
        assert cli.run_script(src, out=out) == 1
        assert out.getvalue().splitlines()[-3:] == [
            f"FAILED: assert {'not ' if negated else ''}{pred}",
            f"  left:  {left}", f"  right: {right}"]
        out = io.StringIO()
        assert cli.run_script(src, json_mode=True, out=out) == 1
        assert out.getvalue().splitlines()[-1] == json.dumps(
            {"assert": pred, "left": left, "line": 8, "negated": negated,
             "ok": False, "right": right})


def _count_skein(monkeypatch):
    calls = []
    original = cli.alexander_skein

    def counted(knot, **kwargs):
        calls.append(knot)
        return original(knot, **kwargs)

    monkeypatch.setattr(cli, "alexander_skein", counted)
    return calls


class TestAlexanderOncePerKnot:
    def test_one_skein_run_per_distinct_knot(self, monkeypatch):
        calls = _count_skein(monkeypatch)
        src = ("knot K = trefoil\n"
               "print alexander K\n"
               "assert alexander_is(K, t - 1 + t^-1)\n"
               "assert alexander_equal(K)\n"
               "sw E = elliptic(2)\n"
               "sw S = knot_surgery_formula(E, K)\n"
               "knot J = braid: 1 1 1\n"
               "assert alexander_equal(K, J)\n"
               "knot F = figure8\n"
               "print alexander F\n"
               "assert alexander_equal(F)\n"
               "assert not alexander_equal(K, F)\n")
        out = io.StringIO()
        assert cli.run_script(src, out=out) == 0, out.getvalue()
        # trefoil and braid: 1 1 1 are the same diagram
        assert trefoil() == braid_closure([1, 1, 1])
        assert calls == [trefoil(), figure_eight()]

    def test_redefined_name_gets_the_new_delta(self, monkeypatch):
        calls = _count_skein(monkeypatch)
        src = ("knot K = trefoil\n"
               "print alexander K\n"
               "knot K = figure8\n"
               "print alexander K\n"
               "assert alexander_is(K, -t + 3 - t^-1)\n")
        out = io.StringIO()
        assert cli.run_script(src, out=out) == 0
        assert out.getvalue().splitlines() == [
            "Delta: t - 1 + t^-1", "Delta: -t + 3 - t^-1",
            "ok: assert alexander_is(K, -t + 3 - t^-1)"]
        assert len(calls) == 2

    def test_walker_shares_the_run_table(self, monkeypatch):
        calls = _count_skein(monkeypatch)
        walker = []
        original = sw_module.alexander_skein
        monkeypatch.setattr(sw_module, "alexander_skein",
                            lambda k, **kw: walker.append(k) or
                            original(k, **kw))
        src = ("knot K = trefoil\n"
               "print alexander K\n"
               "manifold E = E(2)\n"
               "manifold X = knot_surgery(E, F, K)\n"
               "sw S = sw(X)\n"
               "manifold G = fiber_sum(X, E)\n"
               "sw S2 = sw(G)\n"
               "knot J = figure8\n"
               "manifold Y = knot_surgery(E, F, J)\n"
               "sw T = sw(Y)\n"
               "sw T2 = sw(Y)\n"
               "assert alexander_is(J, -t + 3 - t^-1)\n"
               "assert sw_is(S, t^2 - 1 + t^-2)\n")
        out = io.StringIO()
        assert cli.run_script(src, out=out) == 0, out.getvalue()
        # K's Delta comes from the print, J's from the first sw(Y)
        assert calls == [trefoil()]
        assert walker == [figure_eight()]

    def test_each_run_computes_again(self, monkeypatch):
        calls = _count_skein(monkeypatch)
        src = "knot K = trefoil\nprint alexander K\nprint alexander K\n"
        for _ in range(2):
            assert cli.run_script(src, out=io.StringIO()) == 0
        assert len(calls) == 2

    def test_budget_failure_is_not_kept(self, monkeypatch, tmp_path, capsys):
        script = tmp_path / "big.swc"
        script.write_text("knot K = torus(3, 5)\n"
                          "knot J = trefoil\n"
                          "print alexander J\n"
                          "print alexander K\n")
        assert cli.main(["--node-budget", "10", str(script)]) == 2
        out, err = capsys.readouterr()
        assert out == "Delta: t - 1 + t^-1\n"
        assert err.startswith("error (line 4, col 1): ")
        assert "node budget" in err
        # a ResourceLimit is raised again at every use, not remembered
        calls = _count_skein(monkeypatch)
        it = cli.Interpreter(node_budget=10, out=io.StringIO())
        it.run("knot K = torus(3, 5)\n")
        for _ in range(2):
            with pytest.raises(ScriptError) as exc:
                it.run("assert alexander_equal(K)\n")
            assert "node budget" in str(exc.value)
        assert len(calls) == 2


@pytest.mark.parametrize("text", [
    "", "a", " a , b ", "a,", ",", "f(a, b), c", "(a,(b,c)),d", " ( , ) ",
    "a)", "(a", "a,(b", "a),(b", ")(", "a,,b"])
def test_split_args_parts_and_errors(text):
    # the character walk the splitter replaced
    def reference(text):
        parts, depth, cur = [], 0, []
        for ch in text:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth < 0:
                    raise KindError("unbalanced parentheses")
            if ch == "," and depth == 0:
                parts.append("".join(cur).strip())
                cur = []
            else:
                cur.append(ch)
        if depth != 0:
            raise KindError("unbalanced parentheses")
        tail = "".join(cur).strip()
        if tail or parts:
            parts.append(tail)
        return parts

    def outcome(split):
        try:
            return split(text)
        except KindError as exc:
            return str(exc)

    assert outcome(cli._split_args) == outcome(reference)


def _grammar_ops(text: str) -> dict:
    """Family -> op names in the grammar lines of text: a line opening with
    knot, manifold, sw or assert, and the lines opening with '|' after it.
    Arguments and optional parts are dropped; pd: and braid: are not ops."""
    ops, family = {}, None
    for line in text.splitlines():
        m = re.match(r"\s*(knot|manifold|sw|assert)\s", line)
        if m:
            family = m.group(1)
        elif not re.match(r"\s*\|", line):
            family = None
        if family is None:
            continue
        body = None
        while body != line:
            body, line = line, re.sub(r"\([^()]*\)|\[[^\[\]]*\]", "", line)
        body = re.sub(r"^\s*(assert|\w+\s+\w+\s*=)", "", body)
        ops.setdefault(family, set()).update(
            alt.strip() for alt in body.split("|")
            if re.fullmatch(r"\s*[A-Za-z_]\w*\s*", alt))
    return ops


def _readme_grammar() -> str:
    text = (ROOT / "README.md").read_text("utf-8")
    blocks = re.findall(r"```text\n(.*?)```", text, re.S)
    return next(b for b in blocks if "knot K =" in b)


@pytest.mark.parametrize("family", sorted(cli._OPS))
@pytest.mark.parametrize("source", ["docstring", "README"])
def test_grammar_lists_the_table_ops(source, family):
    text = cli.__doc__ if source == "docstring" else _readme_grammar()
    assert _grammar_ops(text).get(family) == set(cli._OPS[family])
