import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from swcalc import cli

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

    def test_internal_error_exits_two_without_traceback(self):
        # a 1200-deep blowup chain overflows the recursive walker; the
        # defect must still honour the exit contract (1 is for asserts)
        lines = ["manifold m0 = E(2)"]
        lines += [f"manifold m{i} = blowup(m{i - 1}, 1)"
                  for i in range(1, 1200)]
        lines.append("sw s = sw(m1199)")
        out = run_cli(["-"], stdin="\n".join(lines) + "\n")
        assert out.returncode == 2
        assert out.stderr.startswith("error")
        assert "Traceback" not in out.stderr


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
