"""Golden outputs of the bundled scripts and of bad statements.

Every ``scripts/*.swc`` is run in text mode and with ``--json``; stdout must
match ``tests/golden/<stem>.<mode>.out`` byte for byte, and stderr and the
exit status must match the entry in ``tests/golden/status.json``.

The goldens were captured from ``python -m swcalc [--json] scripts/<stem>.swc``
subprocess runs.  The tests call ``cli.main`` in-process, which writes the
same bytes without paying interpreter start-up for each of the 16 runs.

Each statement of ``BAD_STATEMENTS`` runs through ``run_script`` after
``PRELUDE``; its exit status and the line, column and message of its
``ScriptError`` must match ``tests/golden/errors.json``.

To recapture both after an intended output change (and only then):

    PYTHONPATH=src python tests/test_golden.py --update
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
SCRIPTS = sorted((ROOT / "scripts").glob("*.swc"))
MODES = {"text": [], "json": ["--json"]}
CASES = [(s, m) for s in SCRIPTS for m in MODES]

# one name of each kind, plus a relative sw value; bad statements use Q for
# an undefined name
PRELUDE = """\
knot K = trefoil
manifold X = E(2)
sw S = sw(X)
sw R = relative(S)
config C = blowdown(2, taut; t: 1 -> t^(1/2))
"""

# every op of every family with wrong arity, a non-integer in each integer
# slot, an undefined name and a wrong-kind name; an unknown op per family;
# the statement forms with their own parsers. The two statements with two
# faults report the first bad argument, left to right.
BAD_STATEMENTS = [
    # knot
    "knot Z = unknot(K)",
    "knot Z = trefoil(1)",
    "knot Z = figure8(K)",
    "knot Z = twist()",
    "knot Z = twist(1, 2)",
    "knot Z = twist(x)",
    "knot Z = torus(3)",
    "knot Z = torus(x, 2)",
    "knot Z = torus(3, y)",
    "knot Z = torus(3,)",
    "knot Z = pretzel(1, 2)",
    "knot Z = pretzel(x, 1, 1)",
    "knot Z = pretzel(1, x, 1)",
    "knot Z = pretzel(1, 1, x)",
    "knot Z = mirror()",
    "knot Z = mirror(Q)",
    "knot Z = mirror(X)",
    "knot Z = connect_sum(K)",
    "knot Z = connect_sum(Q, K)",
    "knot Z = connect_sum(K, X)",
    "knot Z = table()",
    "knot Z = table(nope)",
    "knot Z = frobnicate(K)",
    "knot Z = braid:",
    "knot Z = braid: 1 x 2",
    "knot Z = pd: X(1,2)",
    "knot Z = trefoil(",
    "knot Z = twist((1)",
    "knot Z = twist(1))",
    "knot Z = twist(1",
    "knot Z = 3",
    # manifold
    "manifold Z = CP2(1)",
    "manifold Z = CP2bar(X)",
    "manifold Z = S2xS2(1)",
    "manifold Z = E()",
    "manifold Z = E(x)",
    "manifold Z = E(1, 2)",
    "manifold Z = H(1)",
    "manifold Z = H(x, 1)",
    "manifold Z = H(1, y)",
    "manifold Z = connected_sum(X)",
    "manifold Z = connected_sum(Q, X)",
    "manifold Z = connected_sum(X, K)",
    "manifold Z = blowup()",
    "manifold Z = blowup(X, 1, 2)",
    "manifold Z = blowup(Q)",
    "manifold Z = blowup(K, 1)",
    "manifold Z = blowup(X, x)",
    "manifold Z = fiber_sum(X)",
    "manifold Z = fiber_sum(X, X, F, F, F)",
    "manifold Z = fiber_sum(Q, X)",
    "manifold Z = fiber_sum(X, S)",
    "manifold Z = torus_surgery(X, F, 1, 1)",
    "manifold Z = torus_surgery(Q, F, 1, 0, 1)",
    "manifold Z = torus_surgery(K, F, 1, 0, 1)",
    "manifold Z = torus_surgery(X, F, x, 0, 1)",
    "manifold Z = torus_surgery(X, F, 1, y, 1)",
    "manifold Z = torus_surgery(X, F, 1, 0, z)",
    "manifold Z = knot_surgery(X, F)",
    "manifold Z = knot_surgery(Q, F, K)",
    "manifold Z = knot_surgery(K, F, K)",
    "manifold Z = knot_surgery(X, F, Q)",
    "manifold Z = knot_surgery(X, F, X)",
    "manifold Z = rational_blowdown(X)",
    "manifold Z = rational_blowdown(X, 2, odd, 1)",
    "manifold Z = rational_blowdown(Q, 2)",
    "manifold Z = rational_blowdown(S, 2)",
    "manifold Z = rational_blowdown(X, x)",
    "manifold Z = rational_blowdown(X, 2, maybe)",
    "manifold Z = rational_blowdown(Q, 2, maybe)",
    "manifold Z = reverse()",
    "manifold Z = reverse(Q)",
    "manifold Z = reverse(K)",
    "manifold Z = blowdown(X)",
    "manifold Z = E(2",
    # sw
    "sw Z = sw()",
    "sw Z = sw(Q)",
    "sw Z = sw(K)",
    "sw Z = elliptic()",
    "sw Z = elliptic(x)",
    "sw Z = blowup_formula()",
    "sw Z = blowup_formula(S)",
    "sw Z = blowup_formula(Q, e1)",
    "sw Z = blowup_formula(X, e1)",
    "sw Z = blowup_formula(S, e1 e2)",
    "sw Z = knot_surgery_formula(S)",
    "sw Z = knot_surgery_formula(Q, K)",
    "sw Z = knot_surgery_formula(X, K)",
    "sw Z = knot_surgery_formula(S, Q)",
    "sw Z = knot_surgery_formula(S, X)",
    "sw Z = knot_surgery_formula(Q, Q)",
    "sw Z = log_transform(S)",
    "sw Z = log_transform(Q, 2)",
    "sw Z = log_transform(X, 2)",
    "sw Z = log_transform(S, x)",
    "sw Z = double_log_transform(1, 2)",
    "sw Z = double_log_transform(x, 2, 3)",
    "sw Z = double_log_transform(1, x, 3)",
    "sw Z = double_log_transform(1, 2, x)",
    "sw Z = relative()",
    "sw Z = relative(Q)",
    "sw Z = relative(X)",
    "sw Z = relative(R)",
    "sw Z = e1_rel(1)",
    "sw Z = t2d2(S)",
    "sw Z = glue(S)",
    "sw Z = glue(Q, R)",
    "sw Z = glue(R, X)",
    "sw Z = descend(S)",
    "sw Z = descend(Q, C)",
    "sw Z = descend(X, C)",
    "sw Z = descend(S, Q)",
    "sw Z = descend(S, X)",
    "sw Z = e1_twist_fixture()",
    "sw Z = e1_twist_fixture(x)",
    "sw Z = frobnicate(S)",
    # config
    "config Z = blowup(2)",
    "config Z = blowdown(x)",
    "config Z = blowdown(2, tight)",
    "config Z = blowdown(2; t 1)",
    "config Z = blowdown(2; t:)",
    "config Z = blowdown(2; t: x)",
    # assert
    "assert homeo(X)",
    "assert homeo(Q, X)",
    "assert homeo(X, K)",
    "assert not homeo(X)",
    "assert sw_equal(S)",
    "assert sw_equal(Q, S)",
    "assert sw_equal(S, X)",
    "assert sw_is(S)",
    "assert sw_is(Q, 1)",
    "assert sw_is(K, 1)",
    "assert sw_is(S, t +)",
    "assert alexander_is(K)",
    "assert alexander_is(Q, 1)",
    "assert alexander_is(X, 1)",
    "assert alexander_is(K, t^)",
    "assert alexander_equal()",
    "assert alexander_equal(K, K, K)",
    "assert alexander_equal(Q)",
    "assert alexander_equal(X)",
    "assert alexander_equal(K, Q)",
    "assert alexander_equal(K, S)",
    "assert frobnicate(K)",
    "assert homeo(X, X",
    # print, emit and unparsable lines
    "print sw Q",
    "print sw X",
    "print invariants Q",
    "print invariants S",
    "print alexander Q",
    "print alexander X",
    "print geography Q",
    "print geography K",
    "print volume X",
    "emit geography x",
    "frobnicate Z = 1",
]


def _key(script: Path, mode: str) -> str:
    return f"{script.stem}.{mode}"


@pytest.mark.parametrize("script,mode", CASES,
                         ids=[_key(s, m) for s, m in CASES])
def test_script_matches_golden(script, mode, monkeypatch):
    from swcalc.cli import main

    monkeypatch.chdir(ROOT)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*MODES[mode], f"scripts/{script.name}"])
    status = json.loads((GOLDEN / "status.json").read_text("utf-8"))
    key = _key(script, mode)
    assert out.getvalue().encode("utf-8") == \
        (GOLDEN / f"{key}.out").read_bytes()
    assert err.getvalue() == status[key]["stderr"]
    assert code == status[key]["exit"]


def test_every_script_has_goldens():
    status = json.loads((GOLDEN / "status.json").read_text("utf-8"))
    assert sorted(status) == sorted(_key(s, m) for s, m in CASES)
    assert len(SCRIPTS) >= 8


def _outcome(stmt: str) -> dict:
    from swcalc.cli import run_script
    from swcalc.errors import ScriptError

    try:
        code = run_script(PRELUDE + stmt + "\n", out=io.StringIO())
    except ScriptError as exc:
        return {"exit": 2, "line": exc.line, "col": exc.col,
                "message": str(exc)}
    return {"exit": code, "line": None, "col": None, "message": None}


@pytest.mark.parametrize("stmt", BAD_STATEMENTS)
def test_error_matches_golden(stmt):
    errors = json.loads((GOLDEN / "errors.json").read_text("utf-8"))
    assert _outcome(stmt) == errors[stmt]


def test_every_bad_statement_has_a_golden():
    errors = json.loads((GOLDEN / "errors.json").read_text("utf-8"))
    assert len(set(BAD_STATEMENTS)) == len(BAD_STATEMENTS)
    assert sorted(errors) == sorted(BAD_STATEMENTS)


def _update() -> None:
    GOLDEN.mkdir(exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    status = {}
    for script, mode in CASES:
        proc = subprocess.run(
            [sys.executable, "-m", "swcalc", *MODES[mode],
             f"scripts/{script.name}"],
            cwd=ROOT, env=env, capture_output=True, timeout=300)
        key = _key(script, mode)
        (GOLDEN / f"{key}.out").write_bytes(proc.stdout)
        status[key] = {"exit": proc.returncode,
                       "stderr": proc.stderr.decode("utf-8")}
    (GOLDEN / "status.json").write_text(
        json.dumps(status, indent=2, sort_keys=True) + "\n", "utf-8")
    errors = {stmt: _outcome(stmt) for stmt in BAD_STATEMENTS}
    (GOLDEN / "errors.json").write_text(
        json.dumps(errors, indent=2, sort_keys=True) + "\n", "utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        raise SystemExit("usage: python tests/test_golden.py --update")
    _update()
