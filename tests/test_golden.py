"""Golden outputs of the bundled scripts.

Every ``scripts/*.swc`` is run in text mode and with ``--json``; stdout must
match ``tests/golden/<stem>.<mode>.out`` byte for byte, and stderr and the
exit status must match the entry in ``tests/golden/status.json``.

The goldens were captured from ``python -m swcalc [--json] scripts/<stem>.swc``
subprocess runs.  The tests call ``cli.main`` in-process, which writes the
same bytes without paying interpreter start-up for each of the 16 runs.

To recapture after an intended output change (and only then):

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


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        raise SystemExit("usage: python tests/test_golden.py --update")
    _update()
