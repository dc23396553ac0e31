"""The bundled scripts run to completion and print their closing line, and
the benchmark's tracer finds every name it patches."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def _run_python(*args, path=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (*path, str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _run_script(name, *args):
    return _run_python(str(SCRIPTS / name), *args).rstrip("\n").splitlines()[-1]


def test_packet_survey():
    last = _run_script("packet_survey.py", "--max-size", "4", "--max-blocks", "2")
    assert last == "both structural identities held on every multiset."


# --a0 2 --b0 5 puts two copies of the pivot block (r, 2, 3) in the parameter;
# --a0 2 --b0 3 is the exceptional corner b0 = a0 + 1, where the pivot sits
# lowest; --b0 2 inserts a fresh block, so there is no pivot sign identity.
@pytest.mark.parametrize(
    "args, last",
    [
        ((), "sign identity for the pivot (t0=0, eta0=+): True"),
        (("--a0", "2", "--b0", "5"), "sign identity for the pivot (t0=0, eta0=+): True"),
        (("--a0", "2", "--b0", "3"), "sign identity for the pivot (t0=0, eta0=+): True"),
        (("--a0", "3", "--b0", "2"), "order violations on the enlarged side: none"),
    ],
    ids=["defaults", "two-pivot-copies", "exceptional", "fresh-block"],
)
def test_enlargement_walkthrough(args, last):
    assert _run_script("enlargement_walkthrough.py", *args) == last


def test_tracer_installs():
    # The tracer patches names where their callers bind them; a name deleted
    # or moved from its module fails here, not only in perfbench/selfcheck.py.
    _run_python("-c", "import tracer; tracer.install(tracer.Tracer())", path=[str(ROOT / "perfbench")])
