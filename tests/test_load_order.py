"""Each operation compiles the package's modules before numpy loads.

A fresh process compiles every module of a checkout without cached bytecode.
Compile scratch freed before numpy's import is reused by it; scratch needed
after it raises the process's peak memory.  So `families` is imported before
numpy wherever it is imported, it imports `cayley` (whose body loads numpy)
last, and each layer puts the package's modules above `import numpy`.  Each
case runs one small command in a child process on a copy of the package with
no bytecode, with an audit hook that records the "compile" events of the
package's files and the first "import" event of numpy.  The order of
sys.modules would not show this: a module moves to its end once it has run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import nortonalg

FIND_IDENTITY = Path(__file__).parents[1] / "perfbench" / "find_identity.py"

PROBE = """
import contextlib, io, json, runpy, sys
out, package, argv, script = sys.argv[1], sys.argv[2], json.loads(sys.argv[3]), sys.argv[4]
events = []

def hook(event, args):
    if event == "compile" and isinstance(args[1], str) and args[1].startswith(package):
        events.append(args[1][len(package):].lstrip("/").removesuffix(".py"))
    elif event == "import" and args[0] == "numpy" and "numpy" not in events:
        events.append("numpy")

sys.addaudithook(hook)
with contextlib.redirect_stdout(io.StringIO()):
    if argv[0] == "find_identity":  # the script, as the benchmark runs it
        sys.argv = [script, *argv[1:]]
        try:
            runpy.run_path(script, run_name="__main__")
        except SystemExit as exc:
            assert exc.code == 0
    else:
        from nortonalg.cli import main
        assert main(argv) == 0
with open(out, "w") as fh:
    json.dump(events, fh)
"""

# each command and its layer, if it has one; the find_identity script reads
# nortonalg.make_family before nortonalg.find_identity, so its norton may load after numpy
CASES = [
    ("spectrum --family hamming --n 2 --e 3 --verify", ()),
    ("table --family hamming --n 2 --e 3 --i 1", ()),
    ("oracle-verify --family hamming --n 2 --e 3", ()),
    ("nonassoc --family hamming --n 2 --e 3 --max-m 3", ("trees",)),
    ("autocheck --family hamming --n 2 --e 3 --samples 1", ("autos",)),
    ("idempotents --e 3", ("norton",)),
    ("isocheck", ("norton",)),
    ("find_identity --family hypercube --n 4 --i 2", ()),
]


@pytest.fixture(scope="module")
def fresh_package(tmp_path_factory) -> Path:
    """A copy of the package's sources with no bytecode beside them."""
    root = tmp_path_factory.mktemp("src")
    shutil.copytree(Path(nortonalg.__file__).parent, root / "nortonalg",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root


@pytest.mark.parametrize("command, layer", CASES, ids=[c.split()[0] for c, _ in CASES])
def test_package_modules_compile_before_numpy(command, layer, fresh_package, tmp_path):
    out = tmp_path / "events.json"
    env = dict(os.environ, PYTHONPATH=str(fresh_package), PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPYCACHEPREFIX", None)
    subprocess.run([sys.executable, "-c", PROBE, str(out), str(fresh_package / "nortonalg"),
                    json.dumps(command.split()), str(FIND_IDENTITY)],
                   env=env, check=True, timeout=60)
    events = json.loads(out.read_text())
    assert "numpy" in events, events
    before = events[:events.index("numpy")]
    for module in ("families", "cayley", *layer):
        assert module in before, (command, events)
