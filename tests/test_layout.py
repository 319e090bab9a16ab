"""src/ holds only what the commands run: importing the command-line
front end loads every module of the package."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_cli_loads_every_module():
    modules = sorted(
        "flowstable" if path.stem == "__init__" else f"flowstable.{path.stem}"
        for path in (SRC / "flowstable").glob("*.py")
    )
    probe = (
        "import sys, flowstable.cli; "
        "print('\\n'.join(m for m in sys.modules if m.split('.')[0] == 'flowstable'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert [m for m in modules if m not in loaded] == []
