"""src/ holds only what the commands run: importing the command-line
front end loads every module of the package. And the benchmark's span
wrappers (perfbench/spans.py) still find every name they patch."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


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


def test_benchmark_wrappers_resolve_and_restore():
    # Loaded from its file, as it stands: a renamed function here would
    # otherwise only show as a crash of a traced benchmark run.
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)

    rec = spans.SpanRecorder()
    try:
        spans.install_layers(rec)  # a name that no longer resolves raises here
        patched = list(rec._restore)
        assert patched
        assert [(site, name) for site, name, original in patched
                if getattr(site, name) is original] == []
    finally:
        rec.unpatch()
    assert [(site, name) for site, name, original in patched
            if getattr(site, name) is not original] == []
    names = {f"{getattr(site, '__name__', site)}.{name}" for site, name, _ in patched}
    for name in ("flowstable.prober.run_cell", "flowstable.prober.classify",
                 "flowstable.experiments.run_rq2", "flowstable.logio.append_records",
                 "flowstable.logio.read_log", "flowstable.logio.traces_from_records",
                 "flowstable.logio.parse_verdict"):
        assert name in names
