"""src/ holds only what the commands run: importing the command-line
front end loads every module of the package. Every import of the
package sits at module level, and its modules import each other
without a cycle. The loss key has one home, simnet, and so has the
outcome of a loss draw; whether a packet reached its destination is
decided in prober alone; logio decodes each log line at one call site.
The flow identities hash, compare and order in C. And the benchmark's
span wrappers (perfbench/spans.py) still find every name they patch."""

import ast
import graphlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from flowstable import core

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


def _parsed_modules():
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted((SRC / "flowstable").glob("*.py"))}


def test_no_function_imports():
    found = []
    for module, tree in _parsed_modules().items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{module}.{fn.name}" for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []


def _package_imports(module, tree, modules):
    """The package modules that tree imports: `from . import a`,
    `from .a import x`, and their absolute `flowstable` forms."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 0:
                if base.split(".")[0] != "flowstable":
                    continue
                base = base[len("flowstable."):] if "." in base else ""
            if base:
                out.add(base.split(".")[0])
            else:
                out.update(alias.name for alias in node.names if alias.name in modules)
        elif isinstance(node, ast.Import):
            out.update(alias.name.split(".")[1] for alias in node.names
                       if alias.name.startswith("flowstable."))
    return out - {module}


def test_module_imports_have_no_cycle():
    modules = _parsed_modules()
    graph = {m: _package_imports(m, tree, modules) for m, tree in modules.items()}
    assert set().union(*graph.values()) <= set(modules)
    try:
        list(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")


def test_loss_key_has_one_home():
    # Only simnet lays out or hashes a loss key; others look a flow's
    # own draws up in a tree of recorded draw points (simnet.DrawTree).
    names = {"loss_key_parts", "draw_key"}
    found = sorted(
        f"{module}: {name}"
        for module, tree in _parsed_modules().items() if module != "simnet"
        for node in ast.walk(tree)
        for name in (
            [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
            else [node.attr] if isinstance(node, ast.Attribute)
            else [node.id] if isinstance(node, ast.Name) else []
        )
        if name in names
    )
    assert found == []


def test_draw_outcome_and_reached_have_one_home():
    # Only simnet names a lost packet: its loss streams record each
    # draw's outcome as they draw it, so no one rebuilds it afterwards.
    # The tracer reads prober's reached flag and imports nothing of simnet.
    modules = _parsed_modules()
    found = sorted(
        f"{module}: TransitKind.LOST"
        for module, tree in modules.items() if module != "simnet"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "LOST"
        and getattr(node.value, "id", getattr(node.value, "attr", None)) == "TransitKind"
    )
    if "simnet" in _package_imports("tracer", modules["tracer"], modules):
        found.append("tracer: imports simnet")
    assert found == []


@pytest.mark.parametrize("name", ["Ipv4Address", "SourceParams", "FlowId"])
def test_flow_identities_hash_compare_and_order_in_c(name):
    # A run keys, hashes and sorts its cells by these; a dunder written
    # in Python (or generated by dataclass) costs a frame per call.
    cls = getattr(core, name)
    assert [method for method in ("__hash__", "__eq__", "__ne__", "__lt__", "__le__",
                                  "__gt__", "__ge__")
            if inspect.isfunction(getattr(cls, method))] == []


#: What decodes JSON: json's functions, its decoder class and module,
#: and the methods and scanners a decoder holds.
_JSON_DECODING = {"loads", "load", "JSONDecoder", "decoder", "scanner", "make_scanner",
                  "c_make_scanner", "py_make_scanner", "raw_decode", "scan_once"}


def test_log_lines_have_one_decode_site():
    # logio binds one JSON decoder to one module-level name, and _cited
    # decodes each line it reads with one call of it; the decoder's one
    # other call re-reads the text of a body recorded earlier, when the
    # body is recorded again in other text. A second decode path for
    # lines, say a fast path with a fallback, fails here.
    tree = _parsed_modules()["logio"]

    def decodes(node):
        return any(
            (isinstance(n, ast.Attribute) and n.attr in _JSON_DECODING)
            or (isinstance(n, ast.Name) and n.id in _JSON_DECODING)
            or (isinstance(n, ast.ImportFrom) and (n.module or "").startswith("json"))
            or (isinstance(n, ast.Import) and any(a.name.startswith("json.") for a in n.names))
            for n in ast.walk(node))

    bindings = [node for node in tree.body if decodes(node)]
    assert len(bindings) == 1, [ast.unparse(node) for node in bindings]
    (binding,) = bindings
    assert isinstance(binding, ast.Assign) and len(binding.targets) == 1
    assert isinstance(binding.targets[0], ast.Name)
    name = binding.targets[0].id
    (cited,) = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_cited"]
    calls = [node for node in ast.walk(cited) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == name]
    uses = [node for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id == name]
    assert sorted(ast.unparse(call) for call in calls) == [
        f"{name}(known[0], 0)", f"{name}(text, 0)"]
    assert len(uses) == 1 + len(calls), [ast.unparse(node) for node in uses]


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
