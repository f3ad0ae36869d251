"""Guards for edits that would otherwise fail only outside Tier-1: the
benchmark's tracing wrappers, and module-level imports nothing uses."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gasnet"


def _load_tracing():
    """gasbench/tracing.py as a module of its own, without adding gasbench
    to the import path."""
    spec = importlib.util.spec_from_file_location("_gasbench_tracing",
                                                  ROOT / "gasbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_traced_name():
    # a traced function or method that was renamed or deleted would
    # otherwise fail only inside a traced benchmark run
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        installed = set(tracing.installed_wrappers())
        missing = [f"{mod}.{attr}" for mod, attr, _ in tracing.FUNCTIONS
                   if f"{mod}.{attr}" not in installed]
        missing += [f"FrontTrackingState.{attr}" for attr, _ in tracing.METHODS
                    if f"FrontTrackingState.{attr}" not in installed]
        assert not missing, missing
    finally:
        tracer.restore()
    assert tracing.installed_wrappers() == []


def _unused_imports(path):
    """Names bound by the module-level imports of a source file that no
    name in the file reads."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line} {name}" for name, line in bound.items()
                  if name not in used)


def test_no_unused_module_level_imports():
    # __init__.py imports in order to re-export
    unused = [entry for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
              for entry in _unused_imports(path)]
    assert unused == []
