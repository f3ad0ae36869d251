"""Guards for edits that would otherwise fail only outside Tier-1: the
benchmark's tracing wrappers and workloads, module-level imports nothing
uses, private functions nothing names, public functions, classes and
methods that only tests name, parameters that no body reads, declared
fields that nothing reads, numpy kept off the import path of riemann
mode and ``gasnet check``, and dataclasses kept off that of the CLI."""

import ast
import importlib.util
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

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


@pytest.fixture
def gasbench(monkeypatch):
    """gasbench/ on the import path, so its modules import one another as
    the benchmark's worker process does."""
    monkeypatch.syspath_prepend(str(ROOT / "gasbench"))
    import inputs
    import tracing
    import worker

    return inputs, tracing, worker


def test_workloads_run_and_trace_one_item(gasbench):
    # the benchmark also calls untraced gasnet names (prepare, run and
    # check of each workload, and the state fields harvest() reads): one
    # seed-3 item per workload, untraced and then traced
    inputs, tracing, worker = gasbench
    for name, workload in worker.WORKLOADS.items():
        items, _ = inputs.generate(name, 3, ROOT)
        wl = workload(items)
        assert wl.warm_up() == [], name
        output = wl.run(wl.prepare(items[0][1]))
        assert wl.check(output) == [], name
        tracer = tracing.Tracer()
        try:
            tracer.install()
            tracer.active = True
            traced = wl.run(wl.prepare(items[0][1]))
        finally:
            tracer.active = False
            tracer.restore()
        tracer.harvest()
        assert tracing.installed_wrappers() == []
        assert wl.fingerprint(traced) == wl.fingerprint(output), name
        # one interaction record per event
        assert sum(tracer.interactions.values()) == tracer.events, name
        assert (tracer.events > 0) == (name != "riemann_batch"), name


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


def _private_functions(tree):
    """The ``_``-prefixed module-level functions and methods of a module,
    dunder methods excepted."""
    defs = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            defs += [node for node in cls.body if isinstance(node, ast.FunctionDef)]
    return [node for node in defs if node.name.startswith("_")
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def _names(tree):
    """Every name and attribute name read or written under ``tree``."""
    return [node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]


def test_every_private_function_is_referenced():
    # a private helper that only its own body (or only a test) names is dead
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert trees
    count = Counter(name for tree in trees.values() for name in _names(tree))
    unreferenced = [f"{filename}:{fn.lineno} {fn.name}"
                    for filename, tree in trees.items() for fn in _private_functions(tree)
                    if count[fn.name] == _names(fn).count(fn.name)]
    assert unreferenced == []



def _bench_names():
    """Every name, attribute name and constant in gasbench/*.py."""
    bench = set()
    for path in sorted((ROOT / "gasbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        bench.update(_names(tree))
        bench.update(node.value for node in ast.walk(tree) if isinstance(node, ast.Constant))
    return bench


def test_every_public_name_has_a_caller():
    # a public module-level function or class, or a public method of a
    # class, must be named somewhere in src/gasnet outside its own
    # definition, by the benchmark or in the README; one that only tests
    # name is dead (__init__.py only re-exports); the benchmark also names
    # what it traces by strings
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    count = Counter(name for tree in trees.values() for name in _names(tree))
    bench = _bench_names()
    readme = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    defs = []
    for filename, tree in trees.items():
        if filename != "__init__.py":
            defs += [(filename, node) for node in tree.body]
            defs += [(filename, node) for cls in tree.body if isinstance(cls, ast.ClassDef)
                     for node in cls.body]
    public = [(filename, node) for filename, node in defs
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")]
    assert any(node.name == "state_at" for _, node in public)   # methods are scanned
    uncalled = [f"{filename}:{node.lineno} {node.name}" for filename, node in public
                if count[node.name] == _names(node).count(node.name)
                and node.name not in bench and node.name not in readme]
    assert uncalled == []


def _unread_parameters(fn):
    """The parameters of function ``fn`` that its body never reads."""
    args = fn.args
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    read = {node.id for stmt in fn.body for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in params if name not in read]


def test_every_parameter_is_read():
    # a parameter no body reads is a knob that does nothing; the benchmark
    # fixes the signatures of the functions it names
    bench = _bench_names()
    unread = [f"{path.name}:{fn.lineno} {fn.name}({name})"
              for path in sorted(SRC.glob("*.py"))
              for fn in ast.walk(ast.parse(path.read_text()))
              if isinstance(fn, ast.FunctionDef) and fn.name not in bench
              for name in _unread_parameters(fn)]
    assert unread == []


def _declared_fields(cls):
    """(line, name) of every field class ``cls`` declares: an annotated
    class-level name, a ``__slots__`` entry, or a ``self.x =`` in
    ``__init__``."""
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.lineno, node.target.id
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets):
            yield from ((node.lineno, c.value) for c in ast.walk(node.value)
                        if isinstance(c, ast.Constant) and isinstance(c.value, str))
        elif isinstance(node, ast.FunctionDef) and node.name == "__init__":
            yield from ((t.lineno, t.attr) for t in ast.walk(node)
                        if isinstance(t, ast.Attribute) and isinstance(t.ctx, ast.Store)
                        and isinstance(t.value, ast.Name) and t.value.id == "self")


def test_every_declared_field_is_read():
    # a field that src/gasnet never reads as an attribute, and that neither
    # the benchmark nor the README names, is computed and stored for nothing
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    named = _bench_names() | set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    classes = [(filename, cls) for filename, tree in trees.items()
               for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)]
    assert any(name == "born_x" for _, cls in classes      # slots are scanned
               for _, name in _declared_fields(cls))
    unread = [f"{filename}:{line} {cls.name}.{name}" for filename, cls in classes
              for line, name in _declared_fields(cls)
              if name not in read and name not in named]
    assert unread == []


_RIEMANN_WITHOUT_NUMPY = """
import sys
import gasnet.cli, gasnet.fronttracking, gasnet.output, gasnet.scenario
out, scenarios = sys.argv[1], sys.argv[2:]
args = [a for path in scenarios for a in ("--scenario", path)]
for argv in (["check", *args], ["riemann", *args, "--out", out],
             ["riemann", *args, "--out", out, "--format", "csv"]):
    assert gasnet.cli.main(argv) == 0, argv
print(sorted(name for name in sys.modules if name.split(".")[0] == "numpy"))
"""


def test_riemann_mode_does_not_import_numpy(tmp_path):
    # numpy serves only the weak-form diagnostic of simulate mode: a fresh
    # process that imports the CLI's modules and the tracker, checks and
    # solves the shipped riemann-mode scenarios and writes JSON and CSV
    # leaves it unloaded; and no module of src/gasnet imports it at the top
    scenarios = [str(ROOT / "scenarios" / name)
                 for name in ("y_junction_riemann.yaml", "compressor_head.yaml")]
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", _RIEMANN_WITHOUT_NUMPY, str(tmp_path),
                          *scenarios], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split("\n")[-2] == "[]", run.stdout
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "compressor_head-summary.json", "compressor_head.csv", "compressor_head.json",
        "y_junction_riemann-summary.json", "y_junction_riemann.csv", "y_junction_riemann.json"]
    top_level = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
                 for node in ast.parse(path.read_text()).body if _imports(node, "numpy")]
    assert top_level == []


def _imports(node, package):
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == package for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == package


_LOADED_BY_CLI_MODULES = """
import sys
before = set(sys.modules)
import gasnet.cli, gasnet.fronttracking, gasnet.output, gasnet.scenario
code = gasnet.cli.main(["riemann", "--scenario", sys.argv[1], "--out", sys.argv[2]])
print(code, sorted(name for name in ("dataclasses", "inspect", "logging")
                   if name in sys.modules and name not in before))
"""


def test_cli_modules_load_neither_dataclasses_nor_inspect(tmp_path):
    # gasnet's value types are named tuples: a fresh process that imports
    # the CLI's modules and the tracker loads neither dataclasses nor the
    # inspect module it imports (about 11 ms of start-up with cached
    # bytecode); and no module of src/gasnet imports dataclasses, at the
    # top or in a function.  Without GASNET_LOG a CLI run that writes
    # results does not load logging either (about 7 ms)
    pythonpath = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k != "GASNET_LOG"}
    run = subprocess.run([sys.executable, "-c", _LOADED_BY_CLI_MODULES,
                          str(ROOT / "scenarios" / "y_junction_riemann.yaml"), str(tmp_path)],
                         env=dict(env, PYTHONPATH=pythonpath),
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "0 []\n", run.stdout
    assert (tmp_path / "y_junction_riemann.json").exists()
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if _imports(node, "dataclasses")]
    assert found == []


YAML_LOADS = {"load", "safe_load", "full_load", "unsafe_load", "parse"}


def test_scenarios_have_one_yaml_loader():
    # documents go through yaml.compose and scenario._value alone: no
    # module calls or imports a second way to load YAML
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr in YAML_LOADS
                    and isinstance(node.value, ast.Name) and node.value.id == "yaml"):
                found.append(f"{path.name}:{node.lineno} yaml.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("yaml"):
                found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                          if alias.name in YAML_LOADS]
    assert found == []


def test_a_failing_property_does_not_end_the_session(tmp_path):
    # hypothesis's report hook raises a DeprecationWarning for a failing
    # property; under filterwarnings = error that was an INTERNALERROR,
    # which ended the session before the tests after it ran
    (tmp_path / "test_pair.py").write_text(
        "from hypothesis import given\n"
        "from hypothesis import strategies as hs\n\n\n"
        "@given(hs.integers())\n"
        "def test_fails(n):\n"
        "    assert n != n\n\n\n"
        "def test_passes():\n"
        "    pass\n")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(tmp_path / "test_pair.py")],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in proc.stdout, out
