"""Every top-level function and class in `src/doubling` has a reason to exist.

A definition must be referenced in the package beyond its own body, be
exported in `doubling.__all__`, or be named in the tracer's `SPANS`.  A
helper that only the tests call belongs in `tests/oracles.py`: every command
compiles the whole package, so dead source is start-up time.  The README's
library example runs against the same exports.  No module holds a cache
that lives as long as the process.
"""

import ast
import contextlib
import importlib.util
import io
import re
import sys
import typing
from collections import Counter
from pathlib import Path

import doubling

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "doubling"
TRACER = ROOT / "perfbench" / "tracer.py"


def _spans() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracer_names", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


def _used_names(node: ast.AST) -> Counter:
    """Names read or written as variables or attributes anywhere under node;
    import aliases and strings are not uses."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _unreasoned() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    used = sum((_used_names(tree) for tree in trees.values()), Counter())
    traced = {(layer, name.split(".")[0]) for layer, names in _spans().items() for name in names}
    exported = set(doubling.__all__)
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            outside = used[node.name] - _used_names(node)[node.name]
            if outside <= 0 and node.name not in exported and (module, node.name) not in traced:
                out.append(f"{module}.{node.name}")
    return out


def test_every_definition_is_used_exported_or_traced():
    assert _unreasoned() == []


def test_no_module_holds_a_process_wide_cache():
    """A module-level `functools.cache` or `lru_cache` outlives every scan and
    id that filled it; a cache local to one scan or id dies with it."""
    import doubling.cli  # the command modules too
    cached = [f"{name}.{attr}" for name, module in list(sys.modules.items())
              if name == "doubling" or name.startswith("doubling.")
              for attr, value in vars(module).items() if hasattr(value, "cache_info")]
    assert cached == []


def _callables(module):
    """(qualified name, function) for each function and method that `module` defines."""
    for name, value in vars(module).items():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if isinstance(value, type):
            for attr, member in vars(value).items():
                for key in ("__func__", "fget", "func"):  # a static or class method, a (cached) property
                    member = getattr(member, key, None) or member
                if callable(member) and hasattr(member, "__code__"):
                    yield f"{name}.{attr}", member
        elif callable(value) and hasattr(value, "__code__"):
            yield name, value


def test_every_annotation_resolves():
    """`typing.get_type_hints` evaluates each annotation in its module: a
    name imported only inside a function body does not resolve."""
    unresolved = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module("doubling" if path.stem == "__init__" else f"doubling.{path.stem}")
        for name, function in _callables(module):
            try:
                typing.get_type_hints(function)
            except NameError:
                unresolved.append(f"{module.__name__}.{name}")
    assert unresolved == []


def test_all_names_resolve_once():
    names = doubling.__all__
    assert [n for n, k in Counter(names).items() if k > 1] == []
    assert [n for n in names if not hasattr(doubling, n)] == []


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library example\n+```python\n(.*?)```", readme, re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block.group(1), "README.md", "exec"), {})
    assert out.getvalue().splitlines() == ["2", "(Fraction(4, 1), Fraction(4, 1))", "1 5/3"]
