"""The names `perfbench/tracer.py` wraps must keep resolving in the package.

The tracer patches functions by name after import, so a rename in `src/`
would only show up as a failed `--trace 1` benchmark run.  The tracer module
is loaded by path and only its `SPANS` table is read; nothing is installed.
"""

import functools
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import doubling
from doubling import ScanConfig, constructions, harness, scan

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _spans() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


@pytest.mark.parametrize("name", [f"{layer}.{n}" for layer, names in _spans().items() for n in names])
def test_traced_name_resolves(name):
    layer, _, dotted = name.partition(".")
    owner = importlib.import_module(f"doubling.{layer}")
    for part in dotted.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_sumset_counter_hook_keeps_its_signature_and_cache_key():
    assert list(inspect.signature(constructions._sumset_mod).parameters) == ["x", "y", "m", "cache"]
    x, y, cache = frozenset({0, 1}), frozenset({0, 2}), {}
    assert constructions._sumset_mod(x, y, 5, cache) == frozenset({0, 1, 2, 3})
    assert frozenset((x, y)) in cache


# what `dataclasses` brings in; every command would pay for importing it
HEAVY_MODULES = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def _modules_after(statement: str, *flags: str) -> list[set]:
    """sys.modules of a fresh interpreter, started with `flags`, before and after `statement`."""
    code = f"import sys; a = set(sys.modules); {statement}; print(' '.join(a)); print(' '.join(sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(Path(doubling.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True, check=True)
    return [set(line.split()) for line in out.stdout.splitlines()]


def test_import_doubling_imports_every_traced_layer(tmp_path):
    # the tracer wraps modules found in sys.modules after `import doubling`;
    # it imports `doubling.cli`, the entry point, itself
    loaded = _modules_after("import doubling")[1]
    assert {f"doubling.{layer}" for layer in _spans() if layer != "cli"} <= loaded
    # and the entry point's import graph stays light
    before, after = _modules_after("import doubling.cli")
    assert not (after - before) & HEAVY_MODULES
    # only a random scan imports `random`; under -S, as perfbench launches,
    # since `site` may load it before any statement runs
    assert "random" not in _modules_after("import doubling.cli", "-S")[1]
    # only an emitting scan spools its reports, through `tempfile` and `shutil`
    assert not {"tempfile", "shutil"} & _modules_after("import doubling.cli", "-S")[1]
    assert "random" in _modules_after("from doubling import ScanConfig, scan; "
                                      "scan(ScanConfig(['cyclic:4'], {'kind': 'random', 'count': 1, 'seed': 1}))",
                                      "-S")[1]
    # a scan runs in one process: the command never imports a process pool
    config = tmp_path / "scan.json"
    config.write_text('{"groups": ["cyclic:4", "q8"], "subset_mode": {"kind": "random", "count": 2, "seed": 1}}')
    scanned = _modules_after(f"import doubling.cli; "
                             f"assert doubling.cli.main(['scan', '--config', {str(config)!r}, '--out', {os.devnull!r}]) == 0")
    assert "multiprocessing" not in scanned[1]


# one subset per normal subgroup evaluates without a results table, two share one
@pytest.mark.parametrize("count", [1, 2])
def test_scan_evaluates_every_instance_through_the_module_global(monkeypatch, count):
    # wrapped the way the tracer wraps it
    calls = 0
    original = harness.evaluate_instance

    @functools.wraps(original)
    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, "evaluate_instance", counted)
    report = scan(ScanConfig(["dihedral:4", "q8"], {"kind": "random", "count": count, "seed": 1}))
    assert report["aggregate"]["instances"] > 0
    assert calls == report["aggregate"]["instances"]
