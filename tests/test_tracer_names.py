"""The names `perfbench/tracer.py` wraps must keep resolving in the package.

The tracer patches functions by name after import, so a rename in `src/`
would only show up as a failed `--trace 1` benchmark run.  The tracer module
is loaded by path and only its `SPANS` table is read; nothing is installed.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from doubling import constructions

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
