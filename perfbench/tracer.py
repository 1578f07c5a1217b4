"""Run the doubling CLI with every layer's public functions wrapped in spans.

    python3 perfbench/tracer.py SIDECAR.json <doubling arguments...>

The package under `src/` is not modified: after import, each traced function
is replaced by a wrapper in its defining module and in every other module of
the package that re-bound it (`from .sets import mul_set` and the like), so
call counts are complete.  Spans are aggregated in memory (calls, total and
self time per function) and written to SIDECAR.json when the command ends.
Self time is a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# layer -> traced callables ("Class.method" for methods); the span name is
# "<layer>.<function>".
SPANS = {
    "groups": ["build_group"],
    "sets": ["mul_set", "inv_set"],
    "quotients": ["normal_subgroups", "quotient_from_description", "QuotientStructure.image"],
    "fibers": ["fiber_profile", "level_family", "layer_cake", "spillover_check", "containment_check"],
    "metrics": ["doubling_stats", "ruzsa_sq", "quotient_doubling_check"],
    "extract": ["extract_subset", "admissible_thresholds"],
    "rationals": ["put", "fmt", "parse"],
    "constructions": ["build_sharpness_instance", "load_instance", "SharpnessInstance.to_json"],
    "harness": ["iter_instance_specs", "evaluate_instance", "scan", "report_csv"],
    "cli": ["main"],
}


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, int] = {
            "sets.mul_set.pairs": 0,
            "sets.mul_set.out_elems": 0,
            "sets.mul_set.distinct_pairs": 0,
            "constructions.sumset_pairs": 0,
        }
        self.instance_ms: list[float] = []
        self._stack: list[list[float]] = []  # child time covered, per open span
        self._pairs_seen: set = set()  # mul_set operand pairs of the current instance
        self._lattices: set = set()

    # -- spans ---------------------------------------------------------------

    def span(self, name: str, fn, before=None, after=None):
        cell = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += took
                cell[0] += 1
                cell[1] += took
                cell[2] += took - frame[0]
            if after is not None:
                after(args, result, took)
            return result

        return traced

    # -- per-layer counters ----------------------------------------------------

    def _mul_set_done(self, args, result, took) -> None:
        a, b = args[0], args[1]
        self.counters["sets.mul_set.pairs"] += len(a.elements) * len(b.elements)
        self.counters["sets.mul_set.out_elems"] += len(result.elements)
        self._pairs_seen.add((a.elements, b.elements))

    def _close_instance_scope(self, *_ignored) -> None:
        self.counters["sets.mul_set.distinct_pairs"] += len(self._pairs_seen)
        self._pairs_seen = set()

    def _instance_done(self, args, result, took) -> None:
        self.instance_ms.append(took * 1000.0)
        self._close_instance_scope()

    def _lattice_seen(self, args) -> None:
        group = args[0]
        try:
            self._lattices.add(group.signature)
        except NotImplementedError:
            self._lattices.add(id(group))

    def _counting_sumset(self, fn):
        counters = self.counters

        @functools.wraps(fn)
        def counted(x, y, m, cache):
            if frozenset((x, y)) not in cache:
                counters["constructions.sumset_pairs"] += len(x) * len(y)
            return fn(x, y, m, cache)

        return counted

    # -- installation ------------------------------------------------------------

    def install(self):
        """Wrap every traced function; return the wrapped `cli.main`."""
        import doubling  # noqa: F401  (imports every layer module)
        from doubling import cli, constructions

        hooks = {
            "sets.mul_set": (None, self._mul_set_done),
            "harness.evaluate_instance": (self._close_instance_scope, self._instance_done),
            "quotients.normal_subgroups": (self._lattice_seen, None),
        }
        package = [m for n, m in sys.modules.items() if n == "doubling" or n.startswith("doubling.")]
        replacements: dict[int, object] = {}
        for layer, names in SPANS.items():
            module = sys.modules[f"doubling.{layer}"]
            for dotted in names:
                owner_name, _, attr = dotted.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, attr)
                name = f"{layer}.{attr}"
                before, after = hooks.get(name, (None, None))
                wrapper = self.span(name, original, before, after)
                setattr(owner, attr, wrapper)
                if not owner_name:
                    replacements[id(original)] = wrapper
        original = constructions._sumset_mod
        constructions._sumset_mod = self._counting_sumset(original)
        # re-bind every `from .x import f` copy of a traced module-level function
        for module in package:
            for key, value in list(vars(module).items()):
                if callable(value) and id(value) in replacements:
                    setattr(module, key, replacements[id(value)])
        return cli.main

    def report(self) -> dict:
        self._close_instance_scope()
        return {
            "spans": {
                k: {"calls": v[0], "total_s": v[1], "self_s": v[2]} for k, v in self.spans.items()
            },
            "counters": dict(self.counters, **{"quotients.normal_subgroups.distinct": len(self._lattices)}),
            "instance_ms": self.instance_ms,
        }


def main(argv: list[str]) -> int:
    sidecar, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    cli_main = tracer.install()
    try:
        return cli_main(cli_args)
    finally:
        with open(sidecar, "w", encoding="utf-8") as fh:
            json.dump(tracer.report(), fh)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
