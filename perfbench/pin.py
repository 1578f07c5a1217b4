"""Regenerate perfbench/pins.json from the program in the current checkout.

    python3 perfbench/pin.py

Run it only on a commit whose artifacts are known good: the benchmark treats
any other bytes as a failure.  `scan-catalog` is pinned for seeds 0..63;
other seeds are checked by replay instead.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import run
import workloads

SCAN_SEEDS = range(64)


def digests(root: Path, name: str, seed: int) -> dict:
    wl = workloads.build(name, seed)
    bench = run.Bench(root, f"pin-{name}", time.monotonic() + run.RUN_LIMIT_S)
    for fname, text in wl.inputs.items():
        (bench.work / fname).write_text(text, encoding="utf-8")
    for args in [*wl.prepare, *wl.timed]:
        cmd = bench.doubling(args)
        if not cmd.ok:
            raise SystemExit(f"{name}: {cmd.detail}")
    return {a: run.sha256(bench.work / a) for a in [*wl.prepare_artifacts, *wl.artifacts]}


def main() -> None:
    root = Path.cwd()
    pins: dict = {}
    for name in workloads.NAMES:
        if name == "scan-catalog":
            pins[name] = {str(s): digests(root, name, s) for s in SCAN_SEEDS}
        else:
            pins[name] = digests(root, name, 0)
        print(f"pinned {name}", flush=True)
    (run.HERE / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n",
                                        encoding="utf-8")


if __name__ == "__main__":
    main()
