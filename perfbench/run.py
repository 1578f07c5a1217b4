"""End-to-end and per-layer benchmark of the `doubling` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/` there.
Each timed command is a fresh interpreter (`python3 -m doubling.cli ...`) at
`-j 1` with DOUBLING_JOBS removed from its environment, run in a closed loop
(one caller; the next iteration starts when the previous one exited) until
S seconds have passed.  Every artifact is checked against SHA-256 digests
pinned in perfbench/pins.json; `scan-catalog` on a seed without pins is
checked by determinism across iterations plus `doubling replay --expect` on a
fixed sample of its instances.

Every command runs through launch.py, pinned with the benchmark to one CPU.
--trace 0 reports the end-to-end metrics of BENCHMARK.json: medians over the
iterations of the run, each one preceded by a set-up probe process.
Times are a command's CPU seconds at the reference host speed, measured by
the reference loop of speed.py sharing that CPU while the command runs.
--trace 1 alternates plain and traced iterations (see tracer.py), without
the reference loop, and reports the per-layer metrics, plain wall time
among them.  The last stdout line is the JSON result; a human-readable
summary goes to stderr.  `--workload all` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import speed
import workloads

HERE = Path(__file__).resolve().parent
RUN_LIMIT_S = 170.0  # every run must end well inside the 180 s contract
MIN_ITERATIONS = 3
REPLAY_SAMPLE = 4


@dataclass
class Cmd:
    ok: bool
    wall_s: float
    rss_mb: float
    detail: str = ""
    ref_s: float = math.nan  # CPU seconds at the reference host speed (see speed.py)


@dataclass
class Tally:
    """Attempted and failed steps; a failed step makes the run incorrect."""

    attempted: int = 0
    failed: int = 0

    def step(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"  FAILED: {what}", file=sys.stderr)
        return ok


def sha256(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


class Bench:
    """Runs child processes for one workload inside the checkout's work dir."""

    def __init__(self, root: Path, name: str, deadline: float,
                 ref: speed.Reference | None = None) -> None:
        self.work = root / ".bench_work" / name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.deadline = deadline
        self.src = root / "src"
        self.env = dict(os.environ, PYTHONPATH=str(self.src))
        self.env.pop("DOUBLING_JOBS", None)
        self.runs = 0
        self.ref = ref

    def spawn(self, argv: list[str], measure: bool = False) -> Cmd:
        """Run one command through launch.py; with `measure`, time it against
        the reference loop."""
        self.runs += 1
        log = self.work / f"cmd-{self.runs}"
        ref = self.ref if measure else None
        timeout = self.deadline - time.monotonic()
        launcher = [sys.executable, "-S", str(HERE / "launch.py"), f"{timeout:.3f}", f"{log}.usage"]
        with open(f"{log}.out", "wb") as out, open(f"{log}.err", "wb") as err:
            mark = ref.start() if ref else None
            start = time.perf_counter()
            proc = subprocess.Popen([*launcher, *argv], cwd=self.work, env=self.env, stdout=out,
                                    stderr=err, start_new_session=True)
            try:
                proc.wait(max(timeout, 0.0) + 10.0)  # the launcher itself stops at `timeout`
            except BaseException:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
            finally:
                if ref:
                    host_speed = speed.Reference.speed(mark, ref.stop())
            wall = time.perf_counter() - start
        try:
            usage = json.loads(Path(f"{log}.usage").read_text(encoding="utf-8"))
        except (OSError, ValueError):
            usage = {"status": proc.returncode, "timed_out": False, "cpu_s": math.nan, "maxrss_kb": 0}
        ok = proc.returncode == 0 and usage["status"] == 0 and not usage["timed_out"]
        detail = ""
        if not ok:
            tail = Path(f"{log}.err").read_text(encoding="utf-8", errors="replace")[-300:]
            detail = f"{' '.join(argv[1:])} -> exit {usage['status']}" + (
                " (killed at the run's time limit)" if usage["timed_out"] else "") + f": {tail.strip()}"
        cmd = Cmd(ok, wall, usage["maxrss_kb"] / 1024.0, detail)
        if ref:
            cmd.ref_s = usage["cpu_s"] * host_speed / speed.REF_SPEED
        return cmd

    def doubling(self, args: list[str], sidecar: str | None = None, measure: bool = False) -> Cmd:
        if sidecar is None:
            return self.spawn([sys.executable, "-m", "doubling.cli", *args], measure)
        return self.spawn([sys.executable, str(HERE / "tracer.py"), sidecar, *args], measure)

    def probe(self, spec: dict) -> tuple[Cmd, dict]:
        cmd = self.spawn([sys.executable, str(HERE / "probe.py"), json.dumps(spec)], measure=True)
        out = Path(self.work / f"cmd-{self.runs}.out").read_text(encoding="utf-8").strip()
        return cmd, (json.loads(out.splitlines()[-1]) if cmd.ok and out else {})


def load_pins(name: str, seed: int) -> dict | None:
    pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))[name]
    if name == "scan-catalog":
        return pins.get(str(seed))
    return pins


def check_artifacts(bench: Bench, files: list[str], expected: dict, tally: Tally, what: str) -> None:
    got = {name: sha256(bench.work / name) for name in files}
    bad = [name for name in files if got[name] != expected.get(name)]
    tally.step(not bad, f"{what}: digest mismatch on {bad}")


def check_scan_semantics(bench: Bench, wl: workloads.Workload, tally: Tally, replay: bool) -> None:
    """Artifact checks that hold for any seed, and replay of sampled instances."""
    doc = json.loads((bench.work / wl.artifacts[0]).read_text(encoding="utf-8"))
    agg = doc["aggregate"]
    tally.step(agg["instances"] == wl.instances and not agg["violations"],
               f"aggregate: {agg['instances']} instances (want {wl.instances}), "
               f"{len(agg['violations'])} violations")
    if not replay:
        return
    rows = (bench.work / "scan.csv").read_text(encoding="utf-8").splitlines()
    tally.step(len(rows) == wl.instances + 2, f"CSV has {len(rows) - 2} instance rows")
    reports = doc["instances"]
    picks = sorted({round(i * (len(reports) - 1) / (REPLAY_SAMPLE - 1)) for i in range(REPLAY_SAMPLE)})
    for i in picks:
        (bench.work / "replay-id.txt").write_text(reports[i]["id"] + "\n", encoding="utf-8")
        (bench.work / "replay-expect.json").write_text(json.dumps(reports[i]), encoding="utf-8")
        cmd = bench.doubling(["replay", "--id", "@replay-id.txt", "--expect", "replay-expect.json",
                              "--out", "replay.json"])
        tally.step(cmd.ok, f"replay of instance {i}: {cmd.detail}")


def merge_sidecars(paths: list[Path]) -> dict:
    merged: dict = {"spans": {}, "counters": {}, "instance_ms": []}
    for path in paths:
        doc = json.loads(path.read_text(encoding="utf-8"))
        for name, cell in doc["spans"].items():
            into = merged["spans"].setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += cell[key]
        for name, value in doc["counters"].items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
        merged["instance_ms"] += doc["instance_ms"]
    return merged


def layer_metrics(side: dict, names: list[str]) -> dict[str, float]:
    """Per-layer metric values of one traced iteration (run-level ones excluded)."""
    spans, counters = side["spans"], side["counters"]
    out: dict[str, float] = {}
    for name in names:
        base, _, stat = name.rpartition(".")
        if name in counters:
            out[name] = counters[name]
        elif stat == "distinct_ratio":
            calls = spans[base]["calls"]
            out[name] = counters["sets.mul_set.distinct_pairs"] / calls if calls else 0.0
        elif stat in ("ms_p50", "ms_p99"):
            out[name] = percentile(side["instance_ms"], float(stat[4:]))
        elif stat == "s":
            out[name] = spans[base]["total_s"]
        elif stat in ("calls", "self_s"):
            out[name] = spans[base][stat]
    return out


def run_workload(root: Path, spec: dict, name: str, seed: int, seconds: int, trace: bool,
                 ref: speed.Reference | None) -> dict:
    started = time.monotonic()
    wl = workloads.build(name, seed)
    bench = Bench(root, name, started + RUN_LIMIT_S, ref)
    tally = Tally()
    pinned = load_pins(name, seed)
    print(f"[{name}] seed={seed} seconds={seconds} trace={int(trace)} "
          f"pins={'yes' if pinned else 'no (replay check)'}", file=sys.stderr)
    for fname, text in wl.inputs.items():
        (bench.work / fname).write_text(text, encoding="utf-8")
    for args in wl.prepare:
        cmd = bench.doubling(args)
        tally.step(cmd.ok, f"prepare: {cmd.detail}")
    if wl.prepare_artifacts:
        check_artifacts(bench, wl.prepare_artifacts, pinned, tally, "prepare artifacts")

    setup: list[float] = []  # probe times
    net: list[float] = []  # per plain iteration: its time minus its probe's
    plain: list[Cmd] = []
    traced: list[Cmd] = []
    layer_runs: list[dict[str, float]] = []
    reference = pinned
    loop_start = time.monotonic()
    iteration = 0
    min_iterations = 2 * MIN_ITERATIONS if trace else MIN_ITERATIONS
    while iteration < min_iterations or time.monotonic() - loop_start < seconds:
        # leave room for one more iteration and the final checks
        if iteration and time.monotonic() + 2 * (time.monotonic() - loop_start) / iteration > bench.deadline:
            break
        with_trace = trace and iteration % 2 == 1
        if not trace:
            # a set-up probe next to each iteration sees the same host speed,
            # so the error left in `ref_s` mostly cancels in `net`
            cmd, out = bench.probe(wl.probe)
            setup.append(cmd.ref_s)
            inside = out.get("package", "").startswith(str(bench.src))
            expect_ok = all(out.get(k) == v for k, v in wl.probe_expect.items())
            tally.step(cmd.ok and inside and expect_ok, f"set-up probe: {cmd.detail} {out}")
        sidecars = []
        wall, ref_s, rss, ok, details = 0.0, 0.0, 0.0, True, []
        for k, args in enumerate(wl.timed):
            sidecar = None
            if with_trace:
                sidecar = f"trace-{k}.json"
                sidecars.append(bench.work / sidecar)
            cmd = bench.doubling(args, sidecar, measure=True)
            wall += cmd.wall_s
            ref_s += cmd.ref_s
            rss = max(rss, cmd.rss_mb)
            ok = ok and cmd.ok
            details.append(cmd.detail)
        result = Cmd(ok, wall, rss, " ".join(d for d in details if d), ref_s)
        iteration += 1
        problem = result.detail
        if ok:
            digests = {a: sha256(bench.work / a) for a in wl.artifacts}
            if reference is None:
                reference = digests
            bad = [a for a in wl.artifacts if digests[a] != reference.get(a)]
            if bad:
                problem = f"digest mismatch on {bad}"
        if not problem and with_trace:
            side = merge_sidecars(sidecars)
            calls = side["spans"]["harness.evaluate_instance"]["calls"]
            if calls != wl.instances:
                problem = f"traced evaluate_instance calls {calls} != aggregate.instances {wl.instances}"
        if not tally.step(not problem, f"iteration {iteration}: {problem}"):
            continue
        if with_trace:
            values = layer_metrics(side, [m["name"] for m in spec["per_layer"]])
            values["cli.artifact_bytes"] = sum((bench.work / a).stat().st_size for a in wl.artifacts)
            layer_runs.append(values)
            traced.append(result)
        else:
            plain.append(result)
            if not trace:
                net.append(result.ref_s - setup[-1])

    units = 0
    if plain or traced:
        try:
            if wl.instances:
                check_scan_semantics(bench, wl, tally, replay=pinned is None)
            units = wl.work_units(bench.work)
        except (OSError, ValueError, KeyError) as exc:
            tally.step(False, f"reading the artifacts: {exc!r}")

    if trace:
        metrics = {}
        for m in spec["per_layer"]:
            if m["name"] == "trace.overhead_s":
                value = median([c.wall_s for c in traced]) - median([c.wall_s for c in plain])
            elif m["name"] == "wall_s":
                value = median([c.wall_s for c in plain])
            else:
                value = median([run[m["name"]] for run in layer_runs])
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    else:
        net_s = median(net)
        values = {
            "time_s": median([c.ref_s for c in plain]),
            "setup_s": median(setup),
            "items_per_s": units / net_s if net_s > 0 else math.nan,
            "peak_rss_mb": max((c.rss_mb for c in plain), default=math.nan),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
        if len(plain) >= 2:
            for what, xs in (("time_s", [c.ref_s for c in plain]), ("wall time", [c.wall_s for c in plain])):
                q1, mid, q3 = statistics.quantiles(xs, n=4)
                print(f"  {what} over {len(xs)} iterations: median {mid:.4f} q1 {q1:.4f} q3 {q3:.4f}",
                      file=sys.stderr)
            print(f"  setup_s probes {[round(s, 4) for s in setup]}", file=sys.stderr)
    for key, metric in metrics.items():
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(f"  failed_frac = {tally.failed}/{tally.attempted} "
          f"({time.monotonic() - started:.1f} s)", file=sys.stderr)
    correct = tally.failed == 0 and all(math.isfinite(m["value"]) for m in metrics.values())
    for metric in metrics.values():  # JSON has no NaN; an unmeasured run is not correct
        if not math.isfinite(metric["value"]):
            metric["value"] = 0.0
    return {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    for needed in (root / "src" / "doubling" / "cli.py", root / "BENCHMARK.json"):
        if not needed.is_file():
            print(f"error: {needed} is missing; run from the root of a checkout", file=sys.stderr)
            return 1
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    print(f"python {platform.python_version()}, nproc {os.cpu_count()}", file=sys.stderr)
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    # the timed commands and, in untraced runs, the reference loop share one CPU
    speed.pin_to_one_cpu()
    ref = None if args.trace else speed.Reference()
    try:
        results = {n: run_workload(root, spec, n, args.seed, args.seconds, bool(args.trace), ref)
                   for n in names}
    finally:
        if ref:
            ref.close()
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    for n, res in results.items():
        print(f"{n} {json.dumps(res)}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
