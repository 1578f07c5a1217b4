"""Full-size runs, a parent revision against this checkout.

    python3 bench/fullsize.py --parent REV [--out BENCH_fullsize.json]

Runs each command below (at `-j 1` where it takes `-j`) in a fresh
interpreter, once with `src/` of the git revision REV (extracted with `git
archive`) and once with `src/` of this checkout, in PAIRS alternating pairs
(the first side alternates too):
ten, so that a gain can be read as at least nine wins of ten.
Every run of a command must write the same bytes on both sides (its
`--out` file and, for the scan, its `--csv` file); if one does not, the
script prints which and exits 1 without recording anything.
Otherwise it appends one entry to the JSON list in `--out`: per command and
side, the child's CPU time (user + system) and `ru_maxrss`, both read with
`os.wait4` for that child alone, and their medians; per command, `wins`, the
pairs in which the change's CPU time is below the parent's (a tie counts for
neither side), beside `cpu_change_over_parent`.  Linux carries the
starting process's resident size into a child's `ru_maxrss`, so each figure
includes this script's own (about 20 MB), which it keeps from growing by
hashing each artifact in pieces.  Each side's `src_tree` is the git
tree id of the `src/` it ran, uncommitted edits included: it equals
`git rev-parse C:src` for any commit C with that `src/`.

These are the paper's exhaustive checks at full size, where evaluation cost
shows: all of D6, S4 up to size 4, and Z64 up to size 3 (43,744 subset
layers under 7 normal subgroups, so its peak memory shows how many layers a
scan holds at once); D12 with 1,000 random subsets per normal subgroup at
seed 0, the one command whose results tables under H = {e} see random
partners B (an exhaustive scan's B is A^-1); and the catalog-wide scan:
`harness.catalog()` in both weights, one random subset per normal subgroup
at seed 0, with `--csv`.  Its
config is written from this checkout's `catalog()` and read by both sides.
Then `extract` with its trace on the 612-element sharpness witness
(N, h, m) = (2, 5, 100), whose product sets take the op path: its Z_100
residues pair 100 x 100 ways, above TABLE_CAP^2.  Last, an exhaustive scan
with `--csv`: D6, Q8 and Z12 up to size 3 (about 20 MB of JSON), whose
instances interleave the runs of each group's block, so that the order in
which an emitting scan writes them is compared at full size.
The `perfbench` workloads are small enough that start-up dominates.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CATALOG_CONFIG = "catalog-scan.json"  # written into the scratch directory the commands run in
EXHAUSTIVE_CONFIG = "exhaustive-scan.json"  # likewise
EXHAUSTIVE_SCAN = {"groups": ["dihedral:6", "q8", "cyclic:12"], "subset_mode": {"kind": "exhaustive", "max_size": 3}}
COMMANDS = (
    ("verify", "--group", "dihedral:6", "-j", "1"),
    ("verify", "--group", "symmetric:4", "--max-subset-size", "4", "-j", "1"),
    ("verify", "--group", "cyclic:64", "--max-subset-size", "3", "-j", "1"),
    ("verify", "--group", "dihedral:12", "--trials", "1000", "--seed", "0", "-j", "1"),
    ("scan", "--config", CATALOG_CONFIG, "--csv", "out.csv", "-j", "1"),
    ("extract", "--alpha", "3/2,2,3", "--trace", "--subset", '{"construction":"sharpness","N":2,"h":5,"m":100}'),
    ("scan", "--config", EXHAUSTIVE_CONFIG, "--csv", "out.csv", "-j", "1"),
)
PAIRS = 10


def _git(*args: str, env: dict | None = None) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True, env=env).stdout


def _worktree_src_tree(tmp: Path) -> str:
    """The tree id of this checkout's `src/` as it is on disk, built in a
    scratch index so that the real index is left alone."""
    env = dict(os.environ, GIT_INDEX_FILE=str(tmp / "index"))
    _git("add", "--all", "--", "src", env=env)
    return _git("rev-parse", _git("write-tree", env=env).decode().strip() + ":src").decode().strip()


def _write_catalog_config(path: Path) -> None:
    """The catalog-wide scan's config, from `catalog()` of this checkout."""
    code = ("import json, sys; from doubling.harness import catalog; json.dump({'groups': catalog(), "
            "'subset_mode': {'kind': 'random', 'count': 1, 'seed': 0}}, sys.stdout)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    path.write_bytes(subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, env=env).stdout)


def _run(src: Path, argv: tuple, work: Path) -> tuple[float, float, str]:
    """(CPU seconds, ru_maxrss in MB, SHA-256 of the artifacts) of one run:
    of out.json, and then of out.csv if the command wrote one."""
    env = dict(os.environ, PYTHONPATH=str(src))
    out = work / "out.json"
    proc = subprocess.Popen([sys.executable, "-m", "doubling.cli", *argv, "--out", str(out)],
                            cwd=work, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode} with {src}")
    digest = hashlib.sha256()
    for path in (out, work / "out.csv"):
        if path.exists():
            with open(path, "rb") as fh:  # in pieces: a whole artifact would raise the next child's ru_maxrss
                while piece := fh.read(1 << 20):
                    digest.update(piece)
            path.unlink()
    return usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, digest.hexdigest()


def _summary(runs: list[tuple[float, float]]) -> dict:
    cpu, rss = [r[0] for r in runs], [r[1] for r in runs]
    return {"cpu_s": [round(x, 3) for x in cpu], "maxrss_mb": [round(x, 1) for x in rss],
            "cpu_s_median": round(statistics.median(cpu), 3),
            "maxrss_mb_median": round(statistics.median(rss), 1)}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision whose src/ is the baseline")
    parser.add_argument("--out", default=str(ROOT / "BENCH_fullsize.json"), help="JSON list to append to")
    args = parser.parse_args(argv)
    parent_rev = _git("rev-parse", args.parent).decode().strip()
    with tempfile.TemporaryDirectory(prefix="fullsize-") as tmp:
        tmp = Path(tmp)
        with tarfile.open(fileobj=io.BytesIO(_git("archive", parent_rev, "src"))) as tar:
            tar.extractall(tmp / "parent", filter="data")
        sides = {"parent": tmp / "parent" / "src", "change": ROOT / "src"}
        change_tree = _worktree_src_tree(tmp)
        _write_catalog_config(tmp / CATALOG_CONFIG)
        (tmp / EXHAUSTIVE_CONFIG).write_text(json.dumps(EXHAUSTIVE_SCAN), encoding="utf-8")
        commands = []
        for cmd in COMMANDS:
            runs: dict = {"parent": [], "change": []}
            digests = set()
            for i in range(PAIRS):
                for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                    cpu, rss, digest = _run(sides[side], cmd, tmp)
                    runs[side].append((cpu, rss))
                    digests.add(digest)
                    print(f"{' '.join(cmd)} [{side}] cpu {cpu:.3f} s, maxrss {rss:.1f} MB", file=sys.stderr)
            if len(digests) != 1:
                print(f"error: {' '.join(cmd)} wrote {len(digests)} different artifacts", file=sys.stderr)
                return 1
            parent, change = _summary(runs["parent"]), _summary(runs["change"])
            commands.append({
                "argv": list(cmd), "sha256": digests.pop(), "bytes_identical": True,
                "parent": parent, "change": change,
                "cpu_change_over_parent": round(change["cpu_s_median"] / parent["cpu_s_median"], 3),
                "wins": sum(c[0] < p[0] for p, c in zip(runs["parent"], runs["change"])),
            })
    entry = {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(), "python": platform.python_version()},
        "parent": {"commit": parent_rev, "src_tree": _git("rev-parse", f"{parent_rev}:src").decode().strip()},
        "change": {"head": _git("rev-parse", "HEAD").decode().strip(), "src_tree": change_tree},
        "pairs": PAIRS,
        "commands": commands,
    }
    path = Path(args.out)
    history = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
    history.append(entry)
    path.write_text(json.dumps(history, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(entry))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
