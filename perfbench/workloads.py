"""The four benchmark workloads: inputs, commands, artifacts and checks.

Every command is a `doubling` CLI invocation run in a fresh interpreter with
the work directory as its current directory, so artifact bytes never depend
on where the checkout lives.  Inputs are fixed except `scan-catalog`'s
`subset_mode.seed`, which is the benchmark seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
NAMES = ("verify-d6", "scan-catalog", "extract-witness", "construct-sweep")

VERIFY_GROUP, VERIFY_MAX_SIZE = "dihedral:6", 3
VERIFY_INSTANCES = 2086  # (12 + 66 + 220) subsets x 7 normal subgroups
# catalog(weights=("counting",)) cut to group order <= 32, frozen here so a
# change to the catalog cannot change the benchmark's input
SCAN_GROUPS = HERE / "scan_groups.json"
SCAN_INSTANCES = 631  # one random subset per (group, normal subgroup)
WITNESS = (2, 5, 36)  # (N, h, m): a 244-element subset of H_5 x GL2Z x Z_36
WITNESS_SIZE = 244
ALPHAS = "3/2,2,3"
SWEEP = ((2, 1000, 62_500), (6, 1000, 250_000), (8, 1000, 1_000_000))


@dataclass
class Workload:
    name: str
    timed: list[list[str]]  # doubling argument lists run by one iteration
    artifacts: list[str]  # files the timed commands write
    probe: dict  # set-up probe spec (see probe.py)
    probe_expect: dict  # keys the probe must print, with their values
    instances: int = 0  # aggregate.instances of each verify/scan artifact
    prepare: list[list[str]] = field(default_factory=list)  # untimed, once per run
    prepare_artifacts: list[str] = field(default_factory=list)
    inputs: dict[str, str] = field(default_factory=dict)  # files written first

    def work_units(self, work: Path) -> int:
        """Instance reports, certificates or witnesses one iteration produced."""
        if self.instances:
            doc = json.loads((work / self.artifacts[0]).read_text(encoding="utf-8"))
            return doc["aggregate"]["instances"]
        if self.name == "extract-witness":
            doc = json.loads((work / "extract.json").read_text(encoding="utf-8"))
            return sum(1 for c in doc["certificates"].values() if c["pass"])
        return sum(
            json.loads((work / a).read_text(encoding="utf-8"))["kind"] == "sharpness-report"
            for a in self.artifacts
        )


def build(name: str, seed: int) -> Workload:
    if name == "verify-d6":
        return Workload(
            name,
            timed=[["verify", "--group", VERIFY_GROUP, "--max-subset-size", str(VERIFY_MAX_SIZE),
                    "--alphas", ALPHAS, "-j", "1", "--out", "verify.json"]],
            artifacts=["verify.json"],
            probe={"kind": "verify", "group": VERIFY_GROUP, "max_subset_size": VERIFY_MAX_SIZE,
                   "alphas": ALPHAS},
            probe_expect={"instances": VERIFY_INSTANCES},
            instances=VERIFY_INSTANCES,
        )
    if name == "scan-catalog":
        groups = json.loads(SCAN_GROUPS.read_text(encoding="utf-8"))
        config = {"groups": groups, "subset_mode": {"kind": "random", "count": 1, "seed": seed}}
        return Workload(
            name,
            timed=[["scan", "--config", "scan-config.json", "--out", "scan.json",
                    "--csv", "scan.csv", "-j", "1"]],
            artifacts=["scan.json", "scan.csv"],
            probe={"kind": "scan", "config": "scan-config.json"},
            probe_expect={"instances": SCAN_INSTANCES},
            instances=SCAN_INSTANCES,
            inputs={"scan-config.json": json.dumps(config, sort_keys=True) + "\n"},
        )
    if name == "extract-witness":
        n, h, m = WITNESS
        return Workload(
            name,
            timed=[["extract", "--alpha", ALPHAS, "--instance", "inst.json", "--trace",
                    "--out", "extract.json"]],
            artifacts=["extract.json"],
            probe={"kind": "instance", "N": n, "h": h, "m": m, "emit": "probe-inst.json"},
            probe_expect={"subset_size": WITNESS_SIZE},
            prepare=[["construct", "--N", str(n), "--h", str(h), "--m", str(m),
                      "--emit", "inst.json", "--out", "construct.json"]],
            prepare_artifacts=["inst.json", "construct.json"],
        )
    if name == "construct-sweep":
        timed, artifacts = [], []
        for n, h, m in SWEEP:
            out = f"construct-{n}-{h}-{m}.json"
            timed.append(["construct", "--N", str(n), "--h", str(h), "--m", str(m), "--out", out])
            artifacts.append(out)
        return Workload(name, timed=timed, artifacts=artifacts,
                        probe={"kind": "import"}, probe_expect={})
    raise KeyError(name)
