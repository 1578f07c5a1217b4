"""Set-up probe: import the package and get one workload's inputs ready.

    python3 perfbench/probe.py '<probe spec JSON>'

Runs in a fresh interpreter, so its wall time, taken by the caller, covers
interpreter start, import, config validation, group and lattice building and
instance-list generation.  For extract-witness it covers building, emitting
and loading the instance instead, and for construct-sweep the import alone.
Prints one JSON line the caller checks.
"""

from __future__ import annotations

import json
import sys


def main(spec: dict) -> dict:
    import doubling
    import doubling.cli  # noqa: F401  (the CLI imports it on every command)
    from doubling import ScanConfig, build_group, iter_instance_specs, parse_group_selector
    from doubling.constructions import build_sharpness_instance, load_instance
    from doubling.rationals import parse

    out: dict = {"package": doubling.__file__}
    kind = spec["kind"]
    if kind == "verify":
        gspec = parse_group_selector(spec["group"])
        build_group(gspec)
        config = ScanConfig(
            groups=[gspec],
            subset_mode={"kind": "exhaustive", "max_size": spec["max_subset_size"]},
            alphas=tuple(parse(a) for a in spec["alphas"].split(",")),
        )
        out["instances"] = len(iter_instance_specs(config))
    elif kind == "scan":
        with open(spec["config"], "r", encoding="utf-8") as fh:
            config = ScanConfig.from_json(json.load(fh))
        out["instances"] = len(iter_instance_specs(config))
    elif kind == "instance":
        doc = build_sharpness_instance(spec["N"], spec["h"], spec["m"]).to_json()
        with open(spec["emit"], "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        with open(spec["emit"], "r", encoding="utf-8") as fh:
            _, subset, _ = load_instance(json.load(fh), "/instance")
        out["subset_size"] = len(subset)
    elif kind != "import":
        raise ValueError(f"unknown probe kind {kind!r}")
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
