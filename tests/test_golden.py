"""Golden artifact digests: the CLI's output bytes for small fixed inputs.

The digests pin every byte of the JSON reports, the CSV export and the
extraction trace, so a refactor that changes an artifact without meaning to
fails here even when every semantic test still passes.
"""

import hashlib
import json

import pytest

from doubling import build_sharpness_instance
from doubling.cli import main
from doubling.groups import quaternion_table

SCAN_CONFIG = {
    "groups": [
        "q8",
        {
            "type": "product",
            "factors": [{"type": "dihedral", "n": 3}, {"type": "cyclic", "n": 2}],
        },
    ],
    "subset_mode": {"kind": "random", "count": 4, "seed": 5},
    "emit_instances": True,
}

# S4 and two order-32 products (one with Q8): the finite groups whose
# arithmetic runs on Cayley tables, with every suite on
KERNEL_SCAN_CONFIG = {
    "groups": [
        "symmetric:4",
        {
            "type": "product",
            "factors": [
                {"type": "table", "table": quaternion_table(), "name": "Q8"},
                {"type": "cyclic", "n": 4},
            ],
        },
        {
            "type": "product",
            "factors": [{"type": "dihedral", "n": 4}, {"type": "cyclic", "n": 4}],
        },
    ],
    "subset_mode": {"kind": "random", "count": 2, "seed": 11},
    "emit_instances": True,
}

GOLDEN = {
    "verify-d4": "0cd2dcc0591f3f145b7c0cfef2d93dbae8ecf26b30b87a6db2ffed2f322edf02",
    "verify-s3-normalized": "72a83ade70079a726a84bb18cb2032c18e855fc83a9d94df1f059d2e93475e2a",
    "scan-json": "ea41a32f0e81d14596f688833029e586d779c6d90970694c4ac209cdfc66b73b",
    "scan-csv": "56a494bbc3e2cc16c00f4757e991c4a58e8563121ba9d3be21f22ab2f3025161",
    "extract-trace": "359f85c69fdcb354e9186604a1267aa5b2b3588c0c769248cf92931453d4284d",
    "extract-trace-2-5-36": "46c462e77d778aafe1071df1ca27375edef952bea045648184bfaa5d477e3545",
    "extract-trace-2-5-100": "8cffe4681e3e8db10e0172548f25379c944fccb294072818408cf3775a980783",
    "kernel-scan-json": "e2617ea69ff7aace5289778bcc30970806fc6755f70a557d2cb4fe12767beaf0",
    "construct-62500": "3d9ff8e3bc2c568db4aeaf1ec54b4ceda849650a9773d5e8905ede3e219d2e53",
}


def digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_cli(capsys, *argv) -> None:
    code = main([str(a) for a in argv])
    capsys.readouterr()
    assert code == 0


def test_verify_all_suites_golden(tmp_path, capsys):
    out = tmp_path / "verify.json"
    run_cli(capsys, "verify", "--group", "dihedral:4", "--max-subset-size", 2,
            "--alphas", "3/2,2,3", "-j", 1, "--out", out)
    assert digest(out) == GOLDEN["verify-d4"]


def test_verify_normalized_exhaustive_golden(tmp_path, capsys):
    out = tmp_path / "verify.json"
    run_cli(capsys, "verify", "--group", "symmetric:3", "--subgroup-weight", "normalized",
            "-j", 1, "--out", out)
    assert digest(out) == GOLDEN["verify-s3-normalized"]


def test_scan_json_and_csv_golden(tmp_path, capsys):
    config = tmp_path / "scan.json"
    config.write_text(json.dumps(SCAN_CONFIG))
    out, csv = tmp_path / "out.json", tmp_path / "out.csv"
    run_cli(capsys, "scan", "--config", config, "--out", out, "--csv", csv, "-j", 1)
    assert digest(out) == GOLDEN["scan-json"]
    assert digest(csv) == GOLDEN["scan-csv"]


def test_kernel_groups_scan_golden(tmp_path, capsys):
    config = tmp_path / "scan.json"
    config.write_text(json.dumps(KERNEL_SCAN_CONFIG))
    out = tmp_path / "out.json"
    run_cli(capsys, "scan", "--config", config, "--out", out, "-j", 1)
    assert digest(out) == GOLDEN["kernel-scan-json"]


def extract_trace_digest(tmp_path, capsys, n, h, m) -> str:
    inst = tmp_path / "inst.json"
    doc = build_sharpness_instance(n, h, m).to_json()
    inst.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    out = tmp_path / "extract.json"
    run_cli(capsys, "extract", "--alpha", "3/2,2,3", "--instance", inst, "--trace", "--out", out)
    return digest(out)


def test_extract_trace_golden(tmp_path, capsys):
    assert extract_trace_digest(tmp_path, capsys, 1, 2, 9) == GOLDEN["extract-trace"]


def test_extract_trace_golden_at_the_benchmark_witness(tmp_path, capsys):
    # the 244-element witness of H_5 x GL2Z x Z_36 with five matrices, whose
    # product sets take the op path factor by factor
    assert extract_trace_digest(tmp_path, capsys, 2, 5, 36) == GOLDEN["extract-trace-2-5-36"]


def test_extract_trace_golden_at_the_full_size_witness(tmp_path, capsys):
    # the 612-element witness over Z_100, read as a construction reference: its
    # last components pair 100 x 100 ways, above TABLE_CAP^2, so A A multiplies
    # that factor with `op` pair by pair
    out = tmp_path / "extract.json"
    ref = json.dumps({"construction": "sharpness", "N": 2, "h": 5, "m": 100})
    run_cli(capsys, "extract", "--alpha", "3/2,2,3", "--trace", "--subset", ref, "--out", out)
    assert digest(out) == GOLDEN["extract-trace-2-5-100"]


def test_construct_golden(tmp_path, capsys):
    out = tmp_path / "construct.json"
    run_cli(capsys, "construct", "--N", 2, "--h", 1000, "--m", 62500, "--out", out)
    assert digest(out) == GOLDEN["construct-62500"]
