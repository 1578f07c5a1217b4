import contextlib
import errno
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
from collections import OrderedDict
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import doubling
from doubling import build_sharpness_instance, cli, extract, harness
from doubling.cli import main
from doubling.constructions import SharpnessInstance
from doubling.errors import CapError
from doubling.harness import InstanceReport, ScanConfig, _load_id, iter_instance_specs, report_csv, scan


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_clean_group(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", "--group", "cyclic:6", "--out", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    assert report["aggregate"]["violations"] == []
    assert report["aggregate"]["instances"] == 4 * 63


def test_verify_symmetric_only(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _, _ = run(
        capsys,
        "verify", "--group", "cyclic:12", "--symmetric-only",
        "--suite", "quotient-sym,layer-cake", "--out", str(out),
    )
    assert code == 0
    report = json.loads(out.read_text())
    # 127 symmetric subsets x 6 normal subgroups, none skipped
    assert report["aggregate"]["suite_runs"]["quotient-sym"]["runs"] == 6 * 127
    assert report["aggregate"]["suite_runs"]["quotient-sym"]["skipped"] == 0


def test_verify_rejects_unknown_flag(capsys):
    code, _, _ = run(capsys, "verify", "--group", "cyclic:6", "--frobnicate")
    assert code == 1


def test_verify_bad_selector(capsys):
    code, _, err = run(capsys, "verify", "--group", "tetrahedral:3")
    assert code == 1
    assert "selector" in err


def test_construct_reports_exact_rationals(tmp_path, capsys):
    out = tmp_path / "construct.json"
    code, _, _ = run(
        capsys, "construct", "--N", "2", "--h", "50", "--m", "100", "--out", str(out)
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["measures"]["mu_piA2"] == "17/1"
    assert report["targets"]["quotient_doubling"] == 17


def test_construct_emit_and_extract_round_trip(tmp_path, capsys):
    inst = tmp_path / "instance.json"
    code, _, _ = run(
        capsys,
        "construct", "--N", "2", "--h", "4", "--m", "25",
        "--emit", str(inst), "--out", str(tmp_path / "c.json"),
    )
    assert code == 0
    out = tmp_path / "extract.json"
    code, _, _ = run(
        capsys,
        "extract", "--alpha", "2,3", "--instance", str(inst),
        "--trace", "--out", str(out),
    )
    assert code == 0
    report = json.loads(out.read_text())
    cert = report["certificates"]["2/1"]
    assert cert["pass"] is True
    assert cert["measure_ratio"] == "1/1"
    assert any("admissible" in line for line in cert["trace"])


def test_extract_trace_reads_the_decision_certify_made(monkeypatch, capsys):
    calls = []
    rows = extract._admissible_rows
    monkeypatch.setattr(extract, "_admissible_rows", lambda ctx, alpha: calls.append(alpha) or rows(ctx, alpha))
    code, out, _ = run(capsys, "extract", "--alpha", "3/2,2,3", "--trace",
                       "--subset", '{"construction": "sharpness", "N": 1, "h": 4, "m": 25}')
    assert code == 0
    assert calls == [Fraction(3, 2), Fraction(2), Fraction(3)]
    certs = json.loads(out)["certificates"]
    assert all(len(cert["trace"]) >= len(cert["admissible"]) > 0 for cert in certs.values())


def test_extract_inline_specs(capsys):
    code, out, _ = run(
        capsys,
        "extract", "--alpha", "2",
        "--group", "cyclic:12",
        "--subgroup", '{"elements": [0, 6]}',
        "--subset", '{"elements": [0, 1, 2, 6]}',
    )
    assert code == 0
    cert = json.loads(out)["certificates"]["2/1"]
    assert cert["B"] == [0, 1, 2, 6]
    assert cert["quotient_doubling"] == "5/3"


def test_extract_construction_reference(capsys):
    code, out, _ = run(
        capsys,
        "extract", "--alpha", "2",
        "--subset", '{"construction": "sharpness", "N": 1, "h": 4, "m": 25}',
    )
    assert code == 0
    cert = json.loads(out)["certificates"]["2/1"]
    assert cert["pass"] is True


def test_scan_cli_round_trip(tmp_path, capsys):
    config = {
        "groups": ["cyclic:6"],
        "subset_mode": {"kind": "random", "count": 5, "seed": 3},
        "suites": ["layer-cake", "spillover", "extract"],
        "alphas": ["2"],
        "emit_instances": True,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    code, _, err = run(
        capsys, "scan", "--config", str(cfg_path), "--out", str(out), "--csv", str(csv_path)
    )
    assert code == 0
    assert "instances" in err
    report = json.loads(out.read_text())
    assert report["aggregate"]["violations"] == []
    # every emitted rational survives a parse round trip
    from doubling.rationals import fmt, parse

    frag = report["instances"][0]["suites"]["layer-cake"]
    assert fmt(parse(frag["lhs"])) == frag["lhs"]
    assert csv_path.read_text().startswith("# lossy")


def test_scan_missing_seed_is_usage_error(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(
        json.dumps({"groups": ["cyclic:6"], "subset_mode": {"kind": "random", "count": 5}})
    )
    code, _, err = run(capsys, "scan", "--config", str(cfg_path))
    assert code == 1
    assert "seed" in err


def test_replay_cli(tmp_path, capsys):
    config = {
        "groups": ["cyclic:6"],
        "subset_mode": {"kind": "random", "count": 2, "seed": 9},
        "suites": ["layer-cake"],
        "emit_instances": True,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "report.json"
    assert run(capsys, "scan", "--config", str(cfg_path), "--out", str(out))[0] == 0
    report = json.loads(out.read_text())
    stored = report["instances"][0]
    id_file = tmp_path / "id.txt"
    id_file.write_text(stored["id"])
    expect_file = tmp_path / "expect.json"
    expect_file.write_text(json.dumps(stored))

    code, out_text, _ = run(capsys, "replay", "--id", "@" + str(id_file))
    assert code == 0
    assert json.loads(out_text) == stored

    code, _, _ = run(
        capsys, "replay", "--id", "@" + str(id_file), "--expect", str(expect_file)
    )
    assert code == 0

    tampered = dict(stored, quotient_doubling="999/1")
    expect_file.write_text(json.dumps(tampered))
    code, _, err = run(
        capsys, "replay", "--id", "@" + str(id_file), "--expect", str(expect_file)
    )
    assert code == 2
    assert "mismatch" in err


def test_missing_file_is_exit_one(capsys):
    code, _, _ = run(capsys, "scan", "--config", "/nonexistent/config.json")
    assert code == 1


REPLAY_BASE = {
    "group": {"type": "cyclic", "n": 6},
    "subgroup": {"elements": [0, 3], "weight": "counting"},
    "subset": [0, 1],
    "suites": ["layer-cake", "ruzsa-axioms", "extract"],
}
PRODUCT_C2_C3 = {"type": "product", "factors": [{"type": "cyclic", "n": 2}, {"type": "cyclic", "n": 3}]}


def test_replay_accepts_the_base_id_and_empty_suites(capsys):
    assert run(capsys, "replay", "--id", json.dumps(REPLAY_BASE))[0] == 0
    code, out, _ = run(capsys, "replay", "--id", json.dumps(dict(REPLAY_BASE, suites=[])))
    assert code == 0
    assert json.loads(out)["suites"] == {}
    # an integer alpha is a certificate key as written
    code, out, _ = run(capsys, "replay", "--id", json.dumps(dict(REPLAY_BASE, alphas=[2, "3/2"])))
    assert code == 0
    assert list(json.loads(out)["suites"]["extract"]) == ["2", "3/2"]


@pytest.mark.parametrize(
    "change, path",
    [
        ({"suites": ["bogus"]}, "/suites/0"),
        ({"suites": ["layer-cake", 7]}, "/suites/1"),
        ({"suites": "layer-cake"}, "/suites"),
        ({"translate": [1]}, "/translate"),
        ({"translate": [1, 9]}, "/translate/1"),
        ({"alphas": ["1/2"]}, "/alphas/0"),
        ({"alphas": ["3/2", "1"]}, "/alphas/1"),
        ({"alphas": ["x"]}, "/alphas/0"),
        ({"alphas": ["1/0"]}, "/alphas/0"),
        ({"alphas": "2"}, "/alphas"),
        ({"colour": "red"}, "/colour"),
        ({"subset": []}, "/subset"),
        ({"subset_b": 3}, "/subset_b"),
        ({"subset": [0, 6]}, "/subset/1"),
        ({"subgroup": {"elements": [0, 3, "x"]}}, "/subgroup/elements/2"),
        (
            {
                "group": {"type": "product", "factors": [{"type": "cyclic", "n": 2}] * 2},
                "subgroup": {"elements": [[0, 0]]},
                "subset": [[0, 2]],
            },
            "/subset/0/1",
        ),
        ({"alphas": []}, "/alphas"),
        ({"group": PRODUCT_C2_C3, "subgroup": {"keep": [0], "weight": "counting"}, "subset": [[0, 0]]},
         "/subgroup"),
        ({"subgroup": {"keep": [0]}}, "/subgroup/keep"),
        ({"subgroup": {"elements": [0, 3], "weight": "heavy"}}, "/subgroup/weight"),
        ({"group": {"type": "table", "table": 5}}, "/group/table"),
        ({"group": {"type": "table", "table": [[0]], "name": 5}}, "/group/name"),
        ({"group": {"type": "product", "factors": []}}, "/group/factors"),
        # a field that no suite of the id reads, which a scan never writes
        ({"suites": ["layer-cake"], "alphas": ["2"]}, "/alphas"),
        ({"suites": ["layer-cake", "extract"], "subset_b": [1]}, "/subset_b"),
        ({"suites": ["spillover"], "subset_c": [2]}, "/subset_c"),
        ({"suites": ["containment"], "translate": [0, 1]}, "/translate"),
        ({"suites": [], "subset_b": [1]}, "/subset_b"),
        # a subgroup element outside the group
        ({"subgroup": {"elements": [0, 6]}}, "/subgroup/elements/1"),
        ({"group": {"type": "product", "factors": [{"type": "cyclic", "n": 2}] * 2},
          "subgroup": {"elements": [[0, 0], [0, 2]]}, "subset": [[0, 0]]}, "/subgroup/elements/1/1"),
        # a rational is "-"?, ASCII digits, then "/" and ASCII digits or nothing
        ({"alphas": [" 2"]}, "/alphas/0"),
        ({"alphas": ["2", "1_0/3"]}, "/alphas/1"),
        ({"alphas": ["+3/2"]}, "/alphas/0"),
        ({"alphas": ["\u0663/2"]}, "/alphas/0"),
    ],
)
def test_replay_rejects_malformed_ids_with_a_path(capsys, change, path):
    code, out, err = run(capsys, "replay", "--id", json.dumps(dict(REPLAY_BASE, **change)))
    assert code == 1
    assert out == ""
    assert f"error: {path}:" in err
    assert "Traceback" not in err


def test_replay_of_a_quotient_above_the_cap_fails_fast():
    # 10^6 cosets: refused before the O(|G|) normality check and coset walk
    spec = {"group": {"type": "cyclic", "n": 1000000}, "subgroup": {"elements": [0]}, "subset": [0, 1]}
    env = dict(os.environ, PYTHONPATH=str(Path(doubling.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-m", "doubling.cli", "replay", "--id", json.dumps(spec)],
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert out.returncode == 1
    assert out.stdout == ""
    assert "error: /subgroup: quotient index |G|/|H| = 1000000/1 is above the cap 64" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize(
    "command, code, expected",
    [
        # 33 inverse-pair units: 2^33 masks before the size filter at the parent
        (["verify", "--group", "cyclic:64", "--symmetric-only", "--max-subset-size", "2", "--out", os.devnull],
         0, ""),
        (["scan", "--config", "<symmetric_only>", "--out", os.devnull], 1,
         "error: /groups/0: exhaustive symmetric_only mode without max_size enumerates 8589934591 subsets of "
         "Z64; the cap is 2^16 - 1"),
    ],
)
def test_symmetric_only_scans_of_a_large_group_end(tmp_path, command, code, expected):
    config = tmp_path / "scan.json"
    mode = {"kind": "exhaustive", "symmetric_only": True}
    config.write_text(json.dumps({"groups": ["cyclic:64"], "subset_mode": mode}))
    command = [str(config) if arg == "<symmetric_only>" else arg for arg in command]
    env = dict(os.environ, PYTHONPATH=str(Path(doubling.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-m", "doubling.cli", *command],
                         env=env, capture_output=True, text=True, timeout=20)
    assert out.returncode == code, out.stderr
    assert expected in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("command, path", [
    (["verify", "--group", "cyclic:40", "--max-subset-size", "40"], "/group"),
    (["scan", "--config", "<max_size>"], "/groups/1"),
])
def test_an_exhaustive_scan_past_the_subset_cap_is_refused_before_it_starts(tmp_path, command, path):
    config = tmp_path / "scan.json"
    mode = {"kind": "exhaustive", "max_size": 6}
    config.write_text(json.dumps({"groups": ["cyclic:4", "symmetric:4"], "subset_mode": mode}))
    command = [str(config) if arg == "<max_size>" else arg for arg in command]
    env = dict(os.environ, PYTHONPATH=str(Path(doubling.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-m", "doubling.cli", *command, "--out", os.devnull],
                         env=env, capture_output=True, text=True, timeout=2)
    assert out.returncode == 1
    assert f"error: {path}: exhaustive mode with max_size" in out.stderr
    assert "the cap is 2^16 - 1" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("command, expected", [
    (["verify", "--group", "cyclic:13", "--trials", "1000000000"],
     "error: --trials: 1000000000 random subsets per normal subgroup; the cap is 2^16 - 1"),
    (["scan", "--config", "<count>"],
     "error: /subset_mode/count: 65536 random subsets per normal subgroup; the cap is 2^16 - 1"),
])
def test_a_random_scan_past_the_subset_cap_is_refused_before_it_starts(tmp_path, command, expected):
    config = tmp_path / "scan.json"
    mode = {"kind": "random", "count": 65536, "seed": 0}
    config.write_text(json.dumps({"groups": ["cyclic:4"], "subset_mode": mode}))
    command = [str(config) if arg == "<count>" else arg for arg in command]
    env = dict(os.environ, PYTHONPATH=str(Path(doubling.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-m", "doubling.cli", *command, "--out", os.devnull],
                         env=env, capture_output=True, text=True, timeout=2)
    assert out.returncode == 1
    assert expected in out.stderr
    assert "Traceback" not in out.stderr


def test_replay_refuses_an_id_past_the_pair_cap_before_it_starts(tmp_path):
    """A 5,000-element subset of Z_100000 x GL2Z: A A alone pairs 2.5e7 elements on the op path."""
    subset = [[i, [[1, i], [0, 1]]] for i in range(5000)]
    group = {"type": "product", "factors": [{"type": "cyclic", "n": 100000}, {"type": "gl2z"}]}
    (tmp_path / "id.txt").write_text(json.dumps({"group": group, "subgroup": {"keep": [1]},
                                                 "subset": subset, "suites": []}))
    env = dict(os.environ, PYTHONPATH=str(Path(doubling.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-m", "doubling.cli", "replay", "--id", f"@{tmp_path / 'id.txt'}",
                          "--out", os.devnull], env=env, capture_output=True, text=True, timeout=2)
    assert out.returncode == 1
    assert "error: /subset: evaluating this id forms a product of 25000000 pairs; the cap is 2^20" in out.stderr
    assert "Traceback" not in out.stderr


def _sharpness_ref(h: int, m: int) -> list[str]:
    return ["--subset", json.dumps({"construction": "sharpness", "N": 2, "h": h, "m": m})]


@pytest.mark.parametrize("inputs, code, expected", [
    # 13,092 elements: A A pairs 1.7e8 elements, minutes of work without the cap
    (_sharpness_ref(5, 2500), 1, "error: --subset: extract forms a product of 171400464 pairs; the cap is 2^20"),
    (["--instance", "<1144>"], 1, "error: --instance: extract forms a product of 1308736 pairs; the cap is 2^20"),
    (["--group", "cyclic:2048", "--subgroup", json.dumps({"elements": list(range(0, 2048, 32))}),
      "--subset", json.dumps({"elements": list(range(1025))})],
     1, "error: --subset: extract forms a product of 1050625 pairs; the cap is 2^20"),
    (_sharpness_ref(5, 36), 0, ""),  # 244 elements
    (_sharpness_ref(5, 100), 0, ""),  # 612 elements
    # 503,592 elements: refused by their count, not by the cap on building them
    (_sharpness_ref(5, 100000), 1, "error: --subset: extract forms a product of 253604902464 pairs; the cap is 2^20"),
])
def test_extract_refuses_a_subset_past_the_pair_cap_before_it_starts(tmp_path, inputs, code, expected):
    if "<1144>" in inputs:
        instance = tmp_path / "instance.json"
        instance.write_text(json.dumps(build_sharpness_instance(2, 7, 144).to_json()))  # 1,144 elements
        inputs = [str(instance) if arg == "<1144>" else arg for arg in inputs]
    env = dict(os.environ, PYTHONPATH=str(Path(doubling.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-m", "doubling.cli", "extract", "--alpha", "2", *inputs,
                          "--out", os.devnull], env=env, capture_output=True, text=True, timeout=10)
    assert out.returncode == code, out.stderr
    assert expected in out.stderr
    assert "Traceback" not in out.stderr


def test_extract_refuses_a_construction_reference_past_the_pair_cap_before_it_builds_an_element(monkeypatch, capsys):
    built = []
    monkeypatch.setattr(SharpnessInstance, "subset", lambda *args: built.append(args))
    code, _, err = run(capsys, "extract", "--alpha", "2", *_sharpness_ref(5, 30000), "--out", os.devnull)
    assert code == 1 and built == []
    assert "error: --subset: extract forms a product of 23089410304 pairs; the cap is 2^20" in err


def test_extract_reads_alpha_before_it_builds_an_instance(monkeypatch, capsys):
    built = []
    monkeypatch.setattr(cli, "build_from_reference", lambda *args: built.append(args))
    # 4,932 elements, past the pair cap: a bad --alpha is still the error reported
    code, _, err = run(capsys, "extract", "--alpha", "1", *_sharpness_ref(5, 900), "--out", os.devnull)
    assert code == 1 and built == []
    assert err.startswith("error: --alpha: ") and "pairs" not in err


@pytest.mark.parametrize("n, m, expected", [
    # over 150 s without the cap: (2N+1)^2 products of matrices with 2^N entries
    (1000, 1_000_000, "error: --N: the block product forms (2N+1)^2 = 4004001 pairs, above the cap 65536"),
    # a 1.25 GB mask, and more besides
    (8, 10_000_000_000, "error: --m: the Cantor cover needs 10000000000-bit masks, above the cap 67108864"),
])
def test_construct_refuses_a_witness_past_its_caps_before_it_starts(n, m, expected):
    env = dict(os.environ, PYTHONPATH=str(Path(doubling.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-m", "doubling.cli", "construct", "--N", str(n), "--h", "1000",
                          "--m", str(m), "--out", os.devnull], env=env, capture_output=True, text=True, timeout=2)
    assert out.returncode == 1
    assert expected in out.stderr
    assert "Traceback" not in out.stderr


C5000_C2 = {"type": "product", "factors": [{"type": "cyclic", "n": 5000}, {"type": "cyclic", "n": 2}]}
Z_GL2Z = {"type": "product", "factors": [{"type": "cyclic", "n": 3}, {"type": "gl2z"}]}


@pytest.mark.parametrize("group, sizes, suites, pairs", [
    (C5000_C2, {"subset": 1024}, [], None),  # A A: 2^20 pairs
    (C5000_C2, {"subset": 1025}, [], 1025 ** 2),
    (C5000_C2, {"subset": 1024, "subset_b": 1024}, ["spillover"], None),
    (C5000_C2, {"subset": 1024, "subset_b": 1025}, ["containment"], 1024 * 1025),
    (C5000_C2, {"subset": 104}, ["ruzsa-axioms"], None),  # A C, |C| <= |G| = 10,000 < |A|^2
    (C5000_C2, {"subset": 105}, ["ruzsa-axioms"], 105 * 10_000),
    (Z_GL2Z, {"subset": 101}, ["ruzsa-axioms"], None),  # A C, |C| <= |A|^2 = 10,201
    (Z_GL2Z, {"subset": 102}, ["ruzsa-axioms"], 102 * 102 ** 2),
    (Z_GL2Z, {"subset": 1000, "subset_c": 1000}, ["ruzsa-axioms"], None),
    (Z_GL2Z, {"subset": 1000, "subset_c": 1049}, ["ruzsa-axioms"], 1000 * 1049),
])
def test_the_pair_cap_bounds_the_largest_product_an_id_forms(group, sizes, suites, pairs):
    def elements(n):
        return [[i, 0] for i in range(n)] if group is C5000_C2 else [[0, [[1, i], [0, 1]]] for i in range(n)]

    spec = {"group": group, "subgroup": {"keep": [1]}, "suites": suites,
            **{key: elements(n) for key, n in sizes.items()}}
    if pairs is None:
        _load_id(json.dumps(spec))
    else:
        with pytest.raises(CapError, match=f"^/subset: evaluating this id forms a product of {pairs} pairs"):
            _load_id(json.dumps(spec))


def test_a_symmetric_only_scan_forms_only_the_unions_it_counts(tmp_path):
    """Z64 has 2 self-inverse elements and 31 inverse pairs: 1,522 symmetric
    subsets of at most 5 elements, for each of its 7 normal subgroups."""
    out_path = tmp_path / "out.json"
    env = dict(os.environ, PYTHONPATH=str(Path(doubling.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-m", "doubling.cli", "verify", "--group", "cyclic:64", "--symmetric-only",
                          "--max-subset-size", "5", "--out", str(out_path)],
                         env=env, capture_output=True, text=True, timeout=10)
    assert out.returncode == 0, out.stderr
    assert json.loads(out_path.read_text())["aggregate"]["instances"] == 7 * 1522


def _nested_product(depth: int) -> dict:
    spec = {"type": "cyclic", "n": 2}
    for _ in range(depth):
        spec = {"type": "product", "factors": [spec]}
    return spec


@pytest.mark.parametrize("flag", ["--config", "--id", "--group"])
def test_deeply_nested_input_exits_one_without_a_traceback(tmp_path, flag):
    path = tmp_path / "nested.json"
    command, text, expected = {
        "--config": (["scan", "--config", str(path)], "[" * 100_000, "error: --config: not valid JSON"),
        "--id": (["replay", "--id", f"@{path}"], "[" * 100_000, "error: /: malformed instance id"),
        "--group": (["verify", "--group", f"@{path}"], json.dumps(_nested_product(300)),
                    "error: /group" + "/factors/0" * 33 + ": products nest at most 32 deep"),
    }[flag]
    path.write_text(text)
    env = dict(os.environ, PYTHONPATH=str(Path(doubling.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-m", "doubling.cli", *command],
                         env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 1
    assert out.stdout == ""
    assert expected in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("argv", [
    ["construct", "--N", "1", "--h", "3", "--m", "9", "--emit", "x.json", "--out", "x.json"],
    ["scan", "--config", "c.json", "--out", "c.json"],
    ["extract", "--instance", "i.json", "--out", "i.json"],
    ["scan", "--config", "c.json", "--csv", "x", "--out", "x"],
])
def test_a_command_never_writes_over_its_own_files(tmp_path, argv):
    (tmp_path / "c.json").write_text(json.dumps({"groups": ["cyclic:4"], "subset_mode": {"kind": "exhaustive"}}))
    assert main(["construct", "--N", "1", "--h", "3", "--m", "9", "--emit", str(tmp_path / "i.json"),
                 "--out", os.devnull]) == 0
    before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
    env = dict(os.environ, PYTHONPATH=str(Path(doubling.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-m", "doubling.cli", *argv], cwd=tmp_path,
                         env=env, capture_output=True, text=True, timeout=20)
    assert out.returncode == 1
    assert out.stdout == ""
    assert f"error: --out: '{argv[-1]}' names the same file as {argv[-4]}" in out.stderr
    assert "Traceback" not in out.stderr
    # refused before any work: no file is written, none replaced
    assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before


def test_files_are_told_apart_by_their_resolved_paths(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"groups": ["cyclic:4"], "subset_mode": {"kind": "exhaustive"}}))
    (tmp_path / "link.json").symlink_to(config)
    code, _, err = run(capsys, "scan", "--config", str(config), "--out", str(tmp_path / "link.json"))
    assert code == 1 and "error: --out:" in err
    code, _, err = run(capsys, "verify", "--group", f"@{tmp_path}/./c.json", "--out", str(config))
    assert code == 1 and "error: --out:" in err and "names the same file as --group" in err
    # a special file may be named twice, and inputs may share a file
    code, _, _ = run(capsys, "scan", "--config", str(config), "--csv", os.devnull, "--out", os.devnull)
    assert code == 0
    (tmp_path / "s.json").write_text('{"elements": [0, 2]}')
    code, _, _ = run(capsys, "extract", "--group", "cyclic:4", "--subgroup", f"@{tmp_path}/s.json",
                     "--subset", f"@{tmp_path}/s.json", "--out", os.devnull)
    assert code == 0


def test_the_benchmark_scan_lists_each_group_once():
    from doubling.harness import ScanConfig

    groups = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "scan_groups.json").read_text())
    assert len(ScanConfig(groups, {"kind": "random", "count": 1, "seed": 0}).groups) == len(groups) == 81


def test_products_nest_up_to_the_bound():
    assert doubling.build_group(_nested_product(32)).order == 2
    with pytest.raises(doubling.SpecError, match="products nest at most 32 deep") as err:
        doubling.build_group(_nested_product(33), "/group")
    assert err.value.path == "/group" + "/factors/0" * 33


SCAN_BASE = {"groups": ["cyclic:4"], "subset_mode": {"kind": "random", "count": 1, "seed": 0}}
EXHAUSTIVE = {"kind": "exhaustive", "max_size": 2}


@pytest.mark.parametrize(
    "change, path",
    [
        ({"subset_mode": 5}, "/subset_mode"),
        # the retired worker count is refused, not ignored, whatever its value
        ({"parallelism": 1}, "/parallelism"),
        ({"parallelism": 2}, "/parallelism"),
        ({"subset_mode": dict(EXHAUSTIVE, max_size="2")}, "/subset_mode/max_size"),
        ({"subset_mode": dict(EXHAUSTIVE, max_size=0)}, "/subset_mode/max_size"),
        ({"subset_mode": dict(EXHAUSTIVE, symmetric_only="no")}, "/subset_mode/symmetric_only"),
        ({"subset_mode": dict(SCAN_BASE["subset_mode"], density={"size": "2"})},
         "/subset_mode/density/size"),
        ({"subset_mode": dict(SCAN_BASE["subset_mode"], count=True)}, "/subset_mode/count"),
        ({"subset_mode": dict(SCAN_BASE["subset_mode"], seed=False)}, "/subset_mode/seed"),
        ({"groups": "cyclic:4"}, "/groups"),
        ({"groups": ["cyclic:0"]}, "/groups/0"),
        ({"groups": ["cyclic:²"]}, "/groups/0"),
        ({"groups": ["q8:7"]}, "/groups/0"),
        ({"groups": [{"type": "product", "factors": [{"type": "cyclic", "n": "4"}]}]},
         "/groups/0/factors/0/n"),
        ({"emit_instances": "no"}, "/emit_instances"),
        ({"alphas": []}, "/alphas"),
        ({"groups": [5]}, "/groups/0"),
        ({"groups": ["gl2z"]}, "/groups/0"),
        # a group listed twice, as written or once normalized from its selector
        ({"groups": ["cyclic:4", "cyclic:4"]}, "/groups/1"),
        ({"groups": ["cyclic:4", "q8", {"type": "cyclic", "n": 4}]}, "/groups/2"),
        ({"alphas": [" 2"]}, "/alphas/0"),
        ({"alphas": ["2", "+3/2"]}, "/alphas/1"),
        # a scan of no groups would check nothing and pass
        ({"groups": []}, "/groups"),
        # a default key written out names the same group, a factor's too
        ({"groups": ["cyclic:4", {"type": "cyclic", "n": 4, "weight": "counting"}]}, "/groups/1"),
        ({"groups": [{"type": "product", "factors": [{"type": "cyclic", "n": 2}, {"type": "cyclic", "n": 3}]},
                     {"type": "product", "factors": [{"type": "cyclic", "n": 2, "weight": "counting"},
                                                     {"type": "cyclic", "n": 3}]}]}, "/groups/1"),
        # as would a "proper" scan of groups without a normal subgroup 1 < |H| < |G|
        ({"groups": ["cyclic:5", "cyclic:7"], "subgroups": "proper"}, "/subgroups"),
    ],
)
def test_scan_rejects_malformed_configs_with_a_path(tmp_path, capsys, change, path):
    config = tmp_path / "scan.json"
    config.write_text(json.dumps(dict(SCAN_BASE, **change)))
    code, out, err = run(capsys, "scan", "--config", str(config), "--out", str(tmp_path / "o.json"))
    assert code == 1
    assert out == ""
    assert f"error: {path}:" in err
    assert "Traceback" not in err


# -- malformed input of every kind: exit 1, never a traceback, never 0 ------------

CONSTRUCTION_REF = {"construction": "sharpness", "N": 1, "h": 4, "m": 25}
EXTRACT_C4 = ["--group", "cyclic:4", "--subgroup", '{"elements": [0, 2]}', "--subset", '{"elements": [0, 1]}']


def _replay_id(**change):
    return ["replay", "--id", json.dumps(dict(REPLAY_BASE, **change))]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "--group", "dihedral:3", "--alphas", "2/0"], "--alphas"),
        (["verify", "--group", "dihedral:3", "--alphas", "3/2,1"], "--alphas"),
        (["verify", "--group", "dihedral:3", "--alphas", ""], "--alphas"),
        (["extract", "--alpha", "2/0", *EXTRACT_C4], "--alpha"),
        (["extract", "--alpha", "1", *EXTRACT_C4], "--alpha"),
        (["extract", "--alpha", "2,x", *EXTRACT_C4], "--alpha"),
        (["verify", "--group", "cyclic:4", "-j", "0"], "-j/--parallelism"),
        (["verify", "--group", "cyclic:4", "-j", "-2"], "-j/--parallelism"),
        (["scan", "--config", "<scan>", "-j", "0"], "-j/--parallelism"),
        (_replay_id(group={"type": "table", "table": [5]}, subgroup={"elements": [0]}, subset=[0]),
         "/group/table/0"),
        (_replay_id(group={"type": "table", "table": [[0, 1], "10"]}), "/group/table/1"),
        (_replay_id(group={"type": "table", "table": [[0, 1], [1, False]]}), "/group/table/1"),
        (_replay_id(group=PRODUCT_C2_C3, subgroup={"keep": [True]}, subset=[[0, 0]]), "/subgroup/keep"),
        (_replay_id(group=PRODUCT_C2_C3, subgroup={"keep": [0, "1"]}, subset=[[0, 0]]), "/subgroup/keep"),
        (["extract", "--instance", "<bool_keep>"], "/instance/keep"),
        (["verify", "--group", "cyclic:0"], "/group"),
        (["verify", "--group", "@<scan>"], "/group"),
        (["verify", "--group", "cyclic:4", "--suite", "bogus"], "--suite"),
        (["extract", "--alpha", "2", "--group", "cyclic:4", "--subgroup", "[", "--subset", "{}"], "error:"),
        (["extract", "--alpha", "2", "--group", "cyclic:4", "--subgroup", '{"elements": [0, 9]}',
          "--subset", '{"elements": [0]}'], "/subgroup/elements"),
        (["replay", "--id", "[1, 2]"], "error: /:"),
        (["replay", "--id", "{"], "error: /:"),
        (["scan", "--config", "<not_json>"], "error:"),
        (["construct", "--N", "0", "--h", "5", "--m", "36"], "--N"),
        (["construct", "--N", "-3", "--h", "5", "--m", "36"], "--N"),
        (["construct", "--N", "1", "--h", "1", "--m", "36"], "--h"),
        (["construct", "--N", "1", "--h", "5", "--m", "3"], "--m"),
        (["construct", "--N", "1", "--h", "5", "--m", "37"], "--m"),
        (["construct", "--N", "1", "--h", "5", "--m", "36", "--emit", "<missing>", "--materialize-cap", "-1"],
         "--materialize-cap"),
        (["extract", "--alpha", "2",
          "--subset", '{"construction": "sharpness", "N": 0, "h": 4, "m": 25}'], "/subset/N"),
        (["extract", "--alpha", "2",
          "--subset", '{"construction": "sharpness", "N": 1, "h": 4, "m": 7}'], "/subset/m"),
        (["verify", "--group", "cyclic:14", "--symmetric-only", "--trials", "3", "--suite", "quotient-sym"],
         "--symmetric-only"),
        (["verify", "--group", "cyclic:4", "--max-subset-size", "0"], "--max-subset-size"),
        (["verify", "--group", "cyclic:14", "--trials", "0"], "--trials"),
        (["verify", "--group", "cyclic:4", "--trials", "0", "--seed", "5"], "--trials"),
        (["verify", "--group", "cyclic:4", "--seed", "5"], "--seed"),
        (["verify", "--group", "cyclic:14", "--max-subset-size", "1", "--trials", "1"], "--trials"),
        (["verify", "--group", "gl2z"], "error: /group:"),
        (["extract", "--alpha", "2", "--group", "cyclic:4", "--subset", '{"elements": [0]}'], "error: /:"),
        (["scan", "--config", "<not_object>"], "error: /:"),
        (["replay", "--id", json.dumps({"group": REPLAY_BASE["group"], "subset": [0]})], "error: /subgroup:"),
        (["extract", "--instance", "<wrong_kind>"], "error: /instance:"),
        (["extract", "--instance", "<not_product>"], "error: /instance/group:"),
        (["extract", "--alpha", "2",
          "--subset", '{"construction": "other"}'], "error: /subset/construction:"),
        (["extract", "--alpha", "2",
          "--subset", '{"construction": "sharpness", "N": 1, "h": 4, "m": 25, "k": 2}'], "error: /subset/k:"),
        (["verify", "--group", "cyclic:4", "--suite", "layer-cake,foo"], "error: --suite: unknown suite 'foo'"),
        # extract rejects the flags it would ignore
        (["extract", "--instance", "<instance>", "--group", "cyclic:5"], "error: --group:"),
        (["extract", "--instance", "<instance>", "--subgroup", '{"elements": [0]}'], "error: --subgroup:"),
        (["extract", "--instance", "<instance>", "--subset", '{"elements": [0]}'], "error: --subset:"),
        (["extract", "--instance", "<instance>", "--subgroup-weight", "counting"], "error: --subgroup-weight:"),
        (["extract", "--group", "cyclic:2", "--subset", json.dumps(CONSTRUCTION_REF)], "error: --group:"),
        (["extract", "--subgroup", '{"elements": [0]}', "--subset", json.dumps(CONSTRUCTION_REF)],
         "error: --subgroup:"),
        (["extract", "--subgroup-weight", "normalized", "--subset", json.dumps(CONSTRUCTION_REF)],
         "error: --subgroup-weight:"),
        (["extract", "--group", "cyclic:4", "--subgroup", '{"elements": [0, 2], "weight": "counting"}',
          "--subset", '{"elements": [0]}', "--subgroup-weight", "normalized"], "error: --subgroup-weight:"),
        # malformed JSON names the flag it came from
        (["scan", "--config", "<not_json>"], "error: --config: not valid JSON"),
        (["extract", "--instance", "<not_json>"], "error: --instance: not valid JSON"),
        (["replay", "--id", json.dumps(REPLAY_BASE), "--expect", "<not_json>"], "error: --expect: not valid JSON"),
        (["verify", "--group", "@<not_json>"], "error: --group: not valid JSON"),
        (["extract", "--group", "cyclic:4", "--subgroup", "{", "--subset", '{"elements": [0]}'],
         "error: --subgroup: not valid JSON"),
        (["extract", "--group", "cyclic:4", "--subgroup", '{"elements": [0, 2]}', "--subset", "{"],
         "error: --subset: not valid JSON"),
        # a set that is not a normal subgroup, and an empty subset, name their paths
        (_replay_id(group={"type": "cyclic", "n": 4}, subgroup={"elements": [1]}, subset=[0]),
         "error: /subgroup/elements: not a subgroup"),
        (_replay_id(group={"type": "symmetric", "n": 3}, subgroup={"elements": [0, 1]}, subset=[0]),
         "error: /subgroup/elements: subgroup is not normal"),
        (["extract", "--group", "cyclic:4", "--subgroup", '{"elements": [1]}', "--subset", '{"elements": [0]}'],
         "error: /subgroup/elements: not a subgroup"),
        (["extract", "--group", "dihedral:3", "--subgroup", '{"elements": [0, 3]}', "--subset", '{"elements": [0]}'],
         "error: /subgroup/elements: subgroup is not normal"),
        (["extract", "--group", "cyclic:4", "--subgroup", '{"elements": [0, 2]}', "--subset", '{"elements": []}'],
         "error: /subset/elements: expected a nonempty list"),
        # an id file is read as every other argument file is
        (["replay", "--id", "@<missing>"], "error: --id: cannot read"),
        (["replay", "--id", "@<not_utf8>"], "error: --id: "),
        (["replay", "--id", "@<nested>"], "error: /: malformed instance id"),
        (["scan", "--config", "<not_utf8>"], "error: --config: "),
        # a repeated alpha or suite, equal after normalizing, is refused wherever it is read
        (["verify", "--group", "cyclic:4", "--alphas", "2,4/2"], "error: --alphas: '4/2' repeats the alpha 2/1"),
        (["extract", "--alpha", "2,4/2", *EXTRACT_C4], "error: --alpha: '4/2' repeats the alpha 2/1"),
        (["verify", "--group", "cyclic:4", "--suite", "layer-cake,extract,layer-cake"],
         "error: --suite: suite 'layer-cake' is listed twice"),
        (["scan", "--config", "<dup_suite>"], "error: /suites/1: suite 'extract' is listed twice"),
        (["scan", "--config", "<dup_alpha>"], "error: /alphas/2: 3 repeats the alpha 3/1"),
        (_replay_id(suites=["layer-cake", "layer-cake"]), "error: /suites/1: suite 'layer-cake' is listed twice"),
        (_replay_id(suites=["extract"], alphas=["2", "3/2", "6/3"]), "error: /alphas/2: '6/3' repeats the alpha 2/1"),
        # a group or quotient above a cap, or an infinite group, names where it was read
        (["verify", "--group", "cyclic:70"], "error: /group: subgroup enumeration capped at order 64, got 70"),
        (["scan", "--config", "<over_lattice_cap>"],
         "error: /groups/1: subgroup enumeration capped at order 64, got 70"),
        (["scan", "--config", "<over_exhaustive_cap>"],
         "error: /groups/1: exhaustive mode without max_size enumerates 1048575 subsets of Z20; the cap is 2^16 - 1"),
        (["scan", "--config", "<infinite>"], "error: /groups/1: GL2Z is infinite; scans need finite groups"),
        (_replay_id(group={"type": "cyclic", "n": 1000}, subgroup={"elements": [0]}, subset=[0]),
         "error: /subgroup: quotient index |G|/|H| = 1000/1 is above the cap 64"),
        (["extract", "--alpha", "2", "--group", "cyclic:1000", "--subgroup", '{"elements": [0]}',
          "--subset", '{"elements": [0]}'], "error: /subgroup: quotient index |G|/|H| = 1000/1 is above the cap 64"),
        # a rational is "-"?, ASCII digits, then "/" and ASCII digits or nothing
        (["verify", "--group", "dihedral:3", "--alphas", "3/2, 2"], "--alphas"),
        (["extract", "--alpha", " 2", *EXTRACT_C4], "--alpha"),
        (["extract", "--alpha", "1_0/3", *EXTRACT_C4], "--alpha"),
        (["extract", "--alpha", "+3/2", *EXTRACT_C4], "--alpha"),
        (["extract", "--alpha", "\u0663/2", *EXTRACT_C4], "--alpha"),
        # -j takes 1 alone: scans run in one process
        (["verify", "--group", "cyclic:4", "-j", "2"], "argument -j/--parallelism: invalid choice: '2'"),
        (["scan", "--config", "<scan>", "-j", "2"], "argument -j/--parallelism: invalid choice: '2'"),
        # an integer flag is "-"? and ASCII digits, as written
        (["construct", "--N", "1_0", "--h", "3", "--m", "9"], "argument --N: expected an integer, got '1_0'"),
        (["construct", "--N", "\u0663", "--h", "3", "--m", "9"], "argument --N: expected an integer"),
        (["construct", "--N", "1", "--h", "+3", "--m", "9"], "argument --h: expected an integer, got '+3'"),
        (["construct", "--N", "1", "--h", "3", "--m", " 9"], "argument --m: expected an integer, got ' 9'"),
        (["construct", "--N", "1", "--h", "3", "--m", "9", "--emit", "<missing>", "--materialize-cap", "1_0"],
         "argument --materialize-cap: expected an integer"),
        (["verify", "--group", "cyclic:4", "--max-subset-size", " 2"],
         "argument --max-subset-size: expected an integer, got ' 2'"),
        (["verify", "--group", "cyclic:64", "--trials", "1_0"], "argument --trials: expected an integer"),
        (["verify", "--group", "cyclic:64", "--trials", "\u0663"], "argument --trials: expected an integer"),
        (["verify", "--group", "cyclic:64", "--seed", "+3"], "argument --seed: expected an integer, got '+3'"),
        # construct rejects the flag it would ignore
        (["construct", "--N", "1", "--h", "3", "--m", "9", "--materialize-cap", "5"],
         "error: --materialize-cap: not used without --emit"),
        # a scan of no groups would check nothing and pass
        (["scan", "--config", "<no_groups>"], "error: /groups: expected a nonempty list of group specs"),
    ],
)
def test_malformed_input_exits_one_without_a_traceback(tmp_path, capsys, argv, flag):
    instance = build_sharpness_instance(1, 2, 9).to_json()
    files = {}
    for key, text in (
        ("<scan>", json.dumps(SCAN_BASE)),
        ("<instance>", json.dumps(instance)),
        ("<bool_keep>", json.dumps(dict(instance, keep=[True, 2]))),
        ("<not_json>", "{'groups': "),
        ("<not_object>", json.dumps([SCAN_BASE])),
        ("<wrong_kind>", json.dumps(dict(instance, kind="sharpness-report"))),
        ("<not_product>", json.dumps(dict(instance, group={"type": "cyclic", "n": 4}))),
        ("<not_utf8>", '{"groups": ["cyclic:4"], "name": "\xe9"}'.encode("latin-1")),
        ("<nested>", "[" * 100_000),
        ("<dup_suite>", json.dumps(dict(SCAN_BASE, suites=["extract", "extract"]))),
        ("<dup_alpha>", json.dumps(dict(SCAN_BASE, alphas=["3/2", "3", 3]))),
        ("<over_lattice_cap>", json.dumps(dict(SCAN_BASE, groups=["cyclic:4", "cyclic:70"]))),
        ("<over_exhaustive_cap>", json.dumps({"groups": ["cyclic:4", "cyclic:20"],
                                              "subset_mode": {"kind": "exhaustive"}})),
        ("<infinite>", json.dumps(dict(SCAN_BASE, groups=["cyclic:4", "gl2z"]))),
        ("<no_groups>", json.dumps(dict(SCAN_BASE, groups=[]))),
        ("<missing>", None),
    ):
        files[key] = tmp_path / (key.strip("<>") + ".json")
        if text is not None:
            files[key].write_bytes(text if isinstance(text, bytes) else text.encode())
    for key, path in files.items():
        argv = [arg.replace(key, str(path)) for arg in argv]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert flag in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, change, path",
    [
        ("replay", {"group": {"type": "cyclic", "n": True}}, "/group/n"),
        ("replay", {"group": {"type": "dihedral", "n": True}}, "/group/n"),
        ("replay", {"group": {"type": "symmetric", "n": True}}, "/group/n"),
        ("replay", {"group": {"type": "table", "table": [[0, 1], [1, True]]}}, "/group/table/1"),
        ("replay", {"group": PRODUCT_C2_C3, "subgroup": {"keep": [1, True]}, "subset": [[0, 0]]},
         "/subgroup/keep"),
        ("scan", {"subset_mode": dict(EXHAUSTIVE, max_size=True)}, "/subset_mode/max_size"),
        ("scan", {"subset_mode": dict(SCAN_BASE["subset_mode"], count=True)}, "/subset_mode/count"),
        ("scan", {"subset_mode": dict(SCAN_BASE["subset_mode"], seed=True)}, "/subset_mode/seed"),
        ("scan", {"subset_mode": dict(SCAN_BASE["subset_mode"], density={"size": True})},
         "/subset_mode/density/size"),
        # the retired worker count is refused at its path, true included
        ("scan", {"parallelism": True}, "/parallelism"),
        ("extract", {"N": True}, "/subset/N"),
        ("extract", {"h": True}, "/subset/h"),
        ("extract", {"m": True}, "/subset/m"),
    ],
)
def test_true_is_never_an_integer(tmp_path, capsys, command, change, path):
    config = tmp_path / "scan.json"
    config.write_text(json.dumps(dict(SCAN_BASE, **change)))
    argv = {
        "replay": lambda: _replay_id(**change),
        "scan": lambda: ["scan", "--config", str(config)],
        "extract": lambda: ["extract", "--subset", json.dumps(dict(CONSTRUCTION_REF, **change))],
    }[command]()
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert f"error: {path}:" in err
    assert "Traceback" not in err


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8) | st.sampled_from(["1/0", "3/2", "layer-cake", "counting", "cyclic:4"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)
ID_FIELDS = sorted(REPLAY_BASE) + ["subset_b", "subset_c", "alphas", "translate", "colour"]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ID_FIELDS + ["group/type", "subgroup/elements", "subgroup/keep"]), JSON_VALUES)
def test_replay_of_an_arbitrary_field_exits_zero_or_one(field, value):
    spec = json.loads(json.dumps(REPLAY_BASE))
    key, _, inner = field.partition("/")
    if inner == "keep":
        spec.update(group=PRODUCT_C2_C3, subgroup={"keep": value}, subset=[[0, 0]])
    elif inner:
        spec[key][inner] = value
    else:
        spec[key] = value
    # in-process, so any uncaught exception fails the test by itself
    code = main(["replay", "--id", json.dumps(spec), "--out", "/dev/null"])
    assert code in (0, 1)


SCAN_FIELDS = sorted(SCAN_BASE) + ["suites", "subgroups", "subgroup_weight", "alphas", "emit_instances",
                                   "parallelism", "colour"]
SUBSET_MODE_FIELDS = ["kind", "count", "seed", "density", "max_size", "symmetric_only", "colour"]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SCAN_FIELDS + [f"subset_mode/{f}" for f in SUBSET_MODE_FIELDS]), JSON_VALUES)
def test_scan_of_an_arbitrary_field_exits_zero_or_one(field, value):
    config = json.loads(json.dumps(SCAN_BASE))
    key, _, inner = field.partition("/")
    if inner:
        config[key][inner] = value
    else:
        config[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scan.json"
        path.write_text(json.dumps(config))
        # in-process, so any uncaught exception fails the test by itself
        code = main(["scan", "--config", str(path), "-j", "1", "--out", "/dev/null"])
    assert code in (0, 1)


JSON_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text()
    | st.sampled_from(['"\\\n\t\x00\x7f\u2028', "é漢😀", "", -0.0, 1e300, -1e-300, 2 ** 70])
)
JSON_KEYS = st.text(max_size=6) | st.sampled_from(['"', "\\", "é", "😀", "\n"])
JSON_DOCS = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(JSON_KEYS, inner, max_size=4),
    max_leaves=24,
)


def _saved(doc) -> str:
    """The text the CLI's file writer leaves for doc, passing each fragment
    to the file on its own; if it raises, no file may be left."""
    with tempfile.TemporaryDirectory() as d, mock.patch.object(cli, "_CHUNK", 1):
        path = os.path.join(d, "doc.json")
        try:
            cli._emit(doc, path)
        except Exception:
            assert os.listdir(d) == []
            raise
        return Path(path).read_bytes().decode("utf-8")


def _buffered(doc) -> str:
    """The text `_dump` writes for doc into a buffer."""
    buf = io.StringIO()
    cli._dump(doc, buf)
    return buf.getvalue()


def _printed(doc) -> str:
    """The text the CLI streams to stdout for doc, one fragment at a time."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), mock.patch.object(cli, "_CHUNK", 1):
        cli._emit(doc, None)
    return buf.getvalue()


@settings(max_examples=400, deadline=None)
@given(JSON_DOCS)
def test_indented_json_matches_json_dumps(doc):
    expected = json.dumps(doc, sort_keys=True, indent=2)
    assert _buffered(doc) == expected
    assert _saved(doc) == expected + "\n"
    assert _printed(doc) == expected + "\n"


def test_indented_json_raises_a_type_error_naming_other_types():
    for doc, name in (({"a": [1, Fraction(1, 2)]}, "Fraction"), ([OrderedDict(b=1, a=2)], "OrderedDict"),
                      ({"x": {1: "one", 2: "two"}}, "int"), ({"x": [1.5, float("nan")]}, "float")):
        with pytest.raises(TypeError, match=name):
            _buffered(doc)
        with pytest.raises(TypeError, match=name):
            _saved(doc)  # which checks that no file is left


# 1,530 instances of all suites, a 7 MB artifact
D4_ALL_SUITES = {"groups": ["dihedral:4"], "subset_mode": {"kind": "exhaustive"}, "emit_instances": True}
C4_ALL_SUITES = dict(D4_ALL_SUITES, groups=["cyclic:4"])


def _record_writes(monkeypatch, fail: bool = False) -> list:
    """Record the length of each write to a file that the CLI opens for
    writing; with fail, each of them raises ENOSPC instead."""
    sizes: list = []
    real_open = open

    def recording_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if "w" in mode:
            write = fh.write

            def counted(text):
                sizes.append(len(text))
                if fail:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return write(text)

            fh.write = counted
        return fh

    monkeypatch.setattr(cli, "open", recording_open, raising=False)
    return sizes


# one extract record of 200 certificates, about 100 KB in the artifact
C4_MANY_ALPHAS = dict(C4_ALL_SUITES, suites=["extract"], alphas=[str(k) for k in range(2, 202)])


def test_scan_streams_its_artifact_in_bounded_writes(tmp_path, capsys, monkeypatch):
    sizes = _record_writes(monkeypatch)
    for config in (D4_ALL_SUITES, C4_MANY_ALPHAS):
        (tmp_path / "scan.json").write_text(json.dumps(config))
        out = tmp_path / "out.json"
        sizes.clear()
        assert run(capsys, "scan", "--config", str(tmp_path / "scan.json"), "--out", str(out))[0] == 0
        size = out.stat().st_size
        assert size > 1 << 20 and sum(sizes) == size
        assert max(sizes) <= 1 << 18


def test_scan_to_stdout_streams_the_bytes_of_its_out_file(tmp_path, capsys, monkeypatch):
    (tmp_path / "scan.json").write_text(json.dumps(D4_ALL_SUITES))
    out = tmp_path / "out.json"
    argv = ["scan", "--config", str(tmp_path / "scan.json")]
    assert run(capsys, *argv, "--out", str(out))[0] == 0
    writes: list = []
    monkeypatch.setattr(sys, "stdout", mock.Mock(write=writes.append))
    assert main(argv) == 0
    assert "".join(writes).encode() == out.read_bytes()
    assert max(map(len, writes)) <= 1 << 18


def test_j_1_writes_the_same_bytes_as_no_j(tmp_path, capsys):
    (tmp_path / "scan.json").write_text(json.dumps(D4_ALL_SUITES))
    for argv in (["scan", "--config", str(tmp_path / "scan.json")],
                 ["verify", "--group", "dihedral:3", "--max-subset-size", "2"]):
        texts = []
        for jobs in ([], ["-j", "1"], ["--parallelism", "1"]):
            out = tmp_path / "out.json"
            assert run(capsys, *argv, *jobs, "--out", str(out))[0] == 0
            texts.append(out.read_bytes())
        assert texts[1:] == texts[:1] * 2, argv[0]


def test_materialize_cap_bounds_the_emitted_elements(tmp_path, capsys):
    base = ["construct", "--N", "1", "--h", "3", "--m", "9"]
    reports, instances = [], []
    for cap in ([], ["--materialize-cap", "20000"], ["--materialize-cap", "5"]):
        emit, out = tmp_path / "instance.json", tmp_path / "report.json"
        assert run(capsys, *base, "--emit", str(emit), *cap, "--out", str(out))[0] == 0
        reports.append(out.read_bytes())
        instances.append(json.loads(emit.read_text()))
    # the default is 20,000; below the witness's size the element list is left out
    assert instances[0] == instances[1] and instances[0]["subset"] is not None
    assert instances[2]["subset"] is None and instances[0]["subset_size"] > 5
    assert reports[1:] == reports[:1] * 2


@pytest.mark.parametrize("failure", ["render", "write", "unsupported"])
def test_a_failed_write_leaves_no_file_and_the_old_artifact(tmp_path, capsys, monkeypatch, failure):
    (tmp_path / "scan.json").write_text(json.dumps(C4_ALL_SUITES))
    out = tmp_path / "out.json"
    argv = ["scan", "--config", str(tmp_path / "scan.json"), "--out", str(out)]
    if failure == "write":
        _record_writes(monkeypatch, fail=True)
        fails = lambda: run(capsys, *argv)[0] == 1  # noqa: E731
    else:  # the fifth report fails to render, or holds a Fraction, after the writer sent some to the file
        render, calls = InstanceReport.to_json, []

        def to_json(self, *args):
            calls.append(self)
            if len(calls) % 5 == 0:
                if failure == "render":
                    raise RuntimeError("render failed")
                return dict(render(self, *args), quotient_doubling=Fraction(1, 2))
            return render(self, *args)

        monkeypatch.setattr(InstanceReport, "to_json", to_json)
        monkeypatch.setattr(cli, "_CHUNK", 8)
        error, reason = (RuntimeError, "render failed") if failure == "render" else (TypeError, "type Fraction")

        def fails():
            with pytest.raises(error, match=reason):
                main(argv)
            return True

    assert fails()
    assert sorted(os.listdir(tmp_path)) == ["scan.json"]
    out.write_bytes(b"an older artifact\n")
    assert fails()
    assert sorted(os.listdir(tmp_path)) == ["out.json", "scan.json"]
    assert out.read_bytes() == b"an older artifact\n"


def test_an_artifact_gets_the_mode_of_a_plain_open(tmp_path, capsys):
    out, plain = tmp_path / "out.json", tmp_path / "plain"
    argv = ["replay", "--id", json.dumps(REPLAY_BASE), "--out", str(out)]
    umask = os.umask(0o027)
    try:
        open(plain, "w").close()
        assert run(capsys, *argv)[0] == 0
        assert out.stat().st_mode == plain.stat().st_mode
        # a plain open keeps an existing file's mode
        out.chmod(0o604)
        assert run(capsys, *argv)[0] == 0
        assert out.stat().st_mode & 0o777 == 0o604
    finally:
        os.umask(umask)


def test_an_artifact_behind_a_symlink_is_written_through_it(tmp_path, capsys):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("old\n")
    link.symlink_to(target)
    assert run(capsys, "replay", "--id", json.dumps(REPLAY_BASE), "--out", str(link))[0] == 0
    assert link.is_symlink() and json.loads(target.read_text())["id"] == json.dumps(REPLAY_BASE)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_scan_to_a_fifo_streams_the_bytes_of_its_out_file(tmp_path, capsys, monkeypatch):
    (tmp_path / "scan.json").write_text(json.dumps(D4_ALL_SUITES))
    out, fifo = tmp_path / "out.json", tmp_path / "fifo"
    argv = ["scan", "--config", str(tmp_path / "scan.json"), "--out"]
    assert run(capsys, *argv, str(out))[0] == 0
    os.mkfifo(fifo)
    received: list = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
    reader.start()
    sizes = _record_writes(monkeypatch)
    try:
        assert run(capsys, *argv, str(fifo))[0] == 0
    finally:
        reader.join(timeout=10)
        if reader.is_alive():  # the fifo was never opened for writing: end the reader's wait
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            reader.join()
    assert received == [out.read_bytes()]
    assert sum(sizes) == out.stat().st_size and max(sizes) <= 1 << 18


def test_scan_to_dev_null_exits_zero(tmp_path, capsys):
    (tmp_path / "scan.json").write_text(json.dumps(C4_ALL_SUITES))
    argv = ["scan", "--config", str(tmp_path / "scan.json"), "--out", os.devnull, "--csv", os.devnull]
    assert run(capsys, *argv)[0] == 0


# -- emitting scans: each report is written once it is folded, through a spool -------------

EMITTING = {
    # 36 subsets of each group under its six normal subgroups: the runs of a block interleave
    "exhaustive": {"groups": ["dihedral:4", "q8"], "subset_mode": {"kind": "exhaustive", "max_size": 2}},
    "random": {"groups": ["cyclic:12", "dihedral:5", "symmetric:3"],
               "subset_mode": {"kind": "random", "count": 40, "seed": 4}},
}


def _plain(config: dict) -> tuple[str, str]:
    """The artifact and the CSV of a scan from the reports that the library
    holds, in id order: `json.dumps` of their `to_json()`, and `report_csv`."""
    report = scan(scan_config := ScanConfig.from_json(dict(config, emit_instances=True)))
    assert [rep.id for rep in report["instances"]] == iter_instance_specs(scan_config)
    plain = dict(report, instances=[rep.to_json() for rep in report["instances"]])
    return json.dumps(plain, sort_keys=True, indent=2) + "\n", report_csv(report)


@pytest.mark.parametrize("small", [False, True])
@pytest.mark.parametrize("name", sorted(EMITTING))
def test_an_emitting_scan_writes_the_bytes_of_the_held_reports(tmp_path, capsys, monkeypatch, name, small):
    if small:  # many batches, each sent to the spool in pieces, and a memo that starts over
        for attr, value in (("_BATCH", 3), ("_CHUNK", 64), ("_MEMO", 8)):
            monkeypatch.setattr(cli, attr, value)
    (tmp_path / "scan.json").write_text(json.dumps(EMITTING[name]))
    out, csv_path = tmp_path / "out.json", tmp_path / "out.csv"
    argv = ["scan", "--config", str(tmp_path / "scan.json"), "--out", str(out), "--csv", str(csv_path)]
    assert run(capsys, *argv)[0] == 0
    assert (out.read_text(), csv_path.read_text()) == _plain(EMITTING[name])


def test_emit_instances_without_csv_streams_the_same_bytes_to_stdout(tmp_path, capsys):
    config = dict(EMITTING["random"], emit_instances=True)
    (tmp_path / "scan.json").write_text(json.dumps(config))
    code, out, _ = run(capsys, "scan", "--config", str(tmp_path / "scan.json"))
    assert code == 0 and out == _plain(config)[0]


def test_an_emitting_scan_that_fails_midway_leaves_the_old_files_and_no_spool(tmp_path, monkeypatch):
    spools = tmp_path / "spools"
    spools.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(spools))
    evaluate, calls = harness.evaluate_instance, []

    def failing(*args):
        calls.append(args)
        if len(calls) > 2 * cli._BATCH + 5:  # after two batches went to the spool
            raise RuntimeError("evaluation failed")
        return evaluate(*args)

    monkeypatch.setattr(harness, "evaluate_instance", failing)
    (tmp_path / "scan.json").write_text(json.dumps(EMITTING["random"]))
    out, csv_path = tmp_path / "out.json", tmp_path / "out.csv"
    out.write_text("an older artifact\n")
    csv_path.write_text("an older table\n")
    with pytest.raises(RuntimeError, match="evaluation failed"):
        main(["scan", "--config", str(tmp_path / "scan.json"), "--out", str(out), "--csv", str(csv_path)])
    assert sorted(os.listdir(tmp_path)) == ["out.csv", "out.json", "scan.json", "spools"]
    assert os.listdir(spools) == []
    assert (out.read_text(), csv_path.read_text()) == ("an older artifact\n", "an older table\n")


def test_an_emitting_scan_holds_one_batch_of_reports_and_a_bounded_memo(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_MEMO", 64)
    evaluate, calls, seen = harness.evaluate_instance, [], []  # seen: (live reports, memo size) per look

    def looked(*args):
        calls.append(None)
        if len(calls) % 200 == 0:
            objects = gc.get_objects()
            spools = [x for x in objects if type(x) is cli._Spool]
            seen.append((sum(type(x) is InstanceReport for x in objects), [len(x.memo) for x in spools]))
        return evaluate(*args)

    monkeypatch.setattr(harness, "evaluate_instance", looked)
    # 300 random subsets under each of the 7 normal subgroups of D6
    config = {"groups": ["dihedral:6"], "subset_mode": {"kind": "random", "count": 300, "seed": 2}}
    (tmp_path / "scan.json").write_text(json.dumps(config))
    argv = ["scan", "--config", str(tmp_path / "scan.json"), "--out", os.devnull, "--csv", str(tmp_path / "out.csv")]
    assert run(capsys, *argv)[0] == 0
    assert len(calls) == 2100 and len(seen) == 10
    assert all(reports <= cli._BATCH for reports, _ in seen), seen
    assert all(len(memos) == 1 and memos[0] <= cli._MEMO + 1 for _, memos in seen), seen
    assert max(memos[0] for _, memos in seen) > cli._MEMO // 2  # the memo is in use


def _failing_containment(ctx, alphas):
    from doubling.harness import Fragment

    return Fragment((("pass", False),), ()), ["superlevel containment failed"]


@pytest.mark.parametrize("command", ["verify", "scan"])
def test_exit_two_names_each_violated_suite_with_its_first_id(tmp_path, capsys, monkeypatch, command):
    from doubling import harness

    config = {"groups": ["cyclic:3"], "subset_mode": {"kind": "exhaustive"},
              "suites": ["containment", "layer-cake"]}
    (tmp_path / "scan.json").write_text(json.dumps(config))
    out = tmp_path / "out.json"
    argv = {
        "verify": ["verify", "--group", "cyclic:3", "--suite", "containment,layer-cake"],
        "scan": ["scan", "--config", str(tmp_path / "scan.json")],
    }[command]
    code, _, err = run(capsys, *argv, "--out", str(out))
    assert code == 0 and "violated" not in err
    clean = out.read_text()

    monkeypatch.setitem(harness.SUITES, "containment", _failing_containment)
    code, _, err = run(capsys, *argv, "--out", str(out))
    assert code == 2
    report = json.loads(out.read_text())
    violations = report["aggregate"]["violations"]
    # cyclic:3 has two normal subgroups and seven nonempty subsets
    assert len(violations) == 14
    lines = [line for line in err.splitlines() if line.startswith("violated")]
    assert lines == [f"violated: containment: 14 violation(s); first id: {violations[0]['id']}"]
    # the id replays, and the summary went to stderr only: the artifact differs
    # from the clean one in the failed suite alone
    assert main(["replay", "--id", violations[0]["id"], "--out", "/dev/null"]) == 0
    capsys.readouterr()
    doc = json.loads(clean)
    doc["aggregate"]["violations"] = violations
    doc["aggregate"]["suite_runs"]["containment"]["passes"] = 0
    assert report == doc


def _fail_every_run(monkeypatch, suite):
    """Patch the verdict behind `suite` so that each run of it fails: wrap its
    check, or for extract make `certify` raise."""
    from doubling import harness
    from doubling.errors import ConsistencyError

    if suite == "extract":
        def certify(ctx, alpha):
            raise ConsistencyError("forced failure", {})

        monkeypatch.setattr(harness, "certify", certify)
        return
    name, fail = {
        "layer-cake": ("check_layer_cake", lambda out: (False, *out[1:])),
        "spillover": ("check_spillover", lambda out: (False, *out[1:])),
        "containment": ("check_containment", lambda out: False),
        "ruzsa-axioms": ("ruzsa_axioms", lambda out: {**out, "triangle": False}),
    }.get(suite, ("check_quotient_bound", lambda out: out._replace(passed=False)))
    check = getattr(harness, name)
    monkeypatch.setattr(harness, name, lambda *args: fail(check(*args)))


@pytest.mark.parametrize("suite", doubling.ALL_SUITES)
def test_a_failing_verdict_fails_every_command(tmp_path, capsys, monkeypatch, suite):
    (tmp_path / "scan.json").write_text(json.dumps(
        {"groups": ["cyclic:3"], "subset_mode": {"kind": "exhaustive"}, "suites": [suite]}
    ))
    commands = {
        "verify": ["verify", "--group", "cyclic:3", "--suite", suite],
        "scan": ["scan", "--config", str(tmp_path / "scan.json")],
    }
    out = tmp_path / "out.json"
    with monkeypatch.context() as m:
        _fail_every_run(m, suite)
        for command, argv in commands.items():
            code, _, err = run(capsys, *argv, "--out", str(out))
            assert code == 2, command
            aggregate = json.loads(out.read_text())["aggregate"]
            cell, violations = aggregate["suite_runs"][suite], aggregate["violations"]
            assert cell["passes"] == 0 < cell["runs"], (command, cell)
            assert f"violated: {suite}: {len(violations)} violation(s); first id: " in err
    if suite == "extract":
        # every run fails at each of the three default alphas
        assert cell == {"runs": 14, "passes": 0, "skipped": 0} and len(violations) == 42
    instance_id = violations[0]["id"]
    expected = tmp_path / "expected.json"
    assert main(["replay", "--id", instance_id, "--out", str(expected)]) == 0
    with monkeypatch.context() as m:
        _fail_every_run(m, suite)
        assert main(["replay", "--id", instance_id, "--expect", str(expected)]) == 2
    assert main(["replay", "--id", instance_id, "--expect", str(expected), "--out", "/dev/null"]) == 0
