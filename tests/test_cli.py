import json

import pytest

from doubling.cli import main


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
        "--group", "cyclic:2",  # ignored once the reference is seen
        "--subgroup", '{"elements": [0]}',
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


def test_replay_accepts_the_base_id_and_empty_suites(capsys):
    assert run(capsys, "replay", "--id", json.dumps(REPLAY_BASE))[0] == 0
    code, out, _ = run(capsys, "replay", "--id", json.dumps(dict(REPLAY_BASE, suites=[])))
    assert code == 0
    assert json.loads(out)["suites"] == {}


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
    ],
)
def test_replay_rejects_malformed_ids_with_a_path(capsys, change, path):
    code, out, err = run(capsys, "replay", "--id", json.dumps(dict(REPLAY_BASE, **change)))
    assert code == 1
    assert out == ""
    assert f"error: {path}:" in err
    assert "Traceback" not in err


SCAN_BASE = {"groups": ["cyclic:4"], "subset_mode": {"kind": "random", "count": 1, "seed": 0}}
EXHAUSTIVE = {"kind": "exhaustive", "max_size": 2}


@pytest.mark.parametrize(
    "change, path",
    [
        ({"subset_mode": 5}, "/subset_mode"),
        ({"parallelism": "2"}, "/parallelism"),
        ({"parallelism": True}, "/parallelism"),
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
