"""The result records' constructor fields, equality, hashing and
immutability, and ScanConfig's fields and validation order."""

import inspect
from fractions import Fraction

import pytest

from doubling import (
    DoublingStats,
    ExtractionCertificate,
    FiberProfile,
    LevelFamily,
    MatrixFamily,
    QuotientStructure,
    RuzsaSq,
    ScanConfig,
    SharpnessInstance,
    SpecError,
    SpilloverResult,
    build_sharpness_instance,
    doubling_stats,
    extract_subset,
    fiber_profile,
    level_family,
    matrix_family,
    quotient,
    quotient_doubling_check,
    ruzsa_sq,
    spillover_check,
    subset,
)
from doubling.groups import CyclicGroup
from doubling.metrics import QuotientDoublingCheck

# each record's constructor fields, in order
FIELDS = {
    MatrixFamily: ("N", "members"),
    SharpnessInstance: ("N", "h", "m", "r", "family", "cantor", "blocks", "mu_A", "mu_A2",
                        "mu_piA", "mu_piA2", "stats", "quotient_doubling"),
    ExtractionCertificate: ("alpha_num", "alpha_den", "size", "square", "chosen_n", "b_size",
                            "level_size", "level_square", "admissible_n", "weight_num",
                            "weight_den", "B"),
    FiberProfile: ("quotient", "source", "fibers"),
    LevelFamily: ("thresholds", "levels"),
    SpilloverResult: ("lhs_left", "lhs_right", "rhs_left", "rhs_right"),
    DoublingStats: ("size", "square", "inv_square", "symmetric"),
    RuzsaSq: ("value",),
    QuotientDoublingCheck: ("variant", "pi_size", "pi_square", "bound_num", "bound_den",
                            "weight_num", "weight_den", "passed"),
}


def _records() -> list:
    z12 = CyclicGroup(12)
    q = quotient(z12, {0, 4, 8})
    a = subset(z12, {0, 1, 2, 6, 11})
    profile = fiber_profile(a, q)
    return [
        matrix_family(2),
        build_sharpness_instance(1, 2, 9),
        extract_subset(a, q, Fraction(2)),
        profile,
        level_family(profile),
        spillover_check(a, a, q),
        doubling_stats(a),
        ruzsa_sq(a, a),
        quotient_doubling_check(a, q, "cube"),
    ]


RECORDS = _records()
# fields that hold a dict, so the record has no hash
UNHASHABLE = {SharpnessInstance, FiberProfile}


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_rebuilds_equal_from_its_fields(record):
    cls, names = type(record), FIELDS[type(record)]
    assert tuple(inspect.signature(cls).parameters) == names
    values = {n: getattr(record, n) for n in names}
    assert cls(**values) == record
    assert cls(*values.values()) == record
    assert not cls(**values) != record
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(cls(**values)) == hash(record)
        assert {record: 1}[cls(**values)] == 1


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_differs_when_a_field_differs(record):
    cls, names = type(record), FIELDS[type(record)]
    values = {n: getattr(record, n) for n in names}
    for name in names:
        assert cls(**{**values, name: object()}) != record


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_is_immutable(record):
    for name in FIELDS[type(record)]:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        assert getattr(record, name) is before
    with pytest.raises(AttributeError):
        record.extra = 1


def test_traced_methods_stay_patchable_on_their_classes(monkeypatch):
    # perfbench/tracer.py replaces these on the class after import
    calls = []

    def wrap(original):
        def traced(*args, **kwargs):
            calls.append(original.__name__)
            return original(*args, **kwargs)
        return traced

    monkeypatch.setattr(SharpnessInstance, "to_json", wrap(SharpnessInstance.to_json))
    monkeypatch.setattr(QuotientStructure, "image", wrap(QuotientStructure.image))
    inst = build_sharpness_instance(1, 2, 9)
    inst.to_json()
    z12 = CyclicGroup(12)
    quotient(z12, {0, 6}).image(subset(z12, {1}))
    assert calls == ["to_json", "image"]


# -- ScanConfig -------------------------------------------------------------------

CONFIG = {"groups": ["cyclic:4"], "subset_mode": {"kind": "random", "count": 2, "seed": 1}}


def test_scan_config_fields_are_its_constructor_parameters():
    assert tuple(inspect.signature(ScanConfig).parameters) == ScanConfig.FIELDS
    resolved = ScanConfig.from_json(CONFIG).resolved()
    assert tuple(resolved) == ScanConfig.FIELDS


def test_scan_config_normalizes_and_stays_settable():
    config = ScanConfig(**CONFIG, suites=["extract", "layer-cake"], alphas=["3/2"])
    assert config.suites == ("layer-cake", "extract") and config.alphas == (Fraction(3, 2),)
    # the CLI sets this after parsing
    config.emit_instances = True
    assert config.emit_instances is True


def test_scan_config_reports_the_first_bad_field_in_a_fixed_order():
    good = {"groups": ["cyclic:4"], "suites": ["extract"], "subgroups": "proper",
            "subgroup_weight": "normalized", "alphas": ["2"],
            "subset_mode": {"kind": "exhaustive"}, "emit_instances": True}
    bad = {"groups": "cyclic:4", "suites": ["nope"], "subgroups": "some",
           "subgroup_weight": "heavy", "alphas": ["1"], "subset_mode": [],
           "emit_instances": 1}
    paths = ["/groups", "/suites/0", "/subgroups", "/subgroup_weight", "/alphas/0",
             "/subset_mode", "/emit_instances"]
    doc = dict(bad)
    for key, path in zip(bad, paths):
        with pytest.raises(SpecError) as err:
            ScanConfig.from_json(doc)
        assert err.value.path == path
        doc[key] = good[key]
    assert ScanConfig.from_json(doc).emit_instances is True
