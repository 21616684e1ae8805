"""Family sweeps: membership, predicted degeneracy loci, records, resume.

The report-bytes tests pin the determinism contract: same family in, same
bytes out, whether computed fresh or resumed from a checkpoint, including
one with torn trailing lines left by an interrupted run.  The CLI streams
the report point by point; its output is held to the same oracle.
"""

from __future__ import annotations

import io
import json
import re
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoslope.arith import field_create
from isoslope.cli import emit_records, main
from isoslope.errors import InvalidC3, MalformedInput, NotPrime, PrimeTooSmall
from isoslope.hyper import HypergeometricDatum, closed_points, point_spec, slopes_at_point
from isoslope.scan import (
    SCHEMA_VERSION,
    _HEAD_FIELDS,
    _RATIONAL,
    _RECORD_ITEM_TYPES,
    _RECORD_TYPES,
    _Checkpoint,
    _head_fields,
    _is_point_record,
    _record_key,
    CounterexampleReport,
    FamilySpec,
    ReportWriter,
    family_members,
    point_record,
    predicted_violation_points,
    rational_str,
    scan_family,
    triple_gap_unique,
    verify_triple_gap_uniqueness,
)

_SCHEMA_PATH = Path(__file__).resolve().parent.parent / "schemas" / "output_record.schema.json"
RECORD_SCHEMA = json.loads(_SCHEMA_PATH.read_text(encoding="utf-8"))


def validate_record(rec):
    jsonschema.validate(rec, RECORD_SCHEMA)


# -- family membership -------------------------------------------------------

def test_quintic_members():
    got = family_members(FamilySpec("quintic", 11, 31))
    assert [(d.p, d.c) for d in got] == [(11, (2, 4, 6, 8)), (31, (6, 12, 18, 24))]
    assert family_members(FamilySpec("quintic", 12, 30)) == []


def test_triplegap_members_skip_the_self_dual_column():
    got = family_members(FamilySpec("triplegap", 7, 7))
    assert [d.c for d in got] == [(1, 1, 5), (1, 2, 5), (1, 4, 5), (1, 5, 5)]
    assert all(d.p == 7 for d in got)
    # c3 = 3 = (p-1)/2 is the excluded middle
    assert (1, 3, 5) not in [d.c for d in got]


def test_explicit_members_respect_the_residue_window():
    got = family_members(FamilySpec("explicit", 5, 11, c=(4, 1)))
    # at p = 5 the entry 4 exceeds p - 2, so only 7 and 11 qualify
    assert [(d.p, d.c) for d in got] == [(7, (1, 4)), (11, (1, 4))]


def test_family_spec_validation():
    assert FamilySpec("explicit", 5, 11, c=(4, 1)).c == (1, 4)
    with pytest.raises(MalformedInput):
        FamilySpec("pentagon", 5, 7)
    with pytest.raises(MalformedInput):
        FamilySpec("quintic", 31, 11)
    with pytest.raises(MalformedInput):
        FamilySpec("quintic", 11, 31, m_max=0)
    with pytest.raises(MalformedInput):
        FamilySpec("explicit", 5, 7)
    with pytest.raises(MalformedInput):
        FamilySpec("triplegap", 5, 7, c=(1, 2))


@pytest.mark.parametrize("spec", [
    FamilySpec("quintic", 11, 31),
    FamilySpec("triplegap", 5, 11),
    FamilySpec("explicit", 7, 11, c=(2, 4), m_max=2),
], ids=["quintic", "triplegap", "explicit-m2"])
def test_scan_records_come_in_record_key_order(spec):
    records = scan_family(spec).records
    keys = [_record_key(r) for r in records]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


# -- predicted violation points ----------------------------------------------

def test_triple_gap_predictions():
    assert predicted_violation_points(HypergeometricDatum(7, (1, 5, 1))) == {3, 2}
    assert predicted_violation_points(HypergeometricDatum(5, (1, 3, 1))) == {2, 4}
    assert predicted_violation_points(HypergeometricDatum(5, (1, 3, 3))) == {4, 2}
    # excluded column, wrong shape, wrong rank: no closed form
    assert predicted_violation_points(HypergeometricDatum(7, (1, 3, 5))) == frozenset()
    assert predicted_violation_points(HypergeometricDatum(7, (2, 3, 4))) == frozenset()
    assert predicted_violation_points(HypergeometricDatum(7, (2, 4))) == frozenset()


def test_quintic_pinned_points():
    assert predicted_violation_points(HypergeometricDatum(31, (6, 12, 18, 24))) == \
        {4, 5, 12, 16, 17, 27}
    assert predicted_violation_points(HypergeometricDatum(11, (2, 4, 6, 8))) == {3}
    # an unpinned quintic member predicts nothing rather than guessing
    assert predicted_violation_points(HypergeometricDatum(41, (8, 16, 24, 32))) == \
        frozenset()


def test_verify_triple_gap_uniqueness():
    assert verify_triple_gap_uniqueness(7, 1)
    assert verify_triple_gap_uniqueness(5, 3)
    with pytest.raises(InvalidC3):
        verify_triple_gap_uniqueness(7, 0)
    with pytest.raises(InvalidC3):
        verify_triple_gap_uniqueness(7, 6)
    with pytest.raises(InvalidC3):
        verify_triple_gap_uniqueness(7, 3)
    with pytest.raises(NotPrime):
        verify_triple_gap_uniqueness(9, 1)
    with pytest.raises(PrimeTooSmall):
        verify_triple_gap_uniqueness(3, 1)


# -- records -----------------------------------------------------------------

def test_rational_str():
    assert rational_str(Fraction(5, 2)) == "5/2"
    assert rational_str(Fraction(4, 2)) == "2"
    assert rational_str(3) == "3"
    assert rational_str(Fraction(-1, 2)) == "-1/2"
    assert rational_str(0) == "0"


def test_point_record_against_schema():
    datum = HypergeometricDatum(7, (1, 5, 1))
    field = field_create(7, 1)
    for x in (2, 3, 4):
        rec = point_record(slopes_at_point(datum, point_spec(field, x)))
        validate_record(rec)
    rec = point_record(slopes_at_point(datum, point_spec(field, 3)))
    assert rec["schema_version"] == "2"
    assert rec["p"] == 7 and rec["c"] == [1, 1, 5]
    assert rec["degree"] == 1 and rec["x"] == 3
    assert rec["slopes"] == ["2", "1/2", "1/2"]
    assert rec["gaps"] == ["3/2", "0"]
    assert rec["max_gap"] == "3/2"
    assert rec["violates"] is True
    assert rec["u_c_zero"] is True and rec["u_cdual_zero"] is False
    assert rec["fast_path"] is False


def test_degree_two_record_against_schema():
    datum = HypergeometricDatum(7, (2, 4))
    for pt in closed_points(field_create(7, 2))[:3]:
        rec = point_record(slopes_at_point(datum, pt))
        validate_record(rec)
        assert rec["degree"] == 2
        assert rec["x"] >= 7  # base-p encoding of a genuinely quadratic point


# -- aggregated scans --------------------------------------------------------

def test_triplegap_scan_p7():
    report = scan_family(FamilySpec("triplegap", 7, 7))
    assert report.datum_count == 4
    assert len(report.records) == 4 * 5
    assert len(report.violations) == 8
    assert all(v["expected"] for v in report.violations)
    for v in report.violations:
        validate_record({k: val for k, val in v.items() if k != "expected"})
        datum = HypergeometricDatum(v["p"], tuple(v["c"]))
        assert v["x"] in predicted_violation_points(datum)
    payload = report.payload()
    assert payload["summary"] == {"datums": 4, "points": 20, "violations": 8}
    assert payload["family"] == {"kind": "triplegap", "p_min": 7, "p_max": 7,
                                 "m_max": 1}
    assert "c" not in payload["family"]


def test_scan_bytes_exclude_run_metadata():
    spec = FamilySpec("triplegap", 5, 5)
    first = scan_family(spec)
    again = scan_family(spec)
    raw = first.to_bytes()
    assert raw == again.to_bytes()
    assert first.elapsed_s >= 0
    assert b"elapsed" not in raw and b"workers" not in raw
    assert len(first.violations) == 4


def test_explicit_scan_includes_degree_two_points():
    spec = FamilySpec("explicit", 7, 7, c=(2, 4), m_max=2)
    report = scan_family(spec)
    assert {r["degree"] for r in report.records} == {1, 2}
    assert len(report.records) == 5 + 21
    assert report.payload()["family"]["c"] == [2, 4]
    for rec in report.records:
        validate_record(rec)


def test_unpredicted_violations_are_flagged_as_discoveries(monkeypatch):
    monkeypatch.setattr("isoslope.scan.predicted_violation_points",
                        lambda datum: frozenset())
    report = scan_family(FamilySpec("triplegap", 5, 5))
    assert len(report.violations) == 4
    assert all(v["expected"] is False for v in report.violations)


def test_checkpoint_resume_serves_cached_records(tmp_path, monkeypatch):
    spec = FamilySpec("triplegap", 5, 5)
    path = str(tmp_path / "scan.ndjson")
    first = scan_family(spec, checkpoint=path)
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines() if ln]
    assert len(lines) == len(first.records)
    for ln in lines:
        validate_record(json.loads(ln))

    def boom(*a, **k):
        raise AssertionError("resume must not recompute finished points")

    monkeypatch.setattr("isoslope.scan.slopes_at_point", boom)
    second = scan_family(spec, checkpoint=path)
    assert second.to_bytes() == first.to_bytes()


def test_checkpoint_tolerates_torn_and_blank_lines(tmp_path, monkeypatch):
    spec = FamilySpec("triplegap", 5, 5)
    path = tmp_path / "scan.ndjson"
    first = scan_family(spec, checkpoint=str(path))
    *kept, dropped = path.read_text(encoding="utf-8").splitlines()
    torn = '{"p": 5, "c": [1, 3, 1], "degree": 1, "x_dl'  # interrupted write
    path.write_text("\n".join(kept) + "\n\n\n" + torn, encoding="utf-8")
    computed = []
    real = slopes_at_point

    def counting(*a, **k):
        computed.append(a)
        return real(*a, **k)

    monkeypatch.setattr("isoslope.scan.slopes_at_point", counting)
    again = scan_family(spec, checkpoint=str(path))
    assert again.to_bytes() == first.to_bytes()
    assert len(computed) == 1
    lines = path.read_text(encoding="utf-8").splitlines()
    for ln in lines:
        if ln and ln != torn:
            json.loads(ln)
    # the recomputed record follows the torn line instead of extending it
    assert lines[-2:] == [torn, dropped]


def test_partial_checkpoint_computes_only_the_gap(tmp_path):
    spec = FamilySpec("triplegap", 5, 5)
    path = str(tmp_path / "scan.ndjson")
    full = scan_family(spec, checkpoint=path)
    kept = Path(path).read_text(encoding="utf-8").splitlines()[:-3]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(kept) + "\n")
    resumed = scan_family(spec, checkpoint=path)
    assert resumed.to_bytes() == full.to_bytes()
    # the finished file holds the three recomputed records appended at the end
    tail = [json.loads(ln) for ln in
            Path(path).read_text(encoding="utf-8").splitlines()[len(kept):]]
    assert len(tail) == 3


def test_report_bytes_are_canonical_json():
    report = scan_family(FamilySpec("explicit", 7, 7, c=(1, 4)))
    raw = report.to_bytes()
    assert raw.endswith(b"\n")
    parsed = json.loads(raw)
    assert raw == (json.dumps(parsed, sort_keys=True, indent=2) + "\n").encode()
    assert parsed["schema_version"] == "2"


def test_checkpoint_from_a_wider_run_does_not_leak_into_the_report(tmp_path):
    path = str(tmp_path / "scan.ndjson")
    scan_family(FamilySpec("triplegap", 5, 7), checkpoint=path)
    narrow = scan_family(FamilySpec("triplegap", 5, 5), checkpoint=path)
    assert narrow.to_bytes() == scan_family(FamilySpec("triplegap", 5, 5)).to_bytes()


@pytest.mark.parametrize("line", ['{"p": 5}', "[1]"], ids=["keyless-object", "array"])
def test_checkpoint_line_that_is_not_a_point_record_is_refused(tmp_path, line):
    spec = FamilySpec("triplegap", 5, 5)
    path = tmp_path / "scan.ndjson"
    scan_family(spec, checkpoint=str(path))
    kept = path.read_text(encoding="utf-8").splitlines()
    body = "\n".join(kept[:2] + [line] + kept[2:]) + "\n"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(MalformedInput, match=re.escape(f"{path}:3:")):
        scan_family(spec, checkpoint=str(path))
    assert path.read_text(encoding="utf-8") == body


# -- structural check of checkpoint records ------------------------------------

def _json_types(prop: dict) -> set:
    """Python types of the JSON values a schema property accepts."""
    if "$ref" in prop:
        prop = RECORD_SCHEMA["definitions"][prop["$ref"].rsplit("/", 1)[1]]
    if "const" in prop:
        return {type(prop["const"])}
    if "enum" in prop:
        return {type(v) for v in prop["enum"]}
    names = prop["type"] if isinstance(prop["type"], list) else [prop["type"]]
    return {{"string": str, "integer": int, "boolean": bool, "array": list,
             "null": type(None)}[name] for name in names}


def test_record_check_follows_the_schema():
    props = RECORD_SCHEMA["properties"]
    # records are written and accepted at the schema's one version
    assert SCHEMA_VERSION == props["schema_version"]["const"]
    assert list(_RECORD_TYPES) == RECORD_SCHEMA["required"]
    for key, types in _RECORD_TYPES.items():
        assert set(types) == _json_types(props[key]), key
        if list in types:
            assert {_RECORD_ITEM_TYPES[key]} == _json_types(props[key]["items"]), key
        else:
            assert key not in _RECORD_ITEM_TYPES
    assert set(_RECORD_ITEM_TYPES) <= set(_RECORD_TYPES)
    # the rational strings are matched against the schema's own pattern,
    # in the fields that refer to it
    rational = RECORD_SCHEMA["definitions"]["rational"]
    assert _RATIONAL.pattern == rational["pattern"]
    ref = {"$ref": "#/definitions/rational"}
    assert {key for key, prop in props.items()
            if ref in (prop, prop.get("items"))} == {"slopes", "gaps", "max_gap"}


def test_scan_records_pass_the_check_and_the_schema():
    records = scan_family(FamilySpec("quintic", 11, 31)).records
    assert len(records) == 9 + 29  # x = 0 and 1 are not points
    for rec in records:
        assert _is_point_record(rec)
        validate_record(rec)


def _drop(key):
    def edit(rec):
        del rec[key]
    return edit


def _set(key, value):
    def edit(rec):
        rec[key] = value
    return edit


_BAD_RECORD_EDITS = {
    "missing-violates": _drop("violates"),
    "missing-x-dlog": _drop("x_dlog"),
    "extra-field": _set("timing_ms", 3),
    "expected-field": _set("expected", True),
    "int-for-bool": _set("violates", 0),
    "bool-for-int": _set("degree", True),
    "float-for-int": _set("p", 5.0),
    "string-for-int": _set("x", "2"),
    "object-for-string": _set("max_gap", {"num": 1}),
    "list-for-string": _set("max_gap", ["1"]),
    "null-for-bool": _set("fast_path", None),
    "bool-for-null": _set("precision_used", False),
    "int-slope": _set("slopes", [2, 1, 0]),
    "float-in-c": _set("c", [1, 3.0, 1]),
    "bool-in-c": _set("c", [True, 3, 1]),
    "nested-gap": _set("gaps", [["1"], "1"]),
    "word-in-gaps": _set("gaps", ["x", "1"]),
    "decimal-slope": _set("slopes", ["2", "1.5", "0"]),
    "zero-denominator": _set("max_gap", "1/0"),
    "empty-max-gap": _set("max_gap", ""),
    "spaced-slope": _set("slopes", [" 2", "1", "0"]),
    "newline-after-gap": _set("gaps", ["1\n", "1"]),
    "plus-sign": _set("max_gap", "+1"),
    "schema-version-1": _set("schema_version", "1"),
}


@pytest.mark.parametrize("edit", _BAD_RECORD_EDITS.values(), ids=_BAD_RECORD_EDITS.keys())
def test_checkpoint_line_with_bad_fields_is_refused(tmp_path, edit):
    spec = FamilySpec("triplegap", 5, 5)
    path = tmp_path / "scan.ndjson"
    scan_family(spec, checkpoint=str(path))
    first, *rest = path.read_text(encoding="utf-8").splitlines()
    rec = json.loads(first)
    assert _is_point_record(rec)
    edit(rec)
    assert not _is_point_record(rec)
    body = "\n".join([json.dumps(rec, sort_keys=True)] + rest) + "\n"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(MalformedInput, match=re.escape(f"{path}:1:")):
        scan_family(spec, checkpoint=str(path))
    assert path.read_text(encoding="utf-8") == body


# -- the report renderer against json.dumps ------------------------------------

def _oracle_bytes(report) -> bytes:
    return (json.dumps(report.payload(), sort_keys=True, indent=2) + "\n").encode()


_TRICKY_TEXT = st.text(st.sampled_from('a1/"\\\n\t\x00\x1f\x7f\u00e9\u20ac\U0001f600 '),
                       max_size=6)
_SCALARS = (st.none() | st.booleans() | st.sampled_from([0, 1, -1])
            | st.integers(min_value=-10 ** 30, max_value=10 ** 30)
            | _TRICKY_TEXT | st.text(max_size=6))
_FLAT_RECORDS = st.lists(
    st.dictionaries(_TRICKY_TEXT | st.text(max_size=6),
                    _SCALARS | st.lists(_SCALARS, max_size=4)
                    | st.lists(st.sampled_from([True, 1, False, 0]), max_size=3),
                    max_size=6),
    max_size=5)
_SPECS = st.sampled_from([FamilySpec("triplegap", 5, 7),
                          FamilySpec("explicit", 5, 11, c=(2, 3), m_max=2)])


@settings(max_examples=300, deadline=None)
@given(spec=_SPECS, records=_FLAT_RECORDS, violations=_FLAT_RECORDS,
       datums=st.integers(min_value=0, max_value=10 ** 20))
def test_rendered_report_equals_json_dumps(spec, records, violations, datums):
    report = CounterexampleReport(spec, tuple(records), tuple(violations), datums,
                                  0.0, ())
    assert report.to_bytes() == _oracle_bytes(report)


def test_rendered_lists_keep_bools_apart_from_ints():
    records = [{"a": [1, 0]}, {"a": [True, False]}, {"a": [1, False]},
               {"a": [True, 0]}, {"a": [1, 0]}, {"b": True, "a": 1}, {"b": 1, "a": True}]
    report = CounterexampleReport(FamilySpec("triplegap", 5, 5), tuple(records),
                                  tuple(records[::-1]), 1, 0.0, ())
    raw = report.to_bytes()
    assert raw == _oracle_bytes(report)
    assert [r["a"] for r in json.loads(raw)["records"][:5]] == \
        [[1, 0], [True, False], [1, False], [True, 0], [1, 0]]


@pytest.mark.parametrize("value", [0.5, {"k": 1}, [[1]], [{"k": 1}], (1, 2)],
                         ids=["float", "object", "nested-list", "object-in-list", "tuple"])
def test_renderer_refuses_values_a_point_record_never_holds(value):
    report = CounterexampleReport(FamilySpec("triplegap", 5, 5), ({"a": value},), (),
                                  1, 0.0, ())
    with pytest.raises(TypeError):
        report.to_bytes()


@pytest.mark.parametrize("spec", [
    FamilySpec("quintic", 11, 31),
    FamilySpec("triplegap", 5, 13),
    FamilySpec("explicit", 7, 7, c=(2, 3), m_max=3),
], ids=["quintic", "triplegap", "explicit-m3"])
def test_real_reports_equal_json_dumps(spec):
    # the explicit family has no violations: an empty list at the top level
    report = scan_family(spec)
    assert report.records and bool(report.violations) == (spec.kind != "explicit")
    assert report.to_bytes() == _oracle_bytes(report)


# -- the streamed report -------------------------------------------------------

def _cli_stdout(capsys, *argv) -> str:
    assert main(["scan", *argv]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("spec, argv", [
    (FamilySpec("triplegap", 5, 13), ["--family", "triplegap", "--p-range", "5..13"]),
    (FamilySpec("explicit", 7, 7, c=(2, 3), m_max=3),
     ["--family", "explicit", "--c", "2,3", "--p-range", "7..7", "--m-max", "3"]),
    (FamilySpec("quintic", 12, 30), ["--family", "quintic", "--p-range", "12..30"]),
], ids=["triplegap", "no-violations", "empty-family"])
def test_streamed_report_equals_json_dumps(capsys, tmp_path, monkeypatch, spec, argv):
    want = _oracle_bytes(scan_family(spec)).decode()
    ckpt = str(tmp_path / "scan.ndjson")
    fresh = _cli_stdout(capsys, *argv, "--checkpoint", ckpt)
    resumed = _cli_stdout(capsys, *argv, "--checkpoint", ckpt)
    assert fresh == want and resumed == want


@pytest.mark.parametrize("fmt", ["csv", "tsv"])
def test_streamed_rows_equal_emit_records(capsys, fmt):
    want = io.StringIO()
    emit_records(list(scan_family(FamilySpec("triplegap", 5, 7)).records), fmt, want)
    got = _cli_stdout(capsys, "--family", "triplegap", "--p-range", "5..7",
                      "--format", fmt)
    assert got == want.getvalue()


@pytest.mark.parametrize("target", ["stdout", "out"])
@pytest.mark.parametrize("fmt", ["json", "csv", "tsv"])
def test_scan_failing_after_some_points_writes_nothing(capsys, tmp_path, monkeypatch,
                                                       fmt, target):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    computed = []

    def fail_after_three(datum, point):
        if len(computed) == 3:
            raise MalformedInput("refused after 3 points")
        computed.append(point)
        return slopes_at_point(datum, point)

    monkeypatch.setattr("isoslope.scan.slopes_at_point", fail_after_three)
    argv = ["scan", "--family", "triplegap", "--p-range", "5..7", "--format", fmt]
    if target == "out":
        argv += ["--out", str(tmp_path / "report")]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 64 and len(computed) == 3
    assert out == "" and err == "usage error: refused after 3 points\n"
    assert list(tmp_path.iterdir()) == []


def test_scan_refused_after_its_degree_one_points_prints_only_the_error(capsys,
                                                                         monkeypatch):
    # GF(7^2) has 49 elements: the degree-1 points are written, then the
    # degree-2 field is refused
    monkeypatch.setenv("ISOSLOPE_TABLE_LIMIT", "48")
    computed = []

    def counting(datum, point):
        computed.append(point)
        return slopes_at_point(datum, point)

    monkeypatch.setattr("isoslope.scan.slopes_at_point", counting)
    code = main(["scan", "--family", "explicit", "--c", "2,3", "--p-range", "7..7",
                 "--m-max", "2"])
    out = capsys.readouterr().out
    assert code == 2 and len(computed) == 5
    (line,) = out.splitlines(keepends=True)
    assert json.loads(line)["error"]["type"] == "DegreeTooLarge"


def test_writer_puts_each_record_on_its_stream_at_once():
    spec = FamilySpec("triplegap", 5, 7)
    buf = io.StringIO()
    writer = ReportWriter(spec, buf)
    assert buf.getvalue().endswith('"records": ')
    for i, rec in enumerate(scan_family(spec).records):
        before = len(buf.getvalue())
        writer.write(rec)
        text = buf.getvalue()[before:]
        assert text[0] == ("," if i else "[") and json.loads(text[1:]) == rec


def test_a_streamed_scans_report_refuses_to_render():
    spec = FamilySpec("triplegap", 5, 7)
    kept = scan_family(spec)
    buf = io.StringIO()
    streamed = scan_family(spec, writer=ReportWriter(spec, buf))
    assert streamed.records is None and streamed.violations == kept.violations
    assert buf.getvalue().encode() == kept.to_bytes()
    for render in (streamed.payload, streamed.to_bytes):
        with pytest.raises(ValueError, match="records to its writer"):
            render()


def test_triple_gap_verdict_reads_only_the_datums_degree_one_violations(monkeypatch):
    calls = []

    def spy(p, c3, records):
        calls.append((p, c3, list(records)))
        return triple_gap_unique(p, c3, records)

    monkeypatch.setattr("isoslope.scan.triple_gap_unique", spy)
    spec = FamilySpec("triplegap", 5, 7, m_max=2)
    report = scan_family(spec)
    assert not report.triple_gap_failures
    assert [(p, sorted((1, p - 2, c3))) for p, c3, _ in calls] == \
        [(d.p, list(d.c)) for d in family_members(spec)]
    for p, c3, got in calls:
        want = [v for v in report.violations if v["degree"] == 1 and v["p"] == p
                and v["c"] == sorted((1, p - 2, c3))]
        assert got == want and len(want) == 2


# -- records written as a shared head plus the point ---------------------------

_HEAD_SPECS = [
    (FamilySpec("triplegap", 5, 13), ["--family", "triplegap", "--p-range", "5..13"]),
    (FamilySpec("explicit", 7, 7, c=(2, 3), m_max=3),
     ["--family", "explicit", "--c", "2,3", "--p-range", "7..7", "--m-max", "3"]),
    (FamilySpec("quintic", 11, 31), ["--family", "quintic", "--p-range", "11..31"]),
]
_HEAD_IDS = ["triplegap", "explicit-m3", "quintic"]


def test_head_fields_are_the_record_fields_before_the_point():
    assert _HEAD_FIELDS == tuple(k for k in _RECORD_TYPES if k not in ("x", "x_dlog"))
    assert len(_HEAD_FIELDS) == 13
    assert _head_fields(("b", "x", "a", "x_dlog")) == ("b", "a")
    # a head key sorting after x would land between the head's text and
    # the point's
    for keys in ((*_RECORD_TYPES, "y"), ("x_dlog", "x", "xa"), ("a", "x")):
        with pytest.raises(ValueError, match="must sort last"):
            _head_fields(keys)


@pytest.mark.parametrize("spec, argv", _HEAD_SPECS, ids=_HEAD_IDS)
def test_checkpoint_lines_written_through_heads_equal_json_dumps(tmp_path, spec, argv):
    path = tmp_path / "scan.ndjson"
    report = scan_family(spec, checkpoint=str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(report.records)
    slow = 0
    for line in lines:
        rec = json.loads(line)
        datum = HypergeometricDatum(rec["p"], tuple(rec["c"]))
        pt = point_spec(field_create(rec["p"], rec["degree"]), rec["x"])
        fresh = point_record(slopes_at_point(datum, pt))
        assert line == json.dumps(fresh, sort_keys=True)
        slow += rec["strategy"] is not None and rec["precision_used"] is not None
    # each scan has degenerate points, off the fast path, with heads of
    # their own
    assert slow


@pytest.mark.parametrize("spec, argv", _HEAD_SPECS, ids=_HEAD_IDS)
def test_resume_from_every_other_line_equals_a_fresh_scan(capsys, tmp_path, spec, argv):
    # served and computed points of one datum then share heads
    ckpt = tmp_path / "scan.ndjson"
    fresh = _cli_stdout(capsys, *argv, "--checkpoint", str(ckpt))
    lines = ckpt.read_text(encoding="utf-8").splitlines(keepends=True)
    ckpt.write_text("".join(lines[::2]), encoding="utf-8")
    resumed = _cli_stdout(capsys, *argv, "--checkpoint", str(ckpt))
    assert resumed == fresh == _oracle_bytes(scan_family(spec)).decode()
    again = ckpt.read_text(encoding="utf-8").splitlines(keepends=True)
    assert len(again) == len(lines) and set(again) == set(lines)


def test_each_head_is_rendered_once(capsys, monkeypatch):
    argv = ["--family", "explicit", "--c", "2,3", "--p-range", "7..7", "--m-max", "5"]
    records = scan_family(FamilySpec("explicit", 7, 7, c=(2, 3), m_max=5)).records
    heads = {json.dumps({k: r[k] for k in _HEAD_FIELDS}) for r in records}
    assert (len(records), len(heads)) == (4086, 6)
    rendered = []
    real = ReportWriter._render

    def counting(self, rec):
        rendered.append(rec)
        return real(self, rec)

    monkeypatch.setattr(ReportWriter, "_render", counting)
    out = _cli_stdout(capsys, *argv)
    assert json.loads(out)["records"] == list(records)
    assert len(rendered) == len(heads)


def test_checkpoint_load_keeps_heads_not_records(tmp_path):
    path = tmp_path / "scan.ndjson"
    scan_family(FamilySpec("triplegap", 5, 43), checkpoint=str(path))
    lines = path.read_text(encoding="utf-8").count("\n")
    assert lines == 6936
    tracemalloc.start()
    try:
        store = _Checkpoint(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    store.close()
    # served lines keep (head, x, line number), sharing 720 heads; a dict
    # per line took about 1600 bytes a line
    assert len(store._served) == lines
    assert len({id(head) for head, _, _ in store._served.values()}) == 720
    assert peak < 600 * lines
