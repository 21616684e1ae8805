"""CLI exit codes, JSON error payloads, and format parity.

Everything drives main(argv) in-process and reads capsys, except two checks
in a fresh interpreter that the CLI runs without numpy and without any test
dependency.
Exit code contract: 0 success, 2 well-posed but refused (structured JSON on
stdout), 64 malformed usage (message on stderr).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

import isoslope
from isoslope.cli import main
from isoslope.errors import MalformedInput
from isoslope.hyper import HypergeometricDatum, auto_precision, slopes_at_point, start_precision

_SCHEMA_PATH = Path(__file__).resolve().parent.parent / "schemas" / "output_record.schema.json"
RECORD_SCHEMA = json.loads(_SCHEMA_PATH.read_text(encoding="utf-8"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.splitlines() if line]


# -- slopes ------------------------------------------------------------------

def test_slopes_single_point(capsys):
    code, out, err = run(capsys, "slopes", "--p", "7", "--c", "1,5,1", "--x", "3")
    assert code == 0
    (rec,) = json_lines(out)
    jsonschema.validate(rec, RECORD_SCHEMA)
    assert rec["slopes"] == ["2", "1/2", "1/2"]
    assert rec["x_requested"] == "3"
    assert isinstance(rec["timing_ms"], int)


def test_slopes_whole_line(capsys):
    code, out, _ = run(capsys, "slopes", "--p", "7", "--c", "1,5,1")
    assert code == 0
    recs = json_lines(out)
    assert [r["x"] for r in recs] == [3, 2, 6, 4, 5]
    assert sum(1 for r in recs if r["violates"]) == 2
    assert all("x_requested" not in r for r in recs)


def test_slopes_degree_two_coefficient_point(capsys):
    code, out, _ = run(capsys, "slopes", "--p", "7", "--c", "2,4",
                       "--m", "2", "--x", "3,1")
    assert code == 0
    (rec,) = json_lines(out)
    assert rec["degree"] == 2
    assert rec["x_requested"] == "3,1"


def test_slopes_wrong_coefficient_count(capsys):
    code, _, err = run(capsys, "slopes", "--p", "7", "--c", "2,4",
                       "--m", "2", "--x", "3,1,1")
    assert code == 64
    assert "usage error" in err


def test_slopes_composite_p(capsys):
    code, _, err = run(capsys, "slopes", "--p", "4", "--c", "1")
    assert code == 64
    assert "usage error" in err


def test_slopes_bad_precision(capsys):
    code, _, err = run(capsys, "slopes", "--p", "7", "--c", "1,5,1",
                       "--precision", "abc")
    assert code == 64
    assert "precision" in err


def test_slopes_strategy_refusal_is_structured(capsys):
    code, out, _ = run(capsys, "slopes", "--p", "7", "--c", "1,5,2",
                       "--strategy", "selfdual", "--x", "3")
    assert code == 2
    payload = json.loads(out)
    assert payload["schema_version"] == "1"
    assert payload["error"]["type"] == "StrategyUnavailable"


def test_slopes_precision_refusal_names_the_retry(capsys):
    code, out, _ = run(capsys, "slopes", "--p", "31", "--c", "6,12,18,24",
                       "--x", "4", "--precision", "1")
    assert code == 2
    payload = json.loads(out)
    assert payload["error"]["type"] == "PrecisionInsufficient"
    # at precision 1 every interior coefficient is censored at_least(1), so
    # the exact hull is the chord (0,0)-(4,6) and index 1 fails first at 3/2
    assert payload["error"]["index"] == 1
    assert payload["error"]["suggested_precision"] == 4


@pytest.mark.parametrize("c", ["1,3,5", "1,1,5"], ids=["fast-path-only", "degenerate"])
@pytest.mark.parametrize("precision", ["0", "-3"])
def test_slopes_precision_below_one_is_a_usage_error(capsys, c, precision):
    # every degree-1 point of (1, 3, 5) at p = 7 takes the fast path, which
    # used to answer without looking at the precision
    code, out, err = run(capsys, "slopes", "--p", "7", "--c", c, "--precision", precision)
    assert code == 64
    assert out == "" and "precision must be >= 1" in err


# Points that refuse at the starting precision, found in a random sweep of
# p <= 13, n <= 5: (p, c, degree, x, strategy, the precision that certifies)
_REFUSALS_AT_START = [
    (11, (3, 7, 8, 9), 1, 6, "full", 7),
    (11, (3, 7, 8, 9), 1, 6, "det", 7),
    (11, (3, 7, 8, 9), 1, 6, "dualpair", 5),
    (11, (4, 5, 6), 2, 65, "det", 6),
    (11, (4, 5, 6), 2, 65, "selfdual", 6),
    (11, (4, 5, 6), 2, 65, "dualpair", 6),
    (11, (1, 1, 4, 4, 6), 1, 4, "dualpair", 7),
]


@pytest.mark.parametrize("p, c, m, x, strategy, used", _REFUSALS_AT_START)
def test_slopes_escalates_where_the_start_refuses(capsys, p, c, m, x, strategy, used):
    start = start_precision(len(c), m, strategy)
    ceiling = auto_precision(HypergeometricDatum(p, c), m, strategy)
    assert start < used <= ceiling
    argv = ["slopes", "--p", str(p), "--c", ",".join(map(str, c)), "--m", str(m),
            "--x", ",".join(str(x // p ** i % p) for i in range(m)),
            "--strategy", strategy]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    (rec,) = json_lines(out)
    jsonschema.validate(rec, RECORD_SCHEMA)
    assert rec["precision_used"] == used
    code, out, _ = run(capsys, *argv, "--precision", str(ceiling))
    assert code == 0
    (at_ceiling,) = json_lines(out)
    assert at_ceiling["slopes"] == rec["slopes"]
    assert at_ceiling["precision_used"] == ceiling
    # an explicit precision is tried once, never escalated
    code, out, _ = run(capsys, *argv, "--precision", str(start))
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "PrecisionInsufficient"
    assert error["suggested_precision"] == used


def test_table_limit_env(capsys, monkeypatch):
    monkeypatch.setenv("ISOSLOPE_TABLE_LIMIT", "100")
    code, out, _ = run(capsys, "slopes", "--p", "11", "--c", "1,2",
                       "--m", "2", "--x", "1,1")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "DegreeTooLarge"


def test_a_frobenius_power_over_the_limit_still_exits_2(capsys, monkeypatch):
    # 13^2 <= 200 < 13^3: traces j = 1, 2 at precision 1 fit the limit
    # (the Jacobi-sum engine needs a Gamma_p table of 13 entries), but the
    # j = 3 trace of the full strategy needs orbit tables of Z/(13^3 - 1),
    # which are refused
    monkeypatch.setenv("ISOSLOPE_TABLE_LIMIT", "200")
    code, out, _ = run(capsys, "slopes", "--p", "13", "--c", "1,5,7,11",
                       "--strategy", "full", "--precision", "1", "--x", "2")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "DegreeTooLarge"


def test_cli_does_not_load_numpy():
    # numpy serves only the reference oracle, a test dependency
    code = ("import sys\n"
            "from isoslope.cli import main\n"
            "rc = main(['slopes', '--p', '7', '--c', '1,3,5', '--strategy', 'full'])\n"
            "assert rc == 0, rc\n"
            "assert 'numpy' not in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=str(Path(isoslope.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("\n") == 5  # one record per degree-1 point


def test_cli_runs_without_the_test_dependencies():
    # the package promises the standard library only: a scan must run with
    # every test dependency unimportable.  And the CLI's import loads every
    # module the package ships, so no test-only module ships with it.
    code = ("import sys\n"
            "from pathlib import Path\n"
            "for name in ('numpy', 'hypothesis', 'jsonschema'):\n"
            "    sys.modules[name] = None\n"
            "from isoslope.cli import main\n"
            "package = Path(sys.modules['isoslope'].__file__).parent\n"
            "shipped = {'isoslope.' + f.stem for f in package.glob('*.py')\n"
            "           if f.stem != '__init__'}\n"
            "loaded = {name for name in sys.modules if name.startswith('isoslope.')}\n"
            "assert shipped == loaded, sorted(shipped ^ loaded)\n"
            "rc = main(['scan', '--family', 'quintic', '--p-range', '11..11',\n"
            "           '--m-max', '2'])\n"
            "assert rc == 0, rc\n")
    env = dict(os.environ, PYTHONPATH=str(Path(isoslope.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["summary"]["points"] > 0


def test_missing_required_argument(capsys):
    code, _, err = run(capsys, "slopes", "--p", "7")
    assert code == 64
    assert "usage error" in err


def test_unknown_command(capsys):
    assert run(capsys, "frobnicate")[0] == 64
    assert run(capsys)[0] == 64


# -- output formats ----------------------------------------------------------

def test_format_parity(capsys):
    _, out_json, _ = run(capsys, "slopes", "--p", "7", "--c", "1,5,1")
    _, out_csv, _ = run(capsys, "slopes", "--p", "7", "--c", "1,5,1",
                        "--format", "csv")
    _, out_tsv, _ = run(capsys, "slopes", "--p", "7", "--c", "1,5,1",
                        "--format", "tsv")
    recs = json_lines(out_json)

    csv_lines = out_csv.splitlines()
    tsv_lines = out_tsv.splitlines()
    assert len(csv_lines) == len(recs) + 1 == len(tsv_lines)
    assert tsv_lines[0] == csv_lines[0].replace(",", "\t")

    header = csv_lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in csv_lines[1:]]
    by_x = {row["x"]: row for row in rows}
    assert by_x["3"]["slopes"] == "2;1/2;1/2"
    assert by_x["3"]["violates"] == "true"
    assert by_x["6"]["violates"] == "false"
    assert by_x["6"]["strategy"] == ""  # fast path: no strategy ran
    for rec in recs:
        assert by_x[str(rec["x"])]["max_gap"] == rec["max_gap"]


# -- scan --------------------------------------------------------------------

def test_scan_triplegap_range(capsys):
    code, out, err = run(capsys, "scan", "--family", "triplegap",
                         "--p-range", "5..7")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"] == {"datums": 6, "points": 26, "violations": 12}
    assert "6 datums, 26 points, 12 gap violations (12 at predicted points)" in err
    assert "all triple-gap uniqueness checks passed" in err


def test_scan_quintic_single_prime(capsys):
    code, out, err = run(capsys, "scan", "--family", "quintic",
                         "--p-range", "11")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["datums"] == 1
    assert [v["x"] for v in payload["violations"]] == [3]
    assert payload["violations"][0]["expected"] is True
    assert "1 gap violations (1 at predicted points)" in err


def test_scan_out_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, err = run(capsys, "scan", "--family", "triplegap",
                         "--p-range", "5", "--out", str(out_path))
    assert code == 0
    assert out == ""
    payload = json.loads(out_path.read_text(encoding="utf-8"))
    assert payload["summary"] == {"datums": 2, "points": 6, "violations": 4}
    assert "all triple-gap uniqueness checks passed" in err


def test_scan_csv_out_file(capsys, tmp_path):
    out_path = tmp_path / "records.csv"
    code, out, _ = run(capsys, "scan", "--family", "triplegap",
                       "--p-range", "5", "--format", "csv",
                       "--out", str(out_path))
    assert code == 0
    assert out == ""
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 7 and lines[0].startswith("schema_version,")


def test_scan_out_is_replaced_only_when_complete(capsys, tmp_path, monkeypatch):
    out_path = tmp_path / "records.csv"
    out_path.write_bytes(b"an earlier report\n")

    def failing_write(self, rec):
        self._rows.writerow(["schema_version"])
        raise RuntimeError("writer failed")

    monkeypatch.setattr("isoslope.cli._RowWriter.write", failing_write)
    with pytest.raises(RuntimeError, match="writer failed"):
        main(["scan", "--family", "triplegap", "--p-range", "5", "--format",
              "csv", "--out", str(out_path)])
    capsys.readouterr()
    assert out_path.read_bytes() == b"an earlier report\n"
    assert [p.name for p in tmp_path.iterdir()] == ["records.csv"]


def test_a_scan_that_fails_midway_writes_nothing_to_stdout(capsys, monkeypatch):
    computed = []

    def failing_on_the_third_point(datum, point):
        computed.append(point.x)
        if len(computed) == 3:
            raise RuntimeError("scan failed")
        return slopes_at_point(datum, point)

    monkeypatch.setattr("isoslope.scan.slopes_at_point", failing_on_the_third_point)
    with pytest.raises(RuntimeError, match="scan failed"):
        main(["scan", "--family", "triplegap", "--p-range", "5..7"])
    # the first two points' records went to the spool, and none to stdout
    assert len(computed) == 3
    assert capsys.readouterr().out == ""


def test_scan_out_in_a_missing_directory_is_a_usage_error(capsys, tmp_path):
    out_path = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, "scan", "--family", "triplegap",
                         "--p-range", "5", "--out", str(out_path))
    assert code == 64
    assert out == ""
    assert err.startswith(f"usage error: --out {out_path}:")
    assert list(tmp_path.iterdir()) == []


def _no_point_may_be_computed(datum, point):
    raise AssertionError("a point was computed")


def test_scan_out_is_refused_before_any_point_is_computed(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr("isoslope.scan.slopes_at_point", _no_point_may_be_computed)
    out_path = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, "scan", "--family", "triplegap",
                         "--p-range", "5..43", "--out", str(out_path))
    assert code == 64
    assert out == "" and "Traceback" not in err
    assert err == f"usage error: --out {out_path}: No such file or directory\n"
    assert list(tmp_path.iterdir()) == []


def test_scan_out_naming_a_directory_is_refused_before_any_point_is_computed(
        capsys, tmp_path, monkeypatch):
    monkeypatch.setattr("isoslope.scan.slopes_at_point", _no_point_may_be_computed)
    out_path = tmp_path / "reports"
    out_path.mkdir()
    code, out, err = run(capsys, "scan", "--family", "triplegap",
                         "--p-range", "5..43", "--out", str(out_path))
    assert code == 64
    assert out == "" and err == f"usage error: --out {out_path}: Is a directory\n"
    assert list(tmp_path.iterdir()) == [out_path]
    assert list(out_path.iterdir()) == []


def test_scan_that_fails_leaves_no_temp_file_beside_out(capsys, tmp_path, monkeypatch):
    def refuse(datum, point):
        raise MalformedInput("refused")

    monkeypatch.setattr("isoslope.scan.slopes_at_point", refuse)
    out_path = tmp_path / "report.json"
    out_path.write_bytes(b"an earlier report\n")
    code, out, err = run(capsys, "scan", "--family", "triplegap",
                         "--p-range", "5", "--out", str(out_path))
    assert code == 64
    assert out == "" and err == "usage error: refused\n"
    assert out_path.read_bytes() == b"an earlier report\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_scan_out_that_cannot_be_replaced_is_a_usage_error(capsys, tmp_path, monkeypatch):
    out_path = tmp_path / "report.json"
    out_path.write_bytes(b"an earlier report\n")

    def refusing_replace(src, dst):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr("isoslope.cli.os.replace", refusing_replace)
    code, out, err = run(capsys, "scan", "--family", "triplegap",
                         "--p-range", "5", "--out", str(out_path))
    assert code == 64
    assert err.startswith(f"usage error: --out {out_path}: Permission denied")
    assert out_path.read_bytes() == b"an earlier report\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


class _NullStream(io.TextIOBase):
    """A text stream that counts what it is given and keeps none of it."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)


def test_scan_memory_does_not_grow_with_the_report():
    # the first run builds the fields and tables every later scan reuses;
    # the second, traced, holds at most a chunk of the report at a time
    argv = ["scan", "--family", "explicit", "--c", "2,3", "--p-range", "7..7",
            "--m-max", "5"]
    report = _NullStream()
    with contextlib.redirect_stdout(report), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(_NullStream()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.chars > 1_500_000
    assert peak < report.chars // 2


def test_scan_checkpoint_in_a_missing_directory_is_a_usage_error(capsys, tmp_path):
    ckpt = tmp_path / "missing" / "ck.ndjson"
    code, out, err = run(capsys, "scan", "--family", "triplegap",
                         "--p-range", "5", "--checkpoint", str(ckpt))
    assert code == 64
    assert out == ""
    assert err.startswith(f"usage error: --checkpoint {ckpt}:")


def test_scan_checkpoint_that_is_a_directory_is_a_usage_error(capsys, tmp_path):
    code, out, err = run(capsys, "scan", "--family", "triplegap",
                         "--p-range", "5", "--checkpoint", str(tmp_path))
    assert code == 64
    assert out == ""
    assert err.startswith(f"usage error: --checkpoint {tmp_path}:")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("exists", [False, True], ids=["missing", "existing"])
def test_scan_out_naming_the_checkpoint_is_refused_before_any_point_is_computed(
        capsys, tmp_path, monkeypatch, exists):
    # the report would replace the checkpoint, and the next run would then
    # refuse the report's first line as a checkpoint line
    ckpt = tmp_path / "same.json"
    if exists:
        run(capsys, "scan", "--family", "triplegap", "--p-range", "5..7",
            "--checkpoint", str(ckpt))
    before = ckpt.read_bytes() if exists else None
    monkeypatch.setattr("isoslope.scan.slopes_at_point", _no_point_may_be_computed)
    monkeypatch.chdir(tmp_path)  # one path relative, the other absolute
    code, out, err = run(capsys, "scan", "--family", "triplegap", "--p-range", "5..7",
                         "--checkpoint", "same.json", "--out", str(ckpt))
    assert code == 64 and out == ""
    assert err == f"usage error: --out and --checkpoint name the same file {ckpt}\n"
    assert [p.name for p in tmp_path.iterdir()] == (["same.json"] if exists else [])
    assert (ckpt.read_bytes() if exists else None) == before


def test_scan_explicit_needs_c(capsys):
    code, _, err = run(capsys, "scan", "--family", "explicit", "--p-range", "7")
    assert code == 64
    assert "usage error" in err


def test_scan_checkpoint_roundtrip(capsys, tmp_path):
    ckpt = str(tmp_path / "ck.ndjson")
    code, out1, _ = run(capsys, "scan", "--family", "triplegap",
                        "--p-range", "5", "--checkpoint", ckpt)
    assert code == 0
    code, out2, _ = run(capsys, "scan", "--family", "triplegap",
                        "--p-range", "5", "--checkpoint", ckpt)
    assert code == 0
    assert out1 == out2


def test_scan_workers_flag_is_accepted_and_ignored(capsys):
    code, plain, _ = run(capsys, "scan", "--family", "triplegap", "--p-range", "5..7")
    assert code == 0
    code, two, _ = run(capsys, "scan", "--family", "triplegap", "--p-range", "5..7",
                       "--workers", "2")
    assert code == 0
    assert two == plain
    code, out, err = run(capsys, "scan", "--family", "triplegap", "--p-range", "5",
                         "--workers", "0")
    assert code == 64
    assert out == "" and "usage error" in err


def test_scan_triplegap_verdict_reads_the_served_records(capsys, tmp_path):
    ckpt = tmp_path / "ck.ndjson"
    code, _, _ = run(capsys, "scan", "--family", "triplegap", "--p-range", "5",
                     "--checkpoint", str(ckpt))
    assert code == 0
    recs = [json.loads(ln) for ln in ckpt.read_text(encoding="utf-8").splitlines()]
    # c3 = 1: the one top-gap point, -(2 c3)^(-1) = 2 mod 5, made generic
    (top,) = [r for r in recs if r["c"] == [1, 1, 3] and r["x"] == 2]
    assert Fraction(top["gaps"][0]) > 1
    lineno = recs.index(top) + 1
    truth = dict(top)
    # generic slopes at a degenerate point (u_c_zero true) break the flag's
    # invariant: the load refuses the line
    top.update(slopes=["2", "1", "0"], gaps=["1", "1"], max_gap="1", violates=False)
    assert top["u_c_zero"] or top["u_cdual_zero"]
    ckpt.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in recs),
                    encoding="utf-8")
    code, out, err = run(capsys, "scan", "--family", "triplegap", "--p-range", "5",
                         "--checkpoint", str(ckpt))
    assert code == 64 and out == ""
    assert f"{ckpt}:{lineno}: checkpoint line breaks an invariant" in err
    # made the generic fast-path record whole, the lie keeps every invariant
    # of its slopes, but not the flags the root sets give its point: the
    # scan refuses it before the verdict could read it
    top.update(u_c_zero=False, u_cdual_zero=False, strategy=None,
               precision_used=None, fast_path=True)
    ckpt.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in recs),
                    encoding="utf-8")
    code, out, err = run(capsys, "scan", "--family", "triplegap", "--p-range", "5",
                         "--checkpoint", str(ckpt))
    assert code == 64 and out == ""
    assert f"{ckpt}:{lineno}: checkpoint line has (u_c_zero, u_cdual_zero) = " \
        "(False, False), but the root sets give (True, False)" in err
    # a lie that keeps the invariants and the flags is served, and the
    # verdict reads it; here none can hide the top gap, since the flags
    # force slopes (2, a, 1 - a) with 1 - a > 0
    top.update(truth, slopes=["2", "2/3", "1/3"], gaps=["4/3", "1/3"], max_gap="4/3")
    ckpt.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in recs),
                    encoding="utf-8")
    code, out, err = run(capsys, "scan", "--family", "triplegap", "--p-range", "5",
                         "--checkpoint", str(ckpt))
    assert code == 0 and "all triple-gap uniqueness checks passed" in err
    (served,) = [r for r in json.loads(out)["records"] if r["c"] == [1, 1, 3] and r["x"] == 2]
    assert served["slopes"] == ["2", "2/3", "1/3"]


def test_scan_checkpoint_line_missing_a_field_is_a_usage_error(capsys, tmp_path):
    ckpt = tmp_path / "ck.ndjson"
    code, _, _ = run(capsys, "scan", "--family", "triplegap", "--p-range", "5",
                     "--checkpoint", str(ckpt))
    assert code == 0
    first, *rest = ckpt.read_text(encoding="utf-8").splitlines(keepends=True)
    rec = json.loads(first)
    del rec["violates"]
    body = json.dumps(rec, sort_keys=True) + "\n" + "".join(rest)
    ckpt.write_text(body, encoding="utf-8")
    code, out, err = run(capsys, "scan", "--family", "triplegap", "--p-range", "5",
                         "--checkpoint", str(ckpt))
    assert code == 64
    assert out == "" and f"{ckpt}:1: checkpoint line is not a point record" in err
    assert ckpt.read_text(encoding="utf-8") == body


def test_scan_checkpoint_line_with_a_bad_rational_is_a_usage_error(capsys, tmp_path):
    # served unchecked, the word would reach Fraction in the triple-gap check
    ckpt = tmp_path / "ck.ndjson"
    code, _, _ = run(capsys, "scan", "--family", "triplegap", "--p-range", "5..5",
                     "--checkpoint", str(ckpt))
    assert code == 0
    first, *rest = ckpt.read_text(encoding="utf-8").splitlines(keepends=True)
    rec = json.loads(first)
    rec["gaps"] = ["x", "1"]
    body = json.dumps(rec, sort_keys=True) + "\n" + "".join(rest)
    ckpt.write_text(body, encoding="utf-8")
    code, out, err = run(capsys, "scan", "--family", "triplegap", "--p-range", "5..5",
                         "--checkpoint", str(ckpt))
    assert code == 64
    assert out == "" and f"{ckpt}:1: checkpoint line is not a point record" in err
    assert ckpt.read_text(encoding="utf-8") == body


def test_scan_checkpoint_of_schema_version_1_is_a_usage_error(capsys, tmp_path):
    # version 1 records carry precision_used at the old fixed precision, so a
    # resume refuses them instead of mixing them into a version 2 report
    ckpt = tmp_path / "ck.ndjson"
    code, _, _ = run(capsys, "scan", "--family", "triplegap", "--p-range", "5..5",
                     "--checkpoint", str(ckpt))
    assert code == 0
    lines = ckpt.read_text(encoding="utf-8").splitlines(keepends=True)
    rec = json.loads(lines[1])
    rec["schema_version"] = "1"
    lines[1] = json.dumps(rec, sort_keys=True) + "\n"
    body = "".join(lines)
    ckpt.write_text(body, encoding="utf-8")
    code, out, err = run(capsys, "scan", "--family", "triplegap", "--p-range", "5..5",
                         "--checkpoint", str(ckpt))
    assert code == 64
    assert out == "" and f"{ckpt}:2: checkpoint line is not a point record" in err
    assert ckpt.read_text(encoding="utf-8") == body


def test_scan_checkpoint_line_whose_x_is_not_at_its_dlog_is_a_usage_error(capsys,
                                                                          tmp_path):
    # the one degenerate point up to GF(7^2) is x = 20 at x_dlog 13;
    # served as x = 21 it would put a second x = 21 into the report
    ckpt = tmp_path / "ck.ndjson"
    argv = ["scan", "--family", "explicit", "--c", "2,3", "--p-range", "7..7",
            "--m-max", "2", "--checkpoint", str(ckpt)]
    code, _, _ = run(capsys, *argv)
    assert code == 0
    (line,) = ckpt.read_text(encoding="utf-8").splitlines(keepends=True)
    rec = json.loads(line)
    assert (rec["degree"], rec["x"], rec["x_dlog"]) == (2, 20, 13)
    rec["x"] = 21
    body = json.dumps(rec, sort_keys=True) + "\n"
    ckpt.write_text(body, encoding="utf-8")
    code, out, err = run(capsys, *argv)
    assert code == 64
    assert out == "" and f"{ckpt}:1: checkpoint line has x = 21" in err
    assert ckpt.read_text(encoding="utf-8") == body


# -- hecke -------------------------------------------------------------------

def test_hecke_basic(capsys):
    code, out, _ = run(capsys, "hecke", "--n", "3", "--t-vals", "0,0,0")
    assert code == 0
    (rec,) = json_lines(out)
    assert rec["newton"] == ["0", "-1", "-1", "0"]
    assert rec["slopes"] == ["1", "0", "-1"]
    assert "region" not in rec


def test_hecke_pgl3_region(capsys):
    code, out, _ = run(capsys, "hecke", "--n", "3",
                       "--t-vals", "1/3,1/3,0", "--pgl3")
    assert code == 0
    (rec,) = json_lines(out)
    assert rec["region"] == "A∩B"
    assert rec["slopes"] == ["2/3", "0", "-2/3"]


def test_hecke_usage_errors(capsys):
    assert run(capsys, "hecke", "--n", "2", "--t-vals", "0")[0] == 64
    assert run(capsys, "hecke", "--n", "1", "--t-vals", "1/0")[0] == 64
    assert run(capsys, "hecke", "--n", "0", "--t-vals", "0")[0] == 64
    assert run(capsys, "hecke", "--n", "2", "--t-vals", "0,0", "--pgl3")[0] == 64


# -- coweight ----------------------------------------------------------------

def test_coweight_small_gaps(capsys):
    code, out, _ = run(capsys, "coweight", "small-gaps", "--type", "GL4",
                       "--coweight", "5/2,5/2,1/2,1/2")
    assert code == 0
    (rec,) = json_lines(out)
    assert rec["satisfied"] is False
    assert rec["gaps"] == ["0", "2", "0"]
    assert rec["violating"] == [2]
    assert rec["le1_indices"] == [1, 3]


def test_coweight_rho(capsys):
    code, out, _ = run(capsys, "coweight", "rho", "--type", "SL3")
    assert code == 0
    assert json_lines(out)[0]["rho"] == ["1", "0", "-1"]

    code, out, _ = run(capsys, "coweight", "rho", "--type", "GL3")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "UnsupportedDatum"


def test_coweight_rho_from_cartan_file(capsys, tmp_path):
    path = tmp_path / "a2.json"
    path.write_text("[[2, -1], [-1, 2]]", encoding="utf-8")
    code, out, _ = run(capsys, "coweight", "rho", "--type", f"cartan:{path}")
    assert code == 0
    assert json_lines(out)[0]["rho"] == ["1", "1"]


@pytest.mark.parametrize("kind, content", [
    ("GLx", None),
    ("SL", None),
    ("missing", None),
    ("file", "[[2, -1], [-1,"),
    ("file", '[[2, "x"], [-1, 2]]'),
    ("file", "[[2, -1.5], [-1, 2]]"),
], ids=["GLx", "SL", "missing-file", "truncated-json", "string-entry", "float-entry"])
def test_coweight_bad_datum_type_is_a_usage_error(capsys, tmp_path, kind, content):
    if kind == "missing":
        kind = f"cartan:{tmp_path / 'missing.json'}"
    elif kind == "file":
        path = tmp_path / "bad.json"
        path.write_text(content, encoding="utf-8")
        kind = f"cartan:{path}"
    code, out, err = run(capsys, "coweight", "rho", "--type", kind)
    assert code == 64
    assert out == ""
    assert err.startswith("usage error:")


def test_coweight_leq(capsys):
    code, out, _ = run(capsys, "coweight", "leq", "--type", "GL3",
                       "--a", "1,1,1", "--b", "2,1,0")
    assert code == 0
    assert json_lines(out)[0]["leq"] is True

    code, out, _ = run(capsys, "coweight", "leq", "--type", "GL2",
                       "--a", "1,0", "--b", "2,1")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "NotInCorootSpan"


def test_coweight_cohinterval(capsys):
    code, out, _ = run(capsys, "coweight", "cohinterval", "--r", "0",
                       "--s", "0", "--i", "3", "--n", "3")
    assert code == 0
    assert json_lines(out)[0]["interval"] == ["0", "3"]


def test_coweight_bad_type(capsys):
    code, _, err = run(capsys, "coweight", "rho", "--type", "E8ish")
    assert code == 64
    assert "usage error" in err


# -- schema versions ---------------------------------------------------------

def test_schema_versions_are_pinned(capsys):
    # point records and scan reports moved to "2" with the certified
    # precision_used; the hecke, coweight and error payloads never changed
    # their fields and stay at "1"
    from isoslope.cli import PAYLOAD_SCHEMA_VERSION
    from isoslope.scan import SCHEMA_VERSION
    assert (SCHEMA_VERSION, PAYLOAD_SCHEMA_VERSION) == ("2", "1")
    payloads = [
        ("hecke", "--n", "2", "--t-vals", "0,0"),
        ("coweight", "rho", "--type", "SL2"),
        ("coweight", "small-gaps", "--type", "SL2", "--coweight", "1/2,-1/2"),
        ("coweight", "leq", "--type", "GL2", "--a", "1,0", "--b", "1,0"),
        ("coweight", "cohinterval", "--r", "0", "--s", "0", "--i", "1", "--n", "2"),
        ("coweight", "rho", "--type", "GL3"),  # exit 2: an error payload
    ]
    for argv in payloads:
        _, out, _ = run(capsys, *argv)
        assert json.loads(out)["schema_version"] == PAYLOAD_SCHEMA_VERSION, argv
    _, out, _ = run(capsys, "slopes", "--p", "7", "--c", "1,5,1", "--x", "3")
    assert json.loads(out)["schema_version"] == SCHEMA_VERSION
