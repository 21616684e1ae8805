"""CLI exit codes, JSON error payloads, and format parity.

Everything drives main(argv) in-process and reads capsys, except one check
in a fresh interpreter that the CLI runs without numpy.
Exit code contract: 0 success, 2 well-posed but refused (structured JSON on
stdout), 64 malformed usage (message on stderr).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

import isoslope
from isoslope.cli import main

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


def test_table_limit_env(capsys, monkeypatch):
    monkeypatch.setenv("ISOSLOPE_TABLE_LIMIT", "100")
    code, out, _ = run(capsys, "slopes", "--p", "11", "--c", "1,2",
                       "--m", "2", "--x", "1,1")
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

    def failing_emit(records, fmt, stream):
        stream.write("schema_version,")
        raise RuntimeError("writer failed")

    monkeypatch.setattr("isoslope.cli.emit_records", failing_emit)
    with pytest.raises(RuntimeError, match="writer failed"):
        main(["scan", "--family", "triplegap", "--p-range", "5", "--format",
              "csv", "--out", str(out_path)])
    capsys.readouterr()
    assert out_path.read_bytes() == b"an earlier report\n"
    assert [p.name for p in tmp_path.iterdir()] == ["records.csv"]


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
    top.update(slopes=["2", "1", "0"], gaps=["1", "1"], max_gap="1", violates=False)
    ckpt.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in recs),
                    encoding="utf-8")
    code, out, err = run(capsys, "scan", "--family", "triplegap", "--p-range", "5",
                         "--checkpoint", str(ckpt))
    assert code == 2
    assert "triple-gap uniqueness FAILED at [(5, 1)]" in err
    assert "all triple-gap uniqueness checks passed" not in err
    assert json.loads(out)["summary"]["violations"] == 3


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
