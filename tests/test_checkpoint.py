"""The checkpoint load against the line-by-line load of tests/reference.py;
undecodable bytes and oversized integers; lines of the all-points format,
forged flags; and a scan killed midway and resumed."""

from __future__ import annotations

import functools
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isoslope
from isoslope.cli import main
from isoslope.errors import MalformedInput
from isoslope.scan import _HEAD_FIELDS, FamilySpec, _Checkpoint, scan_family

from reference import checkpoint_served_per_line, fast_path_lines

_TRIPLEGAP_43 = ["scan", "--family", "triplegap", "--p-range", "5..43"]
_ENV = dict(os.environ, PYTHONPATH=str(Path(isoslope.__file__).parent.parent))


def _served(path: str) -> dict:
    store = _Checkpoint(path)
    store.close()
    return {key: (head.fields, x, lineno) for key, (head, x, lineno) in store._served.items()}


def _load_both(path: str):
    """(oracle, loader) outcomes of one checkpoint: the served map or the
    MalformedInput message.  The oracle reads first: the loader ends a torn
    last line when it opens the file for appending."""
    outcomes = []
    for load in (checkpoint_served_per_line, _served):
        try:
            outcomes.append(load(path))
        except MalformedInput as exc:
            outcomes.append(str(exc))
    return outcomes


# -- the loader equals the per-line loader ---------------------------------------

@functools.cache
def _triplegap_13_lines() -> tuple[bytes, ...]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scan.ndjson"
        scan_family(FamilySpec("triplegap", 5, 13), checkpoint=str(path))
        return tuple(path.read_bytes().splitlines(keepends=True))


_FIELD_VALUES = [0, 1, 2, 5, 7, 9, -1, True, False, None, "2", "1", "1/2", "x", "dualpair",
                 [1, 3, 1], [1, 3, 2], ["2", "1/2", "1/2"], ["1", "1", "0"], 1.0]
_NUMBER_TOKENS = [b"-1", b"01", b"1.0", b"1" * 30, b"0", b"3"]


def _edit_field(line: bytes, k: int) -> bytes:
    rec = json.loads(line)
    rec[_HEAD_FIELDS[k % len(_HEAD_FIELDS)]] = _FIELD_VALUES[k // 16 % len(_FIELD_VALUES)]
    return json.dumps(rec, sort_keys=True).encode() + b"\n"


def _set_point(line: bytes, k: int) -> bytes:
    text, sep, tail = line.rstrip(b"\n").rpartition(b', "x": ')
    x, _, x_dlog = tail[:-1].partition(b', "x_dlog": ')
    token = _NUMBER_TOKENS[k // 2 % len(_NUMBER_TOKENS)]
    x, x_dlog = (token, x_dlog) if k % 2 else (x, token)
    return text + sep + x + b', "x_dlog": ' + x_dlog + b"}\n"


def _duplicate_x(line: bytes, k: int) -> bytes:
    # a key "x" inside the head, before the last one, which wins
    return b'{"x": %d, ' % (k % 50) + line[1:]


def _space(line: bytes, k: int) -> bytes:
    seps = [m.start() for m in re.finditer(rb", |: ", line)]
    if not seps:
        return line
    at = seps[k % len(seps)] + 1
    return line[:at] + b" " + line[at:]


def _reorder(line: bytes, k: int) -> bytes:
    rec = json.loads(line)
    keys = sorted(rec, reverse=bool(k % 2))
    return json.dumps({key: rec[key] for key in keys}).encode() + b"\n"


def _undecodable(line: bytes, k: int) -> bytes:
    at = k % len(line)
    return line[:at] + b"\xff" + line[at:]


_LINE_EDITS = {"edit-field": _edit_field, "set-point": _set_point,
               "duplicate-x": _duplicate_x, "space": _space, "reorder": _reorder,
               "undecodable": _undecodable,
               "tear": lambda line, k: line[:k % len(line)],
               "crlf": lambda line, k: line.rstrip(b"\n") + b"\r\n"}


def _mutate(lines: list[bytes], op: str, i: int, k: int) -> list[bytes]:
    if not lines:
        return lines
    i %= len(lines)
    if op == "duplicate":
        return lines[:i] + [lines[k % len(lines)]] + lines[i:]
    if op == "drop":
        return lines[:i] + lines[i + 1:]
    if op == "blank":
        return lines[:i] + [b"\n" if k % 2 else b"\r\n"] + lines[i:]
    line = lines[i]
    if not line.strip():
        return lines
    try:
        edited = _LINE_EDITS[op](line, k)
    except ValueError:  # an earlier edit left the line no JSON to edit
        return lines
    return lines[:i] + [edited] + lines[i + 1:]


_OPS = st.sampled_from(sorted(_LINE_EDITS) + ["duplicate", "drop", "blank"])
_EDITS = st.lists(st.tuples(_OPS, st.integers(0, 10 ** 6), st.integers(0, 10 ** 6)),
                  min_size=1, max_size=6)


@settings(max_examples=250, deadline=None)
@given(edits=_EDITS)
def test_loader_equals_the_per_line_loader(edits):
    lines = list(_triplegap_13_lines())
    for op, i, k in edits:
        lines = _mutate(lines, op, i, k)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scan.ndjson")
        Path(path).write_bytes(b"".join(lines))
        oracle, loaded = _load_both(path)
    assert loaded == oracle


def test_every_line_kind_of_the_property_occurs():
    # each mutation above leads to a served line, a dropped line or a
    # refused one on the real checkpoint; the unedited file serves every line
    lines = list(_triplegap_13_lines())
    seen = set()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scan.ndjson")
        for op in sorted(_LINE_EDITS) + ["duplicate", "drop", "blank"]:
            for k in range(0, 400, 23):
                Path(path).write_bytes(b"".join(_mutate(lines, op, 3, k)))
                oracle, loaded = _load_both(path)
                assert loaded == oracle, (op, k)
                if isinstance(oracle, str):
                    seen.add((op, "refused"))
                else:
                    seen.add((op, "dropped" if len(oracle) < len(lines) else "served"))
    assert {("edit-field", "refused"), ("edit-field", "served"), ("set-point", "served"),
            ("set-point", "dropped"), ("undecodable", "dropped"), ("undecodable", "refused"),
            ("tear", "dropped"), ("duplicate-x", "served"), ("reorder", "served")} <= seen


# -- undecodable bytes ------------------------------------------------------------

def test_undecodable_first_bytes_are_dropped_and_recomputed(tmp_path):
    spec = FamilySpec("triplegap", 5, 7)
    path = tmp_path / "scan.ndjson"
    fresh = scan_family(spec, checkpoint=str(path))
    path.write_bytes(b"\xff\xfe" + path.read_bytes())
    resumed = scan_family(spec, checkpoint=str(path))
    assert resumed.to_bytes() == fresh.to_bytes()
    # the first line's point was recomputed and appended
    first, *_, last = path.read_bytes().splitlines()
    assert first[2:] == last


def test_an_undecodable_byte_inside_a_line_is_dropped_or_refused(tmp_path):
    spec = FamilySpec("triplegap", 5, 7)
    path = tmp_path / "scan.ndjson"
    fresh = scan_family(spec, checkpoint=str(path))
    lines = path.read_bytes().splitlines(keepends=True)
    index = next(i for i, ln in enumerate(lines) if b'"dualpair"' in ln)
    # inside a number the line no longer parses
    torn = lines[:]
    torn[index] = torn[index].replace(b'"p": ', b'"p": 1\xff', 1)
    path.write_bytes(b"".join(torn))
    assert scan_family(spec, checkpoint=str(path)).to_bytes() == fresh.to_bytes()
    # inside a string the line parses but names no strategy
    lines[index] = lines[index].replace(b'"dualpair"', b'"dual\xffpair"')
    body = b"".join(lines)
    path.write_bytes(body)
    with pytest.raises(MalformedInput, match=re.escape(
            f"{path}:{index + 1}: checkpoint line breaks an invariant of its slopes")):
        scan_family(spec, checkpoint=str(path))
    assert path.read_bytes() == body


def test_an_integer_past_the_digit_limit_is_dropped_and_recomputed(tmp_path, capsys):
    # json.loads refuses an integer of more than 4300 digits with ValueError
    path = tmp_path / "scan.ndjson"
    argv = ["scan", "--family", "triplegap", "--p-range", "5..5", "--checkpoint", str(path)]
    assert main(argv) == 0
    fresh = capsys.readouterr().out
    first, *rest = path.read_bytes().splitlines(keepends=True)
    huge = re.sub(rb'"x": [0-9]+,', b'"x": ' + b"9" * 5000 + b",", first)
    assert huge != first
    path.write_bytes(huge + b"".join(rest))
    oracle, loaded = _load_both(str(path))
    assert loaded == oracle and len(loaded) == len(rest)
    assert main(argv) == 0
    assert capsys.readouterr().out == fresh
    assert path.read_bytes().splitlines(keepends=True)[-1] == first


def test_cli_resume_after_undecodable_bytes(tmp_path):
    path = tmp_path / "scan.ndjson"
    argv = ["scan", "--family", "triplegap", "--p-range", "5..7"]
    run = functools.partial(subprocess.run, capture_output=True, env=_ENV, timeout=120)
    fresh = run([sys.executable, "-m", "isoslope.cli", *argv, "--checkpoint", str(path)])
    path.write_bytes(b"\xff\xfe" + path.read_bytes())
    resumed = run([sys.executable, "-m", "isoslope.cli", *argv, "--checkpoint", str(path)])
    assert (resumed.returncode, resumed.stdout, resumed.stderr) == \
        (0, fresh.stdout, fresh.stderr)


# -- a full resume, and one after SIGKILL ------------------------------------------

@pytest.fixture(scope="module")
def triplegap_43(tmp_path_factory):
    """(checkpoint bytes, report bytes) of an uninterrupted triplegap 5..43
    scan from the command line."""
    tmp = tmp_path_factory.mktemp("triplegap-43")
    ckpt, out = tmp / "scan.ndjson", tmp / "report.json"
    subprocess.run([sys.executable, "-m", "isoslope.cli", *_TRIPLEGAP_43,
                    "--checkpoint", str(ckpt), "--out", str(out)],
                   env=_ENV, check=True, capture_output=True, timeout=300)
    return ckpt.read_bytes(), out.read_bytes()


def test_full_resume_parses_each_line_once(tmp_path, monkeypatch, triplegap_43):
    # a line for each of the 480 points that did p-adic work, of 6936
    records = json.loads(triplegap_43[1])["records"]
    assert triplegap_43[0].splitlines() == [json.dumps(rec, sort_keys=True).encode()
                                            for rec in records if not rec["fast_path"]]
    path = tmp_path / "scan.ndjson"
    path.write_bytes(triplegap_43[0])
    lines = triplegap_43[0].count(b"\n")
    assert (lines, len(records)) == (480, 6936)
    parsed = []
    real = json.loads

    def counting(*a, **k):
        parsed.append(a)
        return real(*a, **k)

    monkeypatch.setattr(json, "loads", counting)
    report = scan_family(FamilySpec("triplegap", 5, 43), checkpoint=str(path))
    monkeypatch.undo()
    assert len(parsed) == lines
    assert report.to_bytes() == triplegap_43[1]
    assert path.read_bytes() == triplegap_43[0]


def test_a_checkpoint_of_every_point_resumes_to_the_same_bytes(tmp_path, capsys,
                                                               triplegap_43):
    # the all-points format held a line for every point: its fast-path lines
    # are parsed and checked, but never served
    path = tmp_path / "scan.ndjson"
    body = triplegap_43[0] + b"".join(fast_path_lines(triplegap_43[1]))
    assert body.count(b"\n") == 6936
    path.write_bytes(body)
    assert main([*_TRIPLEGAP_43, "--checkpoint", str(path)]) == 0
    out, err = capsys.readouterr()
    assert out.encode() == triplegap_43[1]
    assert "all triple-gap uniqueness checks passed" in err
    assert path.read_bytes() == body


def _assert_a_line_with_the_other_flags_is_refused(tmp_path, capsys, family):
    # the first root point given the other's head keeps every invariant of
    # its slopes, but not the flags the root sets give its point
    path = tmp_path / "scan.ndjson"
    argv = ["scan", *family, "--checkpoint", str(path)]
    assert main(argv) == 0
    capsys.readouterr()
    recs = [json.loads(ln) for ln in path.read_bytes().splitlines()]
    index = next(i for i, rec in enumerate(recs) if rec["u_c_zero"])
    other = next(i for i, rec in enumerate(recs)
                 if rec["u_cdual_zero"] and rec["c"] == recs[index]["c"])
    flags = recs[index]["u_c_zero"], recs[index]["u_cdual_zero"]
    recs[index].update({key: recs[other][key] for key in _HEAD_FIELDS})
    forged = recs[index]["u_c_zero"], recs[index]["u_cdual_zero"]
    assert forged != flags
    body = "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in recs).encode()
    path.write_bytes(body)
    assert main(argv) == 64
    out, err = capsys.readouterr()
    assert out == "" and f"{path}:{index + 1}: checkpoint line has (u_c_zero, " \
        f"u_cdual_zero) = {forged}, but the root sets give {flags}" in err
    assert path.read_bytes() == body


def test_a_root_point_line_with_other_flags_is_refused(tmp_path, capsys):
    # c3 = 1 at p = 5 has a top-gap point and a bottom-gap point
    _assert_a_line_with_the_other_flags_is_refused(
        tmp_path, capsys, ["--family", "triplegap", "--p-range", "5..5"])


def test_a_rank_4_line_with_other_flags_is_refused(tmp_path, capsys):
    # every point is checkpointed at rank 4; x = 3 has u_c_zero true and
    # x = 4 has u_cdual_zero true
    _assert_a_line_with_the_other_flags_is_refused(
        tmp_path, capsys, ["--family", "explicit", "--c", "1,1,1,2", "--p-range", "7..7"])


# the isoslope CLI with a checkpoint that stops the scan, as if it hung,
# once it has written k lines
_STOP_AFTER_K_LINES = """
import sys, time
from isoslope import cli, scan
k, written, real = int(sys.argv[1]), [], scan._Checkpoint.add
def add(self, *point):
    real(self, *point)
    written.append(point)
    if len(written) == k:
        time.sleep(600)
scan._Checkpoint.add = add
sys.exit(cli.main(sys.argv[2:]))
"""


@pytest.mark.parametrize("k", ["1", "half", "n-1"])
def test_a_scan_killed_after_k_lines_resumes_to_the_same_report(tmp_path, triplegap_43, k):
    # n is the line count of the complete checkpoint
    n = triplegap_43[0].count(b"\n")
    k = {"1": 1, "half": n // 2, "n-1": n - 1}[k]
    ckpt, out = tmp_path / "scan.ndjson", tmp_path / "report.json"
    argv = [*_TRIPLEGAP_43, "--checkpoint", str(ckpt)]
    child = subprocess.Popen(
        [sys.executable, "-c", _STOP_AFTER_K_LINES, str(k), *argv,
         "--out", str(tmp_path / "killed.json")],
        env=_ENV, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 120
        while child.poll() is None and time.monotonic() < deadline and \
                (not ckpt.exists() or ckpt.read_bytes().count(b"\n") < k):
            time.sleep(0.001)
    finally:
        child.kill()
        child.wait()
    assert child.returncode == -signal.SIGKILL
    written = ckpt.read_bytes()
    assert written.count(b"\n") == k
    assert not (tmp_path / "killed.json").exists()
    subprocess.run([sys.executable, "-m", "isoslope.cli", *argv, "--out", str(out)],
                   env=_ENV, check=True, capture_output=True, timeout=300)
    assert out.read_bytes() == triplegap_43[1]
    # the resume appended what the killed run had not written
    assert ckpt.read_bytes() == triplegap_43[0]
