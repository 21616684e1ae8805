"""The exact answers of a fixed set of CLI commands, pinned by sha256.

Each command runs in-process through cli.main.  Its exit code, stdout,
stderr (with the summary line's trailing elapsed time removed) and, for a
scan with --checkpoint, the checkpoint file are hashed and compared with
tests/pinned_outputs.json.  slopes records carry a wall-clock timing_ms,
which is removed from each record before hashing.

A change that means to move these bytes (a schema bump) replaces the
digests the failure message prints and says so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

from isoslope.cli import main

_PINNED_PATH = Path(__file__).resolve().parent / "pinned_outputs.json"

# (name, argv, whether the command reads and writes the shared checkpoint);
# the resume runs after the fresh scan and over its finished checkpoint
_COMMANDS = [
    ("scan-triplegap-5..43-fresh",
     ["scan", "--family", "triplegap", "--p-range", "5..43"], True),
    ("scan-triplegap-5..43-resumed",
     ["scan", "--family", "triplegap", "--p-range", "5..43"], True),
    ("scan-explicit-2,3-p7-m6",
     ["scan", "--family", "explicit", "--c", "2,3", "--p-range", "7..7",
      "--m-max", "6"], False),
    ("scan-quintic-11..31-m2",
     ["scan", "--family", "quintic", "--p-range", "11..31", "--m-max", "2"], False),
    ("scan-triplegap-5..7-csv",
     ["scan", "--family", "triplegap", "--p-range", "5..7", "--format", "csv"], False),
    ("scan-triplegap-5..7-tsv",
     ["scan", "--family", "triplegap", "--p-range", "5..7", "--format", "tsv"], False),
    ("scan-quintic-41-m2",
     ["scan", "--family", "quintic", "--p-range", "41..41", "--m-max", "2"], False),
    ("slopes-p31-quintic-selfdual",
     ["slopes", "--p", "31", "--c", "6,12,18,24", "--strategy", "selfdual"], False),
]

_ELAPSED = re.compile(r" [0-9]+\.[0-9]s$", re.M)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _without_timing(out: str) -> str:
    records = [json.loads(line) for line in out.splitlines()]
    for rec in records:
        del rec["timing_ms"]
    return "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records)


def _digests(capsys, argv, checkpoint) -> dict:
    if checkpoint is not None:
        argv = [*argv, "--checkpoint", str(checkpoint)]
    code = main(argv)
    out, err = capsys.readouterr()
    if argv[0] == "slopes":
        out = _without_timing(out)
    got = {"exit": code, "stdout": _sha256(out), "stderr": _sha256(_ELAPSED.sub("", err))}
    if checkpoint is not None:
        got["checkpoint"] = _sha256(checkpoint.read_text(encoding="utf-8"))
    return got


def test_commands_keep_their_pinned_outputs(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("ISOSLOPE_TABLE_LIMIT", raising=False)
    pinned = json.loads(_PINNED_PATH.read_text(encoding="utf-8"))
    assert list(pinned) == [name for name, _, _ in _COMMANDS]
    checkpoint = tmp_path / "scan.ndjson"
    got = {name: _digests(capsys, argv, checkpoint if shared else None)
           for name, argv, shared in _COMMANDS}
    moved = {name: got[name] for name in got if got[name] != pinned[name]}
    assert not moved, "outputs moved; their new digests:\n" + json.dumps(moved, indent=2)
