"""Sweep orchestration: slope reports over point ranges and datum families.

Two built-in families.  The quintic family takes c_i = i(p-1)/5 at primes
p = 1 mod 5; its p = 31 member is the smallest known source of half-integral
slope vectors, at the points 4 and 17.  The triple-gap family c = (1, p-2,
c3) with c3 != (p-1)/2 has closed-form degeneracy loci: the library predicts
a top-gap violation at -(2 c3)^(-1) and a bottom-gap violation at
(2(c3+1))^(-1), both mod p.  Scan output flags violations at predicted
points as expected and anything else as a discovery.

Scans run serially and are resumable (append-only newline-delimited JSON
checkpoint, one record per closed point) and deterministic: the aggregated
report bytes are the same whether the records were computed fresh or served
from the checkpoint.  Timing never enters the report payload for that
reason.

A point record is written as a head plus a point.  The head holds the 13
fields fixed by the datum, the degree and the slope outcome; the point holds
x and x_dlog, which sort after every other key.  Most points of a datum take
the generic fast path and so share one head per degree, so the report and
the checkpoint render each head's text once and write each point as that
text followed by its own two fields.
"""

from __future__ import annotations

import functools
import io
import json
import os
import re
import time
from dataclasses import dataclass
from fractions import Fraction

from .arith import field_create, is_prime
from .errors import InvalidC3, MalformedInput, NotPrime, PrimeTooSmall
from .hyper import (
    HypergeometricDatum,
    SlopeReport,
    closed_points,
    slopes_at_point,
)

SCHEMA_VERSION = "2"

FAMILY_KINDS = ("quintic", "triplegap", "explicit")


@dataclass(frozen=True)
class FamilySpec:
    """A family of datums swept over an inclusive prime range."""

    kind: str
    p_min: int
    p_max: int
    c: tuple[int, ...] | None = None
    m_max: int = 1

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise MalformedInput(f"unknown family kind {self.kind!r}")
        if self.p_min > self.p_max:
            raise MalformedInput(f"empty prime range {self.p_min}..{self.p_max}")
        if self.m_max < 1:
            raise MalformedInput(f"need m_max >= 1, got {self.m_max}")
        if self.kind == "explicit":
            if not self.c:
                raise MalformedInput("explicit family needs a c list")
            object.__setattr__(self, "c", tuple(sorted(int(v) for v in self.c)))
        elif self.c is not None:
            raise MalformedInput(f"family {self.kind!r} does not take a c list")


def family_members(spec: FamilySpec) -> list[HypergeometricDatum]:
    """Datums of the family, primes ascending then c ascending."""
    out = []
    for p in range(max(3, spec.p_min), spec.p_max + 1):
        if not is_prime(p):
            continue
        if spec.kind == "quintic":
            if p % 5 == 1:
                step = (p - 1) // 5
                out.append(HypergeometricDatum(p, tuple(i * step for i in (1, 2, 3, 4))))
        elif spec.kind == "triplegap":
            if p >= 5:
                for c3 in range(1, p - 1):
                    if 2 * c3 != p - 1:
                        out.append(HypergeometricDatum(p, (1, p - 2, c3)))
        else:
            if all(1 <= v <= p - 2 for v in spec.c):
                out.append(HypergeometricDatum(p, spec.c))
    return out


# ---------------------------------------------------------------------------
# closed-form expectations
# ---------------------------------------------------------------------------

# regression fixture: degenerate degree-1 points of the quintic members.
# At p = 31, x = 4 and 17 are the roots of the unit-root polynomial (slopes
# 5/2,5/2,1/2,1/2); x = 5, 12, 16, 27 keep a unit root but pick up an extra
# factor of p in the second coefficient (slopes 3,3/2,3/2,0), as does x = 3
# at p = 11.  All verified with every strategy and against the tests'
# enumeration oracle (tests/reference.py).
_QUINTIC_PINNED = {
    11: frozenset({3}),
    31: frozenset({4, 5, 12, 16, 17, 27}),
}


def _triple_gap_c3(datum: HypergeometricDatum) -> int | None:
    p, c = datum.p, datum.c
    if datum.n != 3 or p < 5:
        return None
    rest = list(c)
    for want in (1, p - 2):
        if want not in rest:
            return None
        rest.remove(want)
    c3 = rest[0]
    return None if 2 * c3 == p - 1 else c3


def predicted_violation_points(datum: HypergeometricDatum) -> frozenset[int]:
    """Degree-1 points where a gap violation is forced by closed form (the
    triple-gap degeneracy roots) or pinned by a frozen regression fixture."""
    p = datum.p
    c3 = _triple_gap_c3(datum)
    if c3 is not None:
        top = -pow(2 * c3, p - 2, p) % p
        bottom = pow(2 * (c3 + 1), p - 2, p)
        return frozenset({top, bottom})
    if p % 5 == 1 and datum.c == tuple(i * (p - 1) // 5 for i in (1, 2, 3, 4)):
        return _QUINTIC_PINNED.get(p, frozenset())
    return frozenset()


def verify_triple_gap_uniqueness(p: int, c3: int) -> bool:
    """Scan c = (1, p-2, c3) over the degree-1 points and apply
    triple_gap_unique to its violations."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if p < 5:
        raise PrimeTooSmall(f"need p >= 5, got {p}")
    if not 1 <= c3 <= p - 2:
        raise InvalidC3(f"c3 must lie in [1, {p - 2}], got {c3}")
    if 2 * c3 == p - 1:
        raise InvalidC3(f"c3 = (p-1)/2 = {c3} is excluded")
    report = scan_family(FamilySpec("explicit", p, p, c=(1, p - 2, c3)))
    return not report.triple_gap_failures


def triple_gap_unique(p: int, c3: int, records) -> bool:
    """The triple-gap uniqueness predicate on point records of
    c = (1, p-2, c3) that hold at least its violating degree-1 points:
    among the degree-1 points exactly one has top gap a_1 - a_2 > 1, it
    sits at -(2 c3)^(-1) mod p, and a_1 = 2 there."""
    hits = [r for r in records
            if r["degree"] == 1 and r["gaps"] and Fraction(r["gaps"][0]) > 1]
    want = -pow(2 * c3, p - 2, p) % p
    return len(hits) == 1 and hits[0]["x"] == want and \
        Fraction(hits[0]["slopes"][0]) == 2


# ---------------------------------------------------------------------------
# records and the aggregated report
# ---------------------------------------------------------------------------

def rational_str(value) -> str:
    f = value if type(value) is Fraction else Fraction(value)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def point_record(report: SlopeReport) -> dict:
    """Canonical JSON-safe record for one closed point.  Everything in it is
    deterministic; timing stays out by design."""
    return {
        "schema_version": SCHEMA_VERSION,
        "p": report.datum.p,
        "c": list(report.datum.c),
        "degree": report.point.degree,
        "x": report.point.x,
        "x_dlog": report.point.dlog,
        "slopes": [rational_str(s) for s in report.slopes],
        "gaps": [rational_str(g) for g in report.gaps],
        "max_gap": rational_str(report.max_gap),
        "violates": report.violates_small_gaps,
        "u_c_zero": report.degenerate,
        "u_cdual_zero": report.dual_degenerate,
        "strategy": report.strategy,
        "precision_used": report.precision,
        "fast_path": report.fast_path,
    }


def _record_key(rec: dict) -> tuple:
    return (rec["p"], tuple(rec["c"]), rec["degree"], rec["x_dlog"])


# The fields of a point record and their JSON types, as required by
# schemas/output_record.schema.json.  Types are matched with type(), so a
# bool is not an int here and floats and objects match nothing; list fields
# also name the type of their items.
_RECORD_TYPES = {
    "schema_version": (str,),
    "p": (int,),
    "c": (list,),
    "degree": (int,),
    "x": (int,),
    "x_dlog": (int,),
    "slopes": (list,),
    "gaps": (list,),
    "max_gap": (str,),
    "violates": (bool,),
    "u_c_zero": (bool,),
    "u_cdual_zero": (bool,),
    "strategy": (str, type(None)),
    "precision_used": (int, type(None)),
    "fast_path": (bool,),
}
_RECORD_ITEM_TYPES = {"c": int, "slopes": str, "gaps": str}
_MISSING = object()
# the schema's pattern for the exact rationals of slopes, gaps and max_gap
_RATIONAL = re.compile(r"^-?[0-9]+(/[1-9][0-9]*)?$")


def _head_fields(keys) -> tuple[str, ...]:
    """The head of a record with these keys: every key but x and x_dlog, in
    the given order.  A record is written as its head's sorted text followed
    by its point's, so x and x_dlog must sort after every other key."""
    ordered = sorted(keys)
    if ordered[-2:] != ["x", "x_dlog"]:
        raise ValueError(f"x and x_dlog must sort last among {ordered}")
    return tuple(k for k in keys if k not in ("x", "x_dlog"))


_HEAD_FIELDS = _head_fields(_RECORD_TYPES)


class _Head:
    """The 13 fields of a point record that its datum, degree and slope
    outcome fix: all but x and x_dlog, in point_record's key order.  The
    head's text in a JSON report and in a checkpoint line is made once, by
    the first writer that needs it, and kept here for its later points."""

    __slots__ = ("fields", "violates", "report", "line")

    def __init__(self, rec: dict):
        self.fields = {k: rec[k] for k in _HEAD_FIELDS}
        self.violates = rec["violates"]
        self.report: str | None = None
        self.line: str | None = None

    def record(self, x: int, x_dlog: int) -> dict:
        """The point record of (x, x_dlog) under this head, in point_record's
        key order, with lists of its own."""
        rec = dict.fromkeys(_RECORD_TYPES)
        rec.update(self.fields)
        rec["x"], rec["x_dlog"] = x, x_dlog
        for key in _RECORD_ITEM_TYPES:  # the list fields
            rec[key] = list(rec[key])
        return rec


def _head_value(rec: dict) -> tuple:
    """A record's head fields as one hashable value.  Each field has one
    JSON type (_RECORD_TYPES, with None apart from every other value), so
    records whose heads have equal values write the same head text."""
    return tuple(tuple(v) if type(v) is list else v
                 for v in map(rec.__getitem__, _HEAD_FIELDS))


@functools.cache
def _is_rational(text: str) -> bool:
    """Cached: a checkpoint repeats a handful of distinct rational strings."""
    return _RATIONAL.fullmatch(text) is not None


def _is_point_record(rec) -> bool:
    """Whether a parsed checkpoint line has exactly the point-record fields,
    each of its JSON type, this SCHEMA_VERSION and every rational string
    matching the schema's pattern.  The values themselves are not
    re-checked."""
    if type(rec) is not dict or len(rec) != len(_RECORD_TYPES):
        return False
    for key, types in _RECORD_TYPES.items():
        if type(rec.get(key, _MISSING)) not in types:
            return False
    for key, item in _RECORD_ITEM_TYPES.items():
        for v in rec[key]:
            if type(v) is not item:
                return False
    return rec["schema_version"] == SCHEMA_VERSION and \
        all(map(_is_rational, (*rec["slopes"], *rec["gaps"], rec["max_gap"])))


_encode_str = json.encoder.encode_basestring_ascii

# JSON text of each scalar type a flat record holds, as json.dumps writes it
_RENDER_SCALAR = {
    str: _encode_str,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _render_scalar(v) -> str:
    render = _RENDER_SCALAR.get(type(v))
    if render is None:
        raise TypeError(f"a flat record holds no {type(v).__name__}")
    return render(v)


def _render_scalar_list(values: list) -> str:
    """A list of scalars as a record field, at depth 3 of the document."""
    if not values:
        return "[]"
    return "[\n        " + ",\n        ".join(map(_render_scalar, values)) + "\n      ]"


def _render_header(value) -> str:
    """A small top-level value of the report, as json.dumps renders it at
    depth 1 of the document."""
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  ")


def _family_payload(spec: FamilySpec) -> dict:
    family = {"kind": spec.kind, "p_min": spec.p_min, "p_max": spec.p_max,
              "m_max": spec.m_max}
    if spec.c is not None:
        family["c"] = list(spec.c)
    return family


_ITEM_END = "\n    }"  # the end of a record's text in the report


class ReportWriter:
    """The JSON report of one scan, written to a text stream as its records
    arrive: the text of json.dumps(payload, sort_keys=True, indent=2) + "\n".
    The sorted keys put "records" after "family" and before the summary and
    the violations, so a record is rendered and written as soon as it
    arrives and only the point count is kept; close() writes the rest.  The
    writer holds no report text of its own: buffering is the stream's.

    This is the one renderer of a scan report: scan_family writes to one
    whether or not its caller passed one.  A scan hands each point over as
    its head and its (x, x_dlog) through write_point: the head's fields are
    rendered on its first point and the text kept on the head, and every
    point is written as that text followed by its two fields, which sort
    last.  close() renders the violations whole.

    Heads and violations are flat (string keys; scalar or scalar-list
    values) and are rendered directly, since json.dumps with indent set runs
    CPython's pure-Python encoder: one layout of key heads per shape, and
    the text of each scalar list memoised on its element types as well as
    its values, since (True,) == (1,)."""

    def __init__(self, spec: FamilySpec, stream):
        self.points = 0
        self._put = stream.write
        self._layouts: dict[tuple, list] = {}
        self._lists: dict = {}
        self._put(f'{{\n  "family": {_render_header(_family_payload(spec))},\n'
                  f'  "records": ')

    def _render(self, rec: dict) -> str:
        shape = tuple(rec)
        layout = self._layouts.get(shape)
        if layout is None:
            layout = self._layouts[shape] = [(k, f"\n      {_encode_str(k)}: ")
                                             for k in sorted(shape)]
        fields = []
        for key, head in layout:
            v = rec[key]
            if type(v) is list:
                memo = (tuple(v), tuple(map(type, v)))
                text = self._lists.get(memo)
                if text is None:
                    text = self._lists[memo] = _render_scalar_list(v)
            else:
                text = _render_scalar(v)
            fields.append(head + text)
        return "{" + ",".join(fields) + _ITEM_END if fields else "{}"

    def _put_item(self, text: str, index: int):
        self._put((",\n    " if index else "[\n    ") + text)

    def write_point(self, head: _Head, x: int, x_dlog: int):
        text = head.report
        if text is None:
            text = head.report = \
                self._render(head.fields)[:-len(_ITEM_END)] + ',\n      "x": '
        self._put_item(f'{text}{x},\n      "x_dlog": {x_dlog}{_ITEM_END}', self.points)
        self.points += 1

    def close(self, datum_count: int, violations):
        """End the records and write the schema version, the summary and
        the violations."""
        summary = {"datums": datum_count, "points": self.points,
                   "violations": len(violations)}
        self._put(("\n  ]" if self.points else "[]") +
                  f',\n  "schema_version": {_encode_str(SCHEMA_VERSION)}'
                  f',\n  "summary": {_render_header(summary)}'
                  ',\n  "violations": ')
        for i, rec in enumerate(violations):
            self._put_item(self._render(rec), i)
        self._put(("\n  ]" if violations else "[]") + "\n}\n")


@dataclass(frozen=True)
class CounterexampleReport:
    """Aggregated scan outcome: the report's text (None when the scan wrote
    it to its caller's writer), the gap violations with their
    expected/discovery flag, and counts.  elapsed_s and
    triple_gap_failures, the (p, c3) of every triple-gap datum whose
    degree-1 violations fail triple_gap_unique, are run metadata and stay
    out of the report."""

    spec: FamilySpec
    text: str | None
    violations: tuple[dict, ...]
    datum_count: int
    elapsed_s: float
    triple_gap_failures: tuple[tuple[int, int], ...]

    def to_bytes(self) -> bytes:
        """The report as ReportWriter wrote it: the bytes of
        json.dumps(payload, sort_keys=True, indent=2) + "\n".  A report
        whose scan wrote to its caller's writer refuses: the writer's stream
        holds the report."""
        if self.text is None:
            raise ValueError("the scan wrote its records to its writer, "
                             "which holds the report")
        return self.text.encode()


class _Checkpoint:
    """Append-only NDJSON store of point records, one per line, each the
    text of json.dumps(record, sort_keys=True).  A record is written as its
    head's sorted text, made once per head and kept on it, followed by x
    and x_dlog, which sort last; each line is flushed as it is written.

    The lines loaded from it are served by (p, c, degree, x_dlog), each as
    (head, x, line number): lines whose head fields are equal share one
    head, so a resume holds a handful of heads and three numbers per line
    rather than a record per line.  serve() refuses a line whose x is not
    the element at its x_dlog, naming it as path:line.

    A torn or unparseable line from an interrupted run is dropped on load,
    and a torn final line is ended with a newline when the file is opened
    for appending, so new records start on a line of their own.  A line
    that parses but is not a point record of this schema version (exactly
    its fields, each of its JSON type, rationals matching the schema's
    pattern) is refused before the file is opened for appending: a record
    of another version may carry a precision_used of another meaning, so it
    is never mixed in."""

    def __init__(self, path: str | None):
        self._path = path
        self._fh = None
        self._served: dict[tuple, tuple[_Head, int, int]] = {}
        heads: dict[tuple, _Head] = {}
        torn = False
        if path and os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, 1):
                    torn = not line.endswith("\n")
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        rec = json.loads(line)
                    except json.JSONDecodeError:
                        continue
                    if not _is_point_record(rec):
                        raise MalformedInput(
                            f"{path}:{lineno}: checkpoint line is not a point record")
                    value = _head_value(rec)
                    head = heads.get(value)
                    if head is None:
                        head = heads[value] = _Head(rec)
                    # value[1:4] is (p, c, degree), with c as a tuple
                    self._served[(*value[1:4], rec["x_dlog"])] = (head, rec["x"], lineno)
        if path:
            self._fh = open(path, "a", encoding="utf-8")
            if torn:
                self._fh.write("\n")

    def serve(self, datum: HypergeometricDatum, degree: int, x: int,
              x_dlog: int) -> _Head | None:
        """The head of the loaded line at the point (x, x_dlog) of this
        degree, or None if no line holds it."""
        entry = self._served.get((datum.p, datum.c, degree, x_dlog))
        if entry is None:
            return None
        head, served_x, lineno = entry
        if served_x != x:
            raise MalformedInput(
                f"{self._path}:{lineno}: checkpoint line has x = {served_x}, "
                f"but the element at x_dlog {x_dlog} is {x}")
        return head

    def add(self, head: _Head, x: int, x_dlog: int):
        if self._fh is not None:
            text = head.line
            if text is None:
                text = head.line = json.dumps(head.fields, sort_keys=True)[:-1] + ', "x": '
            self._fh.write(f'{text}{x}, "x_dlog": {x_dlog}}}\n')
            self._fh.flush()

    def close(self):
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def scan_family(spec: FamilySpec, checkpoint: str | None = None,
                writer=None) -> CounterexampleReport:
    """Run the family sweep point by point, with the automatic strategy, and
    aggregate a deterministic report from the points of the spec alone.
    Points whose records are already in the checkpoint are not recomputed;
    every new record is appended to it as soon as it exists.  Datums come
    in (p, c) order and points in (degree, dlog) order, so the records are
    in _record_key order as they are made.

    Each point's record is a head (see _Head) plus its x and x_dlog.  A
    fast-path head depends on the datum and the degree alone, so one head
    table, keyed by degree and cleared at each datum, makes and renders it
    once; any other point builds a head of its own, kept no longer than the
    point.  A served point takes the head of its checkpoint line.

    Each point is handed to the writer (a ReportWriter, or anything with
    its write_point(head, x, x_dlog) and close(datum_count, violations)) as
    soon as it exists, and the scan keeps only the violations.  Without a
    writer the scan writes to a ReportWriter over an in-memory stream, and
    the returned report holds its text; with one, the report's text is
    None.  A triple-gap datum's verdict reads only its degree-1 violations,
    since a top gap above 1 makes a record violate.
    """
    t0 = time.monotonic()
    datums = family_members(spec)
    buf = None
    if writer is None:
        buf = io.StringIO()
        writer = ReportWriter(spec, buf)
    violations: list[dict] = []
    failures: list[tuple[int, int]] = []
    fast_heads: dict[int, _Head] = {}
    store = _Checkpoint(checkpoint)
    try:
        for datum in datums:
            expected = predicted_violation_points(datum)
            c3 = _triple_gap_c3(datum)
            first = len(violations)
            fast_heads.clear()
            for degree in range(1, spec.m_max + 1):
                for pt in closed_points(field_create(datum.p, degree)):
                    x, x_dlog = pt.x, pt.dlog
                    head = store.serve(datum, degree, x, x_dlog)
                    if head is None:
                        report = slopes_at_point(datum, pt)
                        if not report.fast_path:
                            head = _Head(point_record(report))
                        else:
                            head = fast_heads.get(degree)
                            if head is None:
                                head = fast_heads[degree] = _Head(point_record(report))
                        store.add(head, x, x_dlog)
                    writer.write_point(head, x, x_dlog)
                    if head.violates:
                        rec = head.record(x, x_dlog)
                        rec["expected"] = degree == 1 and x in expected
                        violations.append(rec)
                if degree == 1 and c3 is not None and \
                        not triple_gap_unique(datum.p, c3, violations[first:]):
                    failures.append((datum.p, c3))
        writer.close(len(datums), violations)
    finally:
        store.close()
    return CounterexampleReport(spec, None if buf is None else buf.getvalue(),
                                tuple(violations), len(datums),
                                time.monotonic() - t0, tuple(failures))
