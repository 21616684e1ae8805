"""Sweep orchestration: slope reports over point ranges and datum families.

Two built-in families.  The quintic family takes c_i = i(p-1)/5 at primes
p = 1 mod 5; its p = 31 member is the smallest known source of half-integral
slope vectors, at the points 4 and 17.  The triple-gap family c = (1, p-2,
c3) with c3 != (p-1)/2 has closed-form degeneracy loci: the library predicts
a top-gap violation at -(2 c3)^(-1) and a bottom-gap violation at
(2(c3+1))^(-1), both mod p.  Scan output flags violations at predicted
points as expected and anything else as a discovery.

Scans run serially and are resumable (append-only newline-delimited JSON
checkpoint, one record per point that did p-adic work) and deterministic:
the aggregated report bytes are the same whether the records were computed
fresh or served from the checkpoint.  Timing never enters the report
payload for that reason.

At rank n <= 3 a scan does p-adic work only at the degenerate points, the
roots of the mod-p polynomial u of the datum or of its dual, found per
(datum, degree) by factoring u; every other point has the generic slope
vector, shares one record head per degree and never enters the checkpoint.

A point record is written as a head plus a point.  The head holds the 13
fields fixed by the datum, the degree and the slope outcome; the point holds
x and x_dlog, which sort after every other key.  The report renders each
head's text once and writes each point as that text followed by its own
two fields.  A resume parses each checkpoint line and checks it against
the invariants its slopes force before serving it.
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
from .coweight import RootDatum, small_gaps
from .errors import InvalidC3, IsoslopeError, MalformedInput, NotPrime, PrimeTooSmall
from .hyper import (
    FAST_PATH_MAX_RANK,
    STRATEGIES,
    HypergeometricDatum,
    PointSpec,
    SlopeReport,
    _check_slopes,
    _generic_profile,
    auto_precision,
    degeneracy_loci,
    gap_profile,
    point_dlogs,
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
    head's text in a JSON report is made once, by the report's writer, and
    kept here for its later points."""

    __slots__ = ("fields", "violates", "report")

    def __init__(self, rec: dict):
        self.fields = {k: rec[k] for k in _HEAD_FIELDS}
        self.violates = rec["violates"]
        self.report: str | None = None

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


def _check_outcome(p: int, c: tuple, degree: int, slopes: tuple, gaps: tuple,
                   max_gap: str, violates: bool, degenerate: bool,
                   dual_degenerate: bool, strategy: str | None,
                   precision: int | None, fast_path: bool) -> None:
    """Re-check a checkpoint line's head (its fields after schema_version)
    against what the mathematics forces, raising AssertionError or an
    IsoslopeError where it fails:
    - hyper._check_slopes: slope sum, range, both degeneracy flags, the
      polygon on or above the generic one;
    - slopes, gaps, max_gap and violates as rational_str and gap_profile
      write them from the slopes, and the gaps and the verdict once more
      from the G-form of the bound, coweight.small_gaps(RootDatum.gl(n), .);
    - a fast-path head is _generic_profile(n), at a rank that has the fast
      path; any other names a strategy and a precision from 1 to
      auto_precision.
    Of the datum only its rank n reaches a check (auto_precision reads n
    alone), so a load checks each (n, degree, outcome) once."""
    datum = HypergeometricDatum(p, c)
    n = datum.n
    vals = tuple(map(Fraction, slopes))
    _check_slopes(n, vals, degenerate, dual_degenerate, fast_path)
    profile = gap_profile(vals)
    if (slopes, gaps, max_gap, violates) != (
            tuple(map(rational_str, vals)), tuple(map(rational_str, profile[0])),
            rational_str(profile[1]), profile[2]):
        raise AssertionError("slopes, gaps, max_gap or violates are not as the "
                             "slopes give them")
    g_form = small_gaps(RootDatum.gl(n), vals)
    if g_form.gaps != profile[0] or g_form.satisfied == violates:
        raise AssertionError("the small-gaps bound disagrees with gaps or violates")
    if fast_path:
        generic = _generic_profile(n)
        if n > FAST_PATH_MAX_RANK or \
                (vals, *profile, degenerate, dual_degenerate, strategy, precision,
                 fast_path) != (tuple(generic[0]), *generic[1:]):
            raise AssertionError("a fast-path head is not the generic one")
    elif strategy not in STRATEGIES or precision is None or \
            not 1 <= precision <= auto_precision(datum, degree, strategy):
        raise AssertionError(f"precision {precision} under strategy {strategy!r} "
                             f"is not from 1 to auto_precision")


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
    CPython's pure-Python encoder, with one layout of key heads per
    shape."""

    def __init__(self, spec: FamilySpec, stream):
        self.points = 0
        self._put = stream.write
        self._layouts: dict[tuple, list] = {}
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
            fields.append(head + (_render_scalar_list(v) if type(v) is list
                                  else _render_scalar(v)))
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
    """Append-only NDJSON store of the point records that did p-adic work,
    one per line, each the text of json.dumps(record, sort_keys=True) and
    flushed as it is written.  Each such point has a head of its own, so a
    line is rendered whole.

    The lines loaded from it are served by (p, c, degree, x_dlog), each as
    (head, x, line number): lines whose head fields are equal share one
    head, so a resume holds its distinct heads and three numbers per line
    rather than a record per line.  serve() refuses a line whose x is not
    the element at its x_dlog, or whose degeneracy flags are not those the
    root sets give its point, naming it as path:line.

    A torn, undecodable or unparseable line from an interrupted run is
    dropped on load (bytes that are not UTF-8 are read as U+FFFD, which
    can only stand inside a string, and every string field is checked; an
    integer past Python's digit limit does not parse), and a torn final
    line is ended with a newline when the file is opened for appending, so
    new records start on a line of their own.  A line that parses but is
    not a point record of this schema version (exactly its fields, each of
    its JSON type, rationals matching the schema's pattern) is refused
    before the file is opened for appending: a record of another version
    may carry a precision_used of another meaning, so it is never mixed in.
    So is a line whose head breaks an invariant of its slopes
    (_check_outcome, run once per distinct outcome).  A lie that keeps
    every invariant and the root sets is served: only recomputation would
    find it."""

    def __init__(self, path: str | None):
        self._path = path
        self._fh = None
        self._served: dict[tuple, tuple[_Head, int, int]] = {}
        heads: dict[tuple, _Head] = {}
        checked: set[tuple] = set()
        torn = False
        if path and os.path.exists(path):
            with open(path, encoding="utf-8", errors="replace") as fh:
                for lineno, line in enumerate(fh, 1):
                    torn = not line.endswith("\n")
                    line = line.strip()
                    if line:
                        self._parse(line, lineno, heads, checked)
        if path:
            self._fh = open(path, "a", encoding="utf-8")
            if torn:
                self._fh.write("\n")

    def _parse(self, line: str, lineno: int, heads: dict, checked: set):
        """Load a stripped line into the served lines, or drop it if it does
        not parse; MalformedInput if it is not a point record or its head
        breaks an invariant of its slopes.  A head equal to one in heads is
        that head, and an outcome in checked is not checked again."""
        try:
            rec = json.loads(line)
        except ValueError:  # JSONDecodeError, or an integer past the digit limit
            return
        if not _is_point_record(rec):
            raise MalformedInput(
                f"{self._path}:{lineno}: checkpoint line is not a point record")
        value = _head_value(rec)
        head = heads.get(value)
        if head is None:
            outcome = (len(value[2]), *value[3:])  # (n, degree, ...)
            if outcome not in checked:
                try:
                    _check_outcome(*value[1:])
                except (AssertionError, IsoslopeError) as exc:
                    raise MalformedInput(
                        f"{self._path}:{lineno}: checkpoint line breaks an "
                        f"invariant of its slopes: {exc}") from exc
                checked.add(outcome)
            head = heads[value] = _Head(rec)
        # value[1:4] is (p, c, degree), with c as a tuple
        self._served[(*value[1:4], rec["x_dlog"])] = (head, rec["x"], lineno)

    def serve(self, datum: HypergeometricDatum, degree: int, x: int, x_dlog: int,
              flags: tuple[bool, bool]) -> _Head | None:
        """The head of the loaded line at the point (x, x_dlog) of this
        degree, or None if no line holds it.  flags are the point's u_c_zero
        and u_cdual_zero as the root sets give them, and the line must carry
        them."""
        entry = self._served.get((datum.p, datum.c, degree, x_dlog))
        if entry is None:
            return None
        head, served_x, lineno = entry
        if served_x != x:
            raise MalformedInput(
                f"{self._path}:{lineno}: checkpoint line has x = {served_x}, "
                f"but the element at x_dlog {x_dlog} is {x}")
        carried = head.fields["u_c_zero"], head.fields["u_cdual_zero"]
        if flags != carried:
            raise MalformedInput(
                f"{self._path}:{lineno}: checkpoint line has (u_c_zero, u_cdual_zero) "
                f"= {carried}, but the root sets give {flags}")
        return head

    def add(self, head: _Head, x: int, x_dlog: int):
        if self._fh is not None:
            self._fh.write(json.dumps(head.record(x, x_dlog), sort_keys=True) + "\n")
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
    in ascending (p, c) and, within a datum, points in ascending (degree,
    dlog), so the records come sorted by (p, c, degree, x_dlog).  A point
    is its dlog from hyper.point_dlogs and x = exp[dlog]; only a point
    handed to slopes_at_point is made a PointSpec.

    Each point's record is a head (see _Head) plus its x and x_dlog.  The
    root sets of u and of the dual's u (hyper.degeneracy_loci, by
    factoring) are found once per (datum, degree), resumed or not, and give
    every point its degeneracy flags: a served line must carry them, and so
    must every report slopes_at_point computes.  At rank n <=
    FAST_PATH_MAX_RANK only the points in the sets can leave the generic
    fast path.  Such a point is served from the checkpoint if a line holds
    it; otherwise it goes through slopes_at_point, which must compute it
    off the fast path, and its record is appended to the checkpoint.  The
    first point outside them goes through slopes_at_point too, which must
    take the fast path; its head depends on the datum and the degree alone,
    so the later points of that degree outside the sets reuse it with no
    call.  Such points are never looked up in the checkpoint nor added to
    it.  So hyper keeps the one definition of the fast path, and the scan
    checks its root sets against it.  At a higher rank every point is
    served from the checkpoint or goes through slopes_at_point and into it.

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
    store = _Checkpoint(checkpoint)
    try:
        for datum in datums:
            expected = predicted_violation_points(datum)
            c3 = _triple_gap_c3(datum)
            first = len(violations)
            low_rank = datum.n <= FAST_PATH_MAX_RANK
            for degree in range(1, spec.m_max + 1):
                field = field_create(datum.p, degree)
                exp, loci = field.exp, degeneracy_loci(datum, field)
                fast_head = None
                for x_dlog in point_dlogs(field):
                    x = exp[x_dlog]
                    flags = x in loci[0], x in loci[1]
                    fast = flags == (False, False) and low_rank
                    head = fast_head if fast else \
                        store.serve(datum, degree, x, x_dlog, flags)
                    if head is None:
                        report = slopes_at_point(datum, PointSpec(field, x))
                        got = report.degenerate, report.dual_degenerate
                        if report.fast_path != fast or flags != got:
                            raise AssertionError(
                                f"p = {datum.p}, c = {datum.c}, degree {degree}, "
                                f"x = {x}: the root sets give fast_path {fast} and "
                                f"flags {flags}, slopes_at_point {report.fast_path} "
                                f"and {got}")
                        head = _Head(point_record(report))
                        if fast:
                            fast_head = head
                        else:
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
