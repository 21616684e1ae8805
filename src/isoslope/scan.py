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
# at p = 11.  All verified with every strategy and against the enumeration
# oracle in reference.py.
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


class ReportWriter:
    """The JSON report of one scan, written to a text stream as its records
    arrive: the text of json.dumps(payload, sort_keys=True, indent=2) + "\n".
    The sorted keys put "records" after "family" and before the summary and
    the violations, so a record is rendered and written as soon as it
    arrives and only the point count is kept; close() writes the rest.  The
    writer holds no text of its own: buffering is the stream's.

    Records are flat (string keys; scalar or scalar-list values) and are
    rendered directly, since json.dumps with indent set runs CPython's
    pure-Python encoder: one layout of key heads per record shape, and the
    text of each scalar list memoised on its element types as well as its
    values, since (True,) == (1,)."""

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
        return "{" + ",".join(fields) + "\n    }" if fields else "{}"

    def _put_item(self, rec: dict, index: int):
        self._put((",\n    " if index else "[\n    ") + self._render(rec))

    def write(self, rec: dict):
        self._put_item(rec, self.points)
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
            self._put_item(rec, i)
        self._put(("\n  ]" if violations else "[]") + "\n}\n")


@dataclass(frozen=True)
class CounterexampleReport:
    """Aggregated scan outcome: the point records (None when the scan wrote
    them to a writer), the gap violations with their expected/discovery
    flag, and counts.  elapsed_s and triple_gap_failures, the (p, c3) of
    every triple-gap datum whose degree-1 violations fail
    triple_gap_unique, are run metadata and excluded from the serialized
    payload.  A report whose records went to a writer refuses to render."""

    spec: FamilySpec
    records: tuple[dict, ...] | None
    violations: tuple[dict, ...]
    datum_count: int
    elapsed_s: float
    triple_gap_failures: tuple[tuple[int, int], ...]

    def payload(self) -> dict:
        if self.records is None:
            raise ValueError("the scan wrote its records to its writer, "
                             "which holds the report")
        return {
            "schema_version": SCHEMA_VERSION,
            "family": _family_payload(self.spec),
            "summary": {
                "datums": self.datum_count,
                "points": len(self.records),
                "violations": len(self.violations),
            },
            "violations": list(self.violations),
            "records": list(self.records),
        }

    def to_bytes(self) -> bytes:
        """The payload as canonical JSON, rendered by ReportWriter: the
        bytes of json.dumps(payload, sort_keys=True, indent=2) + "\n"."""
        payload = self.payload()  # refuses a report whose records are gone
        buf = io.StringIO()
        writer = ReportWriter(self.spec, buf)
        for rec in payload["records"]:
            writer.write(rec)
        writer.close(self.datum_count, self.violations)
        return buf.getvalue().encode()


class _Checkpoint:
    """Append-only NDJSON store; records loaded from it are keyed by
    (p, c, degree, x_dlog).  A torn or unparseable line from an interrupted
    run is dropped on load, and a torn final line is ended with a newline
    when the file is opened for appending, so new records start on a line
    of their own.  A line that parses but is not a point record of this
    schema version (exactly its fields, each of its JSON type, rationals
    matching the schema's pattern) is refused before the file is opened
    for appending: a record of another version may carry a precision_used
    of another meaning, so it is never mixed in."""

    def __init__(self, path: str | None):
        self._fh = None
        self.records: dict[tuple, dict] = {}
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
                    self.records[_record_key(rec)] = rec
        if path:
            self._fh = open(path, "a", encoding="utf-8")
            if torn:
                self._fh.write("\n")

    def add(self, rec: dict):
        if self._fh is not None:
            self._fh.write(json.dumps(rec, sort_keys=True) + "\n")
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

    With a writer (a ReportWriter, or anything with its write(rec) and
    close(datum_count, violations)), each record is handed to it as soon as
    it exists, the scan keeps only the violations, and the returned report's
    records are None.  Without one the records are kept in the report.  A
    triple-gap datum's verdict reads only its degree-1 violations, since a
    top gap above 1 makes a record violate.
    """
    t0 = time.monotonic()
    datums = family_members(spec)
    records: list[dict] = []
    write = records.append if writer is None else writer.write
    violations: list[dict] = []
    failures: list[tuple[int, int]] = []
    store = _Checkpoint(checkpoint)
    try:
        for datum in datums:
            expected = predicted_violation_points(datum)
            c3 = _triple_gap_c3(datum)
            first = len(violations)
            for degree in range(1, spec.m_max + 1):
                for pt in closed_points(field_create(datum.p, degree)):
                    rec = store.records.get((datum.p, datum.c, degree, pt.dlog))
                    if rec is None:
                        rec = point_record(slopes_at_point(datum, pt))
                        store.add(rec)
                    write(rec)
                    if rec["violates"]:
                        violations.append(
                            {**rec, "expected": degree == 1 and rec["x"] in expected})
                if degree == 1 and c3 is not None and \
                        not triple_gap_unique(datum.p, c3, violations[first:]):
                    failures.append((datum.p, c3))
        if writer is not None:
            writer.close(len(datums), violations)
    finally:
        store.close()
    return CounterexampleReport(spec, tuple(records) if writer is None else None,
                                tuple(violations), len(datums),
                                time.monotonic() - t0, tuple(failures))
