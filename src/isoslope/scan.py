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

import json
import os
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

SCHEMA_VERSION = "1"

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


def scan_points(datum: HypergeometricDatum, m_max: int = 1) -> list[SlopeReport]:
    """Slope report (automatic strategy) at every closed point of degree
    <= m_max, ordered by degree then representative dlog."""
    if m_max < 1:
        raise MalformedInput(f"need m_max >= 1, got {m_max}")
    out = []
    for degree in range(1, m_max + 1):
        field = field_create(datum.p, degree)
        for pt in closed_points(field):
            out.append(slopes_at_point(datum, pt))
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
    triple_gap_unique to the records."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if p < 5:
        raise PrimeTooSmall(f"need p >= 5, got {p}")
    if not 1 <= c3 <= p - 2:
        raise InvalidC3(f"c3 must lie in [1, {p - 2}], got {c3}")
    if 2 * c3 == p - 1:
        raise InvalidC3(f"c3 = (p-1)/2 = {c3} is excluded")
    datum = HypergeometricDatum(p, (1, p - 2, c3))
    return triple_gap_unique(p, c3, [point_record(r) for r in scan_points(datum, 1)])


def triple_gap_unique(p: int, c3: int, records) -> bool:
    """The triple-gap uniqueness predicate on the point records of
    c = (1, p-2, c3): among the degree-1 points exactly one has top gap
    a_1 - a_2 > 1, it sits at -(2 c3)^(-1) mod p, and a_1 = 2 there."""
    hits = [r for r in records
            if r["degree"] == 1 and r["gaps"] and Fraction(r["gaps"][0]) > 1]
    want = -pow(2 * c3, p - 2, p) % p
    return len(hits) == 1 and hits[0]["x"] == want and \
        Fraction(hits[0]["slopes"][0]) == 2


def triple_gap_failures(report: CounterexampleReport) -> list[tuple[int, int]]:
    """(p, c3) of every triple-gap datum of the report whose records fail
    triple_gap_unique."""
    by_datum: dict[tuple, list[dict]] = {}
    for rec in report.records:
        by_datum.setdefault((rec["p"], tuple(rec["c"])), []).append(rec)
    failures = []
    for datum in family_members(report.spec):
        c3 = _triple_gap_c3(datum)
        if c3 is not None and not triple_gap_unique(
                datum.p, c3, by_datum.get((datum.p, datum.c), ())):
            failures.append((datum.p, c3))
    return failures


# ---------------------------------------------------------------------------
# records and the aggregated report
# ---------------------------------------------------------------------------

def rational_str(value) -> str:
    f = Fraction(value)
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


@dataclass(frozen=True)
class CounterexampleReport:
    """Aggregated scan outcome: every point record, the gap violations with
    their expected/discovery flag, and counts.  elapsed_s is run metadata
    and excluded from the serialized payload."""

    spec: FamilySpec
    records: tuple[dict, ...]
    violations: tuple[dict, ...]
    datum_count: int
    elapsed_s: float

    def payload(self) -> dict:
        family = {
            "kind": self.spec.kind,
            "p_min": self.spec.p_min,
            "p_max": self.spec.p_max,
            "m_max": self.spec.m_max,
        }
        if self.spec.c is not None:
            family["c"] = list(self.spec.c)
        return {
            "schema_version": SCHEMA_VERSION,
            "family": family,
            "summary": {
                "datums": self.datum_count,
                "points": len(self.records),
                "violations": len(self.violations),
            },
            "violations": list(self.violations),
            "records": list(self.records),
        }

    def to_bytes(self) -> bytes:
        return (json.dumps(self.payload(), sort_keys=True, indent=2) + "\n").encode()


class _Checkpoint:
    """Append-only NDJSON store keyed by (p, c, degree, x_dlog).  A torn
    final line from an interrupted run is dropped on load and ended with a
    newline when the file is opened for appending, so new records start on
    a line of their own."""

    def __init__(self, path: str | None):
        self.path = path
        self._fh = None
        self.records: dict[tuple, dict] = {}
        torn = False
        if path and os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    torn = not line.endswith("\n")
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        rec = json.loads(line)
                    except json.JSONDecodeError:
                        continue
                    self.records[_record_key(rec)] = rec
        if path:
            self._fh = open(path, "a", encoding="utf-8")
            if torn:
                self._fh.write("\n")

    def add(self, rec: dict):
        self.records[_record_key(rec)] = rec
        if self._fh is not None:
            self._fh.write(json.dumps(rec, sort_keys=True) + "\n")
            self._fh.flush()

    def close(self):
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def scan_family(spec: FamilySpec, checkpoint: str | None = None) -> CounterexampleReport:
    """Run the family sweep point by point, with the automatic strategy, and
    aggregate a deterministic report.  Points whose records are already in
    the checkpoint are not recomputed; every new record is appended to it as
    soon as it exists.
    """
    t0 = time.monotonic()
    datums = family_members(spec)
    store = _Checkpoint(checkpoint)
    try:
        for datum in datums:
            for degree in range(1, spec.m_max + 1):
                for pt in closed_points(field_create(datum.p, degree)):
                    if (datum.p, datum.c, degree, pt.dlog) not in store.records:
                        store.add(point_record(slopes_at_point(datum, pt)))
    finally:
        store.close()

    records = tuple(sorted(store.records.values(), key=_record_key))
    violations = []
    expected_cache: dict[tuple, frozenset] = {}
    for rec in records:
        if not rec["violates"]:
            continue
        dkey = (rec["p"], tuple(rec["c"]))
        if dkey not in expected_cache:
            expected_cache[dkey] = predicted_violation_points(
                HypergeometricDatum(rec["p"], tuple(rec["c"])))
        entry = dict(rec)
        entry["expected"] = rec["degree"] == 1 and rec["x"] in expected_cache[dkey]
        violations.append(entry)
    return CounterexampleReport(spec, records, tuple(violations), len(datums),
                                time.monotonic() - t0)
