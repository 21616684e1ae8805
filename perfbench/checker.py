"""Independent checks of isoslope output records.

Nothing here imports isoslope: the point counts, the degeneracy polynomials
and their factorisations over GF(p) are recomputed from scratch, so a bug in
the library cannot make its own output look right.

A `Verdict` counts the closed points a run should produce (`attempted`) and
the points that failed a check (`failed`).  A point fails when its record
breaks a property, is duplicated, or is missing; a per-(datum, degree) count
that disagrees with the factorisation of the degeneracy polynomial fails as
many points as the counts differ by.  `problems` lists the reasons, first few
only, for the run's log.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

MAX_PROBLEMS = 20


class Verdict:
    def __init__(self):
        self.attempted = 0
        self.bad: set = set()
        self.unplaced = 0
        self.problems: list[str] = []

    def note(self, reason: str):
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(reason)

    def fail(self, key, reason: str):
        self.bad.add(key)
        self.note(f"{key}: {reason}")

    def fail_count(self, count: int, reason: str):
        self.unplaced += count
        self.note(reason)

    @property
    def failed(self) -> int:
        return min(self.attempted, len(self.bad) + self.unplaced)


# ---------------------------------------------------------------------------
# counting and factoring over GF(p)
# ---------------------------------------------------------------------------

def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _mobius(n: int) -> int:
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


def irreducible_count(p: int, m: int) -> int:
    """Monic irreducible polynomials of degree m over GF(p) (Gauss)."""
    total = sum(_mobius(d) * p ** (m // d) for d in range(1, m + 1) if m % d == 0)
    return total // m


def closed_point_count(p: int, m: int) -> int:
    """Closed points of degree m on the line minus {0, 1, infinity}."""
    return p - 2 if m == 1 else irreducible_count(p, m)


def degeneracy_poly(p: int, c) -> list[int]:
    """u_c(X) = sum_r (-1)^(n r) prod_i binom(c_i, r) X^r mod p, low first."""
    n = len(c)
    out = []
    for r in range(min(c) + 1):
        t = 1
        for ci in c:
            t = t * comb(ci, r) % p
        out.append(-t % p if n * r % 2 else t)
    return _trim(out)


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _rem(a, f, p):
    a = list(a)
    inv = pow(f[-1], -1, p)
    df = len(f) - 1
    while len(a) - 1 >= df:
        lead = a[-1] * inv % p
        shift = len(a) - 1 - df
        for i, fi in enumerate(f):
            a[shift + i] = (a[shift + i] - lead * fi) % p
        _trim(a)
    return a


def _mulmod(a, b, f, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _rem(_trim(out), f, p)


def _powmod(a, e, f, p):
    acc, cur = [1], _rem(a, f, p)
    while e:
        if e & 1:
            acc = _mulmod(acc, cur, f, p)
        cur = _mulmod(cur, cur, f, p)
        e >>= 1
    return acc


def _gcd(a, b, p):
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _rem(a, b, p)
    return a


def _sub(a, b, p):
    out = [0] * max(len(a), len(b))
    for i, v in enumerate(a):
        out[i] = v
    for i, v in enumerate(b):
        out[i] = (out[i] - v) % p
    return _trim(out)


def factor_degree_counts(u, p: int, m_max: int) -> dict[int, int]:
    """Distinct monic irreducible factors of u of each degree <= m_max,
    leaving out X and X - 1, whose roots are not points of the family.

    deg gcd(u, X^(p^m) - X) = sum over d | m of d * N_d, solved for N_m.
    """
    counts: dict[int, int] = {}
    h = [0, 1]
    for m in range(1, m_max + 1):
        h = _powmod(h, p, u, p)  # X^(p^m) mod u
        g = _gcd(u, _sub(h, [0, 1], p), p) if len(u) > 1 else []
        covered = len(g) - 1 if g else 0
        lower = sum(d * counts[d] for d in counts if m % d == 0)
        counts[m] = (covered - lower) // m
    if len(u) > 1:
        counts[1] -= (u[0] == 0) + (sum(u) % p == 0)
    return counts


# ---------------------------------------------------------------------------
# per-record and per-group checks
# ---------------------------------------------------------------------------

def record_key(rec) -> tuple:
    return (rec["p"], tuple(rec["c"]), rec["degree"], rec["x_dlog"])


@lru_cache(maxsize=None)
def _parse(slopes: tuple) -> tuple:
    return tuple(Fraction(v) for v in slopes)


def slopes_of(rec) -> tuple:
    return _parse(tuple(rec["slopes"]))


def record_faults(rec) -> list[str]:
    """Properties every point record must have, from its slopes alone."""
    out = list(_slope_faults(tuple(rec["slopes"]), tuple(rec["gaps"]), rec["violates"],
                             len(rec["c"]), rec["degree"]))
    if rec["degree"] == 1 and not 2 <= rec["x"] <= rec["p"] - 1:
        out.append(f"degree-1 point x = {rec['x']} is not in [2, p-1]")
    return out


@lru_cache(maxsize=None)
def _slope_faults(slopes: tuple, gaps: tuple, violates: bool, n: int, m: int) -> tuple:
    s = _parse(slopes)
    if len(s) != n:
        return (f"{len(s)} slopes for rank {n}",)
    out = []
    if any(a < b for a, b in zip(s, s[1:])):
        out.append(f"slopes {list(slopes)} do not descend")
    if sum(s) != Fraction(n * (n - 1), 2):
        out.append(f"slope sum {sum(s)} != {n * (n - 1) // 2}")
    if any(not 0 <= v <= n - 1 for v in s):
        out.append(f"slopes {list(slopes)} leave [0, {n - 1}]")
    asc = sorted(s)
    total = Fraction(0)
    for k, v in enumerate(asc, 1):
        total += v
        if total < Fraction(k * (k - 1), 2):
            out.append(f"Newton polygon below Hodge at {k}")
            break
        if (k == n or asc[k] != v) and (total * m).denominator != 1:
            out.append(f"vertex at {k} not integral after scaling by {m}")
            break
    diffs = [a - b for a, b in zip(s, s[1:])]
    if [Fraction(g) for g in gaps] != diffs:
        out.append("gaps do not match the slopes")
    if violates != (max(diffs, default=0) > 1):
        out.append("violation flag does not match the gaps")
    return tuple(out)


def check_points(records, groups) -> Verdict:
    """Check records against the expected (p, c, degree) groups.

    Each group must hold one record per closed point, and its numbers of
    points with positive bottom slope and with top slope below n - 1 must
    equal the numbers of degree-m irreducible factors of u_c and u_c'.
    """
    v = Verdict()
    expected = {(p, tuple(sorted(c)), m) for p, c, m in groups}
    by_group: dict[tuple, list] = {g: [] for g in expected}
    for rec in records:
        key = record_key(rec)
        group = key[:3]
        if group not in by_group:
            v.fail(key, "record for a datum or degree the run did not ask for")
            continue
        by_group[group].append(rec)
    factor_counts: dict[tuple, dict] = {}
    for group in sorted(by_group):
        p, c, m = group
        recs = by_group[group]
        want = closed_point_count(p, m)
        v.attempted += want
        seen = set()
        for rec in recs:
            key = record_key(rec)
            if key in seen:
                v.fail(key, "duplicate record")
            seen.add(key)
            for fault in record_faults(rec):
                v.fail(key, fault)
        if len(seen) < want:
            v.fail_count(want - len(seen), f"{group}: {want - len(seen)} points missing")
        n = len(c)
        for poly_c, which, hit in (
                (c, "u_c", lambda s: s[-1] > 0),
                (tuple(p - 1 - ci for ci in c), "u_c'", lambda s: s[0] < n - 1)):
            fkey = (p, poly_c)
            if fkey not in factor_counts:
                factor_counts[fkey] = factor_degree_counts(
                    degeneracy_poly(p, poly_c), p, max(g[2] for g in expected))
            want_deg = factor_counts[fkey][m]
            got_deg = sum(1 for rec in recs if hit(slopes_of(rec)))
            if got_deg != want_deg:
                v.fail_count(abs(got_deg - want_deg),
                             f"{group}: {got_deg} points degenerate for {which}, "
                             f"{want_deg} irreducible factors of degree {m}")
    return v


def check_symmetry(records, verdict: Verdict):
    """Self-dual datums: s_i + s_(n+1-i) = n - 1 at every point."""
    for rec in records:
        s = slopes_of(rec)
        n = len(s)
        if any(s[i] + s[n - 1 - i] != n - 1 for i in range(n)):
            verdict.fail(record_key(rec), f"slopes {rec['slopes']} not symmetric")


def check_same_slopes(records, others, verdict: Verdict, label: str):
    """Two runs over the same points must give the same slope vectors."""
    theirs = {record_key(r): r["slopes"] for r in others}
    for rec in records:
        key = record_key(rec)
        if theirs.get(key) != rec["slopes"]:
            verdict.fail(key, f"slopes {rec['slopes']} differ from {label} "
                              f"{theirs.get(key)}")


# ---------------------------------------------------------------------------
# scan reports
# ---------------------------------------------------------------------------

def triplegap_datums(p_min: int, p_max: int) -> list[tuple[int, tuple, int]]:
    """(p, sorted c, c3) for c = (1, p-2, c3), c3 != (p-1)/2."""
    return [(p, tuple(sorted((1, p - 2, c3))), c3)
            for p in range(max(5, p_min), p_max + 1) if is_prime(p)
            for c3 in range(1, p - 1) if 2 * c3 != p - 1]


def report_problems(report, family, datum_count: int) -> list[str]:
    """Report-level consistency: family echo, summary counts, and a
    violation list that holds exactly the violating records."""
    out = []
    if report.get("family") != family:
        out.append(f"family {report.get('family')} != {family}")
    records, violations = report["records"], report["violations"]
    want = {"datums": datum_count, "points": len(records), "violations": len(violations)}
    if report.get("summary") != want:
        out.append(f"summary {report.get('summary')} != {want}")
    flagged = {record_key(r): r for r in records if r["violates"]}
    listed = {}
    for entry in violations:
        body = {k: val for k, val in entry.items() if k != "expected"}
        listed[record_key(entry)] = body
    if listed != flagged:
        out.append("violation list does not match the violating records")
    return out


def check_triplegap(report, verdict: Verdict, p_min: int, p_max: int):
    """Each datum violates exactly at -(2 c3)^-1, with top slope 2, and at
    (2 (c3 + 1))^-1 mod p; both violations are flagged expected."""
    expected_flag = {record_key(e): e.get("expected") for e in report["violations"]}
    want = {}
    for p, c, c3 in triplegap_datums(p_min, p_max):
        top = -pow(2 * c3, -1, p) % p
        bottom = pow(2 * (c3 + 1), -1, p)
        want[(p, c)] = (top, bottom)
    for rec in report["records"]:
        key = record_key(rec)
        top, bottom = want.get(key[:2], (None, None))
        x = rec["x"]
        if rec["violates"] != (x in (top, bottom)):
            verdict.fail(key, f"violation at x = {x}, predicted at {top} and {bottom}")
        elif rec["violates"] and expected_flag.get(key) is not True:
            verdict.fail(key, "predicted violation not flagged expected")
        if x == top and Fraction(rec["slopes"][0]) != 2:
            verdict.fail(key, f"top slope {rec['slopes'][0]} != 2 at x = {top}")
