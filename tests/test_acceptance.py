"""End-to-end acceptance sweep.

Each test covers one numbered release criterion and registers a one-line
verdict (printed in the terminal summary by conftest) so a full run reads as
a checklist.  Budgeted criteria time themselves and fail on overrun; every
numeric claim is checked by exact rational or modular equality, never
approximately.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from conftest import record_acceptance

from isoslope import reference
from isoslope.arith import Valuation, embed_element, field_create, norm
from isoslope.coweight import (
    RootDatum,
    hecke_newton,
    is_dominant,
    newton_to_slopes,
    pgl3_region,
    small_gaps,
    weyl_vector,
)
from isoslope.errors import PrecisionInsufficient
from isoslope.hyper import (
    HypergeometricDatum,
    auto_precision,
    closed_points,
    dual_datum,
    frobenius_trace,
    is_self_dual,
    norm_compatibility_check,
    slopes_at_point,
    unit_root_eval,
    unit_root_poly,
)
from isoslope.polygon import HullPoint, lower_hull, slopes_descending
from isoslope.scan import FamilySpec, scan_family, verify_triple_gap_uniqueness

F = Fraction


def _verdict(num: int, label: str, ok: bool, detail: str):
    line = f"criterion {num} {'PASS' if ok else 'FAIL'} ({label}): {detail}"
    record_acceptance(line)
    print(line)
    assert ok, line


def _rank_le3_datums(p: int) -> list[HypergeometricDatum]:
    return [HypergeometricDatum(p, c) for n in (1, 2, 3)
            for c in combinations_with_replacement(range(1, p - 1), n)]


def test_criterion_1_flagship_census():
    t0 = time.monotonic()
    datum = HypergeometricDatum(31, (6, 12, 18, 24))
    census = {}
    for pt in closed_points(field_create(31, 1)):
        census[pt.x] = tuple(slopes_at_point(datum, pt, "selfdual").slopes)
    half = (F(5, 2), F(5, 2), F(1, 2), F(1, 2))
    roots = sorted(x for x, s in census.items() if s == half)
    generic = sorted(x for x, s in census.items() if s == (3, 2, 1, 0))
    sharp = sorted(x for x, s in census.items() if s == (3, F(3, 2), F(3, 2), 0))
    dt = time.monotonic() - t0
    ok = (len(census) == 29 and roots == [4, 17] and len(generic) == 23
          and sharp == [5, 12, 16, 27]
          and len(roots) + len(generic) + len(sharp) == 29
          and dt < 60)
    _verdict(1, "flagship census", ok,
             f"p=31 c=(6,12,18,24), selfdual strategy, all 29 degree-1 points: "
             f"(5/2,5/2,1/2,1/2) exactly at x in {{4,17}}; (3,2,1,0) at the "
             f"{len(generic)} generic points; the four points {{5,12,16,27}} "
             f"carry the sharper (3,3/2,3/2,0); {dt:.1f}s")


def test_criterion_2_triple_gap_uniqueness_sweep():
    t0 = time.monotonic()
    cases = [(p, c3) for p in (5, 7, 11, 13)
             for c3 in range(1, p - 1) if 2 * c3 != p - 1]
    failures = [(p, c3) for p, c3 in cases
                if not verify_triple_gap_uniqueness(p, c3)]
    dt = time.monotonic() - t0
    ok = len(cases) == 24 and not failures and dt < 120
    _verdict(2, "triple-gap uniqueness", ok,
             f"{len(cases)} (p, c3) pairs over p in {{5,7,11,13}}: exactly one "
             f"top-gap violation each, at -(2c3)^-1 mod p with leading slope 2; "
             f"failures={failures}; {dt:.1f}s")


def test_criterion_3_trace_engine_equivalence():
    t0 = time.monotonic()
    rng = random.Random(20260822)
    bad: list[str] = []
    unit_checks = point_checks = spot_checks = 0

    def note(msg):
        if len(bad) < 5:
            bad.append(msg)

    for p in (3, 5, 7, 11, 13):
        fields = {k: field_create(p, k) for k in (1, 2, 3)}
        pts_by_k = {k: closed_points(fields[k]) for k in (1, 2, 3)}
        for datum in _rank_le3_datums(p):
            if bad:
                break
            sign = 1 if datum.n % 2 else -1
            u = unit_root_poly(datum)
            refs = {}
            for k in (1, 2, 3):
                field = fields[k]
                ref = reference.trace_sums_all_points(datum.c, field, 1)
                refs[k] = ref
                for y in range(1, field.q):
                    if int(ref[y]) % p != sign * norm(field, field.eval_poly(u, y)) % p:
                        note(f"enumeration vs norm: p={p} c={datum.c} k={k} y={y}")
                        break
                unit_checks += field.q - 1
                for pt in pts_by_k[k]:
                    tr = frobenius_trace(datum, pt, 1, 1).value
                    if tr != sign * int(ref[pt.x]) % p or tr != unit_root_eval(datum, pt):
                        note(f"convolution trace: p={p} c={datum.c} k={k} x={pt.x}")
                        break
                point_checks += len(pts_by_k[k])
            for j in (2, 3):
                big = fields[j]
                for pt in pts_by_k[1]:
                    y = embed_element(fields[1], big, pt.x)
                    if frobenius_trace(datum, pt, j, 1).value != sign * int(refs[j][y]) % p:
                        note(f"power-{j} trace: p={p} c={datum.c} x={pt.x}")
                        break
                point_checks += len(pts_by_k[1])
            if rng.random() < 0.03:
                k = rng.choice((1, 2))
                y = rng.randrange(1, fields[k].q)
                if reference.trace_sum_at(datum.c, fields[k], y, 1) != int(refs[k][y]) % p:
                    note(f"literal enumeration: p={p} c={datum.c} k={k} y={y}")
                spot_checks += 1
    dt = time.monotonic() - t0
    ok = not bad and dt < 300
    _verdict(3, "trace engine equivalence", ok,
             f"659 datums (p<=13, n<=3), fields up to degree 3: vectorized "
             f"enumeration == +-N(u(x)) mod p at {unit_checks} units, == "
             f"convolution engine at {point_checks} closed-point/Frobenius-power "
             f"pairs, {spot_checks} literal tuple-sum spot checks; "
             f"mismatches={bad}; {dt:.1f}s")


def test_criterion_4_degeneracy_polynomial_factorization():
    t0 = time.monotonic()
    bad = []
    checks = 0
    for p in (3, 5, 7, 11, 13):
        for datum in _rank_le3_datums(p):
            for m in (1, 2, 3):
                if not norm_compatibility_check(datum, m):
                    bad.append((p, datum.c, m))
                checks += 1
    dt = time.monotonic() - t0
    ok = checks == 3 * 659 and not bad
    _verdict(4, "degeneracy-polynomial factorization", ok,
             f"u over the degree-m scaled exponents equals prod_j u(X^(p^j)) "
             f"for all 659 datums times m in {{1,2,3}} ({checks} identities); "
             f"failures={bad[:5]}; {dt:.1f}s")


def test_criterion_5_slope_report_property_suite():
    t0 = time.monotonic()
    bad = []
    reports = []
    by_key = {}
    field7 = field_create(7, 1)
    pts7 = closed_points(field7)
    for datum in _rank_le3_datums(7):
        for pt in pts7:
            rep = slopes_at_point(datum, pt)
            reports.append(rep)
            by_key[(datum.c, pt.x)] = rep
    for pt in closed_points(field_create(7, 2)):
        reports.append(slopes_at_point(HypergeometricDatum(7, (2, 4)), pt))
    for pt in closed_points(field_create(7, 2))[:5]:
        reports.append(slopes_at_point(HypergeometricDatum(7, (1, 5, 1)), pt))

    clause_checks = 0
    for rep in reports:
        n = rep.datum.n
        vals = tuple(rep.slopes)
        u_zero = unit_root_eval(rep.datum, rep.point) == 0
        udual_zero = unit_root_eval(dual_datum(rep.datum), rep.point) == 0
        clauses = [
            sum(vals) == F(n * (n - 1), 2),
            all(0 <= v <= n - 1 for v in vals),
            n < 2 or vals[-2] > 0,
            n < 2 or vals[1] < n - 1,
            (vals[-1] > 0) == u_zero == rep.degenerate,
            (vals[0] < n - 1) == udual_zero == rep.dual_degenerate,
        ]
        clause_checks += len(clauses)
        if not all(clauses):
            bad.append((rep.datum.c, rep.point.x, vals, clauses))

    dual_checks = 0
    for (c, x), rep in by_key.items():
        n = len(c)
        partner = by_key[(dual_datum(rep.datum).c, x)]
        mirrored = tuple(reversed([n - 1 - v for v in partner.slopes]))
        dual_checks += 1
        if tuple(rep.slopes) != mirrored:
            bad.append(("duality", c, x))
    dt = time.monotonic() - t0
    ok = not bad and len(reports) == 55 * 5 + 21 + 5
    _verdict(5, "slope report properties", ok,
             f"{len(reports)} reports (every p=7 datum at every degree-1 point, "
             f"plus degree-2 samples): {clause_checks} sum/range/interior/"
             f"degeneracy-flag clauses and {dual_checks} duality mirror checks; "
             f"failures={bad[:3]}; {dt:.1f}s")


def test_criterion_6_polygon_hull_oracle():
    t0 = time.monotonic()
    rng = random.Random(4099)
    trials = 10_000
    censor_trials = 0
    for _ in range(trials):
        n = rng.randint(1, 6)
        roots = sorted(F(rng.randint(0, 10), rng.choice((1, 1, 2)))
                       for _ in range(n))
        partial = [F(0)]
        for s in roots:
            partial.append(partial[-1] + s)
        exact = [HullPoint(i, Valuation.exact(partial[i])) for i in range(n + 1)]
        poly = lower_hull(exact)
        assert list(poly.slopes) == roots
        assert list(slopes_descending(poly, 1)) == list(reversed(roots))

        if n >= 2:
            censor_trials += 1
            r = rng.randint(1, n - 1)
            needed = (partial[r - 1] + partial[r + 1]) / 2
            others = [hp for hp in exact if hp.index != r]
            ok_poly = lower_hull(others + [HullPoint(r, Valuation.at_least(needed))])
            merged = (roots[:r - 1]
                      + [(roots[r - 1] + roots[r]) / 2] * 2
                      + roots[r + 1:])
            assert list(ok_poly.slopes) == merged
            with pytest.raises(PrecisionInsufficient) as exc:
                lower_hull(others + [HullPoint(r, Valuation.at_least(needed - F(1, 2)))])
            assert exc.value.index == r and exc.value.needed == needed
    dt = time.monotonic() - t0
    ok = dt < 60
    _verdict(6, "polygon hull oracle", ok,
             f"{trials} random synthetic valuation sets (n<=6): hull slopes == "
             f"sorted reciprocal-root valuations; {censor_trials} censoring "
             f"probes certify exactly at the neighbor-chord bound and raise "
             f"below it; {dt:.1f}s")


def test_criterion_7_coweight_suite():
    t0 = time.monotonic()
    for n in range(2, 9):
        sl = RootDatum.sl(n)
        rho = weyl_vector(sl)
        assert rho == tuple(F(n + 1, 2) - i for i in range(1, n + 1))
        run = F(0)
        for r in range(1, n + 1):
            run += rho[r - 1]
            assert run == F(r * (n - r), 2)

    rng = random.Random(73)
    agree = 0
    for _ in range(1000):
        n = rng.randint(2, 8)
        sl = RootDatum.sl(n)
        gaps = [F(rng.randint(0, 8), 4) for _ in range(n - 1)]
        tail = [sum(gaps[i:], F(0)) for i in range(n - 1)] + [F(0)]
        mean = sum(tail) / n
        v = [t - mean for t in tail]
        assert small_gaps(sl, v).satisfied == is_dominant(
            sl, [r - x for r, x in zip(weyl_vector(sl), v)])
        agree += 1

    assert tuple(newton_to_slopes(hecke_newton((0, 0, 0)), 0)) == (1, 0, -1)

    probes = [
        ((F(1, 3), F(1, 3)), "A∩B"),
        ((F(1, 2), 1), "A∩B"),
        ((1, 1), "A∩B"),
        ((3, F(1, 2)), "A"),
        ((F(1, 3), 2), "A"),
        ((0, 0), "B"),
        ((F(1, 4), F(1, 2)), "B"),
        ((F(1, 2), F(1, 4)), "B"),
        ((F(1, 6), F(1, 4)), "B"),
        ((2, F(1, 10)), "outside"),
        ((F(-1, 3), 1), "outside"),
        ((F(1, 3), 0), "outside"),
    ]
    for (y1, y2), want in probes:
        assert pgl3_region(y1, y2) == want, (y1, y2, want)
    dt = time.monotonic() - t0
    _verdict(7, "coweight calculus", True,
             f"rho matches ((n+1)/2 - i) with partial sums r(n-r)/2 for n<=8; "
             f"small-gaps == (rho - v dominant) on {agree} random dominant "
             f"vectors; Hecke (0,0,0) -> slopes (1,0,-1); {len(probes)} region "
             f"probes on boundary and interior; {dt:.1f}s")


def test_criterion_8_strategy_cross_agreement():
    t0 = time.monotonic()
    bad = []
    counts = {}
    point_count = 0
    for p in (3, 5, 7, 11, 13):
        datums = [HypergeometricDatum(p, c) for n in (1, 2, 3, 4)
                  for c in combinations_with_replacement(range(1, p - 1), n)
                  if len(c) < p and is_self_dual(HypergeometricDatum(p, c))]
        counts[p] = len(datums)
        pts = closed_points(field_create(p, 1))
        for datum in datums:
            for pt in pts:
                # each strategy at its adaptive precision and at its
                # auto_precision ceiling, the fixed precision of old
                outcomes = {
                    (s, precision): tuple(slopes_at_point(datum, pt, s, precision).slopes)
                    for s in ("full", "det", "selfdual", "dualpair")
                    for precision in (None, auto_precision(datum, 1, s))
                }
                point_count += 1
                if len(set(outcomes.values())) != 1:
                    bad.append((p, datum.c, pt.x, outcomes))
    dt = time.monotonic() - t0
    ok = (counts == {3: 2, 5: 8, 7: 13, 11: 26, 13: 34}
          and not bad and dt < 600)
    _verdict(8, "strategy cross-agreement", ok,
             f"full/det/selfdual/dualpair identical, each at its adaptive "
             f"precision and at auto_precision, on {sum(counts.values())} "
             f"self-dual datums (n<=4, p>n) at {point_count} degree-1 points; "
             f"disagreements={bad[:3]}; {dt:.1f}s")


def test_criterion_9_scan_determinism(tmp_path):
    t0 = time.monotonic()
    spec = FamilySpec("quintic", 11, 31)
    path = tmp_path / "quintic.ndjson"
    report = scan_family(spec, checkpoint=str(path))
    fresh = report.to_bytes()
    lines = path.read_text(encoding="utf-8").splitlines()
    partial = random.Random(9).sample(lines, len(lines) // 2)  # shuffled half
    path.write_text("\n".join(partial) + "\n", encoding="utf-8")
    identical = scan_family(spec, checkpoint=str(path)).to_bytes() == fresh
    hits = {(v["p"], v["x"]): v for v in report.violations}
    half = ["5/2", "5/2", "1/2", "1/2"]
    flagged = ((31, 4) in hits and (31, 17) in hits
               and hits[(31, 4)]["slopes"] == half
               and hits[(31, 17)]["slopes"] == half
               and all(v["expected"] for v in report.violations))
    dt = time.monotonic() - t0
    ok = identical and flagged
    _verdict(9, "scan determinism", ok,
             f"quintic sweep p in [11, 31] fresh vs resumed from {len(partial)} of "
             f"{len(lines)} checkpoint lines in shuffled order: byte-identical "
             f"reports ({len(fresh)} bytes), "
             f"{len(report.violations)} violations all at predicted points "
             f"including (31, x=4) and (31, x=17) at (5/2,5/2,1/2,1/2); {dt:.1f}s")
