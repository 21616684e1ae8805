"""The benchmark's output checker accepts real isoslope output and rejects
damaged records.

Run with `PYTHONPATH=src python -m pytest perfbench`.  The outputs come from
small scans through the CLI; the checker itself never imports isoslope.
"""

from __future__ import annotations

import contextlib
import copy
import itertools
import json
from functools import lru_cache

import pytest

import checker
from isoslope.cli import main


@pytest.fixture(scope="module")
def triplegap_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("scan") / "report.json"
    assert main(["scan", "--family", "triplegap", "--p-range", "5..11",
                 "--out", str(out)]) == 0
    return json.loads(out.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def rank4_records(tmp_path_factory):
    out = tmp_path_factory.mktemp("slopes") / "records.jsonl"
    with open(out, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        assert main(["slopes", "--p", "7", "--c", "1,2,4,5"]) == 0
    return [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]


TRIPLEGAP_GROUPS = [(p, c, 1) for p, c, _ in checker.triplegap_datums(5, 11)]


def triplegap_verdict(report):
    verdict = checker.check_points(report["records"], TRIPLEGAP_GROUPS)
    checker.check_triplegap(report, verdict, 5, 11)
    return verdict


def test_real_outputs_pass(triplegap_report, rank4_records):
    verdict = triplegap_verdict(triplegap_report)
    assert (verdict.attempted, verdict.failed) == (len(triplegap_report["records"]), 0)
    family = {"kind": "triplegap", "p_min": 5, "p_max": 11, "m_max": 1}
    assert checker.report_problems(triplegap_report, family, len(TRIPLEGAP_GROUPS)) == []

    verdict = checker.check_points(rank4_records, [(7, (1, 2, 4, 5), 1)])
    checker.check_symmetry(rank4_records, verdict)
    assert (verdict.attempted, verdict.failed) == (5, 0)


def test_wrong_slope_sum_is_rejected(triplegap_report):
    report = copy.deepcopy(triplegap_report)
    rec = next(r for r in report["records"] if r["slopes"] == ["2", "1", "0"])
    rec["slopes"] = ["2", "1", "1/2"]
    rec["gaps"] = ["1", "1/2"]
    verdict = triplegap_verdict(report)
    assert verdict.failed >= 1
    assert any("slope sum" in p for p in verdict.problems)


def test_newton_below_hodge_is_rejected(rank4_records):
    records = copy.deepcopy(rank4_records)
    records[0]["slopes"] = ["3", "3", "0", "0"]
    records[0]["gaps"] = ["0", "3", "0"]
    records[0]["violates"] = True
    verdict = checker.check_points(records, [(7, (1, 2, 4, 5), 1)])
    assert verdict.failed >= 1
    assert any("below Hodge" in p for p in verdict.problems)


def test_misplaced_violation_is_rejected(triplegap_report):
    report = copy.deepcopy(triplegap_report)
    records = report["records"]
    bad = next(r for r in records if r["violates"])
    good = next(r for r in records
                if r["p"] == bad["p"] and r["c"] == bad["c"] and not r["violates"])
    for field in ("x", "x_dlog"):
        bad[field], good[field] = good[field], bad[field]
    for entry in report["violations"]:
        if checker.record_key(entry)[:2] == checker.record_key(bad)[:2] and \
                entry["x"] == good["x"]:
            entry["x"], entry["x_dlog"] = bad["x"], bad["x_dlog"]
    verdict = triplegap_verdict(report)
    assert verdict.failed >= 2
    assert any("predicted at" in p for p in verdict.problems)


def test_unflagged_violation_is_rejected(triplegap_report):
    report = copy.deepcopy(triplegap_report)
    report["violations"][0]["expected"] = False
    assert triplegap_verdict(report).failed == 1


def test_missing_point_is_rejected(triplegap_report):
    report = copy.deepcopy(triplegap_report)
    generic = next(r for r in report["records"] if r["slopes"] == ["2", "1", "0"])
    report["records"].remove(generic)
    verdict = triplegap_verdict(report)
    assert verdict.failed == 1
    assert any("missing" in p for p in verdict.problems)


def test_duplicate_and_foreign_points_are_rejected(rank4_records):
    records = copy.deepcopy(rank4_records)
    records.append(dict(records[0]))
    assert checker.check_points(records, [(7, (1, 2, 4, 5), 1)]).failed >= 1
    assert checker.check_points(rank4_records, [(7, (1, 2, 4, 5), 2)]).failed > 0


def test_asymmetric_slopes_are_rejected(rank4_records):
    records = copy.deepcopy(rank4_records)
    records[0]["slopes"] = ["3", "3/2", "1", "1/2"]
    verdict = checker.Verdict()
    checker.check_symmetry(records, verdict)
    assert len(verdict.bad) == 1


def test_degenerate_point_count_follows_the_factorisation(triplegap_report):
    """A generic point given a degenerate slope vector passes every
    per-record test; only the factor count of u_c catches it."""
    report = copy.deepcopy(triplegap_report)
    rec = next(r for r in report["records"]
               if r["p"] == 11 and r["slopes"] == ["2", "1", "0"])
    rec["slopes"], rec["gaps"], rec["violates"] = ["2", "1/2", "1/2"], ["3/2", "0"], True
    verdict = checker.check_points(report["records"], TRIPLEGAP_GROUPS)
    assert verdict.failed == 1
    assert any("irreducible factors" in p for p in verdict.problems)


def _monic_polys(p, m):
    for low in itertools.product(range(p), repeat=m):
        yield list(low) + [1]


def _divides(f, u, p):
    return checker._rem(u, f, p) == []


@lru_cache(maxsize=None)
def _irreducible(p, m):
    return [f for f in _monic_polys(p, m)
            if not any(_divides(g, f, p) for d in range(1, m // 2 + 1)
                       for g in _irreducible(p, d))]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_irreducible_count_matches_enumeration(p):
    for m in range(1, 4):
        assert checker.irreducible_count(p, m) == len(_irreducible(p, m))


@pytest.mark.parametrize("p,c", [(5, (1, 3, 3)), (7, (2, 3)), (7, (3, 4)),
                                 (11, (1, 4, 9)), (13, (1, 5, 7, 11))])
def test_factor_counts_match_enumeration(p, c):
    u = checker.degeneracy_poly(p, c)
    counts = checker.factor_degree_counts(u, p, 3)
    for m in (1, 2, 3):
        want = sum(1 for f in _irreducible(p, m)
                   if _divides(f, u, p) and f not in ([0, 1], [p - 1, 1]))
        assert counts[m] == want
