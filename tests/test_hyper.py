"""Datums, traces against the enumeration oracle, strategies, and slope reports.

The heavier frozen fixture here is the p = 7 family c = (1, 5, c3): its
degeneracy polynomials are linear (1 + 2*c3*X and 1 - 2*(c3+1)*X mod p), so
the two non-generic points and their slope vectors are known in closed form.
Full-census fixtures live in the acceptance suite.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from isoslope.arith import embed_element, field_create, norm
from isoslope.errors import (
    DatumMismatch,
    MalformedInput,
    NotPrime,
    PrecisionInsufficient,
    RankTooLargeForP,
    StrategyUnavailable,
)
from isoslope.hyper import (
    HypergeometricDatum,
    SlopeReport,
    _assert_report_sane,
    _norm_one_minus_table,
    _trace_table,
    auto_precision,
    char_poly_valuations,
    closed_points,
    dual_datum,
    frobenius_trace,
    gap_profile,
    is_self_dual,
    norm_compatibility_check,
    point_spec,
    resolve_strategy,
    slopes_at_point,
    unit_root_eval,
    unit_root_poly,
)
from isoslope import reference
from isoslope.polygon import SlopeVector


def F(*args):
    return Fraction(*args)


def _slopes(report):
    return tuple(report.slopes)


# -- datum basics ------------------------------------------------------------

def test_datum_validation():
    d = HypergeometricDatum(7, (5, 1, 1))
    assert d.c == (1, 1, 5)
    assert d.n == 3
    with pytest.raises(NotPrime):
        HypergeometricDatum(4, (1,))
    with pytest.raises(MalformedInput):
        HypergeometricDatum(7, ())
    with pytest.raises(MalformedInput):
        HypergeometricDatum(7, (0, 3))
    with pytest.raises(MalformedInput):
        HypergeometricDatum(7, (6,))


def test_duality_is_an_involution():
    d = HypergeometricDatum(7, (1, 5, 1))
    assert dual_datum(d).c == (1, 5, 5)
    assert dual_datum(dual_datum(d)) == d
    assert not is_self_dual(d)
    assert is_self_dual(HypergeometricDatum(31, (6, 12, 18, 24)))
    assert is_self_dual(HypergeometricDatum(7, (2, 4)))


def test_unit_root_poly_frozen_values():
    assert unit_root_poly(HypergeometricDatum(31, (6, 12, 18, 24))) == \
        (1, 11, 19, 6, 16, 14, 6)
    assert unit_root_poly(HypergeometricDatum(11, (2, 4, 6, 8))) == (1, 10, 1)
    # the linear family: 1 + 2*c3*X
    assert unit_root_poly(HypergeometricDatum(7, (1, 5, 1))) == (1, 2)
    assert unit_root_poly(HypergeometricDatum(7, (1, 5, 2))) == (1, 4)
    assert unit_root_poly(HypergeometricDatum(7, (2, 4))) == (1, 1, 6)


def test_unit_root_eval_is_a_norm():
    d = HypergeometricDatum(7, (2, 4))
    f2 = field_create(7, 2)
    for pt in closed_points(f2):
        val = f2.eval_poly(unit_root_poly(d), pt.x)
        assert unit_root_eval(d, pt) == norm(f2, val)
        assert unit_root_eval(d, pt) < 7


# -- points ------------------------------------------------------------------

def test_point_spec_validation():
    f = field_create(7, 1)
    with pytest.raises(MalformedInput):
        point_spec(f, 0)
    with pytest.raises(MalformedInput):
        point_spec(f, 1)
    with pytest.raises(MalformedInput):
        point_spec(f, 7)
    f2 = field_create(7, 2)
    with pytest.raises(MalformedInput):
        point_spec(f2, 3)  # degree 1 element inside GF(49)


def test_point_spec_canonicalizes_the_orbit():
    f2 = field_create(7, 2)
    x = f2.exp[11]
    conj = f2.frobenius(x)
    a, b = point_spec(f2, x), point_spec(f2, conj)
    assert a.x == b.x
    assert a.dlog == min(f2.dlog[x], f2.dlog[conj])
    assert a.degree == 2


def test_closed_points_counts_and_order():
    f1 = field_create(7, 1)
    pts = closed_points(f1)
    assert [pt.x for pt in pts] == [3, 2, 6, 4, 5]  # dlog order for gen 3
    assert len(closed_points(field_create(7, 2))) == 21
    assert len(closed_points(field_create(7, 3))) == 112
    for pt in closed_points(field_create(7, 2)):
        assert pt.field.element_degree(pt.x) == 2


# -- traces ------------------------------------------------------------------

def _enumerated_trace(d, pt, j, precision):
    """The j-th power trace by literal tuple enumeration (reference.py): the
    point embedded into GF(p^(m j)), times the rank sign (-1)^(n-1)."""
    big = field_create(d.p, pt.field.m * j)
    y = embed_element(pt.field, big, pt.x)
    sign = -1 if d.n % 2 == 0 else 1
    return sign * reference.trace_sum_at(d.c, big, y, precision) % d.p ** precision


def test_engines_agree_bit_exactly():
    d = HypergeometricDatum(7, (1, 5, 1))
    f1 = field_create(7, 1)
    for pt in closed_points(f1):
        for j in (1, 2):
            assert frobenius_trace(d, pt, j, precision=4).value == \
                _enumerated_trace(d, pt, j, 4)
    pt2 = closed_points(field_create(7, 2))[0]
    assert frobenius_trace(d, pt2, 1, 3).value == _enumerated_trace(d, pt2, 1, 3)


def test_engines_agree_over_an_extension_field():
    # GF(7^3) has 342 units: the trace table is one length-342 convolution
    d = HypergeometricDatum(7, (2, 3))
    pt = closed_points(field_create(7, 3))[5]
    assert frobenius_trace(d, pt, 1, 3).value == _enumerated_trace(d, pt, 1, 3)


def test_trace_mod_p_equals_norm_of_unit_root_poly():
    for c in ((3,), (2, 4), (1, 5, 1), (1, 2, 3)):
        d = HypergeometricDatum(7, c)
        for pt in closed_points(field_create(7, 1)):
            t = frobenius_trace(d, pt, 1, precision=1)
            assert t.value == unit_root_eval(d, pt)


def test_trace_element_domain_reference_table():
    d = HypergeometricDatum(7, (1, 5, 1))
    f = field_create(7, 1)
    ref = reference.trace_sums_all_points(d.c, f, 3)
    sign = -1 if d.n % 2 == 0 else 1
    for pt in closed_points(f):
        want = sign * int(ref[pt.x]) % 7 ** 3
        assert frobenius_trace(d, pt, 1, 3).value == want


@pytest.mark.parametrize("p, m", [
    (p, m) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
    for m in range(2, 12) if p ** m <= 3000
] + [(13, 4), (131, 2), (7, 1), (1009, 1)])
def test_norm_one_minus_table_matches_field_arithmetic(p, m):
    f = field_create(p, m)
    assert _norm_one_minus_table(f) == \
        tuple(norm(f, f.sub(1, f.exp[e])) for e in range(f.q - 1))


def test_trace_tables_are_reused_across_points():
    # c = (1, 11, 4) at p = 13 is not self-dual and its degree-1
    # degenerate points (roots of u_c = 1 + 8X and u_c' = 1 + 3X) are 8 and
    # 4; each takes dualpair traces over GF(13) and GF(13^2)
    d = HypergeometricDatum(13, (1, 11, 4))
    f = field_create(13, 1)
    first = slopes_at_point(d, point_spec(f, 8))
    assert first.degenerate and not first.fast_path
    before = _trace_table.cache_info()
    second = slopes_at_point(d, point_spec(f, 4))
    assert second.dual_degenerate and not second.fast_path
    after = _trace_table.cache_info()
    assert after.misses == before.misses
    assert after.hits > before.hits


def test_trace_input_guards():
    d = HypergeometricDatum(7, (2, 4))
    pt = point_spec(field_create(11, 1), 2)
    with pytest.raises(DatumMismatch):
        frobenius_trace(d, pt, 1, 2)
    good = point_spec(field_create(7, 1), 2)
    with pytest.raises(MalformedInput):
        frobenius_trace(d, good, 0, 2)


# -- strategies and coefficient valuations -----------------------------------

def test_resolve_strategy():
    sd = HypergeometricDatum(7, (2, 4))
    other = HypergeometricDatum(7, (1, 5, 1))
    assert resolve_strategy(sd, "auto") == "selfdual"
    assert resolve_strategy(other, "auto") == "dualpair"
    assert resolve_strategy(other, "full") == "full"
    with pytest.raises(StrategyUnavailable):
        resolve_strategy(other, "selfdual")
    with pytest.raises(MalformedInput):
        resolve_strategy(sd, "fastest")


def test_auto_precision_formulas():
    flag = HypergeometricDatum(31, (6, 12, 18, 24))
    assert auto_precision(flag, 1, "selfdual") == 8
    assert auto_precision(flag, 1, "dualpair") == 8
    assert auto_precision(flag, 1, "det") == 14
    assert auto_precision(flag, 1, "full") == 14
    assert auto_precision(flag, 2, "selfdual") == 14


def test_rank_needs_p_larger_than_n():
    d = HypergeometricDatum(3, (1, 1, 1))
    pt = point_spec(field_create(3, 1), 2)
    with pytest.raises(RankTooLargeForP):
        slopes_at_point(d, pt)
    with pytest.raises(RankTooLargeForP):
        char_poly_valuations(d, pt)


def test_char_poly_valuations_strategies_agree():
    d = HypergeometricDatum(7, (2, 4))
    f = field_create(7, 1)
    for pt in closed_points(f):
        slopes = set()
        for strat in ("full", "det", "selfdual", "dualpair"):
            rep = slopes_at_point(d, pt, strat)
            slopes.add(_slopes(rep))
        assert len(slopes) == 1


def test_self_dual_rank4_strategies_agree():
    d = HypergeometricDatum(7, (1, 5, 2, 4))
    assert is_self_dual(d)
    pt = point_spec(field_create(7, 1), 3)
    got = {strat: _slopes(slopes_at_point(d, pt, strat))
           for strat in ("full", "det", "selfdual", "dualpair")}
    assert len(set(got.values())) == 1


def _partner_side_misses(datum, x, strategy):
    """Trace-table misses of one slopes_at_point call whose own-side traces
    are already tabled."""
    pt = point_spec(field_create(datum.p, 1), x)
    precision = auto_precision(datum, 1, strategy)
    for j in range(1, (datum.n + 1) // 2 + 1):
        frobenius_trace(datum, pt, j, precision)
    misses = _trace_table.cache_info().misses
    slopes_at_point(datum, pt, strategy)
    return _trace_table.cache_info().misses - misses


def test_selfdual_partner_side_reuses_the_trace_tables():
    # a self-dual datum is its own dual, so the partner half of selfdual
    # reads the tables its own half built
    d = HypergeometricDatum(13, (1, 5, 7, 11))
    assert is_self_dual(d)
    assert _partner_side_misses(d, 2, "selfdual") == 0
    # the count does see a distinct dual datum's tables being built
    assert _partner_side_misses(HypergeometricDatum(17, (1, 2, 3, 5)), 3, "dualpair") == 2


def test_explicit_precision_too_low_refuses():
    d = HypergeometricDatum(31, (6, 12, 18, 24))
    pt = point_spec(field_create(31, 1), 4)
    with pytest.raises(PrecisionInsufficient) as info:
        slopes_at_point(d, pt, "selfdual", precision=1)
    assert info.value.suggested_precision() >= 3


# -- slope reports -----------------------------------------------------------

def test_triple_gap_family_fixtures():
    d = HypergeometricDatum(7, (1, 5, 1))
    f = field_create(7, 1)
    by_x = {pt.x: slopes_at_point(d, pt) for pt in closed_points(f)}

    top = by_x[3]  # root of 1 + 2X mod 7
    assert _slopes(top) == (2, F(1, 2), F(1, 2))
    assert top.degenerate and not top.dual_degenerate
    assert top.gaps == (F(3, 2), 0)
    assert top.max_gap == F(3, 2)
    assert top.violates_small_gaps
    assert not top.fast_path

    bottom = by_x[2]  # root of the dual datum's polynomial 1 - 4X mod 7
    assert _slopes(bottom) == (F(3, 2), F(3, 2), 0)
    assert bottom.dual_degenerate and not bottom.degenerate
    assert bottom.violates_small_gaps

    for x in (4, 5, 6):
        rep = by_x[x]
        assert _slopes(rep) == (2, 1, 0)
        assert rep.fast_path
        assert rep.strategy is None and rep.precision is None
        assert not rep.violates_small_gaps


def test_flagship_sample_points():
    d = HypergeometricDatum(31, (6, 12, 18, 24))
    f = field_create(31, 1)
    half = (F(5, 2), F(5, 2), F(1, 2), F(1, 2))
    rep4 = slopes_at_point(d, point_spec(f, 4))
    assert _slopes(rep4) == half and rep4.degenerate
    assert rep4.max_gap == 2 and rep4.violates_small_gaps
    assert rep4.strategy == "selfdual" and rep4.precision == 8
    rep5 = slopes_at_point(d, point_spec(f, 5))
    assert _slopes(rep5) == (3, F(3, 2), F(3, 2), 0)
    assert not rep5.degenerate and not rep5.dual_degenerate
    rep2 = slopes_at_point(d, point_spec(f, 2))
    assert _slopes(rep2) == (3, 2, 1, 0)
    assert not rep2.violates_small_gaps


def test_degree_two_degenerate_point():
    # 1 + X + 6X^2 is irreducible mod 7, so its zero locus is a single
    # degree-2 closed point; there the slope vector must be (1/2, 1/2)
    d = HypergeometricDatum(7, (2, 4))
    f2 = field_create(7, 2)
    degen = [pt for pt in closed_points(f2) if unit_root_eval(d, pt) == 0]
    assert len(degen) == 1
    rep = slopes_at_point(d, degen[0])
    assert _slopes(rep) == (F(1, 2), F(1, 2))
    assert rep.degenerate and rep.dual_degenerate


def test_slope_duality_at_degenerate_points():
    d = HypergeometricDatum(7, (1, 5, 1))
    dd = dual_datum(d)
    f = field_create(7, 1)
    for pt in closed_points(f):
        a = _slopes(slopes_at_point(d, pt))
        b = _slopes(slopes_at_point(dd, pt))
        assert b == tuple(reversed([2 - s for s in a]))


def test_gap_profile_shapes():
    from isoslope.polygon import SlopeVector
    gaps, max_gap, violates = gap_profile(SlopeVector((2, F(1, 2), F(1, 2))))
    assert gaps == (F(3, 2), 0) and max_gap == F(3, 2) and violates
    gaps, max_gap, violates = gap_profile(SlopeVector((0,)))
    assert gaps == () and max_gap == 0 and not violates


def test_rank_one_and_two_reports():
    f = field_create(7, 1)
    rep = slopes_at_point(HypergeometricDatum(7, (4,)), point_spec(f, 3))
    assert _slopes(rep) == (0,)
    rep = slopes_at_point(HypergeometricDatum(7, (2, 4)), point_spec(f, 3),
                          strategy="full")
    assert sum(_slopes(rep)) == 1


def test_report_above_the_generic_polygon_is_refused():
    # (3, 5/2, 1/2, 0) passes the sum, range, flag and second-slope checks,
    # but its partial sums 3, 11/2 exceed the generic polygon's 3, 5
    d = HypergeometricDatum(13, (1, 5, 7, 11))
    pt = point_spec(field_create(13, 1), 2)

    def report(slopes):
        sv = SlopeVector(slopes)
        gaps, max_gap, violates = gap_profile(sv)
        return SlopeReport(d, pt, sv, gaps, max_gap, violates, slopes[-1] > 0,
                           slopes[0] < 3, "full", 14, False)

    _assert_report_sane(report((3, 2, 1, 0)))
    _assert_report_sane(report((F(5, 2), F(5, 2), F(1, 2), F(1, 2))))
    with pytest.raises(AssertionError, match="generic polygon"):
        _assert_report_sane(report((3, F(5, 2), F(1, 2), 0)))


def test_slopes_at_point_guards():
    d = HypergeometricDatum(7, (2, 4))
    with pytest.raises(DatumMismatch):
        slopes_at_point(d, point_spec(field_create(11, 1), 2))


def test_report_invariants_over_a_seeded_pool():
    rng = random.Random(20260822)
    f = field_create(11, 1)
    for _ in range(20):
        n = rng.randint(1, 3)
        c = tuple(rng.randint(1, 9) for _ in range(n))
        d = HypergeometricDatum(11, c)
        for pt in closed_points(f):
            rep = slopes_at_point(d, pt)
            vals = _slopes(rep)
            assert sum(vals) == F(n * (n - 1), 2)
            assert all(0 <= v <= n - 1 for v in vals)
            assert (vals[-1] > 0) == rep.degenerate
            assert (vals[0] < n - 1) == rep.dual_degenerate


# -- the norm compatibility identity ----------------------------------------

def test_norm_compatibility_small_sweep():
    for c in ((3,), (2, 4), (1, 5, 1), (1, 2, 3)):
        d = HypergeometricDatum(7, c)
        for m in (1, 2, 3):
            assert norm_compatibility_check(d, m)
    assert norm_compatibility_check(HypergeometricDatum(31, (6, 12, 18, 24)), 2)
    with pytest.raises(MalformedInput):
        norm_compatibility_check(HypergeometricDatum(7, (2, 4)), 0)
