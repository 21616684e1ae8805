"""Datums, traces against the enumeration oracle, strategies, and slope reports.

The heavier frozen fixture here is the p = 7 family c = (1, 5, c3): its
degeneracy polynomials are linear (1 + 2*c3*X and 1 - 2*(c3+1)*X mod p), so
the two non-generic points and their slope vectors are known in closed form.
Full-census fixtures live in the acceptance suite.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import random
import re
from array import array
from fractions import Fraction

import pytest

from isoslope import gauss, hyper
from isoslope.arith import (
    embed_element,
    field_create,
    norm,
    roots_in_field,
    teichmuller_table,
)
from isoslope.errors import (
    DatumMismatch,
    DegreeTooLarge,
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
    auto_precision,
    char_poly_valuations,
    closed_points,
    degeneracy_loci,
    degenerate_points,
    dual_datum,
    frobenius_trace,
    gap_profile,
    is_self_dual,
    norm_compatibility_check,
    point_spec,
    resolve_strategy,
    slopes_at_point,
    start_precision,
    unit_root_eval,
    unit_root_poly,
)
from isoslope.polygon import SlopeVector
from isoslope.scan import FamilySpec, scan_family

import reference
from reference import cyclic_convolve_schoolbook


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
    assert dual_datum(d) is dual_datum(d)
    assert dual_datum(HypergeometricDatum(7, (5, 1, 1))) is dual_datum(d)
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

def _degeneracy_loci_by_evaluation(datum, field):
    """The oracle: the closed points where u has norm 0, and those where the
    dual's u has."""
    return tuple({pt.x for pt in closed_points(field) if unit_root_eval(d, pt) == 0}
                 for d in (datum, dual_datum(datum)))


def _small_datums():
    for p in (3, 5, 7):
        for n in (1, 2, 3):
            for c in itertools.combinations_with_replacement(range(1, p - 1), n):
                yield HypergeometricDatum(p, c)


@pytest.mark.parametrize("cases", [
    [(d, m) for d in _small_datums() for m in (1, 2, 3)],
    [(HypergeometricDatum(p, (1, p - 2, c3)), m) for p in (5, 7, 11, 13)
     for c3 in range(1, p - 1) if 2 * c3 != p - 1 for m in (1, 2)],
    [(HypergeometricDatum(7, (2, 3)), m) for m in range(1, 7)],
], ids=["rank-1-3-p-le-7-m-le-3", "triplegap-p-le-13-m-le-2", "7-(2,3)-m-le-6"])
def test_degenerate_points_equal_per_point_evaluation(cases):
    found = 0
    for datum, m in cases:
        field = field_create(datum.p, m)
        loci = degeneracy_loci(datum, field)
        assert loci == _degeneracy_loci_by_evaluation(datum, field), (datum, m)
        assert degenerate_points(datum, field) == loci[0] | loci[1]
        found += len(loci[0]) + len(loci[1])
    assert found


def test_degenerate_points_with_a_repeated_factor_and_the_root_one():
    # rank 1: u = (1 - X)^c, a repeated factor whose one root is x = 1,
    # which the count includes and the point set leaves out
    datum = HypergeometricDatum(7, (3,))
    assert unit_root_poly(datum) == (1, 4, 3, 6)  # (1 - X)^3 mod 7
    field = field_create(7, 1)
    assert roots_in_field(field, unit_root_poly(datum)) == {1}
    assert degenerate_points(datum, field) == frozenset()


def test_degenerate_points_assert_the_factor_count(monkeypatch):
    datum, field = HypergeometricDatum(7, (2, 3)), field_create(7, 2)
    assert degenerate_points(datum, field) == {20}
    real = hyper.roots_in_field
    # losing a root of exact degree 2 breaks the count of degree-2 factors
    monkeypatch.setattr(hyper, "roots_in_field",
                        lambda fld, u: frozenset(sorted(real(fld, u))[1:]))
    with pytest.raises(AssertionError, match="irreducible factors"):
        degenerate_points(datum, field)
    with pytest.raises(DatumMismatch):
        degenerate_points(datum, field_create(5, 1))


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
    assert reference.norm_one_minus_table(f) == \
        tuple(norm(f, f.sub(1, f.exp[e])) for e in range(f.q - 1))


def test_trace_tables_are_reused_across_points():
    # c = (1, 11, 4) at p = 13 is not self-dual and its degree-1
    # degenerate points (roots of u_c = 1 + 8X and u_c' = 1 + 3X) are 8 and
    # 4; each takes dualpair traces over GF(13) and GF(13^2), which the
    # Jacobi-sum engine serves from one residue-class vector per datum and
    # field
    d = HypergeometricDatum(13, (1, 11, 4))
    f = field_create(13, 1)
    first = slopes_at_point(d, point_spec(f, 8))
    assert first.degenerate and not first.fast_path
    before = gauss.residue_sums.cache_info()
    second = slopes_at_point(d, point_spec(f, 4))
    assert second.dual_degenerate and not second.fast_path
    after = gauss.residue_sums.cache_info()
    assert after.misses == before.misses
    assert after.hits > before.hits


def _schoolbook_table(datum, field, precision):
    """A trace table as the left fold of the character rows of c with the
    schoolbook convolution, each row read from field arithmetic."""
    p = datum.p
    norms = [norm(field, field.sub(1, field.exp[e])) for e in range(field.q - 1)]
    tau = teichmuller_table(p, precision)

    def row(c):
        return [tau[pow(v, c, p)] if v else 0 for v in norms]

    acc = row(datum.c[0])
    for c in datum.c[1:]:
        acc = cyclic_convolve_schoolbook(acc, row(c), p ** precision)
    return acc


@pytest.mark.parametrize("p, c, part, rest", [
    (7, (1, 1, 5), (1, 5), (1,)),
    (7, (1, 3, 5), (1, 5, 3), ()),
    (7, (1, 1, 3, 3, 5, 5, 5), (1, 5, 1, 5, 3, 3), (5,)),
    (13, (1, 4, 11), (1, 11), (4,)),
    (17, (1, 2, 3, 5), (), (1, 2, 3, 5)),
    (17, (1, 2, 3, 15), (1, 15), (2, 3)),
    (13, (6, 6, 6, 6), (6, 6, 6, 6), ()),
])
def test_self_dual_split(p, c, part, rest):
    # splitting c into its self-dual part D (every pair {a, p-1-a} and
    # every copy of (p-1)/2) and the rest R factors the tuple sum: the
    # trace table of c is the cyclic convolution of the tables of D and R.
    # The Jacobi-sum engine's degree-1 traces equal that convolution,
    # read at GF(p)* inside GF(p^f), for f = 1, 2.
    assert sorted(part + rest) == list(c)
    assert sorted(p - 1 - a for a in part) == sorted(part)
    assert not any(p - 1 - a in rest for a in rest)
    precision = 3
    small = field_create(p, 1)
    for f in (1, 2):
        big = field_create(p, f)
        tables = [reference.trace_table(sub, big, precision) for sub in (part, rest) if sub]
        table = tables[0] if len(tables) == 1 else \
            cyclic_convolve_schoolbook(*tables, p ** precision)
        for x in range(1, p):
            y = embed_element(small, big, x)
            assert gauss.raw_trace(p, c, small, f, precision, x) == table[big.dlog[y]]


_SHARED_PART_DATUMS = [
    (p, (1, c3, p - 2)) for p in (7, 13) for c3 in range(1, p - 1) if 2 * c3 != p - 1
] + [(17, (1, 2, 3, 15)), (7, (1, 3, 5)), (13, (1, 5, 7, 11))]


@pytest.mark.parametrize("m", (1, 2))
@pytest.mark.parametrize("p, c", _SHARED_PART_DATUMS,
                         ids=[f"{p}-{c}" for p, c in _SHARED_PART_DATUMS])
def test_trace_table_equals_a_schoolbook_fold(p, c, m):
    # triple-gap datums (c3 = 1 and p - 2 included), datums with a
    # self-dual part and self-dual datums; at j = 1 the engine reads the
    # whole table, and word-sized moduli give it array('q') constants
    d = HypergeometricDatum(p, c)
    f = field_create(p, m)
    word = max(n for n in range(1, 64) if p ** n <= 2 ** 63)
    for precision in (3, word, word + 1):
        table = reference.trace_table(d.c, f, precision)
        assert table == _schoolbook_table(d, f, precision)
        assert _engine_reads(d, m, 1, precision) == \
            {pt.dlog: table[pt.dlog] for pt in closed_points(f)}
        constants, traces = gauss.omega_constants(f, precision)
        assert type(constants) is type(traces) is (array if precision <= word else list)


def _table_reads(d, m, j, precision):
    """The GF(p^(m j)) trace-table entry at the image of each degree-m
    closed point, keyed by the point's dlog: one embed_element and one
    table read per point."""
    small, big = field_create(d.p, m), field_create(d.p, m * j)
    table = reference.trace_table(d.c, big, precision)
    return {pt.dlog: table[big.dlog[embed_element(small, big, pt.x)]]
            for pt in closed_points(small)}


def _slice_reads(d, m, j, precision):
    traces = reference.subfield_traces(d.c, d.p, m, j, precision)
    assert len(traces) == d.p ** m - 1
    return {pt.dlog: traces[pt.dlog] for pt in closed_points(field_create(d.p, m))}


def _engine_reads(d, m, j, precision):
    field = field_create(d.p, m)
    return {pt.dlog: gauss.raw_trace(d.p, d.c, field, j, precision, pt.x)
            for pt in closed_points(field)}


@pytest.mark.parametrize("m", (1, 2))
@pytest.mark.parametrize("p, c", _SHARED_PART_DATUMS,
                         ids=[f"{p}-{c}" for p, c in _SHARED_PART_DATUMS])
def test_subfield_slices_equal_the_table_reads(p, c, m):
    # the oracle's slices against its own table reads, and the engine
    # against both
    d = HypergeometricDatum(p, c)
    for j in (1, 2):
        reads = _table_reads(d, m, j, 3)
        assert _slice_reads(d, m, j, 3) == reads == _engine_reads(d, m, j, 3)


@pytest.mark.parametrize("m", (2, 3))
def test_subfield_slices_equal_the_table_reads_at_p7(m):
    # every datum of rank <= 3 at p = 7, at its degree-2 and degree-3 points
    for n in (1, 2, 3):
        for c in itertools.combinations_with_replacement(range(1, 6), n):
            d = HypergeometricDatum(7, c)
            reads = _table_reads(d, m, 1, 3)
            assert _slice_reads(d, m, 1, 3) == reads == _engine_reads(d, m, 1, 3)


def test_a_lowered_limit_refuses_built_orbit_tables(monkeypatch):
    # the limit is read on every trace, so the orbit tables of Z/(11^4 - 1)
    # built for a degree-2 point are refused once the limit drops below
    # 11^4, though the point's field GF(11^2) is still within it
    d = HypergeometricDatum(11, (4, 5, 6))
    pt = closed_points(field_create(11, 2))[0]
    want = frobenius_trace(d, pt, 2, 2)
    hits = gauss.residue_sums.cache_info().hits
    assert frobenius_trace(d, pt, 2, 2) == want
    assert gauss.residue_sums.cache_info().hits == hits + 1
    monkeypatch.setenv("ISOSLOPE_TABLE_LIMIT", "1000")
    with pytest.raises(DegreeTooLarge) as info:
        frobenius_trace(d, pt, 2, 2)
    assert str(info.value) == "GF(11^4) has 14641 elements, over the table limit 1000"
    assert "orbit tables" in info.value.table
    assert frobenius_trace(d, pt, 1, 2) == frobenius_trace(d, pt, 1, 2)


def test_triple_gap_datums_share_one_product_per_field():
    # every degree-1 trace of the p = 13 triple-gap family comes from the
    # Jacobi-sum engine.  The Gamma_p table and the orbit data of each field
    # are built once and shared by all ten datums; each datum builds one
    # residue-class vector per field (the family is closed under duality,
    # so the duals add none)
    for cache in (gauss.gamma_table, gauss._orbit_data, gauss.residue_sums):
        cache.cache_clear()
    members = [HypergeometricDatum(13, (1, c3, 11)) for c3 in range(1, 12) if c3 != 6]
    for d in members:
        for pt in closed_points(field_create(13, 1)):
            slopes_at_point(d, pt)
    assert len(members) == 10
    assert gauss.gamma_table.cache_info().currsize == 1
    assert gauss._orbit_data.cache_info().currsize == 2
    assert gauss.residue_sums.cache_info().misses == 20


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


def test_start_precision_formulas():
    # m k(k-1)/2 + 1, k = min(traces the strategy computes, n - 1): the
    # lowest precision at which those coefficients are exact on the generic
    # polygon, where v(b_r) = m r(r-1)/2
    for strategy in ("full", "det"):
        assert start_precision(4, 1, strategy) == 4
        assert start_precision(4, 2, strategy) == 7
    for n in (3, 4):
        for strategy in ("selfdual", "dualpair"):
            assert start_precision(n, 1, strategy) == 2
            assert start_precision(n, 2, strategy) == 3
    for strategy in hyper.STRATEGIES:
        assert start_precision(1, 3, strategy) == 1
        assert start_precision(2, 3, strategy) == 1


def test_start_precision_never_exceeds_the_ceiling():
    for n in range(1, 9):
        d = HypergeometricDatum(11, (1,) * n)
        for m in range(1, 7):
            for strategy in hyper.STRATEGIES:
                assert 1 <= start_precision(n, m, strategy) <= auto_precision(d, m, strategy)


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


def _engine_misses(datum, x, strategy):
    """Residue-class vector misses of one slopes_at_point call from a cold
    cache: (own side, partner side), the own side being the datum's traces
    j <= ceil(n/2) at the precision the call starts at (every point used
    here certifies there)."""
    gauss.residue_sums.cache_clear()
    pt = point_spec(field_create(datum.p, 1), x)
    precision = start_precision(datum.n, 1, strategy)
    for j in range(1, (datum.n + 1) // 2 + 1):
        frobenius_trace(datum, pt, j, precision)
    own = gauss.residue_sums.cache_info().misses
    slopes_at_point(datum, pt, strategy)
    return own, gauss.residue_sums.cache_info().misses - own


def test_selfdual_partner_side_reuses_the_trace_tables():
    # a self-dual datum is its own dual, so the partner half of selfdual
    # reads the residue-class vectors its own half built; its own half
    # builds one vector per field and none for a part of c
    for p, c, x in ((13, (1, 5, 7, 11), 2), (7, (1, 3, 5), 3), (13, (6, 6, 6, 6), 2)):
        d = HypergeometricDatum(p, c)
        assert is_self_dual(d)
        assert _engine_misses(d, x, "selfdual") == (2, 0)
    # the count does see a distinct dual datum's vectors being built, and
    # a self-dual part of c gets no vector of its own; at rank 4 the partner
    # half reads only the dual's b_1, so only its T_1 vector is built
    assert _engine_misses(HypergeometricDatum(17, (1, 2, 3, 5)), 3, "dualpair") == (2, 1)
    assert _engine_misses(HypergeometricDatum(17, (1, 2, 3, 15)), 3, "dualpair") == (2, 1)


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
    # certified at the starting precision 2, below the ceiling 8
    assert rep4.strategy == "selfdual" and rep4.precision == 2
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


@pytest.mark.parametrize("flag", ["degenerate", "dual_degenerate"])
def test_sanity_check_refuses_a_wrong_flag(flag):
    # a good generic report of rank 3 must not let the same slopes through
    # with a bad flag
    d = HypergeometricDatum(7, (1, 2, 5))
    good = [slopes_at_point(d, pt) for pt in closed_points(field_create(7, 1))]
    good = next(rep for rep in good if rep.fast_path)
    _assert_report_sane(good)
    bad = dataclasses.replace(good, **{flag: True})
    for _ in range(2):
        with pytest.raises(AssertionError, match="contradicts"):
            _assert_report_sane(bad)
    _assert_report_sane(good)


def test_sanity_check_runs_once_per_fast_path_rank_and_per_slow_report(monkeypatch):
    calls = []
    check = hyper._check_slopes
    monkeypatch.setattr(hyper, "_check_slopes",
                        lambda *args: calls.append(args) or check(*args))
    hyper._generic_profile.cache_clear()
    report = scan_family(FamilySpec("explicit", 7, 7, (2, 3), 3))
    records = json.loads(report.to_bytes())["records"]
    slow = sum(not rec["fast_path"] for rec in records)
    assert 0 < slow < len(records)
    assert len(calls) == 1 + slow  # rank 2 is the only fast-path rank


def test_a_failing_fast_path_check_refuses_every_call(monkeypatch):
    def refuse(*args):
        raise AssertionError("refused")

    monkeypatch.setattr(hyper, "_check_slopes", refuse)
    hyper._generic_profile.cache_clear()
    d = HypergeometricDatum(7, (1, 2, 5))
    pts = [pt for pt in closed_points(field_create(7, 1))
           if unit_root_eval(d, pt) and unit_root_eval(dual_datum(d), pt)]
    for pt in pts[:2]:
        with pytest.raises(AssertionError, match="refused"):
            slopes_at_point(d, pt)


@pytest.mark.parametrize("c, strategy", [((1, 2, 5), "dualpair"), ((2, 4), "selfdual")])
def test_b1_check_covers_the_dual_datum(monkeypatch, c, strategy):
    # shift the degeneracy value of the dual datum only; a self-dual datum
    # is its own dual, so its partner coefficients are refused with it
    d = HypergeometricDatum(7, c)
    dual = dual_datum(d)
    pt = point_spec(field_create(7, 1), 3)
    char_poly_valuations(d, pt, strategy)
    value = hyper.unit_root_eval
    monkeypatch.setattr(hyper, "unit_root_eval",
                        lambda datum, point: value(datum, point) + (datum == dual))
    with pytest.raises(AssertionError, match=re.escape(f"c = {dual.c}")):
        char_poly_valuations(d, pt, strategy)


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
