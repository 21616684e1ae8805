"""The Jacobi-sum trace engine against the trace tables and closed forms."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoslope import gauss, hyper
from isoslope.arith import embed_element, field_create, teichmuller_table
from isoslope.hyper import (
    HypergeometricDatum,
    _subfield_traces,
    _trace_table,
    frobenius_trace,
    point_spec,
)


def _table_traces(datum, f, precision):
    """Raw tuple sums at x = 1..p-1 read from the GF(p^f) trace table."""
    p = datum.p
    small, big = field_create(p, 1), field_create(p, f)
    table = _trace_table(datum, big, precision)
    return [table[big.dlog[embed_element(small, big, x)]] for x in range(1, p)]


def _engine_traces(datum, f, precision):
    return [gauss.raw_trace(datum.p, datum.c, f, precision, x)
            for x in range(1, datum.p)]


@st.composite
def _cases(draw):
    p = draw(st.sampled_from((3, 5, 7, 11, 13, 17, 19)))
    n = draw(st.integers(1, min(4, p - 1)))
    c = tuple(draw(st.lists(st.integers(1, p - 2), min_size=n, max_size=n)))
    f = draw(st.integers(1, 3))
    precision = draw(st.integers(1, f + 2))
    return HypergeometricDatum(p, c), f, precision


@settings(max_examples=60, deadline=None)
@given(_cases())
def test_engine_equals_the_trace_table_at_every_degree_one_point(case):
    datum, f, precision = case
    assert _engine_traces(datum, f, precision) == _table_traces(datum, f, precision)


# a = -c s, where omega^a chi_c is trivial and J = -chi_c(-1) = -(-1)^(c f),
# is one orbit of every datum; these put odd c f there (and, at (13, (1, 6),
# 2) and (7, (3,), 2), odd c with even f, where (-1)^c would be wrong)
@pytest.mark.parametrize("p, c, f", [
    (7, (1,), 1), (7, (3,), 3), (5, (1, 3), 1), (5, (3, 3), 3),
    (11, (1, 3, 9), 1), (11, (5, 7, 1), 3), (13, (1, 6), 2), (7, (3,), 2),
])
def test_trivial_product_character_sign(p, c, f):
    datum = HypergeometricDatum(p, c)
    for precision in (1, f, f + 2):
        assert _engine_traces(datum, f, precision) == _table_traces(datum, f, precision)


@pytest.mark.parametrize("p", (3, 5, 7, 13, 43))
def test_rank_one_traces_are_norms(p):
    # for n = 1 the raw sum at y is chi_c(1 - y) = tau(N(1 - y))^c, and at
    # y in GF(p) the norm from GF(p^f) is (1 - y)^f
    for f in (1, 2, 3) if p ** 4 <= 1 << 21 else (1, 2):
        precision = f + 1
        tau = teichmuller_table(p, precision)
        for c in range(1, p - 1):
            want = [tau[pow(1 - x, c * f, p)] for x in range(1, p)]
            assert _engine_traces(HypergeometricDatum(p, (c,)), f, precision) == want


def test_gamma_table_reflection():
    # Gamma_p(x) Gamma_p(1 - x) = (-1)^(x0), x0 in 1..p the residue of x
    for p, precision in ((3, 4), (7, 3), (13, 2)):
        modulus = p ** precision
        gamma = gauss.gamma_table(p, precision)
        for x in range(modulus):
            x0 = x % p or p
            assert gamma[x] * gamma[(1 - x) % modulus] % modulus == (-1) ** x0 % modulus


def test_precision_over_the_limit_falls_back_to_the_table(monkeypatch):
    # p^j = 49 <= 100 < 343 = p^N: no Gamma_p table of length p^N, so the
    # trace comes from the GF(7)* slice of the GF(49) table and equals the
    # engine's value
    datum = HypergeometricDatum(7, (1, 2, 4))
    pt = point_spec(field_create(7, 1), 3)
    engine = frobenius_trace(datum, pt, 2, 3)
    monkeypatch.setenv("ISOSLOPE_TABLE_LIMIT", "100")
    _subfield_traces.cache_clear()
    gauss.residue_sums.cache_clear()
    fallback = frobenius_trace(datum, pt, 2, 3)
    assert _subfield_traces.cache_info().misses == 1
    assert gauss.residue_sums.cache_info().misses == 0
    assert fallback == engine
    # within the limit the engine serves it again, with no new slice
    assert frobenius_trace(datum, pt, 2, 2).value == engine.value % 49
    assert _subfield_traces.cache_info().misses == 1
    assert gauss.residue_sums.cache_info().misses == 1


def test_degree_two_points_stay_on_the_table():
    datum = HypergeometricDatum(7, (2, 4))
    pt = hyper.closed_points(field_create(7, 2))[0]
    _subfield_traces.cache_clear()
    gauss.residue_sums.cache_clear()
    frobenius_trace(datum, pt, 1, 2)
    assert _subfield_traces.cache_info().misses == 1
    assert gauss.residue_sums.cache_info().misses == 0
