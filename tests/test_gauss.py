"""The Jacobi-sum trace engine against the trace-table oracle and closed forms."""

from __future__ import annotations

import functools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isoslope import arith, gauss
from isoslope.arith import embed_element, field_create, table_limit_from_env, teichmuller_table
from isoslope.errors import DegreeTooLarge
from isoslope.hyper import HypergeometricDatum, closed_points, frobenius_trace, point_spec

import reference


def _table_traces(datum, f, precision):
    """Raw tuple sums at x = 1..p-1 read from the GF(p^f) trace table."""
    traces = reference.subfield_traces(datum.c, datum.p, 1, f, precision)
    small = field_create(datum.p, 1)
    return [traces[small.dlog[x]] for x in range(1, datum.p)]


def _engine_traces(datum, f, precision):
    small = field_create(datum.p, 1)
    return [gauss.raw_trace(datum.p, datum.c, small, f, precision, x)
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


@st.composite
def _higher_degree_cases(draw):
    p = draw(st.sampled_from((3, 5, 7, 11, 13)))
    m = draw(st.integers(2, 3))
    j = draw(st.integers(1, 3).filter(lambda j: p ** (m * j) <= 20000))
    n = draw(st.integers(1, min(3, p - 1)))
    c = tuple(draw(st.lists(st.integers(1, p - 2), min_size=n, max_size=n)))
    return HypergeometricDatum(p, c), m, j, draw(st.integers(1, m * j + 2))


@settings(max_examples=40, deadline=None)
@given(_higher_degree_cases())
@example((HypergeometricDatum(3, (1, 1)), 3, 1, 4))
@example((HypergeometricDatum(3, (1,)), 3, 2, 3))
def test_engine_equals_the_trace_table_at_points_of_degree_two_and_three(case):
    # the oracle reads the GF(p^(m j)) trace table at the embedded units of
    # GF(p^m); m = p = 3 puts p into the orbit sizes of Z/(p^m - 1)
    datum, m, j, precision = case
    field = field_create(datum.p, m)
    traces = reference.subfield_traces(datum.c, datum.p, m, j, precision)
    for pt in closed_points(field):
        assert gauss.raw_trace(datum.p, datum.c, field, j, precision, pt.x) == traces[pt.dlog]


def test_engine_equals_the_trace_table_sampled_over_gf_31_4():
    # one GF(31^4) trace table read at sampled points of degree 1 (j = 4)
    # and degree 2 (j = 2): orbit tables of 923521 entries
    datum, precision = HypergeometricDatum(31, (6, 24)), 2
    big = field_create(31, 4)
    table = reference.trace_table(datum.c, big, precision)
    rng = random.Random(20261020)
    for m, j in ((1, 4), (2, 2)):
        small = field_create(31, m)
        for pt in rng.sample(closed_points(small), 12):
            want = table[big.dlog[embed_element(small, big, pt.x)]]
            assert gauss.raw_trace(31, datum.c, small, j, precision, pt.x) == want


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


def test_gamma_blocks_equal_the_table(monkeypatch):
    # every entry, at every precision whose table is within the limit and
    # every block size p^k, k = 1..N
    monkeypatch.setenv("ISOSLOPE_TABLE_LIMIT", str(1 << 14))
    for p in (3, 5, 7, 11, 13):
        precision = 1
        while p ** precision <= table_limit_from_env():
            table = gauss.gamma_table(p, precision)
            for k in range(1, precision + 1):
                blocks = gauss.GammaBlocks(p, precision, k)
                assert [blocks[n] for n in range(p ** precision)] == list(table), (p, precision, k)
            precision += 1


@functools.cache
def _blocks(p, precision, k):
    return gauss.GammaBlocks(p, precision, k)


@st.composite
def _gamma_arguments(draw):
    p = draw(st.sampled_from((3, 5, 7, 11, 13)))
    precision = draw(st.integers(1, 20))
    k = draw(st.integers(1, min(precision, 3)))
    return p, precision, k, draw(st.integers(0, p ** precision - 1))


@settings(max_examples=200, deadline=None)
@given(_gamma_arguments())
def test_gamma_blocks_recurrence_and_reflection(case):
    # Gamma_p(x + 1) = -x Gamma_p(x) for p not dividing x, -Gamma_p(x) for
    # p dividing x; Gamma_p(x) Gamma_p(1 - x) = (-1)^(x0), x0 in 1..p
    p, precision, k, x = case
    modulus, gamma = p ** precision, _blocks(p, precision, k)
    step = -x if x % p else -1
    assert gamma[(x + 1) % modulus] == step * gamma[x] % modulus
    x0 = x % p or p
    assert gamma[x] * gamma[(1 - x) % modulus] % modulus == (-1) ** x0 % modulus


def test_precision_over_the_limit_equals_the_table_oracle(monkeypatch):
    # p^j = 49 <= 100 < 343 = p^N: Gamma_p comes from block products, with
    # no table of length p^N, and the trace equals the GF(49) table's
    datum = HypergeometricDatum(7, (1, 2, 4))
    pt = point_spec(field_create(7, 1), 3)
    monkeypatch.setenv("ISOSLOPE_TABLE_LIMIT", "100")
    for cache in (gauss.gamma_table, gauss._orbit_data, gauss.residue_sums):
        cache.cache_clear()
    got = frobenius_trace(datum, pt, 2, 3)
    assert gauss.gamma_table.cache_info().currsize == 0
    want = reference.subfield_traces(datum.c, 7, 1, 2, 3)[pt.dlog]
    assert got.value == want  # odd rank: the trace is the raw sum


def test_degree_two_points_build_no_extension_field(monkeypatch):
    # a degree-m trace at j >= 2 builds no GF(p^(m j)): the orbit tables of
    # Z/(p^(m j) - 1) stand in for it, and only their size is checked
    built = []
    shared = arith._shared_field

    def recording(p, m):
        built.append((p, m))
        return shared(p, m)

    monkeypatch.setattr(arith, "_shared_field", recording)
    datum = HypergeometricDatum(7, (2, 4))
    pt = closed_points(field_create(7, 2))[0]
    want = reference.subfield_traces(datum.c, 7, 2, 2, 2)[pt.dlog]
    built.clear()
    assert frobenius_trace(datum, pt, 2, 2).value == -want % 49
    assert (7, 4) not in built
    # 49 <= 100 < 7^4: the point's field is within the limit, its j = 2
    # orbit tables are not
    monkeypatch.setenv("ISOSLOPE_TABLE_LIMIT", "100")
    frobenius_trace(datum, pt, 1, 2)
    with pytest.raises(DegreeTooLarge) as info:
        frobenius_trace(datum, pt, 2, 2)
    assert "orbit tables" in info.value.table


@pytest.mark.parametrize("p, c, m, precision", [
    (3, (1, 1), 3, 3),  # classes mod 26: orbits {0}, {13} and of size 3
    (7, (2, 4), 2, 2),
])
def test_a_first_trace_at_j_two_groups_the_classes_from_cold_orbit_data(
        monkeypatch, p, c, m, precision):
    # residue_sums groups the classes mod p^m - 1 by _orbit_data(p, m, N);
    # a j = 2 trace asked before any j = 1 trace builds that entry itself
    traces = reference.subfield_traces(c, p, m, 2, precision)
    field = field_create(p, m)
    for cache in (gauss.gamma_table, gauss._orbit_data, gauss.residue_sums,
                  gauss.omega_constants):
        cache.cache_clear()
    built = []
    shared = arith._shared_field

    def recording(p, m):
        built.append((p, m))
        return shared(p, m)

    monkeypatch.setattr(arith, "_shared_field", recording)
    got = {pt.dlog: gauss.raw_trace(p, c, field, 2, precision, pt.x)
           for pt in closed_points(field)}
    assert gauss._orbit_data.cache_info().currsize == 2  # f = 2 m and f = m
    assert got == {k: traces[k] for k in got}
    assert (p, 2 * m) not in built
