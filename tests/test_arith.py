"""Finite fields, Teichmueller lifts, and truncated p-adic residues.

Frozen values below were computed by hand: the GF(49) modulus is X^2 + 1
because -1 is a nonsquare mod 7 (7 = 3 mod 4) and no smaller constant
works; 3 is the first generator of GF(7)^x (2 has order 3); the lift of 2
mod 49 is 30 since 30 = 2 mod 7 and 30^3 = 27000 = 1 mod 49.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoslope.arith import (
    ExtField,
    PadicResidue,
    Valuation,
    embed_element,
    field_create,
    is_prime,
    norm,
    teichmuller,
    teichmuller_table,
)
from isoslope.errors import (
    DegreeTooLarge,
    FieldMismatch,
    MalformedInput,
    PrecisionMismatch,
)

SMALL_PRIMES = (3, 5, 7, 11, 13, 31)


def test_is_prime_small_cases():
    assert [n for n in range(2, 40) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    assert not is_prime(0)
    assert not is_prime(1)
    assert not is_prime(561)  # Carmichael
    assert is_prime(2 ** 31 - 1)


def test_gf49_frozen_construction():
    f = field_create(7, 2)
    assert f.q == 49
    assert f.modulus == (1, 0, 1)
    assert field_create(7, 1).generator == 3


def test_exp_dlog_are_inverse_bijections():
    for p, m in ((7, 2), (3, 3), (11, 1)):
        f = field_create(p, m)
        assert len(f.exp) == f.q - 1
        assert sorted(f.exp) == list(range(1, f.q))
        for e in range(f.q - 1):
            assert f.dlog[f.exp[e]] == e


# every m >= 2 field with at most 3000 elements: all take the byte-sliced build
SLICED_FIELDS = [(p, m) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
                 for m in range(2, 12) if p ** m <= 3000]


def _raw_chain(f, count):
    """g^0 .. g^(count-1) by repeated _mul_raw: the oracle for exp."""
    out, cur = [], 1
    for _ in range(count):
        out.append(cur)
        cur = f._mul_raw(cur, f.generator)
    return out


def _assert_tables_follow(f, chain):
    assert f.exp.typecode == f.dlog.typecode == "q"
    assert list(f.exp[:len(chain)]) == chain
    assert f.dlog[0] == -1
    assert all(f.dlog[y] == e for e, y in enumerate(chain))


@pytest.mark.parametrize("p, m", SLICED_FIELDS + [(13, 4)])
def test_sliced_tables_match_the_raw_chain(p, m):
    f = field_create(p, m)
    chain = _raw_chain(f, f.q - 1)
    assert list(f._sliced_powers()) == chain
    _assert_tables_follow(f, chain)


def test_sliced_tables_on_a_prefix_of_gf_7_6():
    f = field_create(7, 6)
    _assert_tables_follow(f, _raw_chain(f, 20000))


@pytest.mark.parametrize("p, m", [(131, 2), (2, 1), (3, 1), (101, 1), (1009, 1)])
def test_fallback_tables_match_the_raw_chain(p, m):
    # m = 1, and m = 2 above p = 127, keep the _mul_raw build
    f = field_create(p, m)
    _assert_tables_follow(f, _raw_chain(f, f.q - 1))


def test_mul_matches_raw_polynomial_arithmetic():
    rng = random.Random(20260822)
    f = field_create(7, 3)
    for _ in range(300):
        a, b = rng.randrange(f.q), rng.randrange(f.q)
        assert f.mul(a, b) == f._mul_raw(a, b)
    for a in range(1, f.q):
        assert f.mul(a, f.inv(a)) == 1


def _horner_by_add_mul(f, coeffs, x):
    """eval_poly's oracle: Horner with the digit-wise field add."""
    acc = 0
    for c in reversed(coeffs):
        acc = f.add(f.mul(acc, x), c % f.p)
    return acc


def _assert_eval_poly_matches(f, rng, xs):
    p = f.p
    polys = [[], [0], [p], [-1], [p - 1, -p - 3]] + [
        [rng.randrange(-3 * p, 3 * p) for _ in range(rng.randint(1, 7))]
        for _ in range(6)]
    for coeffs in polys:
        for x in xs:
            assert f.eval_poly(coeffs, x) == _horner_by_add_mul(f, coeffs, x), \
                (p, f.m, coeffs, x)


def test_eval_poly_matches_add_mul_horner_on_every_small_field():
    rng = random.Random(20261018)
    fields = [(p, m) for p in range(2, 3001) if is_prime(p)
              for m in range(1, 12) if p ** m <= 3000]
    assert len(fields) > 430
    for p, m in fields:
        f = field_create(p, m)
        xs = range(f.q) if f.q <= 64 else [0, 1, f.q - 1] + rng.sample(range(f.q), 20)
        _assert_eval_poly_matches(f, rng, xs)


def test_eval_poly_matches_add_mul_horner_on_gf_7_6():
    rng = random.Random(7 ** 6)
    f = field_create(7, 6)
    _assert_eval_poly_matches(f, rng, [0, 1, 6, 7, f.q - 1] + rng.sample(range(f.q), 200))


def test_add_neg_pow_consistency():
    f = field_create(5, 2)
    for a in range(f.q):
        assert f.add(a, f.neg(a)) == 0
        assert f.sub(a, a) == 0
    for a in range(1, f.q):
        assert f.pow(a, f.q - 1) == 1
        assert f.pow(a, -1) == f.inv(a)
    assert f.pow(0, 0) == 1
    assert f.pow(0, 5) == 0
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_norm_multiplicative_and_equidistributed():
    f = field_create(3, 3)
    for a in range(f.q):
        for b in range(f.q):
            assert norm(f, f.mul(a, b)) == norm(f, a) * norm(f, b) % 3
    counts = {}
    for a in range(1, f.q):
        counts[norm(f, a)] = counts.get(norm(f, a), 0) + 1
    # each unit value hit (q-1)/(p-1) times
    assert counts == {1: 13, 2: 13}
    with pytest.raises(FieldMismatch):
        norm(f, f.q)


def test_frobenius_orbits_and_degree():
    f = field_create(7, 2)
    for a in range(1, 7):
        assert f.element_degree(a) == 1
    assert sum(1 for a in range(f.q) if a and f.element_degree(a) == 2) == 42
    a = f.generator
    assert f.frobenius(a) == f.pow(a, 7)


def test_field_size_cap(monkeypatch):
    f = field_create(7, 2)
    # the limit is checked on every call, not only when the field is built
    monkeypatch.setenv("ISOSLOPE_TABLE_LIMIT", "10")
    with pytest.raises(DegreeTooLarge):
        field_create(7, 2)
    with pytest.raises(DegreeTooLarge):
        ExtField(7, 2)
    monkeypatch.delenv("ISOSLOPE_TABLE_LIMIT")
    # one field per (p, m): the refusal neither rebuilt nor evicted it
    assert field_create(7, 2) is f


def test_table_limit_env_parsing(monkeypatch):
    field_create(3, 1)
    monkeypatch.setenv("ISOSLOPE_TABLE_LIMIT", "notanint")
    with pytest.raises(MalformedInput):
        field_create(3, 1)
    monkeypatch.setenv("ISOSLOPE_TABLE_LIMIT", "1")
    with pytest.raises(MalformedInput):
        ExtField(3, 1)
    monkeypatch.setenv("ISOSLOPE_TABLE_LIMIT", "100")
    with pytest.raises(DegreeTooLarge):
        field_create(11, 2)
    assert field_create(3, 2).q == 9


def test_teichmuller_frozen_value():
    assert teichmuller(7, 2, 2) == 30
    assert teichmuller(7, 0, 4) == 0
    assert teichmuller(7, 1, 4) == 1


@settings(deadline=None, max_examples=200)
@given(st.sampled_from(SMALL_PRIMES), st.integers(1, 30), st.integers(1, 6))
def test_teichmuller_properties(p, y, prec):
    t = teichmuller(p, y, prec)
    mod = p ** prec
    assert t % p == y % p
    if y % p:
        assert pow(t, p - 1, mod) == 1


@settings(deadline=None, max_examples=100)
@given(st.sampled_from(SMALL_PRIMES), st.integers(0, 30), st.integers(0, 30),
       st.integers(1, 5))
def test_teichmuller_multiplicative(p, a, b, prec):
    mod = p ** prec
    lhs = teichmuller(p, a, prec) * teichmuller(p, b, prec) % mod
    assert lhs == teichmuller(p, a * b, prec)


def test_teichmuller_table_matches_pointwise():
    tab = teichmuller_table(11, 3)
    assert len(tab) == 11
    for y in range(11):
        assert tab[y] == teichmuller(11, y, 3)


def test_padic_residue_valuations():
    assert PadicResidue(7, 3, 98).valuation() == Valuation.exact(2)
    assert PadicResidue(7, 3, 5).valuation() == Valuation.exact(0)
    censored = PadicResidue(7, 3, 7 ** 3).valuation()
    assert not censored.is_exact
    assert censored.value == 3
    assert PadicResidue(5, 2, -25).is_zero()


def test_padic_residue_arithmetic():
    a = PadicResidue(7, 3, 10)
    b = PadicResidue(7, 3, 340)
    assert (a + b).value == 350 % 343
    assert (a - b).value == (10 - 340) % 343
    assert (a * b).value == 10 * 340 % 343
    assert (3 * a).value == 30
    assert (-a).value == 343 - 10
    assert a.div_unit(3).value * 3 % 343 == 10
    with pytest.raises(ZeroDivisionError):
        a.div_unit(14)
    assert a.narrow(1).value == 3
    with pytest.raises(PrecisionMismatch):
        a.narrow(5)


def test_padic_residue_mismatches():
    with pytest.raises(FieldMismatch):
        PadicResidue(7, 3, 1) + PadicResidue(11, 3, 1)
    with pytest.raises(PrecisionMismatch):
        PadicResidue(7, 3, 1) + PadicResidue(7, 2, 1)
    with pytest.raises(MalformedInput):
        PadicResidue(7, 0, 1)


def test_valuation_repr_and_bound():
    assert repr(Valuation.exact(2)) == "Exact(2)"
    assert repr(Valuation.at_least(Fraction(3, 2))) == "AtLeast(3/2)"
    assert Valuation.at_least(4).value == 4


def test_embed_element_is_a_field_homomorphism():
    small = field_create(3, 2)
    big = field_create(3, 4)
    img = {x: embed_element(small, big, x) for x in range(small.q)}
    assert img[0] == 0 and img[1] == 1
    for a in range(small.q):
        for b in range(small.q):
            assert img[small.mul(a, b)] == big.mul(img[a], img[b])
            assert img[small.add(a, b)] == big.add(img[a], img[b])
    # image elements keep their degree over the prime field
    assert big.element_degree(img[small.generator]) == 2


def test_embed_element_same_field_is_identity():
    f = field_create(5, 2)
    for x in range(f.q):
        assert embed_element(f, f, x) == x


def test_embed_element_rejects_bad_pairs():
    with pytest.raises(FieldMismatch):
        embed_element(field_create(3, 2), field_create(3, 3), 1)
    with pytest.raises(FieldMismatch):
        embed_element(field_create(3, 1), field_create(5, 1), 1)
