"""Cyclic convolution: the libmpdec path against the schoolbook oracle, and
against entries summed directly at lengths too long for the schoolbook."""

from __future__ import annotations

import decimal
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoslope.convolution import cyclic_convolve, cyclic_convolve_schoolbook
from isoslope.errors import MalformedInput


def test_known_small_case():
    # linear conv of [1,2,3] and [4,5,6] is [4,13,28,27,18]; wrap mod length 3
    assert cyclic_convolve([1, 2, 3], [4, 5, 6], 1000) == [31, 31, 28]


def test_delta_is_identity():
    b = [5, 0, 3, 2, 7]
    assert cyclic_convolve([1, 0, 0, 0, 0], b, 11) == [v % 11 for v in b]


def test_both_paths_agree_on_seeded_sweep():
    rng = random.Random(13)
    for n in (1, 2, 5, 63, 64, 65, 100, 128, 200):
        for modulus in (2, 3, 7 ** 3, 31 ** 5, 13 ** 14):
            a = [rng.randrange(modulus) for _ in range(n)]
            b = [rng.randrange(modulus) for _ in range(n)]
            assert cyclic_convolve(a, b, modulus) == \
                cyclic_convolve_schoolbook(a, b, modulus)


def test_commutative():
    rng = random.Random(99)
    a = [rng.randrange(343) for _ in range(70)]
    b = [rng.randrange(343) for _ in range(70)]
    assert cyclic_convolve(a, b, 343) == cyclic_convolve(b, a, 343)


def test_input_validation():
    with pytest.raises(MalformedInput):
        cyclic_convolve([1, 2], [1], 7)
    with pytest.raises(MalformedInput):
        cyclic_convolve([1], [1], 1)


@settings(deadline=None, max_examples=150)
@given(st.integers(2, 10 ** 6), st.data())
def test_paths_agree_on_random_inputs(modulus, data):
    n = data.draw(st.integers(1, 80))
    a = data.draw(st.lists(st.integers(0, modulus - 1), min_size=n, max_size=n))
    b = data.draw(st.lists(st.integers(0, modulus - 1), min_size=n, max_size=n))
    assert cyclic_convolve(a, b, modulus) == \
        cyclic_convolve_schoolbook(a, b, modulus)


def test_decimal_is_the_c_module():
    # under the pure-Python _pydecimal the packed multiply is quadratic
    assert hasattr(decimal, "__libmpdec_version__")


def test_agrees_with_schoolbook_across_libmpdec_algorithms():
    # at modulus 13^14 a slot holds 32 + len(str(n)) digits, so the products
    # below run from about 3,400 to 140,000 digits.  libmpdec multiplies
    # results of up to 1024 words (about 19,500 digits; n = 50, 250) by
    # Karatsuba over a basecase, and longer ones (n >= 300) by its
    # number-theoretic transform
    rng = random.Random(28560)
    modulus = 13 ** 14
    for n in (50, 250, 300, 1200, 2000):
        a = [rng.randrange(modulus) for _ in range(n)]
        b = [rng.randrange(modulus) for _ in range(n)]
        assert cyclic_convolve(a, b, modulus) == \
            cyclic_convolve_schoolbook(a, b, modulus)


def test_zero_and_sparse_inputs():
    rng = random.Random(7)
    modulus = 7 ** 8
    n = 1500
    b = [rng.randrange(modulus) for _ in range(n)]
    assert cyclic_convolve([0] * n, b, modulus) == [0] * n
    assert cyclic_convolve([0] * n, [0] * n, modulus) == [0] * n
    # nonzero entries at both ends leave leading zero slots in the product
    for hot in ((0,), (n - 1,), (0, n - 1), tuple(rng.sample(range(n), 5))):
        a = [0] * n
        for i in hot:
            a[i] = rng.randrange(1, modulus)
        sparse_b = [0] * n
        sparse_b[n - 1] = modulus - 1
        for other in (b, sparse_b):
            assert cyclic_convolve(a, other, modulus) == \
                cyclic_convolve_schoolbook(a, other, modulus)


@pytest.mark.parametrize("n, modulus", [(28560, 13 ** 14), (117648, 7 ** 10)])
def test_sampled_entries_at_table_lengths(n, modulus):
    # GF(13^4) and GF(7^6) trace-table lengths: about 50 outputs, each
    # summed directly as sum_i a_i b_(k-i) mod the modulus
    rng = random.Random(n)
    a = [rng.randrange(modulus) for _ in range(n)]
    b = [rng.randrange(modulus) for _ in range(n)]
    out = cyclic_convolve(a, b, modulus)
    assert len(out) == n
    for k in [0, n - 1] + rng.sample(range(n), 48):
        assert out[k] == sum(a[i] * b[k - i] for i in range(n)) % modulus
