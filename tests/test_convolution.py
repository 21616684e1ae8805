"""Cyclic convolution: the packed big-integer path against the schoolbook
oracle."""

from __future__ import annotations

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
