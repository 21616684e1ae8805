"""Root data, dominance, the small-gaps predicate, and Newton functions."""

from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoslope import coweight
from isoslope.coweight import (
    NewtonFunction,
    RootDatum,
    cohomology_slope_interval,
    dominance_leq,
    hecke_newton,
    is_dominant,
    newton_to_slopes,
    pairing,
    pgl3_region,
    small_gaps,
    weyl_bound_check,
    weyl_vector,
)
from isoslope.errors import (
    MalformedInput,
    NonConvexInput,
    NotDominant,
    NotInCorootSpan,
    UnsupportedDatum,
)


def F(*args):
    return Fraction(*args)


# -- root data ---------------------------------------------------------------

def test_gl_sl_construction():
    gl4 = RootDatum.gl(4)
    assert gl4.rank == 3 and gl4.n == 4
    assert gl4.cartan == ()
    assert RootDatum.sl(2).rank == 1
    with pytest.raises(MalformedInput):
        RootDatum.gl(0)
    with pytest.raises(MalformedInput):
        RootDatum.sl(1)


def test_from_cartan_validation():
    a2 = RootDatum.from_cartan([[2, -1], [-1, 2]])
    assert a2.rank == 2 and a2.n == 2
    with pytest.raises(MalformedInput):
        RootDatum.from_cartan([])
    with pytest.raises(MalformedInput):
        RootDatum.from_cartan([[2, -1]])
    with pytest.raises(MalformedInput):
        RootDatum.from_cartan([[1, 0], [0, 2]])
    with pytest.raises(MalformedInput):
        RootDatum.from_cartan([[2, 1], [1, 2]])
    with pytest.raises(MalformedInput):
        RootDatum.from_cartan([[2, -1], [0, 2]])  # asymmetric zero pattern


def test_pairing_conventions():
    gl3 = RootDatum.gl(3)
    assert pairing(gl3, (3, 1, 0), 1) == 2
    assert pairing(gl3, (3, 1, 0), 2) == 1
    with pytest.raises(MalformedInput):
        pairing(gl3, (3, 1, 0), 3)
    a2 = RootDatum.from_cartan([[2, -1], [-1, 2]])
    # coroot coordinates (1, 1) pair to 1 with both simple roots
    assert pairing(a2, (1, 1), 1) == 1
    assert pairing(a2, (1, 1), 2) == 1


def test_vectors_must_be_exact():
    gl2 = RootDatum.gl(2)
    with pytest.raises(MalformedInput):
        pairing(gl2, (0.5, 0), 1)
    with pytest.raises(MalformedInput):
        pairing(gl2, (1, 0, 0), 1)
    with pytest.raises(MalformedInput):
        small_gaps(RootDatum.sl(2), (1, 0))  # sl needs sum zero


# -- dominance ---------------------------------------------------------------

def test_dominance_examples():
    gl3 = RootDatum.gl(3)
    assert dominance_leq(gl3, (1, 1, 1), (2, 1, 0))
    assert not dominance_leq(gl3, (2, 1, 0), (1, 1, 1))
    assert dominance_leq(gl3, (2, 1, 0), (2, 1, 0))
    with pytest.raises(NotInCorootSpan):
        dominance_leq(RootDatum.gl(2), (1, 0), (2, 1))


def test_dominance_on_raw_cartan_coordinates():
    a2 = RootDatum.from_cartan([[2, -1], [-1, 2]])
    assert dominance_leq(a2, (0, 0), (1, 2))
    assert not dominance_leq(a2, (1, 2), (1, 1))


def test_dominance_chain_axioms_seeded():
    rng = random.Random(20260822)
    for _ in range(200):
        n = rng.randint(2, 6)
        gl = RootDatum.gl(n)
        v = [rng.randint(-4, 4) for _ in range(n)]
        # w = v + nonnegative coroot combination, u = w + another
        def bump(base):
            out = list(base)
            for i in range(n - 1):
                t = rng.randint(0, 3)
                out[i] += t
                out[i + 1] -= t
            return out
        w, u = bump(v), bump(bump(v))
        assert dominance_leq(gl, v, v)
        assert dominance_leq(gl, v, w)
        assert dominance_leq(gl, v, u)
        if not dominance_leq(gl, w, v):
            assert w != v


def test_is_dominant():
    gl3 = RootDatum.gl(3)
    assert is_dominant(gl3, (2, 1, 0))
    assert is_dominant(gl3, (1, 1, 1))
    assert not is_dominant(gl3, (0, 1, 2))


# -- small gaps --------------------------------------------------------------

def test_small_gaps_flagship_vector():
    rep = small_gaps(RootDatum.gl(4), (F(5, 2), F(5, 2), F(1, 2), F(1, 2)))
    assert not rep.satisfied
    assert rep.gaps == (0, 2, 0)
    assert rep.violating == (2,)
    assert rep.le1_indices == (1, 3)


def test_small_gaps_generic_vector():
    rep = small_gaps(RootDatum.gl(4), (3, 2, 1, 0))
    assert rep.satisfied
    assert rep.violating == ()
    assert rep.le1_indices == (1, 2, 3)


def test_small_gaps_requires_dominant():
    with pytest.raises(NotDominant):
        small_gaps(RootDatum.gl(3), (0, 1, 0))


@settings(deadline=None, max_examples=300)
@given(st.integers(2, 7), st.data())
def test_small_gaps_iff_weyl_vector_still_dominates(n, data):
    gaps = data.draw(st.lists(st.fractions(0, 3, max_denominator=4),
                              min_size=n - 1, max_size=n - 1))
    tail = [sum(gaps[i:], Fraction(0)) for i in range(n - 1)] + [Fraction(0)]
    mean = sum(tail) / n
    v = [t - mean for t in tail]  # dominant, sum zero
    sl = RootDatum.sl(n)
    rho = weyl_vector(sl)
    diff = [r - x for r, x in zip(rho, v)]
    assert small_gaps(sl, v).satisfied == is_dominant(sl, diff)


# -- the Weyl vector ---------------------------------------------------------

def test_weyl_vector_sl():
    assert weyl_vector(RootDatum.sl(3)) == (1, 0, -1)
    assert weyl_vector(RootDatum.sl(4)) == (F(3, 2), F(1, 2), F(-1, 2), F(-3, 2))
    sl6 = RootDatum.sl(6)
    rho = weyl_vector(sl6)
    assert all(pairing(sl6, rho, i) == 1 for i in range(1, 6))


def test_weyl_vector_gl_unsupported():
    with pytest.raises(UnsupportedDatum):
        weyl_vector(RootDatum.gl(3))


def test_weyl_vector_from_cartan():
    a2 = RootDatum.from_cartan([[2, -1], [-1, 2]])
    assert weyl_vector(a2) == (1, 1)
    g2 = RootDatum.from_cartan([[2, -1], [-3, 2]])
    rho = weyl_vector(g2)
    assert rho == (5, 3)
    assert all(pairing(g2, rho, i) == 1 for i in (1, 2))
    affine = RootDatum.from_cartan([[2, -2], [-2, 2]])
    with pytest.raises(MalformedInput):
        weyl_vector(affine)


def test_weyl_bound_check():
    assert weyl_bound_check((2, 1, 0), 1)
    assert weyl_bound_check((F(5, 2), F(5, 2), F(1, 2), F(1, 2)), F(3, 2))
    assert not weyl_bound_check((3, 3, 0), 2)
    with pytest.raises(MalformedInput):
        weyl_bound_check((1.5, 0), 1)


# -- Newton functions --------------------------------------------------------

def test_newton_function_validation():
    nf = NewtonFunction((0, -1, -1, 0))
    assert len(nf) == 4 and nf[1] == -1 and list(nf) == [0, -1, -1, 0]
    with pytest.raises(MalformedInput):
        NewtonFunction(())
    with pytest.raises(MalformedInput):
        NewtonFunction((1, 2))
    with pytest.raises(NonConvexInput):
        NewtonFunction((0, 1, 0))


def test_hecke_newton_fixtures():
    assert tuple(hecke_newton((0, 0, 0))) == (0, -1, -1, 0)
    assert tuple(hecke_newton((1, 1, 0))) == (0, 0, 0, 0)
    assert tuple(hecke_newton((0,))) == (0, 0)
    with pytest.raises(MalformedInput):
        hecke_newton(())


def test_newton_to_slopes():
    newt = hecke_newton((0, 0, 0))
    assert tuple(newton_to_slopes(newt, 0)) == (1, 0, -1)
    assert tuple(newton_to_slopes(hecke_newton((1, 1, 0)), 0)) == (0, 0, 0)
    with pytest.raises(MalformedInput):
        newton_to_slopes(newt, 5)


@settings(deadline=None, max_examples=200)
@given(st.lists(st.fractions(-3, 3, max_denominator=6), min_size=1, max_size=7))
def test_hecke_newton_is_a_convex_minorant(vs):
    n = len(vs)
    newt = hecke_newton(vs)
    inc = [b - a for a, b in zip(newt, list(newt)[1:])]
    assert all(b >= a for a, b in zip(inc, inc[1:]))
    for r in range(1, n + 1):
        assert newt[r] <= vs[r - 1] + F(r * (r - n), 2)
    assert newt[0] == 0


# -- explicit rank-3 regions -------------------------------------------------

def test_pgl3_region_probes():
    assert pgl3_region(F(1, 3), F(1, 3)) == "A∩B"
    assert pgl3_region(1, 1) == "A∩B"
    assert pgl3_region(3, F(1, 2)) == "A"
    assert pgl3_region(F(1, 3), 2) == "A"
    assert pgl3_region(0, 0) == "B"
    assert pgl3_region(F(1, 4), F(1, 4)) == "B"
    assert pgl3_region(2, F(1, 10)) == "outside"
    assert pgl3_region(F(-1, 3), 1) == "outside"


def test_cohomology_slope_interval():
    assert cohomology_slope_interval(0, 0, 3, 3) == (0, 3)
    assert cohomology_slope_interval(0, 1, 1, 1) == (0, 2)
    assert cohomology_slope_interval(0, 0, 2, 1) == (1, 1)
    assert cohomology_slope_interval(F(1, 2), F(1, 2), 0, 4) == (F(1, 2), F(1, 2))
    with pytest.raises(MalformedInput):
        cohomology_slope_interval(1, 0, 1, 1)
    with pytest.raises(MalformedInput):
        cohomology_slope_interval(0, 0, 5, 2)


def test_small_gaps_validates_the_vector_once(monkeypatch):
    calls = []
    real = coweight._as_vector

    def counting(datum, v):
        calls.append(v)
        return real(datum, v)

    monkeypatch.setattr(coweight, "_as_vector", counting)
    sl = RootDatum.sl(40)
    rep = small_gaps(sl, weyl_vector(sl))
    assert rep.satisfied and len(rep.gaps) == 39
    assert len(calls) == 1
    assert is_dominant(sl, weyl_vector(sl)) and len(calls) == 2


def test_type_a_memory_is_linear_in_n():
    # type A works on slope differences and partial sums, in O(n) memory; an
    # (n-1)^2 matrix of ints at n = 2000 takes about 32 MB
    n = 2000
    zero = (0,) * n
    tracemalloc.start()
    try:
        sl = RootDatum.sl(n)
        rho = weyl_vector(sl)
        assert small_gaps(sl, rho).satisfied
        gl = RootDatum.gl(n)
        assert dominance_leq(gl, zero, zero)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
    assert sl.cartan == gl.cartan == ()
