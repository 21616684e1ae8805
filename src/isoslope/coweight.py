"""Newton coweights and the small-gaps condition for split reductive groups.

A Newton point is modelled by its pairing values against the simple roots.
For GL_n / SL_n it is the weakly decreasing slope vector itself: the pairing
with the i-th simple root is the slope difference v_i - v_{i+1}, and
dominance compares partial sums, so type A needs no Cartan matrix.  Other
types are given by a Cartan matrix over the simple coroots.  The small-gaps
condition asks that every pairing with a simple root is at most 1,
equivalently that the Weyl coweight (half the sum of the positive coroots)
still dominates after subtracting the point.  The payoff downstream is a
narrowed interval for cohomological slopes.

Also here: the translation between Hecke eigenvalue valuations and Newton
functions, and the explicit rank-3 region test.  Vectors are exact ints or
Fractions throughout.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    MalformedInput,
    NonConvexInput,
    NotDominant,
    NotInCorootSpan,
    UnsupportedDatum,
)
from .polygon import SlopeVector, biggest_convex_minorant


def _frac(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise MalformedInput(f"expected int or Fraction, got {type(v).__name__}")


@dataclass(frozen=True)
class RootDatum:
    """A based root datum: type A by its slope vectors, others by a Cartan
    matrix.

    kind is "gl", "sl", or "cartan".  For gl/sl with parameter n the ambient
    vectors are length-n slope tuples (sl additionally requires sum zero),
    the simple roots are read off consecutive slope differences, and cartan
    is empty.  For a raw Cartan matrix, vectors are coordinates over the
    simple coroots directly.  Vectors have length n for every kind.
    """

    kind: str
    n: int
    cartan: tuple[tuple[int, ...], ...]

    @staticmethod
    def gl(n: int) -> "RootDatum":
        if n < 1:
            raise MalformedInput(f"need n >= 1, got {n}")
        return RootDatum("gl", n, ())

    @staticmethod
    def sl(n: int) -> "RootDatum":
        if n < 2:
            raise MalformedInput(f"need n >= 2, got {n}")
        return RootDatum("sl", n, ())

    @staticmethod
    def from_cartan(rows: Sequence[Sequence[int]]) -> "RootDatum":
        try:
            mat = tuple(tuple(operator.index(v) for v in row) for row in rows)
        except TypeError:
            raise MalformedInput("Cartan matrix must be a list of integer rows") from None
        r = len(mat)
        if r == 0:
            raise MalformedInput("empty Cartan matrix")
        if any(len(row) != r for row in mat):
            raise MalformedInput("Cartan matrix must be square")
        for i in range(r):
            if mat[i][i] != 2:
                raise MalformedInput(f"diagonal entry ({i},{i}) must be 2")
            for j in range(r):
                if i != j:
                    if mat[i][j] > 0:
                        raise MalformedInput("off-diagonal entries must be <= 0")
                    if (mat[i][j] == 0) != (mat[j][i] == 0):
                        raise MalformedInput("zero pattern must be symmetric")
        return RootDatum("cartan", r, mat)

    @property
    def rank(self) -> int:
        """Number of simple roots."""
        return self.n - 1 if self.kind in ("gl", "sl") else self.n


def _as_vector(datum: RootDatum, v: Sequence) -> tuple[Fraction, ...]:
    vec = tuple(_frac(x) for x in v)
    if len(vec) != datum.n:
        raise MalformedInput(f"expected a length-{datum.n} vector, got {len(vec)}")
    if datum.kind == "sl" and sum(vec) != 0:
        raise MalformedInput("sl vectors must sum to zero")
    return vec


def _pairings(datum: RootDatum, v: Sequence) -> tuple[Fraction, ...]:
    """Pairings with every simple root in order, validating v once."""
    vec = _as_vector(datum, v)
    if datum.kind in ("gl", "sl"):
        return tuple(a - b for a, b in zip(vec, vec[1:]))
    # vec holds coroot coordinates; <alpha_i, sum_j v_j coroot_j> = sum_j A_ji v_j
    r = datum.rank
    return tuple(sum(datum.cartan[j][i] * vec[j] for j in range(r)) for i in range(r))


def pairing(datum: RootDatum, v: Sequence, i: int) -> Fraction:
    """Pairing of the (co)weight vector with simple root i (1-based)."""
    if not 1 <= i <= datum.rank:
        raise MalformedInput(f"simple root index {i} outside 1..{datum.rank}")
    return _pairings(datum, v)[i - 1]


def _coroot_coordinates(diff: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """Expand a slope-vector difference over the simple coroots e_i - e_{i+1}.

    Possible exactly when the coordinate sum vanishes; the coefficients are
    then the partial sums of diff.
    """
    if sum(diff) != 0:
        raise NotInCorootSpan(
            f"difference has coordinate sum {sum(diff)}, outside the coroot span"
        )
    coords = []
    run = Fraction(0)
    for x in diff[:-1]:
        run += x
        coords.append(run)
    return tuple(coords)


def dominance_leq(datum: RootDatum, v, w) -> bool:
    """True when w - v is a nonnegative rational combination of simple
    coroots.  A difference outside the coroot span (for gl: unequal
    coordinate sums) raises NotInCorootSpan: such points are incomparable
    and a silent False would hide modeling mistakes."""
    a = _as_vector(datum, v)
    b = _as_vector(datum, w)
    diff = tuple(y - x for x, y in zip(a, b))
    if datum.kind in ("gl", "sl"):
        return all(c >= 0 for c in _coroot_coordinates(diff))
    return all(c >= 0 for c in diff)


def is_dominant(datum: RootDatum, v) -> bool:
    return all(g >= 0 for g in _pairings(datum, v))


@dataclass(frozen=True)
class SmallGapsReport:
    """Pairings of a dominant point with the simple roots, split by size.

    satisfied means every pairing is <= 1; le1_indices lists (1-based) the
    simple roots meeting the bound, so satisfied iff le1_indices is all of
    them, which is also the "the centralizer Levi is the whole group" case.
    """

    satisfied: bool
    gaps: tuple[Fraction, ...]
    violating: tuple[int, ...]
    le1_indices: tuple[int, ...]


def small_gaps(datum: RootDatum, v) -> SmallGapsReport:
    """Check <v, alpha_i> <= 1 for every simple root; v must be dominant."""
    gaps = _pairings(datum, v)
    if any(g < 0 for g in gaps):
        raise NotDominant(f"{tuple(v)} is not dominant")
    big = tuple(i for i, g in enumerate(gaps, start=1) if g > 1)
    small = tuple(i for i, g in enumerate(gaps, start=1) if g <= 1)
    return SmallGapsReport(not big, gaps, big, small)


def weyl_vector(datum: RootDatum) -> tuple[Fraction, ...]:
    """Half the sum of the positive coroots, in the datum's coordinates.

    For sl(n): ((n-1)/2, (n-3)/2, .., -(n-1)/2), the vector pairing to 1
    with every simple root.  gl carries central directions the coroots
    cannot see, so there the vector is not well-defined; use sl.
    """
    if datum.kind == "gl":
        raise UnsupportedDatum(
            "weyl vector needs a semisimple datum; use sl or a Cartan matrix"
        )
    if datum.kind == "sl":
        n = datum.n
        return tuple(Fraction(n + 1, 2) - i for i in range(1, n + 1))
    # coroot coordinates x solving sum_j A_ji x_j = 1 for every root i
    r = datum.rank
    aug = [[Fraction(datum.cartan[j][i]) for j in range(r)] + [Fraction(1)]
           for i in range(r)]
    for col in range(r):
        piv = next((k for k in range(col, r) if aug[k][col] != 0), None)
        if piv is None:
            raise MalformedInput("Cartan matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = aug[col][col]
        aug[col] = [x / inv for x in aug[col]]
        for k in range(r):
            if k != col and aug[k][col] != 0:
                f = aug[k][col]
                aug[k] = [x - f * y for x, y in zip(aug[k], aug[col])]
    return tuple(aug[k][r] for k in range(r))


def weyl_bound_check(slopes, mean) -> bool:
    """Partial-sum estimate for a descending slope vector with average mean:
    sum of the first r slopes exceeds r*mean by at most r(n-r)/2, for every
    r strictly inside 1..n.  Holds with equality throughout exactly on the
    shifted Weyl vector."""
    vals = tuple(_frac(v) for v in slopes)
    mean = _frac(mean)
    n = len(vals)
    run = Fraction(0)
    for r in range(1, n):
        run += vals[r - 1]
        if run - r * mean > Fraction(r * (n - r), 2):
            return False
    return True


@dataclass(frozen=True)
class NewtonFunction:
    """Values of a Newton polygon at the integers 0..n."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        vals = tuple(_frac(v) for v in self.values)
        if not vals:
            raise MalformedInput("empty Newton function")
        if vals[0] != 0:
            raise MalformedInput("Newton function must start at 0")
        inc = [b - a for a, b in zip(vals, vals[1:])]
        for a, b in zip(inc, inc[1:]):
            if b < a:
                raise NonConvexInput(f"increments {inc} are not weakly increasing")
        object.__setattr__(self, "values", vals)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i):
        return self.values[i]

    def __len__(self):
        return len(self.values)


def hecke_newton(t_valuations: Sequence) -> NewtonFunction:
    """Newton function determined by Hecke eigenvalue valuations v(t_1..t_n).

    Each t_r caps the polygon at height v(t_r) + r(r-n)/2; together with the
    forced value 0 at 0, the polygon is the biggest convex function under
    those ceilings.
    """
    vs = [_frac(v) for v in t_valuations]
    n = len(vs)
    if n == 0:
        raise MalformedInput("need at least one valuation")
    ceilings = [(0, Fraction(0))]
    for r, v in enumerate(vs, start=1):
        ceilings.append((r, v + Fraction(r * (r - n), 2)))
    return NewtonFunction(tuple(biggest_convex_minorant(ceilings)))


def newton_to_slopes(newt: NewtonFunction, v_tn) -> SlopeVector:
    """Recover the descending slope vector from a Newton function.

    The defining relation a_1 + .. + a_{n-r} = v(t_n) - Newt(r) makes the
    j-th largest slope the increment of Newt over [n-j, n-j+1].  Requires
    Newt(n) = v(t_n) for consistency.
    """
    v_tn = _frac(v_tn)
    vals = newt.values
    if vals[-1] != v_tn:
        raise MalformedInput(
            f"Newton endpoint {vals[-1]} must equal the top valuation {v_tn}"
        )
    inc = [b - a for a, b in zip(vals, vals[1:])]
    return SlopeVector(tuple(reversed(inc)))


def pgl3_region(y1, y2) -> str:
    """Locate a point of the rank-3 slope plane against the two explicit
    regions: A needs both coordinates >= 1/3; B needs 0 <= y1/2 <= y2 <= 2*y1.
    Membership in the union is what holds at almost every point."""
    y1, y2 = _frac(y1), _frac(y2)
    third = Fraction(1, 3)
    in_a = y1 >= third and y2 >= third
    in_b = 0 <= y1 / 2 <= y2 <= 2 * y1
    if in_a and in_b:
        return "A∩B"
    if in_a:
        return "A"
    if in_b:
        return "B"
    return "outside"


def cohomology_slope_interval(r, s, i: int, n: int) -> tuple[Fraction, Fraction]:
    """Slope window [r + max(0, i-n), s + min(i, n)] for the i-th cohomology
    of an n-dimensional variety whose input slopes lie in [r, s]."""
    r, s = _frac(r), _frac(s)
    if r > s:
        raise MalformedInput(f"need r <= s, got {r} > {s}")
    if not 0 <= i <= 2 * n:
        raise MalformedInput(f"cohomological degree {i} outside 0..{2 * n}")
    return (r + max(0, i - n), s + min(i, n))
