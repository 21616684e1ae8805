"""Newton polygons from censored coefficient valuations, exactly.

The hull is built from Exact points only.  A censored point (a lower bound
coming from a residue that vanished at working precision) never contributes
a vertex: it either certifies the hull by lying on or above it, or the
computation refuses with PrecisionInsufficient.  All ordinates are
Fractions; nothing here is ever rounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import Valuation
from .errors import MalformedInput, NonConvexInput, PrecisionInsufficient


@dataclass(frozen=True)
class HullPoint:
    """One coefficient: abscissa = index, ordinate = (censored) valuation."""

    index: int
    val: Valuation


@dataclass(frozen=True)
class NewtonPolygon:
    """Lower hull: strict-corner vertices plus the ascending slope multiset."""

    vertices: tuple[tuple[int, Fraction], ...]
    slopes: tuple[Fraction, ...]  # ascending, one entry per unit of width

    def value_at(self, x) -> Fraction:
        """Ordinate of the hull at abscissa x (piecewise-linear)."""
        x = Fraction(x)
        vs = self.vertices
        if not vs[0][0] <= x <= vs[-1][0]:
            raise MalformedInput(f"abscissa {x} outside hull range")
        for (x0, y0), (x1, y1) in zip(vs, vs[1:]):
            if x <= x1:
                return y0 + (y1 - y0) * (x - Fraction(x0)) / (x1 - x0)
        return vs[-1][1]


@dataclass(frozen=True)
class SlopeVector:
    """Descending slope values; the shape every report exposes."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        vals = tuple(Fraction(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if any(a < b for a, b in zip(vals, vals[1:])):
            raise NonConvexInput(f"slope vector not descending: {vals}")

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]


def _lower_hull_of(points):
    """Monotone-chain lower hull of (x, y) pairs sorted by x, strict corners."""
    hull = []
    for x, y in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # keep only strict right turns: drop (x2,y2) when it sits on or
            # above the segment (x1,y1)-(x,y)
            if (y2 - y1) * (x - x2) >= (y - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append((x, Fraction(y)))
    return hull


def lower_hull(points) -> NewtonPolygon:
    """Certified lower hull of indexed valuations.

    Requires every index 0..n exactly once, index 0 Exact with value 0, index
    n Exact.  Censored indices must have their bound on or above the hull of
    the Exact points; otherwise PrecisionInsufficient names the first
    offender and the ordinate it failed to clear.
    """
    pts = sorted(points, key=lambda hp: hp.index)
    if not pts:
        raise MalformedInput("no hull points given")
    n = pts[-1].index
    indices = [hp.index for hp in pts]
    if indices != list(range(n + 1)):
        raise MalformedInput(f"need every index 0..{n} exactly once, got {indices}")
    if not (pts[0].val.is_exact and pts[0].val.value == 0):
        raise MalformedInput("index 0 must be Exact with valuation 0")
    if not pts[-1].val.is_exact:
        raise MalformedInput(f"top index {n} must be Exact")

    exact = [(hp.index, hp.val.value) for hp in pts if hp.val.is_exact]
    hull = _lower_hull_of(exact)
    poly_slopes = []
    for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
        poly_slopes.extend([(y1 - y0) / (x1 - x0)] * (x1 - x0))
    polygon = NewtonPolygon(tuple(hull), tuple(poly_slopes))

    for hp in pts:
        if hp.val.is_exact:
            continue
        needed = polygon.value_at(hp.index)
        if hp.val.value < needed:
            raise PrecisionInsufficient(
                f"coefficient {hp.index} only known divisible to order "
                f"{hp.val.value}, hull needs {needed}",
                index=hp.index,
                bound=hp.val.value,
                needed=needed,
            )
    if len(polygon.slopes) != n:
        raise AssertionError("hull width mismatch")  # pragma: no cover
    return polygon


def slopes_descending(polygon: NewtonPolygon, m: int) -> SlopeVector:
    """Divide the ascending hull slopes by the point degree m and flip."""
    if m < 1:
        raise MalformedInput(f"degree must be >= 1, got {m}")
    return SlopeVector(tuple(s / m for s in reversed(polygon.slopes)))


def biggest_convex_minorant(ceilings) -> list[Fraction]:
    """Pointwise-largest convex function below the ceilings, forced to 0 at 0.

    `ceilings` is a list of (index, bound) pairs that must include (0, 0);
    returns values at every integer index 0..n.  Since (0,0) is the leftmost
    point it always lies on the hull, so the constraint at 0 is met with
    equality and the hull IS the minorant.
    """
    seen = {}
    for idx, bound in ceilings:
        idx = int(idx)
        if idx in seen:
            raise MalformedInput(f"duplicate ceiling index {idx}")
        seen[idx] = Fraction(bound)
    if 0 not in seen or seen[0] != 0:
        raise MalformedInput("ceilings must include index 0 with bound 0")
    if any(idx < 0 for idx in seen):
        raise MalformedInput("ceiling indices must be >= 0")
    pts = sorted(seen.items())
    hull = _lower_hull_of(pts)
    n = pts[-1][0]
    polygon = NewtonPolygon(tuple(hull), ())
    return [polygon.value_at(r) for r in range(n + 1)]
