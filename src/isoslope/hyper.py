"""Frobenius slopes of hypergeometric local systems on G_m minus a point.

A datum is a prime p >= 3 with a multiset c = (c_1..c_n), 1 <= c_i <= p-2.
The rank-n local system attached to c has, at a closed point x of degree m
(x not 0 or 1), a characteristic polynomial sum b_r t^r whose p-adic
coefficient valuations determine the slope vector via the Newton polygon;
slopes are normalized by the point degree, so they live in (1/(m n)) Z and
sum to n(n-1)/2.

The pipeline: power traces over GF(p^(m j)) (tuple sums weighted by
Teichmueller characters, folded by cyclic convolution in the dlog index
domain), then the power-sum recursion b_r = -(1/r) sum b_i T_{r-i}, then a
certified Newton polygon.  Coefficients the chosen strategy does not reach
are filled in from the determinant twist (v(b_n) = m n(n-1)/2 exactly) and,
for (anti)self-dual pairs, from the reciprocal-root symmetry
gamma -> q^(n-1)/gamma, which gives v(b_{n-r}) = v(b'_r) + m(n(n-1)/2 -
r(n-1)) against the dual datum c' = (p-1-c_i).

Everything is exact: residues mod p^N with explicit precision, Fractions
downstream.  A residue that vanishes at working precision enters the hull
as a censored bound and can only certify, never shape, the polygon.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .arith import (
    ExtField,
    PadicResidue,
    Valuation,
    embed_element,
    field_create,
    is_prime,
    norm,
    teichmuller_table,
)
from .convolution import cyclic_convolve
from .coweight import RootDatum, dominance_leq
from .errors import (
    DatumMismatch,
    MalformedInput,
    NotPrime,
    RankTooLargeForP,
    StrategyUnavailable,
)
from .polygon import HullPoint, SlopeVector, lower_hull, slopes_descending

STRATEGIES = ("full", "det", "selfdual", "dualpair")


@dataclass(frozen=True)
class HypergeometricDatum:
    """Characteristic p and exponent multiset c, stored sorted."""

    p: int
    c: tuple[int, ...]

    def __post_init__(self):
        if not is_prime(self.p):
            raise NotPrime(f"{self.p} is not prime")
        if self.p < 3:
            raise MalformedInput("need p >= 3")
        c = tuple(sorted(int(v) for v in self.c))
        if not c:
            raise MalformedInput("datum needs at least one exponent")
        if any(not 1 <= v <= self.p - 2 for v in c):
            raise MalformedInput(f"exponents must lie in [1, {self.p - 2}], got {c}")
        object.__setattr__(self, "c", c)

    @property
    def n(self) -> int:
        return len(self.c)


def dual_datum(datum: HypergeometricDatum) -> HypergeometricDatum:
    """Replace every exponent c_i by p - 1 - c_i."""
    return HypergeometricDatum(datum.p, tuple(datum.p - 1 - v for v in datum.c))


def is_self_dual(datum: HypergeometricDatum) -> bool:
    return dual_datum(datum).c == datum.c


# ---------------------------------------------------------------------------
# the mod-p degeneracy polynomial
# ---------------------------------------------------------------------------

@functools.cache
def unit_root_poly(datum: HypergeometricDatum) -> tuple[int, ...]:
    """Coefficients (low first) of the mod-p polynomial whose norm at x is
    the unit-root Frobenius eigenvalue: coefficient of X^r is
    (-1)^(n r) prod_i binom(c_i, r).  Roots mark points with no unit root,
    i.e. a positive bottom slope."""
    p, c, n = datum.p, datum.c, datum.n
    out = []
    for r in range(min(c) + 1):
        t = 1
        for ci in c:
            t = t * comb(ci, r) % p
        if (n * r) % 2:
            t = (-t) % p
        out.append(t)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def unit_root_eval(datum: HypergeometricDatum, point: "PointSpec") -> int:
    """Norm to GF(p) of the degeneracy polynomial at the point; zero exactly
    when the bottom slope is positive."""
    field = point.field
    return norm(field, field.eval_poly(unit_root_poly(datum), point.x))


def _binom_lucas(a: int, b: int, p: int) -> int:
    r = 1
    while (a or b) and r:
        a, ad = divmod(a, p)
        b, bd = divmod(b, p)
        r = 0 if bd > ad else r * comb(ad, bd) % p
    return r


def norm_compatibility_check(datum: HypergeometricDatum, m: int) -> bool:
    """The degree-m degeneracy polynomial (exponents scaled by
    1 + p + .. + p^(m-1)) must factor as prod_j u(X^(p^j)); this is what
    makes norms of the base polynomial compute extension-field traces."""
    if m < 1:
        raise MalformedInput(f"need m >= 1, got {m}")
    p, n = datum.p, datum.n
    s = (p ** m - 1) // (p - 1)
    cext = [ci * s for ci in datum.c]
    lhs = []
    for r in range(min(cext) + 1):
        t = 1
        for ce in cext:
            t = t * _binom_lucas(ce, r, p) % p
            if t == 0:
                break
        if (n * r) % 2:
            t = (-t) % p
        lhs.append(t)
    while lhs and lhs[-1] == 0:
        lhs.pop()

    base = unit_root_poly(datum)
    rhs = [1]
    for j in range(m):
        # multiply by base(X^(p^j)); iterate its few nonzero slots only
        shift = p ** j
        terms = [(i * shift, coeff) for i, coeff in enumerate(base) if coeff]
        nxt = [0] * (len(rhs) + (len(base) - 1) * shift)
        for i, a in enumerate(rhs):
            if a:
                for k, b in terms:
                    nxt[i + k] = (nxt[i + k] + a * b) % p
        rhs = nxt
    while rhs and rhs[-1] == 0:
        rhs.pop()
    return lhs == rhs


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointSpec:
    """A closed point of G_m minus 1: an exact-degree-m element, stored as
    the Frobenius-orbit representative with smallest dlog."""

    field: ExtField
    x: int

    @property
    def degree(self) -> int:
        return self.field.m

    @property
    def dlog(self) -> int:
        return self.field.dlog[self.x]


def point_spec(field: ExtField, x: int) -> PointSpec:
    if not 0 <= x < field.q:
        raise MalformedInput(f"element {x} outside GF({field.p}^{field.m})")
    if x in (0, 1):
        raise MalformedInput("points 0 and 1 are excluded")
    orbit = field.frobenius_orbit(x)
    if len(orbit) != field.m:
        raise MalformedInput(
            f"element has exact degree {len(orbit)}, not {field.m}; "
            f"build it over GF({field.p}^{len(orbit)})"
        )
    canon = min(orbit, key=lambda y: field.dlog[y])
    return PointSpec(field, canon)


def closed_points(field: ExtField) -> list[PointSpec]:
    """Canonical representatives of every closed point of exact degree m,
    ordered by representative dlog."""
    q, p, m = field.q, field.p, field.m
    order = q - 1
    seen = bytearray(order)
    out = []
    for e in range(1 if m == 1 else 0, order):
        if seen[e]:
            continue
        orbit = []
        f = e
        while True:
            orbit.append(f)
            seen[f] = 1
            f = f * p % order
            if f == e:
                break
        if len(orbit) == m:
            rep = field.exp[min(orbit)]
            if rep != 1:
                out.append(PointSpec(field, rep))
    return out


# ---------------------------------------------------------------------------
# trace tables (dlog domain), memoized per field object from field_create
# ---------------------------------------------------------------------------

@functools.cache
def _norm_one_minus_table(field: ExtField) -> tuple[int, ...]:
    """norm(1 - g^e) in GF(p), indexed by e; entry 0 (x = 1) is 0.

    y - 1 borrows only when digit 0 of y is zero, and the norm of
    1 - y = -(y - 1) is (-1)^m times that of y - 1, since
    (q - 1)/(p - 1) = 1 + p + .. + p^(m-1) = m mod 2 for odd p (for p = 2
    the sign is 1 either way).
    """
    p = field.p
    sign = (-1) ** field.m
    return tuple(sign * norm(field, y - 1 if y % p else y + p - 1) % p for y in field.exp)


@functools.cache
def _trace_table(datum: HypergeometricDatum, field: ExtField,
                 precision: int) -> tuple[int, ...]:
    """Raw tuple sums indexed by target dlog, mod p^precision.

    Entry e is sum over unit tuples with product g^e of prod char values;
    no rank sign applied here.  The character row of c_i holds
    tau(norm(1 - g^e))^c_i mod p^N at e, read through a length-p row of
    tau(v)^c_i over the residues v.
    """
    p = datum.p
    norms = _norm_one_minus_table(field)
    tau = teichmuller_table(p, precision)

    def char_row(c: int) -> list[int]:
        row = [0] + [tau[pow(v, c, p)] for v in range(1, p)]
        return [row[nm] for nm in norms]

    acc = char_row(datum.c[0])
    for ci in datum.c[1:]:
        acc = cyclic_convolve(acc, char_row(ci), p ** precision)
    return tuple(acc)


def frobenius_trace(datum: HypergeometricDatum, point: PointSpec, j: int,
                    precision: int) -> PadicResidue:
    """Trace of the j-th Frobenius power at the point, mod p^precision.

    Equals (-1)^(n-1) times the tuple sum over GF(p^(m j)): the rank shift
    contributes the sign, so the raw sum itself is congruent mod p to
    (-1)^(n-1) N(u(x)) while the returned trace is congruent to N(u(x)).
    """
    if j < 1:
        raise MalformedInput(f"need j >= 1, got {j}")
    if point.field.p != datum.p:
        raise DatumMismatch(
            f"point lives over GF({point.field.p}^{point.field.m}), datum has p = {datum.p}"
        )
    big = field_create(datum.p, point.field.m * j)
    y = embed_element(point.field, big, point.x)
    raw = _trace_table(datum, big, precision)[big.dlog[y]]
    if datum.n % 2 == 0:
        raw = -raw
    return PadicResidue(datum.p, precision, raw)


# ---------------------------------------------------------------------------
# characteristic-polynomial coefficients and strategies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CharPolyData:
    """Valuations of the coefficients b_0..b_n."""

    datum: HypergeometricDatum
    point: PointSpec
    strategy: str
    precision: int
    valuations: tuple[Valuation, ...]


def resolve_strategy(datum: HypergeometricDatum, strategy: str) -> str:
    if strategy == "auto":
        return "selfdual" if is_self_dual(datum) else "dualpair"
    if strategy not in STRATEGIES:
        raise MalformedInput(f"unknown strategy {strategy!r}")
    if strategy == "selfdual" and not is_self_dual(datum):
        raise StrategyUnavailable(
            f"datum {datum.c} is not self-dual; use dualpair (dual is "
            f"{dual_datum(datum).c})"
        )
    return strategy


def auto_precision(datum: HypergeometricDatum, m: int, strategy: str) -> int:
    """Enough precision that every coefficient the strategy must resolve is
    either pinned exactly or censored strictly above any possible hull."""
    n = datum.n
    if strategy in ("selfdual", "dualpair"):
        reach = (n + 1) // 2
    else:
        reach = n
    return m * reach * (n - 1) + 2


def _trace_jmax(n: int, strategy: str) -> int:
    if strategy == "full":
        return n
    if strategy == "det":
        return n - 1
    return (n + 1) // 2


def _power_traces(datum: HypergeometricDatum, point: PointSpec, jmax: int,
                  precision: int) -> dict[int, PadicResidue]:
    return {
        j: frobenius_trace(datum, point, j, precision)
        for j in range(1, jmax + 1)
    }


def _coeffs_from_traces(traces: dict[int, PadicResidue], p: int, precision: int,
                        jmax: int) -> list[PadicResidue]:
    """b_0..b_jmax from the power-sum recursion r b_r = -sum b_i T_{r-i}."""
    b = [PadicResidue(p, precision, 1)]
    for r in range(1, jmax + 1):
        s = b[0] * traces[r]
        for i in range(1, r):
            s = s + b[i] * traces[r - i]
        b.append((-s).div_unit(r))
    return b


def _shift(val: Valuation, delta: int) -> Valuation:
    if val.is_exact:
        return Valuation.exact(val.value + delta)
    return Valuation.at_least(val.value + delta)


def char_poly_valuations(datum: HypergeometricDatum, point: PointSpec,
                         strategy: str = "auto",
                         precision: int | None = None) -> CharPolyData:
    """Valuations of b_0..b_n at the point, by the requested strategy.

    full computes traces j <= n; det stops at n-1 and takes v(b_n) from the
    determinant twist; selfdual/dualpair stop at ceil(n/2) and complete the
    top half from the reciprocal-root symmetry.  Division by r in the
    power-sum recursion needs p > n.
    """
    n, p, m = datum.n, datum.p, point.field.m
    if p <= n:
        raise RankTooLargeForP(f"rank {n} needs p > n, got p = {p}")
    strategy = resolve_strategy(datum, strategy)
    if precision is None:
        precision = auto_precision(datum, m, strategy)
    if precision < 1:
        raise MalformedInput(f"precision must be >= 1, got {precision}")

    jmax = _trace_jmax(n, strategy)
    traces = _power_traces(datum, point, jmax, precision)
    b = _coeffs_from_traces(traces, p, precision, jmax)

    alpha = unit_root_eval(datum, point)
    if jmax >= 1 and (b[1].value + alpha) % p != 0:
        raise AssertionError("b_1 disagrees with the mod-p degeneracy value")

    vals: list[Valuation | None] = [None] * (n + 1)
    vals[0] = Valuation.exact(0)
    for r in range(1, min(jmax, n - 1) + 1):
        vals[r] = b[r].valuation()

    det_val = m * n * (n - 1) // 2
    vals[n] = Valuation.exact(det_val)
    if strategy == "full" and n >= 1:
        got = b[n].valuation()
        if got.is_exact:
            if got.value != det_val:
                raise AssertionError(
                    f"v(b_n) = {got.value} contradicts determinant twist {det_val}"
                )
        elif got.value > det_val:
            raise AssertionError("b_n censored above the determinant valuation")

    if strategy in ("selfdual", "dualpair"):
        # partner coefficients come from the dual datum's own traces; a
        # self-dual datum is its own dual, so they are trace-table hits
        dual = dual_datum(datum)
        pb = _coeffs_from_traces(_power_traces(dual, point, jmax, precision),
                                 p, precision, jmax)
        if (pb[1].value + unit_root_eval(dual, point)) % p != 0:
            raise AssertionError("dual b_1 disagrees with its mod-p value")
        partner_vals = [Valuation.exact(0)] + [pb[r].valuation()
                                               for r in range(1, jmax + 1)]
        h = (n + 1) // 2
        for s_idx in range(h + 1, n):
            delta = m * (n - 1) * (2 * s_idx - n) // 2
            vals[s_idx] = _shift(partner_vals[n - s_idx], delta)

    for r in range(2, n):
        v = vals[r]
        if v is not None and v.is_exact and v.value < 1:
            raise AssertionError(
                f"v(b_{r}) = {v.value} < 1; mod p the polynomial has degree <= 1"
            )
    if any(v is None for v in vals):
        raise AssertionError("strategy left a coefficient undetermined")

    return CharPolyData(datum, point, strategy, precision, tuple(vals))


# ---------------------------------------------------------------------------
# slopes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlopeReport:
    """Slopes at one closed point, with the gap profile and degeneracy flags."""

    datum: HypergeometricDatum
    point: PointSpec
    slopes: SlopeVector
    gaps: tuple[Fraction, ...]
    max_gap: Fraction
    violates_small_gaps: bool
    degenerate: bool        # u(x) = 0: no unit root, bottom slope > 0
    dual_degenerate: bool   # dual u(x) = 0: top slope < n-1
    strategy: str | None    # None on the generic fast path
    precision: int | None
    fast_path: bool


def gap_profile(slopes: SlopeVector):
    """(consecutive gaps, max gap, any gap > 1); empty profile for rank 1."""
    vals = tuple(slopes)
    gaps = tuple(a - b for a, b in zip(vals, vals[1:]))
    max_gap = max(gaps, default=Fraction(0))
    return gaps, max_gap, max_gap > 1


def _assert_report_sane(report: SlopeReport):
    n = report.datum.n
    vals = tuple(report.slopes)
    if len(vals) != n:
        raise AssertionError("slope count != rank")
    if sum(vals) != Fraction(n * (n - 1), 2):
        raise AssertionError(f"slope sum {sum(vals)} != n(n-1)/2")
    if vals and (vals[-1] < 0 or vals[0] > n - 1):
        raise AssertionError(f"slopes {vals} leave [0, n-1]")
    if (vals[-1] > 0) != report.degenerate:
        raise AssertionError("bottom slope contradicts the degeneracy flag")
    if (vals[0] < n - 1) != report.dual_degenerate:
        raise AssertionError("top slope contradicts the dual degeneracy flag")
    if n >= 2:
        if vals[-2] <= 0:
            raise AssertionError("second-smallest slope must be positive")
        if vals[1] >= n - 1:
            raise AssertionError("second-largest slope must be below n-1")
    # specialization: the Newton polygon at a point lies on or above the
    # generic (Hodge) one; a fast-path vector is the generic one itself
    if not report.fast_path and not dominance_leq(
            RootDatum.gl(n), vals, tuple(range(n - 1, -1, -1))):
        raise AssertionError(f"slopes {vals} exceed the generic polygon")


def slopes_at_point(datum: HypergeometricDatum, point: PointSpec,
                    strategy: str = "auto",
                    precision: int | None = None) -> SlopeReport:
    """Slope vector at one closed point.

    Generic fast path, automatic strategy only: for n <= 3, when neither the
    datum's nor the dual's degeneracy polynomial vanishes at x, the vector is
    forced to (n-1, .., 1, 0) with no p-adic work.  An explicitly named
    strategy is validated and run even where the shortcut would apply, so a
    request like selfdual on a non-self-dual datum refuses instead of
    answering by accident.
    """
    n = datum.n
    if datum.p <= n:
        raise RankTooLargeForP(f"rank {n} needs p > n, got p = {datum.p}")
    if point.field.p != datum.p:
        raise DatumMismatch(
            f"point lives over GF({point.field.p}^{point.field.m}), datum has p = {datum.p}"
        )
    degenerate = unit_root_eval(datum, point) == 0
    dual_degenerate = unit_root_eval(dual_datum(datum), point) == 0

    if strategy == "auto" and n <= 3 and not degenerate and not dual_degenerate:
        sv = SlopeVector(tuple(Fraction(n - 1 - i) for i in range(n)))
        gaps, max_gap, violates = gap_profile(sv)
        report = SlopeReport(datum, point, sv, gaps, max_gap, violates,
                             degenerate, dual_degenerate, None, None, True)
        _assert_report_sane(report)
        return report

    cpd = char_poly_valuations(datum, point, strategy, precision)
    polygon = lower_hull([HullPoint(r, v) for r, v in enumerate(cpd.valuations)])
    sv = slopes_descending(polygon, point.field.m)
    gaps, max_gap, violates = gap_profile(sv)
    report = SlopeReport(datum, point, sv, gaps, max_gap, violates,
                         degenerate, dual_degenerate, cpd.strategy,
                         cpd.precision, False)
    _assert_report_sane(report)
    return report
