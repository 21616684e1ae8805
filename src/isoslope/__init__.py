"""Exact p-adic slope computations for hypergeometric local systems over
finite fields, with the coweight calculus that frames them.

Layering: arith (fields, Teichmueller lifts, truncated p-adic residues) ->
polygon (certified Newton polygons from possibly-censored valuations) ->
hyper (trace sums, characteristic-polynomial strategies, slope reports) ->
scan (family sweeps, counterexample reports) and coweight (root data,
dominance, Hecke-Newton translation), surfaced by cli.
"""

from .arith import (
    ExtField,
    PadicResidue,
    Valuation,
    field_create,
    teichmuller,
)
from .convolution import cyclic_convolve
from .coweight import (
    NewtonFunction,
    RootDatum,
    SmallGapsReport,
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
from .errors import (
    DatumMismatch,
    DegreeTooLarge,
    FieldMismatch,
    InvalidC3,
    IsoslopeError,
    MalformedInput,
    NonConvexInput,
    NotDominant,
    NotInCorootSpan,
    NotPrime,
    PrecisionInsufficient,
    PrecisionMismatch,
    PrimeTooSmall,
    RankTooLargeForP,
    StrategyUnavailable,
    UnsupportedDatum,
)
from .hyper import (
    CharPolyData,
    HypergeometricDatum,
    PointSpec,
    SlopeReport,
    auto_precision,
    char_poly_valuations,
    closed_points,
    dual_datum,
    frobenius_trace,
    gap_profile,
    is_self_dual,
    norm_compatibility_check,
    point_spec,
    slopes_at_point,
    unit_root_eval,
    unit_root_poly,
)
from .polygon import (
    HullPoint,
    NewtonPolygon,
    SlopeVector,
    biggest_convex_minorant,
    lower_hull,
    slopes_descending,
)
from .scan import (
    CounterexampleReport,
    FamilySpec,
    family_members,
    point_record,
    predicted_violation_points,
    scan_family,
    verify_triple_gap_uniqueness,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
