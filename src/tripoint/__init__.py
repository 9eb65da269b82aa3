"""Weierstrass gaps, pure gaps and evaluation codes at the three
distinguished points of the plane curves X*Y^n + Y*Z^n + Z*X^n + X*Y*Z*G = 0.

Everything closed-form in here is double-checked, at test time and on
demand, against a linear-algebra computation of Riemann-Roch dimensions
that uses none of the dimension formulas; the orders of X, Y and Z that
both read (series.monomial_orders) are checked by validate_curve.
"""

from .fields import Field, FieldError, embed, make_field
from .curves import CheckResult, CurveError, CurveSpec, rational_points_raw
from .series import SeriesError, monomial_orders
from .riemann_roch import (OracleError, RRSpace, ThreePointDivisor,
                           basis_L_oracle, canonical_divisor, dim_L_oracle,
                           dim_mP_formula, dim_Sd, dim_shifted_formula,
                           divisor_of_x, divisor_of_y, order_of_form)
from .claims import FAMILIES, Claim, dimension_claims
from .weierstrass import (PureGapRecord, gap_index, gaps_closed_form,
                          gaps_oracle, kim_image, kim_map, pure_gap_box,
                          pure_gap_count_pair, pure_gap_count_triple,
                          pure_gap_dimension, pure_gap_oracle, pure_gap_params,
                          pure_gaps, pure_gaps_pair_via_homma_kim,
                          semigroup_generators)
from .codes import (BudgetError, CodeReport, CodesError, CodeSpec, build_CL,
                    build_COmega, carvalho_torres_bound, curve_search, design,
                    evaluation_points, goppa_bound, hermitian_maximal_count,
                    hurwitz_count, low_weight_search, verify_distance_floor)
from .catalog import RECORD_LENGTHS, RECORD_ROW, REFERENCE_ROWS, builtin_curves
from .verification import validate_curve

__version__ = "0.1.0"

__all__ = [
    "Field", "FieldError", "embed", "make_field",
    "CheckResult", "CurveError", "CurveSpec", "rational_points_raw",
    "validate_curve", "SeriesError",
    "OracleError", "RRSpace", "ThreePointDivisor", "basis_L_oracle",
    "canonical_divisor", "dim_L_oracle", "dim_mP_formula", "dim_Sd",
    "dim_shifted_formula", "divisor_of_x", "divisor_of_y",
    "monomial_orders", "order_of_form",
    "FAMILIES", "Claim", "dimension_claims",
    "PureGapRecord", "gap_index",
    "gaps_closed_form", "gaps_oracle", "kim_image", "kim_map",
    "pure_gap_box", "pure_gap_count_pair", "pure_gap_count_triple",
    "pure_gap_dimension", "pure_gap_oracle", "pure_gap_params", "pure_gaps",
    "pure_gaps_pair_via_homma_kim", "semigroup_generators",
    "BudgetError", "CodeReport", "CodesError", "CodeSpec", "build_CL",
    "build_COmega", "carvalho_torres_bound", "curve_search", "design",
    "evaluation_points", "goppa_bound",
    "hermitian_maximal_count", "hurwitz_count", "low_weight_search",
    "verify_distance_floor",
    "RECORD_LENGTHS", "RECORD_ROW", "REFERENCE_ROWS", "builtin_curves",
    "__version__",
]
