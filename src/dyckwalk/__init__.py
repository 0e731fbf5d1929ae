"""Exact counting of height-bounded Dyck paths with random-walk cross-checks.

The walk names are loaded on first use (PEP 562), so that importing the
package does not import numpy, which only the walk module needs.
"""

from .genfunc import (
    CountTable,
    DivisibilityError,
    count_table,
    series_coeffs,
    series_denominator,
    series_numerator,
)
from .heightpoly import height_poly, height_poly_coeff, power_diff, power_diff_ratio
from .oracle import (
    BRUTEFORCE_MAX_ORDER,
    catalan,
    contfrac_rows,
    count_by_contfrac,
    count_paths_bruteforce,
    count_paths_dp,
    count_row_dp,
)

_WALK_NAMES = frozenset({
    "WalkConfig",
    "WalkStats",
    "conditional_hit_time",
    "hit_probability",
    "path_series_closed",
    "renewal_identity_holds",
    "simulate",
    "walk_length_to_order",
})


def __getattr__(name: str):
    if name in _WALK_NAMES:
        from . import walk

        return getattr(walk, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "BRUTEFORCE_MAX_ORDER",
    "CountTable",
    "DivisibilityError",
    "WalkConfig",
    "WalkStats",
    "catalan",
    "conditional_hit_time",
    "contfrac_rows",
    "count_by_contfrac",
    "count_paths_bruteforce",
    "count_paths_dp",
    "count_row_dp",
    "count_table",
    "height_poly",
    "height_poly_coeff",
    "hit_probability",
    "path_series_closed",
    "power_diff",
    "power_diff_ratio",
    "renewal_identity_holds",
    "series_coeffs",
    "series_denominator",
    "series_numerator",
    "simulate",
    "walk_length_to_order",
    "__version__",
]
