"""Exact counting of height-bounded Dyck paths with random-walk cross-checks.

The walk names are loaded on first use (PEP 562), so that importing the
package does not import numpy, which only the walk module needs.
"""

from .genfunc import CountTable, DivisibilityError, count_table
from .heightpoly import height_poly
from .oracle import (
    BRUTEFORCE_MAX_ORDER,
    catalan,
    contfrac_rows,
    count_paths_bruteforce,
    count_paths_dp,
    count_row_dp,
)

_WALK_NAMES = frozenset({
    "WalkConfig",
    "WalkStats",
    "conditional_hit_time",
    "hit_probability",
    "simulate",
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
    "count_paths_bruteforce",
    "count_paths_dp",
    "count_row_dp",
    "count_table",
    "height_poly",
    "hit_probability",
    "simulate",
    "__version__",
]
