"""Three independent ways to count height-bounded Dyck paths.

Ground truth for the closed-form extraction in genfunc:

  * count_paths_bruteforce -- every Dyck path of order k as a k-step
    prefix and suffix that meet at the middle, counted by pairs of
    classes of half walks with equal maxima, filtered on peak height.
    Exponential; guarded to order <= 14.
  * count_row_dp -- transfer-matrix dynamic program over (step, height)
    states with a rolling row of exact ints; one pass gives a whole row
    A(n, 0..kmax), and count_paths_dp reads one cell of it.
  * contfrac_rows -- truncated power-series convergents
    G_0 = 1, G_h = 1 / (1 - z * G_{h-1}) of the continued fraction of
    the Catalan series, each the ratio D_{h-1} / D_h of two polynomials
    of the Euler-Wallis recurrence D_h = D_{h-1} - z * D_{h-2}
    (Flajolet 1980) and expanded by one short series division; the
    coefficients of G_n count paths of height <= n, and
    count_by_contfrac returns row n.

This module is deliberately self-contained: it shares no code with the
generating-function route it is used to check.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from functools import lru_cache
from itertools import zip_longest
from typing import Iterator

BRUTEFORCE_MAX_ORDER = 14


def catalan(k: int) -> int:
    """The kth Catalan number, C(2k, k) / (k+1)."""
    if k < 0:
        raise ValueError(f"order must be nonnegative, got {k}")
    return math.comb(2 * k, k) // (k + 1)


def _half_walks(k: int) -> list[list[tuple[int, int, bool]]]:
    """Every k-step walk from height 0 that never goes below 0, by end height.

    Entry h lists (maximum node height, highest peak at an inner node,
    last step up) for each walk that ends at height h.
    """
    by_end: list[list[tuple[int, int, bool]]] = [[] for _ in range(k + 1)]

    def descend(pos: int, h: int, maxh: int, maxpeak: int, last_up: bool) -> None:
        if pos == k:
            by_end[h].append((maxh, maxpeak, last_up))
            return
        descend(pos + 1, h + 1, max(maxh, h + 1), maxpeak, True)
        # down step; an up step immediately before makes node h a peak
        if h > 0:
            descend(pos + 1, h - 1, maxh, max(maxpeak, h) if last_up else maxpeak, False)

    descend(0, 0, 0, 0, False)
    return by_end


@lru_cache(maxsize=BRUTEFORCE_MAX_ORDER + 1)
def _maxima_histograms(k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Count all Dyck paths of order k; histogram two per-path maxima.

    Returns (by_height, by_peak): entry h of by_height counts paths whose
    maximum node height is h, entry h of by_peak counts paths whose
    highest peak is at height h (0 for the empty path, which has no
    peaks).  Both maxima are taken per path and independently, so their
    agreement is an observation, not an assumption.

    Each path is a k-step prefix from 0 to some height h joined to a
    k-step suffix from h back to 0.  Read backwards, a suffix is a walk
    from 0 to h with the same nodes and peaks, and no walk from 0 stands
    higher than its steps taken (the suffix's pruning, height <= steps
    left); so the half walks ending at h serve as both halves, and each
    prefix-suffix pair is one path, Catalan(k) in all.  A path's maximum
    is the larger of its halves' maxima, and the junction h is a peak
    when the prefix ends with an up step and the suffix starts with a
    down step (its reversal ends with an up step).

    Both maxima depend on a half only through its (maximum, highest
    peak, last step up), so a junction's halves are grouped by that
    triple, and each ordered pair (P, S) of classes counts |P| * |S|.
    Both last steps up, not either: if only one half ends with an up
    step, the other leaves the junction for h + 1, and its own highest
    peak is already above h.
    """
    by_height = [0] * (k + 1)
    by_peak = [0] * (k + 1)
    for h, halves in enumerate(_half_walks(k)):
        classes = Counter(halves).items()
        for (max_p, peak_p, up_p), size_p in classes:
            for (max_s, peak_s, up_s), size_s in classes:
                paths = size_p * size_s
                by_height[max(max_p, max_s)] += paths
                by_peak[max(peak_p, peak_s, h if up_p and up_s else 0)] += paths
    return tuple(by_height), tuple(by_peak)


def count_paths_bruteforce(k: int, n: int) -> int:
    """Number of Dyck paths of order k with every peak height <= n.

    Exhaustive; refuses k > BRUTEFORCE_MAX_ORDER.  The count
    under the peak-height filter is compared against the count under the
    max-node-height filter on every call, since a Dyck path attains its
    maximum at a peak; disagreement would falsify that equivalence.
    """
    if k < 0 or n < 0:
        raise ValueError(f"order and bound must be nonnegative, got k={k}, n={n}")
    if k > BRUTEFORCE_MAX_ORDER:
        raise ValueError(
            f"order {k} exceeds brute-force guard {BRUTEFORCE_MAX_ORDER} "
            f"(2**{2 * k} sequences)"
        )
    by_height, by_peak = _maxima_histograms(k)
    cap = min(n, k)
    peak_count = sum(by_peak[: cap + 1])
    height_count = sum(by_height[: cap + 1])
    if peak_count != height_count:
        raise AssertionError(
            f"peak-height filter ({peak_count}) and max-height filter "
            f"({height_count}) disagree at k={k}, n={n}"
        )
    return peak_count


def count_row_dp(n: int, kmax: int) -> list[int]:
    """Transfer-matrix counts A(n, 0..kmax) of Dyck paths with height <= n.

    One pass propagates exact path counts over heights 0..min(n, kmax)
    through 2*kmax steps and reads the paths back at 0 after every even
    step; O(kmax * min(n, kmax)) big-int additions for the whole row.
    """
    if n < 0 or kmax < 0:
        raise ValueError(f"bound and kmax must be nonnegative, got n={n}, kmax={kmax}")
    hmax = min(n, kmax)
    ways = [1] + [0] * hmax
    row = [1]
    for _ in range(kmax):
        for _ in range(2):
            # new[h] = ways[h-1] + ways[h+1], with 0 outside 0..hmax
            padded = [0, *ways, 0]
            ways = [padded[h] + padded[h + 2] for h in range(hmax + 1)]
        row.append(ways[0])
    return row


def count_paths_dp(k: int, n: int) -> int:
    """Transfer-matrix count of order-k Dyck paths with height <= n."""
    return count_row_dp(n, k)[k]


def _wallis_denominators(n_max: int) -> Iterator[list[int]]:
    """D_0, D_1, ..., D_{n_max} of D_{-1} = D_0 = 1, D_h = D_{h-1} - z * D_{h-2}.

    D_h has degree floor((h+1)/2) and constant term 1; only the last two
    are held.
    """
    prev, cur = [1], [1]
    yield cur
    for _ in range(n_max):
        prev, cur = cur, [a - b for a, b in zip_longest(cur, [0, *prev], fillvalue=0)]
        yield cur


def _series_ratio(num: list[int], den: list[int], kmax: int) -> list[int]:
    """num / den mod z**(kmax+1) for a polynomial den with den[0] = 1.

    q[k] = num[k] - sum over j = 1..deg den of den[j] * q[k-j], which is
    O(kmax * deg den) big-int multiply-adds.
    """
    # den[deg], ..., den[1]: the last deg entries of q, read forwards,
    # meet them in convolution order.  q starts with deg zeros, the
    # coefficients below z**0, so that window always has deg entries.
    tail = den[:0:-1]
    deg = len(tail)
    q = [0] * deg
    for k in range(kmax + 1):
        head = num[k] if k < len(num) else 0
        q.append(head - sum(map(operator.mul, tail, q[k:])))
    return q[deg:]


def contfrac_rows(n_max: int, kmax: int, n_min: int = 0) -> Iterator[list[int]]:
    """Convergents G_{n_min}, ..., G_{n_max} mod z**(kmax+1), one at a time.

    G_0 = 1 and G_h = 1 / (1 - z * G_{h-1}); the coefficients of G_n
    count Dyck paths of height <= n.  By the fundamental recurrence of
    continued fractions (Euler-Wallis; Flajolet, "Combinatorial aspects
    of continued fractions", 1980) G_h = D_{h-1} / D_h, where

        D_{-1} = D_0 = 1,    D_h = D_{h-1} - z * D_{h-2},

    so row h is one series division by a polynomial of degree
    floor((h+1)/2): O(kmax * h/2) big-int multiply-adds per row, against
    O(kmax**2) for inverting 1 - z * G_{h-1} as a dense series.  Rows
    below n_min are not divided, only their D_h built.  Each row is a new
    list, so a caller may keep it.
    """
    if n_max < 0 or kmax < 0:
        raise ValueError(f"bound and kmax must be nonnegative, got n={n_max}, kmax={kmax}")
    num = [1]  # D_{-1}
    for h, den in enumerate(_wallis_denominators(n_max)):
        if h >= n_min:
            yield _series_ratio(num, den, kmax)
        num = den


def count_by_contfrac(n: int, kmax: int) -> list[int]:
    """Counts A(n, 0..kmax): row n of the continued-fraction sweep."""
    return next(contfrac_rows(n, kmax, n_min=n))
