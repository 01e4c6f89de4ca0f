"""Integer quota tables floor(k*p) and ceil(k*p) with a snap-to-integer guard.

Representation constraints compare candidate counts against floor(k * p_a)
and ceil(k * p_a). The product k * p_a is computed in floating point, so a
quota that is mathematically an integer can land a hair off it: 90 * 0.7
evaluates to 62.99999999999999 and a raw floor yields 62 instead of 63,
while 77 * (9/11) evaluates to 63.00000000000001 and a raw ceil yields 64.
Values within SNAP_TOL of an integer count as that integer.

Each helper rounds once and makes one exact fraction test. A floor
f = floor(x) moves up to f + 1 when (f + 1) - x <= SNAP_TOL, and a ceiling
c = ceil(x) moves down to c - 1 when x - (c - 1) <= SNAP_TOL. That is the
floor or ceiling of x snapped to an integer m with |x - m| <= SNAP_TOL:
only a snap up to f + 1 changes a floor, only a snap down to c - 1 changes
a ceiling, and the test computes that |x - m|. Wherever the test can pass,
x and m are within a factor of 2 of each other (or m is 0), so by
Sterbenz's lemma the subtraction is exact and the test sees the true
distance.

Quotas round in one place: every table of k * p_a goes through these
helpers, both the per-task table the re-rankers share
(model.RankingTask.table), which rounds prefix_products, and the floors the
metrics take of any list. The metrics form their attribute-major products
p_a * k from a row of prefix lengths, the same bits as prefix_products
since multiplication commutes, and floor_quotas still does all the
rounding, so the algorithms and the metrics agree on every quota.
"""

import numpy as np

SNAP_TOL = 1e-12


def prefix_products(p, n_rows: int) -> np.ndarray:
    """(n_rows, len(p)) float64 table of k * p_a; row i is prefix length k = i + 1."""
    return np.outer(np.arange(1, n_rows + 1, dtype=np.float64), p)


def floor_quotas(x: np.ndarray) -> np.ndarray:
    """Elementwise floor(x), or the integer above x when it is within SNAP_TOL; returns int64."""
    x = np.asarray(x, dtype=np.float64)
    f = np.floor(x)
    gap = f + 1
    gap -= x
    f += gap <= SNAP_TOL
    return f.astype(np.int64)


def ceil_quotas(x: np.ndarray) -> np.ndarray:
    """Elementwise ceil(x), or the integer below x when it is within SNAP_TOL; returns int64."""
    x = np.asarray(x, dtype=np.float64)
    c = np.ceil(x)
    gap = c - 1
    np.subtract(x, gap, out=gap)
    c -= gap <= SNAP_TOL
    return c.astype(np.int64)
