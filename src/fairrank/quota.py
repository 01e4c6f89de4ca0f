"""Integer quota tables floor(k*p) and ceil(k*p) with a snap-to-integer guard.

Representation constraints compare candidate counts against floor(k * p_a)
and ceil(k * p_a). The product k * p_a is computed in floating point, so a
quota that is mathematically an integer can land a hair off it: 90 * 0.7
evaluates to 62.99999999999999 and a raw floor yields 62 instead of 63,
while 77 * (9/11) evaluates to 63.00000000000001 and a raw ceil yields 64.
Values within SNAP_TOL of an integer are snapped to it before rounding.

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


def _snap(x):
    nearest = np.rint(x)
    return np.where(np.abs(x - nearest) <= SNAP_TOL, nearest, x)


def prefix_products(p, n_rows: int) -> np.ndarray:
    """(n_rows, len(p)) float64 table of k * p_a; row i is prefix length k = i + 1."""
    return np.outer(np.arange(1, n_rows + 1, dtype=np.float64), p)


def floor_quotas(x: np.ndarray) -> np.ndarray:
    """Elementwise floor(x) after snapping near-integer x; returns int64."""
    return np.floor(_snap(np.asarray(x, dtype=np.float64))).astype(np.int64)


def ceil_quotas(x: np.ndarray) -> np.ndarray:
    """Elementwise ceil(x) after snapping near-integer x; returns int64."""
    return np.ceil(_snap(np.asarray(x, dtype=np.float64))).astype(np.int64)

