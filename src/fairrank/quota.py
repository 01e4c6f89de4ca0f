"""Integer quota tables floor(k*p) and ceil(k*p) with a snap-to-integer guard.

Representation constraints compare candidate counts against floor(k * p_a)
and ceil(k * p_a). The product k * p_a is computed in floating point, so a
quota that is mathematically an integer can land a hair off it: 90 * 0.7
evaluates to 62.99999999999999 and a raw floor yields 62 instead of 63,
while 77 * (9/11) evaluates to 63.00000000000001 and a raw ceil yields 64.
Values within SNAP_TOL of an integer are snapped to it before rounding.

Quotas round in one place: the re-ranking algorithms build whole
(prefix length, attribute) tables through these helpers before their
position loops, and the feasibility metrics use the same helpers, so both
agree on every quota.
"""

import numpy as np

SNAP_TOL = 1e-12


def _snap(x):
    nearest = np.rint(x)
    return np.where(np.abs(x - nearest) <= SNAP_TOL, nearest, x)


def floor_quotas(x: np.ndarray) -> np.ndarray:
    """Elementwise floor(x) after snapping near-integer x; returns int64."""
    return np.floor(_snap(np.asarray(x, dtype=np.float64))).astype(np.int64)


def ceil_quotas(x: np.ndarray) -> np.ndarray:
    """Elementwise ceil(x) after snapping near-integer x; returns int64."""
    return np.ceil(_snap(np.asarray(x, dtype=np.float64))).astype(np.int64)
