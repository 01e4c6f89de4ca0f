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
helpers. The per-task table the re-rankers share (model.RankingTask.table)
rounds the products np.outer(k, p), whose row for prefix length k holds
k * p_a. The metrics only ask whether a count is below its floor, and
below_floor asks it by floor_quotas' own fraction test in comparison form,
exact for the same reason (its docstring has the proof). Their products
p_a * k are the bits of that np.outer row, since multiplication commutes,
so the algorithms and the metrics agree on every quota.
"""

import numpy as np

SNAP_TOL = 1e-12


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


def below_floor(counts: np.ndarray, products: np.ndarray) -> np.ndarray:
    """counts < floor_quotas(products) elementwise, by one exact comparison; returns bool.

    counts are int64 (below 2**53, so counts + 1 is exact in float64) and
    the test is (counts + 1) - products <= SNAP_TOL. With f = floor(x) for
    a product x, floor_quotas(x) is f + 1 when (f + 1) - x <= SNAP_TOL and f
    otherwise. Where c + 1 <= f, c is below either floor, and (c + 1) - x
    is at most f - x <= 0 in exact arithmetic, so its rounding is <= 0 too:
    both sides are true. Where c = f, c is below the floor only when it
    snaps up, and the test is the very subtraction floor_quotas makes,
    exact by Sterbenz wherever it can pass: both sides agree. Where
    c >= f + 1, c reaches either floor, and (c + 1) - x >= (f + 2) - x > 1,
    which rounds to at least 1: both sides are false.
    """
    gap = counts + 1.0
    gap -= products
    return gap <= SNAP_TOL
