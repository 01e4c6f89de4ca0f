import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_task, ref_ceil, ref_floor
from fairrank.quota import SNAP_TOL, below_floor, ceil_quotas, floor_quotas


def quotas(x):
    return floor_quotas(x).tolist(), ceil_quotas(x).tolist()


def test_exact_integers_pass_through():
    assert quotas([3.0, 0.0]) == ([3, 0], [3, 0])


def test_plain_fractions():
    assert quotas([2.5, 0.9999, 0.0001]) == ([2, 0, 0], [3, 1, 1])


def test_snap_fixes_product_artifacts():
    # raw floor/ceil round these one off: the products land an ulp away from
    # the integer that exact arithmetic would produce
    assert 90 * 0.7 < 63
    assert math.floor(90 * 0.7) == 62
    assert floor_quotas([90 * 0.7]).tolist() == [63]

    assert 55 * (3 / 11) < 15
    assert math.floor(55 * (3 / 11)) == 14
    assert floor_quotas([55 * (3 / 11)]).tolist() == [15]

    assert 77 * (9 / 11) > 63
    assert math.ceil(77 * (9 / 11)) == 64
    assert ceil_quotas([77 * (9 / 11)]).tolist() == [63]

    assert 108 * (7 / 12) > 63
    assert math.ceil(108 * (7 / 12)) == 64
    assert ceil_quotas([108 * (7 / 12)]).tolist() == [63]


def test_vectorized_matches_scalar():
    ks = np.arange(1, 200, dtype=np.float64)
    ps = np.array([0.7, 3 / 11, 9 / 11, 7 / 12, 0.5, 0.1])
    products = np.outer(ks, ps)
    floors = floor_quotas(products)
    ceils = ceil_quotas(products)
    assert floors.shape == ceils.shape == products.shape
    assert floors.dtype == np.int64 and ceils.dtype == np.int64
    for i in range(products.shape[0]):
        for j in range(products.shape[1]):
            x = float(products[i, j])
            assert floors[i, j] == ref_floor(x)
            assert ceils[i, j] == ref_ceil(x)


@given(st.integers(1, 1000), st.floats(1e-3, 1.0))
def test_floor_ceil_bracket(k, p):
    x = k * p
    (lo,), (hi,) = quotas([x])
    assert (lo, hi) == (ref_floor(x), ref_ceil(x))
    assert lo <= hi <= lo + 1
    assert abs(lo - x) < 1 + 1e-9
    assert abs(hi - x) < 1 + 1e-9


@pytest.mark.parametrize("mix", [(0.3, 0.7), (0.05, 0.35, 0.6), (0.1,) * 10])
def test_task_table_rows_are_the_exact_decimal_quotas(mix):
    # float products land off integers here (90 * 0.7 = 62.999...); every
    # row must still match the quotas of the decimals in exact arithmetic
    k_max = 200
    labels = [f"g{i}" for i in range(len(mix))]
    task = make_task(dict(zip(labels, mix)), {a: [0.5] * k_max for a in labels}, k_max)
    table = task.table
    assert len(table.floor_rows) == len(table.ceil_rows) == k_max + len(mix) + 2
    for k, (floors, ceils) in enumerate(zip(table.floor_rows, table.ceil_rows), start=1):
        exact = [Fraction(k) * Fraction(str(q)) for q in mix]
        assert floors == [math.floor(x) for x in exact]
        assert ceils == [math.ceil(x) for x in exact]
    assert table.floors.dtype == table.ceils.dtype == np.int64
    assert table.floors.tolist() == table.floor_rows and table.ceils.tolist() == table.ceil_rows
    # each pool is read in place, as a memoryview of its scores and a -inf sentinel
    assert [v.tolist() for v in table.pools] == [s.tolist() + [-math.inf] for s in task.pool.scores]
    assert task.table is table


def snap_boundary_values():
    """0.0, and nextafter neighbours of m - SNAP_TOL, m, m + SNAP_TOL and m + 0.5 to 2**20."""
    rng = np.random.default_rng(97)
    m = np.concatenate([np.arange(0.0, 600.0), rng.integers(600, 2**20, 400), [2.0**20]])
    centers = np.concatenate([m - SNAP_TOL, m, m + SNAP_TOL, m + 0.5])
    values = [np.array([0.0, -0.0])]
    for direction in (np.inf, -np.inf):
        x = centers
        for _ in range(3):
            values.append(x)
            x = np.nextafter(x, direction)
    return np.concatenate(values)


def test_rounding_at_the_snap_boundary_matches_the_reference():
    x = snap_boundary_values()
    floors, ceils = floor_quotas(x).tolist(), ceil_quotas(x).tolist()
    assert floors == [ref_floor(v) for v in x.tolist()]
    assert ceils == [ref_ceil(v) for v in x.tolist()]
    # both sides of the tolerance are in the sample, snapped and not
    assert (np.abs(x - np.rint(x)) <= SNAP_TOL).any() and (np.abs(x - np.rint(x)) > SNAP_TOL).any()
    # the comparison form agrees with the rounded floors for counts on both sides of each floor
    f = floor_quotas(x)
    for c in (np.maximum(f + d, 0) for d in (-1, 0, 1, 2)):
        assert below_floor(c, x).tolist() == (c < f).tolist()
    assert below_floor(np.zeros(1, dtype=np.int64), np.zeros(1)).tolist() == [False]


@pytest.mark.parametrize(
    "mix",
    [(0.3, 0.7), (0.05, 0.35, 0.6), (0.1,) * 10, "random3", "random7"],
)
def test_task_table_rows_match_the_reference(mix):
    if isinstance(mix, str):
        w = np.random.default_rng(int(mix[-1])).random(int(mix[-1])) + 0.01
        mix = tuple((w / w.sum()).tolist())
    k_max = 300
    labels = [f"g{i}" for i in range(len(mix))]
    task = make_task(dict(zip(labels, mix)), {a: [0.5] * k_max for a in labels}, k_max)
    table = task.table
    p = task.desired.proportions.tolist()
    rows = range(1, k_max + len(mix) + 3)
    assert table.floor_rows == [[ref_floor(float(k) * q) for q in p] for k in rows]
    assert table.ceil_rows == [[ref_ceil(float(k) * q) for q in p] for k in rows]


def own_snap_ceil_quotas(x):
    """ceil(x) by the ceiling's own snap test, x - (ceil(x) - 1) <= SNAP_TOL, in float64."""
    x = np.asarray(x, dtype=np.float64)
    c = np.ceil(x)
    gap = c - 1
    np.subtract(x, gap, out=gap)
    c -= gap <= SNAP_TOL
    return c.astype(np.int64)


# integers up to 2**52, offset by up to twice SNAP_TOL, absolutely or relatively
_NEAR_INTEGERS = st.one_of(
    st.builds(lambda m, d: m + d, st.integers(-(2**52), 2**52), st.floats(-2e-12, 2e-12)),
    st.builds(lambda m, r: m * (1 + r), st.integers(-(2**52), 2**52), st.floats(-1e-10, 1e-10)),
    st.sampled_from([0.0, -0.0, SNAP_TOL, -SNAP_TOL, 2.0**52 - 0.5, 2.0**52 + 1]),
    st.floats(-(2.0**52), 2.0**52),
)


@settings(max_examples=500)
@given(st.lists(_NEAR_INTEGERS, min_size=1, max_size=8))
def test_mirrored_floor_is_the_ceilings_own_snap_bit_for_bit(values):
    # ceil_quotas is -floor_quotas(-x); negation is exact and rounding is
    # symmetric in sign, so it must make the ceiling's own test exactly
    x = np.array(values)
    assert ceil_quotas(x).tolist() == own_snap_ceil_quotas(x).tolist()
    # the snapped quotas bracket x: a floor above the ceiling would break the rankers
    assert (floor_quotas(x) <= ceil_quotas(x)).all()
