"""Representation-bias and utility measures for ranked lists.

All measures compare a ranked list against a desired distribution over the
same attribute labels, in the same order (SupportMismatch otherwise).

skew at depth k is ln(observed proportion / desired proportion) for one
attribute value in the top k, with the observed proportion clamped below at
SKEW_EPSILON / k so an absent attribute yields a large negative value
instead of -inf. min/max skew take the worst under- and over-representation
across attribute values. Observed shares and desired proportions both sum
to 1, so MinSkew <= 0 <= MaxSkew; desired proportions are only normalized
to within model.NORMALIZATION_TOL, so both extremes are clamped at 0 to keep
that rounding from crossing it (2/6 against p = 0.33333333333333337 would
otherwise give MaxSkew = -1.1e-16).

ndkl is a position-discounted average of KL divergences: for each prefix
length i = 1..n, d_KL(prefix distribution || desired) weighted by
1 / log2(i + 1), normalized by the sum of the weights. It is 0 exactly when
every prefix matches the desired distribution and grows with bias near the
top of the list.

ndcg uses gain = raw score and discount 1 / log2(position + 1); the ideal
is the same-length prefix of descending-sorted scores. Negative gains are
rejected, since they can put ndcg outside [0, 1], and so are NaN or
infinite gains and an ideal score vector that is not sorted descending.
Finite gains whose DCG sum, or whose ndcg ratio, overflows float64 raise
ValidationError too, as dcg does, instead of giving inf, NaN or 0.
measure and simulate.run_task share one core that reduces the tables of
one list, or of a batch of lists of one length, to one column per
measure; measure is its batch of one and the only place a MetricsReport is
built.

infeasible_index counts prefix lengths k where some attribute value sits
below its floor quota floor(k * p_a); infeasible_count counts the individual
(attribute, k) violations. quota.below_floor tests each count against its
floor with no floor table, so these checks agree with the re-rankers.

Every skew and NDKL reads one log-share matrix per list,
L[a, i - 1] = ln(max(c_ia / i, SKEW_EPSILON / i) / p_a) over every prefix
length i, with c_ia the count of attribute a in the top i: the skews at depth
k are column k - 1, and NDKL's KL terms are (c_ia / i) * L[a, i - 1].

Every per-prefix table comes from one producer, a _Pair entry of attribute
indices and a distribution, whose constructor builds all of them read-only:
its prefix counts, floor-violation mask, infeasible row (the mask reduced
over attributes, read by measure and infeasible_prefixes), shares c_ia / i
and log-share matrix; there is no floor table. measure and run_task read
them all. A lone skew, infeasible_prefixes or ndkl call on a fresh pair
pays for the tables it does not read: at length 1000 over 10 attributes it
takes about 120-140 us against a cold measure's 160 us (best of 400, one
core of a shared Xeon VM, numpy 2.4). The tables are attribute-major,
(num_attrs, n) with column i - 1 covering the top i, so every per-prefix op
and every sum over attributes runs along the long prefix axis. Reductions
call the ufuncs' own reduce (_sum, _any, _all, _min, _max), the C loops the
ndarray methods wrap in Python: the same bits, fewer calls. The memo is
_pair, an lru_cache(maxsize=1) over (list, distribution): it keeps the
entry of the last pair, so a chain of metric calls on that pair, measure
among them, checks labels once and builds the tables once.
run_task builds its batch entry from the rankings' (m, n) attribute
indices, and the entry builds every table the same way, broadcast over the
m lists.
Lists and distributions own read-only arrays and label tuples, so no result
depends on what is kept, and every array a caller gets back is its own copy,
never a view into a kept table.

The rows that depend only on the prefix length i are kept once per process:
i itself, the skew clamp SKEW_EPSILON / i, the discount log2(i + 1) of DCG
and NDKL's weight 1 / log2(i + 1). _rows_of caches one read-only set per
power-of-two length, so the kept sets hold fewer than twice the entries of
the longest, and _prefix_rows(n) slices the first n entries of the set for
the power of two at or above n. Every entry is computed on its own, so
these are bit for bit the rows built for length n. An entry, dcg and ndcg
read these views, so no call builds them again.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import (
    KOutOfRange,
    LengthMismatch,
    SupportMismatch,
    UnknownAttribute,
    ValidationError,
    ZeroDenominator,
    ZeroDesiredProportion,
)
from .model import (
    DesiredDistribution,
    RankedList,
    _as_float_array,
    _check_proportions,
    _freeze,
    _is_int,
)
from .quota import below_floor

SKEW_EPSILON = 1e-6

DEFAULT_DEPTH = 100

# the ufuncs' own reductions, which ndarray.sum, any, all, min and max wrap in Python
_sum, _any, _all = np.add.reduce, np.logical_or.reduce, np.logical_and.reduce
_min, _max = np.minimum.reduce, np.maximum.reduce


def _check_depth(k, n: int) -> int:
    if not _is_int(k) or k < 1 or k > n:
        raise KOutOfRange(f"k must be in 1..{n}, got {k!r}")
    return int(k)


@functools.cache
def _attribute_column(num_attrs: int) -> np.ndarray:
    return _freeze(np.arange(num_attrs)[:, None])


def _cumulative(attrs: np.ndarray, num_attrs: int) -> np.ndarray:
    """(..., num_attrs, n) int64 prefix counts of (..., n) attribute indices.

    Column i covers the top i + 1. The one-hot is built as int64 and
    accumulated in place, so the sum runs with no buffered bool-to-int64 cast.
    """
    counts = (attrs[..., None, :] == _attribute_column(num_attrs)).astype(np.int64)
    return np.add.accumulate(counts, axis=-1, out=counts)


def prefix_counts(ranked: RankedList) -> np.ndarray:
    """Read-only (n, num_attrs) cumulative attribute counts; row i covers the top i+1."""
    return _freeze(_cumulative(ranked.attributes, len(ranked.labels))).T


# rows over prefix lengths i = 1..n: i, the skew clamp SKEW_EPSILON / i, the DCG
# discount log2(i + 1) and the NDKL weight 1 / log2(i + 1)
_Rows = namedtuple("_Rows", "positions clamps discount weights")


@functools.cache
def _rows_of(size: int) -> _Rows:
    positions = np.arange(1.0, size + 1)
    discount = np.log2(positions + 1)
    return _Rows(*map(_freeze, (positions, SKEW_EPSILON / positions, discount, 1.0 / discount)))


def _prefix_rows(n: int) -> _Rows:
    """The kept prefix-length rows, as read-only views of their first n entries."""
    rows = _rows_of(1 << (n - 1).bit_length())
    return _Rows(rows.positions[:n], rows.clamps[:n], rows.discount[:n], rows.weights[:n])


class _Pair:
    """The tables of one list's (n,) or a batch's (m, n) attribute indices against a distribution.

    The constructor builds every table, read-only. Every table is
    attribute-major, (..., num_attrs, n), and column i covers the top i + 1;
    there is no floor table.
    """

    def __init__(self, attributes: np.ndarray, desired: DesiredDistribution):
        p = desired.proportions
        self.counts = counts = _freeze(_cumulative(attributes, len(desired)))
        self.rows = rows = _prefix_rows(counts.shape[-1])
        self.positive = min(p.tolist()) > 0
        # the mask before the log-shares: that order measured faster at length 1000;
        # p_a * i is i * p_a bit for bit, so this is the quota module's floor test
        self.violations = _freeze(below_floor(counts, p[:, None] * rows.positions))
        self.infeasible = _freeze(_any(self.violations, axis=-2))
        self.shares = _freeze(counts / rows.positions)
        if not self.positive:
            # a zero p_a is absent from any list ndkl takes; a stand-in of 1 makes its
            # terms 0 * finite instead of 0 * inf = NaN, and the skews refuse it first
            p = np.where(p > 0, p, 1.0)
        logs = np.maximum(self.shares, rows.clamps)
        logs /= p[:, None]
        self.logs = _freeze(np.log(logs, out=logs))


@functools.lru_cache(maxsize=1)
def _pair(ranked: RankedList, desired: DesiredDistribution) -> _Pair:
    """The entry of this pair, once its labels match; the last pair's entry is kept."""
    if ranked.labels != desired.labels:
        raise SupportMismatch(
            f"ranked labels {ranked.labels!r} do not match desired labels {desired.labels!r}"
        )
    return _Pair(ranked.attributes, desired)


def proportions_at_k(ranked: RankedList, k: int) -> np.ndarray:
    """Observed attribute proportions in the top k."""
    k = _check_depth(k, len(ranked))
    return np.bincount(ranked.attributes[:k], minlength=len(ranked.labels)) / k


def _skew_row(ranked: RankedList, desired: DesiredDistribution, k: int) -> np.ndarray:
    """Every attribute's skew at depth k: column k - 1 of the pair's log-share matrix."""
    entry = _pair(ranked, desired)
    k = _check_depth(k, len(ranked))
    if not entry.positive:
        raise ZeroDesiredProportion("skew is undefined for zero desired proportions")
    return entry.logs[:, k - 1]


def skews_at_k(ranked: RankedList, desired: DesiredDistribution, k: int) -> np.ndarray:
    """Skew of every attribute value at depth k (natural log), as an array of its own."""
    return _skew_row(ranked, desired, k).copy()


def skew_at_k(ranked: RankedList, desired: DesiredDistribution, attr, k: int) -> float:
    """Skew of one attribute value (by label or integer index) at depth k."""
    if isinstance(attr, str):
        idx = desired.index_of(attr)
    elif _is_int(attr) and 0 <= attr < len(desired.labels):
        idx = int(attr)
    else:
        n = len(desired.labels)
        raise UnknownAttribute(f"attribute {attr!r} is not a label or an index in 0..{n - 1}")
    return float(_skew_row(ranked, desired, k)[idx])


def min_skew_at_k(ranked: RankedList, desired: DesiredDistribution, k: int) -> float:
    """Most negative skew at depth k (worst under-representation); <= 0."""
    # a Python min over the row skips numpy's fixed cost and picks the element row.min() would
    return min(min(_skew_row(ranked, desired, k).tolist()), 0.0)


def max_skew_at_k(ranked: RankedList, desired: DesiredDistribution, k: int) -> float:
    """Most positive skew at depth k (worst over-representation); >= 0."""
    return max(max(_skew_row(ranked, desired, k).tolist()), 0.0)


def kl_divergence(p, q) -> float:
    """d_KL(p || q) in nats for two categorical distributions on one support.

    Each must pass the check a DesiredDistribution's proportions pass
    (DistributionNotNormalized otherwise). Terms with p_i = 0 contribute 0;
    q_i = 0 where p_i > 0 is undefined and raises ZeroDenominator.
    """
    p = _as_float_array(p, "p")
    q = _as_float_array(q, "q")
    if p.ndim != 1 or q.ndim != 1:
        raise ValidationError(f"p and q must be flat vectors, got shapes {p.shape} and {q.shape}")
    if p.shape != q.shape:
        raise SupportMismatch(f"supports differ: {p.shape} vs {q.shape}")
    _check_proportions(p, "p")
    _check_proportions(q, "q")
    if np.any((p > 0) & (q == 0)):
        raise ZeroDenominator("q is zero where p has mass")
    positive = p > 0
    return float(np.sum(p[positive] * np.log(p[positive] / q[positive])))


def _ndkl(tables: _Pair) -> np.ndarray:
    """NDKL of each list of an entry, from its shares, log-shares and prefix-length rows.

    An absent attribute's term is 0 * ln(SKEW_EPSILON / i / p_a), a zero, and
    every prefix holds a present attribute's term, which is never -0.0, so
    each prefix's sum is the sum of its present terms, bit for bit. The
    sum runs down the attribute axis one term at a time, in the same order
    for one list or a batch.
    """
    weights = tables.rows.weights
    return _sum(_sum(tables.shares * tables.logs, axis=-2) * weights, axis=-1) / _sum(weights)


def ndkl(ranked: RankedList, desired: DesiredDistribution) -> float:
    """Discount-weighted average KL divergence of prefix distributions.

    Covers the whole list regardless of any evaluation depth; >= 0, and 0
    exactly when every prefix distribution equals the desired one.
    """
    entry = _pair(ranked, desired)
    if len(ranked) == 0:
        raise ValidationError("ndkl of an empty list is undefined")
    if np.any((entry.counts[:, -1] > 0) & (desired.proportions <= 0)):
        raise ZeroDesiredProportion("list contains an attribute with zero desired proportion")
    return float(_ndkl(entry))


def _score_vector(values, what: str) -> np.ndarray:
    s = _as_float_array(values, what)
    if s.ndim != 1:
        raise ValidationError(f"{what} must be a flat list of numbers, got shape {s.shape}")
    return s


def dcg(scores) -> float:
    """DCG with gain = raw score; gains may be negative, but they and their sum must be finite."""
    s = _score_vector(scores, "scores")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead of warned of
        total = float((s / _prefix_rows(s.size).discount).sum())
    if not (np.isfinite(s).all() and np.isfinite(total)):
        raise ValidationError("dcg needs finite gains whose sum does not overflow float64")
    return total


_NDCG_GAINS = "ndcg needs finite, non-negative gains in the list and ideal prefix"


def _ndcg_rows(s: np.ndarray, ideal_scores, discount) -> np.ndarray:
    """ndcg of each row of s (..., n) against the first n ideal scores, under n discounts.

    The rows must be finite, as a RankedList's or a checked task's scores are.
    """
    n = s.shape[-1]
    ideal = _score_vector(ideal_scores, "ideal scores")
    if ideal.size < n:
        raise LengthMismatch(f"ideal has {ideal.size} scores, list has {n}")
    if not _all(ideal[:-1] >= ideal[1:]):
        raise ValidationError("ideal scores must be sorted non-increasing, with no NaN")
    if n == 0:
        return np.ones(s.shape[:-1])
    prefix = ideal[:n]
    # s is finite; a sorted prefix has its min last and its max first; NaN fails every comparison
    if not (0 <= _min(s, axis=None) and 0 <= prefix[-1] and prefix[0] < np.inf):
        raise ValidationError(_NDCG_GAINS)
    try:
        with np.errstate(over="raise"):
            num = _sum(s / discount, axis=-1)
            den = _sum(prefix / discount)
            if den == 0.0 and _any(num, axis=None):
                raise ZeroDenominator("ideal DCG is zero but the list has positive gain")
            return num / den if den else np.ones(s.shape[:-1])
    except FloatingPointError:
        raise ValidationError("a DCG sum or the ndcg ratio overflows float64") from None


def ndcg(ranked, ideal_scores) -> float:
    """DCG of the list over DCG of the same-length ideal prefix.

    `ranked` may be a RankedList or a flat score sequence. ideal_scores must
    be flat, sorted non-increasing and at least as long as the list; often the
    descending sort of all candidate scores the list was drawn from. Gains
    in the list and in the ideal prefix it is scored against must be finite
    and non-negative (a negative gain can push the ratio below 0 or above
    1). Violations raise ValidationError.
    """
    if isinstance(ranked, RankedList):
        s = ranked.scores
    else:
        s = _score_vector(ranked, "scores")
        if not np.isfinite(s).all():
            raise ValidationError(_NDCG_GAINS)
    return float(_ndcg_rows(s, ideal_scores, _prefix_rows(s.size).discount))


def infeasible_prefixes(ranked: RankedList, desired: DesiredDistribution) -> np.ndarray:
    """1-based prefix lengths k where some attribute is below floor(k * p_a)."""
    return _pair(ranked, desired).infeasible.nonzero()[0] + 1


def infeasible_index(ranked: RankedList, desired: DesiredDistribution) -> int:
    """Number of prefix lengths with at least one floor-quota violation."""
    return len(infeasible_prefixes(ranked, desired))


def infeasible_count(ranked: RankedList, desired: DesiredDistribution) -> int:
    """Number of (attribute, prefix length) floor-quota violations."""
    return int(_pair(ranked, desired).violations.sum())


@dataclass(frozen=True, eq=False)
class MetricsReport:
    """All measures for one ranked list against one desired distribution.

    skew, min_skew, max_skew and ndcg are evaluated at depth k; ndkl,
    infeasible_index and infeasible_count always cover the whole list.
    """

    labels: tuple[str, ...]
    skew: np.ndarray
    min_skew: float
    max_skew: float
    ndkl: float
    ndcg: float
    infeasible_index: int
    infeasible_count: int
    k: int

    @property
    def feasible(self) -> bool:
        return self.infeasible_index == 0

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "skew": {a: float(s) for a, s in zip(self.labels, self.skew)},
            "min_skew": self.min_skew,
            "max_skew": self.max_skew,
            "ndkl": self.ndkl,
            "ndcg": self.ndcg,
            "infeasible_index": self.infeasible_index,
            "infeasible_count": self.infeasible_count,
            "feasible": self.feasible,
        }


def _columns(tables: _Pair, scores: np.ndarray, k: int, ideal):
    """All measures of an entry's lists, which share one length n, taken together at depth k.

    tables is measure's memo entry for one list, with (num_attrs, n)
    tables, or run_task's batch entry for m lists, with (m, num_attrs, n)
    ones; scores are the lists' (n,) or (m, n) scores, and ideal is the one
    ideal score vector for all of them. Returns one column per scalar
    measure, of shape () or (m,), in CSV order: infeasible_index,
    infeasible_count, min_skew, max_skew, ndkl, ndcg. Every reduction runs
    over a list's own axes in the single-list order, so a list's values are
    bit-identical in a batch of one or of many.
    """
    if not tables.positive:
        raise ZeroDesiredProportion("measure requires strictly positive desired proportions")
    skew = tables.logs[..., k - 1]
    return (
        _sum(tables.infeasible, axis=-1),
        _sum(tables.violations, axis=(-2, -1)),
        _min(skew, axis=-1, initial=0.0),
        _max(skew, axis=-1, initial=0.0),
        _ndkl(tables),
        _ndcg_rows(scores[..., :k], ideal, tables.rows.discount[:k]),
    )


def measure(
    ranked: RankedList,
    desired: DesiredDistribution,
    ideal_scores=None,
    k: int | None = None,
) -> MetricsReport:
    """Compute a full MetricsReport.

    k defaults to min(100, len(list)). ideal_scores defaults to the
    descending sort of the list's own scores, which makes ndcg 1.0 for any
    list that is itself score-sorted; pass the merged candidate scores to
    measure utility loss against the unconstrained ordering.
    """
    entry = _pair(ranked, desired)
    n = len(ranked)
    if n == 0:
        raise ValidationError("cannot measure an empty list")
    k = min(DEFAULT_DEPTH, n) if k is None else _check_depth(k, n)
    ideal = np.sort(ranked.scores)[::-1] if ideal_scores is None else ideal_scores
    columns = _columns(entry, ranked.scores, k, ideal)
    index, count, low, high, div, gain = [column.item() for column in columns]
    # a copy, so a kept report holds k's column and not the whole matrix
    skew = entry.logs[:, k - 1].copy()
    return MetricsReport(desired.labels, skew, low, high, div, gain, index, count, k)
