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
rejected, since they can put ndcg outside [0, 1].

infeasible_index counts prefix lengths k where some attribute value sits
below its floor quota floor(k * p_a); infeasible_count counts the individual
(attribute, k) violations. Quotas round through quota.floor_quotas so these
checks agree with the re-ranking algorithms.
"""

from __future__ import annotations

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
from .model import DesiredDistribution, RankedList
from .quota import floor_quotas

SKEW_EPSILON = 1e-6

DEFAULT_DEPTH = 100


def _check_alignment(ranked: RankedList, desired: DesiredDistribution) -> None:
    if tuple(ranked.labels) != tuple(desired.labels):
        raise SupportMismatch(
            f"ranked labels {ranked.labels!r} do not match desired labels {desired.labels!r}"
        )


def _check_depth(k, n: int) -> int:
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 1 or k > n:
        raise KOutOfRange(f"k must be in 1..{n}, got {k!r}")
    return int(k)


def prefix_counts(ranked: RankedList) -> np.ndarray:
    """(n, num_attrs) cumulative attribute counts; row i covers the top i+1."""
    n = len(ranked)
    onehot = np.zeros((n, len(ranked.labels)), dtype=np.int64)
    onehot[np.arange(n), ranked.attributes] = 1
    return onehot.cumsum(axis=0)


def proportions_at_k(ranked: RankedList, k: int) -> np.ndarray:
    """Observed attribute proportions in the top k."""
    k = _check_depth(k, len(ranked))
    counts = np.bincount(ranked.attributes[:k], minlength=len(ranked.labels))
    return counts / k


def _skews(shares: np.ndarray, k: int, p: np.ndarray) -> np.ndarray:
    """ln(share / p) per attribute, shares clamped below at SKEW_EPSILON / k."""
    return np.log(np.maximum(shares, SKEW_EPSILON / k) / p)


def skews_at_k(ranked: RankedList, desired: DesiredDistribution, k: int) -> np.ndarray:
    """Skew of every attribute value at depth k (natural log)."""
    _check_alignment(ranked, desired)
    k = _check_depth(k, len(ranked))
    p = np.asarray(desired.proportions, dtype=np.float64)
    if np.any(p <= 0):
        raise ZeroDesiredProportion("skew is undefined for zero desired proportions")
    return _skews(proportions_at_k(ranked, k), k, p)


def skew_at_k(ranked: RankedList, desired: DesiredDistribution, attr, k: int) -> float:
    """Skew of one attribute value (by label or index) at depth k."""
    if isinstance(attr, str):
        idx = desired.index_of(attr)
    else:
        idx = int(attr)
        if not 0 <= idx < len(desired.labels):
            raise UnknownAttribute(f"attribute index {attr!r} out of range")
    return float(skews_at_k(ranked, desired, k)[idx])


def min_skew_at_k(ranked: RankedList, desired: DesiredDistribution, k: int) -> float:
    """Most negative skew at depth k (worst under-representation); <= 0."""
    return min(float(skews_at_k(ranked, desired, k).min()), 0.0)


def max_skew_at_k(ranked: RankedList, desired: DesiredDistribution, k: int) -> float:
    """Most positive skew at depth k (worst over-representation); >= 0."""
    return max(float(skews_at_k(ranked, desired, k).max()), 0.0)


def kl_divergence(p, q) -> float:
    """d_KL(p || q) in nats for two categorical distributions on one support.

    Terms with p_i = 0 contribute 0; q_i = 0 where p_i > 0 is undefined and
    raises ZeroDenominator.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1:
        raise SupportMismatch(f"supports differ: {p.shape} vs {q.shape}")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))) or np.any(p < 0) or np.any(q < 0):
        raise ValidationError("distributions must be finite and non-negative")
    if np.any((p > 0) & (q == 0)):
        raise ZeroDenominator("q is zero where p has mass")
    positive = p > 0
    return float(np.sum(p[positive] * np.log(p[positive] / q[positive])))


def _ndkl_from_counts(cum: np.ndarray, p: np.ndarray) -> float:
    ks = np.arange(1, cum.shape[0] + 1, dtype=np.float64)
    observed = cum / ks[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        logratio = np.log(observed / p)
        terms = np.where(observed > 0, observed * logratio, 0.0)
    weights = 1.0 / np.log2(ks + 1)
    return float((terms.sum(axis=1) * weights).sum() / weights.sum())


def ndkl(ranked: RankedList, desired: DesiredDistribution) -> float:
    """Discount-weighted average KL divergence of prefix distributions.

    Covers the whole list regardless of any evaluation depth; >= 0, and 0
    exactly when every prefix distribution equals the desired one.
    """
    _check_alignment(ranked, desired)
    if len(ranked) == 0:
        raise ValidationError("ndkl of an empty list is undefined")
    p = np.asarray(desired.proportions, dtype=np.float64)
    present = np.bincount(ranked.attributes, minlength=len(p)) > 0
    if np.any(present & (p <= 0)):
        raise ZeroDesiredProportion("list contains an attribute with zero desired proportion")
    return _ndkl_from_counts(prefix_counts(ranked), p)


def dcg(scores) -> float:
    """Discounted cumulative gain with gain = raw score."""
    s = np.asarray(scores, dtype=np.float64)
    if s.size == 0:
        return 0.0
    return float((s / np.log2(np.arange(2, s.size + 2))).sum())


def ndcg(ranked, ideal_scores) -> float:
    """DCG of the list over DCG of the same-length ideal prefix.

    `ranked` may be a RankedList or a raw score sequence. ideal_scores must
    be sorted non-increasing and at least as long as the list; typically the
    descending sort of all candidate scores the list was drawn from. Gains
    must be non-negative in the list and in the ideal prefix it is scored
    against: a negative gain can push the ratio below 0 or above 1.
    """
    s = ranked.scores if isinstance(ranked, RankedList) else np.asarray(ranked, dtype=np.float64)
    ideal = np.asarray(ideal_scores, dtype=np.float64)
    if ideal.size < s.size:
        raise LengthMismatch(f"ideal has {ideal.size} scores, list has {s.size}")
    prefix = ideal[: s.size]
    if s.size and min(s.min(), prefix.min()) < 0:
        raise ValidationError("ndcg needs non-negative scores in the list and its ideal prefix")
    num = dcg(s)
    den = dcg(prefix)
    if den == 0.0:
        if num == 0.0:
            return 1.0
        raise ZeroDenominator("ideal DCG is zero but the list has positive gain")
    return num / den


def _floor_violations(cum: np.ndarray, p: np.ndarray) -> np.ndarray:
    """(n, num_attrs) mask of counts below floor(k * p_a); row i is k = i + 1."""
    ks = np.arange(1, cum.shape[0] + 1, dtype=np.float64)
    return cum < floor_quotas(np.outer(ks, p))


def _infeasibility_from_counts(cum: np.ndarray, p: np.ndarray) -> tuple[int, int]:
    violations = _floor_violations(cum, p)
    return int(violations.any(axis=1).sum()), int(violations.sum())


def infeasible_prefixes(ranked: RankedList, desired: DesiredDistribution) -> np.ndarray:
    """1-based prefix lengths k where some attribute is below floor(k * p_a)."""
    _check_alignment(ranked, desired)
    p = np.asarray(desired.proportions, dtype=np.float64)
    return np.flatnonzero(_floor_violations(prefix_counts(ranked), p).any(axis=1)) + 1


def infeasible_index(ranked: RankedList, desired: DesiredDistribution) -> int:
    """Number of prefix lengths with at least one floor-quota violation."""
    return len(infeasible_prefixes(ranked, desired))


def infeasible_count(ranked: RankedList, desired: DesiredDistribution) -> int:
    """Number of (attribute, prefix length) floor-quota violations."""
    _check_alignment(ranked, desired)
    p = np.asarray(desired.proportions, dtype=np.float64)
    return _infeasibility_from_counts(prefix_counts(ranked), p)[1]


@dataclass(frozen=True)
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
    _check_alignment(ranked, desired)
    n = len(ranked)
    if n == 0:
        raise ValidationError("cannot measure an empty list")
    k = min(DEFAULT_DEPTH, n) if k is None else _check_depth(k, n)

    p = np.asarray(desired.proportions, dtype=np.float64)
    if np.any(p <= 0):
        raise ZeroDesiredProportion("measure requires strictly positive desired proportions")
    cum = prefix_counts(ranked)

    skew = _skews(cum[k - 1] / k, k, p)

    if ideal_scores is None:
        ideal = np.sort(ranked.scores)[::-1]
    else:
        ideal = np.asarray(ideal_scores, dtype=np.float64)
        if ideal.size < k:
            raise LengthMismatch(f"ideal has {ideal.size} scores, depth is {k}")
    ii, ic = _infeasibility_from_counts(cum, p)
    return MetricsReport(
        labels=tuple(ranked.labels),
        skew=skew,
        min_skew=min(float(skew.min()), 0.0),
        max_skew=max(float(skew.max()), 0.0),
        ndkl=_ndkl_from_counts(cum, p),
        ndcg=ndcg(ranked.scores[:k], ideal),
        infeasible_index=ii,
        infeasible_count=ic,
        k=k,
    )
