"""Domain types: desired distributions, candidate pools, tasks, ranked lists.

A ranking task is (desired distribution over attribute values, one
score-sorted candidate pool per attribute value, target length k_max).
Attribute values are identified positionally: index i everywhere refers to
labels[i] of the task's desired distribution. DesiredDistribution and
RankedList check themselves at construction, so the metrics can take any
instance as well-formed; validate_task() then aligns a task's pools with its
distribution into the frozen form the algorithms assume.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, pairwise

import numpy as np

from .errors import (
    AllZeroCounts,
    DistributionNotNormalized,
    InsufficientCandidates,
    LengthMismatch,
    PoolNotSorted,
    UnknownAttribute,
    ValidationError,
)
from .quota import ceil_quotas, floor_quotas, prefix_products

NORMALIZATION_TOL = 1e-9


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _is_int(x) -> bool:
    """True for Python and numpy integers, but not for bools."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _as_list(values, what: str) -> list:
    """list(values), or ValidationError when values is a scalar, None or a string."""
    if not isinstance(values, (str, bytes)):
        try:
            return list(values)
        except TypeError:
            pass
    raise ValidationError(f"{what} must be a list, got {values!r}")


def _as_float_array(values, what: str) -> np.ndarray:
    try:
        return np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} must be numeric: {exc}") from None


@dataclass(frozen=True)
class DesiredDistribution:
    """Target proportions over attribute values, index-aligned with labels.

    Construction requires at least one label, unique string labels, and one
    finite, non-negative proportion per label summing to 1 within
    NORMALIZATION_TOL (ValidationError or DistributionNotNormalized
    otherwise). It stores the labels as a tuple and the proportions as a
    frozen float64 copy.
    """

    labels: tuple[str, ...]
    proportions: np.ndarray

    def __post_init__(self):
        labels = tuple(self.labels)
        p = _freeze(_as_float_array(self.proportions, "desired proportions").copy())
        if len(labels) == 0:
            raise DistributionNotNormalized("distribution has no attribute values")
        if not all(isinstance(a, str) for a in labels):
            raise ValidationError(f"attribute labels must be strings, got {labels!r}")
        if len(set(labels)) != len(labels):
            raise ValidationError("duplicate attribute labels in distribution")
        if p.ndim != 1 or len(p) != len(labels):
            raise ValidationError("proportions must be one value per label")
        if not np.all(np.isfinite(p)) or np.any(p < 0):
            raise DistributionNotNormalized("proportions must be finite and non-negative")
        if abs(float(p.sum()) - 1.0) > NORMALIZATION_TOL:
            raise DistributionNotNormalized(f"proportions sum to {float(p.sum()):.12f}, expected 1")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "proportions", p)

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, float]) -> DesiredDistribution:
        return cls(labels=tuple(str(k) for k in mapping), proportions=list(mapping.values()))

    def as_mapping(self) -> dict[str, float]:
        return {a: float(p) for a, p in zip(self.labels, self.proportions)}

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownAttribute(f"attribute {label!r} is not in the desired distribution") from None

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class ScoredPool:
    """One candidate score array per attribute value, index-aligned with labels.

    Each array is expected to be sorted in non-increasing order; that is
    enforced by validate_task, not by the constructor.
    """

    labels: tuple[str, ...]
    scores: tuple[np.ndarray, ...]

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Sequence[float]]) -> ScoredPool:
        labels = tuple(str(k) for k in mapping)
        scores = tuple(
            _freeze(_as_float_array(_as_list(v, f"pool for {k!r}"), f"pool scores for {k!r}"))
            for k, v in mapping.items()
        )
        return cls(labels=labels, scores=scores)

    def total(self) -> int:
        """Number of candidates across all attribute values."""
        return sum(len(s) for s in self.scores)


# a validated task's quotas and pools in the form the re-rankers read
TaskTable = namedtuple("TaskTable", "floors ceils floor_rows ceil_rows pools")


@dataclass(frozen=True)
class RankingTask:
    desired: DesiredDistribution
    pool: ScoredPool
    k_max: int

    @cached_property
    def table(self) -> TaskTable:
        """A validated task's quotas and pools, built on first use and shared by every ranking.

        floors and ceils are the int64 tables floor(k * p_a) and ceil(k * p_a),
        row i for k = i + 1, over k_max + n + 2 rows (DetConstSort's counter
        bound); floor_rows and ceil_rows are the same as lists, and each pool
        is a list of its scores ending in a -inf sentinel.
        """
        products = prefix_products(self.desired.proportions, self.k_max + len(self.desired) + 2)
        floors, ceils = floor_quotas(products), ceil_quotas(products)
        pools = [s.tolist() + [-np.inf] for s in self.pool.scores]
        return TaskTable(floors, ceils, floors.tolist(), ceils.tolist(), pools)


@dataclass(frozen=True)
class RankedList:
    """A ranking: parallel arrays of attribute indices and scores.

    attributes[i] indexes into labels; position i of the list (0-based) holds
    a candidate of attribute labels[attributes[i]] with score scores[i].
    fallback_events counts positions where a constrained algorithm had to
    substitute an attribute because the one its rule demanded was exhausted.

    Construction rejects attribute and score arrays of different shapes
    (LengthMismatch), attributes that are not a flat array of integers (an
    empty one may have any dtype) and non-finite scores (ValidationError),
    and an attribute index outside 0..len(labels) - 1 (UnknownAttribute), so
    the metrics can take any RankedList as well-formed.
    """

    labels: tuple[str, ...]
    attributes: np.ndarray
    scores: np.ndarray
    fallback_events: int = 0

    def __post_init__(self):
        attrs = np.asarray(self.attributes)
        if attrs.shape != np.shape(self.scores):
            raise LengthMismatch(f"{attrs.size} attributes but {np.size(self.scores)} scores")
        if attrs.ndim != 1 or (attrs.size and attrs.dtype.kind not in "iu"):
            raise ValidationError(f"attributes must be 1-D integers, got {attrs.dtype} {attrs.shape}")
        if attrs.size and (attrs.min() < 0 or attrs.max() >= len(self.labels)):
            raise UnknownAttribute(f"attribute index outside 0..{len(self.labels) - 1}")
        if not np.isfinite(self.scores).all():
            raise ValidationError("ranked scores must be finite")

    def __len__(self) -> int:
        return len(self.attributes)

    def attribute_labels(self) -> list[str]:
        return [self.labels[a] for a in self.attributes]

    def to_records(self) -> list[dict]:
        """JSON-friendly rows: position (1-based), attribute label, score."""
        return [
            {"position": i + 1, "attribute": self.labels[a], "score": float(s)}
            for i, (a, s) in enumerate(zip(self.attributes, self.scores))
        ]

    @classmethod
    def from_records(cls, records: Sequence[Mapping], labels: Sequence[str]) -> RankedList:
        """Rebuild a RankedList from to_records()-shaped rows.

        Rows are ordered by their "position" key when every row has one,
        otherwise taken in the given order; positions must then be distinct
        and not NaN. Attribute labels must appear in `labels`.
        """
        rows = _as_list(records, "ranked rows")
        if rows and all(isinstance(r, Mapping) and "position" in r for r in rows):
            try:
                rows.sort(key=lambda r: r["position"])
            except TypeError as exc:
                raise ValidationError(f"ranked row positions cannot be ordered: {exc}") from None
            # NaN fails every comparison, so this also catches a NaN position
            if not all(a["position"] < b["position"] for a, b in zip(rows, rows[1:])):
                raise ValidationError("ranked row positions must be distinct and not NaN")
        label_index = {a: i for i, a in enumerate(labels)}
        attrs = np.empty(len(rows), dtype=np.int64)
        scores = np.empty(len(rows), dtype=np.float64)
        for i, row in enumerate(rows):
            try:
                label = row["attribute"]
                scores[i] = float(row["score"])
            except (TypeError, KeyError, ValueError) as exc:
                raise ValidationError(f"ranked row {i}: {exc!r}") from None
            try:
                attrs[i] = label_index[label]
            except (KeyError, TypeError):  # TypeError: an unhashable label
                raise UnknownAttribute(
                    f"attribute {label!r} is not in the desired distribution"
                ) from None
        return cls(labels=tuple(labels), attributes=_freeze(attrs), scores=_freeze(scores))


def empirical_distribution(counts: Mapping[str, float]) -> DesiredDistribution:
    """Normalize raw attribute counts into a distribution.

    Label order follows the mapping's insertion order. Counts must be
    non-negative and finite; a zero total has no distribution and raises
    AllZeroCounts.
    """
    if not counts:
        raise AllZeroCounts("no counts given")
    labels = tuple(str(k) for k in counts)
    values = _as_float_array(list(counts.values()), "counts")
    if not np.all(np.isfinite(values)) or np.any(values < 0):
        raise ValidationError("counts must be finite and non-negative")
    total = values.sum()
    if total <= 0:
        raise AllZeroCounts("counts sum to zero")
    return DesiredDistribution(labels=labels, proportions=values / total)


def validate_task(task: RankingTask, allow_unsorted: bool = False) -> RankingTask:
    """Validate a task and return its canonical form.

    The returned task has: zero-proportion attribute values dropped (along
    with their pools), pools aligned to the desired label order (attributes
    missing from the pool mapping get empty pools), scores checked finite and
    non-increasing, and all arrays frozen: the pools are read-only views of
    one copy of all the scores. With allow_unsorted=True, unsorted pools are
    re-sorted descending instead of raising PoolNotSorted.

    Raises InsufficientCandidates when the surviving pools hold fewer than
    k_max candidates in total.
    """
    if not _is_int(task.k_max) or task.k_max < 1:
        raise ValidationError(f"k_max must be a positive integer, got {task.k_max!r}")

    if len(set(task.pool.labels)) != len(task.pool.labels):
        raise ValidationError("duplicate attribute labels in pool")
    known = set(task.desired.labels)
    for a in task.pool.labels:
        if a not in known:
            raise UnknownAttribute(f"pool attribute {a!r} is not in the desired distribution")
    by_label = dict(zip(task.pool.labels, task.pool.scores))

    labels: list[str] = []
    props: list[float] = []
    given: list[np.ndarray] = []
    for a, p in zip(task.desired.labels, task.desired.proportions):
        if p != 0:
            labels.append(a)
            props.append(float(p))
            given.append(np.asarray(by_label.get(a, ()), dtype=np.float64))
    # all pools are checked in one pass over one copy of their scores; each is a slice flat[i:j]
    flat = np.concatenate([s.ravel() for s in given])
    spans = list(pairwise(accumulate((s.size for s in given), initial=0)))
    # a rise from flat[j - 1] to flat[j] only crosses from one pool to the next
    rises = set(np.flatnonzero(flat[1:] > flat[:-1]).tolist()) - {j - 1 for _, j in spans}
    if rises or not np.isfinite(flat).all() or not all(s.ndim == 1 for s in given):
        # report the first offending pool in label order, as a per-pool check would
        for a, s, (i, j) in zip(labels, given, spans):
            if s.ndim != 1:
                raise ValidationError(f"pool for {a!r} must be a flat list of scores")
            if not np.isfinite(flat[i:j]).all():
                raise ValidationError(f"pool for {a!r} contains non-finite scores")
            if any(i <= t < j for t in rises):
                if not allow_unsorted:
                    raise PoolNotSorted(f"pool for {a!r} is not sorted by non-increasing score")
                flat[i:j] = np.sort(flat[i:j])[::-1]
    _freeze(flat)

    # the task's own distribution is already checked unless a label was dropped
    desired = task.desired
    if len(labels) < len(desired):
        desired = DesiredDistribution(labels=tuple(labels), proportions=props)
    pool = ScoredPool(labels=tuple(labels), scores=tuple(flat[i:j] for i, j in spans))
    if pool.total() < task.k_max:
        raise InsufficientCandidates(
            f"pools hold {pool.total()} candidates, k_max is {task.k_max}"
        )
    return RankingTask(desired=desired, pool=pool, k_max=int(task.k_max))


def task_from_dict(obj) -> RankingTask:
    """Build a task, with its pools not yet validated, from parsed JSON.

    Expected shape: {"k": int, "desired": {label: proportion},
    "pools": {label: [score, ...]}}.
    """
    if not isinstance(obj, Mapping):
        raise ValidationError("task must be a JSON object")
    missing = [key for key in ("k", "desired", "pools") if key not in obj]
    if missing:
        raise ValidationError(f"task is missing keys: {', '.join(missing)}")
    if not isinstance(obj["desired"], Mapping) or not isinstance(obj["pools"], Mapping):
        raise ValidationError("'desired' and 'pools' must be JSON objects")
    k = obj["k"]
    if isinstance(k, float) and k.is_integer():
        k = int(k)
    return RankingTask(
        desired=DesiredDistribution.from_mapping(obj["desired"]),
        pool=ScoredPool.from_mapping(obj["pools"]),
        k_max=k,
    )
