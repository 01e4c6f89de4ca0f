"""Domain types: desired distributions, candidate pools, tasks, ranked lists.

A ranking task is (desired distribution over attribute values, one
score-sorted candidate pool per attribute value, target length k_max).
Attribute values are identified positionally: index i everywhere refers to
labels[i] of the task's desired distribution. DesiredDistribution,
RankingTask and RankedList check themselves at construction (a RankingTask
also aligns its pools with its distribution), so the re-rankers and the
metrics can take any instance as well-formed.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
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
from .quota import ceil_quotas, floor_quotas

NORMALIZATION_TOL = 1e-9

# the least normal float64: a desired proportion below it, but above 0, overflows the skew's ratio
_TINY = float(np.finfo(np.float64).tiny)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _sealed(given, arr: np.ndarray) -> np.ndarray:
    """arr, the array form of given, made read-only; copied first if a caller can still write it."""
    if not arr.flags.owndata or (arr is given and arr.flags.writeable):
        arr = arr.copy()
    return _freeze(arr)


def _is_int(x) -> bool:
    """True for Python and numpy integers, but not for bools."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _as_list(values, what: str, error=ValidationError) -> list:
    """list(values), or error (a ValidationError) when values is a scalar, None or a string."""
    if not isinstance(values, (str, bytes)):
        try:
            return list(values)
        except TypeError:
            pass
    raise error(f"{what} must be a list, got {values!r}")


def _as_float_array(values, what: str) -> np.ndarray:
    """values as a float64 array; ValidationError unless numpy reads them as real numbers.

    Bools, strings, bytes, complex numbers and objects such as None are
    rejected, not cast: numpy would read True as 1.0 and "0.5" as 0.5. Only
    the dtype numpy infers for the whole array is tested, so a list that
    mixes numbers with a bool, such as [0.9, True], still reads as floats.
    Integers beyond 64 bits come out as objects and are converted one by one.
    """
    try:
        arr = np.asarray(values)
        if arr.dtype.kind == "O" and all(type(x) in (int, float) for x in arr.flat):
            arr = arr.astype(np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what} must be numeric: {exc}") from None
    if arr.dtype.kind not in "iuf":
        raise ValidationError(f"{what} must be numeric, got {arr.dtype} values")
    return arr.astype(np.float64, copy=False)


@dataclass(frozen=True, eq=False)
class DesiredDistribution:
    """Target proportions over attribute values, index-aligned with labels.

    Construction requires at least one label, unique string labels, and one
    proportion per label, 0 or a finite normal float > 0 (a subnormal one
    overflows the skew's ratio), summing to 1 within NORMALIZATION_TOL
    (ValidationError or DistributionNotNormalized otherwise). It stores the
    labels as a tuple and the proportions as a frozen float64 copy.
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
        if not all(x == 0 or _TINY <= x < np.inf for x in p.tolist()):
            raise DistributionNotNormalized("proportions must be finite, non-negative and 0 or normal")
        if abs(float(p.sum()) - 1.0) > NORMALIZATION_TOL:
            raise DistributionNotNormalized(f"proportions sum to {float(p.sum()):.12f}, expected 1")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "proportions", p)

    def __reduce__(self):  # pickle and deepcopy rebuild, and so re-freeze, through the constructor
        return type(self), (self.labels, self.proportions)

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


@dataclass(frozen=True, eq=False)
class ScoredPool:
    """One candidate score array per attribute value, index-aligned with labels.

    Each array is expected to be sorted in non-increasing order; a
    RankingTask built from the pool enforces that, not this constructor.
    """

    labels: tuple[str, ...]
    scores: tuple[np.ndarray, ...]

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Sequence[float]]) -> ScoredPool:
        labels = tuple(str(k) for k in mapping)
        scores = []
        for k, v in mapping.items():
            if not isinstance(v, list):  # numpy copies a list as it reads it: no copy first
                v = _as_list(v, f"pool for {k!r}")
            scores.append(_freeze(_as_float_array(v, f"pool scores for {k!r}")))
        return cls(labels=labels, scores=tuple(scores))

    def total(self) -> int:
        """Number of candidates across all attribute values."""
        return sum(len(s) for s in self.scores)


class _lazy:
    """A table built on its first read and kept in the instance dict, so later reads skip it.

    functools.cached_property does the same, but before Python 3.12 it takes
    a lock on every first read. A racing thread may build a table twice; both
    builds are equal, so which one is kept does not matter, but two reads
    that race on the first build may get different objects: `x.table is
    x.table` holds once a first read has finished.
    """

    def __init__(self, build):
        self.build, self.name = build, build.__name__

    def __get__(self, entry, owner=None):
        if entry is None:
            return self
        value = vars(entry)[self.name] = self.build(entry)
        return value


# the -inf written after each pool of a RankingTask's score copy
_SENTINEL = _freeze(np.full(1, -np.inf))

# a task's quotas as arrays and row lists, and its pools as memoryviews of the
# task's score copy, each ending in its -inf sentinel: the form the re-rankers read
TaskTable = namedtuple("TaskTable", "floors ceils floor_rows ceil_rows pools")


@dataclass(frozen=True, eq=False)
class RankingTask:
    """A desired distribution, one candidate pool per attribute value, and k_max.

    Construction checks the task and stores its canonical form: k_max as an
    int, zero-proportion values dropped with their pools, and the pools in
    desired label order (a missing one is empty) as read-only views of one
    copy of all the scores, which holds a -inf sentinel after each pool for
    the re-rankers (the views leave it out). A k_max that is not a positive
    integer, unknown or duplicate pool labels, or a pool that is not flat,
    finite and non-increasing (the first in label order is named) raise a
    ValidationError subclass; fewer than k_max candidates in all raise
    InsufficientCandidates.
    """

    desired: DesiredDistribution
    pool: ScoredPool
    k_max: int

    def __post_init__(self):
        if not _is_int(self.k_max) or self.k_max < 1:
            raise ValidationError(f"k_max must be a positive integer, got {self.k_max!r}")

        if len(set(self.pool.labels)) != len(self.pool.labels):
            raise ValidationError("duplicate attribute labels in pool")
        known = set(self.desired.labels)
        for a in self.pool.labels:
            if a not in known:
                raise UnknownAttribute(f"pool attribute {a!r} is not in the desired distribution")
        by_label = dict(zip(self.pool.labels, self.pool.scores))

        labels: list[str] = []
        props: list[float] = []
        given: list[np.ndarray] = []
        for a, p in zip(self.desired.labels, self.desired.proportions):
            if p != 0:
                labels.append(a)
                props.append(float(p))
                given.append(_as_float_array(by_label.get(a, ()), f"pool scores for {a!r}"))
        # all pools are checked in one pass over one copy of their scores, with a
        # -inf sentinel after each pool: pool a is padded[i:j - 1], its sentinel padded[j - 1]
        padded = _freeze(np.concatenate([x for s in given for x in (s.ravel(), _SENTINEL)]))
        spans = list(pairwise(accumulate((s.size + 1 for s in given), initial=0)))
        # a rise from padded[j - 1] to padded[j] only leaves a sentinel for the next pool
        rises = set(np.flatnonzero(padded[1:] > padded[:-1]).tolist()) - {j - 1 for _, j in spans}
        total = padded.size - len(given)
        # the only non-finite values of a valid task are its sentinels
        finite = np.count_nonzero(np.isfinite(padded)) == total
        if rises or not finite or not all(s.ndim == 1 for s in given):
            # report the first offending pool in label order, as a per-pool check would
            for a, s, (i, j) in zip(labels, given, spans):
                if s.ndim != 1:
                    raise ValidationError(f"pool for {a!r} must be a flat list of scores")
                if not np.isfinite(padded[i : j - 1]).all():
                    raise ValidationError(f"pool for {a!r} contains non-finite scores")
                if any(i <= t < j for t in rises):
                    raise PoolNotSorted(f"pool for {a!r} is not sorted by non-increasing score")
        if total < self.k_max:
            raise InsufficientCandidates(f"pools hold {total} candidates, k_max is {self.k_max}")

        # the task's own distribution is already checked unless a label was dropped
        if len(labels) < len(self.desired):
            object.__setattr__(self, "desired", DesiredDistribution(tuple(labels), props))
        pool = ScoredPool(labels=tuple(labels), scores=tuple(padded[i : j - 1] for i, j in spans))
        object.__setattr__(self, "pool", pool)
        object.__setattr__(self, "k_max", int(self.k_max))

    def __reduce__(self):  # pickle and deepcopy rebuild, and so re-freeze, through the constructor
        return type(self), (self.desired, self.pool, self.k_max)

    @_lazy
    def table(self) -> TaskTable:
        """The task's quotas and pools, built on first use and shared by every ranking.

        floors and ceils are the read-only int64 tables floor(k * p_a) and
        ceil(k * p_a), both rounded from one np.outer table of k * p_a, row i
        for k = i + 1, over k_max + n + 2 rows (DetConstSort's counter bound);
        floor_rows and ceil_rows are the same as lists. Each pool is a
        read-only memoryview of the task's one score copy, the pool's scores
        and the -inf sentinel after them, so a ranking reads in place only
        the candidates it places, each as a Python float.
        """
        ks = np.arange(1.0, self.k_max + len(self.desired) + 3)
        products = np.outer(ks, self.desired.proportions)
        floors, ceils = _freeze(floor_quotas(products)), _freeze(ceil_quotas(products))
        padded = memoryview(self.pool.scores[0].base)  # every pool is a view of it
        pools, i = [], 0
        for s in self.pool.scores:  # a plain loop: a generator costs more at k = 10
            j = i + s.size + 1
            pools.append(padded[i:j])
            i = j
        return TaskTable(floors, ceils, floors.tolist(), ceils.tolist(), pools)

    @_lazy
    def merged(self) -> tuple[np.ndarray, np.ndarray]:
        """Every candidate's (attribute, score) by descending score, built on first use.

        Ties go to the lower attribute index, then the earlier pool position:
        a stable argsort of the negated scores. Both arrays are read-only and
        cover all pools, not only k_max: vanilla ranks by their first k_max
        entries and the scores are the ideal order NDCG is measured against.
        Kept off the table, so a vanilla ranking builds no quotas.
        """
        lengths = [s.size + 1 for s in self.pool.scores]
        padded = self.pool.scores[0].base
        attrs = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
        # the negated sentinels are +inf, so they sort last and are cut off
        order = np.argsort(-padded, kind="stable")[: padded.size - len(lengths)]
        return _freeze(attrs[order]), _freeze(padded[order])


@dataclass(frozen=True, eq=False)
class RankedList:
    """A ranking: parallel arrays of attribute indices and scores.

    attributes[i] indexes into labels; position i of the list (0-based) holds
    a candidate of attribute labels[attributes[i]] with score scores[i].
    fallback_events counts positions where a constrained algorithm had to
    substitute an attribute because the one its rule demanded was exhausted;
    it must be a non-negative integer (not a bool) and is stored as an int.

    Construction rejects attribute and score arrays of different shapes
    (LengthMismatch), attributes that are not a flat array of integers (an
    empty one may have any dtype and is stored as int64) and non-numeric or
    non-finite scores (ValidationError), and an attribute index outside
    0..len(labels) - 1 (UnknownAttribute), so the metrics can take any
    RankedList as well-formed. It stores its labels as a tuple and read-only
    arrays that it owns (scores as float64), copying a writable array or a
    view, so no caller can change it later.
    """

    labels: tuple[str, ...]
    attributes: np.ndarray
    scores: np.ndarray
    fallback_events: int = 0

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        attrs = np.asarray(self.attributes)
        attrs = _sealed(self.attributes, attrs if attrs.size else attrs.astype(np.int64))
        scores = _sealed(self.scores, _as_float_array(self.scores, "ranked scores"))
        if attrs.shape != scores.shape:
            raise LengthMismatch(f"{attrs.size} attributes but {scores.size} scores")
        if attrs.ndim != 1 or attrs.dtype.kind not in "iu":
            raise ValidationError(f"attributes must be 1-D integers, got {attrs.dtype} {attrs.shape}")
        if attrs.size and (attrs.min() < 0 or attrs.max() >= len(self.labels)):
            raise UnknownAttribute(f"attribute index outside 0..{len(self.labels) - 1}")
        if not np.isfinite(scores).all():
            raise ValidationError("ranked scores must be finite")
        events = self.fallback_events
        if not _is_int(events) or events < 0:
            raise ValidationError(f"fallback_events must be an integer >= 0, got {events!r}")
        object.__setattr__(self, "fallback_events", int(events))
        object.__setattr__(self, "attributes", attrs)
        object.__setattr__(self, "scores", scores)

    def __reduce__(self):  # pickle and deepcopy rebuild, and so re-freeze, through the constructor
        return type(self), (self.labels, self.attributes, self.scores, self.fallback_events)

    def __len__(self) -> int:
        return len(self.attributes)

    def attribute_labels(self) -> list[str]:
        return [self.labels[a] for a in self.attributes.tolist()]

    def to_records(self) -> list[dict]:
        """JSON-friendly rows: position (1-based), attribute label, score."""
        labels = self.labels
        return [
            {"position": i, "attribute": labels[a], "score": s}
            for i, (a, s) in enumerate(zip(self.attributes.tolist(), self.scores.tolist()), 1)
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
                label, score = row["attribute"], row["score"]
                if isinstance(score, (str, bytes, bool, np.bool_)):
                    raise TypeError(f"score must be a number, got {score!r}")
                scores[i] = float(score)
            except (TypeError, KeyError, ValueError, OverflowError) as exc:
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


def validate_task(task: RankingTask) -> RankingTask:
    """Return task: a RankingTask checks itself when built; kept for callers of the old API."""
    return task


def task_from_dict(obj) -> RankingTask:
    """Build a task from parsed JSON; the RankingTask constructor checks it.

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
