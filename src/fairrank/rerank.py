"""Score-ordered merging and deterministic representation-constrained re-ranking.

All algorithms consume a RankingTask, checked and made canonical when it
is built, and rank emits a RankedList of exactly k_max candidates. Pools are
consumed strictly in order, so every algorithm preserves score order within
each attribute value.

vanilla merges the pools by descending score and ignores the desired
distribution (the utility-maximizing baseline).

The constrained algorithms maintain per-attribute counts against the quotas
floor(k * p_a) and ceil(k * p_a) at each prefix length k:

- detgreedy: serve any attribute below its floor (highest next score first);
  otherwise pick the highest next score among attributes below their ceiling.
- detcons: once floors are satisfied, prefer the attribute whose ceiling
  constraint will bind soonest, i.e. minimal ceil(k * p_a) / p_a; ties prefer
  the higher next score, then the lower attribute index. Pressures within
  quota.SNAP_TOL (relative) count as equal, so a tie that float noise would
  split (3 / 0.05 = 60.0 but 21 / 0.35 = 60.00000000000001) goes to the
  score.
- detrelaxed: like detcons but compares ceil(ceil(k * p_a) / p_a), which
  groups attributes into coarser equivalence classes; within the argmin
  class the highest next score wins.
- detconstsort: walks a virtual prefix counter k; at each k the attributes
  whose floor quota rises append their next candidates, best next score
  first, each with movement bound k and swapped toward the front while the
  left neighbor scores lower and may still sit one position further down.
  Unlike the paper's loop, it stops once every candidate is placed, instead
  of asking an exhausted pool for more in its last counter step. It walks
  the task's floor-rise events, the (k, attribute) pairs where a floor
  rises, taken from the floor table in one pass, so it never scans the
  attributes whose floor stays put, and sorts a counter's attributes only
  when more than one rises.

Every selection goes through one kernel, _pick(counts, floor, limit, nxt,
key): over the attributes with counts[a] < limit[a] it takes the lowest key,
where an attribute below floor[a] keys -inf, then the higher next score
nxt[a], then the lower index. Each pool is a read-only memoryview of the
task's one score copy, the pool's scores and then a -inf sentinel, read in
place (an index yields a Python float), and nxt[a] advances only when a
wins, so nxt[a] == -inf marks an exhausted pool. detgreedy, detcons and
detrelaxed make one _pick per position with the floor row, the ceiling row
and their key row (zeros, pressure classes, levels); an attribute below its
floor is below its ceiling too, so floors are served first, by next score.
Rows and pools come from the task's table, built once per task and shared
by all rankings of it; only the key rows are built per call, with numpy.

Each algorithm's kernel returns its raw (attributes, scores,
fallback_events) columns through one private dispatcher, _rank_columns.
rank wraps them in a checked RankedList; simulate.run_task measures them
directly, with no RankedList built.

Every tie anywhere resolves by ascending attribute index (the order labels
appear in the desired distribution), which makes all algorithms fully
deterministic.

When an algorithm demands an attribute whose pool is exhausted it raises
InsufficientCandidates. With fallback=True it instead calls _pick again with
a zero floor row and the step's key (zeros for a floor pick and for
detconstsort), limited first by min(ceiling, pool length) and then by the
pool length alone, and counts each substitution in
RankedList.fallback_events.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import InsufficientCandidates, UnknownAlgorithm, ValidationError
from .model import RankedList, RankingTask, _freeze
from .quota import SNAP_TOL, ceil_quotas


class Algorithm(Enum):
    """Ranking algorithms, in canonical reporting order."""

    VANILLA = "vanilla"
    DET_GREEDY = "detgreedy"
    DET_CONS = "detcons"
    DET_RELAXED = "detrelaxed"
    DET_CONST_SORT = "detconstsort"


_CANONICAL_ORDER = {algo: i for i, algo in enumerate(Algorithm)}


def coerce_algorithm(value) -> Algorithm:
    if isinstance(value, Algorithm):
        return value
    try:
        return Algorithm(value)
    except ValueError:
        names = ", ".join(a.value for a in Algorithm)
        raise UnknownAlgorithm(f"unknown algorithm {value!r}; expected one of: {names}") from None


_INF = float("inf")
_NEG_INF = -_INF


def _ceiling_keys(task: RankingTask, algorithm: Algorithm):
    """The ceiling phase's _pick keys for prefix lengths 1..k_max, as row lists.

    Keys are the detcons pressure ceil(k * p_a) / p_a as integer classes, so
    that mathematically equal pressures tie exactly; the detrelaxed level
    ceil(ceil(k * p_a) / p_a); and zeros for detgreedy. Both read the
    task's shared ceiling table.
    """
    p = task.desired.proportions
    ceils = task.table.ceils[: task.k_max]
    if algorithm is Algorithm.DET_CONS:
        # sort each row; a new class starts wherever the next pressure is
        # more than SNAP_TOL (relative) above the previous one
        pressure = ceils / p
        order = pressure.argsort(axis=1)
        rows = np.arange(task.k_max)[:, None]
        ranked = pressure[rows, order]
        steps = ranked[:, :-1] < ranked[:, 1:] * (1 - SNAP_TOL)
        keys = np.zeros(pressure.shape, dtype=np.int64)
        keys[rows, order[:, 1:]] = steps.cumsum(axis=1)
        return keys.tolist()
    if algorithm is Algorithm.DET_RELAXED:
        return ceil_quotas(ceils / p).tolist()
    return [[0] * len(p)] * task.k_max  # one shared row, never written


def _pick(counts, floor, limit, nxt, key) -> int:
    """Lowest key[a], then higher nxt[a], then lower a, over counts[a] < limit[a].

    An attribute below floor[a] keys -inf, so it beats every key. Returns -1
    when no attribute qualifies. nxt[a] is -inf once a's pool is exhausted,
    so an exhausted attribute loses every score tie but can still win
    outright on the key.
    """
    best, best_key, best_score = -1, _INF, _NEG_INF
    for a, c in enumerate(counts):
        if c < limit[a]:
            ka = _NEG_INF if c < floor[a] else key[a]
            if ka < best_key or (ka == best_key and nxt[a] > best_score):
                best, best_key, best_score = a, ka, nxt[a]
    return best


def _fallback_pick(counts, pools, ce, nxt, key) -> int:
    """_pick among below-ceiling attributes with candidates left, else any with some left."""
    lens = [len(s) - 1 for s in pools]  # without the -inf sentinel
    no_floor = [0] * len(pools)
    pick = _pick(counts, no_floor, [min(c, n) for c, n in zip(ce, lens)], nxt, key)
    if pick < 0:
        pick = _pick(counts, no_floor, lens, nxt, key)
    # the callers have placed fewer candidates than the pools hold (the greedy
    # family fewer than k_max <= total, detconstsort stops at total), so some
    # a has counts[a] < lens[a], and the second, unfloored _pick returns one
    assert pick >= 0
    return pick


def _rank_greedy_family(task: RankingTask, algorithm: Algorithm, fallback: bool):
    """Serve attributes below their floor by next score; otherwise _pick by key."""
    _, _, floors, ceils, pools = task.table
    nxt = [s[0] for s in pools]
    keys = _ceiling_keys(task, algorithm)
    no_key = [0] * len(pools)

    counts = [0] * len(pools)
    out_attrs, out_scores = [], []
    events = 0
    for i in range(task.k_max):
        # never -1: sum_a ceil(k * p_a) >= k > sum(counts), so some a is below its ceiling
        pick = _pick(counts, floors[i], ceils[i], nxt, keys[i])
        if nxt[pick] == _NEG_INF:
            if not fallback:
                raise InsufficientCandidates(
                    f"{algorithm.value}: required attribute pool exhausted at position {i + 1}"
                )
            key = no_key if counts[pick] < floors[i][pick] else keys[i]
            pick = _fallback_pick(counts, pools, ceils[i], nxt, key)
            events += 1
        out_attrs.append(pick)
        out_scores.append(nxt[pick])
        counts[pick] += 1
        nxt[pick] = pools[pick][counts[pick]]
    return out_attrs, out_scores, events


def _rank_vanilla(task: RankingTask):
    """The first k_max of the task's merged order (ties by attribute index, then pool order)."""
    attrs, scores = task.merged
    return attrs[: task.k_max], scores[: task.k_max], 0


def _rank_det_const_sort(task: RankingTask, fallback: bool):
    """Insert candidates as floor quotas increment; sort back within movement bounds.

    A virtual prefix counter k advances from 1. At each k, the attributes
    whose floor(k * p_a) rises append their next candidates in descending
    next-score order, each with movement bound k (1-based: it may never sit
    below position k), and bubble each toward the front while the left
    neighbor both scores lower and may shift one position down. Only the
    counters at which some floor rises are visited.
    """
    table = task.table
    ceils, pools = table.ceil_rows, table.pools
    nxt = [s[0] for s in pools]
    k_max, total = task.k_max, task.pool.total()
    # the (counter row, attribute) pairs where a floor rises, by row, then by
    # ascending index; floor(k * p_a) rises by at most 1 per step, as p_a <= 1.
    # These are np.diff(floors, axis=0, prepend=0), taken in place: np.diff's
    # prepend copies through a concatenate that costs more than a k = 10 walk
    rises = table.floors.copy()
    rises[1:] -= table.floors[:-1]
    rows, risers = (x.tolist() for x in rises.nonzero())
    n_rises = len(rows)

    counts = [0] * len(pools)
    ranked: list[tuple[float, int, int]] = []  # (score, movement bound, attribute)
    events = 0
    row = -1
    # floor quotas strictly exceed k - n_attrs, so the counter never needs
    # to run past k_max + n_attrs + 1, the table's last row, to fill k_max slots
    for t in range(n_rises):
        if rows[t] != row:  # the first rise at a new counter
            if len(ranked) >= k_max:
                break
            row = rows[t]
            end = t + 1
            while end < n_rises and rows[end] == row:
                end += 1
            if end - t > 1:
                # stable, so equal next scores keep ascending index; exhausted (-inf) go last
                risers[t:end] = sorted(risers[t:end], key=nxt.__getitem__, reverse=True)
        a = risers[t]
        if nxt[a] == _NEG_INF:
            if len(ranked) == total:  # every candidate is placed, and total >= k_max
                break
            if not fallback:
                label = task.desired.labels[a]
                raise InsufficientCandidates(
                    f"detconstsort: pool for {label!r} exhausted at counter {row + 1}"
                )
            a = _fallback_pick(counts, pools, ceils[row], nxt, [0] * len(pools))
            events += 1
        item = (nxt[a], row + 1, a)
        counts[a] += 1
        nxt[a] = pools[a][counts[a]]
        i = len(ranked)
        ranked.append(item)
        while i > 0 and ranked[i - 1][0] < item[0] and ranked[i - 1][1] > i:
            ranked[i - 1], ranked[i] = item, ranked[i - 1]
            i -= 1
    assert len(ranked) >= k_max
    scores, _, attrs = zip(*ranked[:k_max])
    return attrs, scores, events


def _check_fallback(fallback) -> bool:
    """fallback itself, once it is True or False (ValidationError otherwise)."""
    if not isinstance(fallback, (bool, np.bool_)):  # "no" must not turn fallback on
        raise ValidationError(f"fallback must be True or False, got {fallback!r}")
    return fallback


def _rank_columns(task: RankingTask, algo: Algorithm, fallback: bool):
    """(attributes, scores, fallback_events) of algo's ranking of task, all unchecked."""
    if algo is Algorithm.VANILLA:
        return _rank_vanilla(task)
    if algo is Algorithm.DET_CONST_SORT:
        return _rank_det_const_sort(task, fallback)
    return _rank_greedy_family(task, algo, fallback)


def rank(task: RankingTask, algorithm, fallback: bool = False) -> RankedList:
    """Rank a task with the named algorithm; fallback must be True or False."""
    algo = coerce_algorithm(algorithm)
    attrs, scores, events = _rank_columns(task, algo, _check_fallback(fallback))
    return RankedList(
        labels=task.desired.labels,
        attributes=_freeze(np.asarray(attrs, dtype=np.int64)),
        scores=_freeze(np.asarray(scores, dtype=np.float64)),
        fallback_events=events,
    )
