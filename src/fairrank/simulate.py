"""Seeded Monte-Carlo evaluation of the ranking algorithms on random tasks.

For every attribute count in [attr_min, attr_max] the harness draws
num_distributions random desired distributions; each is paired with
`replications` fresh candidate pools, every configured algorithm ranks the
resulting task, run_task measures the task's rankings in one batch, and
the per-(num_attr, algorithm) means are aggregated into AggregateRow records.

Determinism: random streams use the Philox bit generator keyed by
SeedSequence(seed, spawn_key=...) where the spawn key identifies the
(num_attr, distribution index) for desired draws and (num_attr,
distribution index, replication index) for pool draws. Each work unit
returns one metric row per measured task; a cell's rows are concatenated
in distribution order and averaged once, so the output is byte-identical
for any --jobs value and any chunk size. Tasks where an algorithm fails
(e.g. InsufficientCandidates) contribute no row to that cell; task_count
records how many tasks each mean covers.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import EmptyResult, InvalidConfig, RankingError
from .metrics import _columns, prefix_counts
from .model import (
    DesiredDistribution, RankedList, RankingTask, ScoredPool, _freeze, _is_int, validate_task,
)
from .rerank import _CANONICAL_ORDER, Algorithm, coerce_algorithm, rank

CSV_HEADER = (
    "num_attr,algorithm,mean_infeasible_index,mean_infeasible_count,"
    "mean_min_skew,mean_max_skew,mean_ndkl,mean_ndcg,task_count"
)

# distribution indices per work unit: sets how much work each pool task
# carries, not the results
_CHUNK = 64

_METRIC_WIDTH = 6


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def attribute_labels(num_attr: int) -> tuple[str, ...]:
    return tuple(f"a{i + 1}" for i in range(num_attr))


def gen_desired(num_attr: int, rng: np.random.Generator) -> DesiredDistribution:
    """Random desired distribution: uniform draws normalized to sum 1.

    Proportions are strictly positive (zero draws are resampled).
    """
    u = rng.random(num_attr)
    while not np.all(u > 0):
        u = rng.random(num_attr)
    return DesiredDistribution(labels=attribute_labels(num_attr), proportions=u / u.sum())


def gen_pool(num_attr: int, pool_size: int, rng: np.random.Generator) -> ScoredPool:
    """pool_size uniform (0, 1) scores per attribute value, sorted descending."""
    s = rng.random((num_attr, pool_size))
    while not np.all(s > 0):
        s = rng.random((num_attr, pool_size))
    s = np.sort(s, axis=1)[:, ::-1]
    return ScoredPool(
        labels=attribute_labels(num_attr),
        scores=tuple(_freeze(row.copy()) for row in s),
    )


@dataclass(frozen=True)
class SimulationConfig:
    attr_min: int = 2
    attr_max: int = 10
    num_distributions: int = 1000
    replications: int = 1
    pool_size: int = 100
    k_max: int = 100
    algorithms: tuple[Algorithm, ...] = tuple(Algorithm)
    seed: int = 42

    def __post_init__(self):
        for name in ("attr_min", "attr_max", "num_distributions", "replications", "pool_size",
                     "k_max", "seed"):
            value = getattr(self, name)
            if not _is_int(value):
                raise InvalidConfig(f"{name} must be an integer, got {value!r}")
        if self.attr_min < 2 or self.attr_max < self.attr_min:
            raise InvalidConfig(f"bad attribute range {self.attr_min}..{self.attr_max}")
        for name in ("num_distributions", "replications", "pool_size", "k_max"):
            if getattr(self, name) < 1:
                raise InvalidConfig(f"{name} must be >= 1")
        if self.seed < 0:
            raise InvalidConfig("seed must be non-negative")
        if self.attr_min * self.pool_size < self.k_max:
            raise InvalidConfig(
                f"{self.attr_min} pools of {self.pool_size} cannot fill k_max={self.k_max}"
            )
        if not self.algorithms:
            raise InvalidConfig("no algorithms selected")
        algos = tuple(
            sorted({coerce_algorithm(a) for a in self.algorithms}, key=_CANONICAL_ORDER.get)
        )
        object.__setattr__(self, "algorithms", algos)


@dataclass(frozen=True)
class AggregateRow:
    """Mean measures for one (num_attr, algorithm) cell of the grid."""

    num_attr: int
    algorithm: Algorithm
    mean_infeasible_index: float
    mean_infeasible_count: float
    mean_min_skew: float
    mean_max_skew: float
    mean_ndkl: float
    mean_ndcg: float
    task_count: int


class TaskOutcome(NamedTuple):
    rows: dict[Algorithm, np.ndarray]
    failures: dict[Algorithm, str]


def run_task(task: RankingTask, algorithms, fallback: bool = False) -> TaskOutcome:
    """Rank one validated task with each algorithm, then measure the rankings together.

    The successful rankings go through the metrics core as one batch, at
    depth k_max against the merged pools' descending score order `ideal`, so
    vanilla scores exactly 1.0. Each ranked algorithm gets one (6,) float64
    row in CSV order: infeasible_index, infeasible_count, min_skew,
    max_skew, ndkl and ndcg of measure(ranked, task.desired, ideal,
    task.k_max). Algorithms that raise a RankingError land in failures
    (exception class name) instead of rows.
    """
    rankings: dict[Algorithm, RankedList] = {}
    failures: dict[Algorithm, str] = {}
    for algo in algorithms:
        algo = coerce_algorithm(algo)
        try:
            rankings[algo] = rank(task, algo, fallback)
        except RankingError as exc:
            failures[algo] = type(exc).__name__
    if not rankings:
        return TaskOutcome({}, failures)
    lists = rankings.values()
    cum = np.stack([prefix_counts(r) for r in lists])
    ideal = np.sort(np.concatenate(task.pool.scores))[::-1]
    scores, floors = np.stack([r.scores for r in lists]), task.table.floors[: task.k_max]
    _, columns = _columns(cum, scores, task.desired, task.k_max, ideal, floors)
    return TaskOutcome(dict(zip(rankings, np.column_stack(columns))), failures)


def _run_chunk(config: SimulationConfig, num_attr: int, lo: int, hi: int):
    """{algorithm: (tasks, 6) float64 per-task metric rows} over [lo, hi) of one num_attr."""
    rows: dict[Algorithm, list] = {a: [] for a in config.algorithms}
    for d in range(lo, hi):
        desired = gen_desired(num_attr, _rng(config.seed, num_attr, d))
        for r in range(config.replications):
            pool = gen_pool(num_attr, config.pool_size, _rng(config.seed, num_attr, d, r))
            task = validate_task(RankingTask(desired=desired, pool=pool, k_max=config.k_max))
            for algo, row in run_task(task, config.algorithms).rows.items():
                rows[algo].append(row)
    return {
        a: np.array(r, dtype=np.float64).reshape(-1, _METRIC_WIDTH) for a, r in rows.items()
    }


def run_grid(config: SimulationConfig, jobs: int = 1) -> list[AggregateRow]:
    """Evaluate the whole grid; rows come back sorted by (num_attr, algorithm)."""
    if not _is_int(jobs) or jobs < 1:
        raise InvalidConfig(f"jobs must be an integer >= 1, got {jobs!r}")
    spans = [
        (num_attr, lo, min(lo + _CHUNK, config.num_distributions))
        for num_attr in range(config.attr_min, config.attr_max + 1)
        for lo in range(0, config.num_distributions, _CHUNK)
    ]
    workers = min(jobs, len(spans))
    if workers == 1:
        results = [_run_chunk(config, *span) for span in spans]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_chunk, repeat(config), *zip(*spans)))

    rows = []
    for num_attr in range(config.attr_min, config.attr_max + 1):
        for algo in config.algorithms:
            table = np.concatenate(
                [chunk[algo] for (n, _, _), chunk in zip(spans, results) if n == num_attr]
            )
            mean = table.mean(axis=0) if len(table) else np.zeros(_METRIC_WIDTH)
            rows.append(AggregateRow(num_attr, algo, *(float(x) for x in mean), len(table)))
    return rows


def write_csv(rows, path) -> None:
    """Serialize aggregate rows (sorted, floats at 6 decimal places)."""
    if not rows:
        raise EmptyResult("no aggregate rows to write")
    ordered = sorted(rows, key=lambda r: (r.num_attr, _CANONICAL_ORDER[r.algorithm]))
    with open(path, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in ordered:
            fh.write(
                f"{r.num_attr},{r.algorithm.value},"
                f"{r.mean_infeasible_index:.6f},{r.mean_infeasible_count:.6f},"
                f"{r.mean_min_skew:.6f},{r.mean_max_skew:.6f},"
                f"{r.mean_ndkl:.6f},{r.mean_ndcg:.6f},{r.task_count}\n"
            )


def write_diagnostics(rows, config: SimulationConfig, path) -> int:
    """Write a sidecar CSV for cells that excluded failed tasks.

    Returns the number of flagged cells. When all cells covered every task it
    writes nothing and removes any sidecar an earlier run left at path.
    """
    expected = config.num_distributions * config.replications
    flagged = [
        r
        for r in sorted(rows, key=lambda r: (r.num_attr, _CANONICAL_ORDER[r.algorithm]))
        if r.task_count < expected
    ]
    if not flagged:
        Path(path).unlink(missing_ok=True)
        return 0
    with open(path, "w", newline="") as fh:
        fh.write("num_attr,algorithm,excluded_tasks,task_count,expected\n")
        for r in flagged:
            fh.write(
                f"{r.num_attr},{r.algorithm.value},{expected - r.task_count},"
                f"{r.task_count},{expected}\n"
            )
    return len(flagged)
