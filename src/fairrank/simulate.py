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

import functools
from dataclasses import dataclass, fields
from itertools import repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import EmptyResult, InvalidConfig, RankingError
from .metrics import _columns, _Pair
from .model import DesiredDistribution, RankingTask, ScoredPool, _as_list, _check_count, _freeze
from .rerank import _CANONICAL_ORDER, Algorithm, _check_fallback, _rank_columns, coerce_algorithm

# distribution indices per work unit: sets how much work each pool task
# carries, not the results
_CHUNK = 64


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


@functools.cache
def attribute_labels(num_attr: int) -> tuple[str, ...]:
    """("a1", ..., "a<num_attr>"), one tuple per size, shared by every later call."""
    return tuple(f"a{i + 1}" for i in range(num_attr))


def gen_desired(num_attr: int, rng: np.random.Generator) -> DesiredDistribution:
    """Random desired distribution: uniform draws normalized to sum 1.

    Proportions are strictly positive (zero draws are resampled).
    """
    _check_count("num_attr", num_attr, 1, InvalidConfig)
    u = rng.random(num_attr)
    while not np.all(u > 0):
        u = rng.random(num_attr)
    return DesiredDistribution(labels=attribute_labels(num_attr), proportions=u / u.sum())


def gen_pool(num_attr: int, pool_size: int, rng: np.random.Generator) -> ScoredPool:
    """pool_size uniform (0, 1) scores per attribute value, sorted descending."""
    _check_count("num_attr", num_attr, 1, InvalidConfig)
    _check_count("pool_size", pool_size, 0, InvalidConfig)
    s = rng.random((num_attr, pool_size))
    while not np.all(s > 0):
        s = rng.random((num_attr, pool_size))
    s.sort(axis=1)
    # one read-only descending copy; its rows are views of it
    return ScoredPool(labels=attribute_labels(num_attr), scores=tuple(_freeze(s[:, ::-1].copy())))


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
        # attr_max is compared with attr_min only once attr_min has passed
        for name, least in (("attr_min", 2), ("attr_max", self.attr_min), ("num_distributions", 1),
                            ("replications", 1), ("pool_size", 1), ("k_max", 1), ("seed", 0)):
            _check_count(name, getattr(self, name), least, InvalidConfig)
        if self.attr_min * self.pool_size < self.k_max:
            raise InvalidConfig(
                f"{self.attr_min} pools of {self.pool_size} cannot fill k_max={self.k_max}"
            )
        algos = _as_list(self.algorithms, "algorithms", InvalidConfig)
        if not algos:
            raise InvalidConfig("no algorithms selected")
        algos = tuple(sorted({coerce_algorithm(a) for a in algos}, key=_CANONICAL_ORDER.get))
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


# the grid CSV's columns are AggregateRow's fields; its means follow run_task's metric rows
CSV_HEADER = ",".join(f.name for f in fields(AggregateRow))
_MEANS = tuple(f.name for f in fields(AggregateRow) if f.name.startswith("mean_"))


class TaskOutcome(NamedTuple):
    rows: dict[Algorithm, np.ndarray]
    failures: dict[Algorithm, str]


def run_task(task: RankingTask, algorithms, fallback: bool = False) -> TaskOutcome:
    """Rank one task with each algorithm, then measure the rankings together.

    The rankers' raw attribute and score columns, which rank would wrap in
    RankedLists, go through the metrics core as one (m, k_max) batch, at
    depth k_max against `ideal`, the scores of task.merged, which vanilla
    ranks by too, so vanilla scores exactly 1.0. Each ranked algorithm gets
    one (6,) float64 row in CSV order: infeasible_index, infeasible_count,
    min_skew, max_skew, ndkl and ndcg of measure(ranked, task.desired,
    ideal, task.k_max). Algorithms that raise a RankingError land in failures
    (exception class name) instead of rows. algorithms must be a list of
    names or Algorithms (ValidationError otherwise, also for one bare name),
    and fallback must be True or False.
    """
    _check_fallback(fallback)
    rankings: dict[Algorithm, tuple] = {}
    failures: dict[Algorithm, str] = {}
    for algo in _as_list(algorithms, "algorithms"):
        algo = coerce_algorithm(algo)
        try:
            rankings[algo] = _rank_columns(task, algo, fallback)
        except RankingError as exc:
            failures[algo] = type(exc).__name__
    if not rankings:
        return TaskOutcome({}, failures)
    attrs, scores, _ = zip(*rankings.values())
    tables = _Pair(np.array(attrs, dtype=np.int64), task.desired)
    columns = _columns(tables, np.array(scores, dtype=np.float64), task.k_max, task.merged[1])
    return TaskOutcome(dict(zip(rankings, np.column_stack(columns))), failures)


def _run_chunk(config: SimulationConfig, num_attr: int, lo: int, hi: int):
    """{algorithm: (tasks, 6) float64 per-task metric rows} over [lo, hi) of one num_attr."""
    rows: dict[Algorithm, list] = {a: [] for a in config.algorithms}
    for d in range(lo, hi):
        desired = gen_desired(num_attr, _rng(config.seed, num_attr, d))
        for r in range(config.replications):
            pool = gen_pool(num_attr, config.pool_size, _rng(config.seed, num_attr, d, r))
            task = RankingTask(desired=desired, pool=pool, k_max=config.k_max)
            for algo, row in run_task(task, config.algorithms).rows.items():
                rows[algo].append(row)
    return {
        a: np.array(r, dtype=np.float64).reshape(-1, len(_MEANS)) for a, r in rows.items()
    }


def run_grid(config: SimulationConfig, jobs: int = 1) -> list[AggregateRow]:
    """Evaluate the whole grid; rows come back sorted by (num_attr, algorithm).

    jobs caps the worker processes, and no more are started than there are
    work units; with one worker, the grid runs in this process.
    """
    _check_count("jobs", jobs, 1, InvalidConfig)
    spans = [
        (num_attr, lo, min(lo + _CHUNK, config.num_distributions))
        for num_attr in range(config.attr_min, config.attr_max + 1)
        for lo in range(0, config.num_distributions, _CHUNK)
    ]
    workers = min(jobs, len(spans))
    if workers == 1:
        results = [_run_chunk(config, *span) for span in spans]
    else:
        # imported here: it loads multiprocessing, which a serial run never needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_chunk, repeat(config), *zip(*spans)))

    # spans run by num_attr and each chunk by algorithm, so the cells come out in row order
    cells: dict[tuple[int, Algorithm], list] = {}
    for (num_attr, _, _), chunk in zip(spans, results):
        for algo, table in chunk.items():
            cells.setdefault((num_attr, algo), []).append(table)
    rows = []
    for (num_attr, algo), tables in cells.items():
        table = tables[0] if len(tables) == 1 else np.concatenate(tables)
        # the bits of table.mean(axis=0), without its dispatch
        mean = table.sum(axis=0) / len(table) if len(table) else np.zeros(len(_MEANS))
        rows.append(AggregateRow(num_attr, algo, *mean.tolist(), len(table)))
    return rows


def write_csv(rows, path) -> None:
    """Serialize aggregate rows (sorted, floats at 6 decimal places); rows may be any iterable."""
    ordered = sorted(rows, key=lambda r: (r.num_attr, _CANONICAL_ORDER[r.algorithm]))
    if not ordered:
        raise EmptyResult("no aggregate rows to write")
    with open(path, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in ordered:
            means = ",".join(f"{getattr(r, name):.6f}" for name in _MEANS)
            fh.write(f"{r.num_attr},{r.algorithm.value},{means},{r.task_count}\n")


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
