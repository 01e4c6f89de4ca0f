"""Command-line interface: rerank, measure, and simulate subcommands.

Exit codes: 0 on success, 2 for any input or configuration problem
(including malformed JSON and argparse usage errors), 3 when ranking fails
for lack of candidates. Machine-readable payloads go to stdout (or --output);
warnings and summaries go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections.abc import Mapping

import numpy as np

from .errors import RankingError, ValidationError
from .metrics import measure
from .model import DesiredDistribution, RankedList, task_from_dict, validate_task
from .rerank import Algorithm, rank
from .simulate import SimulationConfig, run_grid, write_csv, write_diagnostics

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_RANKING = 3

_ALGO_NAMES = [a.value for a in Algorithm]


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _emit(text: str, path) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_rerank(args) -> int:
    obj = _load_json(args.input)
    task = validate_task(task_from_dict(obj))
    ranked = rank(task, args.algorithm, fallback=args.fallback)
    if ranked.fallback_events:
        print(
            f"warning: {ranked.fallback_events} fallback substitution(s) made",
            file=sys.stderr,
        )
    _emit(json.dumps(ranked.to_records(), indent=2) + "\n", args.output)
    return EXIT_OK


def cmd_measure(args) -> int:
    records = _load_json(args.input)
    if not isinstance(records, list):
        raise ValidationError("ranked input must be a JSON array of rows")
    desired_map = _load_json(args.desired)
    if not isinstance(desired_map, Mapping):
        raise ValidationError("desired input must be a JSON object of proportions")
    # zero-proportion values are dropped here, mirroring task validation; a
    # ranked row carrying one then fails with UnknownAttribute
    desired = DesiredDistribution.from_mapping(
        {a: p for a, p in desired_map.items() if p != 0}
    )
    ranked = RankedList.from_records(records, desired.labels)

    ideal = None
    if args.task:
        task = validate_task(task_from_dict(_load_json(args.task)))
        ideal = np.sort(np.concatenate(task.pool.scores))[::-1]
    report = measure(ranked, desired, ideal_scores=ideal, k=args.k)
    _emit(json.dumps(report.to_dict(), indent=2) + "\n", args.output)
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.algorithms:
        algorithms = tuple(name.strip() for name in args.algorithms.split(",") if name.strip())
    else:
        algorithms = tuple(_ALGO_NAMES)
    config = SimulationConfig(
        attr_min=args.attr_min,
        attr_max=args.attr_max,
        num_distributions=args.num_distributions,
        replications=args.replications,
        pool_size=args.pool_size,
        k_max=args.k,
        algorithms=algorithms,
        seed=args.seed,
    )
    rows = run_grid(config, jobs=args.jobs)
    write_csv(rows, args.output)
    for num_attr in range(config.attr_min, config.attr_max + 1):
        cells = [r for r in rows if r.num_attr == num_attr]
        counted = sorted({r.task_count for r in cells})
        spread = str(counted[0]) if len(counted) == 1 else f"{counted[0]}..{counted[-1]}"
        print(
            f"num_attr={num_attr}: {len(cells)} algorithm(s), {spread} tasks each",
            file=sys.stderr,
        )
    diag_path = args.output + ".diagnostics.csv"
    flagged = write_diagnostics(rows, config, diag_path)
    if flagged:
        print(
            f"note: {flagged} cell(s) excluded failed tasks; see {diag_path}",
            file=sys.stderr,
        )
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The fairrank parser, built on first use and shared by every later call: do not mutate it."""
    parser = argparse.ArgumentParser(
        prog="fairrank",
        description="Rank candidate pools under a desired attribute distribution "
        "and measure representation bias in ranked lists.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rerank_p = sub.add_parser("rerank", help="rank a task with one algorithm")
    rerank_p.add_argument("--input", required=True, help='task JSON: {"k", "desired", "pools"}')
    rerank_p.add_argument("--algorithm", required=True, choices=_ALGO_NAMES)
    rerank_p.add_argument(
        "--fallback",
        action="store_true",
        help="substitute another attribute when a required pool is exhausted",
    )
    rerank_p.add_argument("--output", help="ranked JSON path (default stdout)")
    rerank_p.set_defaults(func=cmd_rerank)

    measure_p = sub.add_parser("measure", help="measure a ranked list")
    measure_p.add_argument("--input", required=True, help="ranked JSON (rerank output shape)")
    measure_p.add_argument(
        "--desired", required=True, help="desired distribution JSON: {label: proportion}"
    )
    measure_p.add_argument(
        "--task",
        help="task JSON; ndcg is then measured against its merged pools "
        "instead of the list's own scores",
    )
    measure_p.add_argument("--k", type=int, help="evaluation depth (default min(100, length))")
    measure_p.add_argument("--output", help="report JSON path (default stdout)")
    measure_p.set_defaults(func=cmd_measure)

    sim_p = sub.add_parser("simulate", help="run a seeded random-task grid")
    sim_p.add_argument("--attr-min", type=int, default=2)
    sim_p.add_argument("--attr-max", type=int, default=10)
    sim_p.add_argument("--num-distributions", type=int, default=1000)
    sim_p.add_argument("--replications", type=int, default=1)
    sim_p.add_argument("--pool-size", type=int, default=100)
    sim_p.add_argument("--k", type=int, default=100)
    sim_p.add_argument(
        "--algorithms",
        help=f"comma-separated subset of {{{','.join(_ALGO_NAMES)}}} (default: all)",
    )
    sim_p.add_argument("--seed", type=int, default=42)
    sim_p.add_argument("--output", required=True, help="aggregate CSV path")
    sim_p.add_argument("--jobs", type=int, default=1, help="worker processes")
    sim_p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except RankingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RANKING
