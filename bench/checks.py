"""Correctness checks: invariants and naive recomputation, never pinned outputs.

Every function returns a list of error strings; an empty list means the
output passed. The reference metrics here are plain per-prefix Python loops
written from the definitions in the fairrank README, independent of the
vectorised code they check. Quotas use the documented snap rule: a product
k * p within SNAP_TOL of an integer counts as that integer.
"""

from __future__ import annotations

import math

SNAP_TOL = 1e-12
SKEW_EPSILON = 1e-6
DEFAULT_DEPTH = 100
REL_TOL = 1e-9
ABS_TOL = 1e-12

ALGORITHMS = ("vanilla", "detgreedy", "detcons", "detrelaxed", "detconstsort")
GREEDY_FAMILY = ("detgreedy", "detcons", "detrelaxed")


def floor_quota(k: int, p: float) -> int:
    x = k * p
    r = round(x)
    return r if abs(x - r) <= SNAP_TOL else math.floor(x)


def must_be_feasible(algorithm: str, n_attrs: int) -> bool:
    """The paper's guarantees: DetConstSort always, the greedy family for n <= 3."""
    return algorithm == "detconstsort" or (algorithm in GREEDY_FAMILY and n_attrs <= 3)


def naive_merge(pools, k):
    """Vanilla by definition: score descending, then attribute index, then pool order."""
    items = sorted(
        (-s, a, i) for a, pool in enumerate(pools) for i, s in enumerate(pool)
    )[:k]
    return [a for _, a, _ in items], [-s for s, _, _ in items]


def naive_infeasible_prefixes(attrs, p):
    counts = [0] * len(p)
    out = []
    for i, a in enumerate(attrs, 1):
        counts[a] += 1
        if any(c < floor_quota(i, q) for c, q in zip(counts, p)):
            out.append(i)
    return out


def naive_skews(attrs, p, k):
    counts = [0] * len(p)
    for a in attrs[:k]:
        counts[a] += 1
    return [math.log(max(c / k, SKEW_EPSILON / k) / q) for c, q in zip(counts, p)]


def naive_report(attrs, scores, p, ideal, k=None):
    """All measures of fairrank.measure, one prefix at a time."""
    n = len(attrs)
    k = min(DEFAULT_DEPTH, n) if k is None else k
    counts = [0] * len(p)
    infeasible_index = infeasible_count = 0
    ndkl_num = weights = 0.0
    for i, a in enumerate(attrs, 1):
        counts[a] += 1
        misses = sum(1 for c, q in zip(counts, p) if c < floor_quota(i, q))
        infeasible_index += misses > 0
        infeasible_count += misses
        kl = sum((c / i) * math.log((c / i) / q) for c, q in zip(counts, p) if c)
        w = 1.0 / math.log2(i + 1)
        ndkl_num += w * kl
        weights += w
    skew = naive_skews(attrs, p, k)
    dcg = sum(s / math.log2(i + 2) for i, s in enumerate(scores[:k]))
    ideal_dcg = sum(s / math.log2(i + 2) for i, s in enumerate(ideal[:k]))
    return {
        "k": k,
        "skew": skew,
        "min_skew": min(skew),
        "max_skew": max(skew),
        "ndkl": ndkl_num / weights,
        "ndcg": dcg / ideal_dcg,
        "infeasible_index": infeasible_index,
        "infeasible_count": infeasible_count,
    }


def close(x, y) -> bool:
    return math.isclose(x, y, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def report_errors(report: dict, expected: dict) -> list[str]:
    """Compare a measured report (MetricsReport.to_dict() shape) with naive_report."""
    errs = []
    for key in ("k", "infeasible_index", "infeasible_count"):
        if report[key] != expected[key]:
            errs.append(f"{key}: got {report[key]}, naive {expected[key]}")
    for key in ("min_skew", "max_skew", "ndkl", "ndcg"):
        if not close(report[key], expected[key]):
            errs.append(f"{key}: got {report[key]!r}, naive {expected[key]!r}")
    skew = list(report["skew"].values())
    if len(skew) != len(expected["skew"]) or not all(map(close, skew, expected["skew"])):
        errs.append("skew vector differs from naive")
    return errs


def ranking_errors(pools, p, k, algorithm, attrs, scores, fallback_events) -> list[str]:
    """Invariants of any ranking, plus the per-algorithm guarantees.

    pools are the validated per-attribute score lists in label order and p
    the matching proportions.
    """
    errs = []
    if len(attrs) != k or len(scores) != k:
        errs.append(f"length {len(attrs)}, expected k_max={k}")
    taken = [0] * len(pools)
    for pos, (a, s) in enumerate(zip(attrs, scores), 1):
        if not 0 <= a < len(pools):
            errs.append(f"position {pos}: attribute index {a} out of range")
            break
        if taken[a] >= len(pools[a]) or pools[a][taken[a]] != s:
            errs.append(f"position {pos}: score {s!r} is not the next candidate of pool {a}")
            break
        taken[a] += 1
    if errs:
        return errs
    if algorithm == "vanilla":
        want_attrs, want_scores = naive_merge(pools, k)
        if list(attrs) != want_attrs or list(scores) != want_scores:
            errs.append("vanilla differs from the lexsort merge")
    elif fallback_events == 0 and must_be_feasible(algorithm, len(p)):
        bad = naive_infeasible_prefixes(attrs, p)
        if bad:
            errs.append(f"{algorithm} with n={len(p)} infeasible at prefixes {bad[:5]}")
    return errs


def sweep_row_errors(rows, sizes, algorithms, tasks_per_cell) -> list[str]:
    """Invariants of run_grid's aggregate rows."""
    errs = []
    cells = {(r.num_attr, r.algorithm.value): r for r in rows}
    want = {(n, a) for n in sizes for a in algorithms}
    if len(rows) != len(want) or set(cells) != want:
        return [f"grid has cells {sorted(cells)}, expected {sorted(want)}"]
    for (n, algo), r in sorted(cells.items()):
        where = f"cell n={n} {algo}"
        if r.task_count != tasks_per_cell:
            errs.append(f"{where}: task_count {r.task_count}, expected {tasks_per_cell}")
        values = (r.mean_infeasible_index, r.mean_infeasible_count, r.mean_min_skew,
                  r.mean_max_skew, r.mean_ndkl, r.mean_ndcg)
        if not all(math.isfinite(v) for v in values):
            errs.append(f"{where}: non-finite mean")
            continue
        if not (r.mean_min_skew <= 0 <= r.mean_max_skew and r.mean_ndkl >= 0):
            errs.append(f"{where}: skew or ndkl out of range")
        if not 0 < r.mean_ndcg <= 1 + ABS_TOL:
            errs.append(f"{where}: mean_ndcg {r.mean_ndcg} outside (0, 1]")
        if algo == "vanilla" and not close(r.mean_ndcg, 1.0):
            errs.append(f"{where}: mean_ndcg {r.mean_ndcg}, expected 1")
        if must_be_feasible(algo, n) and r.mean_infeasible_index != 0:
            errs.append(f"{where}: mean_infeasible_index {r.mean_infeasible_index}, expected 0")
    return errs


def grid_mean_errors(rows, expected_means) -> list[str]:
    """Compare run_grid means with means of naive reports per (n, algorithm)."""
    errs = []
    for r in rows:
        want = expected_means[(r.num_attr, r.algorithm.value)]
        got = {
            "infeasible_index": r.mean_infeasible_index,
            "infeasible_count": r.mean_infeasible_count,
            "min_skew": r.mean_min_skew,
            "max_skew": r.mean_max_skew,
            "ndkl": r.mean_ndkl,
            "ndcg": r.mean_ndcg,
        }
        for key, value in got.items():
            if not close(value, want[key]):
                errs.append(f"cell n={r.num_attr} {r.algorithm.value}: mean {key} {value!r}, naive {want[key]!r}")
    return errs
