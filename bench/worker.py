"""One benchmark process: set-up probe, timed run, or traced run of a workload.

Started by run.py in a fresh interpreter with PYTHONPATH pointing at the
checkout's src/ and every numeric thread pool pinned to one thread. Prints
one JSON line on stdout.

    worker.py setup  --workload W --seed N
    worker.py run    --workload W --seed N --seconds S --tmp DIR [--tiny]
    worker.py trace  --workload W --seed N --seconds S --tmp DIR [--tiny]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time

perf = time.perf_counter
# a run times at least this many passes over its block, however slow the host
MIN_PASSES = 3


def _host_probe_ms() -> float:
    """Fixed pure-Python plus numpy loop; its time tracks host speed.

    Median of three timings, so the first one's warm-up does not count.
    """
    import numpy as np

    times = []
    for _ in range(3):
        t0 = perf()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        a = np.random.default_rng(0).random((100, 200))
        for _ in range(20):
            a = np.sort(a, axis=1)
        times.append((perf() - t0) * 1e3)
    return statistics.median(times)


def _percentile(xs, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(xs)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class _Tally:
    """What a run has seen so far: ops attempted and failed, check errors,
    and the first ops' outputs for the digest."""

    KEEP = 256

    def __init__(self):
        self.failures, self.errors, self.kept = [], [], []
        self.attempted = self.failed = 0


def _pass(w, block, tally):
    """Run every input of the block once, back to back, timing each.

    Returns one (seconds, output) per input, or None where the op raised.
    """
    results = []
    for inp in block:
        tally.attempted += w.ops(inp)
        t0 = perf()
        try:
            out = w.run(inp)
        except Exception as exc:  # any raise is a failed op, counted not fatal
            tally.failures.append(f"{type(exc).__name__}: {exc}")
            tally.failed += w.ops(inp)
            results.append(None)
            continue
        results.append((perf() - t0, out))
    return results


def _check(w, block, results, deep_every, tally):
    """Check every output, every deep_every-th one also against naive
    recomputation, and keep the first ones for the digest."""
    for i, (inp, res) in enumerate(zip(block, results)):
        if res is None:
            continue
        tally.errors.extend(w.check(inp, res[1], bool(deep_every) and i % deep_every == 0))
        if len(tally.kept) < tally.KEEP:
            tally.kept.append((inp, res[1]))


def _workload(args):
    import numpy as np

    import fairrank
    import workloads

    src = os.path.realpath(os.path.join(args.root, "src"))
    if not os.path.realpath(fairrank.__file__).startswith(src + os.sep):
        raise SystemExit(f"fairrank imported from {fairrank.__file__}, not from {src}")
    return np, workloads.WORKLOADS[args.workload](args.tmp, tiny=args.tiny)


def cmd_setup(args):
    np, w = _workload(args)
    w.run(w.first_input(args.seed))
    return {"ready": True}


def cmd_run(args):
    """One fixed block, run until the time is up; each input's latency is the
    fastest of its timed passes.

    The first pass warms caches up and is checked but not timed. Blocks are
    small, so each input is timed dozens of times or more at moments spread
    over the run, and its fastest time is the one that other tenants of a
    shared host slowed least.
    """
    np, w = _workload(args)
    probe_start = _host_probe_ms()
    block = w.make_block(np.random.default_rng(args.seed), w.BLOCK)
    tally = _Tally()
    _check(w, block, _pass(w, block, tally), w.DEEP_EVERY, tally)
    best = [math.inf] * len(block)
    passes = 0
    deadline = perf() + args.seconds
    while passes < MIN_PASSES or perf() < deadline:
        for i, res in enumerate(_pass(w, block, tally)):
            if res is not None:
                best[i] = min(best[i], res[0])
        passes += 1
    done = [(inp, t) for inp, t in zip(block, best) if t < math.inf]
    lat = [t for _, t in done]
    errors = tally.errors + w.side_check(args.seed)
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures[:10],
        "errors": errors[:20],
        "correct": not errors,
        "throughput_ops_per_s": sum(w.ops(inp) for inp, _ in done) / sum(lat),
        "latency_p50_ms": _percentile(lat, 0.50) * 1e3,
        "latency_p99_ms": _percentile(lat, 0.99) * 1e3,
        "latency_samples": len(lat),
        "timed_passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": w.digest(tally.kept),
        "digest_ops": len(tally.kept),
        "host_probe_ms": [probe_start, _host_probe_ms()],
        "numpy": np.__version__,
    }


def cmd_trace(args):
    """Alternate untraced and traced passes over one fixed block of inputs.

    The block is the same in every pass, so counts repeat exactly; timings
    are medians over the traced passes, and the tracing overhead is the
    ratio of the median traced to the median untraced pass time.
    """
    from tracing import Recorder

    np, w = _workload(args)
    probe_start = _host_probe_ms()
    block = w.make_block(np.random.default_rng(args.seed), w.TRACE_BLOCK)
    plain_s, traced_s, recorders = [], [], []
    tally = _Tally()
    deadline = perf() + args.seconds
    while not recorders or perf() < deadline:
        for traced in (False, True):
            rec = Recorder()
            if traced:
                rec.install()
            try:
                results = _pass(w, block, tally)
            finally:
                rec.uninstall()
            (traced_s if traced else plain_s).append(sum(r[0] for r in results if r is not None))
            if traced:
                recorders.append(rec)
    # outputs are checked on one more untraced pass
    checked = _Tally()
    _check(w, block, _pass(w, block, checked), w.DEEP_EVERY, checked)
    errors = checked.errors + w.side_check(args.seed)
    counts_repeat = all(r.calls == recorders[0].calls for r in recorders)
    return {
        "attempted": tally.attempted + checked.attempted,
        "failed": tally.failed + checked.failed,
        "failures": (tally.failures + checked.failures)[:10],
        "errors": errors[:20],
        "correct": not errors,
        "layers": _layer_metrics(recorders),
        "absent": sorted(set(recorders[0].absent)),
        "counts_repeat": counts_repeat,
        "trace_passes": len(recorders),
        "trace.overhead_pct": (statistics.median(traced_s) / statistics.median(plain_s) - 1) * 100,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": w.digest(checked.kept),
        "digest_ops": len(checked.kept),
        "host_probe_ms": [probe_start, _host_probe_ms()],
        "numpy": np.__version__,
    }


def cmd_selftest(args):
    """Each corrupted output must be rejected and each intact one accepted.

    Returns {case: passed}.
    """
    import dataclasses

    import checks
    import workloads

    np, _ = _workload(args)
    fr = workloads.fr
    rng = np.random.default_rng(args.seed)
    k = 100
    obj = {
        "k": k,
        "desired": {"a": 0.1, "b": 0.2, "c": 0.7},
        "pools": {lab: np.sort(rng.random(k))[::-1].tolist() for lab in "abc"},
    }
    task = fr.validate_task(fr.task_from_dict(obj))
    pools = [s.tolist() for s in task.pool.scores]
    p = task.desired.proportions.tolist()
    ideal = sorted((s for pool in pools for s in pool), reverse=True)

    def rejected(algo, attrs, scores):
        return bool(checks.ranking_errors(pools, p, k, algo, attrs, scores, 0))

    ranked = fr.rank(task, "detconstsort")
    attrs, scores = ranked.attributes.tolist(), ranked.scores.tolist()
    merged = fr.rank(task, "vanilla")
    m_attrs, m_scores = merged.attributes.tolist(), merged.scores.tolist()
    # swap the first adjacent pair from different pools: pool order survives,
    # merge order does not
    i = next(i for i in range(k - 1) if m_attrs[i] != m_attrs[i + 1])
    sw_attrs, sw_scores = list(m_attrs), list(m_scores)
    sw_attrs[i], sw_attrs[i + 1] = sw_attrs[i + 1], sw_attrs[i]
    sw_scores[i], sw_scores[i + 1] = sw_scores[i + 1], sw_scores[i]

    report = fr.measure(ranked, task.desired, ideal_scores=np.asarray(ideal)).to_dict()
    naive = checks.naive_report(attrs, scores, p, ideal)

    config = fr.SimulationConfig(attr_min=2, attr_max=3, num_distributions=2, seed=args.seed)
    rows = fr.run_grid(config, jobs=1)
    means = workloads.naive_means(config)
    algos = checks.ALGORITHMS
    short = [dataclasses.replace(rows[0], task_count=rows[0].task_count - 1)] + rows[1:]
    drifted = [dataclasses.replace(rows[0], mean_ndkl=rows[0].mean_ndkl * 1.001)] + rows[1:]

    return {
        "intact ranking accepted": not rejected("detconstsort", attrs, scores),
        "intact merge accepted": not rejected("vanilla", m_attrs, m_scores),
        "reversed ranking rejected": rejected("detconstsort", attrs[::-1], scores[::-1]),
        "truncated ranking rejected": rejected("detconstsort", attrs[:-1], scores[:-1]),
        "swapped merge rejected": rejected("vanilla", sw_attrs, sw_scores),
        "infeasible detconstsort rejected": rejected("detconstsort", m_attrs, m_scores),
        "intact report accepted": not checks.report_errors(report, naive),
        "perturbed ndkl rejected": bool(checks.report_errors(dict(report, ndkl=report["ndkl"] * (1 + 1e-6)), naive)),
        "perturbed infeasible_count rejected": bool(
            checks.report_errors(dict(report, infeasible_count=report["infeasible_count"] + 1), naive)
        ),
        "intact grid accepted": not (
            checks.sweep_row_errors(rows, (2, 3), algos, 2) or checks.grid_mean_errors(rows, means)
        ),
        "short task_count rejected": bool(checks.sweep_row_errors(short, (2, 3), algos, 2)),
        "perturbed grid mean rejected": bool(checks.grid_mean_errors(drifted, means)),
    }


def _layer_metrics(recorders):
    """Per-layer values: counts from the first pass, seconds as medians over
    passes, per-call medians over every sample of every pass."""
    first = recorders[0]

    def med(fn):
        return statistics.median(fn(r) for r in recorders)

    def p50_us(key):
        xs = [x for r in recorders for x in r.samples.get(key, ())]
        return statistics.median(xs) * 1e6 if xs else None

    quota = [f"quota.{f}" for f in ("floor_quota", "ceil_quota", "floor_quotas", "ceil_quotas")]
    out = {
        "model.task_from_dict.busy_s": med(lambda r: r.total_s["model.task_from_dict"]),
        "model.validate_task.busy_s": med(lambda r: r.total_s["model.validate_task"]),
        "model.validate_task.calls": first.calls["model.validate_task"],
        "quota.ceil_quota.calls": first.calls["quota.ceil_quota"],
        "quota.floor_quotas.calls": first.calls["quota.floor_quotas"],
        "quota.ceil_quotas.calls": first.calls["quota.ceil_quotas"],
        "quota.busy_s": med(lambda r: sum(r.self_s[q] for q in quota)),
        "rerank.fallback_events": first.fallback_events,
        "rerank.failures": sum(n for name, n in first.errors.items() if name.startswith("rerank.")),
        "metrics.measure.calls": first.calls["metrics.measure"],
        "metrics.measure.busy_s": med(lambda r: r.total_s["metrics.measure"]),
        "simulate.generate.busy_s": med(
            lambda r: r.total_s["simulate.gen_desired"] + r.total_s["simulate.gen_pool"]
        ),
        "simulate.aggregate.self_s": med(lambda r: r.self_s["simulate.run_grid"]),
        "cli.main.calls": first.calls["cli.main"],
    }
    from workloads import ALGORITHMS

    for algo in ALGORITHMS:
        out[f"rerank.{algo}.calls"] = first.calls[f"rerank.{algo}"]
        out[f"rerank.{algo}.busy_s"] = med(lambda r: r.total_s[f"rerank.{algo}"])
        for k in (10, 100, 1000):
            out[f"rerank.{algo}.k{k}.us_p50"] = p50_us(f"rerank.{algo}.k{k}")
    for name in ("measure", "infeasible_prefixes", "min_skew_at_k", "max_skew_at_k"):
        out[f"metrics.{name}.us_p50"] = p50_us(f"metrics.{name}")
    out["cli.main.us_p50"] = p50_us("cli.main")
    # metrics of a function that no longer exists are absent, not 0
    for fn in first.absent:
        prefix = _METRIC_PREFIX.get(fn, fn + ".")
        out.update((name, None) for name in out if name.startswith(prefix))
    return out


# traced function -> prefix of the metrics built from it, where they differ
_METRIC_PREFIX = {
    "rerank.rank": "rerank.",
    "simulate.run_grid": "simulate.aggregate.",
    "simulate.gen_desired": "simulate.generate.",
    "simulate.gen_pool": "simulate.generate.",
}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run", "trace", "selftest"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--root", required=True)
    parser.add_argument("--tmp", default=None)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    modes = {"setup": cmd_setup, "run": cmd_run, "trace": cmd_trace, "selftest": cmd_selftest}
    result = modes[args.mode](args)
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
