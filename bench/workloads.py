"""Seeded inputs and single-op runners for the three benchmark workloads.

Every workload is a closed loop with one caller: the next op starts only
after the previous one returned. A run draws one fixed block of inputs from
a numpy generator keyed by the workload seed, outside the timed region, and
runs it over and over. The block's mix (alphabet sizes, algorithms, k, list
lengths) is fixed by position, and the seed draws only the values inside
that mix, so every seed asks for the same amount of work.

- sweep: the paper's grid shape (alphabet sizes 2..10, pools of 100,
  k = 100, all five algorithms) as `run_grid(..., jobs=1)` calls of one
  alphabet size and 2 distributions each. A block is four passes over the
  nine sizes, 36 calls and 72 tasks, short enough that a 30 s run times
  each call about seventy times. It is the research use and the only
  workload that runs simulate's generation and aggregation; throughput
  counts tasks, each ranked by all five algorithms and measured, and
  latency is per call.
- rerank_online: one op is one request, task_from_dict -> validate_task ->
  rank -> measure, or 2 in 25 through `fairrank.cli.main(["rerank",
  ...])` on files. Batch-of-one latency: at k = 10 the model layer costs
  more than the ranking, and the k = 1000 tail sets p99.
- audit: one op measures one pre-built ranked list: measure against a pool
  ideal, infeasible_prefixes, and min/max skew at a few depths. Metrics
  work with no ranking at all.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

import checks
import fairrank as fr
import fairrank.cli

ALGORITHMS = checks.ALGORITHMS

# exact decimal mixes next to uniform draws: their ceil(k * p) / p pressures
# tie mathematically but not in floating point
DECIMAL_MIXES = {
    1: [(1.0,)],
    2: [(0.3, 0.7), (0.25, 0.75), (0.45, 0.55)],
    3: [(0.05, 0.35, 0.6), (0.1, 0.7, 0.2), (0.2, 0.3, 0.5)],
    5: [(0.1, 0.2, 0.3, 0.15, 0.25), (0.05, 0.05, 0.3, 0.35, 0.25)],
    10: [(0.1,) * 10, (0.05, 0.05, 0.05, 0.05, 0.1, 0.1, 0.1, 0.15, 0.15, 0.2)],
}


def _proportions(rng, n, decimal):
    if decimal and n in DECIMAL_MIXES:
        mixes = DECIMAL_MIXES[n]
        return list(mixes[rng.integers(len(mixes))])
    u = rng.random(n)
    while not np.all(u > 0):
        u = rng.random(n)
    return (u / u.sum()).tolist()


def _sorted_scores(rng, size):
    return np.sort(rng.random(size))[::-1].tolist()


def _digest(parts) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


class _Workload:
    # every DEEP_EVERY-th op is also checked against naive recomputation
    DEEP_EVERY = 0

    def side_check(self, seed):
        """Checks that need their own small run; none by default."""
        return []


class Sweep(_Workload):
    SIZES = tuple(range(2, 11))
    DISTRIBUTIONS = 2
    POOL = 100
    K = 100
    # blocks count passes over all sizes, so every block holds the same mix
    BLOCK = 4
    TRACE_BLOCK = 16

    def __init__(self, tmp_dir, tiny=False):
        if tiny:
            self.SIZES, self.BLOCK, self.TRACE_BLOCK = (2, 3, 4), 1, 1

    def config(self, seed, sizes=None, distributions=None):
        sizes = sizes or self.SIZES
        return fr.SimulationConfig(
            attr_min=sizes[0],
            attr_max=sizes[-1],
            num_distributions=distributions or self.DISTRIBUTIONS,
            pool_size=self.POOL,
            k_max=self.K,
            seed=seed,
        )

    def make_block(self, rng, size):
        return [self.config(int(rng.integers(2**31)), sizes=(n,)) for _ in range(size) for n in self.SIZES]

    def first_input(self, seed):
        return self.config(seed, sizes=(2,), distributions=1)

    def ops(self, config):
        return (config.attr_max - config.attr_min + 1) * config.num_distributions

    def run(self, config):
        return fr.run_grid(config, jobs=1)

    def check(self, config, rows, deep):
        sizes = range(config.attr_min, config.attr_max + 1)
        return checks.sweep_row_errors(rows, sizes, ALGORITHMS, config.num_distributions)

    def digest(self, pairs):
        return _digest(
            f"{r.num_attr},{r.algorithm.value},{r.mean_ndkl:.6f},{r.mean_ndcg:.6f},"
            f"{r.mean_infeasible_index:.6f},{r.task_count}"
            for _, rows in pairs
            for r in rows
        )

    def side_check(self, seed):
        """run_grid means against the means of naive reports on a small grid."""
        config = self.config(seed, distributions=2)
        rows = fr.run_grid(config, jobs=1)
        return self.check(config, rows, True) + checks.grid_mean_errors(rows, naive_means(config))


def naive_means(config):
    """Per-(n, algorithm) means of naive reports over the grid's tasks.

    Tasks are regenerated with simulate's documented keying: Philox keyed by
    SeedSequence(seed, spawn_key=(n, d)) for the desired draw and
    (n, d, replication) for the pools.
    """
    sums = {}
    for n in range(config.attr_min, config.attr_max + 1):
        for d in range(config.num_distributions):
            desired = fr.gen_desired(n, _philox(config.seed, n, d))
            pool = fr.gen_pool(n, config.pool_size, _philox(config.seed, n, d, 0))
            task = fr.validate_task(fr.RankingTask(desired=desired, pool=pool, k_max=config.k_max))
            p = task.desired.proportions.tolist()
            ideal = sorted(np.concatenate(task.pool.scores).tolist(), reverse=True)
            for algo in ALGORITHMS:
                ranked = fr.rank(task, algo)
                rep = checks.naive_report(
                    ranked.attributes.tolist(), ranked.scores.tolist(), p, ideal, config.k_max
                )
                acc = sums.setdefault((n, algo), {})
                for key, value in rep.items():
                    if key not in ("k", "skew"):
                        acc[key] = acc.get(key, 0.0) + value / config.num_distributions
    return sums


def _philox(seed, *key):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


class RerankOnline(_Workload):
    SIZES = (2, 3, 5, 10)
    # per 25 requests of one (n, algorithm): 12 at k = 10, 11 at k = 100 and
    # 2 at k = 1000 (48% / 44% / 8%)
    K_BANDS = ((12, 10), (23, 100), (25, 1000))
    UNDERSIZED = (5, 18)
    CLI = (2, 14)
    BLOCK = 500
    TRACE_BLOCK = 1000
    DEEP_EVERY = 8

    def __init__(self, tmp_dir, tiny=False):
        self.tmp_dir = tmp_dir
        self._files = 0
        if tiny:
            self.BLOCK = self.TRACE_BLOCK = 60

    def _kind(self, i):
        """The mix by position: n and algorithm cycle, and the j-th request of
        each (n, algorithm) pair gets its k, a decimal mix (even j), an
        undersized pool (8%) and the CLI route (8%) from j % 25 alone."""
        n = self.SIZES[i % len(self.SIZES)]
        algo = ALGORITHMS[(i // len(self.SIZES)) % len(ALGORITHMS)]
        j = i // (len(self.SIZES) * len(ALGORITHMS)) % 25
        k = next(k for end, k in self.K_BANDS if j < end)
        return n, algo, k, j % 2 == 0, j in self.UNDERSIZED, j in self.CLI

    def _request(self, rng, n, algo, k, decimal, undersized, cli):
        p = _proportions(rng, n, decimal)
        sizes = [k] * n
        if undersized:
            # the largest attribute cannot meet its quotas; the other pools
            # still hold k candidates each, so fallback always fills the list
            a = int(np.argmax(p))
            sizes[a] = max(1, math.ceil(k * p[a]) // 2)
        labels = [f"g{i}" for i in range(n)]
        obj = {
            "k": k,
            "desired": dict(zip(labels, p)),
            "pools": {lab: _sorted_scores(rng, size) for lab, size in zip(labels, sizes)},
        }
        req = {"obj": obj, "algorithm": algo, "fallback": undersized, "cli": None}
        if cli:
            # one file per CLI request of a block; names recycle after 1000
            self._files = (self._files + 1) % 1000
            path = os.path.join(self.tmp_dir, f"task{self._files}.json")
            with open(path, "w") as fh:
                json.dump(obj, fh)
            argv = ["rerank", "--input", path, "--algorithm", algo, "--output", path + ".out"]
            req["cli"] = argv + (["--fallback"] if undersized else [])
        return req

    def make_block(self, rng, size):
        reqs = [self._request(rng, *self._kind(i)) for i in range(size)]
        return [reqs[i] for i in rng.permutation(size)]

    def first_input(self, seed):
        return self._request(np.random.default_rng(seed), *self._kind(0))

    def ops(self, req):
        return 1

    def run(self, req):
        if req["cli"] is not None:
            code = fairrank.cli.main(req["cli"])
            if code != 0:
                raise RuntimeError(f"fairrank rerank exited {code}")
            return None
        task = fr.validate_task(fr.task_from_dict(req["obj"]))
        ranked = fr.rank(task, req["algorithm"], fallback=req["fallback"])
        ideal = np.sort(np.concatenate(task.pool.scores))[::-1]
        report = fr.measure(ranked, task.desired, ideal_scores=ideal)
        return ranked, report

    def _ranking(self, req, out):
        if out is None:
            # read once, when checked: the file name is reused by later requests
            if "ranked" not in req:
                with open(req["cli"][req["cli"].index("--output") + 1]) as fh:
                    rows = json.load(fh)
                labels = list(req["obj"]["desired"])
                req["ranked"] = [labels.index(r["attribute"]) for r in rows], [r["score"] for r in rows], None
            return req["ranked"]
        ranked, report = out
        return ranked.attributes.tolist(), ranked.scores.tolist(), ranked.fallback_events

    def check(self, req, out, deep):
        obj = req["obj"]
        pools = list(obj["pools"].values())
        p = list(obj["desired"].values())
        attrs, scores, events = self._ranking(req, out)
        # the CLI reports fallbacks on stderr only; treat its rankings as
        # possibly substituted when the request asked for fallback
        if events is None:
            events = 1 if req["fallback"] else 0
        errs = checks.ranking_errors(pools, p, obj["k"], req["algorithm"], attrs, scores, events)
        if deep and out is not None and not errs:
            ideal = sorted((s for pool in pools for s in pool), reverse=True)
            errs += checks.report_errors(out[1].to_dict(), checks.naive_report(attrs, scores, p, ideal))
        return errs

    def digest(self, pairs):
        parts = []
        for req, out in pairs:
            attrs, _, _ = self._ranking(req, out)
            parts.append(req["algorithm"] + ":" + ",".join(map(str, attrs)))
        return _digest(parts)


class Audit(_Workload):
    MAX_ATTRS = 10
    MAX_LEN = 1000
    BLOCK = 500
    TRACE_BLOCK = 2000
    DEEP_EVERY = 16

    def __init__(self, tmp_dir, tiny=False):
        if tiny:
            self.BLOCK = self.TRACE_BLOCK = 60

    def _list(self, rng, n, u):
        """A list over n attributes whose log-length sits at quantile u."""
        length = int(round(math.exp(u * math.log(self.MAX_LEN))))
        p = _proportions(rng, n, rng.random() < 0.5)
        # lists drift from the target, so some prefixes miss their floors
        drift = rng.random(n)
        q = 0.7 * np.asarray(p) + 0.3 * drift / drift.sum()
        labels = tuple(f"g{i}" for i in range(n))
        attrs = rng.choice(n, size=length, p=q / q.sum()).astype(np.int64)
        scores = np.sort(rng.random(length))[::-1]
        extra = rng.random(int(rng.integers(0, length + 1)))
        ideal = np.sort(np.concatenate([scores, extra]))[::-1]
        depths = sorted({min(10, length), min(100, length), length})
        ranked = fr.RankedList(labels=labels, attributes=attrs, scores=scores)
        desired = fr.DesiredDistribution(labels=labels, proportions=np.asarray(p))
        return ranked, desired, ideal, depths

    def make_block(self, rng, size):
        """Alphabet sizes cycle; each size gets log-uniform lengths stratified
        over its share of the block, so every block holds the same mix."""
        per_n = math.ceil(size / self.MAX_ATTRS)
        items = [
            self._list(rng, 1 + i % self.MAX_ATTRS, (i // self.MAX_ATTRS + rng.random()) / per_n)
            for i in range(size)
        ]
        return [items[i] for i in rng.permutation(size)]

    def first_input(self, seed):
        rng = np.random.default_rng(seed)
        return self._list(rng, self.MAX_ATTRS, rng.random())

    def ops(self, item):
        return 1

    def run(self, item):
        ranked, desired, ideal, depths = item
        report = fr.measure(ranked, desired, ideal_scores=ideal)
        prefixes = fr.infeasible_prefixes(ranked, desired)
        skews = [(fr.min_skew_at_k(ranked, desired, k), fr.max_skew_at_k(ranked, desired, k)) for k in depths]
        return report, prefixes, skews

    def check(self, item, out, deep):
        ranked, desired, ideal, depths = item
        report, prefixes, skews = out
        attrs = ranked.attributes.tolist()
        p = desired.proportions.tolist()
        errs = []
        if not report.min_skew <= 0 <= report.max_skew or report.ndkl < 0:
            errs.append("report out of range")
        if not deep:
            return errs
        errs += checks.report_errors(report.to_dict(), checks.naive_report(attrs, ranked.scores.tolist(), p, ideal.tolist()))
        if prefixes.tolist() != checks.naive_infeasible_prefixes(attrs, p):
            errs.append("infeasible_prefixes differs from naive")
        for k, (lo, hi) in zip(depths, skews):
            want = checks.naive_skews(attrs, p, k)
            if not (checks.close(lo, min(want)) and checks.close(hi, max(want))):
                errs.append(f"min/max skew at k={k} differ from naive")
        return errs

    def digest(self, pairs):
        return _digest(
            f"{out[0].infeasible_index},{out[0].ndkl:.9f},{len(out[1])}" for _, out in pairs
        )


WORKLOADS = {"sweep": Sweep, "rerank_online": RerankOnline, "audit": Audit}
