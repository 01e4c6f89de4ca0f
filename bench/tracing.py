"""Span recorder that wraps fairrank's public functions from outside the package.

Each traced function is replaced on every module attribute that refers to it,
which is where callers look it up: `fairrank.simulate.rank`,
`fairrank.rerank.ceil_quota`, `fairrank.metrics.floor_quotas`, the package
namespace the benchmark itself calls through, and so on. Nothing under
`src/` changes. A target name that no longer exists in its module is listed
in `Recorder.absent` instead of raising, so a later change that deletes a
function still gets a report.

Spans nest through an explicit stack. A span's self time is its duration
minus the time covered by its direct child spans. Spans are folded into
per-name totals in memory as they close and read out once the traced block
ends; per-call durations are kept only for the names whose medians are
reported.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# layer -> public functions timed in that layer; `errors` has no work to time
TARGETS = {
    "model": ("task_from_dict", "validate_task"),
    "quota": ("floor_quota", "ceil_quota", "floor_quotas", "ceil_quotas"),
    "rerank": ("rank",),
    "metrics": ("measure", "infeasible_prefixes", "min_skew_at_k", "max_skew_at_k"),
    "simulate": ("run_grid", "gen_desired", "gen_pool"),
    "cli": ("main",),
}

# spans whose per-call durations are kept for medians
_SAMPLED = {
    "metrics.measure",
    "metrics.infeasible_prefixes",
    "metrics.min_skew_at_k",
    "metrics.max_skew_at_k",
    "cli.main",
}


class Recorder:
    """Per-name call counts, total and self seconds, and optional samples."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.errors = defaultdict(int)
        self.samples = defaultdict(list)
        self.fallback_events = 0
        self.absent: list[str] = []
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, span_name):
        """Wrap fn; span_name(args, kwargs) gives (name, sample key or None)."""
        stack = self._stack
        perf = time.perf_counter
        calls, total_s, self_s = self.calls, self.total_s, self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name, sample_key = span_name(args, kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                d = perf() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += d
                calls[name] += 1
                total_s[name] += d
                self_s[name] += d - frame[0]
                if sample_key is not None:
                    self.samples[sample_key].append(d)
            if name.startswith("rerank."):
                self.fallback_events += getattr(result, "fallback_events", 0)
            return result

        return traced

    def install(self) -> None:
        """Replace every module reference to each target with a traced wrapper."""
        modules = [m for n, m in list(sys.modules.items()) if n == "fairrank" or n.startswith("fairrank.")]
        for layer, names in TARGETS.items():
            try:
                mod = importlib.import_module(f"fairrank.{layer}")
            except ImportError:
                self.absent.extend(f"{layer}.{n}" for n in names)
                continue
            for fname in names:
                original = getattr(mod, fname, None)
                if not callable(original):
                    self.absent.append(f"{layer}.{fname}")
                    continue
                wrapper = self._wrap(original, _namer(layer, fname))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patches.append((m, attr, original))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patches):
            setattr(m, attr, original)
        self._patches.clear()


def _namer(layer, fname):
    name = f"{layer}.{fname}"
    if layer == "rerank" and fname == "rank":
        return _rank_span
    key = name if name in _SAMPLED else None
    return lambda args, kwargs: (name, key)


def _rank_span(args, kwargs):
    """rank(task, algorithm, ...) spans are named by algorithm and sampled by k."""
    algo = args[1] if len(args) > 1 else kwargs.get("algorithm")
    algo = getattr(algo, "value", algo)
    task = args[0] if args else kwargs.get("task")
    k = getattr(task, "k_max", None)
    return f"rerank.{algo}", f"rerank.{algo}.k{k}"
