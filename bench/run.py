"""fairrank benchmark: one workload per invocation, one JSON result line.

    python3 bench/run.py --workload {sweep,rerank_online,audit} --seed N \\
        --seconds S --trace {0,1}
    python3 bench/run.py --smoke

Run from the root of a source checkout; fairrank is imported from its src/,
never from an installed copy. Every workload runs in fresh single-threaded
child processes (bench/worker.py):

- --trace 0 measures the end-to-end metrics untraced: set-up time as the
  median of several fresh interpreters that import fairrank and finish the
  workload's first op, then one run of S seconds that times a fixed block
  of inputs pass after pass and keeps each input's fastest time.
- --trace 1 wraps fairrank's public functions with the span recorder in
  bench/tracing.py and reports the per-layer metrics plus the tracing
  overhead against untraced passes over the same inputs.

Metric names and units come from BENCHMARK.json at the checkout root. The
last stdout line is {"correct", "attempted", "failed", "metrics"}; lines
before it name every metric with its unit. The full result, with machine
facts, check errors and an output digest, goes to .bench_out/. The exit
code is 1 when a correctness check failed and 2 when the run could not be
made at all.

--smoke runs every workload tiny in both modes, checks the result schema
against BENCHMARK.json, and checks that the correctness checks reject
deliberately corrupted outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("sweep", "rerank_online", "audit")
# numeric libraries read these at import; children get one thread each
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
SETUP_REPEATS = 10
SETUP_TIMEOUT_S = 15
CHILD_SLACK_S = 60


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child(mode, args, tmp, extra=(), timeout=SETUP_TIMEOUT_S):
    """Run worker.py in a fresh interpreter; return (its JSON, seconds to it)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", **THREAD_ENV)
    cmd = [sys.executable, str(BENCH / "worker.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--root", str(ROOT), "--tmp", str(tmp), *extra]
    if args.tiny:
        cmd.append("--tiny")
    err_path = tmp / "stderr.txt"
    with open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"worker {mode} exceeded {timeout} s") from None
    if proc.returncode != 0 or not line:
        raise BenchError(f"worker {mode} exited {proc.returncode}: {err_path.read_text()[-2000:]}")
    return json.loads(line), elapsed


def _remove(tmp):
    """Delete a run's temporary directory, and its parent once that is empty."""
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        tmp.parent.rmdir()
    except OSError:
        pass


def _facts(child):
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": child["numpy"],
        "src_lines": src_lines,
        "thread_env": THREAD_ENV,
        "host_probe_ms": {"start": child["host_probe_ms"][0], "end": child["host_probe_ms"][1]},
    }


def run_workload(args, spec):
    tmp = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        run_timeout = args.seconds + CHILD_SLACK_S
        if args.trace:
            child, _ = _child("trace", args, tmp, ("--seconds", str(args.seconds)), run_timeout)
            values = dict(child["layers"], **{"trace.overhead_pct": child["trace.overhead_pct"]})
            wanted = spec["per_layer"]
        else:
            # half the set-up probes before the run and half after, so a
            # host slowdown at one end moves the median less
            setups = [_child("setup", args, tmp)[1] for _ in range(SETUP_REPEATS // 2)]
            child, _ = _child("run", args, tmp, ("--seconds", str(args.seconds)), run_timeout)
            setups += [_child("setup", args, tmp)[1] for _ in range(SETUP_REPEATS - len(setups))]
            values = {key: child[key] for key in
                      ("throughput_ops_per_s", "latency_p50_ms", "latency_p99_ms", "peak_rss_mb")}
            values["setup_s"] = statistics.median(setups)
            child["setup_runs_s"] = setups
            wanted = spec["end_to_end"]
    finally:
        _remove(tmp)

    metrics, absent = {}, []
    for m in wanted:
        value = values.get(m["name"])
        if value is None:
            # the traced name is gone or this workload never reaches it
            absent.append(m["name"])
            value = 0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "facts": _facts(child),
        "absent": absent,
        "child": child,
    }
    result = {
        "correct": bool(child["correct"]),
        "attempted": int(child["attempted"]),
        "failed": int(child["failed"]),
        "metrics": metrics,
    }
    return result, detail


def _print(result, detail):
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{detail['workload']}-seed{detail['seed']}-trace{detail['trace']}.json"
    path.write_text(json.dumps(dict(result, **detail), indent=1) + "\n")
    for name, m in result["metrics"].items():
        note = "  (absent)" if name in detail["absent"] else ""
        if name.startswith("latency_"):
            note = f"  ({detail['child']['latency_samples']} samples)"
        print(f"{detail['workload']:>13}  {name} = {m['value']:.6g} {m['unit']}{note}")
    failed_frac = result["failed"] / result["attempted"]
    print(f"{detail['workload']:>13}  failed_frac = {failed_frac:.6g} ({result['failed']}/{result['attempted']} ops)")
    for err in detail["child"]["errors"]:
        print(f"check failed: {err}")
    print(f"detail: {path.relative_to(ROOT)}")
    print(json.dumps(result))


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def smoke():
    """Tiny runs of every workload in both modes, schema checks, and the
    checks' own check: each corrupted output must be rejected."""
    spec = load_spec()
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
                   "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            label = f"{workload} trace={trace}"
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{label}: no result line; stderr: {proc.stderr[-500:]}")
                continue
            problems += [f"{label}: {p}" for p in schema_problems(result, spec["per_layer" if trace else "end_to_end"])]
            if proc.returncode != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{label}: exit {proc.returncode}, result {result}")
            print(f"smoke {label}: exit {proc.returncode}, attempted {result['attempted']}")
    tmp = ROOT / ".bench_tmp" / f"selftest-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        ns = argparse.Namespace(workload="rerank_online", seed=3, tiny=True)
        selftest, _ = _child("selftest", ns, tmp, timeout=120)
    finally:
        _remove(tmp)
    for case, passed in selftest.items():
        print(f"smoke checks, {case}: {'ok' if passed else 'FAIL'}")
        if not passed:
            problems.append(f"check self-test failed: {case}")
    for p in problems:
        print(f"smoke problem: {p}")
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def schema_problems(result, wanted):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if not (type(result["attempted"]) is int and result["attempted"] >= 1 and type(result["failed"]) is int):
        problems.append("attempted/failed must be whole numbers, attempted >= 1")
    if [m for m in result["metrics"]] != [m["name"] for m in wanted]:
        problems.append("metric names differ from BENCHMARK.json")
    for m in wanted:
        got = result["metrics"].get(m["name"], {})
        if set(got) != {"value", "unit"} or got["unit"] != m["unit"]:
            problems.append(f"{m['name']}: {got}")
        elif type(got["value"]) not in (int, float):
            problems.append(f"{m['name']}: value {got['value']!r} is not a number")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny self-check of the benchmark")
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fairrank" / "__init__.py").is_file():
        print(f"error: no fairrank sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        result, detail = run_workload(args, load_spec())
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print(result, detail)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
