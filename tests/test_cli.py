import json
import subprocess
import sys

import numpy as np
import pytest

from fairrank import RankedList, measure, rank, task_from_dict
from fairrank.cli import _ranked_json, build_parser, main

FOUR_GROUP_TASK = {
    "k": 4,
    "desired": {"a1": 0.4, "a2": 0.4, "a3": 0.1, "a4": 0.1},
    "pools": {"a1": [0.1], "a2": [0.2], "a3": [0.3], "a4": [0.4]},
}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "fairrank", *args], capture_output=True, text=True
    )


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def assert_one_error_line(result):
    """An input error: exit 2, no output and a single `error:` line on stderr."""
    assert result.returncode == 2
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), result.stderr


@pytest.fixture
def task_file(tmp_path):
    return write_json(tmp_path / "task.json", FOUR_GROUP_TASK)


@pytest.fixture
def not_utf8_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    return str(path)


class TestRerankCommand:
    def test_greedy_four_group_trace(self, task_file):
        result = run_cli("rerank", "--input", task_file, "--algorithm", "detgreedy")
        assert result.returncode == 0
        rows = json.loads(result.stdout)
        assert [r["attribute"] for r in rows] == ["a4", "a3", "a2", "a1"]
        assert [r["position"] for r in rows] == [1, 2, 3, 4]
        assert rows[0] == {"position": 1, "attribute": "a4", "score": 0.4}

    def test_vanilla_is_score_sorted(self, task_file):
        result = run_cli("rerank", "--input", task_file, "--algorithm", "vanilla")
        scores = [r["score"] for r in json.loads(result.stdout)]
        assert scores == sorted(scores, reverse=True)

    def test_output_file(self, task_file, tmp_path):
        out = tmp_path / "ranked.json"
        result = run_cli(
            "rerank", "--input", task_file, "--algorithm", "detgreedy", "--output", str(out)
        )
        assert result.returncode == 0
        assert result.stdout == ""
        assert [r["attribute"] for r in json.loads(out.read_text())] == [
            "a4", "a3", "a2", "a1",
        ]

    def test_missing_input_flag_is_usage_error(self):
        result = run_cli("rerank", "--algorithm", "vanilla")
        assert result.returncode == 2
        assert "usage" in result.stderr.lower()

    def test_unknown_algorithm_rejected(self, task_file):
        result = run_cli("rerank", "--input", task_file, "--algorithm", "bogosort")
        assert result.returncode == 2

    def test_unknown_subcommand_rejected(self):
        assert run_cli("frobnicate").returncode == 2

    def test_malformed_json_diagnostics(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"k": 4,,}')
        result = run_cli("rerank", "--input", str(bad), "--algorithm", "vanilla")
        assert result.returncode == 2
        assert "line" in result.stderr

    def test_missing_file_rejected(self, tmp_path):
        result = run_cli(
            "rerank", "--input", str(tmp_path / "nope.json"), "--algorithm", "vanilla"
        )
        assert result.returncode == 2

    def test_insufficient_candidates_exit_code(self, tmp_path):
        short = dict(FOUR_GROUP_TASK, k=5)
        path = write_json(tmp_path / "short.json", short)
        result = run_cli("rerank", "--input", path, "--algorithm", "vanilla")
        assert result.returncode == 3

    @pytest.mark.parametrize("algo", ["vanilla", "detconstsort"])
    def test_nested_pool_rejected(self, tmp_path, algo):
        # must fail validation (exit 2), not reach a ranker and exit 1 with a traceback
        task = {
            "k": 2,
            "desired": {"a": 0.5, "b": 0.5},
            "pools": {"a": [[0.9], [0.8]], "b": [0.7, 0.1]},
        }
        path = write_json(tmp_path / "nested.json", task)
        assert_one_error_line(run_cli("rerank", "--input", path, "--algorithm", algo))

    @pytest.mark.parametrize("pool", [5, None, "95"])
    def test_scalar_pool_rejected(self, tmp_path, pool):
        task = {"k": 1, "desired": {"a": 0.5, "b": 0.5}, "pools": {"a": pool, "b": [0.7]}}
        path = write_json(tmp_path / "scalar.json", task)
        assert_one_error_line(run_cli("rerank", "--input", path, "--algorithm", "vanilla"))

    @pytest.mark.parametrize(
        "desired, pools",
        [
            ({"a": "0.5", "b": "0.5"}, {"a": ["0.9"], "b": ["0.8"]}),
            ({"a": True, "b": False}, {"a": [0.9], "b": [0.8]}),
        ],
        ids=["numeric-strings", "bools"],
    )
    def test_bools_and_numeric_strings_rejected(self, tmp_path, desired, pools):
        # both used to rank with exit 0
        path = write_json(tmp_path / "typed.json", {"k": 1, "desired": desired, "pools": pools})
        assert_one_error_line(run_cli("rerank", "--input", path, "--algorithm", "detgreedy"))

    def test_input_that_is_not_utf8_rejected(self, not_utf8_file):
        assert_one_error_line(
            run_cli("rerank", "--input", not_utf8_file, "--algorithm", "vanilla")
        )

    def test_exhaustion_exit_code_and_fallback(self, task_file):
        result = run_cli("rerank", "--input", task_file, "--algorithm", "detcons")
        assert result.returncode == 3
        rescued = run_cli(
            "rerank", "--input", task_file, "--algorithm", "detcons", "--fallback"
        )
        assert rescued.returncode == 0
        assert "fallback" in rescued.stderr
        assert len(json.loads(rescued.stdout)) == 4


PINNED_TASK = {
    "k": 6,
    "desired": {"x": 0.5, "y": 0.3, "z": 0.2},
    "pools": {"x": [0.30000000000000004, 1e-07, 0.0], "y": [2.5, 0.1], "z": [123456789.125, 3.0]},
}

PINNED_ROWS = [
    (1, "y", 2.5), (2, "x", 0.30000000000000004), (3, "z", 123456789.125),
    (4, "x", 1e-07), (5, "y", 0.1), (6, "x", 0.0),
]


class TestRecords:
    """rerank's rows and JSON bytes on one fixed task, whatever builds them."""

    def test_rows_are_plain_python_values(self):
        ranked = rank(task_from_dict(PINNED_TASK), "detconstsort")
        records = ranked.to_records()
        assert records == [
            {"position": i, "attribute": a, "score": s} for i, a, s in PINNED_ROWS
        ]
        # numpy scalars compare equal to these, so check the types themselves
        assert {(type(r["position"]), type(r["attribute"]), type(r["score"])) for r in records} == {
            (int, str, float)
        }

    def test_cli_bytes(self, tmp_path):
        path = write_json(tmp_path / "task.json", PINNED_TASK)
        out = tmp_path / "out.json"
        args = ["rerank", "--input", path, "--algorithm", "detconstsort", "--output", str(out)]
        assert main(args) == 0
        rows = ",\n".join(
            f'  {{\n    "position": {i},\n    "attribute": "{a}",\n    "score": {s!r}\n  }}'
            for i, a, s in PINNED_ROWS
        )
        assert out.read_text() == "[\n" + rows + "\n]\n"


# labels that json escapes, and scores at the edges of float repr
ODD_LABELS = ('quo"te', "back\\slash", "caf\u00e9 \u2713 \u65e5\u672c", "bell\x07\ttab")
ODD_POOLS = [[1e16, 5e-324], [1.0, 0.0], [0.1], [1e-300]]


def dumped(ranked):
    return json.dumps(ranked.to_records(), indent=2) + "\n"


class TestRankedJsonWriter:
    """fairrank rerank writes the bytes of json.dumps(records, indent=2) without calling it."""

    def test_writer_matches_json_dumps(self):
        scores = sorted(sum(ODD_POOLS, []), reverse=True)
        attrs = [0, 1, 2, 3, 1, 0]
        for labels in (ODD_LABELS, ("a", "b", "c", "d")):
            ranked = RankedList(labels, np.array(attrs), np.array(scores))
            assert _ranked_json(ranked) == dumped(ranked)
        empty = RankedList(("a",), np.array([], dtype=np.int64), np.array([]))
        assert _ranked_json(empty) == dumped(empty) == "[]\n"

    @pytest.mark.parametrize("algorithm", ["vanilla", "detconstsort"])
    def test_cli_output_matches_json_dumps(self, tmp_path, algorithm):
        task = {
            "k": 6,
            "desired": {label: 0.25 for label in ODD_LABELS},
            "pools": dict(zip(ODD_LABELS, ODD_POOLS)),
        }
        path = write_json(tmp_path / "task.json", task)
        out = tmp_path / "out.json"
        args = ["rerank", "--input", path, "--algorithm", algorithm, "--output", str(out)]
        assert main(args) == 0
        assert out.read_text() == dumped(rank(task_from_dict(task), algorithm))


class TestMeasureCommand:
    def measure(self, tmp_path, records, desired, *extra):
        ranked = write_json(tmp_path / "ranked.json", records)
        desired_path = write_json(tmp_path / "desired.json", desired)
        return run_cli("measure", "--input", ranked, "--desired", desired_path, *extra)

    def test_round_trip_from_rerank(self, task_file, tmp_path):
        ranked = run_cli("rerank", "--input", task_file, "--algorithm", "detgreedy")
        path = tmp_path / "ranked.json"
        path.write_text(ranked.stdout)
        desired_path = write_json(tmp_path / "desired.json", FOUR_GROUP_TASK["desired"])
        result = run_cli("measure", "--input", str(path), "--desired", desired_path)
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["infeasible_index"] == 1
        assert report["feasible"] is False
        assert report["k"] == 4

    def test_perfect_list_reports_zero_bias(self, tmp_path):
        # every prefix must match the desired distribution for ndkl to hit 0,
        # which only a single-attribute list does
        records = [
            {"position": i + 1, "attribute": "a", "score": 1.0 - i / 10}
            for i in range(4)
        ]
        result = self.measure(tmp_path, records, {"a": 1.0})
        report = json.loads(result.stdout)
        assert report["min_skew"] == 0.0
        assert report["max_skew"] == 0.0
        assert report["ndkl"] == 0.0
        assert report["feasible"] is True

    def test_alternating_list_keeps_prefix_bias(self, tmp_path):
        records = [
            {"position": i + 1, "attribute": a, "score": 1.0 - i / 10}
            for i, a in enumerate(["a", "b", "a", "b"])
        ]
        result = self.measure(tmp_path, records, {"a": 0.5, "b": 0.5})
        report = json.loads(result.stdout)
        assert report["min_skew"] == 0.0 and report["max_skew"] == 0.0
        assert report["ndkl"] > 0.0
        assert report["feasible"] is True

    def test_vanilla_with_task_ideal_is_one(self, task_file, tmp_path):
        ranked = run_cli("rerank", "--input", task_file, "--algorithm", "vanilla")
        path = tmp_path / "ranked.json"
        path.write_text(ranked.stdout)
        desired_path = write_json(tmp_path / "desired.json", FOUR_GROUP_TASK["desired"])
        result = run_cli(
            "measure", "--input", str(path), "--desired", desired_path, "--task", task_file
        )
        assert json.loads(result.stdout)["ndcg"] == 1.0

    @pytest.mark.parametrize("algorithm", ["vanilla", "detcons"])
    def test_task_ideal_on_tied_pools_matches_a_sort_of_the_pools(self, tmp_path, algorithm):
        # ties across pools, zeros of both signs, an empty pool and a dropped label
        obj = {
            "k": 9,
            "desired": {"a": 0.4, "gone": 0.0, "b": 0.3, "c": 0.2, "d": 0.1},
            "pools": {
                "a": [0.5, 0.5, 0.2, 0.0, -0.0], "gone": [0.9],
                "b": [0.5, 0.2, 0.2, -0.0, 0.0], "c": [0.7, 0.5, 0.0], "d": [],
            },
        }
        task_path = write_json(tmp_path / "task.json", obj)
        desired_path = write_json(tmp_path / "desired.json", obj["desired"])
        ranked_path, out = tmp_path / "ranked.json", tmp_path / "report.json"
        rerank = ["rerank", "--input", task_path, "--algorithm", algorithm, "--fallback"]
        assert main([*rerank, "--output", str(ranked_path)]) == 0
        args = ["--input", str(ranked_path), "--desired", desired_path, "--task", task_path]
        assert main(["measure", *args, "--k", "7", "--output", str(out)]) == 0
        task = task_from_dict(obj)
        records = json.loads(ranked_path.read_text())
        ranked = RankedList.from_records(records, task.desired.labels)
        ideal = np.sort(np.concatenate(task.pool.scores))[::-1]
        report = measure(ranked, task.desired, ideal_scores=ideal, k=7)
        assert out.read_text() == json.dumps(report.to_dict(), indent=2) + "\n"

    def test_unknown_attribute_rejected(self, tmp_path):
        records = [{"position": 1, "attribute": "zz", "score": 0.5}]
        result = self.measure(tmp_path, records, {"a": 0.5, "b": 0.5})
        assert result.returncode == 2

    def test_unnormalized_desired_rejected(self, tmp_path):
        records = [{"position": 1, "attribute": "a", "score": 0.5}]
        assert self.measure(tmp_path, records, {"a": 0.7, "b": 0.7}).returncode == 2

    def test_subnormal_desired_rejected(self, tmp_path):
        # used to exit 0 and write NaN and Infinity, which are not JSON
        records = [{"position": i, "attribute": "a", "score": 0.5} for i in (1, 2)]
        assert_one_error_line(self.measure(tmp_path, records, {"a": 1.0, "b": 5e-324}))

    def test_negative_score_rejected(self, tmp_path):
        records = [
            {"position": 1, "attribute": "a", "score": 0.5},
            {"position": 2, "attribute": "b", "score": -0.5},
        ]
        result = self.measure(tmp_path, records, {"a": 0.5, "b": 0.5})
        assert result.returncode == 2
        assert result.stdout == ""

    @pytest.mark.parametrize(
        "records",
        [
            [{"position": 1, "attribute": ["a"], "score": 1}],
            [
                {"position": "x", "attribute": "a", "score": 0.9},
                {"position": 1, "attribute": "b", "score": 0.8},
            ],
            # json reads NaN; this used to measure as a, a, b with exit 0
            [
                {"position": float("nan"), "attribute": "a", "score": 0.9},
                {"position": 2, "attribute": "b", "score": 0.8},
                {"position": 1, "attribute": "a", "score": 0.7},
            ],
            # both rows used to be kept, with exit 0
            [
                {"position": 1, "attribute": "a", "score": 0.9},
                {"position": 1, "attribute": "b", "score": 0.8},
            ],
            # float() used to read both scores as numbers, with exit 0
            [{"position": 1, "attribute": "a", "score": "0.5"}],
            [{"position": 1, "attribute": "a", "score": True}],
            # float() raised OverflowError, a traceback with exit 1
            [{"position": 1, "attribute": "a", "score": 10**400}],
        ],
        ids=["unhashable-label", "unorderable-positions", "nan-position", "duplicate-positions",
             "string-score", "bool-score", "integer-score-beyond-float"],
    )
    def test_malformed_rows_rejected(self, tmp_path, records):
        # none may escape as a TypeError traceback (exit 1) or be measured
        assert_one_error_line(self.measure(tmp_path, records, {"a": 0.5, "b": 0.5}))

    @pytest.mark.parametrize("flag", ["--input", "--desired", "--task"])
    def test_input_that_is_not_utf8_rejected(self, task_file, tmp_path, not_utf8_file, flag):
        files = {
            "--input": write_json(tmp_path / "ranked.json", [{"attribute": "a1", "score": 0.1}]),
            "--desired": write_json(tmp_path / "desired.json", FOUR_GROUP_TASK["desired"]),
            "--task": task_file,
        }
        files[flag] = not_utf8_file
        assert_one_error_line(run_cli("measure", *[x for kv in files.items() for x in kv]))

    def test_depth_flag_out_of_range_rejected(self, tmp_path):
        records = [{"position": 1, "attribute": "a", "score": 0.5}]
        result = self.measure(tmp_path, records, {"a": 1.0}, "--k", "9")
        assert result.returncode == 2


class TestSimulateCommand:
    def simulate(self, out, *extra):
        return run_cli(
            "simulate",
            "--attr-min", "2",
            "--attr-max", "2",
            "--num-distributions", "8",
            "--pool-size", "15",
            "--k", "15",
            "--seed", "42",
            "--output", str(out),
            *extra,
        )

    def test_csv_written_with_summary(self, tmp_path):
        out = tmp_path / "grid.csv"
        result = self.simulate(out)
        assert result.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("num_attr,algorithm,")
        assert len(lines) == 6
        assert "num_attr=2" in result.stderr

    def test_seeded_runs_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self.simulate(a)
        self.simulate(b)
        assert a.read_bytes() == b.read_bytes()

    def test_jobs_do_not_change_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self.simulate(a, "--jobs", "1")
        self.simulate(b, "--jobs", "2")
        assert a.read_bytes() == b.read_bytes()

    def test_algorithm_subset_comma_list(self, tmp_path):
        out = tmp_path / "grid.csv"
        result = self.simulate(out, "--algorithms", "detconstsort,vanilla")
        assert result.returncode == 0
        lines = out.read_text().splitlines()
        assert [line.split(",")[1] for line in lines[1:]] == ["vanilla", "detconstsort"]

    def test_unknown_algorithm_in_list_rejected(self, tmp_path):
        result = self.simulate(tmp_path / "grid.csv", "--algorithms", "vanilla,bogosort")
        assert result.returncode == 2

    def test_invalid_config_rejected(self, tmp_path):
        result = run_cli(
            "simulate", "--attr-min", "1", "--output", str(tmp_path / "x.csv")
        )
        assert result.returncode == 2

    def test_sidecar_removed_when_a_rerun_excludes_nothing(self, tmp_path):
        out = tmp_path / "grid.csv"
        sidecar = tmp_path / "grid.csv.diagnostics.csv"
        assert self.simulate(out, "--pool-size", "2", "--k", "4").returncode == 0
        assert len(sidecar.read_text().splitlines()) > 1
        result = self.simulate(out, "--pool-size", "50")
        assert result.returncode == 0
        assert not sidecar.exists()
        assert "excluded" not in result.stderr


class TestSharedParser:
    """main parses every argv with one parser, built once per process."""

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_in_process_runs_after_errors_match_a_fresh_process(self, task_file, tmp_path):
        args = ["rerank", "--input", task_file, "--algorithm", "detcons", "--fallback"]
        fresh = tmp_path / "fresh.json"
        assert run_cli(*args, "--output", str(fresh)).returncode == 0
        with pytest.raises(SystemExit) as usage:
            main(["rerank", "--algorithm", "bogosort"])
        assert usage.value.code == 2
        bad = write_json(tmp_path / "bad_task.json", dict(FOUR_GROUP_TASK, k=0))
        assert main(["rerank", "--input", bad, "--algorithm", "vanilla"]) == 2
        out = tmp_path / "in_process.json"
        assert main([*args, "--output", str(out)]) == 0
        assert out.read_bytes() == fresh.read_bytes()
