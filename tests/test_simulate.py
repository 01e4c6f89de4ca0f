import subprocess
import sys

import numpy as np
import pytest

import fairrank as fr
from conftest import make_task, spawn_rng
from fairrank import simulate
from fairrank.simulate import CSV_HEADER


class TestGenerators:
    def test_desired_is_normalized_and_positive(self):
        d = fr.gen_desired(5, spawn_rng(42, 5, 0))
        assert len(d.labels) == 5
        assert d.labels == ("a1", "a2", "a3", "a4", "a5")
        assert np.all(d.proportions > 0)
        assert abs(d.proportions.sum() - 1.0) < 1e-9

    def test_desired_reproducible(self):
        a = fr.gen_desired(4, spawn_rng(42, 4, 7))
        b = fr.gen_desired(4, spawn_rng(42, 4, 7))
        assert a.proportions.tobytes() == b.proportions.tobytes()

    def test_desired_streams_differ(self):
        a = fr.gen_desired(4, spawn_rng(42, 4, 0))
        b = fr.gen_desired(4, spawn_rng(42, 4, 1))
        assert a.proportions.tolist() != b.proportions.tolist()

    def test_pool_shape_and_order(self):
        pool = fr.gen_pool(3, 100, spawn_rng(42, 3, 0, 0))
        assert pool.total() == 300
        for scores in pool.scores:
            assert scores.size == 100
            assert np.all(scores > 0) and np.all(scores < 1)
            assert np.all(np.diff(scores) <= 0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda rng: fr.gen_desired(1.5, rng),
            lambda rng: fr.gen_desired(0, rng),
            lambda rng: fr.gen_desired(True, rng),
            lambda rng: fr.gen_desired("3", rng),
            lambda rng: fr.gen_pool(2, -1, rng),
            lambda rng: fr.gen_pool(2, 2.0, rng),
            lambda rng: fr.gen_pool(2, False, rng),
            lambda rng: fr.gen_pool(0, 5, rng),
            lambda rng: fr.gen_pool(None, 5, rng),
        ],
        ids=["desired-float", "desired-zero", "desired-bool", "desired-str", "pool-negative",
             "pool-float", "pool-bool", "pool-no-attributes", "pool-none"],
    )
    def test_malformed_sizes_rejected(self, call):
        # gen_desired(1.5, rng) used to raise numpy's TypeError, gen_pool(2, -1, rng) ValueError
        with pytest.raises(fr.InvalidConfig):
            call(spawn_rng(42, 2, 0))

    def test_empty_pools_allowed(self):
        pool = fr.gen_pool(2, np.int64(0), spawn_rng(42, 2, 0, 0))
        assert pool.total() == 0 and len(pool.scores) == 2

    @pytest.mark.parametrize("num_attr, size", [(1, 5), (3, 100), (10, 37), (2, 0)])
    def test_pool_rows_are_read_only_and_match_per_row_copies(self, num_attr, size):
        pool = fr.gen_pool(num_attr, size, spawn_rng(8, num_attr, size))
        # the same draw, with one sorted copy per row
        rng = spawn_rng(8, num_attr, size)
        s = rng.random((num_attr, size))
        while not np.all(s > 0):
            s = rng.random((num_attr, size))
        want = [row.copy() for row in np.sort(s, axis=1)[:, ::-1]]
        assert [x.tobytes() for x in pool.scores] == [x.tobytes() for x in want]
        assert not any(x.flags.writeable for x in pool.scores)
        assert pool.labels == tuple(f"a{i + 1}" for i in range(num_attr))
        assert pool.labels is simulate.attribute_labels(num_attr)

    def test_pool_reproducible(self):
        a = fr.gen_pool(3, 10, spawn_rng(1, 3, 2, 0))
        b = fr.gen_pool(3, 10, spawn_rng(1, 3, 2, 0))
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a.scores, b.scores))


# algorithms values that are not a list of names or Algorithms
NOT_A_LIST = pytest.mark.parametrize(
    "algorithms", ["vanilla", fr.Algorithm.VANILLA, None, 3],
    ids=["bare-name", "bare-algorithm", "none", "int"],
)


class TestRunTask:
    def task(self, num_attr=3, seed=5):
        return fr.RankingTask(
            desired=fr.gen_desired(num_attr, spawn_rng(seed, num_attr, 0)),
            pool=fr.gen_pool(num_attr, 50, spawn_rng(seed, num_attr, 0, 0)),
            k_max=50,
        )

    @staticmethod
    def measured_row(task, algo, fallback=False):
        # the (6,) row run_task must produce, in CSV order, from measure
        ideal = np.sort(np.concatenate(task.pool.scores))[::-1]
        ranked = fr.rank(task, algo, fallback=fallback)
        r = fr.measure(ranked, task.desired, ideal_scores=ideal, k=task.k_max)
        return [r.infeasible_index, r.infeasible_count, r.min_skew, r.max_skew, r.ndkl, r.ndcg]

    def test_rows_equal_measure(self):
        task = self.task(4, seed=3)
        outcome = fr.run_task(task, list(fr.Algorithm))
        assert list(outcome.rows) == list(fr.Algorithm)
        for algo, row in outcome.rows.items():
            assert row.dtype == np.float64 and row.shape == (6,)
            assert row.tolist() == self.measured_row(task, algo)

    def test_vanilla_ndcg_exactly_one(self):
        outcome = fr.run_task(self.task(), ["vanilla"])
        assert outcome.rows[fr.Algorithm.VANILLA][5] == 1.0

    def test_interval_sort_always_feasible(self):
        outcome = fr.run_task(self.task(7, seed=9), ["detconstsort"])
        assert outcome.rows[fr.Algorithm.DET_CONST_SORT][0] == 0

    def test_two_groups_greedy_feasible(self):
        outcome = fr.run_task(self.task(2, seed=11), ["detgreedy"])
        assert outcome.rows[fr.Algorithm.DET_GREEDY][0] == 0

    def test_failures_recorded_per_cell(self):
        starved = make_task(
            {"a1": 0.4, "a2": 0.4, "a3": 0.1, "a4": 0.1},
            {"a1": [0.1], "a2": [0.2], "a3": [0.3], "a4": [0.4]},
            4,
        )
        outcome = fr.run_task(starved, ["vanilla", "detgreedy", "detcons"])
        assert list(outcome.rows) == [fr.Algorithm.VANILLA, fr.Algorithm.DET_GREEDY]
        for algo, row in outcome.rows.items():
            assert row.tolist() == self.measured_row(starved, algo)
        assert outcome.failures == {fr.Algorithm.DET_CONS: "InsufficientCandidates"}

    @pytest.mark.parametrize("seed", range(6))
    def test_rows_equal_measure_on_tied_pools(self, seed):
        # ndcg against np.sort of the concatenated pools, reversed, and ties everywhere
        rng = np.random.default_rng(seed)
        pools = {
            a: sorted(np.round(rng.random(20), 1).tolist() + [0.0, -0.0], reverse=True)
            for a in ("a", "b", "c")
        }
        pools["d"] = []
        task = make_task({"a": 0.5, "b": 0.25, "x": 0.0, "c": 0.15, "d": 0.1}, pools, 40)
        outcome = fr.run_task(task, list(fr.Algorithm), fallback=True)
        assert outcome.rows
        for algo, row in outcome.rows.items():
            assert row.tolist() == self.measured_row(task, algo, fallback=True)

    @NOT_A_LIST
    def test_algorithms_must_be_a_list(self, algorithms):
        # "vanilla" used to fail as "unknown algorithm 'v'", None and 3 as a bare TypeError
        with pytest.raises(fr.ValidationError, match="algorithms must be a list"):
            fr.run_task(self.task(), algorithms)


class TestConfig:
    def test_defaults_are_canonical(self):
        config = fr.SimulationConfig()
        assert config.algorithms == tuple(fr.Algorithm)
        assert config.attr_min == 2 and config.attr_max == 10

    def test_algorithms_deduped_and_ordered(self):
        config = fr.SimulationConfig(
            algorithms=("detconstsort", "vanilla", "detconstsort")
        )
        assert config.algorithms == (fr.Algorithm.VANILLA, fr.Algorithm.DET_CONST_SORT)

    def test_bad_configs_rejected(self):
        with pytest.raises(fr.InvalidConfig):
            fr.SimulationConfig(attr_min=1)
        with pytest.raises(fr.InvalidConfig):
            fr.SimulationConfig(attr_min=5, attr_max=4)
        with pytest.raises(fr.InvalidConfig):
            fr.SimulationConfig(num_distributions=0)
        with pytest.raises(fr.InvalidConfig):
            fr.SimulationConfig(seed=-1)
        with pytest.raises(fr.InvalidConfig):
            fr.SimulationConfig(pool_size=10, k_max=100)
        with pytest.raises(fr.InvalidConfig):
            fr.SimulationConfig(algorithms=())
        with pytest.raises(fr.UnknownAlgorithm):
            fr.SimulationConfig(algorithms=("bogosort",))

    @NOT_A_LIST
    def test_algorithms_must_be_a_list(self, algorithms):
        with pytest.raises(fr.InvalidConfig, match="algorithms must be a list"):
            fr.SimulationConfig(algorithms=algorithms)

    @pytest.mark.parametrize(
        "field, value",
        [("attr_min", "2"), ("attr_max", 4.0), ("num_distributions", 1.5),
         ("replications", None), ("pool_size", True), ("k_max", 10.5), ("seed", "42")],
    )
    def test_non_integer_fields_rejected(self, field, value):
        # attr_min="2" must not raise TypeError, nor num_distributions=1.5 pass
        with pytest.raises(fr.InvalidConfig, match=field):
            fr.SimulationConfig(**{field: value})

    def test_numpy_integer_fields_accepted(self):
        assert fr.SimulationConfig(attr_max=np.int64(4)).attr_max == 4


SMALL = dict(
    attr_min=2,
    attr_max=3,
    num_distributions=20,
    replications=1,
    pool_size=30,
    k_max=30,
    seed=42,
)


class TestRunGrid:
    def test_row_shape_and_order(self):
        config = fr.SimulationConfig(**SMALL)
        rows = fr.run_grid(config)
        assert len(rows) == 2 * len(fr.Algorithm)
        assert [(r.num_attr, r.algorithm) for r in rows] == [
            (n, a) for n in (2, 3) for a in fr.Algorithm
        ]
        for row in rows:
            assert row.task_count == 20
            assert row.mean_min_skew <= 0.0 <= row.mean_max_skew
            assert row.mean_ndkl >= 0.0
        by_algo = {(r.num_attr, r.algorithm): r for r in rows}
        assert by_algo[(2, fr.Algorithm.VANILLA)].mean_ndcg == 1.0
        assert by_algo[(3, fr.Algorithm.DET_CONST_SORT)].mean_infeasible_index == 0.0

    def test_grid_reproducible(self):
        config = fr.SimulationConfig(**SMALL)
        assert fr.run_grid(config) == fr.run_grid(config)

    def test_parallel_matches_serial_exactly(self):
        config = fr.SimulationConfig(**SMALL)
        assert fr.run_grid(config, jobs=1) == fr.run_grid(config, jobs=2)

    def test_import_leaves_the_process_pool_unloaded(self):
        # a serial run never needs multiprocessing; run_grid imports it for jobs > 1
        code = (
            "import sys, fairrank, fairrank.cli; "
            "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_bad_jobs_rejected(self):
        # "2" must not raise TypeError
        for jobs in (0, "2", 1.5, None):
            with pytest.raises(fr.InvalidConfig):
                fr.run_grid(fr.SimulationConfig(**SMALL), jobs=jobs)

    def test_rows_independent_of_chunk_size(self, monkeypatch):
        config = fr.SimulationConfig(
            attr_min=2, attr_max=4, num_distributions=150, pool_size=30, k_max=30, seed=42
        )
        by_chunk = {}
        for chunk in (1, 7, 64, 1000):
            monkeypatch.setattr(simulate, "_CHUNK", chunk)
            by_chunk[chunk] = fr.run_grid(config)
        for chunk in (1, 7, 1000):
            differing = [
                (a.num_attr, a.algorithm.value)
                for a, b in zip(by_chunk[64], by_chunk[chunk])
                if a != b
            ]
            assert not differing, f"chunk {chunk} changed rows {differing}"

    @pytest.mark.parametrize("chunk", [1, 7])
    @pytest.mark.parametrize(
        "sizes", [dict(pool_size=30, k_max=30), dict(pool_size=20, k_max=40)],
        ids=["fed", "starved"],
    )
    def test_cell_means_equal_np_mean_of_task_rows(self, monkeypatch, chunk, sizes):
        config = fr.SimulationConfig(attr_min=2, attr_max=4, num_distributions=10, seed=9, **sizes)
        monkeypatch.setattr(simulate, "_CHUNK", chunk)
        rows = fr.run_grid(config)
        # the grid's tasks, rebuilt with its documented stream keys, one task at a time
        tables = {}
        for n in range(2, 5):
            for d in range(10):
                desired = fr.gen_desired(n, spawn_rng(9, n, d))
                pool = fr.gen_pool(n, config.pool_size, spawn_rng(9, n, d, 0))
                task = fr.RankingTask(desired=desired, pool=pool, k_max=config.k_max)
                for algo, row in fr.run_task(task, list(fr.Algorithm)).rows.items():
                    tables.setdefault((n, algo), []).append(row)
        assert [(r.num_attr, r.algorithm) for r in rows] == [
            (n, a) for n in range(2, 5) for a in fr.Algorithm
        ]
        for r in rows:
            table = np.array(tables.get((r.num_attr, r.algorithm), []))
            means = [r.mean_infeasible_index, r.mean_infeasible_count, r.mean_min_skew,
                     r.mean_max_skew, r.mean_ndkl, r.mean_ndcg]
            assert r.task_count == len(table)
            want = np.mean(table, axis=0).tolist() if len(table) else [0.0] * 6
            assert means == want, (r.num_attr, r.algorithm)
        if config.pool_size == 20:
            # two pools of 20 cannot meet the floors of an uneven 2-value mix at k = 40,
            # so those cells are all-failed and read zeros (checked above)
            assert {r.num_attr for r in rows if r.task_count == 0} == {2}

    def test_workers_capped_at_work_units(self, monkeypatch):
        opened = []

        class SerialExecutor:
            def __init__(self, max_workers):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        # run_grid imports the pool class when it needs one, so patch it at its source
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialExecutor)
        # two sizes of one chunk each: two work units
        config = fr.SimulationConfig(**{**SMALL, "num_distributions": 4})
        assert fr.run_grid(config, jobs=5000) == fr.run_grid(config)
        assert opened == [2]
        # a single work unit runs in this process
        single = fr.SimulationConfig(**{**SMALL, "attr_max": 2, "num_distributions": 1})
        fr.run_grid(single, jobs=5000)
        assert opened == [2]

    def test_replications_extend_pool_stream_only(self):
        base = fr.SimulationConfig(**{**SMALL, "attr_max": 2, "num_distributions": 5})
        doubled = fr.SimulationConfig(
            **{**SMALL, "attr_max": 2, "num_distributions": 5, "replications": 2}
        )
        rows_base = fr.run_grid(base)
        rows_doubled = fr.run_grid(doubled)
        for a, b in zip(rows_base, rows_doubled):
            assert b.task_count == 2 * a.task_count


class TestCsv:
    def rows(self):
        config = fr.SimulationConfig(
            **{**SMALL, "attr_max": 2, "num_distributions": 4}
        )
        return fr.run_grid(config)

    def test_header_and_format(self, tmp_path):
        path = tmp_path / "out.csv"
        fr.write_csv(self.rows(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(fr.Algorithm)
        first = lines[1].split(",")
        assert first[0] == "2" and first[1] == "vanilla"
        for cell in first[2:8]:
            assert len(cell.split(".")[1]) == 6
        assert first[8] == "4"

    def test_sorted_regardless_of_input_order(self, tmp_path):
        rows = self.rows()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        fr.write_csv(rows, a)
        fr.write_csv(list(reversed(rows)), b)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(fr.EmptyResult):
            fr.write_csv([], tmp_path / "never.csv")

    def test_empty_iterator_rejected_and_writes_nothing(self, tmp_path):
        path = tmp_path / "never.csv"
        for empty in ([], iter([]), (r for r in ())):
            with pytest.raises(fr.EmptyResult):
                fr.write_csv(empty, path)
            assert not path.exists()

    def test_iterator_writes_the_bytes_of_a_list(self, tmp_path):
        rows = self.rows()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        fr.write_csv(rows, a)
        fr.write_csv(iter(rows), b)
        assert a.read_bytes() == b.read_bytes()


class TestDiagnostics:
    def test_silent_when_all_tasks_counted(self, tmp_path):
        config = fr.SimulationConfig(**{**SMALL, "attr_max": 2, "num_distributions": 4})
        rows = fr.run_grid(config)
        path = tmp_path / "diag.csv"
        assert fr.write_diagnostics(rows, config, path) == 0
        assert not path.exists()

    def test_reports_excluded_cells(self, tmp_path):
        # pool 10 against k 20: any draw with a proportion much above 0.5
        # exhausts one pool, so constrained algorithms drop tasks
        config = fr.SimulationConfig(
            attr_min=2,
            attr_max=2,
            num_distributions=12,
            pool_size=10,
            k_max=20,
            seed=3,
        )
        rows = fr.run_grid(config)
        by_algo = {r.algorithm: r for r in rows}
        assert by_algo[fr.Algorithm.VANILLA].task_count == 12
        assert by_algo[fr.Algorithm.DET_GREEDY].task_count < 12
        path = tmp_path / "diag.csv"
        flagged = fr.write_diagnostics(rows, config, path)
        assert flagged >= 1
        lines = path.read_text().splitlines()
        assert lines[0] == "num_attr,algorithm,excluded_tasks,task_count,expected"
        assert len(lines) == 1 + flagged
