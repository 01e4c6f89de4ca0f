import copy
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairrank as fr
from conftest import make_ranked, make_task
from fairrank.model import _as_float_array


class TestEmpiricalDistribution:
    def test_two_group_proportions(self):
        d = fr.empirical_distribution({"male": 32000, "female": 48000})
        assert d.labels == ("male", "female")
        assert d.as_mapping() == pytest.approx({"male": 0.4, "female": 0.6})

    def test_single_attribute(self):
        d = fr.empirical_distribution({"a": 5})
        assert d.as_mapping() == {"a": 1.0}

    def test_exact_division(self):
        d = fr.empirical_distribution({"a": 1, "b": 1, "c": 2})
        assert d.as_mapping() == {"a": 0.25, "b": 0.25, "c": 0.5}

    def test_zero_total_rejected(self):
        with pytest.raises(fr.AllZeroCounts):
            fr.empirical_distribution({"a": 0, "b": 0})
        with pytest.raises(fr.AllZeroCounts):
            fr.empirical_distribution({})

    def test_negative_count_rejected(self):
        with pytest.raises(fr.ValidationError):
            fr.empirical_distribution({"a": -1, "b": 2})

    def test_counts_whose_total_overflows_rejected_without_warning(self):
        # the total used to overflow with a RuntimeWarning, then fail as "sum to 0"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(fr.ValidationError, match="overflow"):
                fr.empirical_distribution({"a": 1.7e308, "b": 1.7e308})

    def test_count_that_normalizes_to_a_subnormal_rejected(self):
        # 1e-320 / 1.0 is subnormal: measure gave ndkl NaN and max_skew inf
        with pytest.raises(fr.DistributionNotNormalized):
            fr.empirical_distribution({"a": 1.0, "b": 1e-320})

    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=3),
            st.integers(0, 10_000),
            min_size=1,
            max_size=8,
        ).filter(lambda d: sum(d.values()) > 0),
        st.integers(1, 1000),
    )
    def test_valid_and_scale_invariant(self, counts, factor):
        d = fr.empirical_distribution(counts)
        # the result passes the constructor's checks when rebuilt from its parts
        rebuilt = fr.DesiredDistribution(labels=d.labels, proportions=d.proportions)
        assert rebuilt.proportions.tolist() == d.proportions.tolist()
        scaled = fr.empirical_distribution({a: c * factor for a, c in counts.items()})
        assert np.allclose(d.proportions, scaled.proportions, atol=1e-12)


class TestDesiredDistribution:
    @pytest.mark.parametrize(
        "proportions, error",
        [
            ([0.5], fr.ValidationError),  # used to broadcast: ndkl 0.2816
            ([float("nan"), 0.5], fr.DistributionNotNormalized),  # NaN min/max skew, ndkl
            ([0.2, 0.2], fr.DistributionNotNormalized),  # used to be measured as if normalized
            ([1.5, -0.5], fr.DistributionNotNormalized),  # infeasible prefixes [2, 3, 4]
            ([0.5, 0.3, 0.2], fr.ValidationError),  # used to raise a bare numpy ValueError
            ([[0.5], [0.5]], fr.ValidationError),
            (["x", "y"], fr.ValidationError),
            ([True, False], fr.ValidationError),  # used to read as [1.0, 0.0]
            (["0.5", "0.5"], fr.ValidationError),  # used to read as [0.5, 0.5]
            ([1.0, 5e-324], fr.DistributionNotNormalized),  # used to give ndkl NaN, max_skew inf
            ([1.0, 1e-310], fr.DistributionNotNormalized),  # subnormal, though its skew is finite
            ([1e308, 1e308], fr.DistributionNotNormalized),  # its sum overflowed with a warning
        ],
        ids=["short", "nan", "unnormalized", "negative", "long", "2-D", "non-numeric", "bool",
             "numeric-string", "least-subnormal", "subnormal", "huge"],
    )
    def test_malformed_proportions_rejected_at_construction(self, proportions, error):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                fr.DesiredDistribution(labels=("a", "b"), proportions=proportions)

    @pytest.mark.parametrize(
        "labels, proportions", [((), []), (("a", "a"), [0.5, 0.5])], ids=["empty", "duplicate"]
    )
    def test_empty_or_duplicate_labels_rejected(self, labels, proportions):
        with pytest.raises(fr.ValidationError):
            fr.DesiredDistribution(labels=labels, proportions=proportions)

    @pytest.mark.parametrize(
        "labels", [(["a"],), (None,), (1, 2), ("a", 2)], ids=["unhashable", "none", "int", "mixed"]
    )
    def test_non_string_labels_rejected(self, labels):
        # an int label would be ambiguous: skew_at_k reads any int as an index
        with pytest.raises(fr.ValidationError):
            fr.DesiredDistribution(labels=labels, proportions=[1 / len(labels)] * len(labels))

    @pytest.mark.parametrize("small", [float(np.finfo(np.float64).tiny), 0.0])
    def test_least_normal_and_zero_proportions_accepted(self, small):
        d = fr.DesiredDistribution(labels=("a", "b"), proportions=[1.0, small])
        assert d.proportions.tolist() == [1.0, small]
        if small:  # every ratio stays below 1 / tiny, so the skews are finite
            report = fr.measure(make_ranked("aa", ("a", "b")), d)
            assert math.isfinite(report.ndkl) and math.isfinite(report.max_skew)

    def test_malformed_mapping_rejected(self):
        with pytest.raises(fr.DistributionNotNormalized):
            fr.DesiredDistribution.from_mapping({"a": 0.2, "b": 0.2})

    @pytest.mark.parametrize(
        "build",
        [
            lambda: fr.empirical_distribution({"a": -0.0, "b": 1}),
            lambda: fr.DesiredDistribution(("a", "b"), [-0.0, 1.0]),
        ],
        ids=["empirical-distribution", "constructor"],
    )
    def test_negative_zero_stored_as_zero(self, build):
        d = build()
        assert [math.copysign(1.0, p) for p in d.as_mapping().values()] == [1.0, 1.0]
        assert math.copysign(1.0, d.proportions[0]) == 1.0

    def test_stores_tuple_labels_and_frozen_float_copy(self):
        source = np.array([0.25, 0.75])
        d = fr.DesiredDistribution(labels=["a", "b"], proportions=source)
        source[0] = 0.5
        assert d.labels == ("a", "b")
        assert d.proportions.dtype == np.float64
        assert d.proportions.tolist() == [0.25, 0.75]
        assert not d.proportions.flags.writeable


def reference_task(desired, pool, k_max):
    """The RankingTask constructor's pool checks written one pool at a time, as a reference."""
    by_label = dict(zip(pool.labels, pool.scores))
    labels, props, pools = [], [], []
    for a, p in zip(desired.labels, desired.proportions):
        if p == 0:
            continue
        scores = np.asarray(by_label.get(a, ()), dtype=np.float64)
        if scores.ndim != 1:
            raise fr.ValidationError(f"pool for {a!r} must be a flat list of scores")
        if not np.all(np.isfinite(scores)):
            raise fr.ValidationError(f"pool for {a!r} contains non-finite scores")
        if scores.size > 1 and np.any(np.diff(scores) > 0):
            raise fr.PoolNotSorted(f"pool for {a!r} is not sorted by non-increasing score")
        labels.append(a)
        props.append(float(p))
        pools.append(scores.tolist())
    if sum(map(len, pools)) < k_max:
        raise fr.InsufficientCandidates(
            f"pools hold {sum(map(len, pools))} candidates, k_max is {k_max}"
        )
    return tuple(labels), props, pools


def outcome(build, parts):
    """(error class, message), or the built task's labels, proportions and pool scores."""
    try:
        result = build(*parts)
    except fr.FairRankError as exc:
        return type(exc), str(exc)
    if isinstance(result, fr.RankingTask):
        assert result.pool.labels == result.desired.labels
        result = (
            result.desired.labels,
            result.desired.proportions.tolist(),
            [s.tolist() for s in result.pool.scores],
        )
    return result


SCORES = st.sampled_from([1.0, 0.9, 0.5, 0.5, 0.0, -0.0, -1.0, 1e308, -1e308])
BAD_SCORES = st.sampled_from([float("nan"), float("inf"), -float("inf")])


@st.composite
def pool_tasks(draw):
    """(desired, pool, k_max) with missing, empty, unsorted, non-finite or nested pools and
    zero-proportion labels."""
    n = draw(st.integers(1, 5))
    labels = [f"a{i}" for i in range(n)]
    weights = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any))
    pools = {}
    for a in draw(st.permutations(labels)):
        kind = draw(
            st.sampled_from(["missing", "empty", "sorted", "sorted", "any", "bad", "nested"])
        )
        if kind == "missing":
            continue
        scores = [] if kind == "empty" else draw(st.lists(SCORES, min_size=1, max_size=5))
        if kind == "sorted":
            scores.sort(reverse=True)
        if kind == "bad":
            scores.insert(draw(st.integers(0, len(scores))), draw(BAD_SCORES))
        pools[a] = [[x] for x in scores] if kind == "nested" else scores
    return (
        fr.DesiredDistribution.from_mapping({a: w / sum(weights) for a, w in zip(labels, weights)}),
        fr.ScoredPool.from_mapping(pools),
        draw(st.integers(1, 8)),
    )


class TestValidateTask:
    def test_well_formed_task_round_trips(self):
        task = make_task(
            {"a": 0.5, "b": 0.5}, {"a": [0.9, 0.8], "b": [0.7, 0.6]}, 4
        )
        assert task.desired.labels == ("a", "b")
        assert task.pool.labels == ("a", "b")
        assert task.k_max == 4
        assert [s.tolist() for s in task.pool.scores] == [[0.9, 0.8], [0.7, 0.6]]

    def test_unnormalized_desired_rejected(self):
        with pytest.raises(fr.DistributionNotNormalized):
            make_task({"a": 0.49, "b": 0.49}, {"a": [1.0], "b": [1.0]}, 1)

    def test_insufficient_candidates(self):
        with pytest.raises(fr.InsufficientCandidates):
            make_task({"a": 0.5, "b": 0.5}, {"a": [0.9], "b": [0.7, 0.6]}, 4)

    def test_unsorted_pool_rejected_by_default(self):
        with pytest.raises(fr.PoolNotSorted):
            make_task({"a": 1.0}, {"a": [0.1, 0.9]}, 2)

    def test_zero_proportion_attribute_dropped_with_pool(self):
        task = make_task(
            {"a": 0.5, "gone": 0.0, "b": 0.5},
            {"a": [0.9], "gone": [0.99, 0.98], "b": [0.7]},
            2,
        )
        assert task.desired.labels == ("a", "b")
        assert task.pool.labels == ("a", "b")

    def test_checked_distribution_reused_unless_a_label_is_dropped(self):
        pools = fr.ScoredPool.from_mapping({"a": [0.9], "b": [0.7]})
        kept = fr.DesiredDistribution.from_mapping({"a": 0.25, "b": 0.75})
        task = fr.RankingTask(desired=kept, pool=pools, k_max=2)
        assert task.desired is kept
        dropping = fr.DesiredDistribution.from_mapping({"a": 0.25, "gone": 0.0, "b": 0.75})
        task = fr.RankingTask(desired=dropping, pool=pools, k_max=2)
        assert task.desired is not dropping
        assert task.desired.as_mapping() == {"a": 0.25, "b": 0.75}

    def test_missing_pool_becomes_empty(self):
        task = make_task({"a": 0.5, "b": 0.5}, {"a": [0.9, 0.8]}, 2)
        assert task.pool.scores[1].size == 0

    def test_given_pools_are_copied_not_aliased(self):
        # freezing an aliased array would make the caller's own array read-only
        given, listed = np.array([0.9, 0.5]), [0.8, 0.4]
        pool = fr.ScoredPool.from_mapping({"a": given, "b": listed})
        assert given.flags.writeable and listed == [0.8, 0.4]
        assert not any(s.flags.writeable for s in pool.scores)
        given[0], listed[0] = 0.1, 0.2
        assert [s.tolist() for s in pool.scores] == [[0.9, 0.5], [0.8, 0.4]]

    def test_duplicate_labels_of_a_direct_pool_rejected(self):
        # from_mapping cannot repeat a label; a ScoredPool built directly can
        with pytest.raises(fr.ValidationError, match="duplicate"):
            fr.RankingTask(
                desired=fr.DesiredDistribution.from_mapping({"a": 1.0}),
                pool=fr.ScoredPool(labels=("a", "a"), scores=(np.array([0.9]), np.array([0.5]))),
                k_max=1,
            )

    def test_unknown_pool_attribute_rejected(self):
        with pytest.raises(fr.UnknownAttribute):
            make_task({"a": 1.0}, {"a": [0.9], "mystery": [0.5]}, 1)

    def test_non_finite_scores_rejected(self):
        with pytest.raises(fr.ValidationError):
            make_task({"a": 1.0}, {"a": [0.9, float("nan")]}, 1)
        with pytest.raises(fr.ValidationError):
            make_task({"a": 1.0}, {"a": [float("inf")]}, 1)

    @pytest.mark.parametrize("pool", [[[0.9], [0.8]], np.array([[0.9, 0.8]]), np.float64(0.9)])
    def test_pool_that_is_not_flat_rejected(self, pool):
        # a nested pool must fail here, not later in every ranker with a raw
        # TypeError or ValueError
        with pytest.raises(fr.ValidationError, match="flat"):
            fr.RankingTask(
                desired=fr.DesiredDistribution.from_mapping({"a": 0.5, "b": 0.5}),
                pool=fr.ScoredPool(labels=("a", "b"), scores=(pool, np.array([0.7, 0.1]))),
                k_max=2,
            )

    @pytest.mark.parametrize("scores, match", [(["x"], "numeric"), ([None], "numeric")])
    def test_non_numeric_scores_of_a_direct_pool_rejected(self, scores, match):
        # a ScoredPool built directly skips from_mapping's conversion; "x" used
        # to escape task validation as a bare ValueError from np.asarray, and
        # None used to read as NaN
        with pytest.raises(fr.ValidationError, match=match) as info:
            fr.RankingTask(
                desired=fr.DesiredDistribution.from_mapping({"a": 1.0}),
                pool=fr.ScoredPool(labels=("a",), scores=(scores,)),
                k_max=1,
            )
        assert "'a'" in str(info.value)

    def test_bad_k_rejected(self):
        for k in (0, -1, 1.5, "4", True, np.bool_(True), np.int64(0)):
            with pytest.raises(fr.ValidationError):
                make_task({"a": 1.0}, {"a": [0.9]}, k)

    def test_numpy_integer_k_accepted_and_stored_as_int(self):
        task = make_task({"a": 1.0}, {"a": [0.9, 0.8, 0.7]}, np.int64(3))
        assert task.k_max == 3 and type(task.k_max) is int
        assert fr.rank(task, "detcons").scores.tolist() == [0.9, 0.8, 0.7]

    def test_negative_proportion_rejected(self):
        with pytest.raises(fr.DistributionNotNormalized):
            make_task({"a": 1.5, "b": -0.5}, {"a": [0.9], "b": [0.7]}, 1)

    def test_validated_arrays_frozen(self):
        task = make_task({"a": 0.5, "b": 0.5}, {"a": [0.9], "b": [0.7, 0.1]}, 1)
        for scores in task.pool.scores:
            with pytest.raises(ValueError):
                scores[0] = 0.5
        with pytest.raises(ValueError):
            task.desired.proportions[0] = 0.5

    @pytest.mark.parametrize("b", [[0.7, 0.1]])
    def test_pools_are_views_of_one_read_only_array(self, b):
        # one copy with a -inf sentinel after each pool; the views leave it out
        task = make_task({"a": 0.5, "b": 0.5}, {"a": [0.9], "b": b}, 3)
        base = task.pool.scores[0].base
        assert all(s.base is base for s in task.pool.scores)
        assert not base.flags.writeable
        assert base.tolist() == [0.9, -np.inf, 0.7, 0.1, -np.inf]
        assert [s.tolist() for s in task.pool.scores] == [[0.9], [0.7, 0.1]]

    @pytest.mark.parametrize(
        "pools, want",
        [
            ({"a": [0.9], "b": [0.7, 0.1], "c": [0.5]}, [[0.9], [0.7, 0.1], [0.5]]),
            ({"a": [0.9, 0.2], "c": [0.4]}, [[0.9, 0.2], [], [0.4]]),
            ({"b": [], "c": [0.3], "gone": [0.8]}, [[], [], [0.3]]),
        ],
        ids=["full", "missing", "empty"],
    )
    def test_table_pools_read_the_scores_in_place(self, pools, want):
        task = make_task({"a": 0.25, "gone": 0.0, "b": 0.25, "c": 0.5}, pools, 1)
        table = task.table
        assert [view.tolist() for view in table.pools] == [w + [-np.inf] for w in want]
        for view, scores in zip(table.pools, task.pool.scores, strict=True):
            assert isinstance(view, memoryview) and view.readonly
            assert view.tolist() == scores.tolist() + [-np.inf]
            # the pool and its sentinel, over the buffer of the pool's own view
            # (numpy does not offset the data pointer of an empty slice)
            assert view.obj is scores.base
            if scores.size:
                start = np.asarray(view).__array_interface__["data"][0]
                assert start == scores.__array_interface__["data"][0]

    @pytest.mark.parametrize(
        "pools",
        [
            {"a": [float("inf"), float("inf")], "b": [0.5]},
            {"a": [0.9], "b": [-float("inf"), -float("inf")]},
            {"a": [float("inf")], "b": [float("inf")]},
            {"a": [-float("inf")], "b": [float("nan"), float("inf")]},
        ],
    )
    def test_non_finite_pool_rejected_without_warning(self, pools):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(fr.ValidationError, match="non-finite"):
                make_task({"a": 0.5, "b": 0.5}, pools, 1)

    def test_extreme_scores_across_pools_accepted_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            task = make_task({"a": 0.5, "b": 0.5}, {"a": [-1e308], "b": [1e308, -1e308]}, 3)
        assert [s.tolist() for s in task.pool.scores] == [[-1e308], [1e308, -1e308]]

    @pytest.mark.parametrize("first", [0, 1, 2])
    def test_first_offending_pool_in_label_order_is_reported(self, first):
        faults = [[0.1, 0.9], [float("nan")], [[0.5]]]
        order = faults[first:] + faults[:first]
        pools = (np.array(order[0]), np.array(order[1]), np.array(order[2]))
        desired = fr.DesiredDistribution.from_mapping({"a": 0.25, "b": 0.25, "c": 0.5})
        parts = (desired, fr.ScoredPool(("a", "b", "c"), pools), 1)
        assert outcome(fr.RankingTask, parts) == outcome(reference_task, parts)
        assert outcome(fr.RankingTask, parts)[1].startswith("pool for 'a'")

    @settings(max_examples=400, deadline=None)
    @given(pool_tasks())
    def test_one_pass_matches_per_pool_reference(self, parts):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = outcome(fr.RankingTask, parts)
        with np.errstate(over="ignore"):  # the reference's np.diff overflows on -1e308 - 1e308
            assert got == outcome(reference_task, parts)


def half_and_half(pools):
    return fr.DesiredDistribution.from_mapping({"a": 0.5, "b": 0.5}), fr.ScoredPool.from_mapping(pools)


class TestRankingTask:
    # the next three tasks used to reach `rank` unchecked when the
    # constructor was called without the separate validation step
    def test_pools_given_out_of_label_order_are_aligned(self):
        task = fr.RankingTask(*half_and_half({"b": [0.9, 0.1], "a": [0.8, 0.7]}), 2)
        assert task.pool.labels == ("a", "b")
        for algo in fr.Algorithm:
            ranked = fr.rank(task, algo)
            assert ranked.attribute_labels() == ["b", "a"]
            assert ranked.scores.tolist() == [0.9, 0.8]

    def test_unsorted_pool_rejected_when_built(self):
        with pytest.raises(fr.PoolNotSorted, match="'a'"):
            fr.RankingTask(*half_and_half({"a": [0.1, 0.9], "b": [0.8]}), 2)

    def test_pools_shorter_than_k_rejected_when_built(self):
        # the count is of candidates, not of the copy that holds them with their sentinels
        cases = [({"a": [0.9], "b": [0.8]}, 2), ({"a": [], "b": [0.8]}, 1), ({"b": [0.8, 0.7]}, 2)]
        for pools, total in cases:
            with pytest.raises(fr.InsufficientCandidates, match=f"hold {total} candidates, k_max is 3"):
                fr.RankingTask(*half_and_half(pools), 3)

    def test_validate_task_returns_the_task(self):
        task = make_task({"a": 1.0}, {"a": [0.9]}, 1)
        assert fr.validate_task(task) is task

    def test_distribution_without_zeros_is_kept_as_given(self):
        desired, pool = half_and_half({"a": [0.9], "b": [0.8]})
        assert fr.RankingTask(desired, pool, 1).desired is desired

    @pytest.mark.parametrize(
        "labels, scores",
        [(("a", "b"), ([0.9, 0.8],)), (("a",), ([0.9], [0.8]))],
        ids=["fewer-scores", "fewer-labels"],
    )
    def test_pool_label_and_score_counts_must_agree(self, labels, scores):
        # zip used to drop the unmatched label's pool, or the unmatched scores
        desired, _ = half_and_half({})
        match = f"{len(labels)} pool labels but {len(scores)} score arrays"
        with pytest.raises(fr.LengthMismatch, match=match):
            fr.RankingTask(desired, fr.ScoredPool(labels, scores), 1)

    @pytest.mark.parametrize("scores", [None, 0.9], ids=["none", "number"])
    def test_pool_scores_that_are_not_a_list_rejected(self, scores):
        # len() on these would raise a bare TypeError
        desired, _ = half_and_half({})
        with pytest.raises(fr.ValidationError, match="pool scores must be a list"):
            fr.RankingTask(desired, fr.ScoredPool(("a", "b"), scores), 1)

    def test_pool_scores_may_come_as_any_iterable(self):
        desired, _ = half_and_half({})
        pool = fr.ScoredPool(("a", "b"), (s for s in ([0.9], [0.8])))
        assert [s.tolist() for s in fr.RankingTask(desired, pool, 2).pool.scores] == [[0.9], [0.8]]

    @pytest.mark.parametrize(
        "copy_of", [lambda t: pickle.loads(pickle.dumps(t)), copy.deepcopy], ids=["pickle", "deepcopy"]
    )
    def test_copies_are_rebuilt_read_only(self, copy_of):
        # a copied pool used to be writable, and a later write surfaced in
        # `rank` as "ranked scores must be finite"
        task = make_task({"a": 0.5, "gone": 0.0, "b": 0.5}, {"a": [0.9, 0.8], "b": [0.7]}, 3)
        table = task.table
        copied = copy_of(task)
        assert "table" not in vars(copied)  # a kept table is not carried over
        assert not any(s.flags.writeable for s in copied.pool.scores)
        assert copied.desired.labels == copied.pool.labels == ("a", "b")
        # rebuilt over the copy's own scores: a memoryview does not pickle
        assert [v.tolist() for v in copied.table.pools] == [v.tolist() for v in table.pools]
        assert all(v.obj is s.base for v, s in zip(copied.table.pools, copied.pool.scores))
        for algo in fr.Algorithm:
            ranked, again = fr.rank(task, algo), fr.rank(copied, algo)
            assert ranked.attributes.tolist() == again.attributes.tolist()
            assert ranked.scores.tolist() == again.scores.tolist()

    def test_array_holding_types_compare_by_identity(self):
        # `==` used to compare the arrays and raise ValueError, and `hash` raised TypeError
        task = make_task({"a": 0.5, "b": 0.5}, {"a": [0.9, 0.8], "b": [0.7, 0.6]}, 3)
        ranked = fr.rank(task, "detcons")
        for obj in (task.desired, task.pool, task, ranked, fr.measure(ranked, task.desired)):
            copied = pickle.loads(pickle.dumps(obj))
            assert obj == obj and (obj == copied) is False
            assert hash(obj) == hash(obj) and {obj: 1}[obj] == 1


def merged_reference(desired, pools):
    """sorted over (-score, label index, pool position), skipping zero-proportion labels."""
    kept = [a for a, p in desired.items() if p != 0]
    cands = [
        (-s, i, j, s) for i, a in enumerate(kept) for j, s in enumerate(pools.get(a, []))
    ]
    ranked = sorted(cands, key=lambda c: c[:3])
    return [c[1] for c in ranked], [c[3] for c in ranked]


def tied_pools(seed):
    """Pools of scores rounded to 0.1 with ties across pools, zeros of both signs and an
    empty pool, under a distribution with one zero-proportion label."""
    rng = np.random.default_rng(seed)
    pools = {
        a: sorted(np.round(rng.random(rng.integers(1, 12)), 1).tolist(), reverse=True)
        for a in ("a", "b", "c")
    }
    pools["a"] += [0.0, -0.0]
    pools["b"] += [-0.0, 0.0]
    pools["empty"] = []
    pools["gone"] = [0.9, 0.5]
    desired = {"a": 0.3, "gone": 0.0, "b": 0.2, "empty": 0.1, "c": 0.4}
    return desired, pools


class TestMergedOrder:
    @pytest.mark.parametrize("seed", range(12))
    def test_equals_a_sort_by_score_label_and_position(self, seed):
        desired, pools = tied_pools(seed)
        task = make_task(desired, pools, 3)
        attrs, scores = task.merged
        want_attrs, want_scores = merged_reference(desired, pools)
        assert attrs.dtype == np.int64 and attrs.tolist() == want_attrs
        # bytes, so a -0.0 has to sit where the reference puts it
        assert scores.tobytes() == np.array(want_scores, dtype=np.float64).tobytes()
        assert not attrs.flags.writeable and not scores.flags.writeable
        assert task.merged is task.merged

    @pytest.mark.parametrize("seed", range(12))
    def test_vanilla_is_the_argsort_of_the_merged_pools(self, seed):
        # the merge vanilla ran before the order was kept on the task
        desired, pools = tied_pools(seed)
        task = make_task(desired, pools, 9)
        lengths = [len(s) for s in task.pool.scores]
        flat = np.concatenate(task.pool.scores)
        order = np.argsort(-flat, kind="stable")[:9]
        attrs = np.repeat(np.arange(len(lengths)), lengths)[order]
        ranked = fr.rank(task, "vanilla")
        assert ranked.attributes.tolist() == attrs.tolist()
        assert ranked.scores.tobytes() == flat[order].tobytes()
        assert ranked.scores.flags.owndata and not ranked.scores.flags.writeable


class TestTaskFromDict:
    def test_json_shape(self):
        task = fr.task_from_dict(
            {"k": 2, "desired": {"a": 0.5, "b": 0.5}, "pools": {"a": [0.9], "b": [0.7]}}
        )
        assert task.k_max == 2
        assert task.desired.labels == ("a", "b")

    def test_integral_float_k_accepted(self):
        assert fr.task_from_dict(
            {"k": 2.0, "desired": {"a": 1.0}, "pools": {"a": [0.9, 0.8]}}
        ).k_max == 2

    @pytest.mark.parametrize("pool", [5, None, True, "95"])
    def test_scalar_pool_rejected(self, pool):
        # list(5) used to raise a bare TypeError, and list("95") split a string into scores
        with pytest.raises(fr.ValidationError, match="must be a list"):
            fr.task_from_dict({"k": 1, "desired": {"a": 1.0}, "pools": {"a": pool}})

    @pytest.mark.parametrize(
        "desired, pools",
        [
            ({"a": "0.5", "b": "0.5"}, {"a": ["0.9"], "b": ["0.8"]}),
            ({"a": 0.5, "b": 0.5}, {"a": ["0.9"], "b": [0.8]}),
            ({"a": True, "b": False}, {"a": [0.9], "b": [0.8]}),
            ({"a": 0.5, "b": 0.5}, {"a": [True], "b": [0.8]}),
            ({"a": 0.5, "b": 0.5}, {"a": [None], "b": [0.8]}),
        ],
        ids=["string-task", "string-pool", "bool-desired", "bool-pool", "none-pool"],
    )
    def test_bools_and_numeric_strings_rejected(self, desired, pools):
        # the string task used to rank, and {"a": true, "b": false} became {"a": 1.0}
        with pytest.raises(fr.ValidationError, match="numeric"):
            fr.task_from_dict({"k": 1, "desired": desired, "pools": pools})

    def test_bool_mixed_into_numbers_reads_as_a_number(self):
        # numpy infers float64 for the whole list; finding the bool would
        # take a scan per element on every request (see model._as_float_array)
        task = fr.task_from_dict({"k": 2, "desired": {"a": 1.0}, "pools": {"a": [True, 0.5]}})
        assert task.pool.scores[0].tolist() == [1.0, 0.5]

    def test_integers_beyond_64_bits(self):
        # numpy reads them as objects; one that fits a float is a score, and
        # one that does not used to escape as a bare OverflowError
        task = fr.task_from_dict({"k": 2, "desired": {"a": 1.0}, "pools": {"a": [10**30, 0.5]}})
        assert task.pool.scores[0].tolist() == [1e30, 0.5]
        with pytest.raises(fr.ValidationError, match="numeric"):
            fr.task_from_dict({"k": 1, "desired": {"a": 1.0}, "pools": {"a": [10**400]}})

    def test_missing_keys_rejected(self):
        with pytest.raises(fr.ValidationError, match="missing"):
            fr.task_from_dict({"k": 2, "desired": {"a": 1.0}})
        with pytest.raises(fr.ValidationError):
            fr.task_from_dict([1, 2, 3])


class TestRankedList:
    def test_record_round_trip(self):
        records = [
            {"position": 1, "attribute": "b", "score": 0.9},
            {"position": 2, "attribute": "a", "score": 0.8},
        ]
        ranked = fr.RankedList.from_records(records, ("a", "b"))
        assert ranked.attribute_labels() == ["b", "a"]
        assert ranked.to_records() == records

    def test_rows_ordered_by_position_key(self):
        records = [
            {"position": 2, "attribute": "a", "score": 0.8},
            {"position": 1, "attribute": "b", "score": 0.9},
        ]
        ranked = fr.RankedList.from_records(records, ("a", "b"))
        assert ranked.attribute_labels() == ["b", "a"]

    def test_unknown_attribute_rejected(self):
        with pytest.raises(fr.UnknownAttribute):
            fr.RankedList.from_records(
                [{"position": 1, "attribute": "zz", "score": 1.0}], ("a", "b")
            )

    @pytest.mark.parametrize("label", [["a"], {"a": 1}])
    def test_unhashable_label_rejected(self, label):
        # the label lookup must not raise TypeError
        with pytest.raises(fr.UnknownAttribute):
            fr.RankedList.from_records(
                [{"position": 1, "attribute": label, "score": 1.0}], ("a", "b")
            )

    def test_unorderable_positions_rejected(self):
        # "x" and 1 cannot be compared; the sort must not raise TypeError
        records = [
            {"position": "x", "attribute": "a", "score": 0.9},
            {"position": 1, "attribute": "b", "score": 0.8},
        ]
        with pytest.raises(fr.ValidationError, match="position"):
            fr.RankedList.from_records(records, ("a", "b"))

    @pytest.mark.parametrize(
        "positions",
        [(float("nan"), 2, 1), (1, 1, 2), (2, float("nan"))],
        ids=["nan-first", "duplicate", "nan-last"],
    )
    def test_nan_or_duplicate_positions_rejected(self, positions):
        # (NaN, 2, 1) with labels a, b, a used to come out as a, a, b, and
        # two rows at position 1 were both kept
        records = [
            {"position": pos, "attribute": label, "score": 0.5}
            for pos, label in zip(positions, "aba")
        ]
        with pytest.raises(fr.ValidationError, match="position"):
            fr.RankedList.from_records(records, ("a", "b"))

    @pytest.mark.parametrize("records", [5, None, "ab"])
    def test_rows_that_are_not_a_list_rejected(self, records):
        with pytest.raises(fr.ValidationError, match="must be a list"):
            fr.RankedList.from_records(records, ("a", "b"))

    def test_rows_are_sorted_on_a_copy(self):
        records = [
            {"position": 2, "attribute": "a", "score": 0.8},
            {"position": 1, "attribute": "b", "score": 0.9},
        ]
        given = list(records)
        fr.RankedList.from_records(records, ("a", "b"))
        assert records == given and all(r is g for r, g in zip(records, given))

    def test_integer_score_beyond_float_range_rejected(self):
        # float(10**400) raised OverflowError out of from_records
        with pytest.raises(fr.ValidationError, match="ranked row 1"):
            fr.RankedList.from_records(
                [{"position": 1, "attribute": "a", "score": 0.5},
                 {"position": 2, "attribute": "a", "score": 10**400}], ("a",)
            )

    def test_malformed_row_rejected(self):
        with pytest.raises(fr.ValidationError):
            fr.RankedList.from_records([{"attribute": "a"}], ("a",))

    @pytest.mark.parametrize(
        "score", ["0.5", b"0.5", True, np.bool_(False)], ids=["str", "bytes", "bool", "numpy-bool"]
    )
    def test_string_or_bool_score_rejected(self, score):
        # float() used to read "0.5" as 0.5 and True as 1.0
        with pytest.raises(fr.ValidationError, match="score must be a number"):
            fr.RankedList.from_records([{"position": 1, "attribute": "a", "score": score}], ("a",))

    @pytest.mark.parametrize(
        "events", [-3, "x", True, 1.0, None], ids=["negative", "str", "bool", "float", "none"]
    )
    def test_malformed_fallback_events_rejected(self, events):
        # -3 and "x" used to be stored as given
        with pytest.raises(fr.ValidationError, match="fallback_events"):
            fr.RankedList(("a",), np.array([0]), np.array([0.5]), fallback_events=events)

    @pytest.mark.parametrize("events", [0, 7, np.int64(2), np.uint8(3)])
    def test_integer_fallback_events_stored_as_int(self, events):
        ranked = fr.RankedList(("a",), np.array([0]), np.array([0.5]), fallback_events=events)
        assert type(ranked.fallback_events) is int and ranked.fallback_events == events

    @pytest.mark.parametrize("index", [-1, 2, 5])
    def test_out_of_range_attribute_index_rejected(self, index):
        # -1 used to count as the last label, 2 reached `measure` as a raw
        # IndexError, and 5 gave `proportions_at_k` a length-6 vector
        with pytest.raises(fr.UnknownAttribute):
            fr.RankedList(
                labels=("a", "b"),
                attributes=np.array([0, index], dtype=np.int64),
                scores=np.array([0.9, 0.8]),
            )

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_score_rejected(self, bad):
        # a NaN score used to come out of `measure` as ndcg = nan
        with pytest.raises(fr.ValidationError):
            fr.RankedList(
                labels=("a", "b"),
                attributes=np.array([0, 1], dtype=np.int64),
                scores=np.array([0.9, bad]),
            )
        with pytest.raises(fr.ValidationError):
            fr.RankedList.from_records(
                [{"position": 1, "attribute": "a", "score": bad}], ("a", "b")
            )

    def test_attribute_and_score_lengths_must_agree(self):
        # four attributes with two scores used to measure as a 4-long list
        # with ndcg 1.0 over its 2 scores
        with pytest.raises(fr.LengthMismatch, match=r"shape \(4,\) but scores of shape \(2,\)"):
            fr.RankedList(
                labels=("a", "b"),
                attributes=np.array([0, 1, 0, 1], dtype=np.int64),
                scores=np.array([0.9, 0.8]),
            )

    @pytest.mark.parametrize(
        "attributes, scores, shapes",
        [
            (None, [0.5], r"\(\) but scores of shape \(1,\)"),
            ([[0]], [0.5], r"\(1, 1\) but scores of shape \(1,\)"),
            ([0, 0], [[0.5, 0.4]], r"\(2,\) but scores of shape \(1, 2\)"),
        ],
        ids=["scalar", "nested-attributes", "nested-scores"],
    )
    def test_shape_mismatch_reports_the_shapes(self, attributes, scores, shapes):
        # these used to report equal sizes, "1 attributes but 1 scores" or "2 ... but 2"
        with pytest.raises(fr.LengthMismatch, match=f"attributes of shape {shapes}"):
            fr.RankedList(labels=("a", "b"), attributes=attributes, scores=scores)

    @pytest.mark.parametrize(
        "attributes, scores",
        [
            ([[0], [1]], [[0.9], [0.8]]),  # measure used to say "ideal scores must be sorted"
            ([0.5, 1.0], [0.9, 0.8]),  # measure used to raise a bare IndexError
            ([0.0, 1.0], [0.9, 0.8]),
            ([True, False], [0.9, 0.8]),
        ],
        ids=["2-D", "fractional", "integral-float", "bool"],
    )
    def test_attributes_must_be_flat_integers(self, attributes, scores):
        with pytest.raises(fr.ValidationError, match="attributes"):
            fr.RankedList(
                labels=("a", "b"), attributes=np.asarray(attributes), scores=np.asarray(scores)
            )

    def test_empty_list_is_well_formed(self):
        empty = fr.RankedList(
            labels=("a",), attributes=np.empty(0, dtype=np.int64), scores=np.empty(0)
        )
        assert len(empty) == 0
        # an empty list may carry any dtype, e.g. np.asarray([]), and the metrics take it
        floats = fr.RankedList(labels=("a",), attributes=np.asarray([]), scores=[])
        assert len(floats) == 0
        desired = fr.DesiredDistribution.from_mapping({"a": 1.0})
        assert fr.infeasible_prefixes(floats, desired).tolist() == []
        with pytest.raises(fr.ValidationError):
            fr.measure(floats, desired)

    @pytest.mark.parametrize("view", [False, True], ids=["array", "read-only-view"])
    def test_later_writes_by_the_caller_do_not_reach_the_list(self, view):
        attrs, scores = np.array([0, 1, 0, 1]), np.array([0.9, 0.8, 0.7, 0.6])
        given = (attrs, scores)
        if view:
            given = tuple(a[:] for a in given)
            for a in given:
                a.setflags(write=False)
        ranked = fr.RankedList(labels=("a", "b"), attributes=given[0], scores=given[1])
        desired = fr.DesiredDistribution.from_mapping({"a": 0.5, "b": 0.5})
        attrs[1] = 5  # measure used to raise a bare IndexError
        scores[2] = np.nan  # measure used to say "ideal scores must be sorted"
        assert ranked.attributes.tolist() == [0, 1, 0, 1]
        assert ranked.scores.tolist() == [0.9, 0.8, 0.7, 0.6]
        fresh = fr.RankedList(("a", "b"), [0, 1, 0, 1], [0.9, 0.8, 0.7, 0.6])
        assert fr.measure(ranked, desired).to_dict() == fr.measure(fresh, desired).to_dict()
        assert fr.infeasible_prefixes(ranked, desired).tolist() == []

    def test_stores_read_only_arrays_that_it_owns(self):
        ranked = fr.RankedList(labels=("a", "b"), attributes=[0, 1], scores=[0.5, 0.4])
        for arr in (ranked.attributes, ranked.scores):
            assert isinstance(arr, np.ndarray)
            assert arr.flags.owndata and not arr.flags.writeable
        assert ranked.scores.dtype == np.float64
        with pytest.raises(ValueError):
            ranked.attributes[0] = 1
        with pytest.raises(ValueError):
            ranked.scores[0] = 1.0

    def test_frozen_arrays_it_is_given_are_kept_without_a_copy(self):
        # the rankers hand over read-only arrays they own
        attrs, scores = np.array([0, 1]), np.array([0.5, 0.4])
        for a in (attrs, scores):
            a.setflags(write=False)
        ranked = fr.RankedList(labels=("a", "b"), attributes=attrs, scores=scores)
        assert ranked.attributes is attrs and ranked.scores is scores

    def test_non_numeric_scores_rejected(self):
        with pytest.raises(fr.ValidationError, match="numeric"):
            fr.RankedList(labels=("a",), attributes=[0], scores=["x"])

    @pytest.mark.parametrize(
        "labels, match",
        [((1, 2), "must be strings"), (("a", "a"), "duplicate attribute labels in ranked list")],
        ids=["non-string", "duplicate"],
    )
    @pytest.mark.parametrize("entry", ["constructor", "from_records"])
    def test_labels_must_be_distinct_strings(self, entry, labels, match):
        # as a DesiredDistribution's; from_records used to map a duplicate "a" to index 1
        with pytest.raises(fr.ValidationError, match=match):
            if entry == "constructor":
                fr.RankedList(labels, [0, 1], [0.5, 0.4])
            else:
                rows = [{"position": i, "attribute": a, "score": 0.5} for i, a in enumerate(labels)]
                fr.RankedList.from_records(rows, list(labels))


class TestAsFloatArray:
    def test_native_float64_array_returned_as_is(self):
        arr = np.array([0.5, 0.25])
        assert _as_float_array(arr, "x") is arr

    @pytest.mark.parametrize(
        "arr",
        [np.array([0.5, 0.25], dtype=">f8"), np.array([0.5, 0.25], np.float32), np.array([2, 1])],
        ids=["big-endian", "float32", "int"],
    )
    def test_other_numeric_arrays_give_a_native_float64_copy(self, arr):
        out = _as_float_array(arr, "x")
        assert out is not arr and out.dtype == np.float64 and out.dtype.isnative
        assert out.tolist() == arr.tolist()

    @pytest.mark.parametrize(
        "arr",
        [np.array([True, False]), np.array(["0.5"]), np.array([0.5, None], dtype=object)],
        ids=["bool", "str", "object"],
    )
    def test_bool_string_and_object_arrays_rejected(self, arr):
        with pytest.raises(fr.ValidationError, match="numeric"):
            _as_float_array(arr, "x")


@pytest.mark.parametrize(
    "call",
    [
        lambda: fr.empirical_distribution([1, 2]),
        lambda: fr.DesiredDistribution.from_mapping([("a", 1.0)]),
        lambda: fr.ScoredPool.from_mapping([("a", [1.0])]),
        lambda: fr.RankedList.from_records([{"position": 1, "attribute": "a", "score": 1.0}], 5),
    ],
    ids=["empirical-distribution", "desired-from-mapping", "pool-from-mapping", "record-labels"],
)
def test_inputs_of_the_wrong_container_type_raise_validation_error(call):
    # the first three used to raise AttributeError, the last TypeError
    with pytest.raises(fr.ValidationError):
        call()


LABEL_ENTRY_POINTS = {
    "distribution": lambda labels: fr.DesiredDistribution(labels, [0.5, 0.5]),
    "ranked-list": lambda labels: fr.RankedList(labels, [0], [0.5]),
    "pool": lambda labels: fr.RankingTask(
        fr.DesiredDistribution(("a", "b"), [0.5, 0.5]), fr.ScoredPool(labels, ([0.9], [0.8])), 1
    ),
    "record-labels": lambda labels: fr.RankedList.from_records([], labels),
}


@pytest.mark.parametrize(
    "labels, match",
    [(None, "must be a list"), ("ab", "must be a list"), (5, "must be a list"),
     ((1, 2), "must be strings")],
    ids=["none", "bare-string", "number", "non-string"],
)
@pytest.mark.parametrize("entry", LABEL_ENTRY_POINTS)
def test_labels_are_checked_alike_at_every_entry_point(entry, labels, match):
    # a distribution took "ab" as ("a", "b") and None as a raw TypeError; a pool took "ab"
    # too, and named the non-string label 1 an unknown attribute
    with pytest.raises(fr.ValidationError, match=match):
        LABEL_ENTRY_POINTS[entry](labels)
