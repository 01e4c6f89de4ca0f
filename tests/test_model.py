import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairrank as fr
from conftest import make_task


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
        ],
        ids=["short", "nan", "unnormalized", "negative", "long", "2-D", "non-numeric"],
    )
    def test_malformed_proportions_rejected_at_construction(self, proportions, error):
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

    def test_malformed_mapping_rejected(self):
        with pytest.raises(fr.DistributionNotNormalized):
            fr.DesiredDistribution.from_mapping({"a": 0.2, "b": 0.2})

    def test_stores_tuple_labels_and_frozen_float_copy(self):
        source = np.array([0.25, 0.75])
        d = fr.DesiredDistribution(labels=["a", "b"], proportions=source)
        source[0] = 0.5
        assert d.labels == ("a", "b")
        assert d.proportions.dtype == np.float64
        assert d.proportions.tolist() == [0.25, 0.75]
        assert not d.proportions.flags.writeable


def reference_validate(task, allow_unsorted=False):
    """validate_task's pool checks written one pool at a time, as a reference."""
    by_label = dict(zip(task.pool.labels, task.pool.scores))
    labels, props, pools = [], [], []
    for a, p in zip(task.desired.labels, task.desired.proportions):
        if p == 0:
            continue
        scores = np.asarray(by_label.get(a, ()), dtype=np.float64)
        if scores.ndim != 1:
            raise fr.ValidationError(f"pool for {a!r} must be a flat list of scores")
        if not np.all(np.isfinite(scores)):
            raise fr.ValidationError(f"pool for {a!r} contains non-finite scores")
        if scores.size > 1 and np.any(np.diff(scores) > 0):
            if not allow_unsorted:
                raise fr.PoolNotSorted(f"pool for {a!r} is not sorted by non-increasing score")
            scores = np.sort(scores)[::-1]
        labels.append(a)
        props.append(float(p))
        pools.append(scores.tolist())
    if sum(map(len, pools)) < task.k_max:
        raise fr.InsufficientCandidates(
            f"pools hold {sum(map(len, pools))} candidates, k_max is {task.k_max}"
        )
    return tuple(labels), props, pools


def outcome(validate, task, allow_unsorted):
    """(error class, message), or the validated labels, proportions and pool scores."""
    try:
        result = validate(task, allow_unsorted=allow_unsorted)
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
    """Tasks with missing, empty, unsorted, non-finite or nested pools and zero-proportion labels."""
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
    return fr.RankingTask(
        desired=fr.DesiredDistribution.from_mapping(
            {a: w / sum(weights) for a, w in zip(labels, weights)}
        ),
        pool=fr.ScoredPool.from_mapping(pools),
        k_max=draw(st.integers(1, 8)),
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

    def test_unsorted_pool_resorted_on_request(self):
        task = make_task({"a": 1.0}, {"a": [0.1, 0.9]}, 2, allow_unsorted=True)
        assert task.pool.scores[0].tolist() == [0.9, 0.1]

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
        task = fr.validate_task(fr.RankingTask(desired=kept, pool=pools, k_max=2))
        assert task.desired is kept
        dropping = fr.DesiredDistribution.from_mapping({"a": 0.25, "gone": 0.0, "b": 0.75})
        task = fr.validate_task(fr.RankingTask(desired=dropping, pool=pools, k_max=2))
        assert task.desired is not dropping
        assert task.desired.as_mapping() == {"a": 0.25, "b": 0.75}

    def test_missing_pool_becomes_empty(self):
        task = make_task({"a": 0.5, "b": 0.5}, {"a": [0.9, 0.8]}, 2)
        assert task.pool.scores[1].size == 0

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
            fr.validate_task(
                fr.RankingTask(
                    desired=fr.DesiredDistribution.from_mapping({"a": 0.5, "b": 0.5}),
                    pool=fr.ScoredPool(labels=("a", "b"), scores=(pool, np.array([0.7, 0.1]))),
                    k_max=2,
                )
            )

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

    @pytest.mark.parametrize("b", [[0.7, 0.1], [0.1, 0.7]])
    def test_pools_are_views_of_one_read_only_array(self, b):
        task = make_task({"a": 0.5, "b": 0.5}, {"a": [0.9], "b": b}, 3, allow_unsorted=True)
        base = task.pool.scores[0].base
        assert all(s.base is base for s in task.pool.scores)
        assert not base.flags.writeable
        assert base.tolist() == [0.9, 0.7, 0.1]

    def test_caller_arrays_not_sorted_in_place(self):
        unsorted = np.array([0.1, 0.7])
        pool = fr.ScoredPool(labels=("a", "b"), scores=(np.array([0.9]), unsorted))
        desired = fr.DesiredDistribution.from_mapping({"a": 0.5, "b": 0.5})
        task = fr.RankingTask(desired=desired, pool=pool, k_max=3)
        assert fr.validate_task(task, allow_unsorted=True).pool.scores[1].tolist() == [0.7, 0.1]
        assert unsorted.tolist() == [0.1, 0.7]

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
        task = fr.RankingTask(desired=desired, pool=fr.ScoredPool(("a", "b", "c"), pools), k_max=1)
        assert outcome(fr.validate_task, task, False) == outcome(reference_validate, task, False)
        assert outcome(fr.validate_task, task, False)[1].startswith("pool for 'a'")

    @settings(max_examples=400, deadline=None)
    @given(pool_tasks(), st.booleans())
    def test_one_pass_matches_per_pool_reference(self, task, allow_unsorted):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = outcome(fr.validate_task, task, allow_unsorted)
        with np.errstate(over="ignore"):  # the reference's np.diff overflows on -1e308 - 1e308
            assert got == outcome(reference_validate, task, allow_unsorted)


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

    def test_malformed_row_rejected(self):
        with pytest.raises(fr.ValidationError):
            fr.RankedList.from_records([{"attribute": "a"}], ("a",))

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
        with pytest.raises(fr.LengthMismatch):
            fr.RankedList(
                labels=("a", "b"),
                attributes=np.array([0, 1, 0, 1], dtype=np.int64),
                scores=np.array([0.9, 0.8]),
            )

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
        # an empty list may carry any dtype, e.g. np.asarray([])
        assert len(fr.RankedList(labels=("a",), attributes=np.asarray([]), scores=[])) == 0
