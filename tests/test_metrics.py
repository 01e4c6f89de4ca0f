import ast
import copy
import gc
import math
import pickle
import subprocess
import sys
import threading
import time
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fairrank as fr
from conftest import make_ranked, make_task, random_task, ref_floor, spawn_rng

HALF = fr.DesiredDistribution.from_mapping({"a": 0.5, "b": 0.5})


def naive_ndkl(labels_seq, desired):
    """Brute-force per-prefix recomputation, independent of the library path."""
    total, z = 0.0, 0.0
    for i in range(1, len(labels_seq) + 1):
        prefix = labels_seq[:i]
        kl = 0.0
        for label, p in zip(desired.labels, desired.proportions):
            observed = prefix.count(label) / i
            if observed > 0:
                kl += observed * math.log(observed / p)
        weight = 1.0 / math.log2(i + 1)
        total += kl * weight
        z += weight
    return total / z


class TestProportions:
    def test_direct_counts(self):
        ranked = make_ranked("abab", ("a", "b"))
        assert fr.proportions_at_k(ranked, 2).tolist() == [0.5, 0.5]

    def test_uneven_counts(self):
        ranked = make_ranked("aaab", ("a", "b"))
        assert fr.proportions_at_k(ranked, 4).tolist() == [0.75, 0.25]

    def test_singleton(self):
        ranked = make_ranked("a", ("a",))
        assert fr.proportions_at_k(ranked, 1).tolist() == [1.0]

    def test_depth_out_of_range(self):
        ranked = make_ranked("ab", ("a", "b"))
        for k in (0, 3, -1, 1.5):
            with pytest.raises(fr.KOutOfRange):
                fr.proportions_at_k(ranked, k)


class TestSkew:
    def test_under_representation_log_half(self):
        # 20 of the top 100 vs a desired proportion of 0.4
        desired = fr.DesiredDistribution.from_mapping({"male": 0.4, "female": 0.6})
        ranked = make_ranked(["male"] * 20 + ["female"] * 80, desired.labels)
        assert fr.skew_at_k(ranked, desired, "male", 100) == pytest.approx(
            math.log(0.5), abs=1e-12
        )

    def test_matching_proportion_is_zero(self):
        ranked = make_ranked("abab", ("a", "b"))
        assert fr.skew_at_k(ranked, HALF, "a", 4) == 0.0

    def test_over_representation_log_three_halves(self):
        ranked = make_ranked("aaab", ("a", "b"))
        assert fr.skew_at_k(ranked, HALF, "a", 4) == pytest.approx(
            math.log(1.5), abs=1e-12
        )

    def test_min_max_pair(self):
        ranked = make_ranked("aaab", ("a", "b"))
        assert fr.min_skew_at_k(ranked, HALF, 4) == pytest.approx(math.log(0.5))
        assert fr.max_skew_at_k(ranked, HALF, 4) == pytest.approx(math.log(1.5))

    def test_single_attribute_zero(self):
        one = fr.DesiredDistribution.from_mapping({"a": 1.0})
        ranked = make_ranked("aaa", ("a",))
        assert fr.min_skew_at_k(ranked, one, 3) == 0.0
        assert fr.max_skew_at_k(ranked, one, 3) == 0.0

    def test_absent_attribute_uses_epsilon_floor(self):
        ranked = make_ranked("aa", ("a", "b"))
        value = fr.skew_at_k(ranked, HALF, "b", 2)
        assert value == pytest.approx(math.log((1e-6 / 2) / 0.5))
        assert math.isfinite(value)

    def test_zero_desired_proportion_rejected(self):
        zero = fr.DesiredDistribution.from_mapping({"a": 1.0, "b": 0.0})
        ranked = make_ranked("ab", ("a", "b"))
        with pytest.raises(fr.ZeroDesiredProportion):
            fr.skew_at_k(ranked, zero, "a", 2)

    def test_label_and_index_agree(self):
        ranked = make_ranked("aaab", ("a", "b"))
        assert fr.skew_at_k(ranked, HALF, "b", 4) == fr.skew_at_k(ranked, HALF, 1, 4)

    def test_mismatched_labels_rejected(self):
        other = fr.DesiredDistribution.from_mapping({"x": 0.5, "y": 0.5})
        ranked = make_ranked("ab", ("a", "b"))
        with pytest.raises(fr.SupportMismatch):
            fr.skews_at_k(ranked, other, 2)

    def test_numpy_integer_index_accepted(self):
        ranked = make_ranked("aaab", ("a", "b"))
        assert fr.skew_at_k(ranked, HALF, np.int64(1), 4) == fr.skew_at_k(ranked, HALF, "b", 4)

    @pytest.mark.parametrize("attr", [None, 1.5, 1.0, True, ["a"], 2, -1, "z"])
    def test_non_label_non_index_attribute_rejected(self, attr):
        # None and ["a"] must not raise TypeError, and 1.5 must not read index 1
        ranked = make_ranked("aaab", ("a", "b"))
        with pytest.raises(fr.UnknownAttribute):
            fr.skew_at_k(ranked, HALF, attr, 4)


class TestKlDivergence:
    def test_identical_is_exactly_zero(self):
        assert fr.kl_divergence([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_point_mass_vs_uniform(self):
        assert fr.kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_two_term_value(self):
        assert fr.kl_divergence([0.75, 0.25], [0.5, 0.5]) == pytest.approx(
            0.75 * math.log(1.5) + 0.25 * math.log(0.5), abs=1e-12
        )

    def test_support_mismatch(self):
        with pytest.raises(fr.SupportMismatch):
            fr.kl_divergence([1.0], [0.5, 0.5])

    @pytest.mark.parametrize(
        "p, q", [([[0.5, 0.5]], [[0.5, 0.5]]), ([0.5, 0.5], [[0.5, 0.5]]), (0.5, 0.5)],
        ids=["both-2d", "one-2d", "scalars"],
    )
    def test_non_flat_distributions_name_their_shape(self, p, q):
        # two (1, 2) inputs used to raise "supports differ: (1, 2) vs (1, 2)"
        with pytest.raises(fr.ValidationError, match="flat") as info:
            fr.kl_divergence(p, q)
        assert not isinstance(info.value, fr.SupportMismatch)
        assert str(np.shape(p)) in str(info.value)

    def test_zero_denominator(self):
        with pytest.raises(fr.ZeroDenominator):
            fr.kl_divergence([0.5, 0.5], [1.0, 0.0])

    @pytest.mark.parametrize(
        "p, q",
        [([0.5, 0.5], [0.9, 0.9]), ([0.6, 0.6], [0.5, 0.5]), ([0.5, 0.5 + 1e-8], [0.5, 0.5]),
         ([], []), ([1e308, 1e308], [0.5, 0.5])],
        ids=["q-over-1", "p-over-1", "p-off-by-1e-8", "empty", "p-sum-overflows"],
    )
    def test_unnormalized_or_empty_rejected(self, p, q):
        # (0.5, 0.5) against (0.9, 0.9) used to give -0.588, against Gibbs'
        # inequality, and two empty vectors 0.0; (1e308, 1e308) overflowed its
        # sum with a RuntimeWarning
        with pytest.raises(fr.DistributionNotNormalized):
            fr.kl_divergence(p, q)

    def test_normalized_within_tolerance_accepted(self):
        assert fr.kl_divergence([0.5, 0.5 + 1e-10], [0.5, 0.5]) >= 0.0

    @pytest.mark.parametrize("tail", [5e-324, 1e-310], ids=["5e-324", "1e-310"])
    def test_subnormal_proportion_rejected(self, tail):
        with pytest.raises(fr.DistributionNotNormalized, match="normal"):
            fr.kl_divergence([0.5, 0.5], [1.0, tail])

    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.tuples(
                st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n),
                st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n),
            )
        )
    )
    def test_gibbs_inequality(self, pair):
        d1 = np.asarray(pair[0])
        d1 /= d1.sum()
        d2 = np.asarray(pair[1])
        d2 /= d2.sum()
        assert fr.kl_divergence(d1, d1) == 0.0
        assert fr.kl_divergence(d1, d2) >= -1e-12


class TestNdkl:
    def test_two_item_oracle(self):
        ranked = make_ranked("ab", ("a", "b"))
        assert fr.ndkl(ranked, HALF) == pytest.approx(0.42500124793362276, abs=1e-12)

    def test_four_item_oracle(self):
        ranked = make_ranked("abab", ("a", "b"))
        assert fr.ndkl(ranked, HALF) == pytest.approx(0.2816450300785086, abs=1e-12)

    def test_single_attribute_is_zero(self):
        one = fr.DesiredDistribution.from_mapping({"a": 1.0})
        assert fr.ndkl(make_ranked("aaaa", ("a",)), one) == 0.0

    def test_zero_desired_with_presence_rejected(self):
        zero = fr.DesiredDistribution.from_mapping({"a": 1.0, "b": 0.0})
        with pytest.raises(fr.ZeroDesiredProportion):
            fr.ndkl(make_ranked("ab", ("a", "b")), zero)

    def test_empty_list_rejected(self):
        with pytest.raises(fr.ValidationError, match="empty"):
            fr.ndkl(fr.RankedList.from_records([], ("a", "b")), HALF)

    @settings(max_examples=60)
    @given(
        st.integers(2, 5).flatmap(
            lambda n_attr: st.tuples(
                st.just(n_attr),
                st.lists(st.integers(0, n_attr - 1), min_size=1, max_size=100),
                st.lists(st.floats(1e-3, 1.0), min_size=n_attr, max_size=n_attr),
            )
        )
    )
    def test_streaming_matches_naive_oracle(self, case):
        n_attr, seq, weights = case
        labels = tuple(f"g{i}" for i in range(n_attr))
        p = np.asarray(weights)
        desired = fr.DesiredDistribution(labels=labels, proportions=p / p.sum())
        ranked = make_ranked([labels[i] for i in seq], labels)
        value = fr.ndkl(ranked, desired)
        assert value >= 0.0
        assert value == pytest.approx(
            naive_ndkl([labels[i] for i in seq], desired), abs=1e-9
        )

    @pytest.mark.parametrize("n_attr", [8, 9, 10])
    def test_many_attributes_agree_across_callers(self, n_attr):
        # from 8 attributes on, a prefix's sum of KL terms depends on the order numpy
        # adds them in; it stays within rounding of the naive loop, and every caller
        # of the metrics core gets the same bits
        task = random_task(spawn_rng(53, n_attr), n_attr)
        rows = fr.run_task(task, list(fr.Algorithm)).rows
        for algo, row in rows.items():
            ranked = fr.rank(task, algo)
            value = fr.ndkl(ranked, task.desired)
            seq = [task.desired.labels[a] for a in ranked.attributes]
            assert value == pytest.approx(naive_ndkl(seq, task.desired), rel=1e-12)
            assert bits(fr.measure(*copies(ranked, task.desired), k=task.k_max).ndkl) == bits(value)
            assert bits(float(row[4])) == bits(value)


class TestNdcg:
    def test_sorted_list_is_one(self):
        assert fr.ndcg([0.9, 0.8, 0.7], [0.9, 0.8, 0.7, 0.6]) == 1.0

    def test_singleton_is_one(self):
        assert fr.ndcg([0.4], [0.4]) == 1.0

    def test_adjacent_swap(self):
        assert fr.ndcg([0.7, 0.9], [0.9, 0.7]) == pytest.approx(
            0.9449826677905079, abs=1e-12
        )

    def test_short_ideal_rejected(self):
        with pytest.raises(fr.LengthMismatch):
            fr.ndcg([0.9, 0.8], [0.9])

    def test_empty_list_is_one(self):
        assert fr.ndcg([], [0.9, 0.8]) == 1.0

    def test_zero_ideal_with_positive_gain_rejected(self):
        with pytest.raises(fr.ZeroDenominator):
            fr.ndcg([1.0], [0.0])
        assert fr.ndcg([0.0], [0.0]) == 1.0

    def test_accepts_ranked_list(self):
        ranked = make_ranked("ab", ("a", "b"), scores=[0.9, 0.8])
        assert fr.ndcg(ranked, [0.9, 0.8]) == 1.0

    @pytest.mark.parametrize(
        "scores, ideal",
        [
            ([1.0, -2.0, 0.5], [1.0, 0.5, -2.0]),  # raw ratio -0.0376
            ([-2.0, -1.0], [-1.0, -2.0]),  # raw ratio 1.163, above 1
            ([0.5, -1.0], [0.5, 0.4, 0.3]),  # negative in the list only
            ([0.5, 0.0], [0.5, -1.0]),  # negative in the ideal prefix only
        ],
    )
    def test_negative_gain_rejected(self, scores, ideal):
        with pytest.raises(fr.ValidationError):
            fr.ndcg(scores, ideal)

    def test_negative_ideal_beyond_prefix_ignored(self):
        assert fr.ndcg([0.9, 0.8], [0.9, 0.8, -1.0]) == 1.0

    @pytest.mark.parametrize(
        "scores, ideal",
        [
            ([0.9], [0.1, 0.9]),  # raw ratio 9.0: the one-score prefix is not the top score
            ([0.5, 0.4], [0.4, 0.5]),  # the prefix itself is unsorted
            ([0.5], [1.0, math.nan]),  # NaN is unordered, even beyond the prefix
        ],
    )
    def test_unsorted_ideal_rejected(self, scores, ideal):
        with pytest.raises(fr.ValidationError):
            fr.ndcg(scores, ideal)

    @pytest.mark.parametrize(
        "scores, ideal",
        [
            ([math.nan], [1.0]),  # raw ratio nan
            ([math.inf], [1.0]),
            ([0.5, math.nan], [1.0, 0.5]),
            ([1.0], [math.nan]),
            ([1.0], [math.inf]),  # raw ratio 0.0
            ([1.0, 0.5], [math.inf, 1.0]),
        ],
    )
    def test_non_finite_gain_rejected(self, scores, ideal):
        with pytest.raises(fr.ValidationError):
            fr.ndcg(scores, ideal)


class TestInfeasibility:
    def test_table_style_trace(self):
        desired = fr.DesiredDistribution.from_mapping(
            {"a1": 0.4, "a2": 0.4, "a3": 0.1, "a4": 0.1}
        )
        ranked = make_ranked(
            ["a4", "a3", "a2", "a1"], desired.labels, scores=[0.4, 0.3, 0.2, 0.1]
        )
        assert fr.infeasible_index(ranked, desired) == 1
        assert fr.infeasible_count(ranked, desired) == 1
        assert fr.infeasible_prefixes(ranked, desired).tolist() == [3]

    def test_feasible_list(self):
        ranked = make_ranked("abab", ("a", "b"))
        assert fr.infeasible_index(ranked, HALF) == 0
        assert fr.infeasible_count(ranked, HALF) == 0

    def test_missing_attribute_violates_floor(self):
        ranked = make_ranked("bb", ("a", "b"))
        assert fr.infeasible_index(ranked, HALF) == 1
        assert fr.infeasible_count(ranked, HALF) == 1
        assert fr.infeasible_prefixes(ranked, HALF).tolist() == [2]


@st.composite
def list_with_desired(draw):
    n_attr = draw(st.integers(1, 5))
    seq = draw(st.lists(st.integers(0, n_attr - 1), min_size=1, max_size=60))
    weights = draw(st.lists(st.floats(1e-3, 1.0), min_size=n_attr, max_size=n_attr))
    labels = tuple(f"g{i}" for i in range(n_attr))
    p = np.asarray(weights)
    desired = fr.DesiredDistribution(labels=labels, proportions=p / p.sum())
    ranked = make_ranked([labels[i] for i in seq], labels)
    return ranked, desired


# weights (0.3, 0.3, 0.3) normalize to one ulp above 1/3, just above every top-6 share 2/6
THIRDS_ABOVE_SHARE = (
    make_ranked(["g0", "g0", "g1", "g1", "g2", "g2"], ("g0", "g1", "g2")),
    fr.DesiredDistribution(labels=("g0", "g1", "g2"), proportions=np.full(3, 0.33333333333333337)),
)


class TestInvariants:
    @settings(max_examples=80)
    @given(list_with_desired())
    @example(THIRDS_ABOVE_SHARE)
    def test_skew_straddles_zero_and_counts_agree(self, case):
        ranked, desired = case
        k = len(ranked)
        assert fr.min_skew_at_k(ranked, desired, k) <= 0.0
        assert fr.max_skew_at_k(ranked, desired, k) >= 0.0
        ii = fr.infeasible_index(ranked, desired)
        ic = fr.infeasible_count(ranked, desired)
        assert 0 <= ii <= ic
        assert (ii == 0) == (ic == 0)


class TestMeasure:
    def test_report_fields_and_keys(self):
        task = make_task({"a": 0.5, "b": 0.5}, {"a": [0.9, 0.8], "b": [0.7, 0.6]}, 4)
        ranked = fr.rank(task, "detgreedy")
        report = fr.measure(ranked, task.desired)
        assert report.k == 4
        assert report.feasible
        assert report.min_skew <= 0.0 <= report.max_skew
        assert report.infeasible_index <= report.infeasible_count
        assert set(report.to_dict()) == {
            "k",
            "skew",
            "min_skew",
            "max_skew",
            "ndkl",
            "ndcg",
            "infeasible_index",
            "infeasible_count",
            "feasible",
        }
        assert set(report.to_dict()["skew"]) == {"a", "b"}

    def test_default_depth_caps_at_100(self):
        labels = ("a", "b")
        ranked = make_ranked("ab" * 75, labels)
        report = fr.measure(ranked, HALF)
        assert report.k == 100

    def test_self_ideal_ndcg_is_one_for_sorted(self):
        ranked = make_ranked("ab", ("a", "b"), scores=[0.9, 0.2])
        assert fr.measure(ranked, HALF).ndcg == 1.0

    def test_explicit_ideal_penalizes_reordering(self):
        task = make_task({"a": 0.5, "b": 0.5}, {"a": [0.9, 0.8], "b": [0.7, 0.6]}, 4)
        ranked = fr.rank(task, "detgreedy")
        ideal = np.sort(np.concatenate(task.pool.scores))[::-1]
        report = fr.measure(ranked, task.desired, ideal_scores=ideal)
        assert 0 < report.ndcg < 1.0

    def test_empty_list_rejected(self):
        empty = fr.RankedList.from_records([], ("a", "b"))
        with pytest.raises(fr.ValidationError):
            fr.measure(empty, HALF)

    def test_negative_score_rejected(self):
        ranked = make_ranked("ab", ("a", "b"), scores=[0.9, -0.2])
        with pytest.raises(fr.ValidationError):
            fr.measure(ranked, HALF)

    @pytest.mark.parametrize("ideal", [[0.2, 0.9], [0.9, 0.2, 0.95], [math.inf, 0.9]])
    def test_bad_ideal_rejected(self, ideal):
        ranked = make_ranked("ab", ("a", "b"), scores=[0.9, 0.2])
        with pytest.raises(fr.ValidationError):
            fr.measure(ranked, HALF, ideal_scores=ideal)


class TestFlatScoreVectors:
    # a (2, 1) list used to broadcast against the discount vector, and a
    # 2-D ideal used to escape as a bare numpy ValueError
    @pytest.mark.parametrize(
        "call",
        [
            lambda: fr.dcg([[0.9], [0.8]]),  # used to return 2.7726, not 1.4047
            lambda: fr.dcg(0.9),
            lambda: fr.ndcg([[0.9], [0.8]], [0.9, 0.8]),  # used to flatten to 1.0
            lambda: fr.ndcg([0.9, 0.8], [[0.9, 0.8]]),
            lambda: fr.measure(
                make_ranked("ab", ("a", "b"), scores=[0.9, 0.8]), HALF, ideal_scores=[[0.9, 0.8]]
            ),
        ],
        ids=["dcg-2d", "dcg-scalar", "ndcg-list-2d", "ndcg-ideal-2d", "measure-ideal-2d"],
    )
    def test_rejected_as_validation_error(self, call):
        with pytest.raises(fr.ValidationError, match="flat"):
            call()

    def test_flat_dcg_value(self):
        assert fr.dcg([0.9, 0.8]) == pytest.approx(0.9 + 0.8 / math.log2(3))


class TestDcgGains:
    @pytest.mark.parametrize("gains", [[math.nan], [0.9, math.inf], [-math.inf]],
                             ids=["nan", "inf", "minus-inf"])
    def test_non_finite_gains_rejected(self, gains):
        # dcg([nan]) used to return nan
        with pytest.raises(fr.ValidationError, match="finite"):
            fr.dcg(gains)

    def test_negative_gains_allowed(self):
        assert fr.dcg([-1.0, 0.5]) == pytest.approx(-1.0 + 0.5 / math.log2(3))

    def test_empty_is_zero(self):
        assert fr.dcg([]) == 0.0


class TestDcgOverflow:
    # each used to give inf, NaN or 0.0 after a numpy overflow RuntimeWarning
    @pytest.mark.parametrize(
        "call",
        [
            lambda: fr.dcg([1.7e308] * 3),  # inf
            lambda: fr.dcg([-1.7e308] * 3),  # -inf
            lambda: fr.ndcg([1.7e308] * 2, [1.7e308] * 2),  # inf / inf = NaN
            lambda: fr.ndcg([1e308, 1e308], [1.7e308, 1.7e308, 1.0]),  # finite / inf = 0.0
            lambda: fr.ndcg([1.0], [5e-324]),  # a finite ratio above the float range
            lambda: fr.measure(make_ranked("ab", ("a", "b"), scores=[1.7e308] * 2), HALF),
            lambda: fr.run_task(
                make_task(HALF.as_mapping(), {"a": [1.7e308], "b": [1.7e308]}, 2),
                list(fr.Algorithm),
            ),
        ],
        ids=["dcg", "dcg-negative", "ndcg-nan", "ndcg-zero", "ndcg-ratio", "measure",
             "run-task"],
    )
    def test_overflow_raises_validation_error_without_a_warning(self, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(fr.ValidationError, match="overflow"):
                call()

    def test_finite_sums_near_the_float_range_are_kept(self):
        # 1e308 + 1e308 / log2(3) is finite, so these keep their values
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fr.dcg([1e308, 1e308]) == 1e308 + 1e308 / math.log2(3)
            assert fr.ndcg([1e308, 1e308], [1e308, 1e308]) == 1.0
            assert fr.ndcg([1e308, 0.0], [1e308, 1e308]) == 1e308 / (1e308 + 1e308 / math.log2(3))


class TestNonNumericInputs:
    # none of these may escape as a bare ValueError from np.asarray
    @pytest.mark.parametrize(
        "call",
        [
            lambda: fr.ndcg(["x"], [1.0]),
            lambda: fr.ndcg([1.0], ["x"]),
            lambda: fr.dcg(["x"]),
            lambda: fr.kl_divergence(["x"], [1.0]),
            lambda: fr.kl_divergence([1.0], ["x"]),
            lambda: fr.measure(
                make_ranked("ab", ("a", "b"), scores=[0.9, 0.2]), HALF, ideal_scores=["x", "y"]
            ),
        ],
        ids=["ndcg-list", "ndcg-ideal", "dcg", "kl-p", "kl-q", "measure-ideal"],
    )
    def test_rejected_as_validation_error(self, call):
        with pytest.raises(fr.ValidationError, match="numeric"):
            call()


def random_case(rng, n_attr, length):
    """A fresh list of `length` attribute indices and a fresh distribution over n_attr labels."""
    labels = tuple(f"g{i}" for i in range(n_attr))
    w = rng.random(n_attr) + 0.05
    desired = fr.DesiredDistribution(labels=labels, proportions=w / w.sum())
    attrs = rng.integers(0, n_attr, size=length)
    scores = np.sort(rng.random(length))[::-1]
    return fr.RankedList(labels=labels, attributes=attrs, scores=scores), desired


def copies(ranked, desired):
    """Equal objects that share no array with the originals."""
    return (
        fr.RankedList(ranked.labels, ranked.attributes.copy(), ranked.scores.copy()),
        fr.DesiredDistribution(desired.labels, desired.proportions.copy()),
    )


# one call of each metric; depths scale with the list
METRIC_CALLS = [
    lambda r, d: fr.measure(r, d).to_dict(),
    lambda r, d: fr.infeasible_prefixes(r, d).tolist(),
    lambda r, d: fr.infeasible_count(r, d),
    lambda r, d: fr.ndkl(r, d),
    lambda r, d: [fr.skews_at_k(r, d, k).tolist() for k in {1, (len(r) + 1) // 2, len(r)}],
    lambda r, d: fr.min_skew_at_k(r, d, len(r)),
    lambda r, d: fr.max_skew_at_k(r, d, (len(r) + 1) // 2),
    lambda r, d: fr.proportions_at_k(r, len(r)).tolist(),
    lambda r, d: fr.prefix_counts(r).tolist(),
]


def every_metric(ranked, desired):
    return [call(ranked, desired) for call in METRIC_CALLS]


def brute_min_skew(seq, p, k):
    shares = [max(seq[:k].count(a) / k, fr.metrics.SKEW_EPSILON / k) for a in range(len(p))]
    return min(min(math.log(s / pa) for s, pa in zip(shares, p)), 0.0)


def brute_infeasible_count(seq, p):
    return sum(
        seq[:k].count(a) < ref_floor(k * pa)
        for k in range(1, len(seq) + 1)
        for a, pa in enumerate(p)
    )


class TestTableSlots:
    """The metrics keep the prefix counts and floors of the last (list, distribution) pair."""

    @pytest.mark.parametrize("length", [0, 1, 1000])
    def test_prefix_counts_row_i_covers_the_top_i_plus_one(self, length):
        ranked, _ = random_case(np.random.default_rng(61), 3, length)
        counts = fr.prefix_counts(ranked)
        assert counts.shape == (length, 3) and counts.dtype == np.int64
        seq = ranked.attributes
        want = [np.bincount(seq[: i + 1], minlength=3).tolist() for i in range(length)]
        assert counts.tolist() == want

    def test_tables_are_read_only(self):
        task = make_task({"a": 0.3, "b": 0.7}, {"a": [0.9, 0.5], "b": [0.8, 0.7]}, 3)
        ranked = fr.rank(task, "detgreedy")
        for table in (fr.prefix_counts(ranked), task.table.floors, task.table.ceils):
            with pytest.raises(ValueError):
                table[0, 0] = 9

    def test_alternating_objects_match_fresh_copies(self):
        rng = np.random.default_rng(11)
        lists = [random_case(rng, 4, n)[0] for n in (7, 40)]
        dists = [random_case(rng, 4, 1)[1] for _ in range(2)]
        pairs = [(r, d) for r in lists for d in dists]
        want = [every_metric(*copies(r, d)) for r, d in pairs]
        # each single call switches list, distribution or both; the orders give a
        # distribution its short list before its long one, and the other way round
        for order in ((0, 1, 2, 3), (0, 2, 1, 3), (3, 1, 2, 0)):
            for c, call in enumerate(METRIC_CALLS):
                for i in order:
                    assert call(*pairs[i]) == want[i][c]

    def test_task_table_and_measure_agree_on_floors(self):
        desired = {"a": 0.3, "b": 0.7}
        pools = {"a": [0.9, 0.5, 0.4, 0.3], "b": [0.8, 0.7, 0.1, 0.1]}
        task, fresh = make_task(desired, pools, 5), make_task(desired, pools, 5)
        want = fr.measure(fr.rank(fresh, "detcons"), fresh.desired).to_dict()
        ranked = fr.rank(task, "detcons")  # builds the task's 5 + 2 + 2 row table
        assert fr.measure(ranked, task.desired).to_dict() == want
        assert task.table.floors.tolist() == [
            [ref_floor(k * p) for p in task.desired.proportions] for k in range(1, 5 + 2 + 3)
        ]

    def test_a_kept_list_is_checked_against_each_new_distribution(self):
        ranked = make_ranked("abab", ("a", "b"))
        fr.measure(ranked, HALF)
        other = fr.DesiredDistribution.from_mapping({"a": 0.5, "c": 0.5})
        with pytest.raises(fr.SupportMismatch):
            fr.skews_at_k(ranked, other, 1)

    def test_zero_proportion_raises_after_the_tables_are_kept(self):
        ranked = make_ranked("abab", ("a", "b", "c"))
        desired = fr.DesiredDistribution.from_mapping({"a": 0.5, "b": 0.5, "c": 0.0})
        assert fr.infeasible_prefixes(ranked, desired).tolist() == []
        for _ in range(2):
            with pytest.raises(fr.ZeroDesiredProportion):
                fr.skews_at_k(ranked, desired, 2)

    def test_labels_given_as_a_list_are_kept_as_a_tuple(self):
        labels = ["a", "b"]
        ranked = fr.RankedList(labels, np.array([0, 1, 1, 0]), np.array([4.0, 3.0, 2.0, 1.0]))
        desired = fr.DesiredDistribution.from_mapping({"a": 0.25, "b": 0.75})
        want = every_metric(*copies(ranked, desired))
        assert every_metric(ranked, desired) == want
        labels[0] = "z"
        assert ranked.labels == ("a", "b")
        assert every_metric(ranked, desired) == want

    @pytest.mark.parametrize(
        "clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy], ids=["pickle", "deepcopy"]
    )
    def test_copies_are_rebuilt_read_only(self, clone):
        ranked, desired = random_case(np.random.default_rng(3), 3, 40)
        want = fr.infeasible_count(ranked, desired)
        ranked2, desired2 = clone((ranked, desired))
        assert isinstance(ranked2.labels, tuple)
        assert fr.infeasible_count(ranked2, desired2) == want
        for array in (ranked2.attributes, ranked2.scores, desired2.proportions):
            with pytest.raises(ValueError):
                array[0] = 1
        assert fr.infeasible_count(ranked2, desired2) == want

    def test_new_objects_after_the_last_ones_died(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            ranked, desired = random_case(rng, 3, 30)
            fr.infeasible_prefixes(ranked, desired)
            del ranked, desired
            gc.collect()
            # same shapes, other data: a recycled id must not find the dead tables
            ranked, desired = random_case(rng, 3, 30)
            seq, p = ranked.attributes.tolist(), desired.proportions.tolist()
            counts = [[seq[:k].count(a) for a in range(3)] for k in range(1, 31)]
            assert fr.prefix_counts(ranked).tolist() == counts
            assert fr.infeasible_count(ranked, desired) == brute_infeasible_count(seq, p)
            assert every_metric(ranked, desired) == every_metric(*copies(ranked, desired))

    def test_standalone_calls_match_brute_force(self):
        rng = np.random.default_rng(23)
        for n_attr in range(1, 8):
            for length in (1, 9, 120, 1000):
                ranked, desired = random_case(rng, n_attr, length)
                seq, p = ranked.attributes.tolist(), desired.proportions.tolist()
                for k in sorted({1, min(10, length), length}):
                    want = brute_min_skew(seq, p, k)
                    got = fr.min_skew_at_k(*copies(ranked, desired), k)
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
                got = fr.infeasible_count(*copies(ranked, desired))
                assert got == brute_infeasible_count(seq, p)

    def test_threads_measuring_their_own_lists_match_serial_results(self):
        rng = np.random.default_rng(31)
        work = [[random_case(rng, 1 + (t + i) % 5, 5 + 9 * i) for i in range(3)] for t in range(8)]
        serial = [[every_metric(r, d) for r, d in cases] for cases in work]
        mismatches, rounds, errors = [0] * 8, [0] * 8, [None] * 8
        deadline = time.monotonic() + 2.0

        def measure_own(t):
            try:
                while rounds[t] < 50 and time.monotonic() < deadline:
                    if [every_metric(r, d) for r, d in work[t]] != serial[t]:
                        mismatches[t] += 1
                    rounds[t] += 1
            except Exception as exc:  # a raise would otherwise only end the thread
                errors[t] = repr(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=measure_own, args=(t,), daemon=True)
                       for t in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [None] * 8
        assert all(rounds), rounds
        assert mismatches == [0] * 8


def bits(value):
    """A value's exact bits: arrays by dtype, shape and bytes, floats by their IEEE encoding."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return np.float64(value).tobytes()
    return value


# every call the memo serves, at every depth of the list
def memo_calls(length):
    calls = [fr.ndkl, fr.infeasible_prefixes, fr.infeasible_index, fr.infeasible_count]
    for k in range(1, length + 1):
        calls += [
            lambda r, d, k=k: fr.skews_at_k(r, d, k),
            lambda r, d, k=k: fr.skew_at_k(r, d, k % len(r.labels), k),
            lambda r, d, k=k: fr.min_skew_at_k(r, d, k),
            lambda r, d, k=k: fr.max_skew_at_k(r, d, k),
        ]
    return calls


class TestLogShareMemo:
    """measure and the skews read one kept log-share matrix; what they return is their own."""

    @settings(max_examples=60, deadline=None)
    @given(list_with_desired())
    @example(THIRDS_ABOVE_SHARE)
    def test_calls_after_measure_match_a_cold_memo_bit_for_bit(self, case):
        ranked, desired = case
        calls = memo_calls(len(ranked))
        fr.measure(ranked, desired)
        warm = [bits(call(ranked, desired)) for call in calls]
        assert warm == [bits(call(*copies(ranked, desired))) for call in calls]
        # the Python reductions over a skew row return the element numpy's would
        for k in range(1, len(ranked) + 1):
            row = fr.skews_at_k(ranked, desired, k)
            low, high = fr.min_skew_at_k(ranked, desired, k), fr.max_skew_at_k(ranked, desired, k)
            assert bits(low) == bits(min(float(row.min()), 0.0))
            assert bits(high) == bits(max(float(row.max()), 0.0))

    def test_returned_skews_own_their_data(self):
        ranked, desired = random_case(np.random.default_rng(41), 4, 50)
        want = fr.skews_at_k(*copies(ranked, desired), 50)
        report = fr.measure(ranked, desired)
        skews = fr.skews_at_k(ranked, desired, 50)
        for array in (report.skew, skews):
            assert array.base is None and array.flags.owndata and array.flags.c_contiguous
            assert array.shape == (4,)
            array[:] = 99.0
        assert bits(fr.skews_at_k(ranked, desired, 50)) == bits(want)
        assert bits(fr.measure(ranked, desired).skew) == bits(want)
        assert fr.max_skew_at_k(ranked, desired, 50) == max(float(want.max()), 0.0)

    def test_measure_keeps_attribute_major_tables(self):
        ranked, desired = random_case(np.random.default_rng(59), 4, 30)
        fr.measure(ranked, desired)
        kept = vars(fr.metrics._pair(ranked, desired))
        for name in ("logs", "shares", "violations"):
            table = kept[name]
            assert table.shape == (4, 30), name
            assert table.flags.c_contiguous and not table.flags.writeable, name

    def test_ndkl_accepts_a_zero_proportion_the_list_never_shows(self):
        ranked = make_ranked("abab", ("a", "b", "c"))
        desired = fr.DesiredDistribution.from_mapping({"a": 0.5, "b": 0.5, "c": 0.0})
        for _ in range(2):
            assert fr.ndkl(ranked, desired) == 0.2816450300785086
            assert fr.ndkl(ranked, desired) == pytest.approx(naive_ndkl("abab", desired), rel=1e-12)
            # ndkl's matrix for a zero proportion is not kept for the skews
            with pytest.raises(fr.ZeroDesiredProportion):
                fr.skews_at_k(ranked, desired, 2)
            with pytest.raises(fr.ZeroDesiredProportion):
                fr.measure(ranked, desired)

    def test_a_chain_of_calls_on_one_pair_rounds_floors_once(self, monkeypatch):
        rounded = []
        real = fr.metrics.below_floor
        monkeypatch.setattr(fr.metrics, "below_floor", lambda c, x: rounded.append(1) or real(c, x))
        ranked, desired = random_case(np.random.default_rng(43), 3, 30)
        fr.min_skew_at_k(ranked, desired, 10)
        assert rounded == [1]
        fr.skews_at_k(ranked, desired, 30)
        fr.ndkl(ranked, desired)
        fr.infeasible_prefixes(ranked, desired)
        fr.infeasible_count(ranked, desired)
        fr.measure(ranked, desired)
        assert rounded == [1]

    def test_checks_run_in_order(self):
        ranked = make_ranked("abab", ("a", "b"))
        zero = fr.DesiredDistribution.from_mapping({"a": 1.0, "b": 0.0})
        other = fr.DesiredDistribution.from_mapping({"a": 0.5, "c": 0.5})
        empty = fr.RankedList(("a", "b"), np.array([], dtype=np.int64), np.array([]))
        with pytest.raises(fr.SupportMismatch):
            fr.min_skew_at_k(ranked, other, 9)
        with pytest.raises(fr.KOutOfRange):
            fr.min_skew_at_k(ranked, zero, 9)
        with pytest.raises(fr.ValidationError, match="empty"):
            fr.measure(empty, zero)
        with pytest.raises(fr.ZeroDesiredProportion):
            fr.max_skew_at_k(ranked, zero, 2)
        with pytest.raises(fr.ZeroDesiredProportion):
            fr.measure(ranked, zero)
        hits = fr.metrics._pair.cache_info().hits
        fr.metrics._pair(ranked, zero)
        assert fr.metrics._pair.cache_info().hits == hits + 1  # the entry measure kept

    @pytest.mark.parametrize(
        "ranked, desired",
        [
            random_case(np.random.default_rng(67), 4, 90),
            (make_ranked("abab", ("a", "b", "c")),
             fr.DesiredDistribution.from_mapping({"a": 0.5, "b": 0.5, "c": 0.0})),
        ],
        ids=["positive", "zero-proportion"],
    )
    def test_an_entry_holds_every_table_read_only(self, ranked, desired):
        entry = fr.metrics._pair(ranked, desired)
        cold = fr.metrics._Pair(ranked.attributes, desired)
        # built in this order, the mask before the log-shares
        names = ["counts", "rows", "positive", "violations", "infeasible", "shares", "logs"]
        assert list(vars(entry)) == list(vars(cold)) == names
        assert entry.positive is cold.positive is bool(desired.proportions.all())
        arrays = [entry.counts, *entry.rows, entry.violations, entry.infeasible,
                  entry.shares, entry.logs]
        assert all(not array.flags.writeable for array in arrays)
        assert [bits(array) for array in arrays] == [
            bits(array) for array in (cold.counts, *cold.rows, cold.violations, cold.infeasible,
                                      cold.shares, cold.logs)
        ]

    def test_measure_keeps_the_infeasible_row_and_infeasible_prefixes_reads_it(self, monkeypatch):
        reduced = []
        real = fr.metrics._any
        monkeypatch.setattr(fr.metrics, "_any", lambda *a, **kw: reduced.append(1) or real(*a, **kw))
        ranked, desired = random_case(np.random.default_rng(61), 5, 200)
        fr.measure(ranked, desired)
        entry = fr.metrics._pair(ranked, desired)
        row = vars(entry)["infeasible"]
        assert row.shape == (200,) and not row.flags.writeable
        assert bits(row) == bits(entry.violations.any(axis=0)) and row.any()
        assert reduced == [1]
        warm = fr.infeasible_prefixes(ranked, desired)
        assert reduced == [1]  # no second reduction over the attributes
        assert bits(warm) == bits(fr.infeasible_prefixes(*copies(ranked, desired)))
        assert reduced == [1, 1]  # the cold call reduces once
        assert not np.shares_memory(warm, row)

    def test_keeps_at_most_one_pair_alive(self):
        rng = np.random.default_rng(47)
        ranked, desired = random_case(rng, 3, 30)
        fr.measure(ranked, desired)
        refs = weakref.ref(ranked), weakref.ref(desired)
        del ranked, desired
        fr.ndkl(*random_case(rng, 3, 30))
        gc.collect()
        assert [ref() for ref in refs] == [None, None]


def method_form_columns(attrs, desired, scores, k, ideal):
    """The metrics core's columns at depth k, every reduction by its ndarray method.

    attrs and scores are one list's (n,) or a batch's (m, n). The tables come
    from a fresh entry; these expressions are the ones the core made before it
    called the ufuncs' own reductions.
    """
    entry = fr.metrics._Pair(attrs, desired)
    violations, skew, weights = entry.violations, entry.logs[..., k - 1], entry.rows.weights
    discount, prefix = entry.rows.discount[:k], ideal[:k]
    num, den = (scores[..., :k] / discount).sum(axis=-1), (prefix / discount).sum()
    return (
        violations.any(axis=-2).sum(axis=-1),
        violations.sum(axis=(-2, -1)),
        skew.min(axis=-1, initial=0.0),
        skew.max(axis=-1, initial=0.0),
        ((entry.shares * entry.logs).sum(axis=-2) * weights).sum(axis=-1) / weights.sum(),
        num / den,
    )


@st.composite
def audited_lists(draw):
    """A list over 1-10 attributes, of length 1-300, drifted off its distribution; an ideal; a depth."""
    n, length = draw(st.integers(1, 10)), draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ranked, desired = random_case(rng, n, length)
    drift = 0.7 * desired.proportions + 0.3 * rng.dirichlet(np.ones(n))
    attrs = rng.choice(n, size=length, p=drift / drift.sum())
    ranked = fr.RankedList(ranked.labels, attrs, ranked.scores)
    ideal = np.sort(np.concatenate([ranked.scores, rng.random(rng.integers(0, length + 1))]))[::-1]
    return ranked, desired, ideal, draw(st.integers(1, length))


class TestUfuncReductions:
    """The core's ufunc reductions give the bits of the ndarray methods they replaced."""

    @settings(max_examples=150, deadline=None)
    @given(audited_lists())
    @example((*THIRDS_ABOVE_SHARE, np.ones(6), 6))
    def test_measure_matches_the_method_form(self, case):
        ranked, desired, ideal, k = case
        want = method_form_columns(ranked.attributes, desired, ranked.scores, k, ideal)
        report = fr.measure(ranked, desired, ideal_scores=ideal, k=k)
        got = (report.infeasible_index, report.infeasible_count, report.min_skew,
               report.max_skew, report.ndkl, report.ndcg)
        assert [bits(value) for value in got] == [bits(column.item()) for column in want]
        assert bits(fr.ndkl(ranked, desired)) == bits(want[4].item())
        prefixes = np.flatnonzero(fr.metrics._Pair(ranked.attributes, desired).violations.any(axis=0))
        assert bits(fr.infeasible_prefixes(ranked, desired)) == bits(prefixes + 1)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 10), st.integers(1, 300), st.integers(0, 2**32 - 1))
    def test_run_task_rows_match_the_method_form(self, n, k, seed):
        task = random_task(np.random.default_rng(seed), n, pool_size=k, k=k)
        rows = fr.run_task(task, list(fr.Algorithm), fallback=True).rows
        ranked = [fr.rank(task, algo, True) for algo in rows]
        attrs = np.array([r.attributes for r in ranked])
        scores = np.array([r.scores for r in ranked])
        want = np.column_stack(method_form_columns(attrs, task.desired, scores, k, task.merged[1]))
        assert [row.tobytes() for row in rows.values()] == [row.tobytes() for row in want]


# prints the exact bits of every metric of each (seed, length) case, measured in the given order
_ROWS_SCRIPT = """
import sys
import numpy as np
import fairrank as fr
for seed, length in [tuple(map(int, case.split(":"))) for case in sys.argv[1:]]:
    rng = np.random.default_rng(seed)
    w = rng.random(4) + 0.05
    desired = fr.DesiredDistribution(("a", "b", "c", "d"), w / w.sum())
    ranked = fr.RankedList(desired.labels, rng.integers(0, 4, length),
                           np.sort(rng.random(length))[::-1])
    ideal = np.concatenate([ranked.scores + 0.5, [0.0]])
    report = fr.measure(ranked, desired, ideal_scores=ideal)
    values = [report.min_skew, report.max_skew, report.ndkl, report.ndcg,
              fr.ndkl(ranked, desired), fr.dcg(ranked.scores), fr.ndcg(ranked, ideal)]
    print(seed, length, report.skew.tobytes().hex(), *(float(v).hex() for v in values),
          report.infeasible_index, report.infeasible_count)
"""


class TestPrefixRows:
    """Rows that depend only on prefix length are kept once per process and never handed out."""

    def kept_rows(self, n):
        """The kept rows that _prefix_rows(n) slices."""
        return tuple(row.base for row in fr.metrics._prefix_rows(n))

    def test_rows_are_read_only(self):
        fr.measure(*random_case(np.random.default_rng(71), 3, 700))
        kept = self.kept_rows(700)
        for n in (1, 2, 3, 700, 1000, 1025):
            # the rows of the power of two at or above n
            size = self.kept_rows(n)[0].size
            assert n <= size < 2 * n and size & (size - 1) == 0, (n, size)
        for row in kept + tuple(fr.metrics._prefix_rows(5)):
            assert not row.flags.writeable
            with pytest.raises(ValueError):
                row[0] = 9.0

    def test_rows_match_rows_built_for_each_length(self):
        fr.measure(*random_case(np.random.default_rng(73), 2, 1000))
        for n in (0, 1, 2, 3, 7, 128, 999, 1000, 1023, 1024, 1025, 2049):
            positions, clamps, discount, weights = fr.metrics._prefix_rows(n)
            fresh = np.arange(1.0, n + 1)
            assert bits(positions) == bits(fresh)
            assert bits(clamps) == bits(fr.metrics.SKEW_EPSILON / fresh)
            assert bits(discount) == bits(np.log2(np.arange(2.0, n + 2)))
            assert bits(weights) == bits(1.0 / np.log2(np.arange(2.0, n + 2)))

    def test_returned_arrays_share_no_memory_with_a_kept_row(self):
        ranked, desired = random_case(np.random.default_rng(79), 4, 300)
        report = fr.measure(ranked, desired)
        returned = [report.skew, fr.prefix_counts(ranked)]
        returned += [fr.skews_at_k(ranked, desired, k) for k in (1, 150, 300)]
        for row in self.kept_rows(300):
            for array in returned:
                assert not np.shares_memory(array, row)

    def test_order_of_lengths_gives_the_bits_of_a_fresh_interpreter(self):
        def run(*cases):
            result = subprocess.run([sys.executable, "-c", _ROWS_SCRIPT, *cases],
                                    capture_output=True, text=True, check=True)
            return dict(zip(cases, result.stdout.splitlines()))

        short, long = "5:9", "6:900"
        fresh = {**run(short), **run(long)}
        assert run(long, short) == fresh
        assert run(short, long) == fresh

    def test_threads_growing_and_reading_see_one_length(self):
        fr.metrics._rows_of.cache_clear()
        lengths = [1 + (37 * i) % 2000 for i in range(200)]
        errors, rounds, epsilon = [], [0, 0], fr.metrics.SKEW_EPSILON
        deadline = time.monotonic() + 1.0

        def read(t):
            try:
                while time.monotonic() < deadline:
                    if t == 0:
                        fr.metrics._rows_of.cache_clear()  # start the growth over
                    for n in lengths:
                        positions, clamps, discount, weights = fr.metrics._prefix_rows(n)
                        sizes = {positions.size, clamps.size, discount.size, weights.size}
                        ends = positions[-1], clamps[-1]
                        if sizes != {n} or ends != (n, epsilon / n):
                            errors.append((t, n, sizes))
                    rounds[t] += 1
            except Exception as exc:  # a raise would otherwise only end the thread
                errors.append(repr(exc))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(t,), daemon=True) for t in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(thread.is_alive() for thread in threads)
        assert all(rounds), rounds
        assert errors == []


def _rebinds_or_descriptor(node) -> bool:
    """A global statement, or a class that defines __get__: a hand-rolled cache."""
    if isinstance(node, ast.ClassDef):
        return any(isinstance(f, ast.FunctionDef) and f.name == "__get__" for f in node.body)
    return isinstance(node, ast.Global)


def test_no_module_of_the_package_has_a_global_statement():
    """What a module or an object keeps between calls is a functools cache, never a rebind
    or a hand-rolled descriptor."""
    package = Path(fr.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if _rebinds_or_descriptor(node)
    ]
    assert found == []


def _unused_imports(tree) -> list[str]:
    """Names a module imports but neither uses nor lists in __all__; from __future__ is exempt."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_no_module_of_the_package_imports_a_name_it_does_not_use():
    package = Path(fr.__file__).parent
    found = [
        f"{path.name}: {name}"
        for path in sorted(package.glob("*.py"))
        for name in _unused_imports(ast.parse(path.read_text()))
    ]
    assert found == []
