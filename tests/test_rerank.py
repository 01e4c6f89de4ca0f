import dataclasses
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairrank as fr
from conftest import make_task, random_task, ref_ceil, ref_floor, spawn_rng
from fairrank.rerank import Algorithm, _ceiling_keys, _pick

GREEDY_FAMILY = ("detgreedy", "detcons", "detrelaxed")
CONSTRAINED = GREEDY_FAMILY + ("detconstsort",)


def exact_det_cons(task, pressure=lambda ce, q: ce / q):
    """detcons in exact rationals, the proportions read as the decimals they print as."""
    p = [Fraction(repr(float(x))) for x in task.desired.proportions]
    pools = [s.tolist() for s in task.pool.scores]
    counts = [0] * len(p)
    out = []
    for k in range(1, task.k_max + 1):
        floors = [math.floor(k * q) for q in p]
        ceils = [math.ceil(k * q) for q in p]
        cands = [a for a in range(len(p)) if counts[a] < floors[a]]
        keys = [0] * len(p)
        if not cands:
            cands = [a for a in range(len(p)) if counts[a] < ceils[a]]
            keys = [pressure(ce, q) for ce, q in zip(ceils, p)]
        a = min(cands, key=lambda a: (keys[a], -pools[a][counts[a]], a))
        out.append(a)
        counts[a] += 1
    return out


def ref_det_const_sort(task, fallback=False):
    """DetConstSort as the paper writes it: (attributes, scores, fallback events) of the top k_max.

    A counter k advances from 1. Every attribute whose floor(k * p_a) rises
    appends its next candidate with movement bound k, best next score first
    (ties by index); each new candidate swaps with its left neighbor while
    the neighbor scores lower and may sit one position (1-based) further
    down. A rising attribute with no candidate left raises, naming the
    lowest such index, unless the step's other candidates place the last
    candidate of every pool. With fallback, the step's exhausted attributes
    come last, in index order, and each instead places the best next
    candidate of an attribute below min(ceil(k * p_a), pool length), else
    of any attribute with candidates left (ties by index), until every
    candidate is placed.
    """
    p = task.desired.proportions.tolist()
    pools = [s.tolist() for s in task.pool.scores]
    total = sum(map(len, pools))
    counts, min_counts = [0] * len(p), [0] * len(p)
    attrs, scores, bounds = [], [], []
    events = 0
    k = 0
    while len(attrs) < task.k_max:
        k += 1
        floors = [ref_floor(k * q) for q in p]
        changed = [a for a in range(len(p)) if floors[a] > min_counts[a]]
        rising = [a for a in changed if counts[a] < len(pools[a])]
        exhausted = [a for a in changed if a not in rising]
        if exhausted and not fallback and len(attrs) + len(rising) < total:
            label = task.desired.labels[exhausted[0]]
            raise fr.InsufficientCandidates(
                f"detconstsort: pool for {label!r} exhausted at counter {k}"
            )
        for a in sorted(rising, key=lambda a: (-pools[a][counts[a]], a)) + exhausted:
            if counts[a] == len(pools[a]):
                if len(attrs) == total:
                    break
                ceils = [ref_ceil(k * q) for q in p]
                left = [b for b in range(len(p)) if counts[b] < min(ceils[b], len(pools[b]))]
                left = left or [b for b in range(len(p)) if counts[b] < len(pools[b])]
                a = min(left, key=lambda b: (-pools[b][counts[b]], b))
                events += 1
            attrs.append(a)
            scores.append(pools[a][counts[a]])
            bounds.append(k)
            counts[a] += 1
            j = len(attrs) - 1
            while j > 0 and bounds[j - 1] >= j + 1 and scores[j - 1] < scores[j]:
                for column in (attrs, scores, bounds):
                    column[j - 1], column[j] = column[j], column[j - 1]
                j -= 1
        min_counts = floors
    return attrs[: task.k_max], scores[: task.k_max], events


def assert_det_const_sort_matches_reference(task, fallback=False):
    try:
        expected = ref_det_const_sort(task, fallback)
    except fr.InsufficientCandidates as exc:
        with pytest.raises(fr.InsufficientCandidates) as raised:
            fr.rank(task, "detconstsort", fallback)
        assert str(raised.value) == str(exc)
        return str(exc)
    ranked = fr.rank(task, "detconstsort", fallback)
    assert (ranked.attributes.tolist(), ranked.scores.tolist(), ranked.fallback_events) == expected
    return None


def balanced_task(k=4):
    return make_task({"a": 0.5, "b": 0.5}, {"a": [0.9, 0.8], "b": [0.7, 0.6]}, k)


def four_group_task():
    # one candidate per attribute value; only vanilla and detgreedy can
    # complete it, the other three demand a second a1/a2 candidate mid-list
    return make_task(
        {"a1": 0.4, "a2": 0.4, "a3": 0.1, "a4": 0.1},
        {"a1": [0.1], "a2": [0.2], "a3": [0.3], "a4": [0.4]},
        4,
    )


class TestVanilla:
    def test_global_score_merge(self):
        ranked = fr.rank(four_group_task(), "vanilla")
        assert ranked.attribute_labels() == ["a4", "a3", "a2", "a1"]
        assert ranked.scores.tolist() == [0.4, 0.3, 0.2, 0.1]

    def test_single_attribute_passthrough(self):
        task = make_task({"a": 1.0}, {"a": [0.9, 0.8]}, 2)
        ranked = fr.rank(task, "vanilla")
        assert ranked.scores.tolist() == [0.9, 0.8]

    def test_equal_scores_break_by_attribute_order(self):
        task = make_task({"a": 0.5, "b": 0.5}, {"a": [0.5], "b": [0.5]}, 2)
        assert fr.rank(task, "vanilla").attribute_labels() == ["a", "b"]

    def test_truncates_to_k(self):
        task = make_task({"a": 0.5, "b": 0.5}, {"a": [0.9, 0.8], "b": [0.7, 0.6]}, 3)
        assert len(fr.rank(task, "vanilla")) == 3


class TestDetGreedy:
    def test_four_group_counterexample_trace(self):
        ranked = fr.rank(four_group_task(), "detgreedy")
        assert ranked.attribute_labels() == ["a4", "a3", "a2", "a1"]
        desired = four_group_task().desired
        assert fr.infeasible_index(ranked, desired) == 1
        assert fr.infeasible_prefixes(ranked, desired).tolist() == [3]

    def test_balanced_hand_trace(self):
        ranked = fr.rank(balanced_task(), "detgreedy")
        assert ranked.attribute_labels() == ["a", "b", "a", "b"]
        assert ranked.scores.tolist() == [0.9, 0.7, 0.8, 0.6]

    def test_single_attribute_equals_vanilla(self):
        task = make_task({"a": 1.0}, {"a": [0.9, 0.5, 0.1]}, 3)
        assert fr.rank(task, "detgreedy").scores.tolist() == fr.rank(task, "vanilla").scores.tolist()


class TestDetConsAndRelaxed:
    @pytest.mark.parametrize("algo", ["detcons", "detrelaxed"])
    def test_balanced_hand_trace(self, algo):
        ranked = fr.rank(balanced_task(), algo)
        assert ranked.attribute_labels() == ["a", "b", "a", "b"]
        assert ranked.scores.tolist() == [0.9, 0.7, 0.8, 0.6]

    def test_mid_state_prefers_soonest_binding_constraint(self):
        # after 9 placements with counts (5, 3, 1) under p = (0.55, 0.30, 0.15),
        # the next ceiling binds at position 11 for the first attribute vs 14
        # for the third, so detcons/detrelaxed pick it even at a lower score
        pools = [
            [0.9, 0.8, 0.7, 0.6, 0.5, 0.2],
            [0.95, 0.93, 0.91, 0.9],
            [0.85, 0.8],
        ]
        counts = (5, 3, 1)
        nxt = [pool[c] for pool, c in zip(pools, counts)]
        p = (0.55, 0.30, 0.15)
        task = make_task(dict(zip("abc", p)), dict(zip("abc", pools)), 10)
        floors, ceils = task.table.floor_rows, task.table.ceil_rows
        for algo, expected in (("detcons", 0), ("detrelaxed", 0), ("detgreedy", 2)):
            keys = _ceiling_keys(task, Algorithm(algo))
            assert all(c >= f for c, f in zip(counts, floors[9]))
            assert _pick(counts, floors[9], ceils[9], nxt, keys[9]) == expected

    def test_equal_pressures_tie_on_score(self):
        # under p = (0.05, 0.35, 0.6) at k = 59 every ceiling pressure
        # ceil(k * p_a) / p_a is exactly 60, but in floats 21 / 0.35 gives
        # 60.00000000000001; the tie must go to the best next score
        p = (0.05, 0.35, 0.6)
        task = make_task(dict(zip("abc", p)), {a: [0.5] * 59 for a in "abc"}, 59)
        floors, ceils = task.table.floor_rows, task.table.ceil_rows
        keys = _ceiling_keys(task, Algorithm.DET_CONS)
        assert floors[58] == [2, 20, 35] and ceils[58] == [3, 21, 36]
        assert ceils[58][1] / p[1] > ceils[58][0] / p[0] == 60.0
        assert keys[58][0] == keys[58][1] == keys[58][2]
        # next scores after counts (2, 20, 35), all at their floors and below their ceilings
        assert _pick([2, 20, 35], floors[58], ceils[58], [0.5, 0.9, 0.7], keys[58]) == 1

    def test_decimal_mix_matches_exact_rational_reference(self):
        p = (0.05, 0.35, 0.6)
        rng = spawn_rng(59)
        changed = 0
        for trial in range(40):
            k = int(rng.integers(20, 101))
            pools = {
                label: np.round(np.sort(rng.random(k))[::-1], 1).tolist()
                for label in ("a", "b", "c")
            }
            task = make_task(dict(zip("abc", p)), pools, k)
            expected = exact_det_cons(task)
            ranked = fr.rank(task, "detcons")
            assert ranked.attributes.tolist() == expected
            float_keyed = exact_det_cons(task, pressure=lambda ce, q: ce / float(q))
            changed += float_keyed != expected
        # float-keyed pressures would get some of these rankings wrong
        assert changed > 0

    @pytest.mark.parametrize("algo", ["detcons", "detrelaxed"])
    def test_single_attribute_equals_vanilla(self, algo):
        task = make_task({"a": 1.0}, {"a": [0.9, 0.5, 0.1]}, 3)
        assert fr.rank(task, algo).scores.tolist() == [0.9, 0.5, 0.1]

    @pytest.mark.parametrize("algo", ["detcons", "detrelaxed", "detconstsort"])
    def test_single_candidate_pools_exhaust(self, algo):
        with pytest.raises(fr.InsufficientCandidates):
            fr.rank(four_group_task(), algo)


class TestPick:
    def test_below_floor_beats_every_key(self):
        # a is below its floor: it wins over b's lower key and higher score,
        # and still wins once its pool is exhausted, so the caller falls back
        assert _pick([0, 0], [1, 0], [2, 2], [0.1, 0.9], [5, 0]) == 0
        assert _pick([0, 0], [1, 0], [2, 2], [-math.inf, 0.9], [5, 0]) == 0
        # among attributes below their floors the next score decides, not the key
        assert _pick([0, 0, 0], [1, 1, 0], [1, 1, 1], [0.2, 0.3, 0.9], [0, 5, 0]) == 1

    def test_one_scan_equals_floor_then_ceiling_scans(self):
        def scan(counts, limit, nxt, key):
            eligible = [a for a in range(len(counts)) if counts[a] < limit[a]]
            return min(eligible, key=lambda a: (key[a], -nxt[a], a), default=-1)

        rng = spawn_rng(41)
        for _ in range(2000):
            n = int(rng.integers(1, 6))
            counts = rng.integers(0, 4, n).tolist()
            floor = rng.integers(0, 4, n).tolist()
            limit = [f + int(d) for f, d in zip(floor, rng.integers(0, 2, n))]
            nxt = rng.choice([-math.inf, 0.25, 0.5, 0.75], n).tolist()
            key = rng.integers(0, 3, n).tolist()
            below = scan(counts, floor, nxt, [0] * n)
            expected = below if below >= 0 else scan(counts, limit, nxt, key)
            assert _pick(counts, floor, limit, nxt, key) == expected
            # with a zero floor row it is the plain ceiling scan
            assert _pick(counts, [0] * n, limit, nxt, key) == scan(counts, limit, nxt, key)


class TestDetConstSort:
    def test_balanced_hand_trace_blocked_swap(self):
        # the position-4 insertion of a(0.8) cannot swap past b(0.7): b was
        # inserted at counter 2 and may not sit below position 2
        ranked = fr.rank(balanced_task(), "detconstsort")
        assert ranked.attribute_labels() == ["a", "b", "a", "b"]
        assert ranked.scores.tolist() == [0.9, 0.7, 0.8, 0.6]

    def test_single_attribute_score_order(self):
        task = make_task({"a": 1.0}, {"a": [0.5, 0.4, 0.3]}, 3)
        assert fr.rank(task, "detconstsort").scores.tolist() == [0.5, 0.4, 0.3]

    def test_low_proportion_attributes_never_placed(self):
        task = make_task(
            {"a1": 0.4, "a2": 0.4, "a3": 0.1, "a4": 0.1},
            {"a1": [0.1, 0.05], "a2": [0.2, 0.15], "a3": [0.3], "a4": [0.4]},
            4,
        )
        ranked = fr.rank(task, "detconstsort")
        assert ranked.attribute_labels() == ["a2", "a2", "a1", "a1"]
        assert ranked.scores.tolist() == [0.2, 0.15, 0.1, 0.05]
        assert fr.infeasible_index(ranked, task.desired) == 0

    def test_exhaustion_names_attribute_and_counter_like_the_reference(self):
        # a1 and a2 rise together at counters 3 and 5; at 5 both are empty
        error = assert_det_const_sort_matches_reference(four_group_task())
        assert error == "detconstsort: pool for 'a1' exhausted at counter 5"

    def test_fallback_stops_once_every_candidate_is_placed(self):
        # pools of 7/1/2 hold exactly k = 10; once b runs dry, the last counter
        # step asks one more candidate of a pool after all ten are placed, and
        # its fallback used to find every pool empty
        task = make_task(
            {"a": 4227 / 10001, "b": 2585 / 10001, "c": 3189 / 10001},
            {"a": [0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3], "b": [0.85], "c": [0.75, 0.65]},
            10,
        )
        error = assert_det_const_sort_matches_reference(task)
        assert error == "detconstsort: pool for 'b' exhausted at counter 8"
        ranked = fr.rank(task, "detconstsort", fallback=True)
        assert ranked.fallback_events > 0
        for a, pool in enumerate(task.pool.scores):
            assert ranked.scores[ranked.attributes == a].tolist() == pool.tolist()

    def test_random_tasks_match_reference(self):
        for trial in range(90):
            task = random_task(spawn_rng(23, trial), num_attr=2 + trial % 9)
            assert assert_det_const_sort_matches_reference(task) is None

    @pytest.mark.parametrize("n", [2, 3, 5, 10])
    def test_long_event_walks_match_reference(self, n):
        # k = 1000 walks about 1,000 floor rises, far past the small tasks' few
        for trial in range(2):
            task = random_task(spawn_rng(29, n, trial), num_attr=n, pool_size=1000, k=1000)
            assert assert_det_const_sort_matches_reference(task) is None

    def test_attributes_rising_together_on_tied_scores_go_by_index(self):
        # all ten floors rise at k = 10, 20, ... with equal next scores, so
        # only the tie rule orders each step
        p = {f"a{i}": 0.1 for i in range(10)}
        pool = [1.0 - i / 10 for i in range(10)]
        task = make_task(p, {a: pool for a in p}, 100)
        assert assert_det_const_sort_matches_reference(task) is None
        assert fr.rank(task, "detconstsort").attributes.tolist() == list(range(10)) * 10
        # scores on a 0.25 grid tie some of the ten and not others
        for trial in range(20):
            rng = spawn_rng(37, trial)
            pools = {a: sorted(np.round(rng.random(12) * 4) / 4, reverse=True) for a in p}
            assert assert_det_const_sort_matches_reference(make_task(p, pools, 100)) is None

    def test_three_way_rises_at_multiples_of_twenty(self):
        # p = (0.05, 0.35, 0.6): all three floors rise at k = 20, 40, ...
        p = {"a": 0.05, "b": 0.35, "c": 0.6}
        for trial in range(20):
            rng = spawn_rng(41, trial)
            pools = {a: sorted(rng.random(100), reverse=True) for a in p}
            assert assert_det_const_sort_matches_reference(make_task(p, pools, 100)) is None

    def test_exhausted_pool_rising_with_others(self):
        # at k = 20 all ten floors rise; five pools hold 3 candidates, five
        # hold 1, so five exhausted pools rise in one step with five live ones
        p = {f"a{i}": 0.1 for i in range(10)}
        pools = {a: [0.9 - i / 50, 0.3, 0.2][: 3 if i % 2 else 1] for i, a in enumerate(p)}
        task = make_task(p, pools, 15)
        error = assert_det_const_sort_matches_reference(task)
        assert error == "detconstsort: pool for 'a0' exhausted at counter 20"
        assert assert_det_const_sort_matches_reference(task, fallback=True) is None
        assert fr.rank(task, "detconstsort", fallback=True).fallback_events == 5

    def test_tight_pools_match_reference_with_and_without_fallback(self):
        for task in tight_pool_tasks(count=400, seed=43):
            for fallback in (False, True):
                assert_det_const_sort_matches_reference(task, fallback)


class TestFallback:
    def exhausting_task(self):
        return make_task(
            {"a": 0.9, "b": 0.1},
            {"a": [0.9, 0.8], "b": [0.7, 0.65, 0.6, 0.55, 0.5, 0.45, 0.4, 0.35]},
            5,
        )

    def test_exhaustion_raises_by_default(self):
        with pytest.raises(fr.InsufficientCandidates):
            fr.rank(self.exhausting_task(), "detgreedy")

    def test_fallback_substitutes_and_counts(self):
        ranked = fr.rank(self.exhausting_task(), "detgreedy", fallback=True)
        assert len(ranked) == 5
        assert ranked.scores.tolist() == [0.9, 0.8, 0.7, 0.65, 0.6]
        assert ranked.fallback_events == 2

    @pytest.mark.parametrize("algo", CONSTRAINED)
    def test_fallback_fills_single_candidate_pools(self, algo):
        ranked = fr.rank(four_group_task(), algo, fallback=True)
        assert len(ranked) == 4
        assert sorted(ranked.scores.tolist()) == [0.1, 0.2, 0.3, 0.4]
        if algo == "detgreedy":
            assert ranked.fallback_events == 0
        else:
            assert ranked.fallback_events >= 1

    def test_no_events_on_clean_runs(self):
        for algo in CONSTRAINED:
            assert fr.rank(balanced_task(), algo, fallback=True).fallback_events == 0

    @pytest.mark.parametrize("flag", ["no", 1, 0, None], ids=["str", "one", "zero", "none"])
    def test_fallback_that_is_not_a_bool_rejected(self, flag):
        # "no" used to turn fallback on, since the flag was read by truthiness
        task = self.exhausting_task()
        with pytest.raises(fr.ValidationError, match="fallback"):
            fr.rank(task, "detgreedy", fallback=flag)
        with pytest.raises(fr.ValidationError, match="fallback"):
            fr.run_task(task, ["detgreedy"], fallback=flag)
        with pytest.raises(fr.ValidationError, match="fallback"):
            fr.run_task(task, [], fallback=flag)

    def test_numpy_bool_fallback_accepted(self):
        task = self.exhausting_task()
        assert fr.rank(task, "detgreedy", fallback=np.bool_(True)).fallback_events == 2
        assert fr.run_task(task, ["detgreedy"], fallback=np.False_).failures == {
            fr.Algorithm.DET_GREEDY: "InsufficientCandidates"
        }


class TestDispatchAndDeterminism:
    def test_unknown_algorithm_rejected(self):
        with pytest.raises(fr.UnknownAlgorithm):
            fr.rank(balanced_task(), "quicksort")

    def test_enum_and_string_dispatch_agree(self):
        task = balanced_task()
        by_enum = fr.rank(task, fr.Algorithm.DET_CONS)
        by_name = fr.rank(task, "detcons")
        assert by_enum.scores.tolist() == by_name.scores.tolist()

    @pytest.mark.parametrize("algo", ("vanilla",) + CONSTRAINED)
    def test_bitwise_repeatability(self, algo):
        task = random_task(spawn_rng(7, 3), num_attr=3)
        first = fr.rank(task, algo)
        second = fr.rank(task, algo)
        assert first.attributes.tobytes() == second.attributes.tobytes()
        assert first.scores.tobytes() == second.scores.tobytes()


class TestStructuralProperties:
    @pytest.mark.parametrize("algo", ("vanilla",) + CONSTRAINED)
    def test_random_tasks_keep_invariants(self, algo):
        for trial in range(40):
            num_attr = 2 + trial % 5
            task = random_task(spawn_rng(11, trial), num_attr, pool_size=60, k=60)
            ranked = fr.rank(task, algo)
            assert len(ranked) == task.k_max
            # within each attribute, scores must follow pool order
            for a in range(num_attr):
                emitted = ranked.scores[ranked.attributes == a]
                taken = task.pool.scores[a][: emitted.size]
                assert emitted.tolist() == taken.tolist()

    @pytest.mark.parametrize("algo", GREEDY_FAMILY)
    def test_counts_never_exceed_ceiling(self, algo):
        # ceiling discipline holds for the greedy family only; the
        # interval-sorting algorithm guarantees just the floor condition
        for trial in range(25):
            num_attr = 2 + trial % 5
            task = random_task(spawn_rng(13, trial), num_attr, pool_size=60, k=60)
            ranked = fr.rank(task, algo)
            cum = fr.prefix_counts(ranked)
            for k in range(1, len(ranked) + 1):
                for a in range(num_attr):
                    assert cum[k - 1, a] <= ref_ceil(k * task.desired.proportions[a])

    @pytest.mark.parametrize("algo", GREEDY_FAMILY)
    def test_small_attribute_counts_always_feasible(self, algo):
        for trial in range(60):
            num_attr = 2 + trial % 2
            task = random_task(spawn_rng(17, trial), num_attr, pool_size=60, k=60)
            ranked = fr.rank(task, algo)
            assert fr.infeasible_index(ranked, task.desired) == 0

    def test_interval_sorting_feasible_at_any_attribute_count(self):
        for trial in range(54):
            num_attr = 2 + trial % 9
            task = random_task(spawn_rng(19, trial), num_attr, pool_size=60, k=60)
            ranked = fr.rank(task, "detconstsort")
            assert fr.infeasible_index(ranked, task.desired) == 0


# a few repeated values make ties on score common; uniform floats make them rare
_SCORES = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.floats(0.0, 1.0))


@st.composite
def small_tasks(draw):
    """Validated tasks with 1-10 attributes, tiny uneven pools (some empty) and tied scores."""
    n = draw(st.integers(1, 10))
    weights = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    pools = [
        sorted(draw(st.lists(_SCORES, max_size=8)), reverse=True) for _ in range(n)
    ]
    if not any(pools):
        pools[draw(st.integers(0, n - 1))] = [draw(_SCORES)]
    k = draw(st.integers(1, sum(map(len, pools))))
    labels = [f"a{i}" for i in range(n)]
    total = sum(weights)
    return make_task(
        {a: w / total for a, w in zip(labels, weights)}, dict(zip(labels, pools)), k
    )


def rank_or_error(task, algo, fallback):
    try:
        return fr.rank(task, algo, fallback)
    except fr.RankingError as exc:
        return exc


class TestKernelProperties:
    @settings(max_examples=150, deadline=None)
    @given(small_tasks())
    def test_length_pool_prefixes_and_fallback_events(self, task):
        for algo in ("vanilla",) + CONSTRAINED:
            strict = rank_or_error(task, algo, False)
            relaxed = rank_or_error(task, algo, True)
            for ranked in (strict, relaxed):
                if isinstance(ranked, fr.RankingError):
                    continue
                assert len(ranked) == task.k_max
                for a, pool in enumerate(task.pool.scores):
                    emitted = ranked.scores[ranked.attributes == a].tolist()
                    assert emitted == pool[: len(emitted)].tolist()
            # with fallback every algorithm fills the list: the greedy family has
            # an attribute below its ceiling at every position, detconstsort stops
            # once every candidate is placed, and the pools hold k_max
            assert isinstance(relaxed, fr.RankedList)
            # fallback steps in exactly where the rule demands an exhausted pool
            if isinstance(strict, fr.RankedList):
                assert strict.fallback_events == relaxed.fallback_events == 0
                assert strict.attributes.tolist() == relaxed.attributes.tolist()
            else:
                assert algo != "vanilla" and isinstance(strict, fr.InsufficientCandidates)
                assert relaxed.fallback_events > 0

    @settings(max_examples=300, deadline=None)
    @given(small_tasks())
    def test_det_const_sort_matches_reference(self, task):
        assert_det_const_sort_matches_reference(task)

    @settings(max_examples=150, deadline=None)
    @given(small_tasks())
    def test_vanilla_is_the_lexicographic_merge(self, task):
        merged = sorted(
            (-score, a, i)
            for a, pool in enumerate(task.pool.scores)
            for i, score in enumerate(pool.tolist())
        )[: task.k_max]
        ranked = fr.rank(task, "vanilla")
        assert ranked.attributes.tolist() == [a for _, a, _ in merged]
        assert ranked.scores.tolist() == [-neg for neg, _, _ in merged]

    @settings(max_examples=150, deadline=None)
    @given(small_tasks(), st.booleans())
    def test_run_task_reports_equal_measure(self, task, fallback):
        # run_task measures all rankings of a task in one batch; each metric
        # row must equal measure's batch of one exactly, in CSV order
        outcome = fr.run_task(task, list(fr.Algorithm), fallback)
        ideal = np.sort(np.concatenate(task.pool.scores))[::-1]
        assert fr.Algorithm.VANILLA in outcome.rows
        for algo, row in outcome.rows.items():
            r = fr.measure(
                fr.rank(task, algo, fallback), task.desired, ideal_scores=ideal, k=task.k_max
            )
            assert row.tolist() == [
                r.infeasible_index, r.infeasible_count, r.min_skew, r.max_skew, r.ndkl, r.ndcg
            ]


def tight_pool_tasks(count=1000, seed=2019):
    """Seeded tasks whose pools hold about their floor quotas: n 1-6, k 1-30.

    The pool of a holds floor(k * p_a) + U{-1..2} candidates (at least 0;
    redrawn until the kept pools can fill k) with scores on a 0.05 grid, so
    pools run dry and scores tie often. Half the mixes are integer weights
    0-9, which put quotas on exact integers and drop zero-weight labels in
    validation; half are uniform draws.
    """
    rng = spawn_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 7))
        k = int(rng.integers(1, 31))
        if rng.random() < 0.5:
            w = rng.integers(0, 10, n).astype(np.float64)
            w[int(rng.integers(n))] += 1
        else:
            w = rng.random(n) + 1e-3
        p = w / w.sum()
        sizes = [0] * n
        # validation drops zero-weight labels with their pools
        while sum(m for m, q in zip(sizes, p) if q > 0) < k:
            sizes = [max(0, math.floor(k * q) + int(rng.integers(-1, 3))) for q in p]
        labels = [f"g{a}" for a in range(n)]
        pools = [sorted(np.round(rng.random(m) * 20) / 20, reverse=True) for m in sizes]
        yield make_task(dict(zip(labels, p)), dict(zip(labels, pools)), k)


def rank_digest(tasks) -> str:
    """SHA-256 over every rank outcome: attributes, scores and fallback_events,
    or the exception class and message, per algorithm with fallback off and on."""
    h = hashlib.sha256()
    for task in tasks:
        for algo in fr.Algorithm:
            for fallback in (False, True):
                out = rank_or_error(task, algo, fallback)
                if isinstance(out, fr.RankingError):
                    h.update(f"{type(out).__name__}: {out}\n".encode())
                else:
                    h.update(out.attributes.tobytes() + out.scores.tobytes())
                    h.update(f"{out.fallback_events}\n".encode())
    return h.hexdigest()


def test_rank_digest_on_tight_pools_is_pinned():
    # pins every ranking, fallback count and error on tight pools; a change
    # that alters outputs on purpose updates the hex and says why
    assert rank_digest(tight_pool_tasks()) == (
        "4b0f4b7da1b4f820ef8bdd79a3bac57088b1727023756188dc183e4ee158f3bc"
    )


def test_run_task_agrees_with_rank_on_every_outcome():
    # run_task ranks through the raw kernels; its rows and failures must be
    # what rank and measure give, algorithm by algorithm
    for task in tight_pool_tasks():
        ideal = np.sort(np.concatenate(task.pool.scores))[::-1]
        for fallback in (False, True):
            outcome = fr.run_task(task, list(fr.Algorithm), fallback)
            ranked = {a: rank_or_error(task, a, fallback) for a in fr.Algorithm}
            assert list(outcome.rows) == [a for a, r in ranked.items() if isinstance(r, fr.RankedList)]
            assert outcome.failures == {
                a: type(r).__name__ for a, r in ranked.items() if isinstance(r, fr.RankingError)
            }
            for algo, row in outcome.rows.items():
                r = fr.measure(ranked[algo], task.desired, ideal_scores=ideal, k=task.k_max)
                assert row.tolist() == [
                    r.infeasible_index, r.infeasible_count, r.min_skew, r.max_skew, r.ndkl, r.ndcg
                ]


def rank_outcome(task, algo, fallback):
    out = rank_or_error(task, algo, fallback)
    if isinstance(out, fr.RankingError):
        return type(out).__name__, str(out)
    return out.attributes.tolist(), out.scores.tolist(), out.fallback_events


def test_cached_table_reuse_matches_fresh_tasks():
    # every ranking of a task reads one table cached on it; ranking it again,
    # or a copy with another k_max, must give what a freshly built task gives
    for task in tight_pool_tasks(count=150, seed=31):
        pools = dict(zip(task.pool.labels, (s.tolist() for s in task.pool.scores)))
        ks = {task.k_max, max(1, task.k_max // 2), min(task.pool.total(), task.k_max + 3)}
        fresh = {k: make_task(task.desired.as_mapping(), pools, k) for k in ks}
        for algo in fr.Algorithm:
            for fallback in (False, True):
                first = rank_outcome(task, algo, fallback)
                assert rank_outcome(task, algo, fallback) == first
                for k in ks:
                    copy = dataclasses.replace(task, k_max=k)
                    assert rank_outcome(copy, algo, fallback) == rank_outcome(fresh[k], algo, fallback)
                assert first == rank_outcome(fresh[task.k_max], algo, fallback)
        for k in ks:
            rows = fr.run_task(dataclasses.replace(task, k_max=k), list(fr.Algorithm)).rows
            expected = fr.run_task(fresh[k], list(fr.Algorithm)).rows
            assert {a: r.tolist() for a, r in rows.items()} == {
                a: r.tolist() for a, r in expected.items()
            }
