"""An exact oracle for the constrained rankers: the best DCG of any floor-feasible ranking.

It shares no code with fairrank: floors and ceilings come from ref_floor and
ref_ceil, and a ranking's prefixes are tested here. Every ranker takes each
pool in score order, and for a given sequence of attributes that order has
the best DCG, so a prefix is fixed by its count vector. A forward DP over
prefix lengths i = 1..k keeps, for each count vector that meets every floor
(and optionally every ceiling) at i, the best DCG of a prefix reaching it:
the constrained-ranking formulation of Celis, Straszak & Vishnoi (ICALP
2018). It compares DCG values, not rankings, so it needs no tie rule.
"""

import itertools
import math

import pytest
from hypothesis import example, given, settings

import fairrank as fr
from conftest import make_task, random_task, ref_ceil, ref_floor, spawn_rng
from test_rerank import decimal_mix_tasks, four_group_task, tight_pool_tasks

# the rankers that, with fallback, must find a floor-feasible ranking wherever one exists
COMPLETE = (fr.Algorithm.DET_CONS, fr.Algorithm.DET_RELAXED, fr.Algorithm.DET_CONST_SORT)


def oracle_dcg(task, ceilings=False):
    """The best DCG of a k_max ranking whose every prefix meets every floor (and ceiling), or None."""
    p = task.desired.proportions.tolist()
    pools = [s.tolist() for s in task.pool.scores]
    best = {(0,) * len(p): 0.0}
    for i in range(1, task.k_max + 1):
        floors = [ref_floor(i * q) for q in p]
        ceils = [ref_ceil(i * q) if ceilings else math.inf for q in p]
        discount = math.log2(i + 1)
        layer = {}
        for counts, value in best.items():
            for a, c in enumerate(counts):
                if c == len(pools[a]) or c == ceils[a]:
                    continue
                grown = counts[:a] + (c + 1,) + counts[a + 1 :]
                if all(x >= f for x, f in zip(grown, floors)):
                    gain = value + pools[a][c] / discount
                    if gain > layer.get(grown, -math.inf):
                        layer[grown] = gain
        if not layer:
            return None
        best = layer
    return max(best.values())


def floor_feasible(attributes, p) -> bool:
    """Whether every prefix of the attribute sequence holds floor(i * p_a) of each a."""
    counts = [0] * len(p)
    for i, a in enumerate(attributes, 1):
        counts[a] += 1
        if any(c < ref_floor(i * q) for c, q in zip(counts, p)):
            return False
    return True


def dcg(scores) -> float:
    return sum(s / math.log2(i + 1) for i, s in enumerate(scores, 1))


def outcome(task, algo, fallback):
    """(floor-feasible, DCG) of the ranking, or None where the ranker raises."""
    try:
        ranked = fr.rank(task, algo, fallback)
    except fr.RankingError:
        return None
    assert len(ranked) == task.k_max
    p = task.desired.proportions.tolist()
    return floor_feasible(ranked.attributes.tolist(), p), dcg(ranked.scores.tolist())


def solve(tasks):
    """Per task: the task, its floor oracle, its floor-and-ceiling oracle and every outcome."""
    return [
        (
            task,
            oracle_dcg(task),
            oracle_dcg(task, ceilings=True),
            {(a, f): outcome(task, a, f) for a in fr.Algorithm for f in (False, True)},
        )
        for task in tasks
    ]


@pytest.fixture(scope="module")
def tight():
    return solve(tight_pool_tasks())


@pytest.fixture(scope="module")
def paper_grid():
    # k = 100 from pools of 100 per attribute value, as in the paper's grid
    return solve(random_task(spawn_rng(2019, n, i), n) for n in range(2, 7) for i in range(3))


def assert_no_feasible_ranking_beats_the_oracle(solved):
    for task, best, _, outcomes in solved:
        for key, out in outcomes.items():
            if out is not None and out[0]:
                assert best is not None, key
                assert out[1] <= best + 1e-9 * abs(best), (key, out[1], best)


def assert_fallback_rankers_are_feasible_where_the_oracle_ranks(solved):
    for _, best, _, outcomes in solved:
        if best is not None:
            assert all(outcomes[algo, True][0] for algo in COMPLETE)


def mix_task(hundredths, k, extra, seed=2019):
    """A task over the mix hundredths / 100 whose pool a holds floor(k * p_a) + extra[a] candidates.

    Scores sit on a 0.05 grid, so they tie often.
    """
    rng = spawn_rng(seed, *hundredths)
    labels = [f"a{i}" for i in range(len(hundredths))]
    pools = [
        sorted((rng.integers(0, 21, k * h // 100 + e) / 20).tolist(), reverse=True)
        for h, e in zip(hundredths, extra)
    ]
    return make_task({a: h / 100 for a, h in zip(labels, hundredths)}, dict(zip(labels, pools)), k)


def test_oracle_matches_brute_force_on_short_rankings():
    checked = 0
    for task in tight_pool_tasks():
        n, k = len(task.desired), task.k_max
        if n ** k > 1000:
            continue
        sizes = [s.size for s in task.pool.scores]
        p = task.desired.proportions.tolist()
        for ceilings in (False, True):
            found = []
            for seq in itertools.product(range(n), repeat=k):
                counts = [seq.count(a) for a in range(n)]
                if any(c > m for c, m in zip(counts, sizes)) or not floor_feasible(seq, p):
                    continue
                if ceilings and any(
                    seq[:i].count(a) > ref_ceil(i * q)
                    for i in range(1, k + 1)
                    for a, q in enumerate(p)
                ):
                    continue
                taken = [0] * n
                scores = []
                for a in seq:
                    scores.append(float(task.pool.scores[a][taken[a]]))
                    taken[a] += 1
                found.append(dcg(scores))
            got = oracle_dcg(task, ceilings)
            if found:
                assert got == pytest.approx(max(found), rel=1e-12)
            else:
                assert got is None
        checked += 1
    assert checked == 302


def test_oracle_ranks_the_four_group_task_that_detconstsort_misses():
    assert oracle_dcg(four_group_task()) == pytest.approx(0.7054, abs=5e-5)


def test_tight_pools_no_feasible_ranking_beats_the_oracle(tight):
    assert sum(best is not None for _, best, _, _ in tight) == 693
    assert_no_feasible_ranking_beats_the_oracle(tight)


def test_tight_pools_with_no_oracle_ranking_have_no_feasible_ranking(tight):
    unrankable = [outcomes for _, best, _, outcomes in tight if best is None]
    assert len(unrankable) == 307
    for outcomes in unrankable:
        assert all(out is None or not out[0] for out in outcomes.values())


def test_tight_pools_fallback_rankers_are_feasible_where_the_oracle_ranks(tight):
    assert_fallback_rankers_are_feasible_where_the_oracle_ranks(tight)


def test_tight_pools_detgreedy_is_feasible_for_small_alphabets_where_ceilings_allow(tight):
    small = [outcomes for task, _, both, outcomes in tight
             if both is not None and len(task.desired) <= 3]
    assert len(small) == 420
    assert all(outcomes[fr.Algorithm.DET_GREEDY, True][0] for outcomes in small)


def test_paper_grid_rankings_against_the_oracle(paper_grid):
    assert_no_feasible_ranking_beats_the_oracle(paper_grid)
    assert all(best is not None for _, best, _, _ in paper_grid)
    assert_fallback_rankers_are_feasible_where_the_oracle_ranks(paper_grid)


# n = 8, k = 100 tasks the oracle ranks; its floor-only DP takes about 0.4-0.6 s on each
N8_TASKS = [
    mix_task((5, 5, 10, 10, 10, 15, 20, 25), 100, (0, 1, 0, 2, 1, 0, 1, 2)),
    mix_task((12, 12, 12, 12, 13, 13, 13, 13), 100, (0, 0, 1, 0, 2, 1, 0, 0)),
]


@settings(max_examples=100, deadline=None)
@example(N8_TASKS[0])
@example(N8_TASKS[1])
@given(decimal_mix_tasks())
def test_decimal_mix_rankings_against_the_oracle(task):
    solved = solve([task])
    assert_no_feasible_ranking_beats_the_oracle(solved)
    assert_fallback_rankers_are_feasible_where_the_oracle_ranks(solved)


def test_the_n8_examples_are_rankable():
    # a ranking that meets every ceiling too meets every floor: the cheap oracle suffices
    assert all(oracle_dcg(task, ceilings=True) is not None for task in N8_TASKS)
