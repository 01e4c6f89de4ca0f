"""
Re-ranking under representation constraints
===========================================

Five algorithms, one task. Vanilla ranks by score alone; the other four keep
every top-k prefix close to a desired distribution.
"""

import numpy as np

import fairrank as fr

rng = np.random.default_rng(11)


def build_task(proportions, pool_size, k):
    pools = {
        label: np.sort(rng.random(pool_size))[::-1]
        for label in proportions
    }
    return fr.RankingTask(
        desired=fr.DesiredDistribution.from_mapping(proportions),
        pool=fr.ScoredPool.from_mapping(pools),
        k_max=k,
    )


task = build_task({"a": 0.5, "b": 0.3, "c": 0.2}, pool_size=50, k=12)

print("same task through every algorithm:\n")
for algorithm in fr.Algorithm:
    ranked = fr.rank(task, algorithm)
    report = fr.measure(ranked, task.desired)
    order = "".join(ranked.attribute_labels())
    print(f"{algorithm.value:13s} {order}  II={report.infeasible_index:2d}  "
          f"ndkl={report.ndkl:.3f}  ndcg={report.ndcg:.4f}")

# Greedy serves floor quotas first and spends spare slots on raw score, so it
# can strand a floor that two attributes hit at the same prefix. One candidate
# per attribute, k=4:
trap = fr.RankingTask(
    desired=fr.DesiredDistribution.from_mapping(
        {"a1": 0.4, "a2": 0.4, "a3": 0.1, "a4": 0.1}),
    pool=fr.ScoredPool.from_mapping(
        {"a1": [0.1], "a2": [0.2], "a3": [0.3], "a4": [0.4]}),
    k_max=4,
)
greedy = fr.rank(trap, "detgreedy")
print("\ngreedy on the trap task:", greedy.attribute_labels(),
      "-> infeasible at", fr.infeasible_prefixes(greedy, trap.desired).tolist())

# The constrained-sort variant plans insertions by floor deadlines and swaps
# candidates upward only while no deadline breaks, so it stays feasible at
# any alphabet size. On the trap task it instead refuses: the pools cannot
# supply the second a1/a2 candidate its floors demand.
try:
    fr.rank(trap, "detconstsort")
except fr.InsufficientCandidates as exc:
    print("constrained sort refuses the trap task:", exc)

# fallback=True substitutes the nearest servable attribute instead of
# raising, and counts every substitution.
patched = fr.rank(trap, "detconstsort", fallback=True)
print("with fallback:", patched.attribute_labels(),
      f"({patched.fallback_events} substitutions)")
