import math
import os
from pathlib import Path

import numpy as np

import fairrank as fr
from fairrank.quota import SNAP_TOL

# tests that run `python -m fairrank` in a subprocess need the uninstalled
# package too; pyproject's pythonpath only reaches this process
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


def make_task(desired, pools, k):
    """Task from plain dicts."""
    return fr.RankingTask(
        desired=fr.DesiredDistribution.from_mapping(desired),
        pool=fr.ScoredPool.from_mapping(pools),
        k_max=k,
    )


def make_ranked(sequence, labels, scores=None):
    """RankedList from a sequence of attribute labels; scores default to 1.0."""
    labels = tuple(labels)
    if scores is None:
        scores = [1.0] * len(sequence)
    records = [
        {"position": i + 1, "attribute": a, "score": s}
        for i, (a, s) in enumerate(zip(sequence, scores))
    ]
    return fr.RankedList.from_records(records, labels)


def random_task(rng, num_attr, pool_size=100, k=100):
    """Random task drawn with the simulation generators."""
    return fr.RankingTask(
        desired=fr.gen_desired(num_attr, rng),
        pool=fr.gen_pool(num_attr, pool_size, rng),
        k_max=k,
    )


def spawn_rng(seed, *key):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def ref_floor(x: float) -> int:
    """floor(x), except that x within SNAP_TOL of an integer counts as it."""
    r = round(x)
    return r if abs(x - r) <= SNAP_TOL else math.floor(x)


def ref_ceil(x: float) -> int:
    """ceil(x), except that x within SNAP_TOL of an integer counts as it."""
    r = round(x)
    return r if abs(x - r) <= SNAP_TOL else math.ceil(x)
