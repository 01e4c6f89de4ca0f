"""The benchmark's workloads still run against this package, and their checks pass.

Each workload's tiny block is built, every op runs once and gets its deep
check, and each workload's side check runs too, so a change to the public
API that would break `bench/run.py` fails here first.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEED = 3


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        yield importlib.import_module("workloads")


@pytest.mark.parametrize("name", ["sweep", "rerank_online", "audit"])
def test_tiny_block_runs_and_passes_its_checks(workloads, name, tmp_path):
    w = workloads.WORKLOADS[name](str(tmp_path), tiny=True)
    w.run(w.first_input(SEED))
    block = w.make_block(np.random.default_rng(SEED), w.BLOCK)
    outputs = [w.run(inp) for inp in block]
    errors = [e for inp, out in zip(block, outputs) for e in w.check(inp, out, True)]
    assert errors + w.side_check(SEED) == []
    assert len(w.digest(list(zip(block, outputs)))) == 16
