"""Golden pin of the sampling paths the training pin does not reach.

Both shipped configs start from a fixed state and evaluate with
``fixed_horizon``, so ``data/train_golden.json`` never draws a product start
state, a conditional resample or a ``geometric`` evaluation. This pin holds,
on ``verify._random_model`` over a 3-agent line with a product and a fixed
start, what these calls returned at commit 1564bf6 from one seeded
generator: 200 two-horizon rollouts, 200 conditional resamples from their
snapshots, one evaluation per method and the generator state afterwards.
Every value is held exactly: a change that moves a draw or reorders a float
operation in the samplers fails here.

Regenerate (only for a deliberate change of the sampling streams, which
CHANGES.md must record) with
``PYTHONPATH=src:tests python tests/test_sampler_golden.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from nmarl import estimator, netgraph, verify
from nmarl.policy import CoupledSoftmaxPolicy, MixingSpec
from nmarl.trainer import evaluate_policy

GOLDEN = Path(__file__).resolve().parent / "data" / "sampler_golden.json"
STARTS = ("product", "fixed")
SEED, ROLLOUTS, EPISODES = 2024, 200, 100


def compute_case(start: str) -> dict:
    """Rollouts, conditional resamples and evaluations from one seeded stream."""
    rng = np.random.default_rng(SEED)
    g = netgraph.build_graph(3, [(1, 2), (2, 3)])
    m = verify._random_model(g, rng, fixed_start=start == "fixed")
    pol = CoupledSoftmaxPolicy(g, 2, 2, MixingSpec(kappa_p=1))
    est = rng.uniform(-1, 1, size=(3, 3, 4))  # per-agent estimate stack
    tables = pol.prob_tables(est)
    rollouts = [
        estimator.rollout_two_horizon(m, est, pol, rng, tables=tables).to_json()
        for _ in range(ROLLOUTS)
    ]
    q_values = [
        estimator.sample_q_conditional(
            m, pol, est, r["snapshot_state"], r["snapshot_action"], k % 3, rng,
            tables=tables,
        )
        for k, r in enumerate(rollouts)
    ]
    evals = {
        method: list(evaluate_policy(m, pol, est[0], EPISODES, rng, method=method))
        for method in ("geometric", "fixed_horizon")
    }
    return {
        "rollouts": rollouts,
        "q_conditional": q_values,
        "evaluate_policy": evals,
        "rng_state": rng.bit_generator.state,
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("start", STARTS)
def test_samplers_match_golden(golden, start):
    want = golden[start]
    got = json.loads(json.dumps(compute_case(start)))  # same float repr as the file
    for k, (g_roll, w_roll) in enumerate(zip(got["rollouts"], want["rollouts"])):
        assert g_roll == w_roll, f"{start} rollout {k}"
    assert len(got["rollouts"]) == len(want["rollouts"])
    assert got["q_conditional"] == want["q_conditional"]
    assert got["evaluate_policy"] == want["evaluate_policy"]
    assert got["rng_state"] == want["rng_state"]


def _dump(data: dict) -> str:
    """JSON with one rollout per line, so a diff names the rollout that moved."""
    blocks = []
    for start, case in data.items():
        fields = []
        for key, value in case.items():
            if key == "rollouts":
                rows = ",\n".join(f"   {json.dumps(r)}" for r in value)
                fields.append(f'  "{key}": [\n{rows}\n  ]')
            else:
                fields.append(f'  "{key}": {json.dumps(value)}')
        blocks.append(f' "{start}": {{\n' + ",\n".join(fields) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    GOLDEN.write_text(_dump({start: compute_case(start) for start in STARTS}))
