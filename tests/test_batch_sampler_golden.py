"""Golden pin of the batched two-horizon samplers.

``data/sampler_golden.json`` pins one episode at a time; this pin holds what
the episode batches drew at commit cb91524, from seeded generators:

* on ``verify.check_estimator_unbiased``'s model and seeds, chunks of 256,
  256 and 37 episodes of ``rollouts_two_horizon``, then two chunks of
  ``sample_q_conditional`` (256 and 20 resamples, both in the count form)
  from a fixed snapshot;
* one 40-episode ``rollouts_two_horizon`` batch on shipped path planning at
  theta = 0, which runs the count form, parks episodes and skips the
  uniforms after the last one.

Each chunk holds its t1 and t2 lists, a sha256 of its snapshot and of its
reward-trace bytes (and of the resamples' return estimates), and the
generator state after it. Every value is held exactly.

Regenerate (only for a deliberate change of the sampling streams, which
CHANGES.md must record) with
``PYTHONPATH=src:tests python tests/test_batch_sampler_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest

from nmarl import estimator, netgraph, verify
from nmarl.config import load_config
from nmarl.policy import CoupledSoftmaxPolicy, MixingSpec

GOLDEN = Path(__file__).resolve().parent / "data" / "batch_sampler_golden.json"
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
ROLLOUT_CHUNKS, RESAMPLE_CHUNKS, PARKED_EPISODES = (256, 256, 37), (256, 20), 40


def _sha(*arrays: np.ndarray) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype="<f8" if a.dtype.kind == "f" else "<i8"))
    return digest.hexdigest()


def _chunk(roll, rng: np.random.Generator, **extra) -> dict:
    return {
        "t1": np.asarray(roll.t1).tolist(),
        "t2": np.asarray(roll.t2).tolist(),
        "snapshot_sha256": _sha(roll.snapshot_state, roll.snapshot_action),
        "trace_sha256": _sha(roll.reward_trace),
        **extra,
        "rng_state": rng.bit_generator.state,
    }


def _resample(m, tables, kappa_p, snap_s, snap_a, rng, size):
    """``sample_q_conditional``'s resamples ``(size, n)`` with the episode
    batch they came from."""
    rolls = []
    q_estimates = estimator.q_estimates

    def kept(roll, *args):
        rolls.append(roll)
        return q_estimates(roll, *args)

    with patch.object(estimator, "q_estimates", kept):
        q_values = estimator.sample_q_conditional(m, tables, kappa_p, snap_s, snap_a, rng, size)
    return rolls[0], q_values


def unbiased_chunks() -> list[dict]:
    """The chunks on ``check_estimator_unbiased``'s model and seeds."""
    seed = 606
    rng = np.random.default_rng(seed)
    g = netgraph.build_graph(2, [(1, 2)])
    m = verify._random_model(g, rng, gamma=0.8, fixed_start=True)
    pol = CoupledSoftmaxPolicy(g, 2, 2, MixingSpec(kappa_p=1))
    tables = pol.prob_tables(rng.uniform(-0.5, 0.5, size=(2, 2, 4)))
    srng = np.random.default_rng(seed + 1)
    chunks = [
        _chunk(estimator.rollouts_two_horizon(m, tables, srng, episodes), srng)
        for episodes in ROLLOUT_CHUNKS
    ]
    for size in RESAMPLE_CHUNKS:
        roll, q_values = _resample(m, tables, 1, (0, 1), (1, 0), srng, size)
        chunks.append(_chunk(roll, srng, q_sha256=_sha(q_values)))
    return chunks


def parked_batch() -> tuple[dict, int]:
    """The path-planning batch, and how often it skipped uniforms."""
    m = load_config(CONFIGS / "path_planning.json").build_model()
    pol = CoupledSoftmaxPolicy(m.graph, m.n_states, m.n_actions, MixingSpec(kappa_p=1))
    tables = pol.prob_tables(pol.zero_params())
    skips = []
    skip_uniforms = estimator._skip_uniforms

    def counted(*args):
        skips.append(args)
        skip_uniforms(*args)

    rng = np.random.default_rng(2020)
    with patch.object(estimator, "_skip_uniforms", counted):
        roll = estimator.rollouts_two_horizon(m, tables, rng, PARKED_EPISODES)
    return _chunk(roll, rng), len(skips)


def compute() -> dict:
    return {"unbiased_chunks": unbiased_chunks(), "parked_batch": parked_batch()[0]}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_unbiased_chunks_match_golden(golden):
    got = json.loads(json.dumps(unbiased_chunks()))
    assert len(got) == len(golden["unbiased_chunks"])
    for k, (g_chunk, w_chunk) in enumerate(zip(got, golden["unbiased_chunks"])):
        assert g_chunk == w_chunk, f"chunk {k}"


def test_parked_batch_matches_golden(golden):
    m = load_config(CONFIGS / "path_planning.json").build_model()
    assert m.parked_rows().any()
    chunk, skips = parked_batch()
    assert skips == 1  # every episode finished before the last block was drawn
    assert json.loads(json.dumps(chunk)) == golden["parked_batch"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute(), indent=1) + "\n")
