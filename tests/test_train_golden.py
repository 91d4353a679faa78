"""Golden pin of short seeded training runs.

``data/train_golden.json`` holds what ``compute_case`` returned at commit
ccfad15, before power control had a batched reward: the metric rows and the
final theta of a 40-iteration ``run_dscp`` run of each shipped config at
kappa_p 0, 1 and 2. A change to the simulation, reward or gradient paths
that only reorders float operations must reproduce it to the oracle golden's
tolerance; one that moves an rng draw cannot.

Regenerate (only for a deliberate change of the training trajectory, which
CHANGES.md must record) with
``PYTHONPATH=src:tests python tests/test_train_golden.py``.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from nmarl.config import load_config
from nmarl.trainer import run_dscp

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "data" / "train_golden.json"
CONFIGS = ("path_planning", "power_control")
KAPPAS = (0, 1, 2)
RTOL, ATOL = 1e-12, 1e-14
ITERATIONS, EVAL_EVERY, EVAL_EPISODES, SEED = 40, 20, 50, 1
METRICS = ("J_est", "J_se", "grad_norm_est", "consensus_err", "lr")


def compute_case(name: str, kappa_p: int) -> dict:
    """Metric rows and final theta of one short seeded run."""
    run = load_config(ROOT / "configs" / f"{name}.json")
    m = run.build_model()
    cfg = replace(
        run.dscp, iterations=ITERATIONS, kappa_p=kappa_p, seed=SEED,
        eval_every=EVAL_EVERY, eval_episodes=EVAL_EPISODES,
    )
    theta, record = run_dscp(m, run.graph or m.graph, cfg)
    rows = {
        key: [getattr(r, attr) for r in record.rows]
        for key, attr in zip(METRICS, ("j_est", "j_se", "grad_norm_est", "consensus_err", "lr"))
    }
    return {"rows": rows, "theta": theta.tolist()}


def _compare(got, want, path: str) -> None:
    if None in want:
        # Rows without an evaluation (or the last row's gradient) stay empty.
        assert [g is None for g in got] == [w is None for w in want], path
        got = [g for g in got if g is not None]
        want = [w for w in want if w is not None]
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL, err_msg=path)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("kappa_p", KAPPAS)
@pytest.mark.parametrize("name", CONFIGS)
def test_training_matches_golden(golden, name, kappa_p):
    want = golden[name][f"kappa_p={kappa_p}"]
    got = compute_case(name, kappa_p)
    for key in METRICS:
        _compare(got["rows"][key], want["rows"][key], f"{name}.{key}")
    _compare(got["theta"], want["theta"], f"{name}.theta")


if __name__ == "__main__":
    data = {
        name: {f"kappa_p={kp}": compute_case(name, kp) for kp in KAPPAS}
        for name in CONFIGS
    }
    GOLDEN.write_text(json.dumps(data, indent=1) + "\n")
