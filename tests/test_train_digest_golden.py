"""Bit-for-bit pin of seeded training runs.

``data/train_digest_golden.json`` holds, for each shipped config at kappa_p
0, 1 and 2, the sha256 of the ``TrainRecord.write_csv`` text and of the
final theta's bytes of a 300-iteration ``run_dscp`` run with seed 1 and the
config's own evaluation settings. ``train_golden.json`` holds shorter runs
to 1e-12; this pin allows no float to move, so a change to the training
path that claims the same bits is held to them.

Regenerate (only for a deliberate change of the training trajectory, which
CHANGES.md must record) with
``PYTHONPATH=src:tests python tests/test_train_digest_golden.py``.
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import replace
from pathlib import Path

import pytest

from nmarl.config import load_config
from nmarl.trainer import run_dscp

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "data" / "train_digest_golden.json"
CONFIGS = ("path_planning", "power_control")
KAPPAS = (0, 1, 2)
ITERATIONS, SEED = 300, 1


def compute_digests(name: str, kappa_p: int) -> dict:
    """The CSV and theta digests of one seeded run."""
    run = load_config(ROOT / "configs" / f"{name}.json")
    m = run.build_model()
    cfg = replace(run.dscp, iterations=ITERATIONS, kappa_p=kappa_p, seed=SEED)
    theta, record = run_dscp(m, run.graph or m.graph, cfg)
    buf = io.StringIO()
    record.write_csv(buf)
    return {
        "csv_sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest(),
        "theta_sha256": hashlib.sha256(theta.tobytes()).hexdigest(),
    }


@pytest.mark.parametrize("kappa_p", KAPPAS)
@pytest.mark.parametrize("name", CONFIGS)
def test_training_matches_digest_golden(name, kappa_p):
    want = json.loads(GOLDEN.read_text())[name][f"kappa_p={kappa_p}"]
    assert compute_digests(name, kappa_p) == want


if __name__ == "__main__":
    data = {
        name: {f"kappa_p={kp}": compute_digests(name, kp) for kp in KAPPAS}
        for name in CONFIGS
    }
    GOLDEN.write_text(json.dumps(data, indent=1) + "\n")
