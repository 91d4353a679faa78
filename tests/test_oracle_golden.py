"""Golden pin of the exact oracle's outputs.

``data/oracle_golden.json`` holds what ``compute_case`` returned with the
per-point loop oracle (commit 4c96592), on the shipped power-control model
and on the ``line3`` table model at kappa_p 1 and 2. A rewrite of the oracle
that only reorders float operations must reproduce it to rtol 1e-12. The
finite-difference gradient divides last-bit changes of the objective by
``2h = 2e-5``: a few ulps of ``|J| ~ 4`` become ~1e-10 absolute, so it is held
to rtol 1e-8 with an absolute floor of 1e-9 instead.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from nmarl import netgraph, oracle
from nmarl.config import load_config
from nmarl.policy import CoupledSoftmaxPolicy, MixingSpec

from support import line_graph, random_table_model, ref_gradient_via_local_q

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "data" / "oracle_golden.json"
MODELS = ("power_control", "line3")
KAPPAS = (1, 2)
RTOL, ATOL = 1e-12, 1e-14
FD_RTOL, FD_ATOL = 1e-8, 1e-9


def build_case(name: str, kappa_p: int):
    if name == "power_control":
        run = load_config(ROOT / "configs" / "power_control.json")
        m = run.build_model()
        spec = replace(run.dscp, kappa_p=kappa_p).mixing()
        graph = run.graph or m.graph
    else:
        graph = line_graph(3)
        m = random_table_model(graph, np.random.default_rng(17))
        spec = MixingSpec(kappa_p=kappa_p)
    pol = CoupledSoftmaxPolicy(graph, m.n_states, m.n_actions, spec)
    return m, pol


def compute_case(name: str, kappa_p: int) -> dict:
    """Every pinned oracle output of one model at one kappa_p."""
    m, pol = build_case(name, kappa_p)
    rng = np.random.default_rng([MODELS.index(name), kappa_p])
    theta = rng.uniform(-1.0, 1.0, size=(m.n, pol.d))
    est = rng.uniform(-1.0, 1.0, size=(m.n, m.n, pol.d))
    tables = pol.prob_tables(theta)
    out: dict = {
        "objective": oracle.exact_objective(m, tables),
        "objective_est": oracle.exact_objective(m, pol.prob_tables(est)),
        "visitation": oracle.discounted_visitation(m, tables)[0].tolist(),
        "points": [],
        "grad_local": [], "grad_averaged": [],
        "grad_local_est": [], "grad_averaged_est": [],
    }
    global_q = oracle.global_q_table(m, tables)
    local_q = [oracle.local_q_table(m, tables, i) for i in range(m.n)]
    for _ in range(3):
        s = [int(rng.integers(k)) for k in m.state_sizes]
        a = [int(rng.integers(k)) for k in m.action_sizes]
        point = {"s": s, "a": a, "global_q": oracle.q_at(*global_q, s, a),
                 "local_q": [], "averaged_q": []}
        for i in range(m.n):
            mem = m.reward_members[i]
            point["local_q"].append(oracle.q_at(
                *local_q[i], [s[j] for j in mem], [a[j] for j in mem]))
            outer = netgraph.khop(m.graph, i, kappa_p + 2 * m.kappa_r)
            point["averaged_q"].append(oracle.neighbors_averaged_q(
                m, tables, i, [s[j] for j in outer], [a[j] for j in outer], kappa_p))
        out["points"].append(point)
    for i in range(m.n):
        out["grad_local"].append(oracle.gradient_via_local_q(m, pol, theta, i).tolist())
        out["grad_averaged"].append(oracle.gradient_via_averaged_q(m, pol, theta, i).tolist())
        out["grad_local_est"].append(oracle.gradient_via_local_q(m, pol, est, i).tolist())
        out["grad_averaged_est"].append(oracle.gradient_via_averaged_q(m, pol, est, i).tolist())
    # the sum over every agent's local values, which the oracle restricts
    out["grad_full_sum"] = ref_gradient_via_local_q(m, pol, theta, 0, full_sum=True).tolist()
    out["grad_full_sum_est"] = ref_gradient_via_local_q(m, pol, est, 0, full_sum=True).tolist()
    out["fd"] = oracle.finite_difference_gradient(m, pol, theta, 0).tolist()
    return out


def _compare(got, want, path: str) -> None:
    if isinstance(want, dict):
        assert set(got) == set(want), path
        for key in want:
            _compare(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list) and want and isinstance(want[0], dict):
        assert len(got) == len(want), path
        for k, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, f"{path}[{k}]")
    else:
        fd = path.endswith(".fd")
        np.testing.assert_allclose(
            got, want, rtol=FD_RTOL if fd else RTOL, atol=FD_ATOL if fd else ATOL, err_msg=path
        )


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("kappa_p", KAPPAS)
@pytest.mark.parametrize("name", MODELS)
def test_oracle_matches_golden(golden, name, kappa_p):
    _compare(compute_case(name, kappa_p), golden[name][f"kappa_p={kappa_p}"], name)
