"""Oracle-backed verification suite behind the ``verify`` CLI subcommand.

Every check recomputes its expected values from the exact dynamic-programming
evaluators or closed forms, independent of the sampling paths it certifies.
``quick`` covers the deterministic identities; ``full`` adds the large
statistical checks (estimator unbiasedness and the conditional return mean),
which draw their samples ``SAMPLE_CHUNK`` episodes side by side. The
estimate is unbiased sample by sample, so drawing side by side certifies
what drawing one at a time does.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterator

import numpy as np

from . import estimator, netgraph, oracle, pushsum
from .errors import ConfigError
from .model import FactoredNmarlModel, embed, point_starts, table_rewards
from .policy import CoupledSoftmaxPolicy, MixingSpec

# Bound at import, not read from ``pushsum`` at each call: perfbench's tracer
# swaps ``pushsum.consensus_error`` for a wrapper whose byte count reads one
# ``(n, n, d)`` state, and check_pushsum passes stacked ones.
from .pushsum import check_invariants, consensus_error


# Episodes the statistical checks draw side by side. At 256 a chunk's reward
# windows (about 2 400 rows of 2 agents at gamma 0.8) and every other per-call
# temporary stay below 64 KB, the size at which numpy temporaries start to
# page-fault on every call (estimator.DRAW_BLOCK, which counts the uniforms a
# block reads: both rows of each step, as the checks' random kernels keep thresholds).
SAMPLE_CHUNK = 256

# Bytes of the push-sum states check_pushsum records before it checks them in
# one call: the same 64 KB page-fault threshold. A recorded round is the
# weights plus one (n, n, d) half of the vectors and one of the estimates, so
# a block holds 10 of the check's 300 rounds.
RECORD_BYTES = 64 * 1024


def _random_model(
    g: netgraph.AgentGraph,
    rng: np.random.Generator,
    gamma: float = 0.9,
    fixed_start: bool = False,
) -> FactoredNmarlModel:
    n = g.n
    kernels = []
    for _ in range(n):
        k = rng.random((2, 2, 2)) + 0.1
        kernels.append(k / k.sum(axis=-1, keepdims=True))
    members = [list(nb) for nb in g.neighbors]
    tables = [rng.uniform(-1, 1, size=(2,) * (2 * len(nb))) for nb in members]
    rho = point_starts([0] * n, 2) if fixed_start else np.full((n, 2), 0.5)
    return FactoredNmarlModel(
        g, 2, 2, kernels, table_rewards(tables, members), rho, gamma
    )


def check_value_decomposition(seed: int = 101) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    g = netgraph.build_graph(3, [(1, 2), (2, 3)])
    m = _random_model(g, rng)
    pol = CoupledSoftmaxPolicy(g, 2, 2, MixingSpec(kappa_p=1))
    tables = pol.prob_tables(rng.uniform(-1, 1, size=(3, 4)))
    chain, global_q = oracle.global_q_table(m, tables)
    total = 0.0  # the local tables over every agent's axes, added in agent order
    for local, q in (oracle.local_q_table(m, tables, i) for i in range(3)):
        sizes = local.state_space.sizes + local.action_space.sizes
        total = total + embed(q.reshape(sizes), local.members, (0, 1, 2))
    sizes = chain.state_space.sizes + chain.action_space.sizes
    worst = float(np.max(np.abs(global_q.reshape(sizes) - total / 3)))
    return worst <= 1e-6, f"max decomposition gap {worst:.3e} over 64 pairs"


def check_gradient_forms(seed: int = 202, draws: int = 3) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    g = netgraph.build_graph(3, [(1, 2), (2, 3)])
    m = _random_model(g, rng)
    pol = CoupledSoftmaxPolicy(g, 2, 2, MixingSpec(kappa_p=1))
    worst_pair = worst_fd = 0.0
    for _ in range(draws):
        theta = rng.uniform(-1, 1, size=(3, 4))
        local = oracle.gradient_via_local_q(m, pol, theta, range(3))
        averaged = oracle.gradient_via_averaged_q(m, pol, theta, range(3))
        worst_pair = max(worst_pair, float(np.max(np.abs(local - averaged))))
        fd = oracle.finite_difference_gradient(m, pol, theta, 0, h=1e-5)
        worst_fd = max(
            worst_fd,
            float(np.max(np.abs(fd - local[0]) / np.maximum(np.abs(local[0]), 1e-4))),
        )
    ok = worst_pair <= 1e-6 and worst_fd <= 1e-4
    return ok, f"form gap {worst_pair:.3e}, fd relative gap {worst_fd:.3e}"


def check_pushsum(seed: int = 303, rounds: int = 300) -> tuple[bool, str]:
    """Push-sum's two invariants and its static consensus rate, on a 10-agent
    ring with ``d`` = 4, certified on one protocol run.

    The run has max(``rounds``, 200) rounds over ``2 d`` parameter columns.
    Target columns never interact, so each half of them is, bit for bit, a
    run of its own:

    - Invariants, columns ``:d``: in each of the first ``rounds`` rounds, a
      normal delta scaled by ``1 / (t + 10)``. The start state and the state
      after every round are certified: the weight mass is ``n`` and every
      target's mean intermediate vector is its true parameter, within
      ``pushsum.MASS_TOL``. A state just after mixing holds the weights of the
      round's end and the vectors of the round's start, so these are every
      weight vector and every (vectors, parameters) pair that a check after
      each mix and each injection sees.
    - Decay, columns ``d:``: one normal injection in round 1, drawn after the
      invariant deltas, then none. The consensus error after each round's
      mix, against the parameters before its injection, must fall
      geometrically: a log-linear fit over rounds 10..200 has rate below 1
      and R2 above 0.99.

    The states after the rounds are recorded in blocks of at most
    ``RECORD_BYTES``, each checked with one stacked call. A recorded state
    holds only what a check reads: the weights, the invariant half of the
    intermediate vectors and the decay half of the estimates.
    """
    n, d = 10, 4
    w = netgraph.weight_matrix(netgraph.ring_graph(n))
    rng = np.random.default_rng(seed)
    deltas = np.zeros((max(rounds, 200), n, 2 * d))
    # the values and generator state of one draw per round
    deltas[:rounds, :, :d] = (
        rng.normal(size=(rounds, n, d)) / (np.arange(1, rounds + 1) + 10)[:, None, None]
    )
    deltas[0, :, d:] = rng.normal(size=(n, d))
    check_invariants(pushsum.init_state(n, d), np.zeros((n, d)))
    after = np.cumsum(deltas[:, :, :d], axis=0)  # the true parameters after each round
    before = np.zeros_like(after)  # the true parameters before each round
    before[1:] = deltas[0, :, d:]
    errs = np.empty(len(deltas))
    for rows, states in _rounds_in_blocks(w, deltas):
        check_invariants(states, after[rows])
        errs[rows] = consensus_error(states, before[rows])
    ts = np.arange(10, 201)
    ys = np.log(errs[ts - 1])
    a = np.vstack([ts, np.ones_like(ts)]).T
    coef, *_ = np.linalg.lstsq(a, ys, rcond=None)
    r2 = 1 - ((ys - a @ coef) ** 2).sum() / ((ys - ys.mean()) ** 2).sum()
    lam = math.exp(coef[0])
    ok = lam < 1.0 and r2 > 0.99
    return ok, f"invariants held {rounds} rounds; static decay rate {lam:.4f}, R2 {r2:.5f}"


def _rounds_in_blocks(
    w: np.ndarray, deltas: np.ndarray
) -> Iterator[tuple[slice, pushsum.PushSumState]]:
    """Push-sum rounds from the start state over ``2 d`` columns, one round
    per row of ``deltas`` ``(rounds, n, 2 d)``: mix, then inject the row.

    Yields ``(rows, states)``: the states after the rounds of ``deltas[rows]``,
    stacked ``(B, ...)`` in one block of at most ``RECORD_BYTES``, which the
    next block overwrites. A recorded state holds the weights, the
    intermediate vectors of columns ``:d`` and the estimates of columns ``d:``.
    """
    n, d = deltas.shape[1], deltas.shape[2] // 2
    size = max(1, RECORD_BYTES // (8 * (n + 2 * n * n * d)))
    st = pushsum.init_state(n, 2 * d)
    block = pushsum.PushSumState(
        np.empty((size, n)), np.empty((size, n, n, d)), np.empty((size, n, n, d))
    )
    for first in range(0, len(deltas), size):
        rows = slice(first, min(first + size, len(deltas)))
        for k, delta in enumerate(deltas[rows]):
            pushsum.mix_and_estimate(st, w)
            pushsum.inject_all(st, w, delta)
            block.weights[k] = st.weights
            block.breve[k], block.estimates[k] = st.breve[..., :d], st.estimates[..., d:]
        b = rows.stop - first
        yield rows, pushsum.PushSumState(block.weights[:b], block.breve[:b], block.estimates[:b])


def check_geometric_sampler(seed: int = 404, draws: int = 100_000) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    p = 0.1
    samples = estimator.sample_geometric(p, rng, size=draws)
    mean_sigma = math.sqrt((1 - p) / p**2 / draws)
    mean_ok = abs(samples.mean() - (1 - p) / p) < 4 * mean_sigma
    zero_sigma = math.sqrt(p * (1 - p) / draws)
    zero_ok = abs((samples == 0).mean() - p) < 4 * zero_sigma

    gamma = 0.6
    xs = rng.uniform(-1, 1, size=201)
    q = 1.0 - math.sqrt(gamma)
    weights = estimator.half_discount_weights(gamma, 201)
    partial = np.cumsum(weights * xs)
    pmf = q * (1 - q) ** np.arange(201)
    identity_gap = abs(float(pmf @ partial) - float(np.sum(gamma ** np.arange(201) * xs)))
    ok = mean_ok and zero_ok and identity_gap <= 1e-8
    return ok, (
        f"mean {samples.mean():.3f} (target 9), P(0) {(samples == 0).mean():.4f} "
        f"(target {p}), truncation identity gap {identity_gap:.2e}"
    )


def check_policy_scores(seed: int = 505, draws: int = 2) -> tuple[bool, str]:
    """The score identity of the policy paths that training runs, exactly.

    On a 5-agent line at ``kappa_p`` 1, for ``draws`` random ``(n, d)``
    parameters and as many ``(n, n, d)`` stacks, each with a random
    snapshot: every ``prob_tables`` row sums to one, and row ``i`` of
    ``score_sums`` has mean zero over the joint actions of the agents ``j``
    with ``coupling[j, i] != 0`` (9 or 27), each ``a_j`` weighted by ``pi_j``
    at its snapshot state under row ``i``'s view (the parameters, or row
    ``i`` of the stack); the other agents' actions stay fixed. A row that
    weighs agent ``j``'s score wrongly still has mean zero, so the mean of
    the row times ``1{a_j = b}`` must also be ``coupling[j, i] * pi_j(b) *
    (e_b - pi_j)`` in the entries of state ``s_j`` and zero elsewhere, for
    every coupled ``j`` and action ``b``.

    Each parameter draw scores the joint snapshots of all five rows with one
    ``score_sums`` call, which gives each snapshot the bits of a call on it
    alone.
    """
    g = netgraph.build_graph(5, [(k, k + 1) for k in range(1, 5)])
    pol = CoupledSoftmaxPolicy(g, 2, 3, MixingSpec(kappa_p=1))
    rng = np.random.default_rng(seed)
    eye = np.eye(3)
    coupled = [np.flatnonzero(pol.coupling[:, i]) for i in range(5)]
    joints = [np.array(list(itertools.product(range(3), repeat=len(c)))) for c in coupled]
    ends = np.cumsum([len(joint) for joint in joints])  # agent i's snapshots end at ends[i]
    worst_norm = worst_mean = worst_term = 0.0
    for _ in range(draws):
        for shape in ((5, 6), (5, 5, 6)):
            params = rng.uniform(-5, 5, size=shape)
            states, actions = rng.integers(2, size=5), rng.integers(3, size=5)
            executed = pol.prob_tables(params)
            views = [executed] * 5 if len(shape) == 2 else [pol.prob_tables(v) for v in params]
            for tables in (executed, *views):
                worst_norm = max(worst_norm, float(np.max(np.abs(tables.sum(axis=-1) - 1.0))))
            snapshots = np.tile(actions, (ends[-1], 1))
            for c, joint, end in zip(coupled, joints, ends):
                snapshots[end - len(joint) : end, c] = joint
            fixed = np.broadcast_to(states, snapshots.shape)
            scores = np.split(pol.score_sums(fixed, snapshots, params), ends[:-1])
            for i, (tables, c, joint) in enumerate(zip(views, coupled, joints)):
                k = len(c)
                probs = tables[c, states[c]]  # (k, A)
                weighted = np.prod(probs[np.arange(k), joint], axis=1)[:, None] * scores[i][:, i]
                worst_mean = max(worst_mean, float(np.max(np.abs(weighted.sum(axis=0)))))
                # [p, b]: the mean of the row times 1{a_j = b}, j = c[p]
                got = np.einsum("rpb,rd->pbd", eye[joint], weighted)
                want = np.zeros((k, 3, 2, 3))
                want[np.arange(k), :, states[c]] = (
                    pol.coupling[c, i][:, None, None] * probs[:, :, None]
                    * (eye - probs[:, None, :])
                )
                worst_term = max(worst_term, float(np.max(np.abs(got - want.reshape(k, 3, 6)))))
    ok = max(worst_norm, worst_mean, worst_term) <= 1e-12
    return ok, (
        f"normalization gap {worst_norm:.2e}, score mean {worst_mean:.2e}, "
        f"coupled term gap {worst_term:.2e} over {draws} draws per parameter shape"
    )


def check_estimator_unbiased(
    seed: int = 606, samples: int = 200_000
) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    g = netgraph.build_graph(2, [(1, 2)])
    m = _random_model(g, rng, gamma=0.8, fixed_start=True)
    pol = CoupledSoftmaxPolicy(g, 2, 2, MixingSpec(kappa_p=1))
    est_params = rng.uniform(-0.5, 0.5, size=(2, 2, 4))
    targets = [oracle.gradient_via_averaged_q(m, pol, est_params, i) for i in range(2)]
    tables = pol.prob_tables(est_params)
    bound = estimator.estimate_bound(m, pol)
    acc = np.zeros((2, 4))
    acc_sq = np.zeros((2, 4))
    violations = 0
    srng = np.random.default_rng(seed + 1)
    for done in range(0, samples, SAMPLE_CHUNK):
        rolls = estimator.rollouts_two_horizon(m, tables, srng, min(SAMPLE_CHUNK, samples - done))
        ge = estimator.gradient_estimate(rolls, m, pol, est_params, bound)
        violations += int(np.count_nonzero((ge.norms > bound * (1 + 1e-9)).any(axis=-1)))
        acc += ge.grads.sum(axis=0)
        acc_sq += (ge.grads**2).sum(axis=0)
    mean = acc / samples
    se = np.sqrt(np.maximum(acc_sq / samples - mean**2, 0.0) / samples)
    worst_z = 0.0
    for i in range(2):
        worst_z = max(worst_z, float(np.max(np.abs(mean[i] - targets[i]) / se[i])))
    ok = worst_z <= 4.0 and violations == 0
    return ok, f"worst |z| {worst_z:.2f} over {samples} samples, {violations} bound violations"


def check_conditional_q_mean(
    seed: int = 707, samples: int = 100_000
) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    g = netgraph.build_graph(2, [(1, 2)])
    m = _random_model(g, rng, gamma=0.8, fixed_start=True)
    pol = CoupledSoftmaxPolicy(g, 2, 2, MixingSpec(kappa_p=1))
    est_params = rng.uniform(-0.5, 0.5, size=(2, 2, 4))
    tables = pol.prob_tables(est_params)
    snap_s, snap_a = (0, 1), (1, 0)
    target = oracle.neighbors_averaged_q(m, tables, 0, snap_s, snap_a, kappa_p=1)
    srng = np.random.default_rng(seed + 1)
    vals = np.concatenate([
        estimator.sample_q_conditional(
            m, tables, 1, snap_s, snap_a, srng, min(SAMPLE_CHUNK, samples - done)
        )[:, 0]
        for done in range(0, samples, SAMPLE_CHUNK)
    ])
    se = vals.std(ddof=1) / math.sqrt(samples)
    z = abs(vals.mean() - target) / se
    return z <= 4.0, f"|z| {z:.2f} over {samples} conditional resamples"


QUICK_CHECKS: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
    ("value_decomposition", check_value_decomposition),
    ("gradient_forms", check_gradient_forms),
    ("pushsum_invariants", check_pushsum),
    ("geometric_sampler", check_geometric_sampler),
    ("policy_scores", check_policy_scores),
]

FULL_CHECKS: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
    ("estimator_unbiased", check_estimator_unbiased),
    ("conditional_q_mean", check_conditional_q_mean),
]


def run_suite(level: str = "quick") -> dict:
    """Run the ``quick`` checks, or at ``full`` also the statistical ones.

    Any other level raises :class:`ConfigError` before a check runs.
    """
    if level not in ("quick", "full"):
        raise ConfigError(f"verify level must be 'quick' or 'full', got {level!r}")
    checks = list(QUICK_CHECKS)
    if level == "full":
        checks += FULL_CHECKS
    results = []
    for name, fn in checks:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {exc!r}"
        results.append({"name": name, "pass": bool(ok), "detail": detail})
    return {
        "level": level,
        "pass": all(r["pass"] for r in results),
        "checks": results,
    }
