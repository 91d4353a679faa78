import io
import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmarl import estimator, netgraph, oracle, trainer
from nmarl.config import load_config
from nmarl.errors import ConfigError, HorizonOverflow, NonFiniteState
from nmarl.model import FactoredNmarlModel
from nmarl.policy import CoupledSoftmaxPolicy, MixingSpec
from nmarl.trainer import DscpConfig, evaluate_policy, learning_rate, run_dscp

from support import (
    constant_reward_model,
    line_graph,
    random_table_model,
    ref_evaluate,
    shaped_graph,
    zero_reward_model,
)

# one step per drawn block, the default, and every step in one block
DRAW_BLOCKS = [1, estimator.DRAW_BLOCK, 2**20]


class TestLearningRate:
    def test_values(self):
        cfg = DscpConfig(iterations=10, eta0=1.0, t0=0.0, kappa_p=0)
        assert learning_rate(cfg, 1) == 1.0
        assert learning_rate(cfg, 10) == pytest.approx(0.1)

    def test_strictly_decreasing_positive(self):
        cfg = DscpConfig(iterations=10)
        rates = [learning_rate(cfg, t) for t in range(1, 500)]
        assert all(r > 0 for r in rates)
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_harmonic_growth(self):
        cfg = DscpConfig(iterations=10, eta0=1.0, t0=0.0, kappa_p=0)
        total = sum(learning_rate(cfg, t) for t in range(1, 10**4 + 1))
        assert abs(total - math.log(10**4)) / math.log(10**4) < 0.10


class TestConfigValidation:
    def test_bad_batch_and_iterations(self):
        with pytest.raises(ConfigError):
            DscpConfig(iterations=0).validate()
        with pytest.raises(ConfigError):
            DscpConfig(iterations=5, batch=0).validate()

    def test_direct_params_requires_radius_one(self):
        with pytest.raises(ConfigError):
            DscpConfig(iterations=5, kappa_p=2, direct_params=True).validate()


class TestRunDscp:
    def test_single_iteration_returns_zero_params(self):
        g = line_graph(2)
        m = random_table_model(g, np.random.default_rng(0))
        theta, rec = run_dscp(m, g, DscpConfig(iterations=1, seed=3))
        assert np.all(theta == 0.0)
        assert len(rec.rows) == 1
        assert rec.rows[0].grad_norm_est is None

    def test_zero_rewards_keep_zero_params(self):
        g = line_graph(3)
        m = zero_reward_model(g)
        theta, rec = run_dscp(m, g, DscpConfig(iterations=40, seed=1))
        assert np.all(theta == 0.0)
        assert len(rec.rows) == 40

    def test_row_count_and_eval_schedule(self):
        g = line_graph(2)
        m = random_table_model(g, np.random.default_rng(1), fixed_start=True)
        cfg = DscpConfig(iterations=25, seed=2, eval_every=10, eval_episodes=20)
        _, rec = run_dscp(m, g, cfg)
        assert [r.t for r in rec.rows] == list(range(1, 26))
        evaluated = [r.t for r in rec.rows if r.j_est is not None]
        assert evaluated == [1, 10, 20, 25]

    def test_csv_determinism_and_format(self):
        g = line_graph(2)
        m = random_table_model(g, np.random.default_rng(1), fixed_start=True)
        cfg = DscpConfig(iterations=30, seed=5, eval_every=15, eval_episodes=10)
        outs = []
        for _ in range(2):
            _, rec = run_dscp(m, g, cfg)
            buf = io.StringIO()
            rec.write_csv(buf)
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]
        lines = outs[0].splitlines()
        assert lines[0] == trainer.CSV_HEADER
        assert len(lines) == 31
        # non-eval rows leave the objective cells empty
        cells = lines[2].split(",")
        assert cells[1] == "" and cells[2] == ""

    def test_invariant_checks_enabled(self):
        g = line_graph(3)
        m = random_table_model(g, np.random.default_rng(2), fixed_start=True)
        cfg = DscpConfig(iterations=60, seed=7, check_invariants=True)
        run_dscp(m, g, cfg)

    def test_kappa_zero_disables_pushsum(self):
        g = line_graph(3)
        m = random_table_model(g, np.random.default_rng(3), fixed_start=True)
        _, rec = run_dscp(m, g, DscpConfig(iterations=20, kappa_p=0, seed=1))
        assert all(r.consensus_err == 0.0 for r in rec.rows)

    def test_direct_params_skips_estimates(self):
        g = line_graph(3)
        m = random_table_model(g, np.random.default_rng(4), fixed_start=True)
        cfg = DscpConfig(iterations=20, kappa_p=1, direct_params=True, seed=1)
        _, rec = run_dscp(m, g, cfg)
        assert all(r.consensus_err == 0.0 for r in rec.rows)

    @pytest.mark.parametrize("kappa_p", [0, 1, 2])
    def test_non_finite_parameters_stop_the_run(self, kappa_p):
        g = line_graph(3)
        m = random_table_model(g, np.random.default_rng(6), fixed_start=True)
        cfg = DscpConfig(iterations=5, kappa_p=kappa_p, seed=1)

        def nan_at_2(theta, t):
            return np.full(theta.shape, np.nan if t == 2 else 0.1)

        with pytest.raises(NonFiniteState, match="after iteration 2"):
            run_dscp(m, g, cfg, gradient_override=nan_at_2)

    @pytest.mark.parametrize("kappa_p", [1, 2])
    def test_overflowing_estimates_stop_the_run(self, kappa_p):
        # finite parameters whose push-sum estimates are so far off that the
        # consensus error overflows: the run stops before it samples with them
        g = line_graph(3)
        m = random_table_model(g, np.random.default_rng(6), fixed_start=True)
        cfg = DscpConfig(iterations=5, kappa_p=kappa_p, seed=1)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteState, match="iteration 2"):
            run_dscp(m, g, cfg, gradient_override=lambda theta, t: np.full(theta.shape, 1e306))

    def test_batch_averaging_changes_estimates_not_bias(self):
        g = line_graph(2)
        m = random_table_model(g, np.random.default_rng(5), fixed_start=True)
        theta_b1, _ = run_dscp(m, g, DscpConfig(iterations=10, seed=9, batch=1))
        theta_b3, _ = run_dscp(m, g, DscpConfig(iterations=10, seed=9, batch=3))
        assert not np.array_equal(theta_b1, theta_b3)

    def test_oracle_gradient_steps_increase_objective(self):
        # the ascent sanity check: substitute the exact gradient for the
        # sampled one and watch the exact objective increase monotonically
        g = line_graph(2)
        m = random_table_model(g, np.random.default_rng(6), fixed_start=True)
        pol = CoupledSoftmaxPolicy(g, 2, 2, MixingSpec(kappa_p=1))
        values = []

        def exact_grad(theta, t):
            values.append(oracle.exact_objective(m, pol.prob_tables(theta)))
            return np.stack(
                [oracle.gradient_via_local_q(m, pol, theta, i) for i in range(2)]
            )

        cfg = DscpConfig(iterations=51, seed=0, eta0=1e-3, t0=0.0)
        run_dscp(m, g, cfg, gradient_override=exact_grad)
        assert len(values) == 50
        assert all(b > a for a, b in zip(values, values[1:]))


class TestEvaluatePolicy:
    def test_constant_reward_geometric(self):
        g = line_graph(2)
        m = constant_reward_model(g, c=-0.5, gamma=0.9)
        pol = CoupledSoftmaxPolicy(g, 2, 2, MixingSpec(kappa_p=1))
        j, se = evaluate_policy(
            m, pol, pol.zero_params(), 4000, np.random.default_rng(0)
        )
        assert abs(j + 5.0) < 4 * se

    def test_constant_reward_fixed_horizon(self):
        g = line_graph(2)
        m = constant_reward_model(g, c=-0.5, gamma=0.9)
        pol = CoupledSoftmaxPolicy(g, 2, 2, MixingSpec(kappa_p=1))
        j, se = evaluate_policy(
            m, pol, pol.zero_params(), 10, np.random.default_rng(0),
            method="fixed_horizon", horizon_eps=1e-6,
        )
        assert j == pytest.approx(-5.0, abs=1e-5)
        assert se == pytest.approx(0.0, abs=1e-12)

    def test_zero_rewards_exact_zero(self):
        g = line_graph(2)
        m = zero_reward_model(g)
        pol = CoupledSoftmaxPolicy(g, 2, 2, MixingSpec(kappa_p=1))
        for method in ("geometric", "fixed_horizon"):
            j, se = evaluate_policy(
                m, pol, pol.zero_params(), 50, np.random.default_rng(1), method=method
            )
            assert j == 0.0

    @pytest.mark.parametrize("method", ["geometric", "fixed_horizon"])
    def test_matches_oracle(self, method):
        g = line_graph(2)
        m = random_table_model(g, np.random.default_rng(7), fixed_start=True)
        pol = CoupledSoftmaxPolicy(g, 2, 2, MixingSpec(kappa_p=1))
        theta = np.random.default_rng(8).uniform(-1, 1, size=(2, 4))
        exact = oracle.exact_objective(m, pol.prob_tables(theta))
        j, se = evaluate_policy(
            m, pol, theta, 20_000, np.random.default_rng(9), method=method
        )
        assert abs(j - exact) < 4 * max(se, 1e-4)

    def test_executed_policy_evaluation(self):
        g = line_graph(2)
        m = random_table_model(g, np.random.default_rng(10), fixed_start=True)
        pol = CoupledSoftmaxPolicy(g, 2, 2, MixingSpec(kappa_p=1))
        est = np.random.default_rng(11).uniform(-1, 1, size=(2, 2, 4))
        exact = oracle.exact_objective(m, pol.prob_tables(est))
        j, se = evaluate_policy(m, pol, est, 20_000, np.random.default_rng(12))
        assert abs(j - exact) < 4 * se

    def test_fixed_horizon_over_the_cap_raises_before_drawing(self, monkeypatch):
        # a product start, so that stepping would draw from the first call on
        m = random_table_model(line_graph(2), np.random.default_rng(0), fixed_start=False)
        pol = CoupledSoftmaxPolicy(m.graph, m.n_states, m.n_actions, MixingSpec(kappa_p=1))
        horizon = oracle.truncation_horizon(m.gamma, 1e-4, m.reward_bound)
        monkeypatch.setattr(estimator, "MAX_HORIZON", horizon - 1)
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(HorizonOverflow, match=f"horizon {horizon} exceeds cap {horizon - 1}"):
            evaluate_policy(m, pol, pol.zero_params(), 400, rng, method="fixed_horizon")
        assert rng.bit_generator.state == state
        monkeypatch.setattr(estimator, "MAX_HORIZON", horizon)  # the cap itself is allowed
        evaluate_policy(m, pol, pol.zero_params(), 400, rng, method="fixed_horizon")

    def test_geometric_over_the_cap_raises_before_stepping(self, monkeypatch):
        m = random_table_model(line_graph(2), np.random.default_rng(0))
        pol = CoupledSoftmaxPolicy(m.graph, m.n_states, m.n_actions, MixingSpec(kappa_p=1))
        monkeypatch.setattr(estimator, "MAX_HORIZON", 3)
        rng, horizons_only = np.random.default_rng(5), np.random.default_rng(5)
        horizons = estimator.sample_geometric(1.0 - m.gamma, horizons_only, size=50)
        assert horizons.max() > 3
        with pytest.raises(HorizonOverflow, match="exceeds cap 3"):
            evaluate_policy(m, pol, pol.zero_params(), 50, rng, method="geometric")
        # only the horizons were drawn
        assert rng.bit_generator.state == horizons_only.bit_generator.state

    def test_bad_episode_count(self):
        g = line_graph(2)
        m = zero_reward_model(g)
        pol = CoupledSoftmaxPolicy(g, 2, 2, MixingSpec(kappa_p=1))
        with pytest.raises(ConfigError):
            evaluate_policy(m, pol, pol.zero_params(), 0, np.random.default_rng(0))


def absorbing_zero_rewards(rewards, g, z):
    """``rewards`` with every agent's reward ``+0.0`` wherever all its reward
    members sit on state ``z``."""
    members = netgraph.hop_mask(g, 1) > 0

    def batch(states, acts):
        away = ((states != z)[..., None, :] & members).any(axis=-1)
        return np.where(away, rewards(states, acts), 0.0)

    return batch


@st.composite
def eval_cases(draw):
    """A random model with one-hot or multi-threshold kernels, a fixed or
    product start and, in some, a last state that absorbs and pays ``+0.0``
    once every reward member sits there (a parked row of every agent), a
    policy and its parameters, and an episode count on either side of
    ``estimator.BATCH_ENTRIES``."""
    n, n_states, n_actions = (draw(st.integers(1, 3)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = shaped_graph(draw(st.sampled_from(["line", "ring", "star"])), n)
    gamma = draw(st.sampled_from([0.5, 0.9]))
    m = random_table_model(
        g, rng, n_states, n_actions, gamma=gamma, fixed_start=draw(st.booleans())
    )
    kernels, rewards = m.kernels, m.batch_rewards
    eye = np.eye(n_states)
    if draw(st.booleans()):  # one-hot kernels keep no threshold
        kernels = [eye[rng.integers(n_states, size=(n_states, n_actions))] for _ in range(n)]
    if draw(st.booleans()):
        z = n_states - 1
        kernels = [k.copy() for k in kernels]
        for k in kernels:
            k[z] = eye[z]
        rewards = absorbing_zero_rewards(rewards, g, z)
    m = FactoredNmarlModel(g, n_states, n_actions, kernels, rewards, m.rho, gamma)
    pol = CoupledSoftmaxPolicy(g, n_states, n_actions, MixingSpec(kappa_p=draw(st.integers(0, 2))))
    shape = (n, pol.d) if draw(st.booleans()) else (n, n, pol.d)
    params = rng.normal(size=shape)
    cutoff = -(-estimator.BATCH_ENTRIES // n)  # the fewest episodes that count thresholds
    episodes = draw(st.sampled_from([1, 2, cutoff - 1, cutoff, 3 * cutoff]))
    return m, pol, params, episodes


@given(
    eval_cases(),
    st.sampled_from(["geometric", "fixed_horizon"]),
    st.sampled_from(DRAW_BLOCKS),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_evaluate_policy_matches_reference(case, method, draw_block, seed):
    # Scoring whole drawn blocks of any size, and only the episodes not yet
    # finished, gives the per-step loop's J and SE bit for bit, and leaves the
    # generator where it leaves it.
    m, pol, params, episodes = case
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    with patch.object(estimator, "DRAW_BLOCK", draw_block):
        got = evaluate_policy(m, pol, params, episodes, got_rng, method, horizon_eps=1e-3)
    want = ref_evaluate(m, pol, params, episodes, want_rng, method, horizon_eps=1e-3)
    assert got == want
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("draw_block", DRAW_BLOCKS)
@pytest.mark.parametrize("config", ["path_planning", "power_control"])
def test_shipped_evaluation_matches_reference(config, draw_block):
    # the shipped rewards (a matmul per call) on stacked blocks of steps
    run = load_config(f"configs/{config}.json")
    m = run.build_model()
    pol = CoupledSoftmaxPolicy(run.graph, m.n_states, m.n_actions, run.dscp.mixing())
    theta = np.random.default_rng(4).uniform(-1, 1, size=(m.n, pol.d))
    for method in ("geometric", "fixed_horizon"):
        with patch.object(estimator, "DRAW_BLOCK", draw_block):
            got = evaluate_policy(m, pol, theta, 60, np.random.default_rng(5), method)
        assert got == ref_evaluate(m, pol, theta, 60, np.random.default_rng(5), method)


def test_shipped_path_evaluation_scores_fewer_than_half_the_entries():
    # at theta = 0 most robots reach the parked destination early, and the
    # evaluation stops scoring an episode once all of its robots are there
    run = load_config("configs/path_planning.json")
    m = run.build_model()
    pol = CoupledSoftmaxPolicy(run.graph, m.n_states, m.n_actions, run.dscp.mixing())
    episodes, eps = run.dscp.eval_episodes, run.dscp.eval_horizon_eps
    horizon = oracle.truncation_horizon(m.gamma, eps, m.reward_bound)
    rewards, seen = m.batch_rewards, []

    def counted(states, acts):
        seen.append(states.size)
        return rewards(states, acts)

    m.batch_rewards = counted
    evaluate_policy(
        m, pol, pol.zero_params(), episodes, np.random.default_rng(1), "fixed_horizon", eps
    )
    assert sum(seen) < episodes * m.n * (horizon + 1) / 2
