import dataclasses
import hashlib
import io
import itertools
import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmarl import estimator, netgraph, oracle, trainer
from nmarl.config import load_config
from nmarl.errors import (BoundViolated, ConfigError, DimensionMismatch, HorizonOverflow,
                          NonFiniteState, NonPositiveWeight, ProtocolInvariantError)
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

    @pytest.mark.parametrize(
        "field",
        [
            "eta0", "t0", "self_weight", "neighbor_weight_total", "eval_horizon_eps",
            "iterations", "batch", "eval_every", "seed", "eval_episodes", "kappa_p",
        ],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_values_rejected(self, field, value):
        # NaN fails every ordered comparison, so each check must be written
        # to fail on it rather than to pass
        with pytest.raises(ConfigError):
            DscpConfig(**{"iterations": 3, field: value})
        if field == "kappa_p":
            with pytest.raises(ConfigError):
                MixingSpec(kappa_p=value)

    @pytest.mark.parametrize("field", ["iterations", "batch", "eval_every", "seed", "kappa_p"])
    @pytest.mark.parametrize("value", [2.0, True])
    def test_integer_fields_need_integers(self, field, value):
        with pytest.raises(ConfigError, match="integer"):
            DscpConfig(**{"iterations": 3, field: value})

    @pytest.mark.parametrize("kappa_p", [1, 2])
    def test_zero_mixing_weights_rejected_when_coupled(self, kappa_p):
        # every coupling row is zero: the policy ignores its parameters and
        # training runs without moving them
        with pytest.raises(ConfigError, match="coupling row is zero"):
            DscpConfig(3, kappa_p=kappa_p, self_weight=0.0, neighbor_weight_total=0.0)
        # the weights do not enter a kappa_p = 0 policy, and one weight suffices
        DscpConfig(3, kappa_p=0, self_weight=0.0, neighbor_weight_total=0.0)
        DscpConfig(3, kappa_p=kappa_p, self_weight=0.0, neighbor_weight_total=0.1)
        DscpConfig(3, kappa_p=kappa_p, self_weight=0.1, neighbor_weight_total=0.0)


def _steps(m, cfg, gradient=trainer.sampled_gradient):
    """A run of ``cfg.iterations`` steps with ``gradient``, and its rows."""
    run = trainer.start_run(m, cfg)
    return run, [trainer.step(run, gradient) for _ in range(cfg.iterations)]


def _csv(rows) -> str:
    buf = io.StringIO()
    trainer.TrainRecord(rows).write_csv(buf)
    return buf.getvalue()


def _sha(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype=float).tobytes()).hexdigest()


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

    @pytest.mark.parametrize(
        "field, message", [("weights", "weight mass"), ("breve", "intermediate-vector means")]
    )
    def test_invariant_checks_stop_a_corrupted_run(self, field, message):
        g = line_graph(3)
        m = random_table_model(g, np.random.default_rng(2), fixed_start=True)
        run = trainer.start_run(m, DscpConfig(iterations=60, seed=7, check_invariants=True))
        for _ in range(5):
            trainer.step(run)
        getattr(run.ps, field).flat[1] += 1e-6
        with pytest.raises(ProtocolInvariantError, match=message):
            trainer.step(run)

    def test_graph_other_than_the_models_rejected(self):
        # the policy would couple on one graph while the return estimate and
        # the estimate cap read the model's
        m = random_table_model(line_graph(3), np.random.default_rng(3), fixed_start=True)
        other = netgraph.build_graph(3, [(1, 3), (2, 3)])
        with pytest.raises(ConfigError, match="graph"):
            run_dscp(m, other, DscpConfig(iterations=50, seed=1))
        # an equal graph built apart is the model's graph
        run_dscp(m, line_graph(3), DscpConfig(iterations=2, seed=1))

    def test_kappa_zero_disables_pushsum(self):
        g = line_graph(3)
        m = random_table_model(g, np.random.default_rng(3), fixed_start=True)
        _, rec = run_dscp(m, g, DscpConfig(iterations=20, kappa_p=0, seed=1))
        assert all(r.consensus_err == 0.0 for r in rec.rows)

    @pytest.mark.parametrize(
        "seed, theta_sha, columns_sha",
        [
            (1, "503f15c0cea13675ef8c10cb7e1bc0b19df0b0ba57194f4e374124c054e5737d",
             "2d65403450b148930cb337ddee75206b305a597d5ecdb9da813ac5f66ce1b96e"),
            (2, "9ef97da6f397176f120990a41919cc512382304c15dc3b4d0d319195f422dffc",
             "8e44043465e9624a28fb28711b90c4b30520ba69b339e80ca6a4e1a05d899154"),
        ],
        ids=["seed1", "seed2"],
    )
    def test_true_parameter_sampling_is_pinned(self, seed, theta_sha, columns_sha):
        # the digests of runs at commit 360cd8c whose neighbors shared their
        # true parameters (the removed direct_params key, which skipped
        # push-sum); push-sum now runs beside them and only fills
        # consensus_err, which the digest leaves out
        g = line_graph(3)
        m = random_table_model(g, np.random.default_rng(4), fixed_start=True)
        cfg = DscpConfig(iterations=20, kappa_p=1, seed=seed, eval_every=10, eval_episodes=20)
        run, rows = _steps(m, cfg, lambda run, _: trainer.sampled_gradient(run, run.theta))
        columns = [
            [math.nan if getattr(r, key) is None else getattr(r, key) for r in rows]
            for key in ("j_est", "j_se", "grad_norm_est", "lr")
        ]
        assert _sha(run.theta) == theta_sha
        assert _sha(columns) == columns_sha

    @pytest.mark.parametrize("kappa_p", [0, 1, 2])
    def test_gradient_receives_the_executed_parameters(self, kappa_p):
        g = line_graph(3)
        m = random_table_model(g, np.random.default_rng(4), fixed_start=True)
        cfg = DscpConfig(iterations=8, kappa_p=kappa_p, seed=1)
        seen = []

        def spy(run, executed):
            seen.append(executed is (run.theta if run.ps is None else run.ps.estimates))
            return trainer.sampled_gradient(run, executed)

        run, _ = _steps(m, cfg, spy)
        assert seen == [True] * 7
        assert (run.ps is None) == (kappa_p == 0)
        # the default gradient is the same sampled one
        assert run.theta.tobytes() == run_dscp(m, g, cfg)[0].tobytes()

    @pytest.mark.parametrize("kappa_p", [0, 1, 2])
    def test_state_is_complete(self, kappa_p):
        # a fresh state given a run's t, theta, push-sum arrays and generator
        # state continues it byte for byte
        g = line_graph(3)
        m = random_table_model(g, np.random.default_rng(7), fixed_start=True)
        cfg = DscpConfig(iterations=30, kappa_p=kappa_p, seed=4, eval_every=10, eval_episodes=20)
        run = trainer.start_run(m, cfg)
        for _ in range(12):
            trainer.step(run)
        fresh = trainer.start_run(m, cfg)
        fresh.t, fresh.theta = run.t, run.theta.copy()
        if run.ps is not None:
            for f in dataclasses.fields(run.ps):
                setattr(fresh.ps, f.name, getattr(run.ps, f.name).copy())
        fresh.rng.bit_generator.state = run.rng.bit_generator.state
        tails = [[trainer.step(r) for _ in range(12, 30)] for r in (run, fresh)]
        assert _csv(tails[0]) == _csv(tails[1])
        assert run.theta.tobytes() == fresh.theta.tobytes()

    @pytest.mark.parametrize("kappa_p", [0, 1, 2])
    def test_non_finite_parameters_stop_the_run(self, kappa_p):
        g = line_graph(3)
        m = random_table_model(g, np.random.default_rng(6), fixed_start=True)
        cfg = DscpConfig(iterations=5, kappa_p=kappa_p, seed=1)

        def nan_at_2(run, _):
            return np.full(run.theta.shape, np.nan if run.t == 2 else 0.1)

        with pytest.raises(NonFiniteState, match="after iteration 2"):
            _steps(m, cfg, nan_at_2)

    @pytest.mark.parametrize("kappa_p", [1, 2])
    def test_overflowing_estimates_stop_the_run(self, kappa_p):
        # finite parameters whose push-sum estimates are so far off that the
        # consensus error overflows: the run stops before it samples with them
        g = line_graph(3)
        m = random_table_model(g, np.random.default_rng(6), fixed_start=True)
        cfg = DscpConfig(iterations=5, kappa_p=kappa_p, seed=1)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteState, match="iteration 2"):
            _steps(m, cfg, lambda run, _: np.full(run.theta.shape, 1e306))

    @pytest.mark.parametrize("kappa_p", [1, 2])
    def test_zeroed_pushsum_weights_stop_the_run(self, kappa_p):
        run = self._stepped(kappa_p)
        run.ps.weights[:] = 0.0
        with pytest.raises(NonPositiveWeight, match="non-positive"):
            trainer.step(run)

    @pytest.mark.parametrize("kappa_p", [1, 2])
    def test_nan_intermediate_vector_stops_the_run(self, kappa_p):
        run = self._stepped(kappa_p)
        run.ps.breve[1, 2, 0] = np.nan
        with pytest.raises(NonFiniteState, match="consensus error is nan at iteration 4"):
            trainer.step(run)

    @pytest.mark.parametrize("kappa_p", [0, 1, 2])
    def test_estimate_bound_is_checked_every_step(self, kappa_p):
        run = self._stepped(kappa_p)
        norms = []

        def bounded(run, executed):
            grads = trainer.sampled_gradient(run, executed)
            norms.append(math.sqrt(grads.ravel() @ grads.ravel()))
            return grads

        trainer.step(run, bounded)
        assert norms[0] > 0.0
        run.bound = 0.5 * norms[0]  # below a norm the step just sampled
        with pytest.raises(BoundViolated, match="exceeds analytic cap"):
            for _ in range(5):
                trainer.step(run)

    @pytest.mark.parametrize("kappa_p", [0, 1, 2])
    def test_horizon_cap_is_checked_by_the_rollout(self, kappa_p, monkeypatch):
        monkeypatch.setattr(estimator, "MAX_HORIZON", 0)
        run = trainer.start_run(*self._model_and_config(kappa_p))
        run.t = 1  # past iteration 1, whose evaluation would refuse the cap first
        with pytest.raises(HorizonOverflow, match="sampled horizon"):
            for _ in range(5):
                trainer.step(run)

    @pytest.mark.parametrize("kappa_p", [0, 1])
    def test_misshapen_gradient_is_refused_before_the_update(self, kappa_p):
        # an (n, n, d) result would broadcast theta into a stack at kappa_p 0,
        # and reach the injection only after theta was replaced at kappa_p 1
        run = self._stepped(kappa_p)
        theta, seen = run.theta.copy(), []

        def stacked(run, executed):
            if run.ps is not None:
                seen.extend(getattr(run.ps, f.name).copy() for f in dataclasses.fields(run.ps))
            return np.zeros((run.m.n,) + run.theta.shape)

        with pytest.raises(DimensionMismatch, match=r"gradient has shape \(3, 3, "):
            trainer.step(run, stacked)
        np.testing.assert_array_equal(run.theta, theta)
        assert len(seen) == (0 if kappa_p == 0 else 3)
        for f, before in zip(dataclasses.fields(run.ps) if run.ps else (), seen):
            np.testing.assert_array_equal(getattr(run.ps, f.name), before, err_msg=f.name)

    @staticmethod
    def _model_and_config(kappa_p):
        g = line_graph(3)
        m = random_table_model(g, np.random.default_rng(8), fixed_start=True)
        return m, DscpConfig(iterations=20, kappa_p=kappa_p, seed=3)

    def _stepped(self, kappa_p):
        """A run three sampled steps in."""
        run = trainer.start_run(*self._model_and_config(kappa_p))
        for _ in range(3):
            trainer.step(run)
        return run

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
        values = []

        def exact_grad(run, _):
            values.append(oracle.exact_objective(m, run.pol.prob_tables(run.theta)))
            return oracle.gradient_via_local_q(m, run.pol, run.theta, range(2))

        cfg = DscpConfig(iterations=51, seed=0, eta0=1e-3, t0=0.0)
        _steps(m, cfg, exact_grad)
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
    policy and its parameters, and an episode count from 1 to ``150 // n``."""
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
    episodes = draw(st.sampled_from([1, 2]) | st.integers(3, 150 // n))
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
    # the shipped rewards (table lookups) on stacked blocks of steps
    run = load_config(f"configs/{config}.json")
    m = run.build_model()
    pol = CoupledSoftmaxPolicy(m.graph, m.n_states, m.n_actions, run.dscp.mixing())
    theta = np.random.default_rng(4).uniform(-1, 1, size=(m.n, pol.d))
    for method in ("geometric", "fixed_horizon"):
        with patch.object(estimator, "DRAW_BLOCK", draw_block):
            got = evaluate_policy(m, pol, theta, 60, np.random.default_rng(5), method)
        assert got == ref_evaluate(m, pol, theta, 60, np.random.default_rng(5), method)


# signed zeros, infinities, NaN, and finite values that round when added
SUM_TERMS = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 0.1, 1e16, -1e-300, 1e308]


@pytest.mark.parametrize("n", range(1, 13))
@given(
    lead=st.sampled_from([(), (1,), (9,), (2, 1), (3, 40)]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=25, deadline=None)
def test_agent_sums_are_numpy_reduce_bit_for_bit(n, lead, seed):
    # both forms, below and from trainer.PAIRWISE_AGENTS agents on
    rng = np.random.default_rng(seed)
    with np.errstate(all="ignore"):
        rewards = rng.choice(SUM_TERMS, size=lead + (n,)) * rng.choice([1.0, 0.3, 3.7], size=n)
        got = trainer._agent_sums(rewards)
        want = np.add.reduce(rewards, axis=-1)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("lead", [(), (1, 1), (4,), (2, 3)])
def test_agent_sums_keep_numpy_signs_and_nans(n, lead):
    # every mix of infinities, NaNs of both signs and signed zeros in the
    # first three agents, on a single row and on batches
    terms = [np.inf, -np.inf, np.nan, -np.nan, -0.0, 1.0]
    for mix in itertools.product(terms, repeat=min(n, 3)):
        row = np.array(mix + (-0.0,) * (n - len(mix)))
        rewards = np.broadcast_to(row, lead + (n,)).copy()
        with np.errstate(all="ignore"):
            got = trainer._agent_sums(rewards)
            want = np.add.reduce(rewards, axis=-1)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), mix
    # a row of -0.0 sums to +0.0
    zeros = trainer._agent_sums(np.full(lead + (n,), -0.0))
    assert np.array_equal(zeros.view(np.int64), np.zeros(lead, dtype=np.int64))


def test_shipped_path_evaluation_scores_fewer_than_half_the_entries():
    # at theta = 0 most robots reach the parked destination early, and the
    # evaluation stops scoring an episode once all of its robots are there
    run = load_config("configs/path_planning.json")
    m = run.build_model()
    pol = CoupledSoftmaxPolicy(m.graph, m.n_states, m.n_actions, run.dscp.mixing())
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
