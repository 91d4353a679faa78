import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nmarl import netgraph
from nmarl.errors import DimensionMismatch
from nmarl.estimator import simulate
from nmarl.policy import CoupledSoftmaxPolicy, MixingSpec

from support import bfs_distances, connected_graphs, line_graph, zero_reward_model


def single_agent_policy(n_actions=3):
    g = netgraph.build_graph(1, [])
    return CoupledSoftmaxPolicy(g, 1, n_actions, MixingSpec(kappa_p=0))


@pytest.fixture
def pair_policy():
    g = netgraph.build_graph(2, [(1, 2)])
    return CoupledSoftmaxPolicy(g, 2, 2, MixingSpec(kappa_p=1))


@pytest.fixture
def line5_policy():
    return CoupledSoftmaxPolicy(line_graph(5), 2, 3, MixingSpec(kappa_p=1))


params_arrays = st.integers(0, 2**31 - 1).map(
    lambda s: np.random.default_rng(s).uniform(-5, 5, size=(5, 6))
)


class TestMixingSpec:
    def test_defaults(self):
        spec = MixingSpec()
        assert spec.self_weight == 0.9
        assert spec.neighbor_weight_total == 0.1

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            MixingSpec(self_weight=-0.1)
        with pytest.raises(ValueError):
            MixingSpec(kappa_p=-1)


@given(
    connected_graphs(min_agents=1),
    st.integers(0, 3),
    st.sampled_from([(0.9, 0.1), (0.0, 0.3), (0.5, 0.0), (0.0, 0.0)]),
)
@example(netgraph.ring_graph(1), 1, (0.9, 0.1))
@settings(max_examples=60, deadline=None)
def test_coupling_and_mixing_match_bfs_reference(g, kappa, weights):
    self_weight, neighbor_total = weights
    pol = CoupledSoftmaxPolicy(g, 2, 2, MixingSpec(self_weight, neighbor_total, kappa))
    coupling = np.zeros((g.n, g.n))
    mixing = np.zeros((g.n, g.n))
    for j in range(g.n):
        others = [k for k, d in bfs_distances(g, j).items() if 0 < d <= kappa]
        coupling[j, j] = self_weight if others else 1.0
        for k in others:
            coupling[j, k] = neighbor_total / len(others)
        for i in g.neighbors[j]:
            mixing[i, j] = 1.0 / len(g.neighbors[j])
    np.testing.assert_array_equal(pol.coupling, coupling)
    np.testing.assert_array_equal(netgraph.weight_matrix(g), mixing)


class TestActionProbs:
    def test_zero_params_uniform(self, line5_policy):
        probs = line5_policy.action_probs(2, 1, np.zeros((5, 6)))
        np.testing.assert_allclose(probs, 1 / 3)

    def test_radius_zero_pure_softmax(self):
        pol = single_agent_policy()
        probs = pol.action_probs(0, 0, np.array([[1.0, 0.0, 0.0]]))
        e = math.e
        np.testing.assert_allclose(probs, [e / (e + 2), 1 / (e + 2), 1 / (e + 2)])

    def test_two_agent_mixing(self, pair_policy):
        theta = np.zeros((2, 4))
        theta[0, 0:2] = [10.0, 0.0]  # state 0 row of agent 0
        theta[1, 0:2] = [0.0, 10.0]
        probs = pair_policy.action_probs(0, 0, theta)
        z = np.array([9.0, 1.0])
        expect = np.exp(z - z.max())
        np.testing.assert_allclose(probs, expect / expect.sum(), atol=1e-12)

    @given(params_arrays)
    @settings(max_examples=1000, deadline=None)
    def test_normalized_and_positive(self, theta):
        pol = CoupledSoftmaxPolicy(line_graph(5), 2, 3, MixingSpec(kappa_p=1))
        for i in range(5):
            for s in range(2):
                probs = pol.action_probs(i, s, theta)
                assert abs(probs.sum() - 1.0) <= 1e-12
                assert np.all(probs > 0)

    @given(params_arrays, st.floats(-50, 50))
    @settings(max_examples=100, deadline=None)
    def test_shift_invariance(self, theta, shift):
        pol = CoupledSoftmaxPolicy(line_graph(5), 2, 3, MixingSpec(kappa_p=1))
        base = pol.action_probs(2, 1, theta)
        shifted = theta.copy()
        shifted[2, 3:6] += shift  # constant added to agent 2's state-1 row
        np.testing.assert_allclose(pol.action_probs(2, 1, shifted), base, atol=1e-12)

    def test_non_finite_rejected(self, pair_policy):
        theta = np.zeros((2, 4))
        theta[1, 0] = np.nan
        with pytest.raises(ValueError):
            pair_policy.action_probs(0, 0, theta)

    def test_extreme_logits_stable(self, pair_policy):
        theta = np.full((2, 4), 700.0)
        probs = pair_policy.action_probs(0, 0, theta)
        assert np.all(np.isfinite(probs))
        np.testing.assert_allclose(probs.sum(), 1.0)


class TestScore:
    def test_uniform_closed_form(self, line5_policy):
        theta = np.zeros((5, 6))
        vec = line5_policy.score(2, 2, s_j=1, a_j=0, params=theta)
        expect = np.zeros(6)
        expect[3:6] = 0.9 * np.array([2 / 3, -1 / 3, -1 / 3])
        np.testing.assert_allclose(vec, expect, atol=1e-12)

    def test_zero_outside_radius(self, line5_policy):
        theta = np.random.default_rng(0).normal(size=(5, 6))
        assert np.all(line5_policy.score(0, 3, 0, 1, theta) == 0.0)
        assert np.all(line5_policy.score(4, 0, 1, 2, theta) == 0.0)

    @given(params_arrays)
    @settings(max_examples=200, deadline=None)
    def test_zero_mean_under_policy(self, theta):
        pol = CoupledSoftmaxPolicy(line_graph(5), 2, 3, MixingSpec(kappa_p=1))
        for (i, j) in [(2, 2), (1, 2), (3, 2)]:
            probs = pol.action_probs(j, 1, theta)
            mean = sum(
                probs[a] * pol.score(i, j, 1, a, theta) for a in range(3)
            )
            assert np.max(np.abs(mean)) <= 1e-12

    @given(params_arrays)
    @settings(max_examples=100, deadline=None)
    def test_norm_bound(self, theta):
        pol = CoupledSoftmaxPolicy(line_graph(5), 2, 3, MixingSpec(kappa_p=1))
        b = pol.score_bound()
        assert b == pytest.approx(0.9 * math.sqrt(2))
        for (i, j) in [(2, 2), (1, 2), (0, 1)]:
            for a in range(3):
                assert np.linalg.norm(pol.score(i, j, 1, a, theta)) <= b + 1e-12

    def test_matches_finite_differences(self, line5_policy):
        rng = np.random.default_rng(4)
        theta = rng.uniform(-1, 1, size=(5, 6))
        h = 1e-6
        for (i, j, s_j, a_j) in [(2, 2, 0, 1), (1, 2, 1, 0), (3, 2, 0, 2)]:
            vec = line5_policy.score(i, j, s_j, a_j, theta)
            for k in range(6):
                plus = theta.copy()
                plus[i, k] += h
                minus = theta.copy()
                minus[i, k] -= h
                fd = (
                    math.log(line5_policy.action_probs(j, s_j, plus)[a_j])
                    - math.log(line5_policy.action_probs(j, s_j, minus)[a_j])
                ) / (2 * h)
                assert fd == pytest.approx(vec[k], rel=1e-4, abs=1e-9)


class TestScoreSum:
    def test_radius_zero_reduces_to_own_score(self):
        g = line_graph(3)
        pol = CoupledSoftmaxPolicy(g, 2, 2, MixingSpec(kappa_p=0))
        theta = np.random.default_rng(1).normal(size=(3, 4))
        s, a = (0, 1, 0), (1, 0, 1)
        total = pol.score_sum(1, s, a, theta)
        np.testing.assert_allclose(total, pol.score(1, 1, s[1], a[1], theta))

    def test_matches_sum_of_scores(self, line5_policy):
        theta = np.random.default_rng(2).normal(size=(5, 6))
        s, a = (0, 1, 0, 1, 1), (2, 0, 1, 2, 0)
        total = line5_policy.score_sum(2, s, a, theta)
        manual = sum(line5_policy.score(2, j, s[j], a[j], theta) for j in (1, 2, 3))
        np.testing.assert_allclose(total, manual, atol=1e-13)

    def test_directional_derivative(self, line5_policy):
        # sum over neighbors of log pi_j, differentiated along theta_i coords
        rng = np.random.default_rng(9)
        theta = rng.uniform(-1, 1, size=(5, 6))
        s, a = (1, 0, 1, 0, 1), (0, 2, 1, 0, 2)
        i = 2
        total = line5_policy.score_sum(i, s, a, theta)

        def log_sum(params):
            return sum(
                math.log(line5_policy.action_probs(j, s[j], params)[a[j]])
                for j in netgraph.khop(line5_policy.graph, i, 1)
            )

        h = 1e-6
        for k in range(6):
            plus = theta.copy()
            plus[i, k] += h
            minus = theta.copy()
            minus[i, k] -= h
            fd = (log_sum(plus) - log_sum(minus)) / (2 * h)
            assert fd == pytest.approx(total[k], rel=1e-4, abs=1e-9)

    def test_norm_bound_diagnostic(self, line5_policy):
        theta = np.zeros((5, 6))
        s, a = (0, 0, 0, 0, 0), (1, 1, 1, 1, 1)
        total = line5_policy.score_sum(2, s, a, theta)
        m_kp = netgraph.max_neighborhood_size(line5_policy.graph, 1)
        assert np.linalg.norm(total) <= line5_policy.score_bound() * m_kp


class TestSampling:
    # Joint actions are drawn by estimator.simulate's step 0, each test in
    # one batched call.

    def test_saturated_policy_picks_argmax(self, pair_policy):
        theta = np.zeros((2, 4))
        theta[:, 0] = 60.0  # state-0 rows prefer action 0 by a huge gap
        theta[:, 2] = 60.0
        m = zero_reward_model(pair_policy.graph)
        states = np.tile((0, 1), (2000, 1))
        tables = pair_policy.prob_tables(theta)
        _, acts = next(simulate(m, tables, states, np.random.default_rng(0), 0))
        assert np.all(acts == 0)

    def test_uniform_frequencies(self):
        pol = single_agent_policy(n_actions=3)
        m = zero_reward_model(pol.graph, n_states=1, n_actions=3)
        n = 100_000
        states = np.zeros((n, 1), dtype=np.intp)
        tables = pol.prob_tables(np.zeros((1, 3)))
        _, acts = next(simulate(m, tables, states, np.random.default_rng(8), 0))
        counts = np.bincount(acts[:, 0], minlength=3)
        sigma = math.sqrt((1 / 3) * (2 / 3) / n)
        assert np.max(np.abs(counts / n - 1 / 3)) < 3 * sigma

    def test_consistent_estimates_match_true(self, pair_policy):
        rng = np.random.default_rng(3)
        theta = rng.normal(size=(2, 4))
        est = np.stack([theta, theta])  # every agent holds the true values
        np.testing.assert_array_equal(
            pair_policy.prob_tables(est), pair_policy.prob_tables(theta)
        )

    def test_prob_tables_match_action_probs(self, line5_policy):
        rng = np.random.default_rng(5)
        est = rng.normal(size=(5, 5, 6))
        tables = line5_policy.prob_tables(est)
        for i in range(5):
            for s in range(2):
                np.testing.assert_allclose(
                    tables[i, s], line5_policy.action_probs(i, s, est[i]), atol=1e-14
                )

    def test_bad_stack_shape(self, pair_policy):
        with pytest.raises(DimensionMismatch):
            pair_policy.prob_tables(np.zeros((3, 4)))
        with pytest.raises(DimensionMismatch):
            pair_policy.action_probs(0, 0, np.zeros((2, 3)))
