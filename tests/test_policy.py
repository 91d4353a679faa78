import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nmarl import netgraph, verify
from nmarl.errors import DimensionMismatch
from nmarl.policy import CoupledSoftmaxPolicy, MixingSpec

import support
from support import bfs_distances, connected_graphs, flat_steps, line_graph, zero_reward_model


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

    @pytest.mark.parametrize("field", ["self_weight", "neighbor_weight_total"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_weight_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            MixingSpec(**{field: value})


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
    # the rows of prob_tables, the action distributions every path samples from

    def test_zero_params_uniform(self, line5_policy):
        np.testing.assert_allclose(line5_policy.prob_tables(np.zeros((5, 6))), 1 / 3)

    def test_radius_zero_pure_softmax(self):
        pol = single_agent_policy()
        probs = pol.prob_tables(np.array([[1.0, 0.0, 0.0]]))[0, 0]
        e = math.e
        np.testing.assert_allclose(probs, [e / (e + 2), 1 / (e + 2), 1 / (e + 2)])

    def test_two_agent_mixing(self, pair_policy):
        theta = np.zeros((2, 4))
        theta[0, 0:2] = [10.0, 0.0]  # state 0 row of agent 0
        theta[1, 0:2] = [0.0, 10.0]
        probs = pair_policy.prob_tables(theta)[0, 0]
        z = np.array([9.0, 1.0])
        expect = np.exp(z - z.max())
        np.testing.assert_allclose(probs, expect / expect.sum(), atol=1e-12)

    @given(params_arrays)
    @settings(max_examples=1000, deadline=None)
    def test_normalized_and_positive(self, theta):
        pol = CoupledSoftmaxPolicy(line_graph(5), 2, 3, MixingSpec(kappa_p=1))
        for params in (theta, np.stack([theta, -theta, theta, 2 * theta, theta / 3])):
            tables = pol.prob_tables(params)
            assert np.max(np.abs(tables.sum(axis=-1) - 1.0)) <= 1e-12
            assert np.all(tables > 0)

    @given(params_arrays, st.floats(-50, 50))
    @settings(max_examples=100, deadline=None)
    def test_shift_invariance(self, theta, shift):
        pol = CoupledSoftmaxPolicy(line_graph(5), 2, 3, MixingSpec(kappa_p=1))
        base = pol.prob_tables(theta)[2, 1]
        shifted = theta.copy()
        shifted[2, 3:6] += shift  # constant added to agent 2's state-1 row
        np.testing.assert_allclose(pol.prob_tables(shifted)[2, 1], base, atol=1e-12)

    def test_non_finite_rejected(self, pair_policy):
        theta = np.zeros((2, 4))
        theta[1, 0] = np.nan
        with pytest.raises(ValueError):
            pair_policy.prob_tables(theta)
        with pytest.raises(ValueError):
            pair_policy.prob_tables(np.stack([np.zeros((2, 4)), theta]))

    def test_extreme_logits_stable(self, pair_policy):
        theta = np.full((2, 4), 700.0)
        probs = pair_policy.prob_tables(theta)
        assert np.all(np.isfinite(probs))
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0)


def _views(params):
    """Each row's parameter view: the ``(n, d)`` parameters, or its stack row."""
    return list(params) if params.ndim == 3 else [params] * len(params)


def _log_probs(pol, view, members, s, a) -> float:
    """``sum_j log pi_j(a_j | s_j)`` over ``members`` under the ``(n, d)`` ``view``."""
    tables = pol.prob_tables(view)
    return float(np.log(tables[members, np.take(s, members), np.take(a, members)]).sum())


class TestScore:
    # the coupled score terms, read off score_sums rows

    def test_uniform_closed_form(self, line5_policy):
        # at theta = 0 every pi_j is uniform. Row i adds coupling[j, i] * (e_{a_j}
        # - 1/3) in the entries of s_j over the agents j within one hop; agent
        # 0 has one other agent in reach, so its weight in row 1 is 0.1, while
        # agent 1's in row 0 is 0.05.
        s, a = (0, 0, 1, 0, 1), (2, 1, 0, 2, 0)
        rows = line5_policy.score_sums(s, a, np.zeros((5, 6)))
        e, third = np.eye(3), np.full(3, 1 / 3)
        expect = {
            0: [0.9 * (e[2] - third) + 0.05 * (e[1] - third), np.zeros(3)],
            1: [0.1 * (e[2] - third) + 0.9 * (e[1] - third), 0.05 * (e[0] - third)],
            2: [0.05 * (e[1] + e[2] - 2 * third), 0.9 * (e[0] - third)],
        }
        for i, blocks in expect.items():
            np.testing.assert_allclose(rows[i], np.concatenate(blocks), atol=1e-12)

    def test_zero_outside_radius(self, line5_policy):
        # row 0 reads no entry of agents 3 and 4, nor row 4 of agents 0 and 1
        rng = np.random.default_rng(0)
        s, a = np.array([0, 1, 0, 1, 1]), np.array([2, 0, 1, 2, 0])
        for params in (rng.normal(size=(5, 6)), rng.normal(size=(5, 5, 6))):
            base = line5_policy.score_sums(s, a, params)
            for row, far in ((0, slice(3, 5)), (4, slice(0, 2))):
                s2, a2 = s.copy(), a.copy()
                s2[far], a2[far] = 1 - s[far], (a[far] + 1) % 3
                got = line5_policy.score_sums(s2, a2, params)
                np.testing.assert_array_equal(got[row], base[row])
                assert not np.array_equal(got[2], base[2])  # row 2 reads them

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_zero_mean_under_policy(self, seed):
        # the verify check on fresh draws: exact mean zero of every row over
        # its coupled agents' joint actions, and every coupled agent's term
        ok, detail = verify.check_policy_scores(seed=seed, draws=1)
        assert ok, detail

    @given(params_arrays, st.booleans(), st.integers(0, 2**31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_norm_bound(self, theta, stack, seed):
        pol = CoupledSoftmaxPolicy(line_graph(5), 2, 3, MixingSpec(kappa_p=1))
        b = pol.score_bound()
        assert b == pytest.approx(0.9 * math.sqrt(2))
        params = np.stack([theta, -theta, theta, 2 * theta, theta / 3]) if stack else theta
        m_kp = netgraph.max_neighborhood_size(pol.graph, 1)
        rng = np.random.default_rng(seed)
        for _ in range(3):
            s, a = rng.integers(2, size=5), rng.integers(3, size=5)
            norms = np.linalg.norm(pol.score_sums(s, a, params), axis=1)
            # one term per coupled agent j, each of norm at most sqrt(2) * coupling[j, i]
            assert np.all(norms <= math.sqrt(2) * pol.coupling.sum(axis=0) + 1e-12)
            assert np.all(norms <= b * m_kp + 1e-12)

    def test_matches_finite_differences(self, line5_policy):
        # each (i, j, s_j, a_j) with agent j alone in state s_j among row i's
        # agents, so that row i's entries of state s_j hold only j's term: the
        # gradient of log pi_j(a_j | s_j) with respect to theta_i, in row i's view
        rng = np.random.default_rng(4)
        h = 1e-6
        cases = [
            (2, 2, 0, 1, (1, 1, 0, 1, 0)),
            (1, 2, 1, 0, (0, 0, 1, 0, 0)),
            (3, 2, 0, 2, (1, 1, 0, 1, 1)),
        ]
        for params in (rng.uniform(-1, 1, size=(5, 6)), rng.uniform(-1, 1, size=(5, 5, 6))):
            for i, j, s_j, a_j, s in cases:
                a = (0, 1, a_j, 2, 0)
                row = line5_policy.score_sums(s, a, params)[i]
                view = _views(params)[i]
                for k in range(6):
                    plus, minus = view.copy(), view.copy()
                    plus[i, k] += h
                    minus[i, k] -= h
                    fd = (
                        _log_probs(line5_policy, plus, [j], s, a)
                        - _log_probs(line5_policy, minus, [j], s, a)
                    ) / (2 * h)
                    if k // 3 == s_j:
                        assert fd == pytest.approx(row[k], rel=1e-4, abs=1e-9)
                    else:
                        assert abs(fd) <= 1e-9


class TestScoreSum:
    def test_radius_zero_reduces_to_own_score(self):
        g = line_graph(3)
        pol = CoupledSoftmaxPolicy(g, 2, 2, MixingSpec(kappa_p=0))
        theta = np.random.default_rng(1).normal(size=(3, 4))
        s, a = (0, 1, 0), (1, 0, 1)
        expect = np.zeros(4)
        expect[2:4] = np.eye(2)[0] - pol.prob_tables(theta)[1, 1]  # agent 1's own score
        np.testing.assert_allclose(pol.score_sum(1, s, a, theta), expect)

    def test_matches_sum_of_scores(self, line5_policy):
        rng = np.random.default_rng(2)
        s, a = (0, 1, 0, 1, 1), (2, 0, 1, 2, 0)
        for params in (rng.normal(size=(5, 6)), rng.normal(size=(5, 5, 6))):
            rows = line5_policy.score_sums(s, a, params)
            for i, view in enumerate(_views(params)):
                manual = sum(
                    support.score(line5_policy, i, j, s[j], a[j], view)
                    for j in netgraph.khop(line5_policy.graph, i, 1)
                )
                np.testing.assert_allclose(rows[i], manual, atol=1e-13)
                np.testing.assert_array_equal(
                    line5_policy.score_sum(i, s, a, view), line5_policy.score_sums(s, a, view)[i]
                )

    def test_directional_derivative(self, line5_policy):
        # row i is the gradient of sum_j log pi_j(a_j | s_j), over the agents
        # j within kappa_p hops, with respect to theta_i in row i's view
        rng = np.random.default_rng(9)
        h = 1e-6
        s, a = (1, 0, 1, 0, 1), (0, 2, 1, 0, 2)
        for params in (rng.uniform(-1, 1, size=(5, 6)), rng.uniform(-1, 1, size=(5, 5, 6))):
            rows = line5_policy.score_sums(s, a, params)
            for i, view in enumerate(_views(params)):
                members = list(netgraph.khop(line5_policy.graph, i, 1))
                for k in range(6):
                    plus, minus = view.copy(), view.copy()
                    plus[i, k] += h
                    minus[i, k] -= h
                    fd = (
                        _log_probs(line5_policy, plus, members, s, a)
                        - _log_probs(line5_policy, minus, members, s, a)
                    ) / (2 * h)
                    assert fd == pytest.approx(rows[i, k], rel=1e-4, abs=1e-9)

    def test_norm_bound_diagnostic(self, line5_policy):
        theta = np.zeros((5, 6))
        s, a = (0, 0, 0, 0, 0), (1, 1, 1, 1, 1)
        total = line5_policy.score_sum(2, s, a, theta)
        m_kp = netgraph.max_neighborhood_size(line5_policy.graph, 1)
        assert np.linalg.norm(total) <= line5_policy.score_bound() * m_kp


@pytest.mark.parametrize("kappa_p", [0, 1, 2])
@pytest.mark.parametrize("stack", [False, True])
@pytest.mark.parametrize("kind", ["line", "ring", "star"])
def test_score_sums_episode_axis_matches_single_calls(kind, stack, kappa_p):
    # leading snapshot axes score each snapshot as a call with it alone, bit for bit
    g = support.shaped_graph(kind, 6)
    pol = CoupledSoftmaxPolicy(g, 3, 2, MixingSpec(kappa_p=kappa_p))
    rng = np.random.default_rng([kappa_p, stack])
    params = rng.uniform(-5, 5, size=(6, 6, pol.d) if stack else (6, pol.d))
    states, actions = rng.integers(3, size=(40, 6)), rng.integers(2, size=(40, 6))
    batched = pol.score_sums(states, actions, params)
    assert batched.shape == (40, 6, pol.d)
    for e in range(40):
        np.testing.assert_array_equal(batched[e], pol.score_sums(states[e], actions[e], params))
    nested = pol.score_sums(states.reshape(8, 5, 6), actions.reshape(8, 5, 6), params)
    np.testing.assert_array_equal(nested, batched.reshape(8, 5, 6, pol.d))


class TestSampling:
    # Joint actions are drawn by step 0 of estimator._step_blocks, each test
    # in one batched call.

    def test_saturated_policy_picks_argmax(self, pair_policy):
        theta = np.zeros((2, 4))
        theta[:, 0] = 60.0  # state-0 rows prefer action 0 by a huge gap
        theta[:, 2] = 60.0
        m = zero_reward_model(pair_policy.graph)
        states = np.tile((0, 1), (2000, 1))
        tables = pair_policy.prob_tables(theta)
        _, acts = next(flat_steps(m, tables, states, np.random.default_rng(0), 0))
        assert np.all(acts == 0)

    def test_uniform_frequencies(self):
        pol = single_agent_policy(n_actions=3)
        m = zero_reward_model(pol.graph, n_states=1, n_actions=3)
        n = 100_000
        states = np.zeros((n, 1), dtype=np.intp)
        tables = pol.prob_tables(np.zeros((1, 3)))
        _, acts = next(flat_steps(m, tables, states, np.random.default_rng(8), 0))
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
                    tables[i, s], support.action_probs(line5_policy, i, s, est[i]), atol=1e-14
                )

    def test_bad_stack_shape(self, pair_policy):
        with pytest.raises(DimensionMismatch):
            pair_policy.prob_tables(np.zeros((3, 4)))
        with pytest.raises(DimensionMismatch):
            pair_policy.score_sums((0, 0), (0, 0), np.zeros((2, 3)))
        with pytest.raises(DimensionMismatch):
            pair_policy.score_sum(0, (0, 0), (0, 0), np.zeros((2, 2, 4)))
