import itertools

import numpy as np
import pytest

from nmarl import netgraph, oracle
from nmarl.errors import IndexOutOfRange, SpaceTooLarge
from nmarl.model import FactoredNmarlModel, InitialDistribution
from nmarl.policy import CoupledSoftmaxPolicy, MixingSpec

from support import (
    Untouchable,
    constant_reward_model,
    line_graph,
    random_table_model,
    ref_gradient_via_local_q,
    ref_rho_prob,
    zero_reward_model,
)
from test_oracle_golden import build_case


@pytest.fixture
def line3():
    g = line_graph(3)
    m = random_table_model(g, np.random.default_rng(17))
    pol = CoupledSoftmaxPolicy(g, 2, 2, MixingSpec(kappa_p=1))
    theta = np.random.default_rng(18).uniform(-1, 1, size=(3, 4))
    return m, pol, theta


def uniform_tables(n, n_states, n_actions):
    return np.full((n, n_states, n_actions), 1.0 / n_actions)


class TestExactObjective:
    def test_constant_reward_geometric_series(self):
        m = constant_reward_model(line_graph(2), c=-0.5, gamma=0.9)
        j = oracle.exact_objective(m, uniform_tables(2, 2, 2))
        assert j == pytest.approx(-5.0, abs=1e-8)

    def test_two_state_alternating_chain(self):
        # deterministic swap chain, reward 1 in state 0 and 0 in state 1
        g = netgraph.build_graph(1, [])
        kernel = np.zeros((2, 1, 2))
        kernel[0, 0, 1] = 1.0
        kernel[1, 0, 0] = 1.0
        m = FactoredNmarlModel(
            g, 2, 1, [kernel],
            lambda s, a: (s == 0).astype(float),
            InitialDistribution.fixed([0]), 0.9,
        )
        j = oracle.exact_objective(m, uniform_tables(1, 2, 1))
        assert j == pytest.approx(1.0 / (1.0 - 0.81), abs=1e-8)

    def test_zero_rewards(self):
        m = zero_reward_model(line_graph(3))
        assert oracle.exact_objective(m, uniform_tables(3, 2, 2)) == 0.0

    def test_space_guard(self):
        with pytest.raises(SpaceTooLarge):
            oracle.enumerate_space([10] * 7)

    def test_index_checks_the_point(self):
        # a point's index is its position in ``points``; a point of the wrong
        # length or with a coordinate outside its axis is refused, also
        # where an unchecked row-major sum lands on another entry
        space = oracle.enumerate_space((2, 3))
        assert [space.index(p) for p in space.points] == list(range(6))
        for bad in [(0, 3), (0, -1), (2, 0), (-1, 0), (0,), (0, 0, 1), (), (0, 1.0)]:
            with pytest.raises(IndexOutOfRange):
                space.index(bad)
        m = random_table_model(line_graph(2), np.random.default_rng(3))
        tables = uniform_tables(2, 2, 2)
        chain, q = oracle.global_q_table(m, tables)
        for s in [(0, 2), (0,), (0, 0, 1)]:
            with pytest.raises(IndexOutOfRange):
                oracle.q_at(chain, q, s, (0, 0))
            with pytest.raises(IndexOutOfRange):
                oracle.neighbors_averaged_q(m, tables, 0, s, (0, 0), kappa_p=1)


class TestDecomposition:
    def test_global_equals_mean_of_local(self, line3):
        m, pol, theta = line3
        tables = pol.prob_tables(theta)
        global_q = oracle.global_q_table(m, tables)
        local_q = [oracle.local_q_table(m, tables, i) for i in range(3)]
        worst = 0.0
        for s in itertools.product(range(2), repeat=3):
            for a in itertools.product(range(2), repeat=3):
                gq = oracle.q_at(*global_q, s, a)
                total = 0.0
                for i in range(3):
                    mem = m.reward_members[i]
                    total += oracle.q_at(*local_q[i], [s[j] for j in mem], [a[j] for j in mem])
                worst = max(worst, abs(gq - total / 3))
        assert worst <= 1e-6

    def test_single_agent_local_equals_global(self):
        g = netgraph.build_graph(1, [])
        m = random_table_model(g, np.random.default_rng(2))
        tables = uniform_tables(1, 2, 2)
        global_q = oracle.global_q_table(m, tables)
        local_q = oracle.local_q_table(m, tables, 0)
        for s in range(2):
            for a in range(2):
                assert oracle.q_at(*local_q, (s,), (a,)) == pytest.approx(
                    oracle.q_at(*global_q, (s,), (a,)), abs=1e-9
                )

    def test_neighbors_averaged_matches_local_sum(self, line3):
        m, pol, theta = line3
        tables = pol.prob_tables(theta)
        i = 0
        outer = netgraph.khop(m.graph, i, 1 + 2 * m.kappa_r)
        inner = netgraph.khop(m.graph, i, 1 + m.kappa_r)
        local_q = {j: oracle.local_q_table(m, tables, j) for j in inner}
        for s in itertools.product(range(2), repeat=3):
            for a in itertools.product(range(2), repeat=3):
                s_o = [s[j] for j in outer]
                a_o = [a[j] for j in outer]
                left = oracle.neighbors_averaged_q(m, tables, i, s_o, a_o, kappa_p=1)
                right = sum(
                    oracle.q_at(
                        *local_q[j],
                        [s[k] for k in m.reward_members[j]],
                        [a[k] for k in m.reward_members[j]],
                    )
                    for j in inner
                ) / m.n
                assert left == pytest.approx(right, abs=1e-6)

    def test_averaged_q_ignores_far_agents(self):
        # on a 5-line with kappa_p = kappa_r = 1, agent 0's averaged value
        # reads agents 0..3 only; agent 4 must not matter
        g = line_graph(5)
        m = random_table_model(g, np.random.default_rng(31))
        tables = uniform_tables(5, 2, 2)
        outer = netgraph.khop(g, 0, 3)
        assert outer == (0, 1, 2, 3)
        val = oracle.neighbors_averaged_q(m, tables, 0, (0, 1, 0, 1), (1, 0, 1, 0), 1)
        assert np.isfinite(val)


class TestVisitation:
    def test_absorbing_point_mass(self):
        g = netgraph.build_graph(1, [])
        kernel = np.zeros((2, 1, 2))
        kernel[:, 0, 0] = 1.0  # everything falls into state 0
        m = FactoredNmarlModel(
            g, 2, 1, [kernel], lambda s, a: np.zeros(s.shape),
            InitialDistribution.fixed([0]), 0.9,
        )
        tab, space = oracle.discounted_visitation(m, uniform_tables(1, 2, 1))
        np.testing.assert_allclose(tab, [1.0, 0.0], atol=1e-9)

    def test_tiny_gamma_recovers_rho(self):
        g = line_graph(2)
        m = random_table_model(g, np.random.default_rng(3), gamma=1e-6)
        tab, space = oracle.discounted_visitation(m, uniform_tables(2, 2, 2))
        expect = [ref_rho_prob(m.rho, s) for s in space.points]
        np.testing.assert_allclose(tab, expect, atol=1e-5)

    def test_symmetric_chain_uniform(self):
        g = netgraph.build_graph(1, [])
        m = FactoredNmarlModel(
            g, 2, 1, [np.full((2, 1, 2), 0.5)], lambda s, a: np.zeros(s.shape),
            InitialDistribution.product([np.array([0.5, 0.5])]), 0.9,
        )
        tab, _ = oracle.discounted_visitation(m, uniform_tables(1, 2, 1))
        np.testing.assert_allclose(tab, 0.5, atol=1e-9)

    def test_normalized(self, line3):
        m, pol, theta = line3
        tab, _ = oracle.discounted_visitation(m, pol.prob_tables(theta))
        assert np.all(tab >= 0)
        assert tab.sum() == pytest.approx(1.0, abs=1e-8)


class TestGradients:
    def test_zero_rewards_zero_gradient(self):
        g = line_graph(3)
        m = zero_reward_model(g)
        pol = CoupledSoftmaxPolicy(g, 2, 2, MixingSpec(kappa_p=1))
        theta = np.random.default_rng(0).normal(size=(3, 4))
        assert np.all(oracle.gradient_via_local_q(m, pol, theta, 1) == 0.0)
        assert np.all(oracle.gradient_via_averaged_q(m, pol, theta, 1) == 0.0)

    def test_two_forms_agree(self, line3):
        m, pol, _ = line3
        rng = np.random.default_rng(100)
        for _ in range(3):
            theta = rng.uniform(-1, 1, size=(3, 4))
            for i in range(3):
                g1 = oracle.gradient_via_local_q(m, pol, theta, i)
                g2 = oracle.gradient_via_averaged_q(m, pol, theta, i)
                np.testing.assert_allclose(g1, g2, atol=1e-6)

    def test_two_forms_agree_at_estimates(self, line3):
        m, pol, _ = line3
        est = np.random.default_rng(5).uniform(-1, 1, size=(3, 3, 4))
        for i in range(3):
            g1 = oracle.gradient_via_local_q(m, pol, est, i)
            g2 = oracle.gradient_via_averaged_q(m, pol, est, i)
            np.testing.assert_allclose(g1, g2, atol=1e-6)

    def test_matches_finite_differences(self, line3):
        m, pol, theta = line3
        for i in range(3):
            exact = oracle.gradient_via_local_q(m, pol, theta, i)
            fd = oracle.finite_difference_gradient(m, pol, theta, i, h=1e-5)
            np.testing.assert_allclose(fd, exact, rtol=1e-4, atol=1e-8)

    def test_far_value_terms_cancel(self):
        # 5-line, kappa_p = kappa_r = 1: agents beyond 2 hops contribute value
        # terms whose expectation vanishes under consistent parameters
        g = line_graph(5)
        m = random_table_model(g, np.random.default_rng(41))
        pol = CoupledSoftmaxPolicy(g, 2, 2, MixingSpec(kappa_p=1))
        theta = np.random.default_rng(42).uniform(-1, 1, size=(5, 4))
        truncated = oracle.gradient_via_local_q(m, pol, theta, 0)
        full = ref_gradient_via_local_q(m, pol, theta, 0, full_sum=True)
        np.testing.assert_allclose(truncated, full, atol=1e-6)


class TestCentralDifference:
    def test_quadratic_sanity(self):
        x = np.array([1.0, -2.0, 0.5])
        grad = oracle.central_difference(lambda pts: (pts * pts).sum(axis=1), x, h=1e-5)
        np.testing.assert_allclose(grad, 2 * x, atol=1e-9)

    def test_bad_step(self):
        with pytest.raises(ValueError):
            oracle.central_difference(lambda v: 0.0, np.zeros(2), h=0.0)


def _with_start(m, kind):
    """``m`` with a fixed start at state 0 or a uniform product start."""
    rho = (
        InitialDistribution.fixed([0] * m.n)
        if kind == "fixed"
        else InitialDistribution.product([np.full(m.n_states, 1.0 / m.n_states)] * m.n)
    )
    return FactoredNmarlModel(
        m.graph, m.n_states, m.n_actions, m.kernels, m.batch_rewards, rho, m.gamma
    )


class TestPolicyStacks:
    @pytest.mark.parametrize("start", ["fixed", "product"])
    @pytest.mark.parametrize("kappa_p", [1, 2])
    @pytest.mark.parametrize("name", ["power_control", "line3"])
    def test_stack_composition_keeps_each_objective(self, monkeypatch, name, kappa_p, start):
        m, pol = build_case(name, kappa_p)
        m = _with_start(m, start)
        params = np.random.default_rng(kappa_p).uniform(-1.0, 1.0, size=(24, m.n, pol.d))
        tables = np.array([pol.prob_tables(p) for p in params])
        alone = np.array([oracle.exact_objective(m, t) for t in tables])
        whole = oracle.exact_objective(m, tables)
        assert whole.shape == (24,)
        np.testing.assert_allclose(whole, alone, rtol=1e-14, atol=0.0)
        ns, na = m.n_states**m.n, m.n_actions**m.n
        monkeypatch.setattr(oracle, "STACK_BYTES", 8 * 8 * ns * (ns + na))
        np.testing.assert_allclose(oracle.exact_objective(m, tables), whole, rtol=1e-14, atol=0.0)
        # the chain and its Q table carry the stack axis too
        _, stacked = oracle.local_q_table(m, tables[:3], 1)
        singles = [oracle.local_q_table(m, t, 1)[1] for t in tables[:3]]
        np.testing.assert_allclose(stacked, singles, rtol=1e-14, atol=1e-15)

    def test_chunk_guard_fires_before_the_chunk_is_built(self, monkeypatch, line3):
        # the transition table (8 * 8 * 8 entries) fits, five policies' DP
        # tables (5 * 8 * (8 + 8)) do not
        m, pol, theta = line3
        tables = np.stack([pol.prob_tables(theta)] * 5)
        real = oracle.tensor_product

        def no_stack(tables, lead=0):
            assert lead == 0, "a policy stack was built before the size guard fired"
            return real(tables, lead)

        monkeypatch.setattr(oracle, "MAX_TABLE_ENTRIES", 600)
        monkeypatch.setattr(oracle, "tensor_product", no_stack)
        monkeypatch.setattr(oracle, "_state_values", Untouchable())
        with pytest.raises(SpaceTooLarge, match="policy stack needs 640 entries"):
            oracle.exact_objective(m, tables)

    def test_finite_difference_evaluates_one_stack(self, monkeypatch, line3):
        m, pol, theta = line3
        calls = []
        real = oracle.exact_objective
        monkeypatch.setattr(
            oracle, "exact_objective",
            lambda m, tables, eps: calls.append(np.shape(tables)) or real(m, tables, eps),
        )
        oracle.finite_difference_gradient(m, pol, theta, 1)
        assert calls == [(2 * pol.d, 3, 2, 2)]


class TestAgentSets:
    @pytest.mark.parametrize("shape", ["true", "estimates"])
    @pytest.mark.parametrize("kappa_p", [1, 2])
    @pytest.mark.parametrize("name", ["power_control", "line3"])
    def test_set_rows_are_the_int_calls(self, name, kappa_p, shape):
        m, pol = build_case(name, kappa_p)
        size = (m.n, pol.d) if shape == "true" else (m.n, m.n, pol.d)
        params = np.random.default_rng(kappa_p).uniform(-1.0, 1.0, size=size)
        agents = (2, 0, 1, 0)
        rows = oracle.gradient_via_local_q(m, pol, params, agents)
        assert rows.shape == (4, pol.d)
        for row, i in zip(rows, agents):
            np.testing.assert_array_equal(row, oracle.gradient_via_local_q(m, pol, params, i))
        rows = oracle.gradient_via_averaged_q(m, pol, params, range(m.n))
        for i in range(m.n):
            np.testing.assert_array_equal(rows[i], oracle.gradient_via_averaged_q(m, pol, params, i))

    def test_one_visitation_and_one_chain_per_target(self, monkeypatch, line3):
        m, pol, theta = line3
        counts = {"visitation": 0, "chains": 0}
        real_visitation, real_build = oracle.discounted_visitation, oracle.build_restricted_chain

        def visitation(*args):
            counts["visitation"] += 1
            return real_visitation(*args)

        def build(*args, **kwargs):
            counts["chains"] += 1
            return real_build(*args, **kwargs)

        monkeypatch.setattr(oracle, "discounted_visitation", visitation)
        monkeypatch.setattr(oracle, "build_restricted_chain", build)
        oracle.gradient_via_local_q(m, pol, theta, range(3))
        assert counts == {"visitation": 1, "chains": 3}
