import itertools

import numpy as np
import pytest
from scipy import stats

from nmarl import model as model_module
from nmarl import netgraph
from nmarl.config import load_config
from nmarl.errors import ConfigError, DimensionMismatch, EmptySpace, KernelRowNotStochastic
from nmarl.envs import PathPlanningSpec, PathStructure, build_path_env, build_power_env
from nmarl.model import FactoredNmarlModel, InitialDistribution

from support import line_graph, next_states, random_table_model, zero_reward_model


@pytest.fixture
def line3_model():
    return random_table_model(line_graph(3), np.random.default_rng(11))


class TestValidate:
    def test_zero_rewards_bound(self):
        m = zero_reward_model(line_graph(3))
        assert m.reward_bound == 0.0
        assert m.state_sizes == (2, 2, 2)

    def test_non_stochastic_row_rejected(self):
        g = line_graph(2)
        kernels = [np.full((2, 2, 2), 0.5) for _ in range(2)]
        kernels[1] = kernels[1].copy()
        kernels[1][0, 0] = [0.49, 0.5]
        m = FactoredNmarlModel(
            g, 2, 2, kernels,
            lambda s, a: np.zeros(s.shape), InitialDistribution.fixed([0, 0]), 0.9,
        )
        with pytest.raises(KernelRowNotStochastic):
            m.validate()

    def test_empty_space_rejected(self):
        g = line_graph(2)
        for ns, na in [(0, 2), (2, 0)]:
            m = FactoredNmarlModel(
                g, ns, na, [np.zeros((ns, na, ns))] * 2,
                lambda s, a: np.zeros(s.shape), InitialDistribution.fixed([0, 0]), 0.9,
            )
            with pytest.raises(EmptySpace):
                m.validate()

    @pytest.mark.parametrize("dists", [[[0.5, 0.5]], [[0.2, 0.3, 0.5]] * 2], ids=["one", "wide"])
    def test_product_start_shape_rejected(self, dists):
        # two agents need two distributions over the two shared states
        g = line_graph(2)
        m = FactoredNmarlModel(
            g, 2, 2, [np.full((2, 2, 2), 0.5)] * 2, lambda s, a: np.zeros(s.shape),
            InitialDistribution.product([np.array(d) for d in dists]), 0.9,
        )
        with pytest.raises(DimensionMismatch):
            m.validate()

    def test_reward_shape_rejected(self):
        # one reward per agent and batch entry, or the model is malformed
        g = line_graph(2)
        m = FactoredNmarlModel(
            g, 2, 2, [np.full((2, 2, 2), 0.5)] * 2,
            lambda s, a: np.zeros(s.shape[:-1]), InitialDistribution.fixed([0, 0]), 0.9,
        )
        with pytest.raises(DimensionMismatch):
            m.validate()

    def test_reward_bound_whose_estimate_cap_overflows_rejected(self):
        # every gradient-estimate norm is at most sqrt(2) n R / ((1 - gamma)
        # (1 - sqrt(gamma))), and training squares the norms
        gains = [[1.0, 0.2, 0.0], [0.2, 1.0, 0.2], [0.0, 0.2, 1.0]]
        build_power_env(3, 4, gains, [1.0] * 3, [1e150] * 3).validate()
        for price in (1e160, 5e307):
            with pytest.raises(ConfigError, match="reward"):
                build_power_env(3, 4, gains, [1.0] * 3, [price] * 3).validate()

    def test_enumerated_bound(self, line3_model):
        # brute-force the restricted domains independently
        m = line3_model
        expect = 0.0
        for s in itertools.product(range(2), repeat=3):
            for a in itertools.product(range(2), repeat=3):
                expect = max(expect, float(np.max(np.abs(m.rewards(s, a)))))
        assert m.reward_bound == pytest.approx(expect)


class TestSampleTransition:
    # Transitions are drawn by estimator._step_blocks, each test in one batched call.

    def test_deterministic_kernels_ignore_rng(self):
        g = line_graph(2)
        kernel = np.zeros((2, 2, 2))
        kernel[:, :, 1] = 1.0  # every row one-hot on state 1
        m = FactoredNmarlModel(
            g, 2, 2, [kernel] * 2,
            lambda s, a: np.zeros(s.shape), InitialDistribution.fixed([0, 0]), 0.9,
        )
        s, a = np.tile((0, 0), (1000, 1)), np.tile((0, 1), (1000, 1))
        x = next_states(m, s, a, np.random.default_rng(1))
        y = next_states(m, s, a, np.random.default_rng(99))
        assert np.all(x == 1) and np.all(y == 1)

    def test_uniform_single_agent_frequency(self):
        g = netgraph.build_graph(1, [])
        m = FactoredNmarlModel(
            g, 2, 1, [np.full((2, 1, 2), 0.5)],
            lambda s, a: np.zeros(s.shape), InitialDistribution.fixed([0]), 0.9,
        )
        n = 100_000
        zeros = np.zeros((n, 1), dtype=np.intp)
        hits = next_states(m, zeros, zeros, np.random.default_rng(5)).sum()
        sigma = np.sqrt(0.25 / n)
        assert abs(hits / n - 0.5) < 3 * sigma

    def test_components_independent(self):
        # chi-square independence of the two components' joint frequencies
        g = line_graph(2)
        rng = np.random.default_rng(3)
        m = random_table_model(g, rng)
        rows = 40_000
        draws = next_states(m, np.tile((0, 1), (rows, 1)), np.tile((1, 0), (rows, 1)), rng)
        table = np.zeros((2, 2))
        np.add.at(table, (draws[:, 0], draws[:, 1]), 1)
        _, p, _, _ = stats.chi2_contingency(table)
        assert p > 1e-4

    def test_matches_marginal_kernels(self):
        g = line_graph(2)
        rng = np.random.default_rng(3)
        m = random_table_model(g, rng)
        rows = 40_000
        draws = next_states(m, np.tile((1, 0), (rows, 1)), np.tile((0, 1), (rows, 1)), rng)
        for i in range(2):
            s_i, a_i = (1, 0)[i], (0, 1)[i]
            freq = draws[:, i].mean()
            p = m.kernels[i][s_i, a_i, 1]
            assert abs(freq - p) < 3 * np.sqrt(p * (1 - p) / len(draws))


class TestRewards:
    def test_zero_model_vector(self):
        m = zero_reward_model(line_graph(3))
        assert np.all(m.rewards((0, 1, 0), (1, 0, 1)) == 0.0)

    def test_out_of_neighborhood_perturbation(self, line3_model):
        # agent 0's reward neighborhood on the 3-line is {0, 1}; agent 2 is outside
        m = line3_model
        for s in itertools.product(range(2), repeat=3):
            for a in itertools.product(range(2), repeat=3):
                r = m.rewards(s, a)[0]
                s2 = (s[0], s[1], 1 - s[2])
                a2 = (a[0], a[1], 1 - a[2])
                assert m.rewards(s2, a2)[0] == r


class TestMarginalRestriction:
    def test_line3_restricted_chain_matches_joint(self):
        """The (s, a) distribution over a direct neighborhood computed from
        the full joint chain equals the one from the chain restricted to the
        neighborhood, at every horizon up to 3 (exact enumeration)."""
        rng = np.random.default_rng(23)
        g = line_graph(3)
        m = random_table_model(g, rng)
        # fixed per-agent action tables playing the role of a factored policy
        pol = rng.random((3, 2, 2)) + 0.1
        pol /= pol.sum(axis=-1, keepdims=True)
        members = (0, 1)  # N_1 of agent 0

        def step_full(dist):
            out = {}
            for (s, a), p in dist.items():
                for s2 in itertools.product(range(2), repeat=3):
                    p_s2 = p * np.prod(
                        [m.kernels[i][s[i], a[i], s2[i]] for i in range(3)]
                    )
                    if p_s2 == 0.0:
                        continue
                    for a2 in itertools.product(range(2), repeat=3):
                        p2 = p_s2 * np.prod([pol[i, s2[i], a2[i]] for i in range(3)])
                        out[(s2, a2)] = out.get((s2, a2), 0.0) + p2
            return out

        def step_restricted(dist):
            out = {}
            for (s, a), p in dist.items():
                for s2 in itertools.product(range(2), repeat=2):
                    p_s2 = p * np.prod(
                        [m.kernels[j][s[k], a[k], s2[k]] for k, j in enumerate(members)]
                    )
                    if p_s2 == 0.0:
                        continue
                    for a2 in itertools.product(range(2), repeat=2):
                        p2 = p_s2 * np.prod(
                            [pol[j, s2[k], a2[k]] for k, j in enumerate(members)]
                        )
                        out[(s2, a2)] = out.get((s2, a2), 0.0) + p2
            return out

        start = (0, 1, 0)
        full = {
            ((start), a): float(np.prod([pol[i, start[i], a[i]] for i in range(3)]))
            for a in itertools.product(range(2), repeat=3)
        }
        restricted = {
            ((start[0], start[1]), a): float(
                np.prod([pol[j, start[j], a[k]] for k, j in enumerate(members)])
            )
            for a in itertools.product(range(2), repeat=2)
        }
        for _ in range(3):
            full = step_full(full)
            restricted = step_restricted(restricted)
            marginal = {}
            for (s, a), p in full.items():
                key = ((s[0], s[1]), (a[0], a[1]))
                marginal[key] = marginal.get(key, 0.0) + p
            for key, p in restricted.items():
                assert marginal.get(key, 0.0) == pytest.approx(p, abs=1e-12)


class TestSerialization:
    def test_rho_sampling_matches_dists(self):
        dists = [np.array([0.25, 0.75]), np.array([1.0, 0.0])]
        rho = InitialDistribution.product(dists)
        rng = np.random.default_rng(0)
        draws = rho.sample(rng, 20_000)
        assert abs(draws[:, 0].mean() - 0.75) < 3 * np.sqrt(0.25 * 0.75 / 20_000)
        assert np.all(draws[:, 1] == 0)


class TestInitialDistribution:
    def test_rho_sample_clips_draw_above_cumsum(self):
        # cumsum([0.7, 0.2, 0.1]) ends at 0.9999999999999999, the largest draw
        # below 1, so a right-sided search puts that draw past the last
        # state; it must map to the last state, one draw per agent as before.
        class StubRng:
            def __init__(self, draws):
                self.draws = np.asarray(draws)
                self.sizes = []

            def random(self, size):
                self.sizes.append(size)
                return self.draws.reshape(size)

        d = np.array([0.7, 0.2, 0.1])
        top = np.nextafter(1.0, 0.0)
        assert np.cumsum(d)[-1] <= top
        rng = StubRng([top, 0.0])
        assert InitialDistribution.product([d, d]).sample(rng, 1).tolist() == [[2, 0]]
        assert rng.sizes == [(1, 2)]

    @pytest.mark.parametrize("kind", ["product", "fixed"])
    def test_size_matches_single_draws(self, kind):
        # one (k, n) draw: the values and the generator state of k draws of one
        dists = [np.array([0.2, 0.3, 0.5]), np.array([0.6, 0.4]), np.array([1.0])]
        rho = (
            InitialDistribution.product(dists)
            if kind == "product"
            else InitialDistribution.fixed([2, 0, 0])
        )
        batch_rng, single_rng = np.random.default_rng(17), np.random.default_rng(17)
        batch = rho.sample(batch_rng, 500)
        singles = np.concatenate([rho.sample(single_rng, 1) for _ in range(500)])
        assert batch.shape == (500, 3)
        assert np.array_equal(batch, singles)
        assert batch_rng.bit_generator.state == single_rng.bit_generator.state

    def test_fixed_start_is_not_written_through(self):
        # one fixed state is a cached read-only array; more are a fresh copy
        rho = InitialDistribution.fixed([2, 0, 1])
        rng = np.random.default_rng(3)
        one = rho.sample(rng, 1)
        with pytest.raises(ValueError, match="read-only"):
            one[0, 0] = 7
        many = rho.sample(rng, 4)
        many[:] = 7
        assert rho.sample(rng, 1).tolist() == [[2, 0, 1]]
        assert rho.sample(rng, 4).tolist() == [[2, 0, 1]] * 4


class TestRewardTables:
    @pytest.mark.parametrize("builder", ["line3", "power", "path"])
    def test_tables_match_rewards(self, builder, line3_model):
        # Each table entry is the reward of any joint point that agrees with
        # it on the members: random full joint points, none of them padded.
        if builder == "line3":
            m = line3_model
        elif builder == "power":
            gains = [[1.0, 0.3, 0.2, 0.1], [0.2, 1.0, 0.4, 0.3],
                     [0.1, 0.5, 1.0, 0.2], [0.3, 0.2, 0.1, 1.0]]
            m = build_power_env(4, 5, gains, [0.5, 1.0, 1.5, 2.0], [0.1, 0.2, 0.05, 0.0])
        else:
            m = build_path_env(PathPlanningSpec(terminal_zero_reward=True))
        tables = m.reward_tables()
        assert m.reward_tables() is tables  # built once
        rng = np.random.default_rng(12)
        states = rng.integers(0, m.state_sizes, size=(300, m.n))
        acts = rng.integers(0, m.action_sizes, size=(300, m.n))
        for s, a in zip(states, acts):
            r = m.rewards(s, a)
            for i, members in enumerate(m.reward_members):
                assert tables[i].shape == tuple(m.state_sizes[j] for j in members) + tuple(
                    m.action_sizes[j] for j in members
                )
                assert tables[i][tuple(s[list(members)]) + tuple(a[list(members)])] == r[i]

    def test_domain_guard(self, monkeypatch):
        from nmarl import model as model_mod
        from nmarl.errors import SpaceTooLarge

        m = random_table_model(line_graph(3), np.random.default_rng(4))
        monkeypatch.setattr(model_mod, "MAX_REWARD_DOMAIN", 15)
        with pytest.raises(SpaceTooLarge):
            m.reward_tables()


class TestKernelSupport:
    def test_rising_columns_and_successors(self):
        # one agent, two actions over four states: a row with zero bins and
        # one that is one-hot on the last state, which keeps no column
        kernel = np.zeros((1, 2, 4))
        kernel[0, 0] = [0.0, 0.25, 0.0, 0.75]
        kernel[0, 1, 3] = 1.0
        m = FactoredNmarlModel(
            netgraph.build_graph(1, []), 4, 2, [np.tile(kernel, (4, 1, 1))],
            lambda s, a: np.zeros(s.shape), InitialDistribution.fixed([0]), 0.9,
        )
        thresholds, successors = m.kernel_support()
        assert thresholds.shape == (1, 8) and successors.shape == (8, 2)
        np.testing.assert_array_equal(thresholds[0, :2], [0.25, np.inf])
        np.testing.assert_array_equal(successors[:2], [[1, 3], [3, 3]])
        assert m.kernel_support() is m.kernel_support()  # built once
        assert not thresholds.flags.writeable and not successors.flags.writeable

    def test_lists_mirror_the_arrays(self):
        m = random_table_model(line_graph(2), np.random.default_rng(9), 3, 2)
        thresholds, successors = m.kernel_support()
        threshold_lists, successor_lists, only_rows = m.kernel_support_lists()
        assert threshold_lists == tuple(map(tuple, thresholds.T.tolist()))
        # successors as flat policy rows: agent * S + state
        agents = np.arange(len(successors)) // (m.n_states * m.n_actions)
        rows = successors + (agents * m.n_states)[:, None]
        assert successor_lists == tuple(map(tuple, rows.tolist()))
        assert only_rows is None  # random kernels keep thresholds
        assert all(type(x) is float for row in threshold_lists for x in row)
        assert m.kernel_support_lists() is m.kernel_support_lists()  # built once

    def test_joint_kernel_is_the_members_product(self, line3_model):
        m = line3_model
        k0, k2 = m.kernels[0], m.kernels[2]
        want = np.einsum("iak,jbl->ijabkl", k0, k2).reshape(4, 4, 4)
        joint = m.joint_kernel((0, 2))
        np.testing.assert_array_equal(joint, want)
        assert m.joint_kernel((0, 2)) is joint  # built once per member tuple
        assert not joint.flags.writeable

    def test_thresholds_at_or_above_one_are_dropped(self):
        # every row's cumsum reaches 1 at column 1, then rises by a float
        # excess before a zero bin: only 0.5 stays, and past it comes column 1
        row = [0.5, 0.5, 2.0**-52, 0.0]
        m = FactoredNmarlModel(
            netgraph.build_graph(1, []), 4, 1, [np.tile(row, (4, 1, 1))],
            lambda s, a: np.zeros(s.shape), InitialDistribution.fixed([0]), 0.9,
        )
        assert np.cumsum(row)[2] > 1.0
        thresholds, successors = m.kernel_support()
        np.testing.assert_array_equal(thresholds, [[0.5] * 4])
        np.testing.assert_array_equal(successors, [[0, 1]] * 4)

    @pytest.mark.parametrize("builder", ["power", "path"])
    def test_shipped_one_hot_kernels_keep_no_threshold(self, builder):
        if builder == "power":
            m = build_power_env(3, 4, np.eye(3), [1.0] * 3, [0.1] * 3)
        else:
            m = build_path_env(PathPlanningSpec())
        thresholds, successors = m.kernel_support()
        rows = m.n * m.n_states * m.n_actions
        # every one-hot cumsum reaches 1 at its hot column: nothing to count
        assert thresholds.shape == (0, rows) and successors.shape == (rows, 1)
        threshold_lists, successor_lists, only_rows = m.kernel_support_lists()
        assert all(row == () for row in threshold_lists)
        assert only_rows == tuple(row[0] for row in successor_lists)
        # every row's successor is the state its one-hot kernel row names
        first = np.stack(m.kernels).reshape(rows, m.n_states).argmax(axis=1)
        np.testing.assert_array_equal(successors[:, 0], first)


class TestParkedRows:
    """Rows ``agent * S + s`` whose kernel stays on ``s`` and whose rewards vanish there."""

    @staticmethod
    def absorbing(value: float) -> FactoredNmarlModel:
        # two agents, state 1 absorbs; each pays ``value`` when both sit there
        kernel = np.array([[[0.5, 0.5], [0.2, 0.8]], [[0.0, 1.0], [0.0, 1.0]]])

        def rewards(s, a):
            return np.where((s == 1).all(axis=-1, keepdims=True), value, -1.0) * np.ones(s.shape)

        return FactoredNmarlModel(
            line_graph(2), 2, 2, [kernel] * 2, rewards, InitialDistribution.fixed([0, 0]), 0.9
        )

    def test_shipped_path_planning_parks_every_agent_at_the_destination(self):
        m = load_config("configs/path_planning.json").build_model()
        parked = m.parked_rows()
        want = np.zeros((m.n, m.n_states), dtype=bool)
        want[:, PathStructure().index("e")] = True
        np.testing.assert_array_equal(parked, want.ravel())
        assert not parked.flags.writeable

    def test_destination_with_a_time_cost_parks_nothing(self):
        m = build_path_env(PathPlanningSpec(terminal_zero_reward=False))
        assert not m.parked_rows().any()

    def test_shipped_power_control_parks_nothing(self):
        m = load_config("configs/power_control.json").build_model()
        assert m.parked_rows().shape == (m.n * m.n_states,)
        assert not m.parked_rows().any()

    def test_plus_zero_rewards_park(self):
        np.testing.assert_array_equal(self.absorbing(0.0).parked_rows(), [False, True] * 2)

    @pytest.mark.parametrize("value", [-0.0, 1e-300], ids=["minus zero", "tiny"])
    def test_any_other_parked_reward_parks_nothing(self, value):
        assert not self.absorbing(value).parked_rows().any()

    def test_enumeration_over_the_cap_parks_nothing(self, monkeypatch):
        # the shipped ring: 10 agents, each with 3 members at 1 parked state
        # and 3 actions, 10 * 27 = 270 points in all
        for cap, parks in [(269, False), (270, True)]:
            monkeypatch.setattr(model_module, "MAX_REWARD_DOMAIN", cap)
            m = load_config("configs/path_planning.json").build_model()
            assert m.parked_rows().any() == parks
