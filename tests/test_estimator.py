import itertools
import math
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmarl import estimator, netgraph, oracle
from nmarl.config import load_config
from nmarl.errors import (
    BoundViolated,
    ConfigError,
    DimensionMismatch,
    HorizonOverflow,
    IndexOutOfRange,
    InvalidProbability,
)
from nmarl.estimator import (
    TwoHorizonRollout,
    estimate_bound,
    gradient_estimate,
    half_discount_weights,
    q_estimate,
    q_estimates,
    rollout_two_horizon,
    rollouts_two_horizon,
    sample_geometric,
    sample_q_conditional,
)
from nmarl.model import FactoredNmarlModel, point_starts
from nmarl.policy import CoupledSoftmaxPolicy, MixingSpec

import support
from support import line_graph, random_table_model, zero_reward_model


@pytest.fixture
def pair():
    g = netgraph.build_graph(2, [(1, 2)])
    m = random_table_model(g, np.random.default_rng(13), gamma=0.8, fixed_start=True)
    pol = CoupledSoftmaxPolicy(g, 2, 2, MixingSpec(kappa_p=1))
    return m, pol


class TestSampleGeometric:
    def test_certain_success_is_zero(self):
        rng = np.random.default_rng(0)
        assert all(sample_geometric(1.0, rng) == 0 for _ in range(100))

    def test_mean(self):
        rng = np.random.default_rng(1)
        n = 1_000_000
        draws = sample_geometric(0.1, rng, size=n)
        assert draws.min() >= 0
        sigma = math.sqrt(0.9) / 0.1 / math.sqrt(n)
        assert abs(draws.mean() - 9.0) < 3 * sigma

    def test_mass_at_zero(self):
        rng = np.random.default_rng(2)
        n = 200_000
        p = 0.1
        zeros = sum(sample_geometric(p, rng) == 0 for _ in range(n))
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(zeros / n - p) < 3 * sigma

    def test_size_matches_scalar_draws(self):
        # one array draw: the values and the generator state of scalar draws
        batch_rng, scalar_rng = np.random.default_rng(404), np.random.default_rng(404)
        batch = sample_geometric(0.1, batch_rng, size=1000)
        scalar = [sample_geometric(0.1, scalar_rng) for _ in range(1000)]
        assert batch.tolist() == scalar
        assert batch_rng.bit_generator.state == scalar_rng.bit_generator.state
        with pytest.raises(InvalidProbability):
            sample_geometric(0.0, batch_rng, size=3)

    def test_invalid_probability(self):
        rng = np.random.default_rng(0)
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(InvalidProbability):
                sample_geometric(bad, rng)

    def test_truncation_identity(self):
        """Expectation of the half-discounted truncated sum equals the fully
        discounted infinite sum, checked by exact pmf summation."""
        gamma = 0.6
        rng = np.random.default_rng(3)
        xs = rng.uniform(-1, 1, size=201)
        p = 1.0 - math.sqrt(gamma)
        weights = half_discount_weights(gamma, 201)
        partial = np.cumsum(weights * xs)  # partial[t] = sum_{tau<=t} g^(tau/2) x_tau
        pmf = p * (1 - p) ** np.arange(201)
        lhs = float(pmf @ partial)
        rhs = float(np.sum(gamma ** np.arange(201) * xs))
        assert lhs == pytest.approx(rhs, abs=1e-8)


class TestRollout:
    def test_tiny_gamma_snapshot_is_start(self):
        g = line_graph(2)
        m = random_table_model(g, np.random.default_rng(5), gamma=0.01, fixed_start=True)
        pol = CoupledSoftmaxPolicy(g, 2, 2, MixingSpec(kappa_p=1))
        tables = pol.prob_tables(pol.zero_params())
        rng = np.random.default_rng(0)
        zero_t1 = 0
        n = 2000
        for _ in range(n):
            roll = rollout_two_horizon(m, tables, rng)
            if roll.t1 == 0:
                zero_t1 += 1
                assert roll.snapshot_state.tolist() == [0, 0]
        assert zero_t1 / n > 0.97

    def test_deterministic_chain_content_fixed_by_horizons(self):
        # deterministic kernels + saturated policies: rollout content is a
        # function of (t1, t2) alone, whatever the seed
        g = line_graph(2)
        kernel = np.zeros((2, 2, 2))
        kernel[0, :, 1] = 1.0
        kernel[1, :, 0] = 1.0  # swap chain regardless of action
        m = FactoredNmarlModel(
            g, 2, 2, [kernel] * 2,
            lambda s, a: np.broadcast_to(s[..., :1], s.shape).astype(float),
            point_starts([0, 1], 2), 0.9,
        )
        pol = CoupledSoftmaxPolicy(g, 2, 2, MixingSpec(kappa_p=1))
        theta = np.zeros((2, 4))
        theta[:, [0, 2]] = 50.0  # both agents always pick action 0
        traj = [(0, 1), (1, 0)]
        tables = pol.prob_tables(theta)
        for seed in range(5):
            roll = rollout_two_horizon(m, tables, np.random.default_rng(seed))
            assert tuple(roll.snapshot_state) == traj[roll.t1 % 2]
            assert roll.snapshot_action.tolist() == [0, 0]

    def test_rewards_bounded(self, pair):
        m, pol = pair
        bound = m.reward_bound
        rng = np.random.default_rng(11)
        tables = pol.prob_tables(pol.zero_params())
        for _ in range(50):
            roll = rollout_two_horizon(m, tables, rng)
            assert roll.reward_trace.shape == (roll.t2 + 1, 2)
            assert np.max(np.abs(roll.reward_trace)) <= bound + 1e-12

    def test_bitwise_determinism(self, pair):
        m, pol = pair
        est = np.random.default_rng(1).normal(size=(2, 2, 4))
        r1 = rollout_two_horizon(m, pol.prob_tables(est), np.random.default_rng(42))
        r2 = rollout_two_horizon(m, pol.prob_tables(est), np.random.default_rng(42))
        assert (r1.t1, r1.t2) == (r2.t1, r2.t2)
        assert np.array_equal(r1.snapshot_state, r2.snapshot_state)
        assert np.array_equal(r1.snapshot_action, r2.snapshot_action)
        assert np.array_equal(r1.reward_trace, r2.reward_trace)
        g1 = gradient_estimate(r1, m, pol, est)
        g2 = gradient_estimate(r2, m, pol, est)
        assert np.array_equal(g1.grads, g2.grads)

    def test_horizon_overflow(self, pair, monkeypatch):
        m, pol = pair
        monkeypatch.setattr(estimator, "MAX_HORIZON", 0)
        tables = pol.prob_tables(pol.zero_params())
        rng = np.random.default_rng(0)
        with pytest.raises(HorizonOverflow):
            for _ in range(100):
                rollout_two_horizon(m, tables, rng)

    def test_json_dump_round_trip_fields(self, pair):
        m, pol = pair
        roll = rollout_two_horizon(m, pol.prob_tables(pol.zero_params()), np.random.default_rng(3))
        obj = support.rollout_json(roll)
        assert obj["t1"] == roll.t1 and obj["t2"] == roll.t2
        assert len(obj["reward_trace"]) == roll.t2 + 1


class TestQEstimate:
    def test_single_term(self):
        g = line_graph(3)
        m = random_table_model(g, np.random.default_rng(1))
        roll = TwoHorizonRollout(
            t1=2, t2=0, snapshot_state=(0, 0, 0), snapshot_action=(0, 0, 0),
            reward_trace=np.full((1, 3), 0.7),
        )
        # kappa_p + kappa_r = 2 covers all three agents of the line
        assert q_estimate(roll, 0, m, kappa_p=1) == pytest.approx(3 * 0.7 / 3)

    def test_zero_rewards(self):
        m = zero_reward_model(line_graph(3))
        roll = TwoHorizonRollout(
            t1=0, t2=4, snapshot_state=(0, 0, 0), snapshot_action=(0, 0, 0),
            reward_trace=np.zeros((5, 3)),
        )
        assert q_estimate(roll, 1, m, kappa_p=1) == 0.0

    def test_ignores_rewards_outside_neighborhood(self):
        g = line_graph(5)
        m = random_table_model(g, np.random.default_rng(2))
        trace = np.random.default_rng(3).normal(size=(4, 5))
        roll = TwoHorizonRollout(
            t1=1, t2=3, snapshot_state=(0,) * 5, snapshot_action=(0,) * 5,
            reward_trace=trace,
        )
        base = q_estimate(roll, 0, m, kappa_p=1)  # reads agents 0..2
        poisoned = trace.copy()
        poisoned[:, [3, 4]] = 1e12
        roll_p = TwoHorizonRollout(
            t1=1, t2=3, snapshot_state=(0,) * 5, snapshot_action=(0,) * 5,
            reward_trace=poisoned,
        )
        assert q_estimate(roll_p, 0, m, kappa_p=1) == base

    def test_half_discount_weights_match_power(self):
        w = half_discount_weights(0.9, 130)
        np.testing.assert_allclose(w, 0.9 ** (np.arange(130) / 2), rtol=1e-12)

    def test_half_discount_weights_are_fresh_bits(self):
        # served from a cached prefix, yet bit for bit a fresh exp of each length
        for gamma in (0.6, 0.9, 0.99):
            for length in (0, 1, 63, 64, 65, 130, 1000, 5000):
                fresh = np.exp(np.arange(length) * (0.5 * math.log(gamma)))
                np.testing.assert_array_equal(half_discount_weights(gamma, length), fresh)
        assert not half_discount_weights(0.9, 3).flags.writeable


class TestGradientEstimate:
    def test_zero_rewards_zero_estimate(self):
        g = line_graph(3)
        m = zero_reward_model(g)
        pol = CoupledSoftmaxPolicy(g, 2, 2, MixingSpec(kappa_p=1))
        roll = rollout_two_horizon(m, pol.prob_tables(pol.zero_params()), np.random.default_rng(0))
        est = gradient_estimate(roll, m, pol, pol.zero_params())
        assert np.all(est.grads == 0.0)

    def test_single_agent_reduces_to_reinforce(self):
        g = netgraph.build_graph(1, [])
        m = random_table_model(g, np.random.default_rng(21), fixed_start=True)
        pol = CoupledSoftmaxPolicy(g, 2, 2, MixingSpec(kappa_p=0))
        theta = np.random.default_rng(22).normal(size=(1, 4))
        roll = rollout_two_horizon(m, pol.prob_tables(theta), np.random.default_rng(5))
        est = gradient_estimate(roll, m, pol, theta)
        q = q_estimate(roll, 0, m, kappa_p=0)
        score = support.score(
            pol, 0, 0, roll.snapshot_state[0], roll.snapshot_action[0], theta
        )
        np.testing.assert_allclose(est.grads[0], q * score / (1 - m.gamma))

    def test_bound_holds_over_samples(self, pair):
        m, pol = pair
        cap = estimate_bound(m, pol)
        est_params = np.random.default_rng(2).normal(size=(2, 2, 4))
        rng = np.random.default_rng(3)
        tables = pol.prob_tables(est_params)
        for _ in range(500):
            roll = rollout_two_horizon(m, tables, rng)
            ge = gradient_estimate(roll, m, pol, est_params)
            assert np.all(ge.norms <= cap * (1 + 1e-9))

    def test_nan_parameter_row_violates_the_bound(self):
        # one agent's NaN row makes every norm NaN, which no cap admits
        m = load_config(SHIPPED_CONFIGS["power_control"]).build_model()
        pol = CoupledSoftmaxPolicy(m.graph, m.n_states, m.n_actions, MixingSpec(kappa_p=1))
        tables = pol.prob_tables(pol.zero_params())
        roll = rollout_two_horizon(m, tables, np.random.default_rng(0))
        params = pol.zero_params()
        params[1] = np.nan
        with pytest.raises(BoundViolated, match="norm nan exceeds"):
            gradient_estimate(roll, m, pol, params)

    def test_locality_poisoning(self):
        # poisoned out-of-neighborhood snapshot entries, rewards, and foreign
        # estimate rows leave agent 0's estimate bit-identical
        g = netgraph.ring_graph(10)
        m = random_table_model(g, np.random.default_rng(7), fixed_start=True)
        pol = CoupledSoftmaxPolicy(g, 2, 2, MixingSpec(kappa_p=1))
        est_params = np.random.default_rng(8).normal(size=(10, 10, 4))
        roll = rollout_two_horizon(m, pol.prob_tables(est_params), np.random.default_rng(9))
        base = gradient_estimate(roll, m, pol, est_params, bound=math.inf).grads[0]

        inner = set(netgraph.khop(g, 0, 1))
        outer = set(netgraph.khop(g, 0, 2))
        snap_s = tuple(
            s if j in inner else 1 for j, s in enumerate(roll.snapshot_state)
        )
        snap_a = tuple(
            a if j in inner else 1 for j, a in enumerate(roll.snapshot_action)
        )
        trace = roll.reward_trace.copy()
        for j in range(10):
            if j not in outer:
                trace[:, j] = 1e12
        est_poisoned = est_params.copy()
        for i in range(1, 10):
            est_poisoned[i] = 1e12
        roll_p = TwoHorizonRollout(
            t1=roll.t1, t2=roll.t2, snapshot_state=snap_s,
            snapshot_action=snap_a, reward_trace=trace,
        )
        poisoned = gradient_estimate(roll_p, m, pol, est_poisoned, bound=math.inf).grads[0]
        assert np.array_equal(base, poisoned)


@st.composite
def rollouts(draw):
    n = draw(st.integers(1, 5))
    g = support.shaped_graph(draw(st.sampled_from(["line", "ring", "star"])), n)
    n_states, n_actions = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = random_table_model(g, rng, n_states, n_actions, gamma=draw(st.sampled_from([0.6, 0.9])))
    pol = CoupledSoftmaxPolicy(
        g, n_states, n_actions, MixingSpec(kappa_p=draw(st.integers(0, 2)))
    )
    shape = (n, pol.d) if draw(st.booleans()) else (n, n, pol.d)
    params = rng.uniform(-2.0, 2.0, size=shape)
    return m, pol, params, rollout_two_horizon(m, pol.prob_tables(params), rng)


@given(rollouts())
@settings(max_examples=60, deadline=None)
def test_gradient_estimate_matches_per_agent_loop(inst):
    m, pol, params, roll = inst
    est = gradient_estimate(roll, m, pol, params)
    grads, q_values = support.ref_gradient_estimate(roll, m, pol, params)
    np.testing.assert_array_equal(est.q_values, q_values)  # same float order
    np.testing.assert_allclose(est.grads, grads, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(est.norms, np.linalg.norm(est.grads, axis=1), rtol=1e-12)


class StubRng:
    """Answers each ``random(shape)`` with ``values`` broadcast to ``shape``."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, shape):
        return np.broadcast_to(self.values, shape).copy()


class TestInverseCdf:
    # Every policy and kernel row is ``P``: zero-probability bins first and
    # inside, and a float cumsum that ends below the largest uniform.
    P = np.array([0.0, 0.3, 0.0, 0.6, 0.1 - 1e-15])

    def uniforms(self):
        cum = np.cumsum(self.P)
        assert cum[-1] < np.nextafter(1.0, 0.0)
        edges = np.concatenate([cum, np.nextafter(cum, 0.0), np.nextafter(cum, 1.0)])
        top = np.linspace(cum[-1], np.nextafter(1.0, 0.0), 5)
        u = np.unique(np.concatenate([[0.0], edges, top]))
        return u[(u >= 0.0) & (u < 1.0)]

    def expected(self, u):
        """First index whose float cumsum exceeds ``u``; past the end, the last."""
        above = np.flatnonzero(np.cumsum(self.P) > u)
        return int(above[0]) if len(above) else len(self.P) - 1

    def model(self):
        k = len(self.P)
        kernel = np.broadcast_to(self.P, (k, k, k))
        g = line_graph(2)
        one = lambda s, a: np.ones(s.shape)  # noqa: E731  (no parked row)
        m = FactoredNmarlModel(g, k, k, [kernel] * 2, one, point_starts([0, 0], k), 0.9)
        return m, np.broadcast_to(self.P, (2, k, k))

    def test_single_trajectory(self):
        m, tables = self.model()
        for u in self.uniforms():
            steps = list(support.flat_steps(m, tables, np.array([0, 4]), StubRng(u), 1))
            want = self.expected(u)
            assert self.P[want] > 0.0
            (_, a0), (s1, a1) = steps
            for drawn in (a0, s1, a1):
                assert drawn.tolist() == [want, want], u

    def test_batch_of_episodes(self):
        m, tables = self.model()
        u = self.uniforms()
        # untiled and tiled, every episode batch counts whole threshold arrays
        for reps in (1, 3):
            batch = np.tile(u, reps)
            want = np.array([self.expected(x) for x in batch])
            start = np.tile([4, 0], (len(batch), 1))
            steps = list(support.episode_steps(m, tables, start, StubRng(batch[:, None]), 1))
            (_, a0), (s1, a1) = steps
            for drawn in (a0, s1, a1):
                np.testing.assert_array_equal(drawn, np.stack([want, want], axis=1))
            assert np.all(self.P[a0] > 0.0)
            assert want[-1] == len(self.P) - 1  # the largest uniform lands on the last bin


def _stochastic_rows(rng: np.random.Generator, shape: tuple, kind: str) -> np.ndarray:
    """Rows over the last axis: ``dense``, ``sparse`` (zero-probability bins),
    ``onehot`` (deterministic), ``short`` (sparse, and a float cumsum that
    ends below 1) or ``overshoot`` (sparse, and a float cumsum that reaches 1
    before the last column, whose tiny mass no uniform in [0, 1) reaches)."""
    if kind == "onehot":
        return np.eye(shape[-1])[rng.integers(shape[-1], size=shape[:-1])]
    p = rng.random(shape)
    if kind != "dense":
        p[rng.random(shape) < 0.5] = 0.0
        p[..., rng.integers(shape[-1])] += 0.1  # one positive bin per row at least
    if kind == "overshoot" and shape[-1] > 1:
        p[..., 0] += 0.1
        p[..., :-1] *= (1.0 + 2.0**-45) / p[..., :-1].sum(axis=-1, keepdims=True)
        p[..., -1] = 2.0**-60
        return p
    p /= p.sum(axis=-1, keepdims=True)
    return p * (1.0 - 2.0**-50) if kind == "short" else p


@st.composite
def chains(draw):
    """A model (one-hot kernels in a quarter of them), policy tables, a start
    ``(n,)`` or ``(E, n)`` of 1 to ``150 // n`` episodes, start actions
    (optional, for episodes only), and the uniforms' edge values."""
    n, n_states, n_actions = (draw(st.integers(1, 4)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = st.sampled_from(["dense", "sparse", "onehot", "short", "overshoot"])
    shape = (n_states, n_actions, n_states)
    # one in four models keeps no kernel threshold: the count form skips transition uniforms
    one_hot = draw(st.integers(0, 3)) == 0
    kernels = [_stochastic_rows(rng, shape, "onehot" if one_hot else draw(kinds)) for _ in range(n)]
    tables = _stochastic_rows(rng, (n, n_states, n_actions), draw(kinds))
    if draw(st.booleans()):
        rho = point_starts(rng.integers(n_states, size=n).tolist(), n_states)
    else:
        rho = _stochastic_rows(rng, (n, n_states), "sparse")
    one = lambda s, a: np.ones(s.shape)  # noqa: E731  (no parked row)
    m = FactoredNmarlModel(line_graph(n), n_states, n_actions, kernels, one, rho, 0.9)
    episodes = draw(st.sampled_from([None, 1]) | st.integers(2, 150 // n))
    start = m.sample_starts(rng, 1)[0] if episodes is None else m.sample_starts(rng, episodes)
    given = episodes is not None and draw(st.booleans())
    actions = rng.integers(n_actions, size=start.shape) if given else None
    cums = [np.cumsum(k, axis=-1).ravel() for k in kernels] + [np.cumsum(tables, axis=-1).ravel()]
    cum = np.concatenate(cums)
    edges = np.concatenate(
        [[0.0, np.nextafter(1.0, 0.0)], cum, np.nextafter(cum, 0.0), np.nextafter(cum, 1.0)]
    )
    return m, tables, start, actions, edges[(edges >= 0.0) & (edges < 1.0)]


def _rng_pair(kind: str, seed: int, edges) -> tuple:
    """Two generators of one stream: numpy's on ``PCG64`` or ``MT19937``, or
    ``support.EdgeRng`` (``PCG64`` beneath) on ``edges``."""
    if kind == "edge":
        return support.EdgeRng(seed, edges), support.EdgeRng(seed, edges)
    bit_generator = {"pcg64": np.random.PCG64, "mt19937": np.random.MT19937}[kind]
    return np.random.Generator(bit_generator(seed)), np.random.Generator(bit_generator(seed))


RNG_KINDS = st.sampled_from(["edge", "pcg64", "mt19937"])


@given(
    chains(),
    st.integers(0, 30),
    st.sampled_from([estimator.DRAW_BLOCK, 64, 1]),
    RNG_KINDS,
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_simulate_matches_reference(chain, steps, draw_block, rng_kind, seed):
    # Both inversion forms and block draws of any size step the chain the
    # reference steps, uniform for uniform, and leave the generator where it
    # does: a single trajectory on scalars, and episode batches of any size,
    # whose transition uniforms a one-hot model skips (PCG64) or drops.
    m, tables, start, actions, edges = chain
    got_rng, want_rng = _rng_pair(rng_kind, seed, edges)
    with patch.object(estimator, "DRAW_BLOCK", draw_block):
        if start.ndim == 1:
            got = list(support.flat_steps(m, tables, start, got_rng, steps))
        else:
            got = list(support.episode_steps(m, tables, start, got_rng, steps, actions))
    want = list(support.ref_simulate(m, tables, start, want_rng, steps, actions))
    assert len(got) == len(want) == steps + 1
    for t, ((s, a), (s_ref, a_ref)) in enumerate(zip(got, want)):
        np.testing.assert_array_equal(s, s_ref, err_msg=f"states at step {t}")
        np.testing.assert_array_equal(a, a_ref, err_msg=f"actions at step {t}")
        assert s.shape == a.shape == start.shape
    np.testing.assert_equal(got_rng.bit_generator.state, want_rng.bit_generator.state)


@pytest.mark.parametrize("n_states, n_actions", [(1, 3), (3, 1), (1, 1)])
@pytest.mark.parametrize("episodes", [None, 40])
def test_empty_threshold_lists(n_states, n_actions, episodes):
    # one state or one action: every kernel or policy row has no threshold,
    # so every uniform inverts to index 0 in both forms
    rng = np.random.default_rng(n_states * 10 + n_actions)
    kernels = [_stochastic_rows(rng, (n_states, n_actions, n_states), "dense") for _ in range(3)]
    tables = _stochastic_rows(rng, (3, n_states, n_actions), "dense")
    one = lambda s, a: np.ones(s.shape)  # noqa: E731  (no parked row)
    rho = point_starts([n_states - 1] * 3, n_states)
    m = FactoredNmarlModel(line_graph(3), n_states, n_actions, kernels, one, rho, 0.9)
    start = m.sample_starts(rng, 1)[0] if episodes is None else m.sample_starts(rng, episodes)
    got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
    walk = support.flat_steps if episodes is None else support.episode_steps
    got = list(walk(m, tables, start, got_rng, 12))
    want = list(support.ref_simulate(m, tables, start, want_rng, 12))
    for (s, a), (s_ref, a_ref) in zip(got, want):
        np.testing.assert_array_equal(s, s_ref)
        np.testing.assert_array_equal(a, a_ref)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    if n_states == 1:
        assert all(row == () for row in m.kernel_support_lists()[0])


def test_long_single_trajectory_matches_reference():
    # a single trajectory of 48 agents walks on scalars too
    n = 48
    rng = np.random.default_rng(n)
    kinds = itertools.cycle(["dense", "sparse", "onehot", "short", "overshoot"])
    kernels = [_stochastic_rows(rng, (3, 2, 3), next(kinds)) for _ in range(n)]
    tables = _stochastic_rows(rng, (n, 3, 2), "sparse")
    one = lambda s, a: np.ones(s.shape)  # noqa: E731
    rho = _stochastic_rows(rng, (n, 3), "sparse")
    m = FactoredNmarlModel(line_graph(n), 3, 2, kernels, one, rho, 0.9)
    start = m.sample_starts(rng, 1)[0]
    got_rng, want_rng = np.random.default_rng(7), np.random.default_rng(7)
    with patch.object(estimator, "DRAW_BLOCK", 2 * n * 5):  # five steps per block
        got = list(support.flat_steps(m, tables, start, got_rng, 23))
    want = list(support.ref_simulate(m, tables, start, want_rng, 23))
    assert len(got) == len(want) == 24
    for t, ((s, a), (s_ref, a_ref)) in enumerate(zip(got, want)):
        np.testing.assert_array_equal(s, s_ref, err_msg=f"states at step {t}")
        np.testing.assert_array_equal(a, a_ref, err_msg=f"actions at step {t}")
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


SHIPPED_CONFIGS = {"path_planning": "configs/path_planning.json",
                   "power_control": "configs/power_control.json"}


@pytest.mark.parametrize("kappa_p", [0, 1, 2])
@pytest.mark.parametrize("config", sorted(SHIPPED_CONFIGS))
def test_shipped_rollouts_match_reference(monkeypatch, config, kappa_p):
    # The training rollout and the conditional resample on the shipped
    # models step the chain the reference steps: horizons, snapshot, reward
    # trace and the generator state after each call, seed for seed.
    m = load_config(SHIPPED_CONFIGS[config]).build_model()
    pol = CoupledSoftmaxPolicy(m.graph, m.n_states, m.n_actions, MixingSpec(kappa_p=kappa_p))
    resampled = []
    real_q_estimates = estimator.q_estimates
    monkeypatch.setattr(
        estimator, "q_estimates",
        lambda roll, *args: resampled.append(roll) or real_q_estimates(roll, *args),
    )
    shape = (m.n, pol.d) if kappa_p == 0 else (m.n, m.n, pol.d)  # as training executes
    for seed in range(200):
        params = np.random.default_rng([seed, 1]).normal(scale=2.0, size=shape)
        tables = pol.prob_tables(params)
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)

        roll = rollout_two_horizon(m, tables, got_rng)
        t1, t2, snap_s, snap_a, trace = support.ref_rollout_two_horizon(m, tables, want_rng)
        assert (roll.t1, roll.t2) == (t1, t2), seed
        np.testing.assert_array_equal(roll.snapshot_state, snap_s)
        np.testing.assert_array_equal(roll.snapshot_action, snap_a)
        np.testing.assert_array_equal(roll.reward_trace, trace)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state, seed

        i = seed % m.n
        q = sample_q_conditional(m, tables, kappa_p, snap_s, snap_a, got_rng, 1)[0, i]
        t2, trace = support.ref_conditional_trace(m, tables, snap_s, snap_a, want_rng)
        resample = resampled.pop()
        assert resample.t2 == t2, seed
        np.testing.assert_array_equal(resample.reward_trace, trace)
        want = TwoHorizonRollout(0, t2, snap_s, snap_a, trace)
        assert q == real_q_estimates(want, m, kappa_p)[i]
        assert got_rng.bit_generator.state == want_rng.bit_generator.state, seed


@given(
    st.integers(1, 5),
    st.integers(2, 4),
    st.integers(1, 3),
    st.sampled_from(["dense", "sparse", "short"]),
    st.booleans(),
    st.sampled_from([estimator.DRAW_BLOCK, 64, 1]),
    RNG_KINDS,
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_rollout_matches_reference(n, n_states, n_actions, kind, one_hot, draw_block, rng_kind,
                                   seed):
    # Dense random kernels keep thresholds in every kernel row, so the scalar
    # walk inverts each transition uniform by bisect, which no shipped model
    # reaches; one-hot kernels keep none, as the shipped ones, and a batch's
    # count form then skips the transition uniforms. Small draw blocks split
    # a horizon over several blocks, which _score_trace concatenates.
    # Horizons, snapshots, reward traces and the generator state are the
    # reference's, for one episode and for a batch of three.
    rng = np.random.default_rng([seed, 0])
    m = random_table_model(line_graph(n), rng, n_states, n_actions, gamma=0.95, one_hot=one_hot)
    assert (m.kernel_support_lists()[2] is None) != one_hot  # K > 1: the bisect branch
    tables = _stochastic_rows(rng, (n, n_states, n_actions), kind)
    edges = np.concatenate([[0.0], np.nextafter(np.cumsum(tables, axis=-1).ravel(), 0.0)])
    got_rng, want_rng = _rng_pair(rng_kind, seed, edges[edges < 1.0])
    with patch.object(estimator, "DRAW_BLOCK", draw_block):
        roll = rollout_two_horizon(m, tables, got_rng)
        batch = rollouts_two_horizon(m, tables, got_rng, 3)
    t1, t2, snap_s, snap_a, trace = support.ref_rollout_two_horizon(m, tables, want_rng)
    assert (roll.t1, roll.t2) == (t1, t2)
    np.testing.assert_array_equal(roll.snapshot_state, snap_s)
    np.testing.assert_array_equal(roll.snapshot_action, snap_a)
    np.testing.assert_array_equal(roll.reward_trace, trace)
    _assert_windows(batch, *support.ref_rollouts_two_horizon(m, tables, want_rng, 3))
    np.testing.assert_equal(got_rng.bit_generator.state, want_rng.bit_generator.state)


def _assert_within(got, want, atol, rtol=1e-13):
    """``|got - want| <= atol + rtol * |want|`` with an array ``atol``."""
    gap = np.abs(got - want)
    assert np.all(gap <= atol + rtol * np.abs(want)), f"gaps {gap} over bounds {atol}"


def _windows(roll):
    """A rollout with an episode axis as one ``TwoHorizonRollout`` per episode."""
    ends = np.cumsum(roll.t2 + 1)
    return [
        TwoHorizonRollout(
            int(roll.t1[e]), int(roll.t2[e]), roll.snapshot_state[e], roll.snapshot_action[e],
            roll.reward_trace[ends[e] - roll.t2[e] - 1 : ends[e]],
        )
        for e in range(len(ends))
    ]


def _assert_windows(roll, t1, t2, states, actions, rewards):
    """Each episode of ``roll`` holds the horizons, the snapshot at ``t1``
    and the window of rewards of the reference's ``(steps, E, n)`` arrays."""
    for e, one in enumerate(_windows(roll)):
        assert (one.t1, one.t2) == (t1[e], t2[e])
        np.testing.assert_array_equal(one.snapshot_state, states[t1[e], e])
        np.testing.assert_array_equal(one.snapshot_action, actions[t1[e], e])
        np.testing.assert_array_equal(one.reward_trace, rewards[t1[e] : t1[e] + t2[e] + 1, e])


class TestBatchedRollouts:
    @pytest.mark.parametrize("start", ["product", "fixed"])
    def test_one_episode_is_rollout_two_horizon(self, start):
        # the same draws, values and generator state, and the same estimates
        g = line_graph(3)
        m = random_table_model(g, np.random.default_rng(4), fixed_start=start == "fixed")
        pol = CoupledSoftmaxPolicy(g, 2, 2, MixingSpec(kappa_p=1))
        est = np.random.default_rng(5).uniform(-1, 1, size=(3, 3, 4))
        tables = pol.prob_tables(est)
        for seed in range(100):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = rollouts_two_horizon(m, tables, got_rng, 1)
            want = rollout_two_horizon(m, tables, want_rng)
            assert got.t1.tolist() == [want.t1] and got.t2.tolist() == [want.t2]
            np.testing.assert_array_equal(got.snapshot_state, want.snapshot_state[None])
            np.testing.assert_array_equal(got.snapshot_action, want.snapshot_action[None])
            np.testing.assert_array_equal(got.reward_trace, want.reward_trace)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state
            got_est = gradient_estimate(got, m, pol, est)
            want_est = gradient_estimate(want, m, pol, est)
            np.testing.assert_array_equal(got_est.grads, want_est.grads[None])
            np.testing.assert_array_equal(got_est.norms, want_est.norms[None])
            snap = (want.snapshot_state, want.snapshot_action)
            q = sample_q_conditional(m, tables, 1, *snap, got_rng, 1)
            t2, trace = support.ref_conditional_trace(m, tables, *snap, want_rng)
            want_q = q_estimates(TwoHorizonRollout(0, t2, *snap, trace), m, 1)
            np.testing.assert_array_equal(q, want_q[None])
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("episodes", [3, 64])  # the scalar and the count form
    def test_deterministic_chain_windows(self, episodes):
        # every agent's state climbs by one per step, whatever the action, and
        # pays its state: each episode's snapshot and window are fixed by its
        # own t1 and t2
        g = line_graph(2)
        kernel = np.roll(np.eye(7), 1, axis=1)[:, None, :].repeat(2, axis=1)  # s -> s + 1 mod 7
        m = FactoredNmarlModel(
            g, 7, 2, [kernel] * 2, lambda s, a: s.astype(float),
            point_starts([0, 3], 7), 0.9,
        )
        tables = np.full((2, 7, 2), 0.5)
        rng = np.random.default_rng(episodes)
        roll = rollouts_two_horizon(m, tables, rng, episodes)
        horizons = np.random.default_rng(episodes)
        np.testing.assert_array_equal(roll.t1, sample_geometric(0.1, horizons, size=episodes))
        np.testing.assert_array_equal(
            roll.t2, sample_geometric(1.0 - math.sqrt(0.9), horizons, size=episodes)
        )
        # and with every t1 at least 2, so that no block holds a window's step 0
        late = estimator._episodes(
            m, tables, rng, np.tile([0, 3], (episodes, 1)), None, roll.t1 + 2, roll.t2
        )
        for batch in (roll, late):
            assert len(batch.reward_trace) == int(np.sum(batch.t2 + 1))
            for e, one in enumerate(_windows(batch)):
                np.testing.assert_array_equal(one.snapshot_state, (np.array([0, 3]) + one.t1) % 7)
                steps = one.t1 + np.arange(one.t2 + 1)[:, None]
                np.testing.assert_array_equal(one.reward_trace, (np.array([0, 3]) + steps) % 7)

    @pytest.mark.parametrize("n, episodes", [(2, 40), (3, 5), (5, 12)])
    def test_episodes_match_reference(self, n, episodes):
        # horizons, snapshots, windows and the generator state of one
        # reference trajectory of all episodes, stepped to the longest
        g = line_graph(n)
        m = random_table_model(g, np.random.default_rng(n))
        pol = CoupledSoftmaxPolicy(g, 2, 2, MixingSpec(kappa_p=1))
        tables = pol.prob_tables(np.random.default_rng(n + 1).uniform(-1, 1, size=(n, n, 4)))
        got_rng, want_rng = np.random.default_rng(episodes), np.random.default_rng(episodes)
        roll = rollouts_two_horizon(m, tables, got_rng, episodes)
        _assert_windows(roll, *support.ref_rollouts_two_horizon(m, tables, want_rng, episodes))
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("episodes", [8, 40])  # the count form: 80 and 400 entries
    def test_parked_episodes_match_reference(self, episodes):
        # shipped path planning parks every robot at its destination; an
        # episode dropped as parked keeps its snapshot at t1 and the +0.0
        # rewards of the rest of its window
        run = load_config("configs/path_planning.json")
        m = run.build_model()
        pol = CoupledSoftmaxPolicy(m.graph, m.n_states, m.n_actions, MixingSpec(kappa_p=1))
        tables = pol.prob_tables(pol.zero_params())
        parked_rows = m.parked_rows()  # its own reward call comes first
        rewards, scored = m.batch_rewards, []

        def counted(states, acts):
            scored.append(len(states))
            return rewards(states, acts)

        m.batch_rewards = counted
        got_rng, want_rng = np.random.default_rng(3), np.random.default_rng(3)
        # 8 episodes fit in one block of DRAW_BLOCK // 80 steps; half of it
        # spreads them over several, so that a parked one is dropped early
        block = estimator.DRAW_BLOCK // (2 if episodes == 8 else 1)
        with patch.object(estimator, "DRAW_BLOCK", block):
            roll = rollouts_two_horizon(m, tables, got_rng, episodes)
        m.batch_rewards = rewards
        t1 = sample_geometric(1.0 - m.gamma, want_rng, size=episodes)
        t2 = sample_geometric(1.0 - math.sqrt(m.gamma), want_rng, size=episodes)
        starts = m.sample_starts(want_rng, episodes)
        steps = list(support.ref_simulate(m, tables, starts, want_rng, int((t1 + t2).max())))
        states, actions, want = support.ref_score_trace(m, steps)
        parked = parked_rows.take(np.arange(m.n) * m.n_states + states).all(axis=-1)
        assert (parked & (np.arange(len(parked))[:, None] < t1)).any()  # some before its t1
        assert sum(scored) < np.sum(t2 + 1)  # and some before its window ends
        for e, one in enumerate(_windows(roll)):
            np.testing.assert_array_equal(one.snapshot_state, states[t1[e], e])
            np.testing.assert_array_equal(one.snapshot_action, actions[t1[e], e])
            np.testing.assert_array_equal(one.reward_trace, want[t1[e] : t1[e] + t2[e] + 1, e])
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_conditional_resamples_match_reference(self, pair):
        m, pol = pair
        est = np.random.default_rng(31).uniform(-0.5, 0.5, size=(2, 2, 4))
        tables = pol.prob_tables(est)
        snap_s, snap_a = np.array([0, 1]), np.array([1, 0])
        got_rng, want_rng = np.random.default_rng(8), np.random.default_rng(8)
        got = sample_q_conditional(m, tables, 1, snap_s, snap_a, got_rng, 30)[:, 1]
        t2 = sample_geometric(1.0 - math.sqrt(m.gamma), want_rng, size=30)
        starts, start_actions = np.tile(snap_s, (30, 1)), np.tile(snap_a, (30, 1))
        steps = support.ref_simulate(m, tables, starts, want_rng, int(t2.max()), start_actions)
        rewards = support.ref_score_trace(m, list(steps))[2]
        windows = [rewards[: t2[e] + 1, e] for e in range(30)]
        want = [
            q_estimate(TwoHorizonRollout(0, len(w) - 1, snap_s, snap_a, w), 1, m, 1)
            for w in windows
        ]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @given(rollouts(), st.sampled_from([2, 7, 40]))
    @settings(max_examples=40, deadline=None)
    def test_estimates_match_per_episode(self, inst, episodes):
        # the episode axis changes the order of the return sums only. A sum's
        # rounding in any order is at most (terms - 1) ulps of the sum of its
        # absolute terms. Each form of an agent's return adds at most n member
        # rewards per step, then t2 + 1 weighted steps, then scales: so the
        # two differ by at most (n + t2 + 3) ulps of the same sum over the
        # absolute rewards (the weights are positive), and the gradients and
        # norms by that times the score's size / (1 - gamma)
        m, pol, params, _ = inst
        kappa_p = pol.spec.kappa_p
        rng = np.random.default_rng(episodes)
        roll = rollouts_two_horizon(m, pol.prob_tables(params), rng, episodes)
        est = gradient_estimate(roll, m, pol, params)
        assert est.grads.shape == (episodes, m.n, pol.d)
        for e, one in enumerate(_windows(roll)):
            want = gradient_estimate(one, m, pol, params)
            absolute = replace(one, reward_trace=np.abs(one.reward_trace))
            q_tol = (m.n + one.t2 + 3) * np.finfo(float).eps * q_estimates(absolute, m, kappa_p)
            scores = pol.score_sums(one.snapshot_state, one.snapshot_action, params)
            _assert_within(est.q_values[e], want.q_values, q_tol)
            _assert_within(est.grads[e], want.grads, q_tol[:, None] * np.abs(scores) / (1 - m.gamma))
            _assert_within(
                est.norms[e], want.norms, q_tol * np.linalg.norm(scores, axis=1) / (1 - m.gamma)
            )

    def test_horizon_overflow(self, pair, monkeypatch):
        m, pol = pair
        monkeypatch.setattr(estimator, "MAX_HORIZON", 0)
        tables = pol.prob_tables(pol.zero_params())
        with pytest.raises(HorizonOverflow):
            rollouts_two_horizon(m, tables, np.random.default_rng(0), 50)

    def test_no_episode_is_refused_before_any_draw(self, pair):
        m, pol = pair
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ConfigError, match="episodes must be at least 1, got 0"):
            rollouts_two_horizon(m, pol.prob_tables(pol.zero_params()), rng, 0)
        assert rng.bit_generator.state == state

    def test_no_resample_is_refused_before_any_draw(self, pair):
        m, pol = pair
        tables = pol.prob_tables(pol.zero_params())
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        for size in (0, -3):
            with pytest.raises(ConfigError, match=f"size must be at least 1, got {size}"):
                sample_q_conditional(m, tables, 1, (0, 1), (1, 0), rng, size)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize(
        "state, action, error",
        [
            ((0, 1), (1, 2), IndexOutOfRange),
            ((0, 1), (-1, 0), IndexOutOfRange),
            ((-1, 1), (1, 0), IndexOutOfRange),
            ((0, 2), (1, 0), IndexOutOfRange),
            ((0, 1), (1.0, 0.0), IndexOutOfRange),
            ((0, 1), (1, 0, 0), DimensionMismatch),
            ((0,), (1, 0), DimensionMismatch),
            ([[0, 1]], (1, 0), DimensionMismatch),
        ],
    )
    def test_bad_snapshot_is_refused_before_any_draw(self, pair, state, action, error):
        # a negative entry would read another kernel or policy row, and an
        # action at A the next policy row's thresholds
        m, pol = pair
        tables = pol.prob_tables(pol.zero_params())
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(error, match="snapshot"):
            sample_q_conditional(m, tables, 1, state, action, rng, 4)
        assert rng.bit_generator.state == before


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937])
def test_finished_episodes_leave_the_generator_where_drawing_would(bit_generator):
    # once every episode is past its last step the remaining blocks are
    # skipped (PCG64 advances, others draw), and the generator ends where
    # drawing every block leaves it, a buffered 32-bit half included; on a
    # one-hot model every step's transition uniforms are skipped too
    g = line_graph(5)
    tables = CoupledSoftmaxPolicy(g, 2, 2, MixingSpec(kappa_p=1)).prob_tables(np.zeros((5, 4)))
    for one_hot, last in itertools.product([False, True], [0, 3, 40]):
        m = random_table_model(g, np.random.default_rng(6), one_hot=one_hot)
        got_rng, want_rng = (np.random.Generator(bit_generator(last)) for _ in range(2))
        for rng in (got_rng, want_rng):
            rng.integers(0, 10)  # leaves a 32-bit half buffered
        starts = m.sample_starts(got_rng, 30)
        want_starts = m.sample_starts(want_rng, 30)
        last_steps = np.full(30, last)
        with patch.object(estimator, "DRAW_BLOCK", 256):  # several blocks
            got = list(
                estimator._step_blocks(m, tables, starts, got_rng, 200, last_steps=last_steps)
            )
        want = list(support.ref_simulate(m, tables, want_starts, want_rng, 200))
        assert sum(len(s) for s, *_ in got) <= last + 3
        assert len(want) == 201
        np.testing.assert_equal(got_rng.bit_generator.state, want_rng.bit_generator.state)
        assert got_rng.integers(0, 2**32) == want_rng.integers(0, 2**32)


class CountingRng:
    """A ``PCG64`` generator that records the shape of each ``random`` call;
    ``bit_generator`` is the wrapped one's."""

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.bit_generator = self.rng.bit_generator
        self.shapes = []

    def random(self, shape):
        self.shapes.append(shape)
        return self.rng.random(shape)


@pytest.mark.parametrize("draw_block", [estimator.DRAW_BLOCK, 64, 1])
def test_one_hot_count_form_draws_only_action_rows(draw_block):
    # no kernel row keeps a threshold: the count form draws the start-action
    # row and one action row per step, advances past each transition row,
    # and a block holds at most DRAW_BLOCK uniforms (a step alone may hold
    # more), which is DRAW_BLOCK // size steps
    m = random_table_model(line_graph(3), np.random.default_rng(2), 4, 3, one_hot=True)
    tables = _stochastic_rows(np.random.default_rng(3), (3, 4, 3), "dense")
    starts = m.sample_starts(np.random.default_rng(4), 7)
    got_rng, want_rng = CountingRng(5), np.random.default_rng(5)
    got_rng.rng.integers(0, 10)  # leaves a 32-bit half buffered
    want_rng.integers(0, 10)
    with patch.object(estimator, "DRAW_BLOCK", draw_block):
        got = list(
            estimator._step_blocks(m, tables, starts, got_rng, 40, last_steps=np.full(7, 40))
        )
    assert got_rng.shapes == [starts.shape] * 41
    block = max(1, draw_block // starts.size)
    tail = [40 % block] if 40 % block else []
    assert [len(s) for s, *_ in got] == [1] + [block] * (40 // block) + tail
    want = list(support.ref_simulate(m, tables, starts, want_rng, 40))
    np.testing.assert_array_equal(np.concatenate([s for s, *_ in got]), [s for s, _ in want])
    np.testing.assert_array_equal(np.concatenate([a for _, a, _ in got]), [a for _, a in want])
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestUnbiasednessSmoke:
    def test_conditional_q_mean(self, pair):
        m, pol = pair
        est_params = np.random.default_rng(31).uniform(-0.5, 0.5, size=(2, 2, 4))
        tables = pol.prob_tables(est_params)
        snap_s, snap_a = (0, 1), (1, 0)
        target = oracle.neighbors_averaged_q(m, tables, 0, snap_s, snap_a, kappa_p=1)
        rng = np.random.default_rng(32)
        vals = np.array(
            [
                estimator.sample_q_conditional(m, tables, 1, snap_s, snap_a, rng, 1)[0, 0]
                for _ in range(20_000)
            ]
        )
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - target) < 5 * se
