import itertools
import math
import re

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmarl import netgraph, trainer
from nmarl.config import load_config
from nmarl.envs import (
    PathPlanningSpec,
    PathStructure,
    build_path_env,
    build_power_env,
    path_transition,
)
from nmarl.errors import ConfigError, NonPositiveNoise, UnknownLocation
from nmarl.model import FactoredNmarlModel
from nmarl.policy import CoupledSoftmaxPolicy, MixingSpec

from support import (
    connected_graphs,
    next_states,
    random_table_model,
    ref_path_reward,
    ref_power_reward,
)

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def structure():
    return PathStructure()


class TestPathStructure:
    def test_default_layering(self, structure):
        assert structure.successors["b1"] == ("c1",)
        assert structure.successors["b2"] == ("c1", "c2")
        assert structure.successors["b5"] == ("c4",)
        assert structure.successors["c2"] == ("d1", "d2")
        assert structure.successors["d3"] == ("e",)
        assert structure.successors["e"] == ()

    def test_every_location_reaches_destination(self, structure):
        # independent reachability check by graph walk
        reach = {"e"}
        changed = True
        while changed:
            changed = False
            for loc, succ in structure.successors.items():
                if loc not in reach and any(s in reach for s in succ):
                    reach.add(loc)
                    changed = True
        assert reach == set(structure.locations)

    def test_cycle_rejected(self):
        succ = dict(PathStructure().successors)
        succ["c1"] = ("b1",)
        with pytest.raises(ConfigError):
            PathStructure(successors=succ)

    @pytest.mark.parametrize(
        "change",
        [{"e": ("b1",)}, {"b1": ("c1", "c2"), "c2": ("b1",)}],
        ids=["through the destination", "behind a reaching successor"],
    )
    def test_hidden_cycle_rejected(self, change):
        succ = {**PathStructure().successors, **change}
        with pytest.raises(ConfigError, match="cycle"):
            PathStructure(successors=succ)

    def test_unreachable_rejected(self):
        succ = dict(PathStructure().successors)
        succ["d2"] = ()
        with pytest.raises(ConfigError):
            PathStructure(successors=succ)

    @pytest.mark.parametrize("entry", ["c1", 3, [["c1"]]], ids=["string", "number", "nested"])
    def test_successor_entry_must_be_a_list_of_names(self, entry):
        succ = dict(PathStructure().successors)
        succ["b1"] = entry
        with pytest.raises(ConfigError, match=rf"'b1'.*{re.escape(repr(entry))}"):
            PathStructure(successors=succ)

    def test_unknown_location_rejected(self):
        succ = dict(PathStructure().successors)
        succ["b1"] = ("z9",)
        with pytest.raises(UnknownLocation):
            PathStructure(successors=succ)


class TestPathTransition:
    def test_action_zero_stays(self, structure):
        for loc in structure.locations:
            assert path_transition(loc, 0, structure) == loc

    def test_out_degree_two_branches(self, structure):
        assert path_transition("b2", 1, structure) == "c1"  # upper edge
        assert path_transition("b2", 2, structure) == "c2"  # lower edge

    def test_action_beyond_degree_stays(self, structure):
        assert path_transition("b1", 1, structure) == "c1"
        assert path_transition("b1", 2, structure) == "b1"
        assert path_transition("e", 1, structure) == "e"
        assert path_transition("e", 2, structure) == "e"

    def test_unknown_location(self, structure):
        with pytest.raises(UnknownLocation):
            path_transition("q7", 0, structure)


class TestPathReward:
    """Agent 0's reward on the default 10-ring; its neighbors are 9 and 1.

    Every agent the case does not place waits at the destination, which
    never shares an edge with a mover.
    """

    def setup_method(self):
        self.ps = PathStructure()
        self.dest = self.ps.index("e")
        self.b2, self.c1 = self.ps.index("b2"), self.ps.index("c1")

    def reward0(self, placed, spec=None):
        """``placed`` maps agent -> (state, action)."""
        m = build_path_env(spec)
        s = np.full(m.n, self.dest)
        a = np.zeros(m.n, dtype=int)
        for j, (s_j, a_j) in placed.items():
            s[j], a[j] = s_j, a_j
        return m.rewards(s, a)[0]

    def test_staying_costs_flat_penalty(self):
        assert self.reward0({0: (self.b2, 0), 1: (self.c1, 1)}) == -0.5

    def test_move_without_shared_edge(self):
        # agent 0 moves b2->c1; neighbor moves c1->d1: different edges
        assert self.reward0({0: (self.b2, 1), 1: (self.c1, 1)}) == -0.5

    def test_move_with_one_shared_edge(self):
        # both agents at b2 taking the upper edge to c1
        assert self.reward0({0: (self.b2, 1), 1: (self.b2, 1)}) == pytest.approx(-0.55)

    def test_stationary_neighbor_never_collides(self):
        assert self.reward0({0: (self.b2, 1), 1: (self.b2, 0)}) == -0.5

    def test_self_is_excluded_from_count(self):
        # a lone mover: its own edge is not a collision
        assert self.reward0({0: (self.b2, 1)}) == -0.5

    def test_terminal_zero_flag(self):
        spec = PathPlanningSpec(terminal_zero_reward=True)
        assert self.reward0({0: (self.dest, 0), 1: (self.b2, 1)}, spec) == 0.0


@settings(max_examples=60, deadline=None)
@given(
    graph=connected_graphs(min_agents=1),
    episodes=st.integers(1, 5),
    crowded=st.booleans(),
    terminal_zero=st.booleans(),
    weight=st.sampled_from([0.5, 0.7, 0.1]),
    seed=st.integers(0, 2**32 - 1),
)
def test_path_reward_matches_reference(graph, episodes, crowded, terminal_zero, weight, seed):
    """The batched path-planning reward is the per-agent formula, bit for bit."""
    ps = PathStructure()
    spec = PathPlanningSpec(
        n=graph.n, starts=("b1",) * graph.n, collision_weight=weight,
        terminal_zero_reward=terminal_zero,
    )
    m = build_path_env(spec, ps, graph)
    rng = np.random.default_rng(seed)
    # crowded points share two locations, one the destination, so that most
    # movers share an edge and many agents wait at the destination
    pool = [ps.index("b2"), ps.index("e")] if crowded else range(len(ps.locations))
    s = rng.choice(pool, size=(episodes, graph.n))
    a = rng.integers(0, 3, size=(episodes, graph.n))
    got = m.batch_rewards(s, a)
    for e in range(episodes):
        want = [ref_path_reward(spec, ps, graph, i, s[e], a[e]) for i in range(graph.n)]
        np.testing.assert_array_equal(got[e], want)


def _family_model(family: str, seed: int) -> FactoredNmarlModel:
    if family == "path":
        return build_path_env(PathPlanningSpec(terminal_zero_reward=seed % 2 == 1))
    rng = np.random.default_rng(seed)
    g = netgraph.build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 3)])
    if family == "power":
        return build_power_env(
            4, 4, rng.uniform(0.0, 1.0, size=(4, 4)), rng.uniform(0.5, 2.0, size=4),
            rng.uniform(0.0, 0.3, size=4), comm=g,
        )
    return random_table_model(g, rng, n_states=3, n_actions=2)


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(["path", "power", "table"]),
    seed=st.integers(0, 2**32 - 1),
    batch=st.integers(1, 4),
)
def test_reward_reads_only_its_members(family, seed, batch):
    """Perturbing agents outside ``i``'s kappa_r hops leaves ``r_i`` bit-equal."""
    m = _family_model(family, seed)
    rng = np.random.default_rng(seed)
    shape = (batch, m.n)
    s = rng.integers(0, m.n_states, size=shape)
    a = rng.integers(0, m.n_actions, size=shape)
    base = m.batch_rewards(s, a)
    assert base.shape == shape
    for i, members in enumerate(m.reward_members):
        outside = [j for j in range(m.n) if j not in members]
        s2, a2 = s.copy(), a.copy()
        s2[:, outside] = rng.integers(0, m.n_states, size=(batch, len(outside)))
        a2[:, outside] = rng.integers(0, m.n_actions, size=(batch, len(outside)))
        np.testing.assert_array_equal(m.batch_rewards(s2, a2)[:, i], base[:, i])


class TestBuildPathEnv:
    def test_default_shapes_and_bound(self):
        m = build_path_env()
        assert (m.n_states, m.n_actions) == (13, 3)
        assert m.state_sizes == (13,) * 10
        assert m.action_sizes == (3,) * 10
        assert m.reward_bound == pytest.approx(1.0)
        assert m.kappa_r == 1
        assert m.rho.state == tuple(
            PathStructure().index(x) for x in PathPlanningSpec().starts
        )

    def test_reward_locality_perturbation(self):
        m = build_path_env()
        rng = np.random.default_rng(1)
        members0 = set(m.reward_members[0])
        for _ in range(100):
            s = rng.integers(0, 13, size=10)
            a = rng.integers(0, 3, size=10)
            base = m.rewards(s, a)[0]
            s2, a2 = s.copy(), a.copy()
            for j in range(10):
                if j not in members0:
                    s2[j] = rng.integers(0, 13)
                    a2[j] = rng.integers(0, 3)
            assert m.rewards(s2, a2)[0] == base

    def test_everyone_stays_at_destination_geometric_value(self):
        ps = PathStructure()
        spec = PathPlanningSpec(starts=("e",) * 10)
        m = build_path_env(spec, ps)
        pol = CoupledSoftmaxPolicy(m.graph, 13, 3, MixingSpec(kappa_p=1))
        j, _ = trainer.evaluate_policy(
            m, pol, pol.zero_params(), 5, np.random.default_rng(0),
            method="fixed_horizon", horizon_eps=1e-6,
        )
        assert j == pytest.approx(-5.0, abs=1e-4)

    def test_start_count_mismatch(self):
        with pytest.raises(ConfigError):
            PathPlanningSpec(starts=("b1", "b2"))

    def test_non_string_start_names_agent_and_value(self):
        starts = ("b1", "b2", ["b3"]) + ("b1",) * 7
        with pytest.raises(ConfigError, match=r"agent 2's start .*\['b3'\]"):
            PathPlanningSpec(starts=starts)

    def test_negative_collision_weight_rejected(self):
        # a negative weight would declare a reward cap below the true max |r|
        with pytest.raises(ConfigError, match="collision_weight"):
            PathPlanningSpec(collision_weight=-0.2)
        assert build_path_env(PathPlanningSpec(collision_weight=0.0)).reward_bound == 0.5

    def test_unknown_location_message_is_unquoted(self):
        with pytest.raises(UnknownLocation) as info:
            PathStructure().index("z9")
        assert str(info.value) == "unknown location 'z9'"

    def test_comm_graph_size_mismatch(self):
        with pytest.raises(ConfigError):
            build_path_env(comm=netgraph.ring_graph(4))


class TestPowerEnv:
    def build(self, n=3, levels=4, price=0.1):
        gains = np.full((n, n), 0.2)
        np.fill_diagonal(gains, 1.0)
        return build_power_env(
            n=n, levels=levels, gains=gains, noise=[1.0] * n, price=[price] * n,
            comm=netgraph.build_graph(n, [(k, k + 1) for k in range(1, n)]),
        )

    def test_zero_power_zero_reward(self):
        m = self.build()
        r = m.rewards((0, 3, 2), (0, 1, 2))
        assert r[0] == 0.0

    def test_interference_free_log_reward(self):
        gains = np.eye(3)
        m = build_power_env(
            n=3, levels=4, gains=gains, noise=[1.0] * 3, price=[0.0] * 3,
            comm=netgraph.build_graph(3, [(1, 2), (2, 3)]),
        )
        r = m.rewards((1, 0, 0), (0, 0, 0))
        assert r[0] == pytest.approx(math.log(2.0))

    def test_increment_clips_at_grid_edges(self):
        m = self.build(levels=4)
        rows = 1000
        nxt = next_states(
            m, np.tile((3, 0, 1), (rows, 1)), np.tile((2, 1, 0), (rows, 1)),
            np.random.default_rng(0),
        )
        assert np.all(nxt == (3, 0, 1))

    def test_non_positive_noise_rejected(self):
        with pytest.raises(NonPositiveNoise):
            self_gains = np.eye(2)
            build_power_env(
                n=2, levels=3, gains=self_gains, noise=[1.0, 0.0], price=[0.0] * 2,
                comm=netgraph.build_graph(2, [(1, 2)]),
            )

    def test_reward_monotone_in_neighbor_power(self):
        m = self.build()
        for p1 in range(4):
            for p2 in range(4):
                for p3 in range(3):
                    r_low = m.rewards((p1, p3, p2), (0, 0, 0))[0]
                    r_high = m.rewards((p1, p3 + 1, p2), (0, 0, 0))[0]
                    if p1 == 0:
                        assert r_high == r_low
                    else:
                        assert r_high < r_low

    def test_shipped_config_matches_reference(self):
        # every joint point of the shipped 3-agent, 4-level config, batched
        # and one at a time, against the term-by-term formula
        m = load_config(ROOT / "configs" / "power_control.json").build_model()
        ov = json.loads((ROOT / "configs" / "power_control.json").read_text())["env"]["overrides"]
        points = [
            (s, a)
            for s in itertools.product(range(4), repeat=3)
            for a in itertools.product(range(3), repeat=3)
        ]
        batch = m.batch_rewards(np.array([p[0] for p in points]), np.array([p[1] for p in points]))
        for (s, a), row in zip(points, batch):
            want = [ref_power_reward(m, ov["gains"], ov["noise"], ov["price"], i, s, a) for i in range(3)]
            np.testing.assert_allclose(row, want, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(m.rewards(s, a), want, rtol=1e-12, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            build_power_env(
                n=3, levels=3, gains=np.eye(2), noise=[1.0] * 3, price=[0.0] * 3,
                comm=netgraph.build_graph(3, [(1, 2), (2, 3)]),
            )

    def test_negative_gain_rejected(self):
        gains = np.eye(2)
        gains[0, 1] = -0.1
        with pytest.raises(ConfigError, match="nonnegative"):
            build_power_env(
                n=2, levels=3, gains=gains, noise=[1.0] * 2, price=[0.0] * 2,
                comm=netgraph.build_graph(2, [(1, 2)]),
            )
