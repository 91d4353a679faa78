import math

import numpy as np
import pytest

from nmarl import netgraph, pushsum
from nmarl.errors import (
    DimensionMismatch,
    NonFiniteState,
    NonPositiveWeight,
    ProtocolInvariantError,
)

from support import line_graph, ref_inject


def protocol_round(st, w, theta, deltas):
    """One full round: mix, update the true parameters, inject."""
    pushsum.mix_and_estimate(st, w)
    theta = theta + deltas
    pushsum.inject_all(st, w, deltas)
    return theta


class TestMixAndEstimate:
    def test_consensus_fixed_point(self):
        w = netgraph.weight_matrix(line_graph(3))
        st = pushsum.init_state(3, 2)
        v = np.array([1.5, -2.0])
        st.breve[:] = v  # every owner holds the same vector for every target
        pushsum.mix_and_estimate(st, w)
        np.testing.assert_allclose(
            st.estimates, np.broadcast_to(v, st.estimates.shape), atol=1e-14
        )

    def test_complete_graph_one_shot_average(self):
        g = netgraph.build_graph(4, [(i, j) for i in range(1, 5) for j in range(i + 1, 5)])
        w = netgraph.weight_matrix(g)
        assert np.allclose(w, 0.25)
        st = pushsum.init_state(4, 3)
        rng = np.random.default_rng(0)
        deltas = rng.normal(size=(4, 3))
        pushsum.inject_all(st, w, deltas)
        pushsum.mix_and_estimate(st, w)
        np.testing.assert_allclose(st.estimates, np.broadcast_to(deltas, (4, 4, 3)), atol=1e-12)

    def test_three_path_hand_computed(self):
        # W columns: (1/2,1/2,0), (1/3,1/3,1/3), (0,1/2,1/2).
        # One intermediate column (3,0,0) with unit weights mixes to
        # W @ (3,0,0) = (1.5, 1.5, 0) and W @ 1 = (5/6, 4/3, 5/6), so the
        # estimates are the elementwise ratio (1.8, 1.125, 0).
        w = netgraph.weight_matrix(line_graph(3))
        st = pushsum.init_state(3, 1)
        st.breve[0, 0, 0] = 3.0
        pushsum.mix_and_estimate(st, w)
        np.testing.assert_allclose(st.weights, [5 / 6, 4 / 3, 5 / 6])
        np.testing.assert_allclose(st.estimates[:, 0, 0], [1.8, 1.125, 0.0])

    def test_non_positive_weight_detected(self):
        st = pushsum.init_state(2, 1)
        with pytest.raises(NonPositiveWeight):
            pushsum.mix_and_estimate(st, np.zeros((2, 2)))

    def test_shape_mismatch(self):
        st = pushsum.init_state(3, 1)
        with pytest.raises(DimensionMismatch):
            pushsum.mix_and_estimate(st, np.eye(2))


class TestInject:
    def test_zero_delta_keeps_column_mean(self):
        w = netgraph.weight_matrix(line_graph(3))
        st = pushsum.init_state(3, 2)
        st.breve = np.random.default_rng(1).normal(size=(3, 3, 2))
        means = st.breve.mean(axis=0).copy()
        pushsum.inject_all(st, w, np.zeros((3, 2)))
        np.testing.assert_allclose(st.breve.mean(axis=0), means, atol=1e-12)

    def test_mean_moves_by_exactly_delta(self):
        w = netgraph.weight_matrix(line_graph(3))
        st = pushsum.init_state(3, 2)
        st.breve = np.random.default_rng(2).normal(size=(3, 3, 2))
        means = st.breve.mean(axis=0).copy()
        deltas = np.array([[0.0, 0.0], [0.7, 0.1], [0.3, -1.2]])
        pushsum.inject_all(st, w, deltas)
        np.testing.assert_allclose(st.breve.mean(axis=0), means + deltas, atol=1e-10)

    def test_sweep_matches_per_column_injects(self):
        w = netgraph.weight_matrix(line_graph(4))
        rng = np.random.default_rng(3)
        breve = rng.normal(size=(4, 4, 3))
        deltas = rng.normal(size=(4, 3))
        st_a = pushsum.init_state(4, 3)
        st_a.breve = breve.copy()
        pushsum.inject_all(st_a, w, deltas)
        st_b = pushsum.init_state(4, 3)
        st_b.breve = breve.copy()
        for j in range(4):
            ref_inject(st_b, w, j, deltas[j])
        np.testing.assert_allclose(st_a.breve, st_b.breve, atol=1e-14)

    def test_delta_shape_and_finiteness(self):
        w = netgraph.weight_matrix(line_graph(3))
        st = pushsum.init_state(3, 2)
        with pytest.raises(DimensionMismatch):
            pushsum.inject_all(st, w, np.zeros((3, 3)))
        with pytest.raises(NonFiniteState):
            pushsum.inject_all(st, w, np.array([[np.inf, 0.0], [0.0, 0.0], [0.0, 0.0]]))


class TestInvariants:
    def test_hold_after_every_step_with_random_deltas(self):
        g = netgraph.ring_graph(10)
        w = netgraph.weight_matrix(g)
        st = pushsum.init_state(10, 4)
        theta = np.zeros((10, 4))
        rng = np.random.default_rng(4)
        for t in range(1, 301):
            pushsum.mix_and_estimate(st, w)
            pushsum.check_invariants(st, theta)
            deltas = rng.normal(size=(10, 4)) / (t + 10)
            theta = theta + deltas
            pushsum.inject_all(st, w, deltas)
            pushsum.check_invariants(st, theta)

    def test_check_invariants_detects_corruption(self):
        st = pushsum.init_state(3, 2)
        st.weights[0] += 1e-6
        with pytest.raises(ProtocolInvariantError):
            pushsum.check_invariants(st, np.zeros((3, 2)))

    def test_static_parameter_consensus_is_geometric(self):
        # one injection, then rounds with zero deltas: the estimate error
        # decays like C * lambda^t with lambda < 1
        g = netgraph.ring_graph(10)
        w = netgraph.weight_matrix(g)
        st = pushsum.init_state(10, 4)
        theta = np.zeros((10, 4))
        rng = np.random.default_rng(5)
        errs = []
        zero = np.zeros((10, 4))
        for t in range(1, 201):
            pushsum.mix_and_estimate(st, w)
            errs.append(pushsum.consensus_error(st, theta))
            deltas = rng.normal(size=(10, 4)) if t == 1 else zero
            theta = theta + deltas
            pushsum.inject_all(st, w, deltas)
        ts = np.arange(10, 201)
        ys = np.log([errs[t - 1] for t in ts])
        a = np.vstack([ts, np.ones_like(ts)]).T
        coef, *_ = np.linalg.lstsq(a, ys, rcond=None)
        pred = a @ coef
        r2 = 1 - ((ys - pred) ** 2).sum() / ((ys - ys.mean()) ** 2).sum()
        assert math.exp(coef[0]) < 1.0
        assert r2 > 0.99

    def test_permutation_equivariance(self):
        g = line_graph(4)
        w = netgraph.weight_matrix(g)
        rng = np.random.default_rng(6)
        deltas = [rng.normal(size=(4, 2)) for _ in range(3)]

        label = np.array([2, 0, 3, 1])  # old agent i gets new label label[i]
        inv = np.argsort(label)  # new agent k is old agent inv[k]
        g_p = netgraph.build_graph(
            4, [(int(label[i]) + 1, int(label[j]) + 1) for i, j in g.edges]
        )
        w_p = netgraph.weight_matrix(g_p)
        np.testing.assert_allclose(w_p, w[np.ix_(inv, inv)])

        st = pushsum.init_state(4, 2)
        st_p = pushsum.init_state(4, 2)
        for d in deltas:
            pushsum.mix_and_estimate(st, w)
            pushsum.inject_all(st, w, d)
            pushsum.mix_and_estimate(st_p, w_p)
            pushsum.inject_all(st_p, w_p, d[inv])
        np.testing.assert_allclose(
            st_p.estimates, st.estimates[np.ix_(inv, inv)], atol=1e-12
        )


class TestConsensusError:
    def test_zero_at_consensus(self):
        st = pushsum.init_state(3, 2)
        theta = np.full((3, 2), 0.7)
        st.estimates[:] = 0.7
        assert pushsum.consensus_error(st, theta) == 0.0

    def test_cold_start_equals_largest_parameter_norm(self):
        st = pushsum.init_state(3, 2)
        theta = np.array([[3.0, 4.0], [0.0, 1.0], [0.0, 0.0]])
        assert pushsum.consensus_error(st, theta) == pytest.approx(5.0)

    def test_overflowing_square_is_inf_without_warning(self):
        # finite errors of ~1e200 overflow when squared; the project's
        # pytest settings turn a RuntimeWarning into an error
        st = pushsum.init_state(3, 2)
        st.estimates[0, 1] = [1e200, 0.0]
        assert pushsum.consensus_error(st, np.zeros((3, 2))) == math.inf
