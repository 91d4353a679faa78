"""The vectorized oracle against the per-point reference loops in ``support``."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmarl import oracle
from nmarl.errors import SpaceTooLarge
from nmarl.policy import CoupledSoftmaxPolicy, MixingSpec

import support
from support import line_graph, random_table_model

TOL = 1e-12


def close(got, want):
    np.testing.assert_allclose(got, want, rtol=TOL, atol=TOL)


@st.composite
def instances(draw):
    n = draw(st.integers(2, 4))
    g = support.shaped_graph(draw(st.sampled_from(["line", "ring", "star"])), n)
    n_states, n_actions = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = random_table_model(
        g, rng, n_states, n_actions,
        gamma=draw(st.sampled_from([0.6, 0.9])),
        fixed_start=draw(st.booleans()),
    )
    pol = CoupledSoftmaxPolicy(
        g, n_states, n_actions, MixingSpec(kappa_p=draw(st.integers(0, 2)))
    )
    shape = (n, pol.d) if draw(st.booleans()) else (n, n, pol.d)
    params = rng.uniform(-1.0, 1.0, size=shape)
    return m, pol, params, draw(st.integers(0, n - 1)), draw(st.booleans())


def test_vectorized_oracle_matches_reference_loops(monkeypatch):
    # The drawn chains have at most 3^4 states: a doubling cutoff of 0 sends
    # every series through the term-by-term loop, one of 3^4 through doubling.
    for doubling_states in (0, 3**4):
        monkeypatch.setattr(oracle, "DOUBLING_STATES", doubling_states)
        _matches_reference_loops()


@given(instances())
@settings(max_examples=25, deadline=None)
def _matches_reference_loops(inst):
    m, pol, params, i, full_sum = inst
    tables = pol.prob_tables(params)

    chain = oracle.build_restricted_chain(m, range(m.n), tables, range(m.n), scale=m.n)
    ref = support.ref_build_restricted_chain(
        m, range(m.n), tables, support.ref_mean_reward_fn(m)
    )
    assert chain.state_space.points == ref.state_space.points
    assert chain.action_space.points == ref.action_space.points
    close(chain.trans, ref.trans)
    close(chain.policy, ref.policy)
    close(chain.reward, ref.reward)
    close(oracle.chain_q_table(chain, m.gamma, 1e-9), support.ref_chain_q_table(ref, m.gamma, 1e-9))

    close(oracle.exact_objective(m, tables), support.ref_exact_objective(m, tables))
    close(oracle.discounted_visitation(m, tables)[0], support.ref_discounted_visitation(m, tables)[0])
    close(
        oracle.gradient_via_local_q(m, pol, params, i, full_sum=full_sum),
        support.ref_gradient_via_local_q(m, pol, params, i, full_sum=full_sum),
    )
    close(
        oracle.gradient_via_averaged_q(m, pol, params, i),
        support.ref_gradient_via_averaged_q(m, pol, params, i),
    )


@pytest.mark.parametrize("terms", [0, 1, 2, 7, 8, 218])
def test_sum_series_matches_term_by_term_loop(terms):
    rng = np.random.default_rng(terms)
    kernel = rng.uniform(size=(6, 6))
    mat = 0.9 * kernel / kernel.sum(axis=1, keepdims=True)
    x = rng.uniform(-1.0, 1.0, size=6)
    want, term = np.zeros(6), x
    for _ in range(terms):
        want += term
        term = mat @ term
    close(oracle.sum_series(mat, x, terms), want)


class Untouchable:
    """Stands in for tables that a size guard must not read or build."""

    def _fail(self, *_):
        raise AssertionError("table read before the size guard fired")

    __getitem__ = __iter__ = __call__ = _fail


@pytest.mark.parametrize(
    "call",
    [
        lambda m, pol, th: oracle.build_restricted_chain(m, range(m.n), Untouchable(), range(m.n)),
        lambda m, pol, th: oracle.exact_objective(m, Untouchable()),
        lambda m, pol, th: oracle.discounted_visitation(m, Untouchable()),
        lambda m, pol, th: oracle.gradient_via_local_q(m, pol, th, 0),
        lambda m, pol, th: oracle.gradient_via_averaged_q(m, pol, th, 0),
    ],
    ids=["build_restricted_chain", "exact_objective", "discounted_visitation",
         "gradient_via_local_q", "gradient_via_averaged_q"],
)
def test_table_guard_fires_before_any_joint_tensor(monkeypatch, call):
    g = line_graph(3)
    m = random_table_model(g, np.random.default_rng(9))
    pol = CoupledSoftmaxPolicy(g, 2, 2, MixingSpec(kappa_p=1))
    theta = np.random.default_rng(10).uniform(-1.0, 1.0, size=(3, 4))
    monkeypatch.setattr(oracle, "MAX_TABLE_ENTRIES", 15)
    m.kernels = Untouchable()
    m.reward_tables = Untouchable()
    with pytest.raises(SpaceTooLarge):
        call(m, pol, theta)
