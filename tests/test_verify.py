"""Pins of the ``verify`` checks' reports, the runs a check stands for, the
defects each check must catch, and the suite's levels."""

import dataclasses
import re

import numpy as np
import pytest

from nmarl import estimator, netgraph, pushsum, verify
from nmarl.errors import ConfigError, ProtocolInvariantError
from nmarl.policy import CoupledSoftmaxPolicy


def test_pushsum_check_detail_is_pinned():
    # the report of the check when it drew each round's deltas in its own
    # call; one draw of all rounds gives the same values and generator state
    ok, detail = verify.check_pushsum()
    assert ok
    assert detail == "invariants held 300 rounds; static decay rate 0.8727, R2 1.00000"


def test_value_decomposition_detail_is_pinned():
    # the report of the check when it summed the local Q tables point by
    # point; one broadcast sum in agent order gives the same gap
    ok, detail = verify.check_value_decomposition()
    assert ok
    assert detail == "max decomposition gap 3.807e-12 over 64 pairs"


N, D = 10, 4  # check_pushsum's ring and parameter dimension


def _lone_deltas(rounds, seed=303):
    """The deltas of the two runs check_pushsum certifies, drawn in its order:
    ``rounds`` invariant rounds, then the decay run's one injection."""
    rng = np.random.default_rng(seed)
    invariant = rng.normal(size=(rounds, N, D)) / (np.arange(1, rounds + 1) + 10)[:, None, None]
    decay = np.zeros((max(rounds, 200), N, D))
    decay[0] = rng.normal(size=(N, D))
    return invariant, decay


def _states(w, deltas):
    """(weights, vectors, estimates) after each round of a lone run."""
    st = pushsum.init_state(N, deltas.shape[-1])
    for delta in deltas:
        pushsum.mix_and_estimate(st, w)
        pushsum.inject_all(st, w, delta)
        yield st.weights.copy(), st.breve.copy(), st.estimates.copy()


class TestOneRunPushsum:
    """check_pushsum's one run over 2 d columns against the two 4-column runs
    it stands for."""

    def test_column_halves_equal_lone_runs(self):
        w = netgraph.weight_matrix(netgraph.ring_graph(N))
        invariant, decay = _lone_deltas(300)
        both = np.concatenate([invariant, decay], axis=-1)
        joint = list(_states(w, both))
        for half, deltas in ((slice(D), invariant), (slice(D, None), decay)):
            for (weights, breve, estimates), lone in zip(joint, _states(w, deltas), strict=True):
                assert np.array_equal(weights, lone[0])  # bit for bit
                assert np.array_equal(breve[..., half], lone[1])
                assert np.array_equal(estimates[..., half], lone[2])
        blocks = [
            [field.copy() for field in (states.weights, states.breve, states.estimates)]
            for _, states in verify._rounds_in_blocks(w, both)
        ]  # copied, since the next block overwrites this one
        weights, breve, estimates = (np.concatenate(field) for field in zip(*blocks))
        assert np.array_equal(weights, np.stack([state[0] for state in joint]))
        assert np.array_equal(breve, np.stack([state[1][..., :D] for state in joint]))
        assert np.array_equal(estimates, np.stack([state[2][..., D:] for state in joint]))

    @pytest.mark.parametrize("rounds", [50, 400])
    def test_other_round_counts_keep_the_decay_fit(self, rounds):
        # the report of the lone decay run, fitted over rounds 10..200 as the
        # check fits it
        w = netgraph.weight_matrix(netgraph.ring_graph(N))
        _, decay = _lone_deltas(rounds)
        before = np.zeros_like(decay)
        before[1:] = decay[0]
        errs = [
            pushsum.consensus_error(pushsum.PushSumState(*state), theta)
            for state, theta in zip(_states(w, decay), before)
        ]
        ts = np.arange(10, 201)
        ys = np.log(np.array(errs)[ts - 1])
        a = np.vstack([ts, np.ones_like(ts)]).T
        coef, *_ = np.linalg.lstsq(a, ys, rcond=None)
        r2 = 1 - ((ys - a @ coef) ** 2).sum() / ((ys - ys.mean()) ** 2).sum()
        ok, detail = verify.check_pushsum(rounds=rounds)
        assert ok
        assert detail == (
            f"invariants held {rounds} rounds; "
            f"static decay rate {np.exp(coef[0]):.4f}, R2 {r2:.5f}"
        )


QUICK_DETAILS = {
    "value_decomposition": "max decomposition gap 3.807e-12 over 64 pairs",
    "gradient_forms": "form gap 4.857e-16, fd relative gap 3.651e-10",
    "pushsum_invariants": "invariants held 300 rounds; static decay rate 0.8727, R2 1.00000",
    "geometric_sampler": (
        "mean 9.023 (target 9), P(0) 0.1001 (target 0.1), truncation identity gap 3.33e-16"
    ),
    "policy_scores": (
        "normalization gap 2.22e-16, score mean 8.30e-17, coupled term gap 9.09e-17 "
        "over 2 draws per parameter shape"
    ),
}


def test_quick_suite_details_are_pinned():
    # every reported number of the quick suite, so that a change to how a
    # check batches its work shows if it moves one
    report = verify.run_suite("quick")
    assert report["pass"]
    assert {c["name"]: c["detail"] for c in report["checks"]} == QUICK_DETAILS


class TestPushsumNegativeControls:
    """One-line push-sum defects that ``pushsum_invariants`` must fail on its
    own gates, not through some other exception."""

    def test_injecting_into_the_next_target_fails_the_mean_gate(self, monkeypatch):
        # each owner's delta lands in the next target's column: the weights
        # and the mass still hold, only the per-target means move
        inject = pushsum.inject_all
        monkeypatch.setattr(
            pushsum, "inject_all",
            lambda st, w, deltas: inject(st, w, np.roll(deltas, 1, axis=0)),
        )
        with pytest.raises(ProtocolInvariantError, match="intermediate-vector means deviate"):
            verify.check_pushsum()

    def test_identity_mixing_fails_the_decay_gate(self, monkeypatch):
        # the identity is column stochastic, so both invariants hold, but no
        # agent ever hears of another's parameters
        monkeypatch.setattr(netgraph, "weight_matrix", lambda g: np.eye(g.n))
        ok, detail = verify.check_pushsum()
        assert not ok
        assert detail.startswith("invariants held 300 rounds; static decay rate 1.0000, R2 ")


class TestGradientNegativeControls:
    """One-line gradient defects that a statistical or exact check must fail
    on its own gate, not through some other exception."""

    def test_dropped_discount_factor_fails_the_unbiasedness_gate(self, monkeypatch):
        # the estimate without its 1 / (1 - gamma) is (1 - gamma) = 0.2 times
        # too small; 5 000 samples pass unpatched and put it far past |z| 4
        assert verify.check_estimator_unbiased(samples=5_000)[0]
        estimate = estimator.gradient_estimate

        def dropped(roll, m, pol, params, bound=None):
            ge = estimate(roll, m, pol, params, bound)
            return dataclasses.replace(ge, grads=ge.grads * (1.0 - m.gamma))

        monkeypatch.setattr(estimator, "gradient_estimate", dropped)
        ok, detail = verify.check_estimator_unbiased(samples=5_000)
        assert not ok
        worst_z, violations = re.fullmatch(
            r"worst \|z\| (\S+) over 5000 samples, (\d+) bound violations", detail
        ).groups()
        assert float(worst_z) > 20 and violations == "0"

    def test_untransposed_score_shares_fail_the_coupled_term_gate(self, monkeypatch):
        # agent i weighs agent j's score by coupling[i, j] for coupling[j, i]:
        # every row still has mean zero, so only the coupled term sees it
        init = CoupledSoftmaxPolicy.__init__

        def untransposed(self, *args, **kwargs):
            init(self, *args, **kwargs)
            self._shares = self.coupling[:, :, None]

        monkeypatch.setattr(CoupledSoftmaxPolicy, "__init__", untransposed)
        ok, detail = verify.check_policy_scores()
        assert not ok
        norm, mean, term = map(float, re.fullmatch(
            r"normalization gap (\S+), score mean (\S+), coupled term gap (\S+) "
            r"over 2 draws per parameter shape", detail
        ).groups())
        assert norm <= 1e-12 and mean <= 1e-12 and term > 1e-3


class TestReturnNegativeControls:
    """One-line defects of the return estimate's discount and horizon law that
    ``geometric_sampler`` or ``conditional_q_mean`` must fail on its own gate,
    not through some other exception. 50 000 resamples keep each defect's
    |z| at 8 or more, at about 0.3 s per check."""

    SAMPLES = 50_000

    def conditional_z(self):
        ok, detail = verify.check_conditional_q_mean(samples=self.SAMPLES)
        z = float(re.fullmatch(
            rf"\|z\| (\S+) over {self.SAMPLES} conditional resamples", detail
        ).group(1))
        return ok, z

    def test_unpatched_checks_pass(self):
        assert verify.check_geometric_sampler()[0]
        assert self.conditional_z()[0]

    def test_full_discount_weights_fail_both_gates(self, monkeypatch):
        # gamma^tau in place of gamma^(tau / 2): the window's reward weights
        # square, so the truncation identity and the conditional mean both move
        # (gap 1.34e-01; |z| 13.10 at 50 000 resamples, 17.83 at 100 000)
        monkeypatch.setattr(
            estimator, "half_discount_weights", lambda gamma, length: gamma ** np.arange(length)
        )
        ok, detail = verify.check_geometric_sampler()
        gap = float(re.search(r"truncation identity gap (\S+)$", detail).group(1))
        assert not ok and gap > 0.1
        ok, z = self.conditional_z()
        assert not ok and z > 8

    def test_window_from_the_discount_law_fails_the_conditional_gate(self, monkeypatch):
        # t2 ~ Geom(1 - gamma) in place of Geom(1 - sqrt(gamma)): p -> 1 - (1 - p)^2
        # maps the window's success probability onto the snapshot's (|z| 9.94
        # at 50 000 resamples, 14.20 at 100 000)
        draw = estimator.sample_geometric
        monkeypatch.setattr(
            estimator, "sample_geometric",
            lambda p, rng, size=None: draw(1.0 - (1.0 - p) ** 2, rng, size),
        )
        ok, z = self.conditional_z()
        assert not ok and z > 8


@pytest.mark.parametrize("level", ["Full", "QUICK", "", "full ", None])
def test_unknown_level_is_refused_before_any_check(monkeypatch, level):
    # a mistyped level used to run the quick checks alone and pass
    monkeypatch.setattr(verify, "QUICK_CHECKS", [("ran", lambda: pytest.fail("a check ran"))])
    with pytest.raises(ConfigError, match="verify level must be 'quick' or 'full'"):
        verify.run_suite(level)
