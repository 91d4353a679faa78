"""Outer training loop: mixing, two-horizon rollouts, gradient steps, metrics.

Per iteration ``t = 1..T``: a push-sum mixing round refreshes every agent's
parameter estimates, a two-horizon rollout under the executed policy yields
per-agent gradient estimates, the true parameters take a diminishing
gradient step, and the parameter changes are injected back into the
protocol. Iteration ``T`` records final metrics without updating, so a run
with ``T`` iterations performs ``T - 1`` updates and emits ``T`` record
rows. Runs are deterministic per seed; per-purpose rng streams are derived
from the master seed by fixed labels so that changing the evaluation load
never perturbs the training trajectory.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, IO

import numpy as np

from . import estimator, netgraph, pushsum
from .errors import ConfigError, HorizonOverflow, NonFiniteState
from .model import FactoredNmarlModel
from .oracle import truncation_horizon
from .policy import CoupledSoftmaxPolicy, MixingSpec

CSV_HEADER = "t,J_est,J_se,grad_norm_est,consensus_err,lr,wall_ms"

# Fixed labels for per-purpose rng streams derived from the master seed.
_STREAM_TRAIN = 0
_STREAM_EVAL = 1


@dataclass(frozen=True)
class DscpConfig:
    """Run configuration with frozen defaults for the path-planning setup,
    validated on construction (``replace`` included)."""

    iterations: int
    kappa_p: int = 1
    eta0: float = 0.5
    t0: float = 10.0
    self_weight: float = 0.9
    neighbor_weight_total: float = 0.1
    seed: int = 0
    batch: int = 1
    eval_every: int = 0
    eval_episodes: int = 200
    eval_method: str = "geometric"  # or "fixed_horizon"
    eval_horizon_eps: float = 1e-4
    direct_params: bool = False  # kappa_p == 1 only: neighbors share true parameters
    check_invariants: bool = False
    record_wall_time: bool = False

    def __post_init__(self) -> None:
        self.validate()

    def mixing(self) -> MixingSpec:
        return MixingSpec(
            self_weight=self.self_weight,
            neighbor_weight_total=self.neighbor_weight_total,
            kappa_p=self.kappa_p,
        )

    def validate(self) -> None:
        if self.iterations < 1:
            raise ConfigError(f"iterations must be at least 1, got {self.iterations}")
        self.mixing()  # MixingSpec checks the weights and kappa_p
        if self.eta0 <= 0 or self.t0 < 0:
            raise ConfigError("learning-rate schedule needs eta0 > 0 and t0 >= 0")
        if self.batch < 1:
            raise ConfigError(f"batch must be at least 1, got {self.batch}")
        if self.eval_every < 0:
            raise ConfigError(f"eval_every must be nonnegative, got {self.eval_every}")
        if self.eval_episodes < 1:
            raise ConfigError("eval_episodes must be at least 1")
        if self.eval_horizon_eps <= 0:
            raise ConfigError(f"eval_horizon_eps must be positive, got {self.eval_horizon_eps}")
        if self.eval_method not in ("geometric", "fixed_horizon"):
            raise ConfigError(f"unknown eval_method {self.eval_method!r}")
        if self.direct_params and self.kappa_p != 1:
            raise ConfigError("direct_params is only meaningful for kappa_p == 1")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")


def learning_rate(cfg: DscpConfig, t: int) -> float:
    """Diminishing step size ``eta0 / (t + t0)``, strictly positive."""
    if t < 1:
        raise ValueError(f"iteration index starts at 1, got {t}")
    return cfg.eta0 / (t + cfg.t0)


@dataclass
class IterationRow:
    t: int
    j_est: float | None
    j_se: float | None
    grad_norm_est: float | None
    consensus_err: float
    lr: float
    wall_ms: int | None


@dataclass
class TrainRecord:
    """Per-iteration metric rows plus CSV serialization."""

    rows: list[IterationRow] = field(default_factory=list)

    def write_csv(self, fp: IO[str], include_wall_time: bool = False) -> None:
        # Wall times are only written on request: they are the one
        # nondeterministic column and would break byte-identical reruns.
        fp.write(CSV_HEADER + "\n")
        for r in self.rows:
            wall = "" if (not include_wall_time or r.wall_ms is None) else str(r.wall_ms)
            cells = (
                str(r.t),
                _fmt(r.j_est),
                _fmt(r.j_se),
                _fmt(r.grad_norm_est),
                _fmt(r.consensus_err),
                _fmt(r.lr),
                wall,
            )
            fp.write(",".join(cells) + "\n")

    def final_eval(self) -> IterationRow | None:
        for r in reversed(self.rows):
            if r.j_est is not None:
                return r
        return None


def _fmt(x: float | None) -> str:
    return "" if x is None else repr(float(x))


def _train_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, _STREAM_TRAIN]))


def _eval_rng(seed: int, t: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, _STREAM_EVAL, t]))


def run_dscp(
    m: FactoredNmarlModel,
    g: netgraph.AgentGraph,
    cfg: DscpConfig,
    gradient_override: Callable[[np.ndarray, int], np.ndarray] | None = None,
) -> tuple[np.ndarray, TrainRecord]:
    """Train coupled softmax policies on ``m`` over graph ``g``.

    Returns the final true parameters ``(n, d)`` and the metric record.
    ``gradient_override``, a test hook, replaces the sampled gradient
    estimate by ``fn(theta, t) -> (n, d)``.

    Raises:
        NonFiniteState: the true parameters after an update, or the
            consensus error after a mixing round (which reads every push-sum
            estimate), are not finite. The run stops before it evaluates or
            samples with such parameters.
    """
    m.validate()
    pol = CoupledSoftmaxPolicy(g, m.n_states, m.n_actions, cfg.mixing())
    w = netgraph.weight_matrix(g)
    theta = pol.zero_params()
    bound = estimator.estimate_bound(m, pol)
    use_pushsum = cfg.kappa_p >= 1 and not cfg.direct_params
    ps = pushsum.init_state(m.n, pol.d) if use_pushsum else None
    rng = _train_rng(cfg.seed)
    record = TrainRecord()

    for t in range(1, cfg.iterations + 1):
        started = time.perf_counter()
        if use_pushsum:
            pushsum.mix_and_estimate(ps, w)
            if cfg.check_invariants:
                pushsum.check_invariants(ps, theta)
            consensus = pushsum.consensus_error(ps, theta)
            if not math.isfinite(consensus):
                raise NonFiniteState(f"push-sum consensus error is {consensus} at iteration {t}")
            exec_params: np.ndarray = ps.estimates
        else:
            consensus = 0.0
            exec_params = theta

        j_est = j_se = None
        if t == 1 or t == cfg.iterations or (
            cfg.eval_every > 0 and t % cfg.eval_every == 0
        ):
            j_est, j_se = evaluate_policy(
                m,
                pol,
                theta,
                cfg.eval_episodes,
                _eval_rng(cfg.seed, t),
                method=cfg.eval_method,
                horizon_eps=cfg.eval_horizon_eps,
            )

        grad_norm = None
        lr = learning_rate(cfg, t)
        if t < cfg.iterations:
            if gradient_override is not None:
                grads = gradient_override(theta, t)
            else:
                tables = pol.prob_tables(exec_params)
                grads = None
                for _ in range(cfg.batch):
                    roll = estimator.rollout_two_horizon(m, tables, rng)
                    est = estimator.gradient_estimate(roll, m, pol, exec_params, bound)
                    grads = est.grads if grads is None else grads + est.grads
                if cfg.batch > 1:
                    grads /= cfg.batch
            flat = grads.ravel()
            grad_norm = math.sqrt(flat @ flat)  # np.linalg.norm's sum of squares
            deltas = lr * grads
            theta = theta + deltas
            if not np.isfinite(theta).all():
                raise NonFiniteState(f"parameters are not finite after iteration {t}'s update")
            if use_pushsum:
                pushsum.inject_all(ps, w, deltas)
                if cfg.check_invariants:
                    pushsum.check_invariants(ps, theta)

        wall = int(round((time.perf_counter() - started) * 1000.0))
        record.rows.append(
            IterationRow(
                t=t,
                j_est=j_est,
                j_se=j_se,
                grad_norm_est=grad_norm,
                consensus_err=consensus,
                lr=lr,
                wall_ms=wall,
            )
        )
    return theta, record


# ----------------------------------------------------------------------
# Monte-Carlo policy evaluation


def evaluate_policy(
    m: FactoredNmarlModel,
    pol: CoupledSoftmaxPolicy,
    params: np.ndarray,
    episodes: int,
    rng: np.random.Generator,
    method: str = "geometric",
    horizon_eps: float = 1e-4,
) -> tuple[float, float]:
    """Estimate the discounted average cumulative reward with its standard error.

    ``geometric`` draws one horizon per episode from ``Geom(1 - gamma)`` and
    sums rewards unweighted, which telescopes to an unbiased estimate of the
    discounted objective without any cutoff. ``fixed_horizon`` sums
    explicitly discounted rewards to the ``horizon_eps``-accuracy horizon;
    its per-episode variance is far lower, at the price of a bias below
    ``horizon_eps``. Draw order: the ``geometric`` horizons, the start
    states, then the steps in ``estimator._step_blocks``' order.

    Raises ``HorizonOverflow`` before any step when the horizon exceeds
    ``estimator.MAX_HORIZON``, the cap rollouts enforce: a fixed horizon
    before any draw, a geometric run on its largest drawn horizon.

    The steps are scored one drawn block of ``(steps, episodes, n)`` at a
    time, with one ``batch_rewards`` call per block: ``estimator.DRAW_BLOCK``
    keeps a block's uniforms and its reward temporaries at or below 64 KB, so
    the peak memory does not grow with the horizon. Each step's agent mean is
    ``sum / n`` (the bits of ``mean``), and the episode totals add the steps
    one at a time, in order.

    A block covers only the episodes not yet finished, and each adds its
    step sums to its own total. An episode is finished once it is past its
    geometric horizon, where its weight is 0 on a finite reward, or once
    every agent sits on a parked row (``FactoredNmarlModel.parked_rows``),
    where every reward is ``+0.0``. Its remaining additions would all be
    zeros, which leave a total unchanged (a total is never ``-0.0``), so J,
    SE and the generator state are those of stepping every episode to the
    end.
    """
    if episodes < 1:
        raise ConfigError(f"episodes must be at least 1, got {episodes}")
    tables = pol.prob_tables(params)
    if method == "geometric":
        last_steps = estimator.sample_geometric(1.0 - m.gamma, rng, size=episodes)
        max_t = int(last_steps.max())
    elif method == "fixed_horizon":
        max_t = truncation_horizon(m.gamma, horizon_eps, max(m.reward_bound, 1e-12))
        last_steps = np.full(episodes, max_t)
    else:
        raise ConfigError(f"unknown eval method {method!r}")
    if max_t > estimator.MAX_HORIZON:
        raise HorizonOverflow(
            f"{method} evaluation horizon {max_t} exceeds cap {estimator.MAX_HORIZON}"
        )
    discounts = None if method == "geometric" else m.gamma ** np.arange(max_t + 1)

    blocks = estimator._step_blocks(
        m, tables, m.rho.sample(rng, episodes), rng, max_t, None, last_steps=last_steps
    )
    totals = np.zeros(episodes)
    t = 0  # the block's first step
    for states, acts, live in blocks:
        rbar = np.asarray(m.batch_rewards(states, acts), dtype=float).sum(axis=-1) / m.n
        k = len(rbar)
        # an episode past its geometric horizon adds 0; every fixed one runs on
        if discounts is None:
            weights = np.arange(t, t + k)[:, None] <= last_steps.take(live)
        else:
            weights = discounts[t : t + k, None]
        part = totals.take(live)
        for step in weights * rbar:
            part += step
        totals[live] = part
        t += k
    j = float(totals.mean())
    se = float(totals.std(ddof=1) / math.sqrt(episodes)) if episodes > 1 else 0.0
    return j, se
