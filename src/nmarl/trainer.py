"""Outer training loop: mixing, two-horizon rollouts, gradient steps, metrics.

``start_run(m, cfg)`` builds a ``RunState`` on the model's own graph (``t``,
the true parameters, the push-sum state or ``None`` at ``kappa_p`` 0, the
training generator) and ``step`` advances it by one iteration ``t = 1..T``:
a push-sum mixing round refreshes every agent's estimates, which are the
executed parameters; ``step``'s ``gradient(run, executed)`` argument gives
per-agent gradient estimates (by default a two-horizon rollout under the
executed policy); the true parameters take a diminishing gradient step, and
the changes are injected back into the protocol. Iteration ``T`` records
final metrics without updating, so ``T`` iterations perform ``T - 1``
updates and emit ``T`` rows. Runs are deterministic per seed; per-purpose
rng streams are derived from the master seed by fixed labels so that
changing the evaluation load never perturbs the training trajectory.

``start_run`` checks once what a run fixes (the ``(n, n)`` mixing matrix, the
policy's coupling and score constants, the estimate bound), and ``step`` runs
the private kernels of ``pushsum``, ``policy`` and ``estimator`` without the
argument checks the run implies: shapes, and finite deltas once the update
has refused a non-finite ``theta``. Every runtime check stays (positive
weights, finite consensus error and logits, horizon cap, estimate bound).
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field
from typing import Callable, IO

import numpy as np

from . import estimator, netgraph, pushsum
from .errors import ConfigError, DimensionMismatch, HorizonOverflow, NonFiniteState
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
    check_invariants: bool = False
    record_wall_time: bool = False

    def __post_init__(self) -> None:
        self.validate()

    def mixing(self) -> MixingSpec:
        return MixingSpec(self.self_weight, self.neighbor_weight_total, self.kappa_p)

    def validate(self) -> None:
        for name in ("iterations", "batch", "eval_every", "eval_episodes", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.iterations < 1:
            raise ConfigError(f"iterations must be at least 1, got {self.iterations}")
        self.mixing()  # MixingSpec checks the weights and kappa_p
        if self.kappa_p >= 1 and self.self_weight == self.neighbor_weight_total == 0:
            raise ConfigError(
                "mixing weights are both 0: at kappa_p >= 1 every coupling row is zero, "
                "so the policy would ignore its parameters"
            )
        if not (0 < self.eta0 < math.inf and 0 <= self.t0 < math.inf):  # NaN fails too
            raise ConfigError("learning-rate schedule needs finite eta0 > 0 and t0 >= 0")
        if self.batch < 1:
            raise ConfigError(f"batch must be at least 1, got {self.batch}")
        if self.eval_every < 0:
            raise ConfigError(f"eval_every must be nonnegative, got {self.eval_every}")
        if self.eval_episodes < 1:
            raise ConfigError("eval_episodes must be at least 1")
        if not 0 < self.eval_horizon_eps < math.inf:
            raise ConfigError(f"eval_horizon_eps must be in (0, inf), got {self.eval_horizon_eps}")
        if self.eval_method not in ("geometric", "fixed_horizon"):
            raise ConfigError(f"unknown eval_method {self.eval_method!r}")
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
            metrics = (r.j_est, r.j_se, r.grad_norm_est, r.consensus_err, r.lr)
            cells = (str(r.t), *map(_fmt, metrics), wall)
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


@dataclass
class RunState:
    """What an iteration hands to the next, beside what stays fixed: ``pol``,
    ``w`` and ``bound``, which ``start_run`` checked for the kernels."""

    m: FactoredNmarlModel
    cfg: DscpConfig
    pol: CoupledSoftmaxPolicy
    w: np.ndarray  # push-sum mixing matrix
    bound: float  # estimator.estimate_bound
    t: int  # iterations done
    theta: np.ndarray  # true parameters (n, d)
    ps: pushsum.PushSumState | None  # None at kappa_p 0
    rng: np.random.Generator  # the training stream


def start_run(m: FactoredNmarlModel, cfg: DscpConfig) -> RunState:
    """The state of a run on ``m`` over its graph ``m.graph`` before iteration 1."""
    pol = CoupledSoftmaxPolicy(m.graph, m.n_states, m.n_actions, cfg.mixing())
    ps = pushsum.init_state(m.n, pol.d) if cfg.kappa_p >= 1 else None
    w, bound = netgraph.weight_matrix(m.graph), estimator.estimate_bound(m, pol)
    pushsum._check_mixing(w, m.n)
    return RunState(m, cfg, pol, w, bound, 0, pol.zero_params(), ps, _train_rng(cfg.seed))


Gradient = Callable[[RunState, np.ndarray], np.ndarray]


def sampled_gradient(run: RunState, executed: np.ndarray) -> np.ndarray:
    """Mean of ``cfg.batch`` two-horizon estimates, each from one rollout
    under the ``executed`` parameters ``(n, n, d)`` or ``(n, d)``."""
    tables = run.pol._tables(executed)
    grads = None
    for _ in range(run.cfg.batch):
        roll = estimator.rollout_two_horizon(run.m, tables, run.rng)
        g, _ = estimator._bounded_gradients(roll, run.m, run.pol, executed, run.bound)
        grads = g if grads is None else grads + g
    if run.cfg.batch > 1:
        grads /= run.cfg.batch
    return grads


def step(run: RunState, gradient: Gradient = sampled_gradient) -> IterationRow:
    """Advance ``run`` by one iteration and return its metric row.

    ``gradient(run, executed)`` gives the ``(n, d)`` ascent direction from
    the executed parameters: the push-sum estimates, or ``run.theta`` at
    ``kappa_p`` 0. ``lambda run, _: sampled_gradient(run, run.theta)``
    samples on the true parameters at every ``kappa_p``.

    Raises:
        DimensionMismatch: the gradient is not ``run.theta``'s shape; raised
            before ``run.theta`` or the push-sum state changes.
        NonFiniteState: the true parameters after an update, or the
            consensus error after a mixing round (which reads every push-sum
            estimate), are not finite. The run stops before it evaluates or
            samples with such parameters.
    """
    cfg, ps = run.cfg, run.ps
    started = time.perf_counter()
    t = run.t = run.t + 1
    executed, consensus = run.theta, 0.0
    if ps is not None:
        pushsum._mix(ps, run.w)
        if cfg.check_invariants:
            pushsum.check_invariants(ps, run.theta)
        consensus = float(pushsum._worst_error(ps.estimates, run.theta))
        if not math.isfinite(consensus):
            raise NonFiniteState(f"push-sum consensus error is {consensus} at iteration {t}")
        executed = ps.estimates

    j_est = j_se = None
    if t == 1 or t == cfg.iterations or (cfg.eval_every > 0 and t % cfg.eval_every == 0):
        j_est, j_se = evaluate_policy(
            run.m, run.pol, run.theta, cfg.eval_episodes, _eval_rng(cfg.seed, t),
            method=cfg.eval_method, horizon_eps=cfg.eval_horizon_eps,
        )

    grad_norm = None
    lr = learning_rate(cfg, t)
    if t < cfg.iterations:
        grads = gradient(run, executed)
        if grads.shape != run.theta.shape:
            raise DimensionMismatch(f"gradient has shape {grads.shape}, expected {run.theta.shape}")
        flat = grads.ravel()
        grad_norm = math.sqrt(flat @ flat)  # np.linalg.norm's sum of squares
        deltas = lr * grads
        theta = run.theta + deltas
        if not np.isfinite(theta).all():
            raise NonFiniteState(f"parameters are not finite after iteration {t}'s update")
        run.theta = theta
        if ps is not None:
            pushsum._inject(ps, run.w, deltas)
            if cfg.check_invariants:
                pushsum.check_invariants(ps, theta)

    wall = int(round((time.perf_counter() - started) * 1000.0))
    return IterationRow(t, j_est, j_se, grad_norm, consensus, lr, wall)


def run_dscp(
    m: FactoredNmarlModel, g: netgraph.AgentGraph, cfg: DscpConfig
) -> tuple[np.ndarray, TrainRecord]:
    """Train coupled softmax policies on ``m`` over its graph ``g``: ``start_run``,
    then ``cfg.iterations`` sampled ``step``s. Returns the final true
    parameters ``(n, d)`` and the metric record; raises ``ConfigError`` when
    ``g`` is not ``m.graph``, and otherwise as ``step`` does."""
    if g != m.graph:
        raise ConfigError(f"the run's graph {g.edges} is not the model's graph {m.graph.edges}")
    run = start_run(m, cfg)
    record = TrainRecord([step(run) for _ in range(cfg.iterations)])
    return run.theta, record


# ----------------------------------------------------------------------
# Monte-Carlo policy evaluation


PAIRWISE_AGENTS = 8  # numpy's float sum adds 8 partial sums from this many terms on


def _agent_sums(rewards: np.ndarray) -> np.ndarray:
    """``np.add.reduce(rewards, axis=-1)``, bit for bit; below
    ``PAIRWISE_AGENTS`` agents as column adds from ``+0.0``: numpy's order,
    without its reduction loop per row, which costs more than the adds on a
    3-agent row. From 8 agents numpy adds partial sums pairwise, and a
    single row runs the reduction too: numpy adds one-element arrays with
    their operands swapped, which keeps the other NaN where two meet.
    """
    n = rewards.shape[-1]
    if n >= PAIRWISE_AGENTS or rewards.size <= n:
        return np.add.reduce(rewards, axis=-1)
    total = np.zeros(rewards.shape[:-1])
    for j in range(n):
        total += rewards[..., j]
    return total


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
    ``horizon_eps``. It draws in ``estimator._step_blocks``' order.

    Raises ``HorizonOverflow`` before any step when the horizon exceeds
    ``estimator.MAX_HORIZON``, the cap rollouts enforce: a fixed horizon
    before any draw, a geometric run on its largest drawn horizon.

    The steps are scored one block of ``(steps, episodes, n)`` at a time,
    with one ``batch_rewards`` call per block: ``estimator.DRAW_BLOCK``
    keeps the uniforms a block reads and its reward temporaries at or below
    64 KB, so the peak memory does not grow with the horizon. On kernels
    that keep no threshold (both shipped models) a block reads no transition
    uniform, so it holds twice the steps and half as many reward calls run.
    Each step's agent mean is ``sum / n`` (the bits of ``mean``, with the
    agent sum bit for bit ``np.add.reduce``'s, ``_agent_sums``), and the
    episode totals add the steps one at a time, in order.

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
        m, tables, m.sample_starts(rng, episodes), rng, max_t, last_steps=last_steps
    )
    totals = np.zeros(episodes)
    t = 0  # the block's first step
    for states, acts, live in blocks:
        rbar = _agent_sums(np.asarray(m.batch_rewards(states, acts), dtype=float)) / m.n
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
