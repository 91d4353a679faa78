"""Per-layer timing from outside the program.

For the traced run the benchmark swaps the module attributes and class
methods the package calls (``estimator.rollout_two_horizon``,
``CoupledSoftmaxPolicy.prob_tables``, ...) for timing wrappers and restores
the originals afterwards. The wrappers keep their spans in memory, folded per
name into a call count, a total and the part covered by traced callees, so
self time is span minus children. They also record exact work counts at the
same boundaries (env steps, episode steps, oracle joint points, push-sum
bytes computed from array shapes). Nothing the wrappers do draws from an RNG,
so a traced pass must reproduce the untraced one's outputs bit for bit.
"""

from __future__ import annotations

import inspect
import math
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from nmarl import estimator, netgraph, oracle, pushsum, trainer, verify
from nmarl.model import FactoredNmarlModel
from nmarl.policy import CoupledSoftmaxPolicy

F64 = 8  # bytes per float64 element


class Span:
    __slots__ = ("calls", "total_ns", "child_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.child_ns = 0

    @property
    def self_ns(self) -> int:
        return self.total_ns - self.child_ns


class Tracer:
    """Folded spans per traced name, plus exact work counters."""

    def __init__(self) -> None:
        self.spans: dict[str, Span] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []  # child time accumulated per open span

    def add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_result: Callable[[tuple, dict, Any], None] | None = None,
    ) -> Callable:
        """``fn`` timed under ``name``; ``on_result(args, kwargs, result)`` counts work."""
        span = self.spans.setdefault(name, Span())
        stack = self._stack

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack.append(0)
            started = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - started
                span.calls += 1
                span.total_ns += elapsed
                span.child_ns += stack.pop()
                if stack:
                    stack[-1] += elapsed
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def span(self, name: str) -> Span:
        return self.spans.get(name, Span())

    def count(self, key: str) -> int:
        return self.counts.get(key, 0)


# ----------------------------------------------------------------------
# work counters, computed at the traced boundaries


_EVAL_SIG = inspect.signature(trainer.evaluate_policy)
_RUN_SIG = inspect.signature(trainer.run_dscp)


def _arguments(sig: inspect.Signature, args: tuple, kwargs: dict) -> dict:
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_rollout(tr: Tracer) -> Callable:
    def on(_args: tuple, _kwargs: dict, roll: Any) -> None:
        tr.add("env_steps", roll.t1 + roll.t2 + 1)

    return on


def _count_eval(tr: Tracer) -> Callable:
    def on(args: tuple, kwargs: dict, _out: Any) -> None:
        a = _arguments(_EVAL_SIG, args, kwargs)
        if a["method"] == "fixed_horizon":
            m = a["m"]
            horizon = oracle.truncation_horizon(
                m.gamma, a["horizon_eps"], max(m.reward_bound, 1e-12)
            )
            tr.add("eval_episode_steps", a["episodes"] * (horizon + 1))

    return on


def _count_run(tr: Tracer) -> Callable:
    def on(args: tuple, kwargs: dict, _out: Any) -> None:
        tr.add("iterations", _arguments(_RUN_SIG, args, kwargs)["cfg"].iterations)

    return on


# Push-sum traffic: every operand array read once and every result written
# once, from the (n,), (n, n) and (n, n, d) shapes. A model, not a counter.
# The protocol state is the first argument of every push-sum function.
def _bytes_mix(tr: Tracer) -> Callable:
    def on(args: tuple, _kwargs: dict, _out: Any) -> None:
        n, _, d = args[0].breve.shape
        tr.add("pushsum_bytes", F64 * (n * n + 2 * n + 2 * n * n * d))

    return on


def _bytes_inject(tr: Tracer) -> Callable:
    def on(args: tuple, _kwargs: dict, _out: Any) -> None:
        n, _, d = args[0].breve.shape
        tr.add("pushsum_bytes", F64 * (n * n + n * d + 2 * n * n * d))

    return on


def _bytes_consensus(tr: Tracer) -> Callable:
    def on(args: tuple, _kwargs: dict, _out: Any) -> None:
        n, _, d = args[0].estimates.shape
        tr.add("pushsum_bytes", F64 * (n * n * d + n * d))

    return on


def _points_chain(tr: Tracer) -> Callable:
    def on(_args: tuple, _kwargs: dict, chain: Any) -> None:
        tr.add("oracle_joint_points", len(chain.state_space.points) * len(chain.action_space.points))

    return on


def _points_gradient(tr: Tracer) -> Callable:
    # The gradient forms loop over every joint (state, action) pair; the
    # model is their first argument.
    def on(args: tuple, _kwargs: dict, _out: Any) -> None:
        m = args[0]
        tr.add("oracle_joint_points", math.prod(m.state_sizes) * math.prod(m.action_sizes))

    return on


# (owner, attribute, span name, counter factory or None)
TARGETS: list[tuple[Any, str, str, Callable[[Tracer], Callable] | None]] = [
    (trainer, "run_dscp", "trainer.run_dscp", _count_run),
    (trainer, "evaluate_policy", "trainer.evaluate_policy", _count_eval),
    (estimator, "rollout_two_horizon", "estimator.rollout_two_horizon", _count_rollout),
    (estimator, "gradient_estimate", "estimator.gradient_estimate", None),
    (estimator, "q_estimate", "estimator.q_estimate", None),
    (CoupledSoftmaxPolicy, "prob_tables", "policy.prob_tables", None),
    (CoupledSoftmaxPolicy, "score_sum", "policy.score_sum", None),
    (netgraph, "khop", "netgraph.khop", None),
    (FactoredNmarlModel, "rewards", "model.rewards", None),
    (pushsum, "mix_and_estimate", "pushsum.mix_and_estimate", _bytes_mix),
    (pushsum, "inject_all", "pushsum.inject_all", _bytes_inject),
    (pushsum, "consensus_error", "pushsum.consensus_error", _bytes_consensus),
    (oracle, "build_restricted_chain", "oracle.build_restricted_chain", _points_chain),
    (oracle, "chain_q_table", "oracle.chain_q_table", None),
    (oracle, "discounted_visitation", "oracle.discounted_visitation", None),
    (oracle, "gradient_via_local_q", "oracle.gradient_via_local_q", _points_gradient),
    (oracle, "gradient_via_averaged_q", "oracle.gradient_via_averaged_q", _points_gradient),
]


@contextmanager
def installed(tracer: Tracer, models: list[FactoredNmarlModel]) -> Iterator[Tracer]:
    """Swap every traced callable for its wrapper; restore all on exit.

    ``models`` are the instances whose ``batch_rewards`` attribute is traced
    too (it is per instance, not a method).
    """
    saved: list[tuple[Any, str, Any]] = []
    checks = list(verify.QUICK_CHECKS)
    try:
        for owner, attr, name, counter in TARGETS:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            hook = counter(tracer) if counter is not None else None
            setattr(owner, attr, tracer.wrap(name, original, hook))
        for m in models:
            if m.batch_rewards is not None:
                saved.append((m, "batch_rewards", m.batch_rewards))
                m.batch_rewards = tracer.wrap("model.batch_rewards", m.batch_rewards)
        verify.QUICK_CHECKS[:] = [
            (name, tracer.wrap(f"verify.{name}", fn)) for name, fn in checks
        ]
        yield tracer
    finally:
        verify.QUICK_CHECKS[:] = checks
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
