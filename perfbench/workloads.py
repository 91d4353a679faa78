"""The benchmark's three workloads and the output checks on their results.

A workload is a fixed list of *units*: single calls into the package's public
functions (one ``run_dscp`` run, one ``evaluate_policy`` call, one oracle
computation). All inputs (run seeds, parameters) are drawn from the workload
seed, so the same seed gives the same inputs. The runner calls the units
round-robin until its time is up, so every unit is timed several times on the
same input; each repeat must reproduce the first one's output digest. Every
call goes through its module attribute (``trainer.run_dscp``,
``oracle.exact_objective``, ...) so that the traced run's wrappers see it.

Why these three:

* ``pp_sweep`` -- the paper-facing kappa_p comparison on the shipped
  path-planning config (n=10 ring, vectorized reward), several seeds per
  kappa_p. Time goes to the single-episode rollouts and the per-agent
  gradient loop, which grows with kappa_p; push-sum runs at kappa_p >= 1 and
  is bypassed at 0. Many short runs, which is where a lockstep multi-run
  trainer would show.
* ``pc_single`` -- the shipped power-control config (n=3 path, no batched
  reward), one run per kappa_p. Monte-Carlo evaluation falls back to one
  scalar reward call per episode and step, so the batched-evaluation form of
  the simulation step dominates, while the gradient loop and push-sum are
  cheap.
* ``verify_oracle`` -- ``verify`` quick plus the exact oracle on the shipped
  power-control model. It never trains; the training workloads never touch
  the oracle, so an oracle change should move only this workload.
"""

from __future__ import annotations

import hashlib
import io
import time
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable

import numpy as np

from nmarl import config, oracle, trainer, verify
from nmarl.model import FactoredNmarlModel
from nmarl.policy import CoupledSoftmaxPolicy

PP_CONFIG = "configs/path_planning.json"
PC_CONFIG = "configs/power_control.json"
KAPPAS = (0, 1, 2)
ORACLE_KAPPAS = (1, 2)

# Runs are far shorter than the shipped 20000 / 5000 iterations so that every
# unit is repeated several times within one measured run (run.py says why
# repeats matter). The shipped eval settings (cadence, episodes, method) are
# kept, so a run still evaluates at its first and last iteration: evaluation
# is ~15% of a path-planning run here (~2% at the shipped length) and ~80% of
# a power-control run (~50%).
PP_ITERATIONS = 300
PP_SEEDS = 2  # runs per kappa_p
PP_EVAL_CALLS = 2
PC_ITERATIONS = 200
PC_SEEDS = 1
PC_EVAL_CALLS = 1

# Output-check tolerances, the ones ``verify`` applies.
FORM_TOL = 1e-6
FD_REL_TOL = 1e-4


def derived_seed(workload_seed: int, *labels: int) -> int:
    """A seed drawn from the workload seed and fixed labels."""
    return int(np.random.SeedSequence([workload_seed, *labels]).generate_state(1)[0])


def prepare(config_path: str) -> tuple[config.RunConfig, FactoredNmarlModel, dict[str, float]]:
    """Load a config and build its model, finishing the model's lazy set-up.

    Returns the run config, the model and the seconds each step took.
    """
    t0 = time.perf_counter()
    run = config.load_config(config_path)
    t1 = time.perf_counter()
    model = run.build_model()
    t2 = time.perf_counter()
    model.validate()  # enumerates the reward domain for the reward bound
    model.stacked_kernel_cum()
    t3 = time.perf_counter()
    return run, model, {"load_config": t1 - t0, "build_model": t2 - t1, "lazy": t3 - t2}


@dataclass
class Unit:
    """One timed call with its output check and output digest."""

    label: str  # unique within the workload
    kind: str  # what its time feeds: "run.kp<k>", "eval", "verify" or "oracle"
    work: int  # iterations of a run, episodes of an evaluation, else 0
    call: Callable[[], Any]
    check: Callable[[Any], str | None]  # a problem description, or None
    digest: Callable[[Any], str]


class Ledger:
    """Counts operations attempted and the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def attempt(
        self, label: str, fn: Callable[[], Any], check: Callable[[Any], str | None]
    ) -> tuple[Any, float]:
        """Time one operation; count it failed if it raises or its check objects.

        Returns the result (``None`` if it raised) and its wall seconds; the
        check runs outside the timed region.
        """
        self.attempted += 1
        started = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failures.append(f"{label}: raised {type(exc).__name__}: {exc}")
            return None, time.perf_counter() - started
        elapsed = time.perf_counter() - started
        problem = check(out)
        if problem:
            self.failures.append(f"{label}: {problem}")
        return out, elapsed


def sha(*arrays: Any) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=float)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def run_digest(out: tuple[np.ndarray, trainer.TrainRecord]) -> str:
    """sha256 of a run's metrics CSV (without wall times) and its final theta."""
    theta, record = out
    buf = io.StringIO()
    record.write_csv(buf)
    return hashlib.sha256(buf.getvalue().encode() + sha(theta).encode()).hexdigest()


def _j_problem(values: list[float], limit: float) -> str | None:
    for j in values:
        if not np.isfinite(j) or abs(j) > limit:
            return f"J estimate {j!r} outside +-{limit:.6g}"
    return None


class Workload:
    def __init__(self, config_path: str) -> None:
        self.config_path = config_path
        self.run, self.model, _ = prepare(config_path)
        self.graph = self.run.graph or self.model.graph
        # |J| <= max |r| / (1 - gamma) for every policy.
        self.j_limit = self.model.reward_bound / (1.0 - self.model.gamma)

    def policy(self, kappa_p: int) -> CoupledSoftmaxPolicy:
        m = self.model
        return CoupledSoftmaxPolicy(
            self.graph, m.state_sizes[0], m.action_sizes[0],
            replace(self.run.dscp, kappa_p=kappa_p).mixing(),
        )

    def units(self, workload_seed: int) -> list[Unit]:
        raise NotImplementedError


class TrainingWorkload(Workload):
    """``run_dscp`` at every kappa_p for a few seeds, plus direct evaluations."""

    def __init__(self, config_path: str, iterations: int, seeds: int, eval_calls: int) -> None:
        super().__init__(config_path)
        self.iterations = iterations
        self.seeds = seeds
        self.eval_calls = eval_calls
        # Fills the khop cache and numpy's first-call paths outside any timing.
        for kp in KAPPAS:
            trainer.run_dscp(self.model, self.graph, self._cfg(kp, 0, 3))

    def _cfg(self, kappa_p: int, seed: int, iterations: int) -> trainer.DscpConfig:
        return replace(self.run.dscp, iterations=iterations, kappa_p=kappa_p, seed=seed)

    def _check_run(self, out: tuple[np.ndarray, trainer.TrainRecord]) -> str | None:
        theta, record = out
        if not np.all(np.isfinite(theta)):
            return "final theta is not finite"
        return _j_problem([r.j_est for r in record.rows if r.j_est is not None], self.j_limit)

    def _check_eval(self, je: tuple[float, float]) -> str | None:
        return _j_problem([je[0]], self.j_limit)

    # Units look their callee up at call time, so traced runs see the wrappers.
    def _train(self, cfg: trainer.DscpConfig) -> tuple[np.ndarray, trainer.TrainRecord]:
        return trainer.run_dscp(self.model, self.graph, cfg)

    def _evaluate(self, pol: CoupledSoftmaxPolicy, params: np.ndarray, seed: int) -> tuple[float, float]:
        dscp = self.run.dscp
        return trainer.evaluate_policy(
            self.model, pol, params, dscp.eval_episodes, np.random.default_rng(seed),
            method=dscp.eval_method, horizon_eps=dscp.eval_horizon_eps,
        )

    def units(self, workload_seed: int) -> list[Unit]:
        out = []
        for s in range(self.seeds):
            seed = derived_seed(workload_seed, 0, s)
            for kp in KAPPAS:
                out.append(Unit(
                    label=f"run_dscp kappa_p={kp} seed={seed}",
                    kind=f"run.kp{kp}",
                    work=self.iterations,
                    call=partial(self._train, self._cfg(kp, seed, self.iterations)),
                    check=self._check_run,
                    digest=run_digest,
                ))
        # The shipped kappa_p = 1 policy at parameters drawn from the seed;
        # evaluation cost does not depend on the parameter values.
        pol = self.policy(1)
        for k in range(self.eval_calls):
            params = np.random.default_rng(derived_seed(workload_seed, 1, k)).normal(size=(self.model.n, pol.d))
            out.append(Unit(
                label=f"evaluate_policy call {k}",
                kind="eval",
                work=self.run.dscp.eval_episodes,
                call=partial(self._evaluate, pol, params, derived_seed(workload_seed, 2, k)),
                check=self._check_eval,
                digest=lambda je: sha(je),
            ))
        return out


class OracleWorkload(Workload):
    """``verify`` quick, then the exact oracle at kappa_p in {1, 2}.

    At each kappa_p: the exact objective, both gradient forms for every agent
    and the finite-difference gradient of agent 0, at parameters drawn
    uniformly from [-1, 1] (the range ``verify`` uses).
    """

    def __init__(self) -> None:
        super().__init__(PC_CONFIG)

    def units(self, workload_seed: int) -> list[Unit]:
        m = self.model
        out = [Unit(
            label="verify quick", kind="verify", work=0,
            call=_verify_quick,
            check=_verify_problem,
            digest=lambda report: hashlib.sha256(repr(report).encode()).hexdigest(),
        )]
        for kp in ORACLE_KAPPAS:
            pol = self.policy(kp)
            theta = np.random.default_rng(derived_seed(workload_seed, 3, kp)).uniform(-1.0, 1.0, size=(m.n, pol.d))
            # Reference for the finite-difference check, computed before any timing.
            g0 = oracle.gradient_via_local_q(m, pol, theta, 0)
            out.append(Unit(
                label=f"exact_objective kappa_p={kp}", kind="oracle", work=0,
                call=partial(_objective, m, pol, theta),
                check=lambda j: _j_problem([j], self.j_limit),
                digest=lambda j: sha(j),
            ))
            for i in range(m.n):
                out.append(Unit(
                    label=f"gradient forms agent {i} kappa_p={kp}", kind="oracle", work=0,
                    call=partial(_gradient_forms, m, pol, theta, i),
                    check=_form_problem,
                    digest=lambda pair: sha(*pair),
                ))
            out.append(Unit(
                label=f"finite_difference_gradient agent 0 kappa_p={kp}", kind="oracle", work=0,
                call=partial(_finite_difference, m, pol, theta),
                check=partial(_fd_problem, g0),
                digest=lambda fd: sha(fd),
            ))
        return out


def _verify_quick() -> dict:
    return verify.run_suite("quick")


def _finite_difference(m: FactoredNmarlModel, pol: CoupledSoftmaxPolicy, theta: np.ndarray) -> np.ndarray:
    return oracle.finite_difference_gradient(m, pol, theta, 0)


def _objective(m: FactoredNmarlModel, pol: CoupledSoftmaxPolicy, theta: np.ndarray) -> float:
    return oracle.exact_objective(m, pol.prob_tables(theta))


def _gradient_forms(
    m: FactoredNmarlModel, pol: CoupledSoftmaxPolicy, theta: np.ndarray, i: int
) -> tuple[np.ndarray, np.ndarray]:
    return oracle.gradient_via_local_q(m, pol, theta, i), oracle.gradient_via_averaged_q(m, pol, theta, i)


def _verify_problem(report: dict) -> str | None:
    bad = [c["name"] for c in report["checks"] if not c["pass"]]
    return f"verify quick failed: {bad}" if bad else None


def _form_problem(pair: tuple[np.ndarray, np.ndarray]) -> str | None:
    gap = float(np.max(np.abs(pair[0] - pair[1])))
    return None if gap <= FORM_TOL else f"gradient forms differ by {gap:.3e}"


def _fd_problem(g: np.ndarray, fd: np.ndarray) -> str | None:
    # verify's relative gap: |fd - g| / max(|g|, 1e-4), elementwise.
    rel = float(np.max(np.abs(fd - g) / np.maximum(np.abs(g), 1e-4)))
    return None if rel <= FD_REL_TOL else f"finite difference off by {rel:.3e} relative"


WORKLOADS: dict[str, Callable[[], Workload]] = {
    "pp_sweep": lambda: TrainingWorkload(PP_CONFIG, PP_ITERATIONS, PP_SEEDS, PP_EVAL_CALLS),
    "pc_single": lambda: TrainingWorkload(PC_CONFIG, PC_ITERATIONS, PC_SEEDS, PC_EVAL_CALLS),
    "verify_oracle": OracleWorkload,
}
