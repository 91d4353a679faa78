"""Benchmark runner for nmarl.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]

Run from the repository root; the package is imported from ``src/``. A closed
loop in one process and one thread (BLAS pinned to one thread): the runner
calls the workload's units (see ``workloads.py``) round-robin until ``S``
seconds have passed, checks every output, and prints one line per metric
followed by a last line of JSON with ``correct``, ``attempted``, ``failed``
and the metrics. With ``--trace 0`` those are the end-to-end metrics declared
in ``BENCHMARK.json``; with ``--trace 1`` they are the per-layer metrics of
one traced pass over the units, made after an untraced pass whose outputs it
must reproduce exactly. ``--out DIR`` also writes the full record (every
metric, timings, exact counts, output digests, machine) for ``compare.py``.

Exit codes: 0 all checks passed, 1 some check failed, 2 bad invocation or no
package to measure.
"""

import os

# Before numpy loads: one BLAS/OpenMP thread, so the loop runs on one core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SETUP_PROBES = 9

# Workload-specific end-to-end figures. They are recorded and compared by
# compare.py with these bounds, but are not in BENCHMARK.json, whose
# end-to-end metrics every workload must report.
DETAIL = {
    "run_it_per_s.kp0": ("it/s", "higher", 0.1),
    "run_it_per_s.kp1": ("it/s", "higher", 0.1),
    "run_it_per_s.kp2": ("it/s", "higher", 0.1),
    "eval_episodes_per_s": ("episodes/s", "higher", 0.1),
    "oracle_s": ("s", "lower", 0.1),
    "verify_quick_s": ("s", "lower", 0.1),
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


# Machine-speed reference. On cores shared with other tenants (as on the
# 2-vCPU machine the baseline was taken on) the same code runs up to ~1.8x
# slower while a neighbour is busy; the speed flips within fractions of a
# second and drifts over minutes. Raw times therefore spread far beyond any
# useful bound. So the runner times this fixed kernel (the package's
# inner-loop pattern: small numpy ops driven from Python) between consecutive
# calls, and scales each call's time by REF_SECONDS over the mean of the
# PROBE_WINDOW probes on either side of it.
# Every reported time is thus in seconds at the speed at which the kernel
# takes REF_SECONDS: its uncontended time on the 2-vCPU Intel Xeon the
# baseline was taken on. Raw times and probes are kept in the --out record.
REF_SECONDS = 0.0195
PROBE_WINDOW = 3
_ref_rng = np.random.default_rng(0)
_REF_CUM = np.cumsum(_ref_rng.random((10, 13, 3)), axis=2)
_REF_DRAWS = _ref_rng.random((3000, 10))


def reference_probe() -> float:
    """Seconds the reference kernel takes now."""
    started = time.perf_counter()
    idx = np.arange(10)
    state = np.zeros(10, dtype=np.intp)
    for u in _REF_DRAWS:
        acts = np.minimum((_REF_CUM[idx, state] <= u[:, None]).sum(axis=1), 2)
        state = (state + acts) % 13
    return time.perf_counter() - started


def probe_setup(config_path: str) -> list[dict]:
    """Set-up timings from ``SETUP_PROBES`` fresh interpreters, one after another.

    Each child's seconds are scaled to reference speed by the probe it took
    right after its set-up.
    """
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), config_path],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        raw = json.loads(proc.stdout.strip().splitlines()[-1])
        scale = REF_SECONDS / raw.pop("probe")
        out.append({**{k: v * scale for k, v in raw.items()}, "raw_total": raw["total"]})
    return out


def median_of(rows: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in rows)


@dataclass
class Timings:
    """Raw seconds of every call in order, and the reference probes around them.

    ``probes[i]`` ran just before call ``i`` and ``probes[i + 1]`` just after.
    """

    calls: list[tuple[str, float]]
    probes: list[float]
    digests: dict[str, str]

    def scaled(self) -> dict[str, list[float]]:
        """Per unit label, the reference-speed seconds of each of its calls."""
        out: dict[str, list[float]] = {}
        for i, (label, dt) in enumerate(self.calls):
            near = self.probes[max(0, i + 1 - PROBE_WINDOW): i + 1 + PROBE_WINDOW]
            out.setdefault(label, []).append(dt * REF_SECONDS * len(near) / sum(near))
        return out

    def total(self) -> float:
        return sum(sum(ts) for ts in self.scaled().values())


def measure(units: list, ledger, seconds: float) -> Timings:
    """Call the units round-robin, at least once each, until ``seconds`` pass.

    A repeat must reproduce the output digest of the unit's first call, else
    the repeat counts as failed.
    """
    t = Timings([], [reference_probe()], {})

    def checked(unit, out) -> str | None:
        problem = unit.check(out)
        if problem:
            return problem
        digest = t.digests.setdefault(unit.label, unit.digest(out))
        return None if unit.digest(out) == digest else "output differs from the first call's"

    started = time.perf_counter()
    while len(t.calls) < len(units) or time.perf_counter() - started < seconds:
        unit = units[len(t.calls) % len(units)]
        _, dt = ledger.attempt(unit.label, unit.call, lambda out: checked(unit, out))
        t.calls.append((unit.label, dt))
        t.probes.append(reference_probe())
    return t


def end_to_end(units: list, t: Timings, setup: list[dict]) -> tuple[dict, dict]:
    """Declared end-to-end metrics and the workload-specific detail figures.

    A unit's time is the median of its reference-speed repeats; the workload's
    time to result is the sum over its units.
    """
    med = {label: statistics.median(ts) for label, ts in t.scaled().items()}

    def of_kind(kind: str) -> list:
        return [u for u in units if u.kind == kind]

    gated = {
        "setup_s": median_of(setup, "total"),
        "wall_s": sum(med.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {}
    for kind, name in [("run.kp0", "run_it_per_s.kp0"), ("run.kp1", "run_it_per_s.kp1"),
                       ("run.kp2", "run_it_per_s.kp2"), ("eval", "eval_episodes_per_s")]:
        if of_kind(kind):
            detail[name] = statistics.median(u.work / med[u.label] for u in of_kind(kind))
    if of_kind("oracle"):
        detail["oracle_s"] = sum(med[u.label] for u in of_kind("oracle"))
    if of_kind("verify"):
        detail["verify_quick_s"] = sum(med[u.label] for u in of_kind("verify"))
    return gated, detail


def per_layer(tr, passes: int, setup: list[dict], overhead: float) -> dict:
    """Every per-layer metric, per traced pass; 0 where a layer was not called.

    Counts and totals are divided by the number of traced passes (each pass
    does the same work, so counts stay exact); per-call, per-iteration and
    per-step figures average over all of them.
    """
    iterations = tr.count("iterations")
    env_steps = tr.count("env_steps")

    def per(total: float, n: int, scale: float = 1.0) -> float:
        return total * scale / n if n else 0.0

    def calls(name: str) -> float:
        return tr.span(name).calls / passes

    def us_per_call(name: str, self_time: bool = False) -> float:
        s = tr.span(name)
        return per(s.self_ns if self_time else s.total_ns, s.calls, 1e-3)

    def ms(name: str, self_time: bool = False) -> float:
        s = tr.span(name)
        return (s.self_ns if self_time else s.total_ns) * 1e-6 / passes

    out = {
        "trainer.run_dscp.self_us_per_it": per(tr.span("trainer.run_dscp").self_ns, iterations, 1e-3),
        "trainer.evaluate_policy.ms_per_call": us_per_call("trainer.evaluate_policy") * 1e-3,
        "trainer.evaluate_policy.calls": calls("trainer.evaluate_policy"),
        "trainer.evaluate_policy.episode_steps": tr.count("eval_episode_steps") / passes,
        "estimator.rollout_two_horizon.self_us_per_call": us_per_call("estimator.rollout_two_horizon", True),
        "estimator.rollout_two_horizon.calls": calls("estimator.rollout_two_horizon"),
        "estimator.env_steps": env_steps / passes,
        "estimator.rollout.ns_per_env_step": per(tr.span("estimator.rollout_two_horizon").total_ns, env_steps),
        "estimator.gradient_estimate.self_us_per_call": us_per_call("estimator.gradient_estimate", True),
        "estimator.q_estimate.calls": calls("estimator.q_estimate"),
        "policy.prob_tables.us_per_call": us_per_call("policy.prob_tables"),
        "policy.prob_tables.calls": calls("policy.prob_tables"),
        "policy.score_sum.us_per_call": us_per_call("policy.score_sum"),
        "policy.score_sum.calls": calls("policy.score_sum"),
        "netgraph.khop.calls": calls("netgraph.khop"),
        "netgraph.khop.calls_per_it": per(tr.span("netgraph.khop").calls, iterations),
        "model.rewards.us_per_call": us_per_call("model.rewards"),
        "model.rewards.calls": calls("model.rewards"),
        "model.batch_rewards.us_per_call": us_per_call("model.batch_rewards"),
        "model.batch_rewards.calls": calls("model.batch_rewards"),
        "pushsum.mix_and_estimate.us_per_call": us_per_call("pushsum.mix_and_estimate"),
        "pushsum.inject_all.us_per_call": us_per_call("pushsum.inject_all"),
        "pushsum.consensus_error.us_per_call": us_per_call("pushsum.consensus_error"),
        "pushsum.bytes_per_it": per(tr.count("pushsum_bytes"), iterations),
        "oracle.build_restricted_chain.ms": ms("oracle.build_restricted_chain"),
        "oracle.build_restricted_chain.calls": calls("oracle.build_restricted_chain"),
        "oracle.chain_q_table.ms": ms("oracle.chain_q_table"),
        "oracle.discounted_visitation.ms": ms("oracle.discounted_visitation"),
        "oracle.gradient_via_local_q.self_ms": ms("oracle.gradient_via_local_q", True),
        "oracle.gradient_via_averaged_q.self_ms": ms("oracle.gradient_via_averaged_q", True),
        "oracle.joint_points": tr.count("oracle_joint_points") / passes,
        "config.load_config.ms": median_of(setup, "load_config") * 1e3,
        "config.build_model.ms": median_of(setup, "build_model") * 1e3,
        "trace.overhead_ratio": overhead,
    }
    for name in tr.spans:
        if name.startswith("verify."):
            out[f"{name}.ms"] = ms(name)
    return out


def machine_info() -> dict:
    info = {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": None,
        "git_rev": None,
        "source_sha256": source_digest(),
    }
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        if proc.returncode == 0:
            info["git_rev"] = proc.stdout.strip()
    return info


def source_digest() -> str:
    """sha256 over the package sources and shipped configs, path by path."""
    h = hashlib.sha256()
    for path in sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("configs/*.json")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="directory for the full JSON record")
    args = parser.parse_args(argv)

    if args.seed < 0 or args.seconds <= 0:
        return fail("--seed must be nonnegative and --seconds positive")
    src = ROOT / "src"
    if not (src / "nmarl" / "__init__.py").is_file():
        return fail(f"no nmarl package under {src}; run from the repository root")
    sys.path.insert(0, str(src))

    import nmarl
    import tracing
    import workloads

    if Path(nmarl.__file__).resolve().parent != (src / "nmarl").resolve():
        return fail(f"imported nmarl from {nmarl.__file__}, not from {src}")
    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")

    wl = workloads.WORKLOADS[args.workload]()
    setup = probe_setup(wl.config_path)
    units = wl.units(args.seed)
    ledger = workloads.Ledger()

    if args.trace:
        # Untraced and traced passes alternate until the time is up; each
        # traced pass must reproduce its untraced pass's outputs exactly (the
        # wrappers draw from no RNG and reorder nothing).
        tr = tracing.Tracer()
        ratios = []
        started = time.perf_counter()
        while not ratios or time.perf_counter() - started < args.seconds:
            base = measure(units, ledger, 0.0)
            with tracing.installed(tr, [wl.model]):
                timings = measure(units, ledger, 0.0)
            moved = sorted(k for k in base.digests if timings.digests.get(k) != base.digests[k])
            ledger.attempted += 1
            if moved:
                ledger.failures.append(f"trace guard: tracing changed the outputs of {moved}")
            ratios.append(timings.total() / base.total())
        values = per_layer(tr, len(ratios), setup, statistics.median(ratios) - 1.0)
        detail = {}
        counts = {k: v / len(ratios) for k, v in tr.counts.items()}
        units_of = declared("per_layer")
    else:
        timings = measure(units, ledger, args.seconds)
        values, detail = end_to_end(units, timings, setup)
        counts = {}
        units_of = declared("end_to_end")

    missing = set(units_of) - set(values)
    if missing:
        raise RuntimeError(f"declared metrics not computed: {sorted(missing)}")
    metrics = {name: {"value": float(values[name]), "unit": units_of[name]} for name in units_of}
    for name, m in metrics.items():
        print(f"{name:<48} {m['value']:.6g} {m['unit']}")
    for name, value in detail.items():
        print(f"{name:<48} {value:.6g} {DETAIL[name][0]}")
    print(f"{'calls per unit (fewest)':<48} {min(len(ts) for ts in timings.scaled().values())}")
    for failure in ledger.failures:
        print(f"FAILED {failure}")

    machine = machine_info()
    print("machine", json.dumps(machine))

    failed = len(ledger.failures)
    result = {
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    if args.out:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            **result,
            "detail": {
                name: {"value": v, "unit": DETAIL[name][0], "better": DETAIL[name][1], "bound": DETAIL[name][2]}
                for name, v in detail.items()
            },
            "unit_seconds": timings.scaled(),
            "calls": timings.calls,
            "probe_seconds": timings.probes,
            "setup_probes": setup,
            "counts": counts,
            "digests": timings.digests,
            "failures": ledger.failures,
            "machine": machine,
        }
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{args.workload}.seed{args.seed}.trace{args.trace}.json").write_text(
            json.dumps(record, indent=1)
        )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
