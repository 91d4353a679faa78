"""Config-driven command line: train, verify, sweep, eval.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 runtime invariant violation (an analytic bound, a push-sum invariant, or
a training state that turned non-finite).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import IO, Iterator

import numpy as np

from . import __version__, verify
from .config import check_seeds, construct, load_config
from .errors import (
    BoundViolated,
    ConfigError,
    DimensionMismatch,
    NmarlError,
    NonFiniteState,
    ProtocolInvariantError,
)
from .model import FactoredNmarlModel
from .policy import CoupledSoftmaxPolicy, MixingSpec
from .trainer import DscpConfig, evaluate_policy, run_dscp

log = logging.getLogger("nmarl")


def build_identifier() -> str:
    """Best-effort build id: git describe, else the package version."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    return f"nmarl-{__version__}"


@contextmanager
def atomic_write(path: Path) -> Iterator[IO[str]]:
    """A text file that replaces ``path`` only once it is fully written.

    Writes a temporary file next to ``path``, then renames it over ``path``
    with ``os.replace``; if the write fails, the temporary file is removed
    and ``path`` keeps its previous content.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fp:
            yield fp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_text(path: Path, text: str) -> None:
    with atomic_write(path) as fp:
        fp.write(text)


def _write_checkpoint(
    path: Path, theta: np.ndarray, cfg: DscpConfig, model: FactoredNmarlModel
) -> None:
    payload = {
        "n": int(theta.shape[0]),
        "d": int(theta.shape[1]),
        "n_states": model.n_states,
        "n_actions": model.n_actions,
        "kappa_p": cfg.kappa_p,
        "mixing": {
            "self_weight": cfg.self_weight,
            "neighbor_weight_total": cfg.neighbor_weight_total,
        },
        "params": theta.tolist(),
    }
    _write_text(path, json.dumps(payload))


def _train_one(model: FactoredNmarlModel, cfg: DscpConfig, out: Path) -> dict:
    started = time.perf_counter()
    theta, record = run_dscp(model, model.graph, cfg)
    wall_s = time.perf_counter() - started
    csv_path = out / f"metrics_seed{cfg.seed}.csv"
    with atomic_write(csv_path) as fp:
        record.write_csv(fp, include_wall_time=cfg.record_wall_time)
    _write_checkpoint(out / f"checkpoint_seed{cfg.seed}.json", theta, cfg, model)
    final = record.final_eval()
    last = record.rows[-1]
    return {
        "seed": cfg.seed,
        "iterations": cfg.iterations,
        "final_J": None if final is None else final.j_est,
        "final_J_se": None if final is None else final.j_se,
        "final_consensus_err": last.consensus_err,
        "wall_s": round(wall_s, 3),
        "metrics_csv": csv_path.name,
    }


def cmd_train(args: argparse.Namespace) -> int:
    run = load_config(args.config, args.set)
    if args.seed is not None:
        run.seeds = check_seeds([args.seed])
    model = run.build_model()
    out = Path(args.out or run.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results = [_train_one(model, replace(run.dscp, seed=seed), out) for seed in run.seeds]
    summary = {"config": run.raw, "build": build_identifier(), "results": results}
    _write_text(out / "summary.json", json.dumps(summary, indent=1))
    log.info("wrote %s", out / "summary.json")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    run = load_config(args.config, args.set)
    kappas = args.kappa_p
    repeated = sorted({k for k in kappas if kappas.count(k) > 1})
    if repeated:
        raise ConfigError(
            f"--kappa-p lists {repeated} more than once; each value trains into its own kp<k>/"
        )
    seeds = run.seeds if args.seed is None else check_seeds([args.seed])
    configs = [replace(run.dscp, kappa_p=kappa) for kappa in kappas]  # each validated
    model = run.build_model()
    out = Path(args.out or run.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    aggregate = {}
    for kappa, cfg in zip(kappas, configs):
        sub = out / f"kp{kappa}"
        sub.mkdir(exist_ok=True)
        per_seed = [_train_one(model, replace(cfg, seed=seed), sub) for seed in seeds]
        finals = [r["final_J"] for r in per_seed if r["final_J"] is not None]
        aggregate[str(kappa)] = {
            "mean_final_J": None if not finals else float(np.mean(finals)),
            "per_seed": per_seed,
        }
    # ordering report over seeds shared by all kappa values
    order = {
        k: aggregate[str(k)]["mean_final_J"]
        for k in kappas
        if aggregate[str(k)]["mean_final_J"] is not None
    }
    payload = {
        "config": run.raw,
        "build": build_identifier(),
        "kappa_p": aggregate,
        "mean_final_J_by_kappa": order,
    }
    _write_text(out / "sweep.json", json.dumps(payload, indent=1))
    log.info("wrote %s", out / "sweep.json")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    if args.episodes < 1:
        raise ConfigError(f"episodes must be positive, got {args.episodes}")
    run = load_config(args.config, args.set)
    seed = run.dscp.seed if args.seed is None else check_seeds([args.seed])[0]
    try:
        ckpt = json.loads(Path(args.checkpoint).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read checkpoint {args.checkpoint}: {exc}") from exc
    try:
        theta = np.asarray(ckpt["params"], dtype=float)
        if not np.all(np.isfinite(theta)):
            raise ValueError("parameters are not finite")
        block = {**ckpt["mixing"], "kappa_p": ckpt["kappa_p"]}
        # MixingSpec's defaults would fill a missing weight and evaluate another policy
        missing = sorted({"self_weight", "neighbor_weight_total"} - block.keys())
        if missing:
            raise ValueError(f"mixing block lacks {', '.join(missing)}")
        mixing = construct(MixingSpec, block, "checkpoint mixing")
        space = (ckpt["n_states"], ckpt["n_actions"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed checkpoint {args.checkpoint}: {exc!r}") from exc
    model = run.build_model()
    if space != (model.n_states, model.n_actions):
        raise DimensionMismatch(
            f"checkpoint space (n_states, n_actions) = {space}, "
            f"the configured environment has {(model.n_states, model.n_actions)}"
        )
    expected = (model.n, model.n_states * model.n_actions)
    if theta.shape != expected:
        raise DimensionMismatch(
            f"checkpoint parameters have shape {theta.shape}, "
            f"the configured environment needs {expected}"
        )
    pol = CoupledSoftmaxPolicy(model.graph, model.n_states, model.n_actions, mixing)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    j, se = evaluate_policy(
        model, pol, theta, args.episodes, rng,
        method=run.dscp.eval_method, horizon_eps=run.dscp.eval_horizon_eps,
    )
    print(json.dumps({"J": j, "se": se, "episodes": args.episodes}))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    report = verify.run_suite(args.level)
    text = json.dumps(report, indent=1)
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        _write_text(Path(args.out) / "verify.json", text)
    print(text)
    return 0 if report["pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmarl",
        description="Train and verify coupled softmax policies on networked models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="JSON run configuration")
    common.add_argument("--seed", type=int, default=None, help="override the seed list")
    common.add_argument("--out", default=None, help="output directory")
    common.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="config override, dotted path (repeatable)",
    )

    p_train = sub.add_parser("train", parents=[common], help="run training per seed")
    p_train.set_defaults(fn=cmd_train)

    p_sweep = sub.add_parser("sweep", parents=[common], help="train across coupling radii")
    p_sweep.add_argument(
        "--kappa-p", dest="kappa_p", type=int, nargs="+", required=True,
        help="coupling radii to sweep",
    )
    p_sweep.set_defaults(fn=cmd_sweep)

    p_eval = sub.add_parser("eval", parents=[common], help="evaluate a checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--episodes", type=int, required=True)
    p_eval.set_defaults(fn=cmd_eval)

    p_verify = sub.add_parser("verify", help="run the oracle-backed check suite")
    p_verify.add_argument("--level", choices=["quick", "full"], default="quick")
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(fn=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=os.environ.get("NMARL_LOG", "WARNING").upper())
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (BoundViolated, NonFiniteState, ProtocolInvariantError) as exc:
        log.error("runtime invariant violated: %s", exc)
        return 3
    except (ConfigError, DimensionMismatch) as exc:
        log.error("configuration error: %s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NmarlError as exc:
        log.error("failed: %s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
