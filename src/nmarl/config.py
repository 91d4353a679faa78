"""Run-configuration schema: strict parsing of the JSON config files.

Unknown keys are rejected everywhere so typos fail fast, before any work.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from . import netgraph
from .envs import PathPlanningSpec, PathStructure, build_path_env, build_power_env
from .errors import ConfigError
from .model import FactoredNmarlModel
from .trainer import DscpConfig

_DSCP_KEYS = {
    "iterations": int,
    "kappa_p": int,
    "batch": int,
    "eval_every": int,
    "eval_episodes": int,
    "eval_method": str,
    "eval_horizon_eps": float,
    "direct_params": bool,
    "check_invariants": bool,
    "record_wall_time": bool,
}

_PATH_ENV_KEYS = {
    "starts", "gamma", "r_eps", "collision_weight", "terminal_zero_reward",
    "successors", "locations", "destination",
}
_POWER_ENV_KEYS = {"n", "levels", "gains", "noise", "price", "gamma", "start"}


@dataclass
class RunConfig:
    """Validated run configuration: environment, graph, trainer, outputs."""

    env_name: str
    env_overrides: dict
    graph: netgraph.AgentGraph | None
    dscp: DscpConfig
    seeds: list[int]
    out_dir: str = "runs"
    raw: dict = field(default_factory=dict)

    def build_model(self) -> FactoredNmarlModel:
        if self.env_name == "path_planning":
            ov = self.env_overrides
            spec = PathPlanningSpec(
                n=self.graph.n if self.graph else PathPlanningSpec.n,
                starts=tuple(ov.get("starts", PathPlanningSpec.starts)),
                gamma=float(ov.get("gamma", 0.9)),
                r_eps=float(ov.get("r_eps", 0.5)),
                collision_weight=float(ov.get("collision_weight", 0.5)),
                terminal_zero_reward=bool(ov.get("terminal_zero_reward", False)),
            )
            return build_path_env(spec, _path_structure(ov), self.graph)
        if self.env_name == "power_control":
            ov = self.env_overrides
            try:
                return build_power_env(
                    n=int(ov["n"]),
                    levels=int(ov["levels"]),
                    gains=ov["gains"],
                    noise=ov["noise"],
                    price=ov["price"],
                    comm=self.graph,
                    gamma=float(ov.get("gamma", 0.9)),
                    start=ov.get("start"),
                )
            except KeyError as missing:
                raise ConfigError(f"power_control override missing {missing}") from None
        raise ConfigError(f"unknown environment {self.env_name!r}")


def _path_structure(ov: dict) -> PathStructure:
    """The path structure from whichever of its three overrides are set,
    with the defaults for the rest."""
    kwargs: dict[str, Any] = {}
    if "locations" in ov:
        kwargs["locations"] = tuple(ov["locations"])
    if "successors" in ov:
        kwargs["successors"] = {k: tuple(v) for k, v in ov["successors"].items()}
    if "destination" in ov:
        kwargs["destination"] = ov["destination"]
    return PathStructure(**kwargs)


def _require_keys(obj: dict, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")


def parse_config(obj: dict, overrides: list[str] | None = None) -> RunConfig:
    """Validate a raw config dict (plus ``key=value`` override strings)."""
    if not isinstance(obj, dict):
        raise ConfigError("config root must be a JSON object")
    obj = json.loads(json.dumps(obj))  # deep copy; keeps caller's dict intact
    for item in overrides or []:
        _apply_override(obj, item)

    _require_keys(obj, {"env", "graph", "dscp", "seeds", "out_dir"}, "config root")
    env = obj.get("env")
    if not isinstance(env, dict) or "name" not in env:
        raise ConfigError("config needs an env block with a name")
    _require_keys(env, {"name", "overrides"}, "env block")
    env_name = env["name"]
    env_overrides = env.get("overrides", {})
    if not isinstance(env_overrides, dict):
        raise ConfigError("env.overrides must be an object")
    allowed = _PATH_ENV_KEYS if env_name == "path_planning" else _POWER_ENV_KEYS
    _require_keys(env_overrides, allowed, "env.overrides")

    graph = None
    if "graph" in obj:
        gobj = obj["graph"]
        _require_keys(gobj, {"n", "edges"}, "graph block")
        graph = netgraph.graph_from_json(gobj)
    elif env_name == "path_planning":
        graph = netgraph.ring_graph(
            len(env_overrides.get("starts", PathPlanningSpec.starts))
        )

    dscp_obj = dict(obj.get("dscp", {}))
    _require_keys(
        dscp_obj, set(_DSCP_KEYS) | {"lr", "mixing", "seed"}, "dscp block"
    )
    if "iterations" not in dscp_obj:
        raise ConfigError("dscp block needs an iteration count")
    lr = dscp_obj.pop("lr", {})
    _require_keys(lr, {"eta0", "t0", "form"}, "dscp.lr")
    if lr.get("form", "eta0/(t+t0)") != "eta0/(t+t0)":
        raise ConfigError(f"unsupported learning-rate form {lr.get('form')!r}")
    mixing = dscp_obj.pop("mixing", {})
    _require_keys(mixing, {"self_weight", "neighbor_weight_total"}, "dscp.mixing")

    kwargs: dict[str, Any] = {}
    for key, typ in _DSCP_KEYS.items():
        if key in dscp_obj:
            kwargs[key] = typ(dscp_obj[key])
    kwargs["seed"] = int(dscp_obj.get("seed", 0))
    if "eta0" in lr:
        kwargs["eta0"] = float(lr["eta0"])
    if "t0" in lr:
        kwargs["t0"] = float(lr["t0"])
    if "self_weight" in mixing:
        kwargs["self_weight"] = float(mixing["self_weight"])
    if "neighbor_weight_total" in mixing:
        kwargs["neighbor_weight_total"] = float(mixing["neighbor_weight_total"])
    try:
        dscp = DscpConfig(**kwargs)
        dscp.validate()
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    seeds = obj.get("seeds", [dscp.seed])
    if not isinstance(seeds, list) or not all(isinstance(s, int) for s in seeds):
        raise ConfigError("seeds must be a list of integers")

    return RunConfig(
        env_name=env_name,
        env_overrides=env_overrides,
        graph=graph,
        dscp=dscp,
        seeds=seeds,
        out_dir=str(obj.get("out_dir", "runs")),
        raw=obj,
    )


def load_config(path: str | Path, overrides: list[str] | None = None) -> RunConfig:
    try:
        with open(path) as fp:
            obj = json.load(fp)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(obj, overrides)


def _apply_override(obj: dict, item: str) -> None:
    """Apply one ``dotted.path=json_value`` override in place."""
    if "=" not in item:
        raise ConfigError(f"override {item!r} is not of the form key=value")
    path, _, value = item.partition("=")
    keys = path.strip().split(".")
    try:
        parsed = json.loads(value)
    except json.JSONDecodeError:
        parsed = value  # bare strings stay strings
    node = obj
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override path {path!r} crosses a non-object")
    node[keys[-1]] = parsed
