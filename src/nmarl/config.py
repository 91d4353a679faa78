"""Run-configuration schema: strict parsing of the JSON config files.

The constructors are the schema: each block's keys, scalar types and
defaults are the parameters of the constructor it feeds (:func:`construct`).
A rejected value raises :class:`ConfigError`, or the domain error of the
constructor that refused it, and the CLI exits 2 on either before any run.
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from . import netgraph
from .envs import PathPlanningSpec, PathStructure, build_path_env, build_power_env
from .errors import ConfigError
from .model import FactoredNmarlModel
from .trainer import DscpConfig

# Parameters with these annotations must hold exactly that JSON scalar type.
_SCALARS = {"int": int, "float": float, "bool": bool, "str": str}
# DscpConfig fields that the dscp block holds under "lr" and "mixing" only.
_NESTED = {"lr": {"eta0", "t0", "form"}, "mixing": {"self_weight", "neighbor_weight_total"}}
_LR_FORM = "eta0/(t+t0)"


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
        ov = self.env_overrides
        if self.env_name == "path_planning":
            layout = inspect.signature(PathStructure).parameters
            ps = construct(PathStructure, {k: ov[k] for k in ov if k in layout}, "env.overrides")
            spec = construct(
                PathPlanningSpec, {k: ov[k] for k in ov if k not in layout}, "env.overrides",
                n=self.graph.n,
            )
            return build_path_env(spec, ps, self.graph)
        if self.env_name == "power_control":
            return construct(build_power_env, ov, "env.overrides", comm=self.graph)
        raise ConfigError(f"unknown environment {self.env_name!r}")


def construct(target: Callable[..., Any], values: Any, where: str, **given: Any) -> Any:
    """``target(**values, **given)`` for the JSON object ``values`` of block ``where``.

    The keys are ``target``'s parameters other than the ``given`` ones. A
    parameter annotated ``int``, ``float``, ``bool`` or ``str`` must hold that
    JSON type; a bool is not an int, an int for a float becomes a float, and
    a float must be finite. ``target``'s ``TypeError`` and ``ValueError``
    become a :class:`ConfigError` naming ``where``.
    """
    if not isinstance(values, dict):
        raise ConfigError(f"{where} must be an object, got {values!r}")
    params = inspect.signature(target).parameters
    _require_keys(values, set(params) - set(given), where)
    for key, value in values.items():
        kind = _SCALARS.get(params[key].annotation)
        if kind is not None:
            accepted = (int, float) if kind is float else kind
            if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
                raise ConfigError(f"{where}: {key} must be a JSON {kind.__name__}, got {value!r}")
            if kind is float and not math.isfinite(value):
                raise ConfigError(f"{where}: {key} must be finite, got {value!r}")
        given[key] = value if kind is None else kind(value)
    try:
        return target(**given)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def check_seeds(seeds: Any) -> list[int]:
    """``seeds`` if it is a non-empty list of distinct nonnegative integers.

    A repeated seed would train the same run twice into one output file and
    count it twice in a sweep's mean.
    """
    if not isinstance(seeds, list) or not seeds or not all(
        isinstance(s, int) and not isinstance(s, bool) and s >= 0 for s in seeds
    ):
        raise ConfigError(f"seeds must be a non-empty list of nonnegative integers, got {seeds!r}")
    repeated = sorted({s for s in seeds if seeds.count(s) > 1})
    if repeated:
        raise ConfigError(f"seeds must be distinct, got {seeds!r} (repeated: {repeated})")
    return seeds


def _dscp_values(dscp: Any) -> dict:
    """The dscp block with its ``lr`` and ``mixing`` objects merged in."""
    if not isinstance(dscp, dict):
        raise ConfigError(f"dscp block must be an object, got {dscp!r}")
    _require_keys(dscp, set(dscp) - set().union(*_NESTED.values()), "dscp block")
    flat = dict(dscp)
    for block, keys in _NESTED.items():
        nested = flat.pop(block, {})
        if not isinstance(nested, dict):
            raise ConfigError(f"dscp.{block} must be an object, got {nested!r}")
        _require_keys(nested, keys, f"dscp.{block}")
        flat.update(nested)
    if flat.pop("form", _LR_FORM) != _LR_FORM:
        raise ConfigError(f"unsupported learning-rate form {dscp['lr']['form']!r}")
    return flat


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

    graph = None
    if "graph" in obj:
        graph = construct(netgraph.build_graph, obj["graph"], "graph block")
    elif env_name == "path_planning":
        starts = env_overrides.get("starts", PathPlanningSpec.starts)
        if not isinstance(starts, list | tuple):
            raise ConfigError(f"env.overrides: starts must be a list, got {starts!r}")
        graph = netgraph.ring_graph(len(starts))

    dscp = construct(DscpConfig, _dscp_values(obj.get("dscp", {})), "dscp block")

    return RunConfig(
        env_name=env_name,
        env_overrides=env_overrides,
        graph=graph,
        dscp=dscp,
        seeds=check_seeds(obj.get("seeds", [dscp.seed])),
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
