"""Compare two sets of benchmark records, metric by metric and workload by workload.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the records ``run.py --out DIR`` writes, one per run
(untraced records only are compared). For every workload and metric the table
gives both sides' median and quartiles, each side's spread (quartile distance
over median) and a verdict:

* ``better`` -- the new side wins at least nine in ten seed-paired runs and
  its median beats the base median by more than the base quartile distance;
* ``worse`` -- the new median is worse than the base median by more than the
  metric's bound;
* ``unresolved`` -- neither. The ``ok`` column then says whether the new
  median is within the bound and both spreads are below it (no regression),
  or not (``spread``: the runs are too noisy to tell).

Bounds come from ``BENCHMARK.json`` for the declared end-to-end metrics and
from the records for the workload-specific ones. Exits 1 if any verdict is
``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(directory: Path) -> dict[str, dict[int, dict]]:
    """Untraced records by workload and seed."""
    out: dict[str, dict[int, dict]] = {}
    for path in sorted(directory.glob("*.json")):
        rec = json.loads(path.read_text())
        if rec.get("trace") == 0:
            out.setdefault(rec["workload"], {})[rec["seed"]] = rec
    return out


def metric_specs(records: list[dict], declared: dict[str, dict]) -> dict[str, dict]:
    specs = dict(declared)
    for rec in records:
        for name, m in rec.get("detail", {}).items():
            specs.setdefault(name, m)
    return specs


def value(rec: dict, name: str) -> float | None:
    m = rec["metrics"].get(name) or rec.get("detail", {}).get(name)
    return None if m is None else float(m["value"])


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(base: dict[int, float], new: dict[int, float], better: str, bound: float) -> dict:
    b = sorted(base.values())
    n = sorted(new.values())
    bq1, bmed, bq3 = quartiles(b)
    nq1, nmed, nq3 = quartiles(n)
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (nmed - bmed)
    pairs = [(base[s], new[s]) for s in base if s in new]
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    spread_b = (bq3 - bq1) / bmed if bmed else float("inf")
    spread_n = (nq3 - nq1) / nmed if nmed else float("inf")
    if -gain > bound * abs(bmed):
        v = "worse"
    elif pairs and wins >= 0.9 * len(pairs) and gain > bq3 - bq1:
        v = "better"
    else:
        v = "unresolved"
    ok = v != "worse" and spread_b <= bound and spread_n <= bound
    return {
        "base": (bq1, bmed, bq3), "new": (nq1, nmed, nq3),
        "spread_base": spread_b, "spread_new": spread_n,
        "wins": f"{wins}/{len(pairs)}", "verdict": v, "ok": ok,
    }


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base_dir, new_dir = (Path(a) for a in argv)
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"]}
    base, new = load(base_dir), load(new_dir)
    any_worse = False
    header = f"{'workload':<14} {'metric':<22} {'base q1/med/q3':<30} {'new q1/med/q3':<30} " \
             f"{'spread b/n':<13} {'bound':<6} {'wins':<6} verdict"
    print(header)
    for workload in sorted(set(base) & set(new)):
        recs = [*base[workload].values(), *new[workload].values()]
        for name, m in metric_specs(recs, declared).items():
            bvals = {s: v for s, r in base[workload].items() if (v := value(r, name)) is not None}
            nvals = {s: v for s, r in new[workload].items() if (v := value(r, name)) is not None}
            if not bvals or not nvals:
                continue
            r = verdict(bvals, nvals, m["better"], m["bound"])
            any_worse |= r["verdict"] == "worse"
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)  # noqa: E731
            tail = r["verdict"] if r["verdict"] != "unresolved" else (
                "unresolved (ok)" if r["ok"] else "unresolved (spread)")
            print(
                f"{workload:<14} {name:<22} {fmt(r['base']):<30} {fmt(r['new']):<30} "
                f"{r['spread_base']:.3f}/{r['spread_new']:.3f}  {m['bound']:<6} {r['wins']:<6} {tail}"
            )
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
