"""Compare benchmark runs of two commits, one row per workload and metric.

Usage:

    python3 perfbench/compare.py BASE_DIR HEAD_DIR

Each directory holds the run records that perfbench/run.py writes to
``.perfbench_out/`` (``<workload>-seed<n>-trace<t>.json``); copy that
directory aside after running each commit with the same seeds.  Runs of
the two sides with the same workload, trace setting and seed form a pair.

Verdicts:

* ``better``: the head wins at least nine tenths of the pairs (ties count
  for neither side) and the medians differ by more than the distance
  between the base's quartiles;
* ``worse``: the head's median is worse than the base's by more than the
  metric's bound in BENCHMARK.json (per-layer metrics have no bound and
  use the ``better`` rule in the other direction);
* ``unresolved``: anything else.  The note says whether the change stayed
  within the bound or the base's spread is wider than the bound, in which
  case only a head that beats every base run counts as better.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import statistics
import sys

_NAME = re.compile(r"(?P<workload>.+)-seed(?P<seed>-?\d+)-trace(?P<trace>[01])\.json$")


def load_runs(directory: str) -> dict[tuple[str, int], dict[int, dict]]:
    """(workload, trace) -> seed -> metric values, plus failed_share."""
    runs: dict[tuple[str, int], dict[int, dict]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        match = _NAME.search(os.path.basename(path))
        if not match:
            continue
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)["result"]
        values = {name: m["value"] for name, m in result["metrics"].items()}
        values["failed_share"] = result["failed"] / result["attempted"]
        key = (match["workload"], int(match["trace"]))
        runs.setdefault(key, {})[int(match["seed"])] = values
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: dict[int, float], head: dict[int, float], lower_is_better: bool,
            bound: float | None) -> tuple[str, str]:
    """(verdict, note) for one metric on one workload."""
    sign = -1.0 if lower_is_better else 1.0
    b_q1, b_med, b_q3 = quartiles(list(base.values()))
    _, h_med, _ = quartiles(list(head.values()))
    seeds = sorted(set(base) & set(head))
    spread = b_q3 - b_q1

    def gain(direction: float) -> bool:
        wins = sum(1 for s in seeds if direction * sign * (head[s] - base[s]) > 0)
        return bool(seeds) and wins >= 0.9 * len(seeds) and abs(h_med - b_med) > spread \
            and direction * sign * (h_med - b_med) > 0

    if bound is None:
        if gain(1.0):
            return "better", f"{len(seeds)} pairs"
        if gain(-1.0):
            return "worse", f"{len(seeds)} pairs"
        return "unresolved", f"{len(seeds)} pairs"

    scale = abs(b_med) if b_med else 1.0
    if spread / scale > bound:
        if all(sign * (h - b) > 0 for h in head.values() for b in base.values()):
            return "better", "every head run beats every base run"
        return "unresolved", f"base spread {spread / scale:.3f} wider than bound {bound}"
    if gain(1.0):
        return "better", f"{len(seeds)} pairs"
    if -sign * (h_med - b_med) > bound * scale:
        return "worse", f"median moved {(h_med - b_med) / scale:+.3f} of base, bound {bound}"
    return "unresolved", f"within bound {bound}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--benchmark", default=os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCHMARK.json"))
    args = parser.parse_args(argv)

    with open(args.benchmark, encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    declared["failed_share"] = {"name": "failed_share", "better": "lower", "bound": 0.0}

    base_runs, head_runs = load_runs(args.base), load_runs(args.head)
    rows = []
    worse = 0
    for key in sorted(set(base_runs) & set(head_runs)):
        workload, trace = key
        base, head = base_runs[key], head_runs[key]
        names = sorted(set.intersection(*(set(v) for v in (*base.values(), *head.values()))))
        for name in names:
            meta = declared.get(name)
            if meta is None:
                continue
            b = {s: v[name] for s, v in base.items()}
            h = {s: v[name] for s, v in head.items()}
            result, note = verdict(b, h, meta["better"] == "lower", meta.get("bound"))
            worse += result == "worse"
            bq = quartiles(list(b.values()))
            hq = quartiles(list(h.values()))
            rows.append((workload, name, bq, hq, result, note))

    if not rows:
        print("no common runs to compare", file=sys.stderr)
        return 2
    print(f"{'workload':20} {'metric':26} {'base q1 / median / q3':38} {'head q1 / median / q3':38} verdict")
    for workload, name, bq, hq, result, note in rows:
        fmt = lambda q: " / ".join(f"{x:.4g}" for x in q)  # noqa: E731
        print(f"{workload:20} {name:26} {fmt(bq):38} {fmt(hq):38} {result} ({note})")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
