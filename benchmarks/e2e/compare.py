"""Compare two sets of end-to-end benchmark runs against the bounds.

    python3 benchmarks/e2e/compare.py A/*.json B/*.json
    python3 benchmarks/e2e/compare.py A B

Arguments are result documents written by ``run.py --out`` (one per
workload and run), or directories holding them. Files are grouped by
directory: the first directory is side A (the parent), the second side
B (the change). Traced-pass documents are ignored.

For every (workload, end-to-end metric) it prints each side's median,
quartiles and run count, B's change against A in the metric's worse
direction, and a verdict using the bounds in ``BENCHMARK.json``:

* ``regressed`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — not regressed, but the quartile spread of either
  side is wider than the bound, and not every run of B is better than
  every run of A (or a side has no value);
* ``ok`` — otherwise.

Exits 1 when any pair regressed, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from stats import spread, summarize

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_bounds() -> Dict[str, Dict]:
    with open(BENCHMARK) as f:
        return {m["name"]: m for m in json.load(f)["end_to_end"]}


def group_by_directory(args: Sequence[str]) -> List[List[Path]]:
    """Result files grouped by directory, in argument order."""
    groups: Dict[Path, List[Path]] = {}
    for arg in args:
        path = Path(arg)
        files = sorted(path.glob("*.json")) if path.is_dir() else [path]
        for f in files:
            groups.setdefault(f.parent.resolve(), []).append(f)
    return list(groups.values())


def load_side(files: Sequence[Path]) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> values, over every untraced run."""
    side: Dict[str, Dict[str, List[float]]] = {}
    for f in files:
        with open(f) as fh:
            doc = json.load(fh)
        if doc.get("trace") or "metrics" not in doc:
            continue
        metrics = side.setdefault(doc["workload"], {})
        for name, m in doc["metrics"].items():
            if m.get("value") is not None:
                metrics.setdefault(name, []).append(float(m["value"]))
    return side


def verdict(
    a: Sequence[float], b: Sequence[float], better: str, bound: float
) -> Tuple[Optional[float], str]:
    """(B's median change against A's, in the worse direction; verdict)."""
    if not a or not b:
        return None, "unresolved"
    sign = 1.0 if better == "lower" else -1.0
    ma, mb = summarize(a)["median"], summarize(b)["median"]
    worse = sign * (mb - ma) / abs(ma) if ma else 0.0
    if worse > bound:
        return worse, "regressed"
    every_b_better = all(sign * (y - x) < 0 for x in a for y in b)
    if max(spread(a), spread(b)) > bound and not every_b_better:
        return worse, "unresolved"
    return worse, "ok"


def _cell(values: Sequence[float]) -> str:
    if not values:
        return "-"
    s = summarize(values)
    return (f"{s['median']:.5g} [{s['p25']:.5g}, {s['p75']:.5g}] "
            f"n={s['n']}")


def compare(side_a, side_b, bounds) -> List[Dict[str, object]]:
    rows = []
    for workload in sorted(set(side_a) | set(side_b)):
        for name, spec in bounds.items():
            a = side_a.get(workload, {}).get(name, [])
            b = side_b.get(workload, {}).get(name, [])
            worse, result = verdict(a, b, spec["better"], spec["bound"])
            rows.append({
                "workload": workload, "metric": name, "a": a, "b": b,
                "worse_by": worse, "bound": spec["bound"], "verdict": result,
            })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
    )
    parser.add_argument("results", nargs="+",
                        help="result JSON files or directories, A then B")
    args = parser.parse_args(argv)
    groups = group_by_directory(args.results)
    if len(groups) != 2:
        print(f"error: need results from exactly two directories, got "
              f"{len(groups)}", file=sys.stderr)
        return 2
    rows = compare(
        load_side(groups[0]), load_side(groups[1]), load_bounds()
    )
    print(f"A: {groups[0][0].parent}\nB: {groups[1][0].parent}")
    print(f"{'workload':<16} {'metric':<20} {'A median [q1, q3]':<38} "
          f"{'B median [q1, q3]':<38} {'worse by':>9} {'bound':>6}  verdict")
    for r in rows:
        worse = "-" if r["worse_by"] is None else f"{r['worse_by']:+.1%}"
        print(f"{r['workload']:<16} {r['metric']:<20} {_cell(r['a']):<38} "
              f"{_cell(r['b']):<38} {worse:>9} {r['bound']:>6.0%}  "
              f"{r['verdict']}")
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
