"""Schedule cache: cold tunes vs warm cache hits, through the autotuner.

Tunes a universe of (workload, shape) pairs through
``Autotuner(schedule_cache=ScheduleCache(...))`` — the path
``repro-run tune`` and elastic recovery take — and measures what the
persistent schedule cache (:mod:`repro.serve.cache`) buys:

* **cold** — every shape tuned once against an empty cache: each tune
  runs the full search and writes a record.
* **warm** — the same shapes tuned again in the same process, over
  ``WARM_PASSES`` passes: every tune must be a cache hit that
  evaluates no candidate. A hit still builds the untransformed
  program's lowering and structural hash and reads one JSON record.
  ``warm_hit_speedup`` is the cold pass's wall time over the median
  warm pass's.
* **cross-process warm** — one warm pass in a fresh interpreter over
  the same cache directory: zero searches proves persistence across
  processes.
* **fidelity** — the cached schedule, saved as an artifact, and a
  freshly tuned schedule must give the same ``repro-run run`` digest.

Emits ``BENCH_serve.json`` at the repo root, gated in CI by
``benchmarks/baselines/BENCH_serve.json``::

    PYTHONPATH=src:. python benchmarks/bench_serve.py           # full
    PYTHONPATH=src:. python benchmarks/bench_serve.py --smoke   # CI
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Tuple

sys.path.insert(0, os.path.dirname(__file__))
from _common import save_report, table  # noqa: E402

from repro.cli import build_workload  # noqa: E402
from repro.cluster import Cluster  # noqa: E402
from repro.core.artifact import Artifact  # noqa: E402
from repro.core.autotuner import Autotuner  # noqa: E402
from repro.observe.metrics import MetricsRegistry  # noqa: E402
from repro.serve import ScheduleCache  # noqa: E402

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JSON_PATH = os.path.join(_ROOT, "BENCH_serve.json")

MAX_DEPTH = 2
WARM_PASSES = 5

Shape = Tuple[str, Dict[str, int]]


def universe(smoke: bool) -> List[Shape]:
    """The (workload, parameters) pairs every pass tunes."""
    shapes: List[Shape] = [
        ("adam", {"num_elements": 2 ** k, "world_size": 4})
        for k in range(10, 16 if smoke else 20)
    ]
    shapes += [
        ("lamb", {"num_elements": 2 ** k, "world_size": 4})
        for k in (10, 12)
    ]
    if not smoke:
        shapes += [
            ("moe", {"capacity": 3, "model_dim": 6, "ffn_dim": 8,
                     "world_size": 4}),
            ("attention", {"batch": 4, "seq": 8, "hidden": 16,
                           "world_size": 4}),
        ]
    return shapes


def tune_pass(shapes: List[Shape], cache_dir: str) -> Dict:
    """Tune every shape once through the cache; time only ``tune``.

    A tune counts as a *search* unless it was a cache hit that
    evaluated no candidate.
    """
    cache = ScheduleCache(cache_dir)
    seconds = 0.0
    searches = 0
    for workload, params in shapes:
        program = build_workload(workload, params, "FP16")
        metrics = MetricsRegistry()
        tuner = Autotuner(
            Cluster(1), max_depth=MAX_DEPTH, metrics=metrics,
            schedule_cache=cache,
        )
        t0 = time.perf_counter()
        result = tuner.tune(program)
        seconds += time.perf_counter() - t0
        searches += (
            not result.cached or metrics.get("tuner.candidates") > 0
        )
    return {
        "tunes": len(shapes),
        "seconds": seconds,
        "mean_ms": seconds / len(shapes) * 1e3,
        "searches": searches,
    }


def cross_process_pass(smoke: bool, cache_dir: str) -> Dict:
    """One warm pass in a fresh interpreter over ``cache_dir``."""
    argv = [sys.executable, os.path.abspath(__file__),
            "--pass-only", cache_dir]
    if smoke:
        argv.append("--smoke")
    proc = subprocess.run(argv, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def run_digest(path: str) -> str:
    """The ``repro-run run`` digest line of a saved artifact."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "run", path, "--seed", "0"],
        capture_output=True, text=True, check=True,
    )
    return next(
        ln.split()[-1] for ln in proc.stdout.splitlines()
        if ln.startswith("digest:")
    )


def digest_check(cache_dir: str, workdir: str) -> Dict:
    """Cached schedule ≡ freshly tuned schedule, by ``repro-run run``."""
    workload, params = "adam", {"num_elements": 1024, "world_size": 4}
    cluster = Cluster(1)
    served = Autotuner(
        cluster, max_depth=MAX_DEPTH,
        schedule_cache=ScheduleCache(cache_dir),
    ).tune(build_workload(workload, params, "FP16"))
    fresh = Autotuner(cluster, max_depth=MAX_DEPTH).tune(
        build_workload(workload, params, "FP16")
    )
    served_path = os.path.join(workdir, "served.repro.json")
    fresh_path = os.path.join(workdir, "fresh.repro.json")
    served.best.schedule.save(served_path)  # a hit returns an Artifact
    Artifact.from_lowered(
        fresh.best.schedule.lowered(cluster=cluster)
    ).save(fresh_path)
    served_digest = run_digest(served_path)
    fresh_digest = run_digest(fresh_path)
    return {
        "workload": f"{workload}{params}",
        "served_cached": served.cached,
        "served_schedule": served.best.name,
        "fresh_schedule": fresh.best.name,
        "served_digest": served_digest,
        "fresh_digest": fresh_digest,
        "match": served.cached and served_digest == fresh_digest,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="smaller universe (CI); same acceptance gates",
    )
    parser.add_argument(
        "--pass-only", metavar="CACHE_DIR", default=None,
        help="run one tune pass over CACHE_DIR, print it as JSON, exit",
    )
    args = parser.parse_args()
    shapes = universe(args.smoke)
    if args.pass_only:
        print(json.dumps(tune_pass(shapes, args.pass_only)))
        return

    with tempfile.TemporaryDirectory() as d:
        cache_dir = os.path.join(d, "cache")
        cold = tune_pass(shapes, cache_dir)
        passes = [tune_pass(shapes, cache_dir) for _ in range(WARM_PASSES)]
        cross = cross_process_pass(args.smoke, cache_dir)
        digest = digest_check(cache_dir, d)

    warm_seconds = statistics.median(p["seconds"] for p in passes)
    warm = {
        "passes": len(passes),
        "tunes": sum(p["tunes"] for p in passes),
        "pass_seconds": [p["seconds"] for p in passes],
        "seconds": warm_seconds,
        "mean_ms": warm_seconds / len(shapes) * 1e3,
        "searches": sum(p["searches"] for p in passes),
    }
    speedup = cold["seconds"] / warm_seconds
    report = {
        "benchmark": "serve",
        "mode": "smoke" if args.smoke else "full",
        "universe": len(shapes),
        "max_depth": MAX_DEPTH,
        "cold": cold,
        "warm": warm,
        "cross_process": cross,
        "digest": digest,
        "acceptance": {
            "warm_hit_speedup": speedup,
            "warm_searches": warm["searches"] + cross["searches"],
            "cross_process_tunes": cross["searches"],
            "digest_match": digest["match"],
        },
    }

    rows = [
        ["cold (empty cache)", cold["tunes"], f"{cold['mean_ms']:.2f} ms",
         cold["searches"]],
        [f"warm (median of {len(passes)} passes)", len(shapes),
         f"{warm['mean_ms']:.2f} ms", warm["searches"]],
        ["warm (new process)", cross["tunes"], f"{cross['mean_ms']:.2f} ms",
         cross["searches"]],
    ]
    lines = [
        "Schedule cache through Autotuner(schedule_cache=): cold tunes vs "
        f"warm hits ({len(shapes)} shapes, max_depth={MAX_DEPTH})",
        "",
    ]
    lines += table(["pass", "tunes", "mean per tune", "searches"], rows)
    lines += [
        "",
        f"warm hit speedup: {speedup:.1f}x",
        f"served ≡ fresh repro-run digest: {digest['match']}",
    ]
    save_report("serve", lines)

    with open(JSON_PATH, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
    print(f"\nwrote {JSON_PATH}")

    assert digest["match"], (
        "the cached schedule's repro-run digest differs from the freshly "
        "tuned schedule's"
    )
    assert report["acceptance"]["warm_searches"] == 0, (
        "a warm tune searched instead of answering from the cache"
    )
    assert cross["searches"] == 0, (
        "a fresh process over a warm cache directory re-tuned"
    )


if __name__ == "__main__":
    main()
