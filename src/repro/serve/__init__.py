"""The persistent schedule cache.

The paper's autotuner (§6) is a one-shot offline step; this package
keeps its answers. Tuned schedules persist as content-addressed records
keyed by ``(structural_hash, topology_signature)`` —
:class:`~repro.serve.cache.ScheduleCache` — which
:class:`~repro.core.autotuner.Autotuner` consults before a search and
writes after one (``Autotuner(cluster, schedule_cache=...)``).
``repro-run tune`` tunes through it from the shell and ``repro-run
cache {stats,clear}`` maintains it.

See ``docs/serving.md`` for the guide and
``benchmarks/bench_serve.py`` for the cold-vs-warm numbers.
"""

from repro.serve.cache import (
    CachedSchedule,
    ScheduleCache,
    default_cache_dir,
)

__all__ = [
    "CachedSchedule",
    "ScheduleCache",
    "default_cache_dir",
]
