"""Ready-scan DES oracle and unmemoized cost model for the property tests.

:class:`ReferenceEngine` is the original O(n²) list scheduler: on every
step it scans all pending tasks and starts the one that can begin
earliest, first in input order on ties. :class:`repro.perf.engine.Engine`
replaces the scan with a heap; the tests check that both produce
bit-identical timelines. The oracle reuses ``Engine._validate`` and
``Engine._duration``, so ``slowdown=`` stretches tasks the same way.

:class:`UnmemoizedCostModel` is :class:`ProgramCostModel` with its one
memo table switched off: every kernel, sweep and ring is priced afresh
on every lookup. The tuner tests check that the memoized model returns
the very same floats.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from repro.errors import CoCoNetError
from repro.perf.engine import Engine, Task, Timeline
from repro.perf.program_cost import ProgramCostModel


class ReferenceEngine(Engine):
    """An :class:`Engine` whose :meth:`run` is the O(n²) ready scan."""

    def run(self, tasks: Sequence[Task]) -> Timeline:
        self._validate(tasks)
        timeline = Timeline()
        resource_free: Dict[str, float] = {}
        pending: List[Task] = list(tasks)
        scheduled: set = set()
        while pending:
            best_idx = -1
            best_start = float("inf")
            for i, t in enumerate(pending):
                if any(d not in scheduled for d in t.deps):
                    continue
                ready = max(
                    (timeline.end(d) for d in t.deps), default=0.0
                )
                start = max(ready, resource_free.get(t.resource, 0.0))
                if start < best_start:
                    best_start, best_idx = start, i
            if best_idx < 0:
                names = [t.name for t in pending]
                raise CoCoNetError(
                    f"dependency cycle among tasks: {names[:5]}..."
                )
            t = pending.pop(best_idx)
            end = best_start + self._duration(t)
            timeline.spans[t.name] = (best_start, end)
            timeline.resources[t.name] = t.resource
            resource_free[t.resource] = end
            scheduled.add(t.name)
        return timeline


class UnmemoizedCostModel(ProgramCostModel):
    """A :class:`ProgramCostModel` that recomputes every memo lookup."""

    def _memo(self, key: tuple, compute: Callable[[], object]):
        return compute()
