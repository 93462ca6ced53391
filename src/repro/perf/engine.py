"""A small discrete-event simulator: tasks, resources, dependencies.

Tasks occupy one resource each for a fixed duration and may depend on
other tasks. Resources process one task at a time (a GPU's compute
stream, a node's NVSwitch fabric, the IB NICs). The engine performs
greedy list scheduling: among ready tasks, always start the one that
can begin earliest — which models in-order streams and FIFO hardware
queues well enough for kernel-granularity simulation.

:meth:`Engine.run` is an event-driven heap scheduler. Tasks enter a
priority queue keyed by ``(earliest start, submission order)`` as their
dependency counts reach zero; stale keys (a task whose resource got
busier since it was pushed) are lazily re-pushed. O(n log n + E). The
original O(n²) ready-scan list scheduler lives on in
``tests/des_oracle.py`` as the executable specification the heap
scheduler is property-tested against: both produce bit-identical
:class:`Timeline` spans, because the heap key's second component
reproduces the ready scan's first-in-input-order tie-breaking exactly.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import CoCoNetError


@dataclass
class Task:
    """One unit of work on one resource."""

    name: str
    resource: str
    duration: float
    deps: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise CoCoNetError(f"task {self.name}: negative duration")


@dataclass
class Timeline:
    """Start/end times (and resources) of every scheduled task."""

    spans: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    #: resource each task ran on, filled in by the engine — lets
    #: utilization be computed from the timeline alone
    resources: Dict[str, str] = field(default_factory=dict)

    @property
    def makespan(self) -> float:
        if not self.spans:
            return 0.0
        return max(end for _, end in self.spans.values())

    def start(self, name: str) -> float:
        return self.spans[name][0]

    def end(self, name: str) -> float:
        return self.spans[name][1]

    def utilization(self, resource: str) -> float:
        """Busy fraction of the makespan for one resource (or family).

        Uses the engine-recorded :attr:`resources` map, so no task list
        is needed. Matches the exact resource name, or — when the query
        ends with the ``":"`` separator — a whole family (``"gpu:"``
        covers every GPU stream), reporting the *mean* busy fraction
        over the matching resources so the result is always in [0, 1].
        A bare partial name never prefix-matches, so
        ``utilization("gpu:1")`` does not absorb ``gpu:10``..``gpu:15``.
        """
        makespan = self.makespan
        if makespan <= 0:
            return 0.0
        family = resource.endswith(":")
        busy: Dict[str, float] = {}
        for name, res in self.resources.items():
            if res == resource or (family and res.startswith(resource)):
                start, end = self.spans[name]
                busy[res] = busy.get(res, 0.0) + (end - start)
        if not busy:
            return 0.0
        return sum(busy.values()) / (makespan * len(busy))

    def describe(self, limit: Optional[int] = None) -> str:
        items = sorted(self.spans.items(), key=lambda kv: kv[1][0])
        if limit is not None:
            items = items[:limit]
        return "\n".join(
            f"{s * 1e6:10.1f} .. {e * 1e6:10.1f} us  {name}"
            for name, (s, e) in items
        )

    def to_events(
        self, tasks: Optional[Sequence[Task]] = None, pid: str = "predicted"
    ) -> List[object]:
        """The predicted schedule in the measured-trace event schema.

        Every scheduled task becomes a
        :class:`repro.observe.SpanEvent` with category ``"predicted"``
        on the track of the resource it occupied, so exporters and the
        predicted-vs-measured aligner consume DES output exactly like a
        real trace. ``tasks``, when given, supplies the dependency edges
        carried in each span's args.
        """
        from repro.observe.events import SpanEvent

        deps = {t.name: list(t.deps) for t in tasks} if tasks else {}
        events: List[object] = []
        for name, (start, end) in sorted(
            self.spans.items(), key=lambda kv: kv[1][0]
        ):
            args: Dict[str, object] = {}
            if name in deps:
                args["deps"] = deps[name]
            events.append(
                SpanEvent(
                    name, "predicted", start, end - start, pid,
                    self.resources.get(name, "sim"), args,
                )
            )
        return events


class Engine:
    """Greedy list scheduler over dependent tasks.

    ``slowdown`` maps resource names to duration multipliers — the
    straggler/contention model. A key matches a resource exactly, or,
    when it ends with the ``":"`` separator, a whole family (``"gpu:"``
    stretches every GPU stream) — the same convention as
    :meth:`Timeline.utilization`. Matching factors multiply, and the
    test oracle applies them through the same :meth:`_duration`, so
    the bit-identity property holds under slowdowns too
    (:meth:`repro.runtime.faults.FaultPlan.resource_slowdowns` produces
    this mapping from injected straggler events).
    """

    def __init__(self, slowdown: Optional[Dict[str, float]] = None) -> None:
        self.slowdown = dict(slowdown) if slowdown else {}
        for key, factor in self.slowdown.items():
            if factor <= 0:
                raise CoCoNetError(
                    f"slowdown factor for {key!r} must be > 0, got {factor}"
                )

    def _duration(self, task: Task) -> float:
        """The task's duration under the slowdown mapping."""
        if not self.slowdown:
            return task.duration
        d = task.duration
        for key, factor in self.slowdown.items():
            if task.resource == key or (
                key.endswith(":") and task.resource.startswith(key)
            ):
                d *= factor
        return d

    @staticmethod
    def _validate(tasks: Sequence[Task]) -> Dict[str, Task]:
        by_name = {t.name: t for t in tasks}
        if len(by_name) != len(tasks):
            raise CoCoNetError("duplicate task names")
        for t in tasks:
            for d in t.deps:
                if d not in by_name:
                    raise CoCoNetError(
                        f"task {t.name} depends on unknown task {d!r}"
                    )
        return by_name

    def run(self, tasks: Sequence[Task]) -> Timeline:
        """Event-driven heap scheduling; same semantics as a ready scan.

        A task enters the ready heap once all dependencies are
        scheduled, keyed by its earliest start under the resource
        availability known at push time. Resource availability only
        grows, so a stale key underestimates — on pop the key is
        recomputed and the entry re-pushed if it changed; an accurate
        popped key is the global minimum, i.e. exactly the task the
        O(n²) ready-scan would have picked.
        """
        by_name = self._validate(tasks)
        timeline = Timeline()
        resource_free: Dict[str, float] = {}
        order: Dict[str, int] = {t.name: i for i, t in enumerate(tasks)}
        users: Dict[str, List[str]] = {t.name: [] for t in tasks}
        missing: Dict[str, int] = {}
        ready_at: Dict[str, float] = {}
        for t in tasks:
            unique_deps = set(t.deps)
            missing[t.name] = len(unique_deps)
            for d in unique_deps:
                users[d].append(t.name)

        heap: List[Tuple[float, int, str]] = []
        for t in tasks:
            if missing[t.name] == 0:
                ready_at[t.name] = 0.0
                heapq.heappush(heap, (0.0, order[t.name], t.name))

        scheduled = 0
        while heap:
            pushed_start, idx, name = heapq.heappop(heap)
            t = by_name[name]
            start = max(ready_at[name], resource_free.get(t.resource, 0.0))
            if start > pushed_start:
                heapq.heappush(heap, (start, idx, name))
                continue
            end = start + self._duration(t)
            timeline.spans[name] = (start, end)
            timeline.resources[name] = t.resource
            resource_free[t.resource] = end
            scheduled += 1
            for u in users[name]:
                ready_at[u] = max(ready_at.get(u, 0.0), end)
                missing[u] -= 1
                if missing[u] == 0:
                    u_task = by_name[u]
                    u_start = max(
                        ready_at[u],
                        resource_free.get(u_task.resource, 0.0),
                    )
                    heapq.heappush(heap, (u_start, order[u], u))
        if scheduled != len(tasks):
            names = [t.name for t in tasks if t.name not in timeline.spans]
            raise CoCoNetError(
                f"dependency cycle among tasks: {names[:5]}..."
            )
        return timeline
