"""ASCII timeline rendering for simulated executions.

Turns a :class:`~repro.perf.engine.Timeline` into a per-resource Gantt
chart, the tool used to inspect *why* an overlapped schedule wins —
e.g. Figure 9's picture of MatMul chunks feeding AllReduce chunks, or
Figure 7b's tiles flowing across NVLink and InfiniBand.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.perf.engine import Task, Timeline


def render_gantt(
    timeline: Timeline,
    tasks: Sequence[Task],
    width: int = 72,
    max_rows: Optional[int] = None,
) -> str:
    """Render one row per resource; each task paints its span.

    Tasks are painted with successive letters per resource so adjacent
    chunks are distinguishable; idle time shows as dots.
    """
    if not timeline.spans:
        return "(empty timeline)"
    makespan = timeline.makespan or 1.0
    by_resource: Dict[str, List[Task]] = {}
    for t in tasks:
        if t.name in timeline.spans:
            by_resource.setdefault(t.resource, []).append(t)
    rows = []
    name_width = max(len(r) for r in by_resource)
    for resource in sorted(by_resource):
        chart = ["."] * width
        members = sorted(
            by_resource[resource], key=lambda t: timeline.start(t.name)
        )
        for i, t in enumerate(members):
            start, end = timeline.spans[t.name]
            a = int(start / makespan * (width - 1))
            b = max(a + 1, int(end / makespan * (width - 1)) + 1)
            glyph = chr(ord("A") + i % 26)
            for x in range(a, min(b, width)):
                chart[x] = glyph
        rows.append(f"{resource:<{name_width}} |{''.join(chart)}|")
        if max_rows is not None and len(rows) >= max_rows:
            break
    header = (
        f"makespan: {makespan * 1e6:.1f} us "
        f"({len(timeline.spans)} tasks, {len(by_resource)} resources)"
    )
    return "\n".join([header] + rows)


def resource_utilization(
    timeline: Timeline, tasks: Sequence[Task]
) -> Dict[str, float]:
    """Fraction of the makespan each resource spends busy.

    The overlap transformation's goal in one number: "utilize multiple
    resources of hardware simultaneously" (§3.4) means several
    resources with high utilization at once.
    """
    makespan = timeline.makespan
    if makespan <= 0:
        return {}
    busy: Dict[str, float] = {}
    for t in tasks:
        if t.name in timeline.spans:
            start, end = timeline.spans[t.name]
            busy[t.resource] = busy.get(t.resource, 0.0) + (end - start)
    return {r: b / makespan for r, b in busy.items()}
