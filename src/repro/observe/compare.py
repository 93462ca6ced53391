"""Align a predicted DES :class:`Timeline` against measured trace events.

The autotuner ranks schedules purely by the alpha-beta cost model; this
module is the empirical check on that trust. Both sides speak the same
vocabulary — the DES emits task names like ``mm`` and ``mm#c3`` (chunk
*c3* of kernel ``mm``), and measured spans carry the kernel name — so
alignment is a join on the base kernel name, with chunk tasks folded
into their kernel's total.

The result is a per-op table of predicted vs measured duration, the
measured/predicted latency ratio, and the top-k mispredictions by
log-ratio magnitude (a 2x underestimate and a 2x overestimate are
equally wrong).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.observe.events import SpanEvent

__all__ = ["OpComparison", "TimelineComparison", "compare_timelines"]

#: measured span categories that correspond to predicted kernel tasks
MEASURED_CATS = ("launch", "kernel")


def _base_name(name: str) -> str:
    return name.split("#", 1)[0]


@dataclass
class OpComparison:
    """One kernel's predicted vs measured totals (seconds)."""

    name: str
    predicted: float
    measured: float
    spans: int  # measured span count folded into ``measured``

    @property
    def ratio(self) -> float:
        """measured / predicted; inf when the prediction was zero."""
        if self.predicted <= 0:
            return math.inf
        return self.measured / self.predicted

    @property
    def log_error(self) -> float:
        """|log2 ratio| — symmetric misprediction magnitude."""
        r = self.ratio
        if r <= 0 or math.isinf(r):
            return math.inf
        return abs(math.log2(r))


@dataclass
class TimelineComparison:
    """The aligned per-op table plus the unmatched remainders."""

    rows: List[OpComparison]
    only_predicted: List[str]
    only_measured: List[str]

    def row(self, name: str) -> Optional[OpComparison]:
        for r in self.rows:
            if r.name == name:
                return r
        return None

    def top_mispredictions(self, k: int = 5) -> List[OpComparison]:
        return sorted(
            self.rows, key=lambda r: r.log_error, reverse=True
        )[:k]

    def describe(self) -> str:
        """Aligned text table, worst mispredictions last-column flagged."""
        if not self.rows:
            return "(no aligned ops)"
        width = max(len(r.name) for r in self.rows)
        width = max(width, len("op"))
        lines = [
            f"{'op':<{width}}  {'predicted':>12}  {'measured':>12}  "
            f"{'ratio':>8}"
        ]
        worst = {id(r) for r in self.top_mispredictions(3)}
        for r in sorted(self.rows, key=lambda r: r.name):
            ratio = "inf" if math.isinf(r.ratio) else f"{r.ratio:8.2f}"
            flag = "  <-- misprediction" if id(r) in worst and \
                r.log_error > 1.0 else ""
            lines.append(
                f"{r.name:<{width}}  {r.predicted * 1e6:10.1f} us  "
                f"{r.measured * 1e6:10.1f} us  {ratio}{flag}"
            )
        if self.only_predicted:
            lines.append(
                "only predicted: " + ", ".join(sorted(self.only_predicted))
            )
        if self.only_measured:
            lines.append(
                "only measured: " + ", ".join(sorted(self.only_measured))
            )
        return "\n".join(lines)


def compare_timelines(
    timeline,
    events: Iterable[object],
    cats: Tuple[str, ...] = MEASURED_CATS,
) -> TimelineComparison:
    """Join a DES ``Timeline`` with measured events on base kernel name.

    ``timeline`` is a :class:`repro.perf.engine.Timeline` (anything with
    a ``spans`` mapping of name → (start, end) works). Measured spans
    whose category is not in ``cats`` (comm phases, waits) are
    ignored — they have no per-kernel prediction to join.
    """
    predicted: Dict[str, float] = {}
    for name, (start, end) in timeline.spans.items():
        base = _base_name(name)
        predicted[base] = predicted.get(base, 0.0) + (end - start)

    measured: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for ev in events:
        if not isinstance(ev, SpanEvent) or ev.cat not in cats:
            continue
        base = _base_name(ev.name)
        measured[base] = measured.get(base, 0.0) + ev.dur
        counts[base] = counts.get(base, 0) + 1

    rows = [
        OpComparison(name, predicted[name], measured[name], counts[name])
        for name in predicted
        if name in measured
    ]
    rows.sort(key=lambda r: r.name)
    return TimelineComparison(
        rows=rows,
        only_predicted=sorted(set(predicted) - set(measured)),
        only_measured=sorted(set(measured) - set(predicted)),
    )
