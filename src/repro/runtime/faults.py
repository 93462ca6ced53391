"""Deterministic, seeded fault injection for the SPMD backend.

Real clusters have stragglers, contended links, and ranks that die
mid-collective; a backend that only ever runs clean cannot demonstrate
graceful degradation or elastic recovery. A :class:`FaultPlan` is an
immutable, picklable description of *exactly* which failures a run must
experience:

* ``slow_rank(rank, factor)`` — a straggler: every wire transfer and
  generated-kernel call on ``rank`` is stretched by ``factor``;
* ``die(rank, at_site=..., after=N)`` — ``rank`` hard-exits
  (``os._exit``, no error flag, no parent message — a genuinely dead
  process) on its ``N``-th publish matching ``at_site``;
* ``stall_publish(site, delay, ...)`` — a transient hiccup: matching
  publishes are delayed ``delay`` seconds before the ready flag is
  raised, exercising peers' soft-retry escalation;
* ``drop_chunk(site, chunk, ...)`` — a lost chunk of a chunked (§5.3
  overlap) publication: the ready bump for that chunk is withheld and
  redelivered ``redeliver`` seconds later (or with the next chunk),
  like a retransmit.

Because the plan is data (no callbacks, no clocks), the same plan plus
the same program reproduces the same failure bit-for-bit: each rank's
view of it (:meth:`FaultPlan.for_rank`, a
:class:`~repro.runtime.rank.RankFaults` of plain numbers and strings,
so a rank never imports this module) travels as its constructor
tuple in the ``marshal`` spec
:meth:`repro.runtime.spmd.RankPool.launch` sends that rank and
consulted at fixed injection points.
``FaultPlan.scenario`` derives a whole fault matrix entry from one
integer seed so benchmarks can sweep reproducible scenarios.

The plan also feeds *prediction*: :meth:`FaultPlan.resource_slowdowns`
translates straggler events into the per-resource slowdown mapping of
:class:`repro.perf.engine.Engine`, so the DES timeline can be compared
against the measured timeline under the same injected faults.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.runtime.rank import RankFaults

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only
    from typing import Dict, List, Optional, Tuple, Union

    FaultEvent = Union["SlowRank", "Die", "StallPublish", "DropChunk"]

__all__ = [
    "SlowRank",
    "Die",
    "StallPublish",
    "DropChunk",
    "FaultPlan",
    "RankFaults",
]


@dataclass(frozen=True)
class SlowRank:
    """A persistent straggler: ``rank`` runs ``factor`` times slower."""

    rank: int
    factor: float

    def describe(self) -> str:
        return f"slow_rank(rank={self.rank}, x{self.factor:g})"


@dataclass(frozen=True)
class Die:
    """Hard-kill ``rank`` on its ``after``-th publish matching ``at_site``.

    ``at_site`` is a site-key prefix (``"g"`` matches every group site,
    ``"g0x4"`` exactly that group, ``""`` any site). Publishes are
    counted per event, and chunked publications count each chunk — so a
    ``Die(at_site="g0x8", after=2)`` lands mid-``publish_chunks``, on
    the producer stream thread.
    """

    rank: int
    at_site: str = ""
    after: int = 1

    def describe(self) -> str:
        return f"die(rank={self.rank}, at={self.at_site or '*'}, after={self.after})"


@dataclass(frozen=True)
class StallPublish:
    """Delay matching publishes ``delay`` seconds before the ready flag.

    ``rank``/``seq`` of ``None`` match every rank / every matching
    publish; ``seq`` counts whole publishes by site sequence number and
    chunked publishes by chunk index.
    """

    site: str
    delay: float
    rank: Optional[int] = None
    seq: Optional[int] = None

    def describe(self) -> str:
        who = "*" if self.rank is None else str(self.rank)
        return f"stall_publish(site={self.site or '*'}, {self.delay:g}s, rank={who})"


@dataclass(frozen=True)
class DropChunk:
    """Withhold the ready bump of chunk ``chunk`` at a chunked site.

    The payload itself is written (the slot is shared memory); only the
    visibility flag is delayed — redelivered with the next chunk's bump
    or, for the final chunk, after ``redeliver`` seconds. Consumers ride
    the gap out through the communicator's soft-retry escalation.
    """

    site: str
    chunk: int
    rank: Optional[int] = None
    redeliver: float = 0.02

    def describe(self) -> str:
        who = "*" if self.rank is None else str(self.rank)
        return f"drop_chunk(site={self.site or '*'}, chunk={self.chunk}, rank={who})"


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, seeded set of fault events for one SPMD run.

    Builder methods return extended copies, so plans compose::

        plan = FaultPlan(seed=7).slow_rank(2, 3.0).die(5, at_site="g")

    The ``seed`` names the scenario (benchmarks key their fault matrix
    on it); the events themselves are already fully deterministic.
    """

    events: Tuple[FaultEvent, ...] = ()
    seed: int = 0

    # -- builders --------------------------------------------------------

    def _with(self, event: FaultEvent) -> "FaultPlan":
        return replace(self, events=self.events + (event,))

    def slow_rank(self, rank: int, factor: float) -> "FaultPlan":
        if factor < 1.0:
            raise ValueError(f"straggler factor must be >= 1, got {factor}")
        return self._with(SlowRank(int(rank), float(factor)))

    def die(
        self, rank: int, at_site: str = "", after: int = 1
    ) -> "FaultPlan":
        if after < 1:
            raise ValueError(f"die(after=...) must be >= 1, got {after}")
        return self._with(Die(int(rank), str(at_site), int(after)))

    def stall_publish(
        self,
        site: str,
        delay: float,
        rank: Optional[int] = None,
        seq: Optional[int] = None,
    ) -> "FaultPlan":
        if delay < 0.0:
            raise ValueError(f"stall delay must be >= 0, got {delay}")
        return self._with(StallPublish(str(site), float(delay), rank, seq))

    def drop_chunk(
        self,
        site: str,
        chunk: int,
        rank: Optional[int] = None,
        redeliver: float = 0.02,
    ) -> "FaultPlan":
        return self._with(
            DropChunk(str(site), int(chunk), rank, float(redeliver))
        )

    # -- queries ---------------------------------------------------------

    def dead_ranks(self) -> Tuple[int, ...]:
        """Ranks the plan will kill, in event order (deduplicated)."""
        seen: List[int] = []
        for e in self.events:
            if isinstance(e, Die) and e.rank not in seen:
                seen.append(e.rank)
        return tuple(seen)

    def resource_slowdowns(self) -> Dict[str, float]:
        """Straggler events as the DES engine's slowdown mapping.

        Each ``slow_rank(r, f)`` stretches the ``gpu:<r>`` stream by
        ``f``; collectives are as slow as their slowest member, so the
        whole ``fabric:``/``ib:`` families are stretched by the largest
        straggler factor (see :class:`repro.perf.engine.Engine`).
        """
        out: Dict[str, float] = {}
        worst = 1.0
        for e in self.events:
            if isinstance(e, SlowRank):
                key = f"gpu:{e.rank}"
                out[key] = out.get(key, 1.0) * e.factor
                worst = max(worst, out[key])
        if worst > 1.0:
            out["fabric:"] = worst
            out["ib:"] = worst
        return out

    def for_rank(self, rank: int) -> Optional[RankFaults]:
        """The mutable per-rank runtime view (``None`` when inert), in
        plain data: the launcher marshals its constructor tuple
        (:meth:`~repro.runtime.rank.RankFaults.to_wire`) into ``rank``'s
        spec."""
        factor = 1.0
        stalls, dies, drops = [], [], []
        for e in self.events:
            if isinstance(e, SlowRank) and e.rank == rank:
                factor *= e.factor
            elif isinstance(e, StallPublish) and e.rank in (None, rank):
                stalls.append(e)
            elif isinstance(e, Die) and e.rank == rank:
                dies.append(e)
            elif isinstance(e, DropChunk) and e.rank in (None, rank):
                drops.append(e)
        armed = [f"slow x{factor:g}"] if factor > 1.0 else []
        armed += [e.describe() for e in stalls + dies + drops]
        view = RankFaults(
            factor, [(e.site, e.delay, e.seq) for e in stalls],
            [(e.at_site, e.after) for e in dies],
            [(e.site, e.chunk, e.redeliver) for e in drops], armed,
        )
        return view if view.active else None

    def describe(self) -> str:
        if not self.events:
            return f"FaultPlan(seed={self.seed}: no faults)"
        body = "; ".join(e.describe() for e in self.events)
        return f"FaultPlan(seed={self.seed}: {body})"

    # -- seeded scenarios ------------------------------------------------

    @classmethod
    def scenario(cls, seed: int, nranks: int) -> "FaultPlan":
        """A deterministic fault scenario derived from one integer seed.

        Seeds cycle through the fault matrix — straggler, transient
        stall, dropped chunk, dead rank — with seed-dependent
        parameters, so a benchmark sweep over seeds covers every
        failure mode and any scenario reproduces exactly from its seed.
        """
        import numpy as np

        rng = np.random.RandomState(seed)
        plan = cls(seed=seed)
        kind = seed % 4
        rank = int(rng.randint(0, nranks))
        if kind == 0:
            factor = float(np.round(1.5 + 2.5 * rng.random_sample(), 2))
            return plan.slow_rank(rank, factor)
        if kind == 1:
            delay = float(np.round(0.01 + 0.04 * rng.random_sample(), 3))
            return plan.stall_publish("g", delay, rank=rank)
        if kind == 2:
            return plan.drop_chunk("g", int(rng.randint(0, 2)), rank=rank)
        return plan.die(rank, at_site="g", after=int(rng.randint(1, 3)))
