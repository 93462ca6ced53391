"""Recorder bridging the lowered-stream interpreter to trace events.

:class:`LoweredRunRecorder` turns each step of ``Executor.run_lowered``
(instruction launches, chunk-loop members, pack metadata) into typed,
*timed* :class:`~repro.observe.events.SpanEvent` and instant objects in
a :class:`~repro.observe.events.Tracer`.

Chunk spans are named ``{member}#c{chunk}`` to match the task names the
DES cost model emits (``ProgramCostModel._emit_chunk_tasks``), so the
predicted-vs-measured aligner joins them without a translation table.
"""

from __future__ import annotations

from repro.observe.events import Tracer

__all__ = ["LoweredRunRecorder"]


class LoweredRunRecorder:
    """Per-run recording facade handed down into ``_run_chunk_loop``."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def now(self) -> float:
        return self.tracer.now()

    def pack(self, instr) -> None:
        self.tracer.instant(
            instr.name,
            cat="pack",
            tid=instr.stream,
            args={
                "num_buckets": instr.num_buckets,
                "metadata_bytes": instr.metadata_bytes,
            },
        )

    def launch(self, instr, t0: float) -> None:
        self.tracer.complete(
            instr.name,
            t0,
            self.tracer.now() - t0,
            cat="launch",
            tid=instr.stream,
            args={"deps": list(instr.deps)},
        )

    def chunkloop_end(self, loop, t0: float) -> None:
        self.tracer.complete(
            loop.name,
            t0,
            self.tracer.now() - t0,
            cat="chunkloop",
            tid="overlap",
            args={"num_chunks": loop.num_chunks, "ring": loop.ring},
        )

    def whole(self, entry, step: int, t0: float) -> None:
        self.tracer.complete(
            entry.name,
            t0,
            self.tracer.now() - t0,
            cat="whole",
            tid=entry.instr.stream,
            args={"step": step},
        )

    def chunk(self, entry, step: int, c: int, t0: float) -> None:
        self.tracer.complete(
            f"{entry.name}#c{c}",
            t0,
            self.tracer.now() - t0,
            cat="chunk",
            tid=entry.instr.stream,
            args={
                "step": step,
                "chunk": c,
                "member": entry.name,
                "upstream": entry.upstream,
            },
        )
