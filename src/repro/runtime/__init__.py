"""Simulated multi-rank runtime: the correctness oracle.

Executes CoCoNet programs numerically on N simulated ranks with numpy
arrays. Every transformed schedule must produce the same results as the
original program here — this is the library's enforcement of the paper's
"semantics preserving transformations".

``Executor.run_lowered`` is the in-process interpreter: it executes the
shared lowered instruction stream (:mod:`repro.core.lower`) — fused
blocks as units, overlap members whole and in order, as the generated
module runs them — over a rank-major :class:`SimWorld` (one stacked
``(num_ranks, *shape)`` array per tensor; collectives as single numpy
expressions). A bare program is lowered first, one kernel per
expression.

``Executor.run_spmd`` leaves the single process altogether: it executes
the generated SPMD module as one real OS process per rank over the
shared-memory communicator of :mod:`repro.runtime.spmd`, bit-identical
to ``run_lowered``. That is where a GEMM's output really reaches its
collective chunk by chunk (``RankCore.begin_chunked``).
:mod:`repro.runtime.faults` injects deterministic, seeded failures
(stragglers, stalls, dropped chunks, dead ranks) into that backend, and
``Executor.run_spmd(elastic=True)`` recovers from dead ranks by
re-lowering for the surviving world size.
"""

from repro import lazy_exports

#: public name -> its submodule; a rank imports only ``rank`` and ``spmd``
_EXPORTS = {
    "Executor": "executor",
    "ProgramResult": "executor",
    "FaultPlan": "faults",
    "SimWorld": "world",
    "SpmdCommunicator": "spmd",
    "SpmdError": "rank",
    "SpmdPeerAbort": "rank",
    "SpmdTimeout": "rank",
    "SpmdWorkerError": "rank",
}
__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
