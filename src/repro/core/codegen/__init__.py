"""The CoCoNet code generator (Section 5).

"For each operation, CoCoNet either generates (i) a call to a collective
communication operation, (ii) a CUDA kernel for fused computations,
(iii) a CUDA kernel for fused-collective communications, or (iv) CUDA
kernels for overlapping of communication and computation operations."

The reproduction generates one *Python* program per rank instead of
one CUDA program per GPU. Every rank runs the same module in its own OS
process, with its kernels bound to that rank's
:class:`repro.runtime.spmd.SpmdCommunicator`
(:class:`GeneratedSpmdProgram`):

* plain collectives become rendezvous calls on the communicator over
  shared memory (the analogue of calling NCCL);
* fused computation becomes a generated kernel with the whole
  expression chain inlined over this rank's shard;
* fused collectives interleave their exchanges with the fused
  computation in program order, cross-rank norms becoming scalar
  exchanges, with per-protocol pack accounting;
* overlapped groups become a generated chunk orchestrator whose
  producer stream thread releases GEMM output chunks while the
  consuming collective ingests them.

Every generated module is required (by the SPMD differential tests) to
be bit-identical to the lowered interpreter. Generated line counts feed
Table 3.

``CodeGenerator(target="native")`` emits the same per-rank module with
the compute segments rendered to C — elementwise chains fused into one
compiled loop each, GEMMs dispatched to BLAS — built with ``cc`` and
memoized in :mod:`repro.core.codegen.native`'s on-disk
content-addressed kernel cache. Communication still runs over the
``SpmdCommunicator``, so overlap chunk loops release real compute
early.
"""

from repro.core.codegen.generator import CodeGenerator, GeneratedSpmdProgram
from repro.core.codegen.loc import count_loc

__all__ = [
    "CodeGenerator",
    "GeneratedSpmdProgram",
    "count_loc",
]
