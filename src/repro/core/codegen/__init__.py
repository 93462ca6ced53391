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
  exchanges;
* overlapped groups become a generated chunk orchestrator whose
  producer stream thread releases GEMM output chunks while the
  consuming collective ingests them.

Every generated module is required (by the SPMD differential tests) to
be bit-identical to the lowered interpreter. Generated line counts feed
Table 3.

``CodeGenerator(target="native")`` emits the same per-rank module with
its elementwise chains rendered to C, fused into one compiled loop
each, built with ``cc`` and memoized in
:mod:`repro.core.codegen.native`'s on-disk content-addressed kernel
cache. GEMMs stay the device library's ``dev.gemm``, as on every tier.
Communication still runs over the ``SpmdCommunicator``, so overlap
chunk loops release real compute early.
"""

from repro import lazy_exports

#: public name -> its submodule; a rank process imports only ``device``
_EXPORTS = {
    "CodeGenerator": "generator",
    "GeneratedSpmdProgram": "generator",
    "count_loc": "loc",
}
__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
