"""LoweredProgram as a portable, schema-versioned artifact.

The paper's central premise is that *one* intermediate representation
carries a distributed program to every execution target. PR 4 unified
lowering in-process — :class:`~repro.core.lower.LoweredProgram` drives
the interpreter, the code generator and the cost model — but the IR was
still a live object graph that died with the interpreter. This module
gives it a stable serialized form: a JSON payload that captures the
entire expression DFG (every vertex with dtype, shape, layout, process
group and op attributes), the execution plan (kernels + overlap
groups), and the lowered instruction stream (launches, §5.4 pack
metadata, chunk loops with modes/bounds/ring order and dependency
edges) — enough to reconstruct a LoweredProgram that executes, codegens
and costs **without any of the originating Python objects**.

Two hashes identify an artifact:

* ``content_hash`` — SHA-256 of the canonical (sorted-keys, compact)
  JSON payload. Stable across processes and dict orderings; two
  artifacts with equal content hashes reconstruct identical programs.
* ``structural_hash`` — SHA-256 of the *name-free* canonical execution
  structure (kernel kinds + member ops + dataflow + chunk-loop shape).
  This is the autotuner's dedup key: generated value names carry a
  global counter, so the same plan reached via fork-per-move vs.
  replay differs by name but not by structure.

Format::

    {
      "format": "coconet-lowered-artifact",
      "schema_version": 1,
      "content_hash": "sha256:...",
      "structural_hash": "sha256:...",
      "payload": { "program": ..., "exprs": [...],
                   "plan": ..., "instructions": [...] }
    }

Forward compatibility: each schema version registers a loader in
``_LOADERS``; old artifacts keep loading as the schema evolves (the
golden files under ``tests/golden/`` pin that promise).

Round trip in four lines — serialize a tuned schedule, reconstruct it
in (conceptually) another process, and the identity hashes agree:

>>> from repro.core import artifact
>>> from repro.workloads.adam import AdamWorkload
>>> sched = AdamWorkload.build(64, 4).schedules()['fuse(RS-Adam-AG)']
>>> a = artifact.as_artifact(sched)
>>> b = artifact.loads(a.dumps())     # verifies content_hash on load
>>> b.content_hash == a.content_hash
True
>>> b.structural_hash == artifact.structural_hash(sched.lowered())
True
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core import ops
from repro.core.dtypes import dtype_by_name
from repro.core.layout import Layout, LayoutKind
from repro.core.lower import (
    ChunkEntry,
    ChunkLoop,
    CollectiveStep,
    Launch,
    LocalCompute,
    LoweredProgram,
    PackScattered,
    _per_rank_extent,
)
from repro.core.process_group import ProcessGroup
from repro.core.program import Program
from repro.core.tensor import Const, Expr, Scalar, Tensor
from repro.core.transforms.plan import ExecutionPlan, Kernel, KernelKind
from repro.errors import CoCoNetError

FORMAT = "coconet-lowered-artifact"
SCHEMA_VERSION = 1

_HASH_PREFIX = "sha256:"


class ArtifactError(CoCoNetError):
    """A malformed, unsupported or corrupted artifact."""


# ---------------------------------------------------------------------------
# Expression graph codec.
# ---------------------------------------------------------------------------

#: Expr subclasses a payload may reference, by type tag. Leaves first,
#: then every DSL operation; reconstruction bypasses the op
#: constructors (which re-run inference and could not reproduce
#: transform-mutated state) and restores the recorded facts verbatim.
_EXPR_TYPES: Dict[str, type] = {
    "Tensor": Tensor,
    "Scalar": Scalar,
    "Const": Const,
    "AllReduce": ops.AllReduce,
    "ReduceScatter": ops.ReduceScatter,
    "AllGather": ops.AllGather,
    "Reduce": ops.Reduce,
    "Broadcast": ops.Broadcast,
    "AllToAll": ops.AllToAll,
    "AllToAllPhase": ops.AllToAllPhase,
    "Send": ops.Send,
    "MatMul": ops.MatMul,
    "Conv2D": ops.Conv2D,
    "Binary": ops.Binary,
    "Unary": ops.Unary,
    "Dropout": ops.Dropout,
    "Cast": ops.Cast,
    "Slice": ops.Slice,
    "Norm": ops.Norm,
    "ReduceTensor": ops.ReduceTensor,
    "Update": ops.Update,
}

#: plain-value attributes serialized per op type (cross-link attributes
#: — AllGather.writeback, Update.target — are handled separately since
#: they reference other graph vertices)
_OP_ATTRS: Dict[type, Tuple[str, ...]] = {
    ops.AllReduce: ("reduction",),
    ops.ReduceScatter: ("reduction",),
    ops.AllGather: ("dim",),
    ops.Reduce: ("reduction", "root"),
    ops.Broadcast: ("root",),
    ops.AllToAll: ("dim",),
    ops.AllToAllPhase: ("dim", "phase", "node_size"),
    ops.Conv2D: ("stride", "padding"),
    ops.Binary: ("op",),
    ops.Unary: ("op",),
    ops.Dropout: ("prob", "seed"),
    ops.Norm: ("crosses_ranks",),
    ops.ReduceTensor: ("reduction", "crosses_ranks"),
}


def _layout_to_json(layout: Layout) -> Dict[str, Any]:
    return {"kind": layout.kind.value, "dim": layout.dim}


def _layout_from_json(data: Dict[str, Any]) -> Layout:
    return Layout(LayoutKind(data["kind"]), data.get("dim"))


def _expr_to_json(e: Expr, idx: Dict[int, int]) -> Dict[str, Any]:
    tag = type(e).__name__
    if tag not in _EXPR_TYPES:
        raise ArtifactError(
            f"cannot serialize expression type {tag!r} ({e.signature()})"
        )
    rec: Dict[str, Any] = {
        "type": tag,
        "name": e.name,
        "dtype": e.dtype.name,
        "shape": list(e.shape),
        "layout": _layout_to_json(e.layout),
        "group": [e.group.start, e.group.size, e.group.world_size],
        "inputs": [idx[id(i)] for i in e.inputs],
    }
    attrs: Dict[str, Any] = {}
    for f in _OP_ATTRS.get(type(e), ()):
        attrs[f] = getattr(e, f)
    if isinstance(e, Const):
        attrs["value"] = e.value
    if isinstance(e, ops.Send):
        attrs["dst_group_offset"] = e.dst.group_offset
    if isinstance(e, ops.AllGather) and e.writeback is not None:
        attrs["writeback"] = idx[id(e.writeback)]
    if isinstance(e, ops.Update):
        attrs["target"] = idx[id(e.target)]
    if attrs:
        rec["attrs"] = attrs
    return rec


def _expr_from_json(
    rec: Dict[str, Any], by_id: List[Expr]
) -> Expr:
    tag = rec["type"]
    cls = _EXPR_TYPES.get(tag)
    if cls is None:
        raise ArtifactError(f"unknown expression type {tag!r} in artifact")
    group = ProcessGroup(*rec["group"])
    inputs = tuple(by_id[i] for i in rec["inputs"])
    e = object.__new__(cls)
    Expr.__init__(
        e,
        rec["name"],
        dtype_by_name(rec["dtype"]),
        tuple(rec["shape"]),
        _layout_from_json(rec["layout"]),
        group,
        inputs,
    )
    attrs = rec.get("attrs", {})
    for f in _OP_ATTRS.get(cls, ()):
        setattr(e, f, attrs[f])
    if isinstance(e, Tensor):
        e.updated_by = None  # restored by the Update that targets it
    if isinstance(e, Const):
        e.value = float(attrs["value"])
    if isinstance(e, ops.AllToAllPhase):
        e.comm_kind = f"alltoall_{e.phase}"
    if isinstance(e, ops.Send):
        from repro.core.ops import GroupRank, GroupShift
        from repro.core.process_group import RANK

        e.dst = GroupRank(GroupShift(attrs["dst_group_offset"]), RANK)
    return e


def _link_expr(e: Expr, rec: Dict[str, Any], by_id: List[Expr]) -> None:
    """Restore ``e``'s cross-links once every vertex is built.

    A link may point forward: an input that nothing reads but its
    ``Update`` is ordered after that Update.
    """
    attrs = rec.get("attrs", {})
    if isinstance(e, ops.AllGather):
        wb = attrs.get("writeback")
        e.writeback = by_id[wb] if wb is not None else None
    if isinstance(e, ops.Update):
        target = by_id[attrs["target"]]
        e.target = target
        target.updated_by = e


def _graph_order(program: Program, plan: ExecutionPlan) -> List[Expr]:
    """Every reachable vertex in topological order.

    The plan's kernels and the program's roots reference the same graph;
    walking the program roots *plus* every kernel member covers vertices
    a transformation kept alive only through the plan.
    """
    from repro.core import dfg

    roots: List[Expr] = list(program.roots)
    for k in plan.kernels:
        roots.extend(k.exprs)
    order = dfg.topological(roots)
    # Declared-but-unused inputs still define the execution interface.
    seen = {id(e) for e in order}
    for t in program.inputs:
        if id(t) not in seen:
            order.append(t)
    return order


# ---------------------------------------------------------------------------
# Instruction stream codec.
# ---------------------------------------------------------------------------


def _pack_to_json(pack: PackScattered) -> Dict[str, Any]:
    return {
        "name": pack.name,
        "target": pack.target,
        "stream": pack.stream,
        "num_elements": pack.num_elements,
        "num_buckets": pack.num_buckets,
        "metadata_bytes": pack.metadata_bytes,
    }


def _pack_from_json(rec: Dict[str, Any]) -> PackScattered:
    return PackScattered(
        name=rec["name"],
        target=rec["target"],
        stream=rec["stream"],
        num_elements=rec["num_elements"],
        num_buckets=rec["num_buckets"],
        metadata_bytes=rec["metadata_bytes"],
    )


def _launch_to_json(instr: Launch) -> Dict[str, Any]:
    rec: Dict[str, Any] = {
        "kind": (
            "collective_step"
            if isinstance(instr, CollectiveStep)
            else "local_compute"
        ),
        "name": instr.name,
        "kernel": instr.kernel.name,
        "stream": instr.stream,
        "resource": instr.resource,
        "deps": list(instr.deps),
    }
    if isinstance(instr, CollectiveStep) and instr.pack is not None:
        rec["pack"] = _pack_to_json(instr.pack)
    return rec


def _launch_from_json(
    rec: Dict[str, Any], kernels: Dict[str, Kernel]
) -> Launch:
    kernel = kernels[rec["kernel"]]
    if rec["kind"] == "collective_step":
        pack = rec.get("pack")
        return CollectiveStep(
            rec["name"], kernel, rec["stream"], rec["resource"],
            tuple(rec["deps"]),
            _pack_from_json(pack) if pack is not None else None,
        )
    return LocalCompute(
        rec["name"], kernel, rec["stream"], rec["resource"],
        tuple(rec["deps"]),
    )


def _instr_to_json(instr) -> Dict[str, Any]:
    if isinstance(instr, ChunkLoop):
        return {
            "kind": "chunk_loop",
            "name": instr.name,
            "num_chunks": instr.num_chunks,
            "ring": instr.ring,
            "entries": [
                {
                    "instr": _launch_to_json(e.instr),
                    "upstream": e.upstream,
                    "external_deps": list(e.external_deps),
                    "group_deps": list(e.group_deps),
                    "mode": e.mode,
                    "chunk_dim": e.chunk_dim,
                    "bounds": (
                        [list(b) for b in e.bounds]
                        if e.bounds is not None else None
                    ),
                }
                for e in instr.entries
            ],
        }
    if isinstance(instr, PackScattered):
        rec = _pack_to_json(instr)
        rec["kind"] = "pack_scattered"
        return rec
    return _launch_to_json(instr)


def _check_bounds(loop: str, entry: ChunkEntry, num_chunks: int) -> None:
    """A chunked member's bounds must cut its output's per-rank extent
    on ``chunk_dim`` into ``num_chunks`` contiguous, non-empty slices.

    The SPMD ranks publish exactly these slices into a buffer they do
    not otherwise fill, so a bound that falls short would hand the
    consumer uninitialized memory.
    """
    if entry.mode == "whole":
        return
    out, dim = entry.instr.kernel.output, entry.chunk_dim
    bounds = entry.bounds or ()
    extent = (
        _per_rank_extent(out, dim)
        if isinstance(dim, int) and 0 <= dim < len(out.shape) else None
    )
    cuts = [b for pair in bounds for b in pair]  # lo0, hi0, lo1, ...
    if not (
        extent is not None
        and len(bounds) == num_chunks
        and all(len(pair) == 2 and pair[0] < pair[1] for pair in bounds)
        and cuts[:1] == [0]
        and cuts[-1:] == [extent]
        and cuts[1:-1:2] == cuts[2::2]
    ):
        raise ArtifactError(
            f"chunk loop {loop}: member {entry.name} has bounds "
            f"{[list(b) for b in bounds]}, which do not cut its per-rank "
            f"extent {extent} on dim {dim} into {num_chunks} contiguous "
            f"non-empty chunks"
        )


def _instr_from_json(rec: Dict[str, Any], kernels: Dict[str, Kernel]):
    kind = rec["kind"]
    if kind == "chunk_loop":
        entries = [
            ChunkEntry(
                instr=_launch_from_json(er["instr"], kernels),
                upstream=er["upstream"],
                external_deps=tuple(er["external_deps"]),
                group_deps=tuple(er["group_deps"]),
                mode=er["mode"],
                chunk_dim=er["chunk_dim"],
                bounds=(
                    tuple(tuple(b) for b in er["bounds"])
                    if er["bounds"] is not None else None
                ),
            )
            for er in rec["entries"]
        ]
        for entry in entries:
            _check_bounds(rec["name"], entry, rec["num_chunks"])
        return ChunkLoop(
            rec["name"], entries, rec["num_chunks"], rec["ring"]
        )
    if kind == "pack_scattered":
        return _pack_from_json(rec)
    if kind in ("collective_step", "local_compute"):
        return _launch_from_json(rec, kernels)
    raise ArtifactError(f"unknown instruction kind {kind!r} in artifact")


# ---------------------------------------------------------------------------
# Whole-program payload (schema v1).
# ---------------------------------------------------------------------------


def to_payload(lowered: LoweredProgram) -> Dict[str, Any]:
    """The schema-v1 JSON payload of a lowered program."""
    program = lowered.program
    plan = lowered.plan
    order = _graph_order(program, plan)
    idx = {id(e): i for i, e in enumerate(order)}
    return {
        "program": {
            "name": program.name,
            "inputs": [idx[id(t)] for t in program.inputs],
            "outputs": [idx[id(o)] for o in program.outputs],
            "effects": [idx[id(o)] for o in program.effects],
        },
        "exprs": [_expr_to_json(e, idx) for e in order],
        "plan": {
            "kernels": [
                {
                    "name": k.name,
                    "kind": k.kind.value,
                    "exprs": [idx[id(e)] for e in k.exprs],
                    "overlap_group": k.overlap_group,
                }
                for k in plan.kernels
            ],
            "overlap_groups": [list(g) for g in plan.overlap_groups],
        },
        "instructions": [
            _instr_to_json(i) for i in lowered.instructions
        ],
    }


def _load_v1(payload: Dict[str, Any]) -> LoweredProgram:
    by_id: List[Expr] = []
    for rec in payload["exprs"]:
        by_id.append(_expr_from_json(rec, by_id))
    for e, rec in zip(by_id, payload["exprs"]):
        _link_expr(e, rec, by_id)
    prog = payload["program"]
    program = Program(
        prog["name"],
        [by_id[i] for i in prog["inputs"]],
        [by_id[i] for i in prog["outputs"]],
        [by_id[i] for i in prog["effects"]],
    )
    kernels: List[Kernel] = []
    for rec in payload["plan"]["kernels"]:
        kernels.append(
            Kernel(
                rec["name"],
                KernelKind(rec["kind"]),
                tuple(by_id[i] for i in rec["exprs"]),
                rec.get("overlap_group"),
            )
        )
    plan = ExecutionPlan(
        kernels,
        [list(g) for g in payload["plan"]["overlap_groups"]],
    )
    by_name = {k.name: k for k in kernels}
    instructions = [
        _instr_from_json(rec, by_name) for rec in payload["instructions"]
    ]
    return LoweredProgram(program, plan, instructions)


#: schema version -> payload loader. New versions append here; old
#: payloads keep loading through their original loader forever.
_LOADERS: Dict[int, Callable[[Dict[str, Any]], LoweredProgram]] = {
    1: _load_v1,
}


# ---------------------------------------------------------------------------
# Hashes.
# ---------------------------------------------------------------------------


def _canonical(data: Any) -> str:
    return json.dumps(
        data, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def _sha256(text: str) -> str:
    return _HASH_PREFIX + hashlib.sha256(text.encode("utf-8")).hexdigest()


def content_hash(payload: Dict[str, Any]) -> str:
    """SHA-256 of the canonical payload JSON.

    Canonicalization (sorted keys, compact separators) makes the hash
    independent of dict insertion order and of the process that wrote
    the file.
    """
    return _sha256(_canonical(payload))


def structural_signature(lowered: LoweredProgram) -> Tuple:
    """Canonical *name-free* execution structure of a lowered program.

    What actually runs, not how it was reached: two schedules that
    lower to the same launches (kernel kind + member ops + dataflow) in
    the same order with the same chunk-loop structure (members, chunk
    count, ring/tiled shape, chunk modes) are the same candidate. The
    key is deliberately name-free for operations — generated names
    (``slice_p_32``, fused-block names) carry a global counter, so the
    same plan reached via fork-per-move vs. replay would hash
    differently by name. Operations are identified structurally (type,
    salient attributes, output size, dataflow references by plan
    position; program inputs by their stable declared names), and
    instructions reference kernels by plan position. The key contains
    no resource names, so it is also cluster-independent.

    This is the autotuner's dedup key; :func:`structural_hash` digests
    it so artifacts can carry it.
    """
    plan = lowered.plan
    token: Dict[int, int] = {}
    for k in plan.kernels:
        for e in k.exprs:
            token[id(e)] = len(token)

    def ref(x) -> Tuple:
        t = token.get(id(x))
        if t is not None:
            return ("op", t)
        if isinstance(x, Const):
            return ("const", x.value, x.dtype.name)
        return (
            "leaf", x.name, type(x.layout).__name__,
            getattr(x.layout, "dim", None), x.per_rank_bytes(),
        )

    def entry(e) -> Tuple:
        attrs: List[Tuple] = []
        for f in (
            "op", "reduction", "dim", "phase", "node_size",
            "dst", "prob", "seed", "root", "stride", "padding",
        ):
            v = getattr(e, f, None)
            if v is not None:
                attrs.append((f, str(v)))
        if isinstance(e, ops.Cast):
            attrs.append(("dtype", e.dtype.name))
        if isinstance(e, ops.Update):
            attrs.append(("target", ref(e.target)))
        return (
            type(e).__name__,
            tuple(attrs),
            type(e.layout).__name__,
            getattr(e.layout, "dim", None),
            e.per_rank_bytes(),
            (e.group.start, e.group.size),
            tuple(ref(i) for i in e.inputs),
        )

    index = {k.name: i for i, k in enumerate(plan.kernels)}
    kernels = tuple(
        (k.kind.value, tuple(entry(e) for e in k.exprs))
        for k in plan.kernels
    )
    layout: List[Tuple] = []
    for instr in lowered.instructions:
        if isinstance(instr, PackScattered):
            continue  # derived from its fused kernel, no new info
        if isinstance(instr, ChunkLoop):
            layout.append(
                (
                    "chunkloop", instr.num_chunks, instr.ring,
                    tuple(
                        (index[e.name], e.mode)
                        for e in instr.entries
                    ),
                )
            )
        else:
            layout.append(("launch", index[instr.name]))
    return (kernels, tuple(layout))


def _jsonable(x: Any) -> Any:
    if isinstance(x, tuple):
        return [_jsonable(v) for v in x]
    return x


def structural_hash(lowered: LoweredProgram) -> str:
    """SHA-256 of the canonical structural signature."""
    return _sha256(_canonical(_jsonable(structural_signature(lowered))))


# ---------------------------------------------------------------------------
# The artifact object and the save/load/dumps/loads quartet.
# ---------------------------------------------------------------------------


@dataclass
class Artifact:
    """A serialized lowered program plus its identity.

    Every consumer accepts one directly — ``Executor.run_lowered`` /
    ``run_spmd``, ``CodeGenerator.generate``, ``ProgramCostModel`` —
    by reconstructing (and caching) the live :class:`LoweredProgram`
    via :meth:`lowered`.
    """

    schema_version: int
    payload: Dict[str, Any]
    content_hash: str
    structural_hash: str
    _lowered: Optional[LoweredProgram] = field(
        default=None, repr=False, compare=False
    )

    @classmethod
    def from_lowered(cls, lowered: LoweredProgram) -> "Artifact":
        payload = to_payload(lowered)
        return cls(
            schema_version=SCHEMA_VERSION,
            payload=payload,
            content_hash=content_hash(payload),
            structural_hash=structural_hash(lowered),
            _lowered=lowered,
        )

    def lowered(self) -> LoweredProgram:
        """The reconstructed (or originating) live program, cached."""
        if self._lowered is None:
            loader = _LOADERS.get(self.schema_version)
            if loader is None:
                raise ArtifactError(
                    f"unsupported artifact schema version "
                    f"{self.schema_version}; this build reads "
                    f"{sorted(_LOADERS)}"
                )
            self._lowered = loader(self.payload)
        return self._lowered

    @property
    def program(self) -> Program:
        return self.lowered().program

    def dumps(self, indent: Optional[int] = None) -> str:
        """The full artifact document as JSON text."""
        doc = {
            "format": FORMAT,
            "schema_version": self.schema_version,
            "content_hash": self.content_hash,
            "structural_hash": self.structural_hash,
            "payload": self.payload,
        }
        return json.dumps(doc, indent=indent, sort_keys=True) + "\n"

    def save(self, path: str, indent: Optional[int] = 1) -> None:
        with open(path, "w") as f:
            f.write(self.dumps(indent=indent))

    def describe(self) -> str:
        """Human-readable summary: identity, interface, instructions."""
        prog = self.payload["program"]
        exprs = self.payload["exprs"]
        lines = [
            f"artifact: {prog['name']} (schema v{self.schema_version})",
            f"content hash:    {self.content_hash}",
            f"structural hash: {self.structural_hash}",
        ]
        for label, ids in (
            ("inputs", prog["inputs"]), ("outputs", prog["outputs"]),
        ):
            rendered = []
            for i in ids:
                rec = exprs[i]
                dims = ",".join(str(s) for s in rec["shape"])
                rendered.append(f"{rec['name']}({rec['dtype']}, [{dims}])")
            lines.append(f"{label}: {', '.join(rendered)}")
        nkern = len(self.payload["plan"]["kernels"])
        lines.append(f"{nkern} kernels, "
                     f"{len(self.payload['instructions'])} instructions:")
        lines.append(self.lowered().describe())
        return "\n".join(lines)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Artifact)
            and other.content_hash == self.content_hash
        )

    def __hash__(self) -> int:
        return hash(self.content_hash)


def dumps(scheduled, indent: Optional[int] = None) -> str:
    """Serialize a Schedule / Program / LoweredProgram / Artifact."""
    return as_artifact(scheduled).dumps(indent=indent)


def loads(text: str) -> Artifact:
    """Parse an artifact document; verifies format and content hash."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise ArtifactError(f"artifact is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise ArtifactError(
            f"not a {FORMAT} document (format="
            f"{doc.get('format') if isinstance(doc, dict) else None!r})"
        )
    version = doc.get("schema_version")
    if not isinstance(version, int):
        raise ArtifactError("artifact has no integer schema_version")
    if version not in _LOADERS:
        raise ArtifactError(
            f"unsupported artifact schema version {version}; this build "
            f"reads {sorted(_LOADERS)}"
        )
    payload = doc.get("payload")
    if not isinstance(payload, dict):
        raise ArtifactError("artifact has no payload object")
    recorded = doc.get("content_hash")
    actual = content_hash(payload)
    if recorded is not None and recorded != actual:
        raise ArtifactError(
            f"artifact content hash mismatch: recorded {recorded}, "
            f"payload hashes to {actual} — the file was edited or "
            f"corrupted"
        )
    art = Artifact(
        schema_version=version,
        payload=payload,
        content_hash=actual,
        structural_hash=doc.get("structural_hash", ""),
    )
    if not art.structural_hash:
        art.structural_hash = structural_hash(art.lowered())
    return art


def save(scheduled, path: str, indent: Optional[int] = 1) -> Artifact:
    """Serialize to ``path``; returns the :class:`Artifact` written."""
    art = as_artifact(scheduled)
    art.save(path, indent=indent)
    return art


def load(path: str) -> Artifact:
    """Load an artifact file written by :func:`save`."""
    with open(path) as f:
        return loads(f.read())


def as_artifact(scheduled) -> Artifact:
    """Coerce a Schedule / Program / LoweredProgram / Artifact."""
    from repro.core.lower import lower

    if isinstance(scheduled, Artifact):
        return scheduled
    if isinstance(scheduled, LoweredProgram):
        return Artifact.from_lowered(scheduled)
    if hasattr(scheduled, "lowered"):  # Schedule: reuse its lowering cache
        return Artifact.from_lowered(scheduled.lowered())
    return Artifact.from_lowered(lower(scheduled))


__all__ = [
    "FORMAT",
    "SCHEMA_VERSION",
    "Artifact",
    "ArtifactError",
    "as_artifact",
    "content_hash",
    "dumps",
    "load",
    "loads",
    "save",
    "structural_hash",
    "structural_signature",
    "to_payload",
]
