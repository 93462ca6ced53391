"""The autotuner (Section 3.5).

"CoCoNet provides an autotuner to automatically explore the space of
all schedules of a program and return the schedule that provides the
best performance for the underlying architecture and input sizes.
First, the autotuner fuses all pointwise computations up to a
pre-defined threshold to decrease the search space and then
exhaustively explores the schedule space in a breadth first search
manner. Finally, the autotuner generates code for all schedules in its
search space, executes all programs, and returns the schedule with
minimum execution time."

We reproduce exactly that: a BFS over abstract transformation *moves*
(split / reorder / fuse-collective / fuse-send / overlap), every
candidate "executed" on the simulated cluster via the discrete-event
cost model (which itself searches all NCCL protocols and channel
counts), minimum time wins.

The search is *incremental*: each BFS level carries live
:class:`Schedule` objects and forks them per move instead of replaying
every move script from the root; candidates are deduplicated by a
canonical execution-plan signature (kernel structure + overlap groups),
which — unlike the historical order-insensitive sorted-script key —
keeps order-dependent schedules apart; and candidates whose
per-resource cost lower bound already reaches the best time seen are
pruned before the discrete-event run. ``tests/test_tuner_fast.py``
replays every candidate's move script from the root through an
unmemoized cost model on the O(n²) reference engine and checks that
the incremental search returns the same plans and the same times.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.cluster.topology import Cluster
from repro.core import dfg, ops
from repro.core.program import Program
from repro.core.tensor import Const, Expr
from repro.core.transforms import (
    A2ASplitHierarchical,
    AllReduceFuse,
    AllToAllFuse,
    ARSplitRSAG,
    ComputationFuse,
    Schedule,
    SendFuse,
)
from repro.core.transforms.reorder import _check_alltoall_commutes
from repro.core.transforms.plan import FusedBlock, KernelKind
from repro.errors import AutotunerError, TransformError
from repro.perf.program_cost import ProgramCostModel

#: Pointwise fusion threshold: maximal regions larger than this are not
#: fused ("fuses all pointwise computations up to a pre-defined
#: threshold", §3.5).
POINTWISE_FUSION_THRESHOLD = 64

Move = Tuple[str, ...]


@dataclass
class Candidate:
    """One explored schedule with its simulated execution time.

    A ``pruned`` candidate's ``time`` is a *lower bound*: its
    per-resource busy time already reached the best time seen when it
    was evaluated, so the full discrete-event run was skipped — it
    cannot be the best schedule.

    ``schedule`` is normally a live :class:`Schedule`; when a tune was
    answered from a persistent schedule cache it is the stored
    :class:`~repro.core.artifact.Artifact` instead. Both expose
    ``lowered()``, which is the whole surface the executor, the code
    generator and the cost model consume — move scripts are *not*
    replayed on a hit, because generated value names carry a
    process-global counter and would not resolve in a fresh process.
    """

    name: str
    moves: Tuple[Move, ...]
    schedule: Schedule
    time: float
    pruned: bool = False


@dataclass
class TuneResult:
    """Output of one autotuner run.

    ``metrics``, when the tuner was given a metrics registry, is that
    registry — search counters (``tuner.candidates``, ``tuner.pruned``,
    ``tuner.dedup_hits``, ``tuner.transform_errors``) plus the cost
    model's memo statistics (``cost_model.*``).

    ``cached`` is True when the whole search was skipped because a
    persistent schedule cache already held the tuned schedule for this
    ``(structural_hash, topology)`` pair (see :meth:`Autotuner.cache_key`);
    ``cache_key`` carries that pair whenever a cache was consulted.
    """

    best: Candidate
    candidates: List[Candidate]
    elapsed_seconds: float
    metrics: Optional[object] = None
    cached: bool = False
    cache_key: Optional[Tuple[str, str]] = None

    def report(self) -> str:
        lines = [
            f"explored {len(self.candidates)} schedules in "
            f"{self.elapsed_seconds:.2f}s; best = {self.best.name} "
            f"({self.best.time * 1e6:.1f} us)"
        ]
        for c in sorted(self.candidates, key=lambda c: c.time):
            marker = "*" if c is self.best else " "
            bound = ">" if c.pruned else " "
            lines.append(
                f" {marker}{bound}{c.time * 1e6:12.1f} us  {c.name}"
            )
        return "\n".join(lines)


class Autotuner:
    """Breadth-first schedule exploration with DES-based timing.

    ``prune`` enables the cost model's best-so-far lower-bound cutoff.
    """

    def __init__(
        self,
        cluster: Cluster,
        cost_model_factory: Optional[
            Callable[[Cluster], ProgramCostModel]
        ] = None,
        max_depth: int = 4,
        prune: bool = True,
        metrics=None,
        schedule_cache=None,
    ) -> None:
        self.cluster = cluster
        #: optional repro.observe.MetricsRegistry (duck-typed: anything
        #: with inc/set) receiving search and cost-model counters
        self.metrics = metrics
        #: optional repro.serve.ScheduleCache (duck-typed: get/put with
        #: the (structural_hash, topology) pair) consulted before the
        #: search and written through after it — the persistence hook
        #: that makes a tune reusable across processes
        self.schedule_cache = schedule_cache
        self.prune = prune
        self._factory = cost_model_factory or ProgramCostModel
        self.max_depth = max_depth

    # -- move application --------------------------------------------------

    def _fresh(self, program: Program) -> Schedule:
        sched = Schedule(program)
        _fuse_pointwise_regions(sched)
        return sched

    def _apply(self, sched: Schedule, move: Move) -> None:
        kind = move[0]
        if kind == "split":
            ar = sched.program.find(move[1])
            sched.split(ar, ARSplitRSAG)
        elif kind == "a2asplit":
            a2a = sched.program.find(move[1])
            sched.split(
                a2a, A2ASplitHierarchical,
                node_size=self.cluster.node.gpus_per_node,
            )
        elif kind == "a2areorder":
            a2a = sched.program.find(move[1])
            region = _alltoall_reorder_region(sched, a2a)
            if not region:
                raise TransformError("no commuting region for the AllToAll")
            sched.reorder(a2a, *_as_items(sched, region))
        elif kind == "a2afuse":
            a2a = sched.program.find(move[1])
            members = _alltoall_fusion_region(sched, a2a)
            sched.fuse(*members, policy=AllToAllFuse)
        elif kind == "reorder":
            ag = sched.program.find(move[1])
            region = _maximal_reorder_region(sched, ag)
            if not region:
                raise TransformError("no reorderable region")
            sched.reorder(ag, *_as_items(sched, region))
        elif kind == "arfuse":
            rs = sched.program.find(move[1])
            members = _collective_fusion_region(sched, rs)
            sched.fuse(*members, policy=AllReduceFuse)
        elif kind == "sendfuse":
            send = sched.program.find(move[1])
            members = _send_fusion_region(sched, send)
            sched.fuse(*members, policy=SendFuse)
        elif kind == "slice_state":
            # Figure 6b line 6: store updated tensors sliced and remove
            # the AllGathers that restored them.
            applied = False
            for gather in list(sched.program.effects):
                gather = sched.resolve(gather)
                wb = getattr(gather, "writeback", None)
                if wb is None or not wb.layout.is_replicated:
                    continue
                sched.asSlice(wb, dim=gather.dim)
                sched.dead(sched.resolve(gather))
                applied = True
            if not applied:
                raise TransformError("no sliceable optimizer state")
        elif kind == "overlap":
            chain = _overlap_chain(sched)
            if len(chain) < 2:
                raise TransformError("no overlap chain")
            sched.overlap(*chain)
        else:  # pragma: no cover - defensive
            raise AutotunerError(f"unknown move {kind}")

    def _next_moves(self, sched: Schedule, done: Sequence[Move]) -> List[Move]:
        prog = sched.program
        moves: List[Move] = []
        done_kinds = {m[0] for m in done}
        for e in prog.operations:
            if isinstance(e, ops.AllReduce):
                moves.append(("split", e.name))
            if isinstance(e, ops.AllToAll):
                if (
                    self.cluster.spans_nodes()
                    and e.group.size > self.cluster.node.gpus_per_node
                    and ("a2asplit", e.name) not in done
                    and sched._block_of(e) is None
                ):
                    moves.append(("a2asplit", e.name))
                if (
                    ("a2areorder", e.name) not in done
                    and sched._block_of(e) is None
                    and _alltoall_reorder_region(sched, e)
                ):
                    moves.append(("a2areorder", e.name))
            if isinstance(e, (ops.AllToAll, ops.AllToAllPhase)):
                # per-name dedup (unlike arfuse): an MoE program has two
                # exchanges and both may deserve their own fused kernel
                if ("a2afuse", e.name) not in done and sched._block_of(
                    e
                ) is None:
                    try:
                        _alltoall_fusion_region(sched, e)
                        moves.append(("a2afuse", e.name))
                    except TransformError:
                        pass
            if isinstance(e, ops.AllGather) and ("reorder", e.name) not in done:
                if _maximal_reorder_region(sched, e):
                    moves.append(("reorder", e.name))
            if isinstance(e, ops.ReduceScatter) and "arfuse" not in done_kinds:
                try:
                    _collective_fusion_region(sched, e)
                    moves.append(("arfuse", e.name))
                except TransformError:
                    pass
            if isinstance(e, ops.Send) and "sendfuse" not in done_kinds:
                if sched._block_of(e) is None:
                    try:
                        _send_fusion_region(sched, e)
                        moves.append(("sendfuse", e.name))
                    except TransformError:
                        pass
        if "slice_state" not in done_kinds:
            for gather in sched.program.effects:
                wb = getattr(sched.resolve(gather), "writeback", None)
                if wb is not None and wb.layout.is_replicated:
                    moves.append(("slice_state",))
                    break
        if "overlap" not in done_kinds and len(_overlap_chain(sched)) >= 2:
            moves.append(("overlap",))
        return moves

    # -- canonical dedup key ------------------------------------------------

    def _plan_signature(self, sched: Schedule) -> str:
        """Canonical lowered-execution key: what actually runs, not how
        we got there.

        Delegates to :func:`repro.core.artifact.structural_hash` — the
        same name-free structural digest every serialized artifact
        carries — computed on the lowered instruction stream
        (:meth:`Schedule.lowered`, requested with the tuner's cluster so
        the cost model's evaluation reuses the same cache entry; the key
        itself contains no resource names, so it is
        cluster-independent). Two move scripts that lower to the same
        launches (kernel kind + member ops + dataflow) in the same order
        with the same chunk-loop structure are the same candidate — and,
        since all further moves depend only on the current program and
        plan, so are their whole subtrees. Sharing the digest with the
        artifact layer means an on-disk artifact's ``structural_hash``
        *is* the tuner's dedup key for that schedule, which is what lets
        a persistent schedule cache (ROADMAP item 2) be keyed by
        artifact hash.
        """
        from repro.core import artifact

        return artifact.structural_hash(sched.lowered(cluster=self.cluster))

    # -- the search ---------------------------------------------------------

    def cache_key(self, program: Program) -> Tuple[str, str]:
        """The schedule-cache pair a tune of ``program`` is filed under.

        The untransformed program's structural hash, and the topology
        signature extended with the search depth: a record tuned at one
        depth never answers a tune at another.
        """
        return (
            self._plan_signature(Schedule(program)),
            f"{self.cluster.signature()}/max_depth={self.max_depth}",
        )

    def tune(self, program: Program) -> TuneResult:
        """Explore all schedules of ``program``; return the fastest.

        With a ``schedule_cache``, the search is consulted-through: the
        untransformed program's structural hash plus the cluster's
        topology signature key a lookup first (a hit skips the whole
        BFS and returns the stored tuned schedule as an artifact-backed
        candidate), and a miss writes the winning schedule back after
        the search — so the next process submitting the same program
        shape on the same topology never tunes again.

        >>> from repro.cluster.topology import Cluster
        >>> from repro.workloads.adam import AdamWorkload
        >>> result = Autotuner(Cluster(1), max_depth=2).tune(
        ...     AdamWorkload.build(64, 4).program)
        >>> result.best.time <= min(c.time for c in result.candidates)
        True
        >>> result.best.time < result.candidates[0].time  # beats default
        True
        """
        t0 = _time.perf_counter()
        cache = self.schedule_cache
        cache_key: Optional[Tuple[str, str]] = None
        if cache is not None:
            cache_key = self.cache_key(program)
            rec = cache.get(*cache_key)
            if rec is not None:
                if self.metrics is not None:
                    self.metrics.inc("tuner.cache_hits")
                best = Candidate(
                    rec.schedule_name,
                    tuple(tuple(m) for m in rec.moves),
                    rec.artifact,
                    rec.predicted_time,
                )
                return TuneResult(
                    best, [best], _time.perf_counter() - t0,
                    metrics=self.metrics, cached=True, cache_key=cache_key,
                )
            if self.metrics is not None:
                self.metrics.inc("tuner.cache_misses")
        candidates = self._search(program)
        if not candidates:
            raise AutotunerError("no valid schedule found")
        best = min(
            (c for c in candidates if not c.pruned),
            key=lambda c: c.time,
        )
        elapsed = _time.perf_counter() - t0
        if cache is not None:
            from repro.core.artifact import Artifact
            from repro.serve.cache import CachedSchedule

            cache.put(
                CachedSchedule(
                    structural_hash=cache_key[0],
                    topology=cache_key[1],
                    schedule_name=best.name,
                    moves=tuple(tuple(m) for m in best.moves),
                    predicted_time=best.time,
                    tune_seconds=elapsed,
                    candidates_explored=len(candidates),
                    artifact=Artifact.from_lowered(
                        best.schedule.lowered(cluster=self.cluster)
                    ),
                )
            )
        return TuneResult(
            best, candidates, elapsed,
            metrics=self.metrics, cache_key=cache_key,
        )

    def _search(self, program: Program) -> List[Candidate]:
        """BFS over moves; candidates deduplicated by plan signature.

        Each child schedule is a cheap fork of its parent with one
        extra move applied.
        """
        cost = self._factory(self.cluster)
        candidates: List[Candidate] = []
        best_time = float("inf")

        metrics = self.metrics

        def evaluate(name: str, moves: Tuple[Move, ...], sched: Schedule):
            nonlocal best_time
            cutoff = best_time if self.prune else None
            ev = cost.evaluate(sched, cutoff=cutoff)
            candidates.append(
                Candidate(name, moves, sched, ev.time, pruned=ev.pruned)
            )
            if metrics is not None:
                metrics.inc("tuner.candidates")
                if ev.pruned:
                    metrics.inc("tuner.pruned")
            if not ev.pruned and ev.time < best_time:
                best_time = ev.time

        base = Schedule(program)
        evaluate("default", (), base)
        root = self._fresh(program)
        evaluate(_script_name(()), (), root)
        seen: Set[str] = {
            self._plan_signature(base), self._plan_signature(root)
        }

        level: List[Tuple[Schedule, Tuple[Move, ...]]] = [(root, ())]
        while level:
            next_level: List[Tuple[Schedule, Tuple[Move, ...]]] = []
            for sched, moves in level:
                for m in self._next_moves(sched, moves):
                    script = moves + (m,)
                    try:
                        child = sched.fork()
                        self._apply(child, m)
                    except TransformError:
                        if metrics is not None:
                            metrics.inc("tuner.transform_errors")
                        continue
                    sig = self._plan_signature(child)
                    if sig in seen:
                        if metrics is not None:
                            metrics.inc("tuner.dedup_hits")
                        continue
                    seen.add(sig)
                    evaluate(_script_name(script), script, child)
                    if len(script) < self.max_depth:
                        next_level.append((child, script))
            level = next_level
        if metrics is not None and hasattr(cost, "memo_stats"):
            for name, value in cost.memo_stats().items():
                metrics.set(f"cost_model.{name}", value)
        return candidates


# -- region discovery helpers ------------------------------------------------


def _fuse_pointwise_regions(sched: Schedule) -> List[FusedBlock]:
    """Pre-pass: fuse maximal pointwise regions (§3.5).

    Connected (by def-use edges) pointwise operations merge into one
    region via union-find, so an op joining two regions unifies them.
    """
    prog = sched.program
    fusable = [
        e
        for e in prog.operations
        if isinstance(e, (ops.PointwiseOp, ops.Norm, ops.ReduceTensor))
        and not isinstance(e, ops.Slice)
    ]
    if len(fusable) < 2 or len(fusable) > POINTWISE_FUSION_THRESHOLD:
        return []
    parent: Dict[int, int] = {id(e): id(e) for e in fusable}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        parent[find(a)] = find(b)

    fusable_ids = set(parent)
    for e in fusable:
        for i in e.inputs:
            if id(i) in fusable_ids:
                union(id(e), id(i))
    regions: Dict[int, List] = {}
    for e in fusable:
        regions.setdefault(find(id(e)), []).append(e)
    blocks = []
    for region in regions.values():
        if len(region) >= 2:
            try:
                blocks.append(sched.fuse(*region, policy=ComputationFuse))
            except TransformError:
                pass
    return blocks


def _maximal_reorder_region(sched: Schedule, ag: ops.AllGather) -> List:
    """Largest sliceable op region downstream of an AllGather."""
    users = sched.users_map()
    region: List = []
    frontier = list(users.get(ag, []))
    seen = set()
    sliceable = (ops.PointwiseOp, ops.Norm, ops.ReduceTensor, ops.Send)
    while frontier:
        e = frontier.pop()
        if id(e) in seen:
            continue
        seen.add(id(e))
        if not isinstance(e, sliceable) or isinstance(e, ops.Slice):
            return []  # a consumer cannot be sliced -> reorder invalid
        region.append(e)
        frontier.extend(users.get(e, []))
    return region


def _as_items(sched: Schedule, region: Sequence) -> List:
    """Pass fused blocks (not their members) to reorder when present."""
    items: List = []
    seen_blocks = set()
    for e in region:
        b = sched._block_of(e)
        if b is None:
            items.append(e)
        elif id(b) not in seen_blocks:
            seen_blocks.add(id(b))
            items.append(b)
    return items


def _collective_fusion_region(sched: Schedule, rs: ops.ReduceScatter) -> List:
    """RS + sliced computation + AllGathers, for AllReduceFuse."""
    users = sched.users_map()
    members: List = [rs]
    frontier = list(users.get(rs, []))
    seen = {id(rs)}
    found_gather = False
    while frontier:
        e = frontier.pop()
        if id(e) in seen:
            continue
        seen.add(id(e))
        if isinstance(e, ops.AllGather):
            members.append(e)
            found_gather = True
            continue
        if isinstance(e, ops.Send):
            raise TransformError("P2P send cannot join an AllReduceFuse")
        if not isinstance(e, (ops.PointwiseOp, ops.Norm, ops.ReduceTensor)):
            raise TransformError(f"{e.name} cannot join an AllReduceFuse")
        members.append(e)
        frontier.extend(users.get(e, []))
    if not found_gather:
        raise TransformError("no AllGather downstream of the ReduceScatter")
    return _as_items(sched, members)


def _alltoall_reorder_region(sched: Schedule, a2a: ops.AllToAll) -> List:
    """Largest downstream region that commutes with the AllToAll.

    Starts from every transitive consumer and shrinks to a fixpoint:
    an op stays only while it is position-uniform (see the reorder
    transformation) *and* every exchanged-data operand it reads is also
    staying — dropping one op cascades to its consumers, but leaves
    independent branches (a pointwise epilogue feeding a MatMul keeps
    the pointwise part). Joins work regardless of visit order because
    commute checks see the whole candidate set. Empty only if a direct
    consumer of the exchange cannot move, since reorder requires all of
    them in the region.
    """
    prog = sched.program
    if a2a in prog.roots:
        return []
    users = sched.users_map()
    candidates: List = []
    frontier = list(users.get(a2a, []))
    seen = set()
    while frontier:
        e = frontier.pop()
        if id(e) in seen:
            continue
        seen.add(id(e))
        candidates.append(e)
        frontier.extend(users.get(e, []))
    cand_set = set(candidates)

    def rides_exchange(inp) -> bool:
        # an expression depends on the exchange iff it is the exchange
        # or one of its transitive users — all already collected in
        # ``seen`` above, so no per-input reachability walk is needed
        return inp is a2a or id(inp) in seen

    changed = True
    while changed:
        changed = False
        for op in list(cand_set):
            try:
                _check_alltoall_commutes(op, a2a, cand_set)
                ok = all(
                    inp is a2a or inp in cand_set or not rides_exchange(inp)
                    for inp in op.inputs
                )
            except TransformError:
                ok = False
            if not ok:
                cand_set.discard(op)
                changed = True
    if any(u not in cand_set for u in users.get(a2a, [])):
        return []
    return [e for e in candidates if e in cand_set]


def _pointwise_producer_region(
    sched: Schedule, anchor: Expr, what: str
) -> List:
    """Pointwise producers feeding ``anchor``, plus the anchor itself —
    the member set of SendFuse / AllToAllFuse."""
    members: List = []
    frontier = list(anchor.inputs)
    seen = set()
    while frontier:
        e = frontier.pop()
        if id(e) in seen or e.is_leaf:
            continue
        seen.add(id(e))
        if isinstance(e, (ops.PointwiseOp, ops.Norm, ops.ReduceTensor)):
            members.append(e)
            frontier.extend(e.inputs)
    if not members:
        raise TransformError(f"no fusable computation feeds the {what}")
    return _as_items(sched, members) + [anchor]


def _alltoall_fusion_region(sched: Schedule, a2a: Expr) -> List:
    """Pointwise producers + the AllToAll, for AllToAllFuse."""
    return _pointwise_producer_region(sched, a2a, "AllToAll")


def _send_fusion_region(sched: Schedule, send: ops.Send) -> List:
    """Pointwise producers + the Send, for SendFuse."""
    return _pointwise_producer_region(sched, send, "Send")


def _overlap_chain(sched: Schedule) -> List:
    """Find the longest producer→consumer kernel chain worth overlapping.

    Walks the plan's kernels in order, extending the current chain
    whenever the next GEMM / communication / elementwise kernel directly
    consumes the chain tail's output (the MoE pipeline
    dispatch→GEMM→act→GEMM→combine is one such chain; the attention
    MatMul→FusedAllReduce pair is another). A chain is only worth
    overlapping when it spans at least one communication kernel —
    compute-only kernels share the GPU stream and gain nothing.
    """
    plan = sched.plan()
    comm_kinds = (
        KernelKind.COLLECTIVE,
        KernelKind.FUSED_COLLECTIVE,
        KernelKind.P2P,
        KernelKind.FUSED_P2P,
    )
    chain_kinds = comm_kinds + (
        KernelKind.GEMM,
        KernelKind.ELEMENTWISE,
        KernelKind.FUSED_ELEMENTWISE,
    )

    def item_of(k) -> object:
        block = sched._block_of(k.exprs[-1])
        return block if block is not None else k.exprs[0]

    def consumes(k, prev_out) -> bool:
        return any(prev_out in e.inputs for e in k.exprs)

    elementwise = (KernelKind.ELEMENTWISE, KernelKind.FUSED_ELEMENTWISE)

    def trimmed(kernels: List) -> List:
        # A trailing elementwise stage has no communication to hide
        # behind — it only adds chunk-synchronization overhead. Interior
        # elementwise stages (the activation between the MoE GEMMs) stay.
        out = list(kernels)
        while out and out[-1].kind in elementwise:
            out.pop()
        return out

    def score(kernels: List) -> "Tuple[int, int]":
        return (
            len(kernels),
            sum(k.kind in comm_kinds for k in kernels),
        )

    best: List = []
    cur: List = []
    for k in plan.kernels:
        if k.kind not in chain_kinds or (
            len(k.exprs) == 1 and isinstance(k.exprs[0], ops.Slice)
        ):
            cur = []
            continue
        if cur and consumes(k, cur[-1].exprs[-1]):
            cur = cur + [k]
        else:
            cur = [k]
        cand = trimmed(cur)
        if (
            len(cand) >= 2
            and any(x.kind in comm_kinds for x in cand)
            and score(cand) > score(best)
        ):
            best = cand
    return [item_of(k) for k in best]


def _script_name(moves: Sequence[Move]) -> str:
    if not moves:
        return "fused-compute"
    return " ; ".join(
        m[0] if len(m) == 1 else f"{m[0]}({m[1]})" for m in moves
    )
