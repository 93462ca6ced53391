"""Data-flow graph utilities: traversal, users, and rewriting.

"A CoCoNet program inherits the concept of a data-flow graph (DFG) from
existing machine learning frameworks with operations as vertices and data
dependencies as edges" (Section 2.2). Expressions already form that graph
through their ``inputs`` tuples; this module provides the queries the
transformation system needs — topological order, user maps, reachability
— plus :func:`clone_with_inputs` / :func:`rewrite`, the substitution
machinery every transformation is built on.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Set, Tuple

from repro.core import ops as _ops
from repro.core.tensor import Const, Expr, Scalar, Tensor
from repro.errors import TransformError


def topological(roots: Sequence[Expr]) -> List[Expr]:
    """All expressions reachable from ``roots``, inputs before users."""
    order: List[Expr] = []
    seen: Set[int] = set()

    def visit(e: Expr) -> None:
        if id(e) in seen:
            return
        seen.add(id(e))
        for inp in e.inputs:
            visit(inp)
        order.append(e)

    for r in roots:
        visit(r)
    return order


def reachable(roots: Sequence[Expr]) -> Set[Expr]:
    return set(topological(roots))


def users_map(roots: Sequence[Expr]) -> Dict[Expr, List[Expr]]:
    """Map each expression to the expressions that consume it."""
    users: Dict[Expr, List[Expr]] = {}
    for e in topological(roots):
        users.setdefault(e, [])
        for inp in e.inputs:
            users.setdefault(inp, []).append(e)
    return users


def clone_with_inputs(
    expr: Expr,
    new_inputs: Tuple[Expr, ...],
    leaf_map: "Mapping[Expr, Expr] | None" = None,
) -> Expr:
    """Rebuild an operation vertex with substituted inputs.

    Re-runs shape/layout inference, so a clone whose inputs changed layout
    (e.g. replicated → sliced during reorder) gets a correctly inferred
    output layout. Attribute-carrying ops (Dropout seed, reduction kind,
    roots) keep their attributes — the Dropout seed in particular must
    survive cloning for transformations to be semantics-preserving.

    ``leaf_map`` additionally remaps *non-input* leaf references such as
    an Update's target tensor (needed by ``asSlice``).
    """
    if expr.is_leaf:
        if new_inputs:
            raise TransformError(f"leaf {expr.signature()} takes no inputs")
        return expr
    o = _ops
    if isinstance(expr, o.AllReduce):
        return o.AllReduce(expr.reduction, new_inputs[0], name=expr.name)
    if isinstance(expr, o.ReduceScatter):
        return o.ReduceScatter(
            expr.reduction, new_inputs[0], dim=expr.layout.dim, name=expr.name
        )
    if isinstance(expr, o.AllGather):
        clone = o.AllGather(new_inputs[0], name=expr.name)
        wb = expr.writeback
        if wb is not None and leaf_map is not None:
            wb = leaf_map.get(wb, wb)
        clone.writeback = wb
        return clone
    if isinstance(expr, o.AllToAllPhase):
        return o.AllToAllPhase(
            new_inputs[0], expr.dim, expr.phase, expr.node_size,
            name=expr.name,
        )
    if isinstance(expr, o.AllToAll):
        return o.AllToAll(new_inputs[0], dim=expr.dim, name=expr.name)
    if isinstance(expr, o.Reduce):
        return o.Reduce(expr.reduction, new_inputs[0], root=expr.root, name=expr.name)
    if isinstance(expr, o.Broadcast):
        return o.Broadcast(new_inputs[0], root=expr.root, name=expr.name)
    if isinstance(expr, o.Send):
        return o.Send(new_inputs[0], expr.dst, name=expr.name)
    if isinstance(expr, o.MatMul):
        return o.MatMul(new_inputs[0], new_inputs[1], name=expr.name)
    if isinstance(expr, o.Conv2D):
        return o.Conv2D(
            new_inputs[0],
            new_inputs[1],
            stride=expr.stride,
            padding=expr.padding,
            name=expr.name,
        )
    if isinstance(expr, o.Binary):
        return o.Binary(expr.op, new_inputs[0], new_inputs[1], name=expr.name)
    if isinstance(expr, o.Unary):
        return o.Unary(expr.op, new_inputs[0], name=expr.name)
    if isinstance(expr, o.Dropout):
        return o.Dropout(new_inputs[0], expr.prob, seed=expr.seed, name=expr.name)
    if isinstance(expr, o.Cast):
        return o.Cast(expr.dtype, new_inputs[0], name=expr.name)
    if isinstance(expr, o.Slice):
        return o.Slice(new_inputs[0], expr.layout.dim, name=expr.name)
    if isinstance(expr, o.Norm):
        return o.Norm(new_inputs[0], name=expr.name)
    if isinstance(expr, o.ReduceTensor):
        return o.ReduceTensor(expr.reduction, new_inputs[0], name=expr.name)
    if isinstance(expr, o.Update):
        target = expr.target
        if leaf_map is not None:
            target = leaf_map.get(target, target)
        return o.Update(target, new_inputs[0], name=expr.name)
    raise TransformError(f"cannot clone {type(expr).__name__}")


def rewrite(
    roots: Sequence[Expr],
    mapping: Mapping[Expr, Expr],
    leaf_map: "Mapping[Expr, Expr] | None" = None,
) -> Tuple[List[Expr], Dict[Expr, Expr]]:
    """Rebuild the graph under ``roots`` with substitutions applied.

    ``mapping`` sends old vertices to their replacements. Every vertex
    downstream of a replaced vertex is cloned; untouched vertices are
    shared. Returns the new roots and the complete old→new map (identity
    entries included) so callers can chase any old reference.
    """
    memo: Dict[Expr, Expr] = dict(mapping)

    def rebuild(e: Expr) -> Expr:
        if e in memo:
            return memo[e]
        if e.is_leaf:
            memo[e] = e
            return e
        new_inputs = tuple(rebuild(i) for i in e.inputs)
        unchanged = all(n is old for n, old in zip(new_inputs, e.inputs))
        target_moved = (
            leaf_map is not None
            and isinstance(e, _ops.Update)
            and e.target in leaf_map
        )
        if unchanged and not target_moved:
            memo[e] = e
        else:
            memo[e] = clone_with_inputs(e, new_inputs, leaf_map)
        return memo[e]

    new_roots = [rebuild(r) for r in roots]
    return new_roots, memo


def leaves(roots: Sequence[Expr]) -> List[Expr]:
    """Leaf expressions (Tensors / Scalars / Consts) under ``roots``."""
    return [e for e in topological(roots) if e.is_leaf]


def input_leaves(roots: Sequence[Expr]) -> List[Expr]:
    """Leaves that must be provided as program inputs (non-constants)."""
    return [
        e
        for e in topological(roots)
        if isinstance(e, (Tensor, Scalar)) and not isinstance(e, Const)
    ]


def region_live_outs(
    region: Sequence[Expr], roots: Sequence[Expr]
) -> List[Expr]:
    """Members of ``region`` consumed outside it, or that are program
    outputs / in-place updates — the values a reorder must AllGather."""
    region_set = set(region)
    users = users_map(roots)
    outs: List[Expr] = []
    root_set = set(roots)
    for e in region:
        external = [u for u in users.get(e, []) if u not in region_set]
        if external or e in root_set or isinstance(e, _ops.Update):
            outs.append(e)
    return outs
