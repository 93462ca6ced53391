"""Programs: the `Execute` construct.

"Execute defines the name, inputs, and outputs of the program"
(Section 2.2, Figure 3 line 15). A :class:`Program` freezes a DFG with a
declared interface and offers the queries the rest of the system uses:
topological op order, pretty printing (which also provides the DSL line
counts of Table 3), and the set of in-place-updated tensors.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core import dfg, ops
from repro.core.tensor import Const, Expr, Scalar, Tensor
from repro.errors import CoCoNetError


class Program:
    """An executable CoCoNet program: named inputs, a DFG, named outputs.

    ``effects`` are operations that must execute for their side effects
    (in-place Updates, or the AllGathers that write an updated value back
    to a replicated tensor) even though no program output depends on
    them. The reorder transformation introduces such gathers; ``dead``
    removes them (Figure 6b line 6).
    """

    def __init__(
        self,
        name: str,
        inputs: Sequence[Expr],
        outputs: Sequence[Expr],
        effects: Sequence[Expr] = (),
    ) -> None:
        self.name = name
        self.inputs: Tuple[Expr, ...] = tuple(inputs)
        self.outputs: Tuple[Expr, ...] = tuple(outputs)
        self.effects: Tuple[Expr, ...] = tuple(effects)
        # a Program's DFG is frozen at construction, so its topological
        # order is computed once; do not mutate the cached lists
        self._topo_cache: "List[Expr] | None" = None
        self._validate()

    def _validate(self) -> None:
        declared = set(self.inputs)
        for leaf in dfg.input_leaves(self.roots):
            if leaf not in declared:
                raise CoCoNetError(
                    f"program {self.name!r} uses undeclared input "
                    f"{leaf.signature()}"
                )
        names = [e.name for e in self.inputs]
        if len(names) != len(set(names)):
            raise CoCoNetError(f"program {self.name!r} has duplicate input names")

    # -- graph queries ------------------------------------------------------

    @property
    def roots(self) -> Tuple[Expr, ...]:
        """Outputs plus side-effect ops: everything that must execute."""
        return self.outputs + self.effects

    def _topological(self) -> List[Expr]:
        if self._topo_cache is None:
            self._topo_cache = dfg.topological(self.roots)
        return self._topo_cache

    @property
    def operations(self) -> List[Expr]:
        """All non-leaf vertices in topological (executable) order."""
        return [e for e in self._topological() if not e.is_leaf]

    @property
    def comm_ops(self) -> List[Expr]:
        return [e for e in self.operations if isinstance(e, ops.CommOp)]

    @property
    def compute_ops(self) -> List[Expr]:
        return [e for e in self.operations if isinstance(e, ops.ComputeOp)]

    def find(self, name: str) -> Expr:
        """Look up a vertex (input or operation) by name."""
        for e in self._topological():
            if e.name == name:
                return e
        for e in self.inputs:
            if e.name == name:
                return e
        raise KeyError(f"no expression named {name!r} in program {self.name!r}")

    # -- printing -----------------------------------------------------------

    def pretty(self) -> str:
        """Render the program as DSL-style source (Figure 3 style)."""
        lines = []
        for t in self.inputs:
            kind = "Scalar" if isinstance(t, Scalar) else "Tensor"
            dims = ", ".join(str(s) for s in t.shape)
            lines.append(
                f"{kind} {t.name}({t.dtype.name}, [{dims}], {t.layout!r}, {t.group!r})"
            )
        for e in self.operations:
            lines.append(f"Var {e.name} = {_render_op(e)}")
        outs = ", ".join(o.name for o in self.outputs)
        ins = ", ".join(i.name for i in self.inputs)
        lines.append(f"Execute {self.name}({{{ins}}}, {{{outs}}})")
        return "\n".join(lines)

    def dsl_line_count(self) -> int:
        """Number of DSL lines (the 'Program in CoCoNet' column of Table 3)."""
        return len(self.pretty().splitlines())

    def __repr__(self) -> str:
        n_comm = len(self.comm_ops)
        n_comp = len(self.compute_ops)
        return (
            f"Program({self.name!r}, {len(self.inputs)} inputs, "
            f"{n_comp} compute + {n_comm} comm ops)"
        )


def _operand(e: Expr) -> str:
    if isinstance(e, Const):
        return f"{e.value:g}"
    return e.name


def _render_op(e: Expr) -> str:
    o = ops
    args = ", ".join(_operand(i) for i in e.inputs)
    if isinstance(e, (o.AllReduce, o.ReduceScatter, o.Reduce, o.ReduceTensor)):
        return f'{type(e).__name__}("{e.reduction}", {args})'
    if isinstance(e, o.Send):
        return f"Send({args}, {e.dst!r})"
    if isinstance(e, o.AllToAllPhase):
        return (
            f"AllToAll{e.phase.capitalize()}({args}, dim={e.dim}, "
            f"node_size={e.node_size})"
        )
    if isinstance(e, o.AllToAll):
        return f"AllToAll({args}, dim={e.dim})"
    if isinstance(e, o.Binary):
        return f"{_operand(e.inputs[0])} {e.op} {_operand(e.inputs[1])}"
    if isinstance(e, o.Unary):
        return f"{e.op.capitalize()}({args})"
    if isinstance(e, o.Dropout):
        return f"Dropout({args}, {e.prob:g})"
    if isinstance(e, o.Slice):
        return f"Slice({args}, dim={e.layout.dim})"
    if isinstance(e, o.Cast):
        return f"Cast({e.dtype.name}, {args})"
    if isinstance(e, o.Update):
        return f"Update({e.target.name}, {args})"
    return f"{type(e).__name__}({args})"


def Execute(
    name: str,
    inputs: Sequence[Expr],
    outputs: Sequence[Expr],
    effects: Sequence[Expr] = (),
) -> Program:
    """Build a :class:`Program`, paper-style:

    ``Execute("self_attention", [w, in_, b, r], [out])``
    """
    return Program(name, inputs, outputs, effects)
