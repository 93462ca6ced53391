"""PyTorch-style integration of generated operations (Section 5.5).

"We integrated CoCoNet generated code as a function to PyTorch's
torch.distributed module. ... We added wrapper functions for calling
CoCoNet generated operations. These wrapper functions prepare the
arguments for calling CoCoNet's operations, which includes
pre-calculating pointers to the buckets for scattered tensors and
clearing the spin-lock buffers for overlapping."

The reproduction provides the same shape: a ``distributed`` module
object on which compiled programs are registered as callable functions;
registration generates the per-rank module once (kept for inspection
and LoC accounting), pre-computes bucket tables for scattered-tensor
arguments, and resets spin-lock state before each invocation. Calls run
the lowered program in-process on the lowered interpreter, which is
bit-identical to the generated module's rank processes and spawns none.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from repro.core.codegen.generator import CodeGenerator, GeneratedSpmdProgram
from repro.core.program import Program
from repro.core.transforms.schedule import Schedule
from repro.errors import CoCoNetError
from repro.runtime.executor import Executor, ProgramResult
from repro.scattered.bucketing import ScatteredTensorSet


class CoCoNetFunction:
    """A compiled CoCoNet program registered with the framework."""

    def __init__(
        self,
        name: str,
        schedule: Schedule,
        protocol: str = "Simple",
    ) -> None:
        self.name = name
        self.schedule = schedule
        self.compiled: GeneratedSpmdProgram = CodeGenerator(
            protocol
        ).generate(schedule)
        self._spinlock_cleared = False
        self._bucket_tables: Dict[str, ScatteredTensorSet] = {}
        self.invocations = 0

    def prepare_scattered(
        self, name: str, tensors: Sequence[np.ndarray]
    ) -> ScatteredTensorSet:
        """Pre-calculate bucket pointers for a scattered argument.

        Done once; the table is reused across invocations ("training
        tasks run for thousands of iterations on the same tensors").
        """
        table = ScatteredTensorSet(tensors)
        self._bucket_tables[name] = table
        return table

    def bucket_table(self, name: str) -> ScatteredTensorSet:
        try:
            return self._bucket_tables[name]
        except KeyError:
            raise CoCoNetError(
                f"no scattered argument {name!r} prepared for {self.name}"
            ) from None

    def _clear_spinlocks(self) -> None:
        """Reset overlap synchronization state before an invocation."""
        self._spinlock_cleared = True

    def __call__(self, inputs: Mapping[str, np.ndarray]) -> ProgramResult:
        self._clear_spinlocks()
        self.invocations += 1
        flat_inputs: Dict[str, np.ndarray] = {}
        for key, value in inputs.items():
            if key in self._bucket_tables:
                flat_inputs[key] = self._bucket_tables[key].gather_flat()
            else:
                flat_inputs[key] = np.asarray(value)
        result = Executor().run_lowered(
            self.compiled.lowered, flat_inputs, allow_downcast=True
        )
        for key, table in self._bucket_tables.items():
            table.scatter_flat(
                np.asarray(result.tensor_state(key)).reshape(-1)
            )
        return result


class DistributedModule:
    """The ``torch.distributed``-like registry of CoCoNet functions."""

    def __init__(self) -> None:
        self._functions: Dict[str, CoCoNetFunction] = {}
        self.nccl_initialized = False

    def init_process_group(self) -> None:
        """Reuse the framework's NCCL initialization logic (§5.5)."""
        self.nccl_initialized = True

    def register(
        self,
        schedule: "Schedule | Program",
        name: Optional[str] = None,
        protocol: str = "Simple",
    ) -> CoCoNetFunction:
        """Compile and register a program; returns the callable."""
        if isinstance(schedule, Program):
            schedule = Schedule(schedule)
        fn_name = name or schedule.program.name
        if fn_name in self._functions:
            raise CoCoNetError(f"function {fn_name!r} already registered")
        fn = CoCoNetFunction(fn_name, schedule, protocol)
        self._functions[fn_name] = fn
        return fn

    def __getattr__(self, name: str) -> CoCoNetFunction:
        functions = self.__dict__.get("_functions", {})
        if name in functions:
            return functions[name]
        raise AttributeError(
            f"no registered CoCoNet function {name!r}; registered: "
            f"{sorted(functions)}"
        )

    def functions(self) -> Sequence[str]:
        return sorted(self._functions)


#: Module-level registry, mirroring ``torch.distributed``.
distributed = DistributedModule()
