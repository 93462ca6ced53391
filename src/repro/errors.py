"""Exception hierarchy for the CoCoNet reproduction.

Every user-facing error in the library derives from :class:`CoCoNetError`
so applications can catch one type. Sub-classes mirror the phases of the
system: DSL construction, type/layout inference, transformation validity,
code generation, and simulated execution.
"""

from __future__ import annotations


class CoCoNetError(Exception):
    """Base class for all errors raised by the library."""


class ShapeError(CoCoNetError):
    """Raised when operand shapes are incompatible for an operation."""


class LayoutError(CoCoNetError):
    """Raised when operand distribution layouts are incompatible.

    The paper performs static type checking of layouts (Section 7:
    "The layout information enables CoCoNet to perform static type
    checking of each operation"). This error is the reproduction of a
    failed check.
    """


class DTypeError(CoCoNetError):
    """Raised for invalid or incompatible element datatypes."""


class GroupError(CoCoNetError):
    """Raised for invalid process-group constructions or mismatches."""


class TransformError(CoCoNetError):
    """Raised when a schedule transformation is invalid.

    Section 3 of the paper: "CoCoNet automatically checks the validity of
    each transformation based on these rules and throws an error for an
    invalid transformation."
    """


class CodegenError(CoCoNetError):
    """Raised when code generation cannot handle a program construct."""


class ExecutionError(CoCoNetError):
    """Raised by the simulated runtime when a program cannot be executed."""


class AutotunerError(CoCoNetError):
    """Raised when the autotuner cannot produce any valid schedule."""
