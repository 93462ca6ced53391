"""Process groups: RANK, GROUP, and WORLD.

The paper follows MPI terminology (Section 2): "RANK is the process ID of
a distributed process, GROUP is a set of concurrent distributed processes,
and WORLD is the GROUP that includes all processes. CoCoNet supports
dividing consecutive ranks into one or more process groups."

A :class:`ProcessGroup` is an immutable, contiguous range of global ranks.
The symbolic placeholders :data:`RANK` and :data:`GROUP` stand for "the
executing process" and "its group" inside DSL programs; they are resolved
to concrete values by the runtime.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import GroupError

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only: a rank does not import typing
    from typing import Iterator, Sequence


@dataclass(frozen=True)
class ProcessGroup:
    """A contiguous set of global ranks ``[start, start + size)``.

    ``world_size`` records the total number of ranks in WORLD, so that a
    group knows its position in the global space (needed by pipeline
    parallelism where a program addresses "GROUP + 1").
    """

    start: int
    size: int
    world_size: int

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise GroupError(f"group size must be positive, got {self.size}")
        if self.start < 0:
            raise GroupError(f"group start must be non-negative, got {self.start}")
        if self.start + self.size > self.world_size:
            raise GroupError(
                f"group [{self.start}, {self.start + self.size}) exceeds "
                f"world of {self.world_size} ranks"
            )

    @property
    def ranks(self) -> range:
        """Global ranks belonging to this group."""
        return range(self.start, self.start + self.size)

    @property
    def index(self) -> int:
        """Index of this group when WORLD is split into equal groups."""
        return self.start // self.size

    def __iter__(self) -> Iterator[int]:
        return iter(self.ranks)

    def __len__(self) -> int:
        return self.size

    def __contains__(self, rank: int) -> bool:
        return self.start <= rank < self.start + self.size

    def local_rank(self, global_rank: int) -> int:
        """Translate a global rank into this group's local rank."""
        if global_rank not in self:
            raise GroupError(f"rank {global_rank} is not in group {self}")
        return global_rank - self.start

    def global_rank(self, local_rank: int) -> int:
        """Translate a local rank in this group into a global rank."""
        if not 0 <= local_rank < self.size:
            raise GroupError(
                f"local rank {local_rank} out of range for group of {self.size}"
            )
        return self.start + local_rank

    def next_group(self, offset: int = 1) -> "ProcessGroup":
        """Return the group ``offset`` positions after this one.

        Used by pipeline parallelism: ``GroupRank(GROUP + 1, RANK)`` in
        Figure 8a addresses the same local rank in the next group.
        """
        new_start = self.start + offset * self.size
        if not 0 <= new_start <= self.world_size - self.size:
            raise GroupError(
                f"group offset {offset} from start {self.start} leaves world "
                f"of {self.world_size} ranks"
            )
        return ProcessGroup(new_start, self.size, self.world_size)

    def __repr__(self) -> str:
        if self.size == self.world_size:
            return f"WORLD({self.world_size})"
        return f"Group(ranks={self.start}..{self.start + self.size - 1})"


def world(num_ranks: int) -> ProcessGroup:
    """Create the WORLD group over ``num_ranks`` processes."""
    return ProcessGroup(0, num_ranks, num_ranks)


def split_world(num_ranks: int, num_groups: int) -> Sequence[ProcessGroup]:
    """Divide consecutive ranks of a world into ``num_groups`` equal groups."""
    if num_ranks % num_groups != 0:
        raise GroupError(
            f"cannot split {num_ranks} ranks into {num_groups} equal groups"
        )
    size = num_ranks // num_groups
    return tuple(
        ProcessGroup(g * size, size, num_ranks) for g in range(num_groups)
    )


class _SymbolicRank:
    """Placeholder for 'the rank executing this program'.

    DSL programs are rank-agnostic: the same program text runs on every
    rank, with RANK resolving to that process's ID at execution time
    (exactly like the paper's C++ ``RANK`` constant).
    """

    _instance: "_SymbolicRank | None" = None

    def __new__(cls) -> "_SymbolicRank":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "RANK"


RANK = _SymbolicRank()
