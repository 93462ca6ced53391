"""A persistent pool of communicator processes for the property tests.

:class:`CollectivePool` starts ``nranks`` worker processes once, each
attached to one shared-memory communicator, and drives thousands of
direct collective calls through them without paying a process start
per example (see ``tests/test_spmd_collectives.py``). Workers are
started the way ``repro.runtime.spmd.RankPool.launch`` starts ranks: a
plain ``python -c`` process that inherits both segments (memfds) and its
end of a socket pair, over which every message is one pickle: the
pool's own channel (:func:`_send`, :func:`_recv`), since it ships
callables and layouts, which a rank's ``marshal`` messages do not
carry. A pool
of ``plane="pointer"`` attaches each worker to a
:class:`~repro.runtime.rank.PointerCommunicator` instead, whose
collectives take addresses (see :func:`pointer_alltoall`,
:func:`pointer_fold`, :func:`pointer_fold_publication` and
:func:`pointer_allgather`).
"""

from __future__ import annotations

import ctypes
import os
import pickle
import select
import socket
import sys
import time
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.process_group import ProcessGroup
from repro.runtime.collectives import alltoall_moves
from repro.runtime.rank import (
    _ERR_FAILED,
    DEFAULT_TIMEOUT,
    PointerCommunicator,
    SpmdError,
    SpmdLayout,
    SpmdPeerAbort,
    _group_site,
    _p2p_site,
    open_kernels,
)
from repro.runtime.spmd import (
    SpmdCommunicator,
    _reap,
    _segment,
    _start,
)
from repro.runtime.world import slice_of

#: the repository root, so workers can import ``tests.collective_pool``
#: (the callables ``call`` ships are pickled by reference)
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _send(fd: int, obj) -> None:
    """Send ``obj`` over the socket ``fd`` as one message: its pickle,
    which marks its own end."""
    data = memoryview(pickle.dumps(obj, -1))
    while data:
        data = data[os.write(fd, data):]


def _recv(stream):
    """The next :func:`_send` message from ``stream``; ``None`` once the
    peer is gone before a whole one."""
    try:
        return pickle.load(stream)
    except (EOFError, pickle.UnpicklingError, OSError):
        return None


def _pool_worker() -> None:
    """A worker process: ``sys.argv[1]`` is its socket's fd. The first
    message is ``(rank, layout, data_fd, flags_fd, timeout, plane)``;
    each one after it is a call, answered with one reply, until
    ``("stop",)``."""
    sock = socket.socket(fileno=int(sys.argv[1]))
    stream = sock.makefile("rb")
    rank, layout, data_fd, flags_fd, timeout, plane = _recv(stream)
    cls = PointerCommunicator if plane == "pointer" else SpmdCommunicator
    comm = cls.attach(layout, rank, data_fd, flags_fd, timeout=timeout)
    try:
        while True:
            cmd = _recv(stream)
            if cmd is None or cmd[0] == "stop":
                break
            _, method, args, kwargs = cmd
            try:
                if callable(method):
                    result = method(comm, *args, **kwargs)
                else:
                    result = getattr(comm, method)(*args, **kwargs)
                _send(sock.fileno(), ("ok", result))
            except SpmdPeerAbort:  # pragma: no cover - raced abort
                _send(sock.fileno(), ("error", "aborted by peer"))
            except Exception as exc:
                comm.signal_error(_ERR_FAILED)
                _send(sock.fileno(), ("error", f"{type(exc).__name__}: {exc}"))
                # collective state is poisoned; peers saw the error flag
                break
    finally:
        comm.close()
        stream.close()
        sock.close()


def chunked(
    comm: SpmdCommunicator, staging: np.ndarray, group: ProcessGroup,
    chunk_dim: int, bounds, delay: float, method: str, *args, **kwargs,
) -> np.ndarray:
    """The generated GEMM→collective overlap on one rank (§5.3).

    A producer stream releases ``staging`` chunk by chunk along
    ``chunk_dim``, ``delay`` seconds late, into a NaN-filled ``out``
    buffer, and ``comm.<method>(out, group, *args, **kwargs)`` consumes
    the group's chunked publication with ``out`` as its operand.
    """
    out = np.full_like(staging, np.nan)
    token = comm.begin_chunked(group, staging, chunk_dim, bounds)

    def produce():
        time.sleep(delay)
        comm.publish_chunks(token, out=out)

    producer = comm.start_stream(produce)
    try:
        return getattr(comm, method)(out, group, *args, **kwargs)
    finally:
        comm.join_streams(producer)


def gather_into_own_row(
    comm: SpmdCommunicator, x: np.ndarray, group: ProcessGroup, dim: int
) -> np.ndarray:
    """``comm.allgather`` into a NaN-filled ``out`` whose own row holds
    ``x`` and is the operand itself, a view of ``out`` (as the native
    Adam module gathers ``p_`` into ``p``)."""
    n = group.size
    shape = list(x.shape)
    shape[dim] *= n
    out = np.full(shape, np.nan, x.dtype)
    own = slice_of(out, dim, group.local_rank(comm.rank), n)
    own[...] = x
    assert comm.allgather(own, group, dim, out=out) is out
    return out


def pointer_alltoall(
    comm: PointerCommunicator, x: np.ndarray, group: ProcessGroup,
    phase: Optional[str] = None, node_size: Optional[int] = None,
) -> np.ndarray:
    """``comm.alltoall`` of ``x`` along dim 0 on the pointer plane, as a
    pointer module calls it: the operand at an address of its own and
    this rank's row of the move table, in global ranks."""
    x = np.ascontiguousarray(x)
    moves = [
        (group.global_rank(p), s, d) for p, s, d in alltoall_moves(
            group, group.local_rank(comm.rank), phase, node_size
        )
    ]
    out = comm.alltoall(
        comm.copy(x.ctypes.data, x.nbytes), group.ranks, x.nbytes, moves
    )
    return np.frombuffer(
        ctypes.string_at(out, x.nbytes), x.dtype
    ).reshape(x.shape)


def _read(address: int, dtype, shape) -> np.ndarray:
    """A copy of the ``dtype`` array of ``shape`` at ``address``."""
    nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
    return np.frombuffer(
        ctypes.string_at(address, nbytes), dtype
    ).reshape(shape)


def bind_kernels(
    comm: PointerCommunicator, key: str, path: str, functions
) -> None:
    """Open the kernel object at ``path`` as ``comm``'s kernels, as a
    rank does before its body runs, so its folds can call the helpers."""
    comm.kernels = open_kernels(key, path, functions)
    assert comm.kernels is not None, path


def pointer_fold(
    comm: PointerCommunicator, x: np.ndarray, group: ProcessGroup,
    method: str, fold: str, dtype,
) -> np.ndarray:
    """``comm.allreduce`` or ``comm.reducescatter`` (``method``) of
    ``x`` on the pointer plane, as a pointer module calls it: the
    operand at an address of its own, folded by C helper ``fold`` into
    a ``dtype`` result (this rank's dim-0 shard, for a ReduceScatter)."""
    return pointer_fold_publication(comm, x, group, method, fold, dtype)[0]


#: the byte a fold's own slot is filled with before it runs
SENTINEL = 0xA5


def pointer_fold_publication(
    comm: PointerCommunicator, x: np.ndarray, group: ProcessGroup,
    method: str, fold: str, dtype, chunks: int = 0,
) -> Tuple[np.ndarray, List[int], bytes]:
    """:func:`pointer_fold` with this rank's slot first filled with
    :data:`SENTINEL` bytes and, given ``chunks``, ``x`` released first as
    a pending chunked publication of that many dim-0 chunks (§5.3).
    Returns the result, the sizes of the buffers the collective
    allocated and the slot's first ``x.nbytes`` bytes after it."""
    x = np.ascontiguousarray(x)
    shape = x.shape
    if method == "reducescatter":
        shape = (shape[0] // group.size,) + shape[1:]
    count = int(np.prod(shape))
    slot, size = comm._slot(_group_site(group.ranks), comm.rank)
    ctypes.memset(slot, SENTINEL, size)
    operand = comm.copy(x.ctypes.data, x.nbytes)
    if chunks:
        step = x.nbytes // chunks
        comm.publish_chunks(comm.begin_chunked(
            group.ranks, operand, x.nbytes,
            [((c * step, step),) for c in range(chunks)],
        ))
    sizes = []
    alloc = comm.alloc

    def counted(nbytes: int) -> int:
        sizes.append(nbytes)
        return alloc(nbytes)

    comm.alloc = counted
    try:
        out = getattr(comm, method)(
            operand, group.ranks, x.nbytes, fold, count,
            count * np.dtype(dtype).itemsize,
        )
    finally:
        del comm.alloc
    return _read(out, dtype, shape), sizes, ctypes.string_at(slot, x.nbytes)


def pointer_allgather(
    comm: PointerCommunicator, x: np.ndarray, group: ProcessGroup,
    own_row: bool = False,
) -> np.ndarray:
    """``comm.allgather`` of ``x`` along dim 0 on the pointer plane:
    into a new buffer, or with ``own_row`` into a NaN-filled one whose
    own row holds ``x`` and is the operand itself (as
    :func:`gather_into_own_row`, and the pointer Adam, gather)."""
    x = np.ascontiguousarray(x)
    n, i = group.size, group.local_rank(comm.rank)
    shape = (x.shape[0] * n,) + x.shape[1:]
    if own_row:
        full = np.full(shape, np.nan, x.dtype)
        out = comm.copy(full.ctypes.data, full.nbytes)
        operand = out + i * x.nbytes
        ctypes.memmove(operand, x.ctypes.data, x.nbytes)
        assert comm.allgather(operand, group.ranks, x.nbytes, out=out) == out
    else:
        operand = comm.copy(x.ctypes.data, x.nbytes)
        out = comm.allgather(operand, group.ranks, x.nbytes)
    return _read(out, x.dtype, shape)


class CollectivePool:
    """``nranks`` persistent worker processes for direct collective calls.

    ``call`` broadcasts one method invocation to every worker (each
    receives its own row of the stacked input) and returns the per-rank
    results in rank order; a callable ``method`` is called as
    ``method(comm, *args)``. ``pairs`` adds a point-to-point site per
    ``(src, dst)``, so ``send``/``recv`` can run on the pool. ``plane``
    is the workers' data plane, ``"numpy"`` or ``"pointer"``.
    """

    def __init__(
        self,
        nranks: int,
        slot_bytes: int = 1 << 20,
        timeout: float = DEFAULT_TIMEOUT,
        pairs: Sequence[Tuple[int, int]] = (),
        plane: str = "numpy",
    ) -> None:
        self.nranks = nranks
        self.timeout = float(timeout)
        layout = SpmdLayout(nranks)
        layout.add_site(
            _group_site(range(nranks)), range(nranks), slot_bytes,
        )
        for src, dst in pairs:
            layout.add_site(_p2p_site(src, dst), (src, dst), slot_bytes)
        layout.freeze()
        self.layout = layout
        self._fds = [
            _segment("spmdpool-data", layout.data_size),
            _segment("spmdpool-flags", layout.flags_bytes()),
        ]
        entry = (
            f"import sys; sys.path.insert(0, {_REPO_ROOT!r}); "
            "from tests.collective_pool import _pool_worker; _pool_worker()"
        )
        self._procs = []
        self._socks = []
        self._streams = []
        for r in range(nranks):
            proc, sock = _start(entry, self._fds)
            self._procs.append(proc)
            self._socks.append(sock)
            self._streams.append(sock.makefile("rb"))
            _send(sock.fileno(), (r, layout, *self._fds, timeout, plane))

    def call(
        self, method: Union[str, Sequence[str]],
        per_rank_args: Sequence[tuple], kwargs: Optional[dict] = None,
    ) -> List[np.ndarray]:
        """Invoke ``method`` on every worker; per-rank positional args.

        ``method`` is one name (or module-level function) for every
        rank, or one name per rank.
        """
        kwargs = kwargs or {}
        if isinstance(method, str) or callable(method):
            method = [method] * self.nranks
        for sock, name, args in zip(self._socks, method, per_rank_args):
            _send(sock.fileno(), ("call", name, args, kwargs))
        out = []
        errors = []
        for r, (sock, stream) in enumerate(zip(self._socks, self._streams)):
            if not select.select([sock], [], [], self.timeout)[0]:
                errors.append(f"rank {r}: no reply")
                continue
            reply = _recv(stream)
            if reply is None:
                errors.append(f"rank {r}: died")
            elif reply[0] == "ok":
                out.append(reply[1])
            else:
                errors.append(f"rank {r}: {reply[1]}")
        if errors:
            raise SpmdError("; ".join(errors))
        return out

    def close(self) -> None:
        for sock in self._socks:
            try:
                _send(sock.fileno(), ("stop",))
            except OSError:
                pass
        _reap(self._procs)
        for stream, sock in zip(self._streams, self._socks):
            stream.close()
            sock.close()
        for fd in self._fds:
            os.close(fd)
