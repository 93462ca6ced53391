"""A persistent pool of communicator processes for the property tests.

:class:`CollectivePool` starts ``nranks`` worker processes once, each
attached to one shared-memory communicator, and drives thousands of
direct collective calls through them without paying a process spawn
per example (see ``tests/test_spmd_collectives.py``).
"""

from __future__ import annotations

import time
import uuid
from multiprocessing import get_context
from multiprocessing.shared_memory import SharedMemory
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.process_group import ProcessGroup
from repro.runtime.spmd import (
    _ERR_FAILED,
    DEFAULT_TIMEOUT,
    SpmdCommunicator,
    SpmdError,
    SpmdLayout,
    SpmdPeerAbort,
    _group_key,
    _p2p_key,
)


def _pool_worker(
    rank: int,
    layout: SpmdLayout,
    data_name: str,
    flags_name: str,
    timeout: float,
    conn,
) -> None:
    comm = None
    try:
        comm = SpmdCommunicator.attach(
            layout, rank, data_name, flags_name, 0.0, timeout
        )
        while True:
            cmd = conn.recv()
            if cmd[0] == "stop":
                break
            _, method, args, kwargs = cmd
            try:
                if callable(method):
                    result = method(comm, *args, **kwargs)
                else:
                    result = getattr(comm, method)(*args, **kwargs)
                conn.send(("ok", result))
            except SpmdPeerAbort:  # pragma: no cover - raced abort
                conn.send(("error", "aborted by peer"))
            except Exception as exc:
                comm.signal_error(_ERR_FAILED)
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
                # collective state is poisoned; peers saw the error flag
                break
    finally:
        if comm is not None:
            comm.close()
        conn.close()


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


class CollectivePool:
    """``nranks`` persistent worker processes for direct collective calls.

    ``call`` broadcasts one method invocation to every worker (each
    receives its own row of the stacked input) and returns the per-rank
    results in rank order; a callable ``method`` is called as
    ``method(comm, *args)``. ``pairs`` adds a point-to-point site per
    ``(src, dst)``, so ``send``/``recv`` can run on the pool.
    """

    def __init__(
        self,
        nranks: int,
        slot_bytes: int = 1 << 20,
        timeout: float = DEFAULT_TIMEOUT,
        pairs: Sequence[Tuple[int, int]] = (),
    ) -> None:
        self.nranks = nranks
        self.timeout = float(timeout)
        layout = SpmdLayout(nranks)
        layout.add_site(
            _group_key(ProcessGroup(0, nranks, nranks)),
            range(nranks),
            slot_bytes,
        )
        for src, dst in pairs:
            layout.add_site(_p2p_key(src, dst), (src, dst), slot_bytes)
        layout.freeze()
        self.layout = layout
        uid = uuid.uuid4().hex[:8]
        self._data = SharedMemory(
            create=True, size=layout.data_size,
            name=f"spmdpool_{uid}_d",
        )
        self._flags = SharedMemory(
            create=True, size=layout.flags_length() * 8,
            name=f"spmdpool_{uid}_f",
        )
        np.ndarray(
            (layout.flags_length(),), dtype=np.int64, buffer=self._flags.buf
        ).fill(0)
        ctx = get_context("spawn")
        self._procs = []
        self._conns = []
        for r in range(nranks):
            parent_conn, child_conn = ctx.Pipe()
            p = ctx.Process(
                target=_pool_worker,
                args=(
                    r, layout, self._data.name, self._flags.name,
                    timeout, child_conn,
                ),
                daemon=True,
            )
            p.start()
            child_conn.close()
            self._procs.append(p)
            self._conns.append(parent_conn)

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
        for conn, name, args in zip(self._conns, method, per_rank_args):
            conn.send(("call", name, args, kwargs))
        out = []
        errors = []
        for r, conn in enumerate(self._conns):
            if not conn.poll(self.timeout):
                errors.append(f"rank {r}: no reply")
                continue
            status, payload = conn.recv()
            if status == "ok":
                out.append(payload)
            else:
                errors.append(f"rank {r}: {payload}")
        if errors:
            raise SpmdError("; ".join(errors))
        return out

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for p in self._procs:
            p.join(timeout=5.0)
            if p.is_alive():  # pragma: no cover
                p.terminate()
                p.join(timeout=5.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        for shm in (self._data, self._flags):
            try:
                shm.close()
            finally:
                try:
                    shm.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass
