"""One on-disk store discipline for the kernel and schedule caches.

Both persistent caches — compiled kernels
(:mod:`repro.core.codegen.native`) and tuned schedules
(:mod:`repro.serve.cache`) — keep one file per content key and share
three rules, implemented once here:

* :func:`lock` — writers of one key serialize on an ``flock``-guarded
  ``<key>.lock`` file beside it (a silent no-op without ``fcntl``: the
  atomic rename alone still keeps files complete);
* :func:`install` — the file is written to a temp file in the same
  directory and moved into place with ``os.replace``, so a reader only
  ever sees a complete file;
* :func:`discard` — a corrupt or stale file is deleted, and the caller
  reads it as a miss.

``install`` never takes the lock itself. The kernel loader holds
:func:`lock` across check → load → compile → install, and a second
``flock`` on another descriptor of the same lock file would deadlock
within one process.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
from typing import Callable, Iterator

__all__ = ["lock", "install", "discard"]


@contextlib.contextmanager
def lock(path: str) -> Iterator[None]:
    """Hold an exclusive ``flock`` on ``path + ".lock"``."""
    try:
        import fcntl

        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd = os.open(path + ".lock", os.O_CREAT | os.O_RDWR)
    except (ImportError, OSError):  # pragma: no cover - non-POSIX
        yield
        return
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)  # closing the descriptor releases the lock


def install(path: str, write: Callable[[str], None]) -> None:
    """Atomically install ``path``: ``write(tmp)`` then ``os.replace``.

    ``write`` receives the path of an empty temp file in the target's
    directory and fills it. The temp file never outlives the call.
    """
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    os.close(fd)
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        discard(tmp)


def discard(path: str) -> None:
    """Delete ``path`` if it exists; a file already gone is not an error."""
    try:
        os.remove(path)
    except OSError:
        pass
