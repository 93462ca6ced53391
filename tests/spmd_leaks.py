"""What an SPMD run starts, and must not leave behind in the process
that ran it: a child process, or an fd open on a segment.

Segments are anonymous memfds (``os.memfd_create("spmd-data")`` and
``"spmd-flags"``), never files in ``/dev/shm``. A ``RankPool`` holds
their fds, and its idle ranks, across launches until its ``close()``,
the end of its ``with`` block or its collection; an ``Executor``'s
pool also closes when a ``run_spmd`` call raises.
``/proc/self/fd`` names each one ``/memfd:spmd-<name> (deleted)``.
"""

import os

from repro.runtime import spmd


def spmd_segments():
    """``(fd, link)`` of every fd of this process open on an SPMD
    segment; empty where ``/proc`` is absent."""
    if not os.path.isdir("/proc/self/fd"):  # pragma: no cover - non-Linux
        return []
    found = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            link = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:  # the directory's own fd, closed by now
            continue
        if link.startswith("/memfd:spmd-"):
            found.append((int(fd), link))
    return found


def children():
    """This process's children, zombies included, from ``/proc``."""
    kids = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        if int(stat.rpartition(")")[2].split()[1]) == os.getpid():
            kids.append(int(entry))
    return kids


def count_starts(monkeypatch):
    """The rank processes ``spmd._start`` starts from now on, in order."""
    start, started = spmd._start, []

    def record_start(*args):
        proc, sock = start(*args)
        started.append(proc)
        return proc, sock

    monkeypatch.setattr(spmd, "_start", record_start)
    return started


def watch_sends(monkeypatch, look):
    """Call ``look()`` each time the parent sends a rank its spec, just
    before the send."""
    send = spmd._send

    def watched(*args):
        look()
        return send(*args)

    monkeypatch.setattr(spmd, "_send", watched)
