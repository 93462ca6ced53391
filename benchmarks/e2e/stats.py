"""Timing and memory helpers of the end-to-end benchmark.

* :func:`summarize` — median, quartiles and sample count of a list of
  measurements, with the quartiles ``statistics.quantiles(n=4)`` gives.
* :func:`timed_call` / :func:`closed_loop` — a closed loop with one
  client: the next call starts only after the previous one returned and
  its result was checked. Only the call is timed; the check is not.
* :func:`bare_launch_s` — the machine's speed at the moment, as the
  wall time of starting two bare interpreters side by side.
* :class:`RssSampler` — summed resident memory of a process and all
  its descendants, sampled from ``/proc`` on a background thread.
  ``getrusage(RUSAGE_CHILDREN)`` is not used: Linux carries
  ``ru_maxrss`` across ``fork`` and ``exec``, so it overstates processes
  that spawn interpreters.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """``{"median", "p25", "p75", "n"}`` of at least one value."""
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("summarize() needs at least one value")
    if len(vals) == 1:
        q1 = q3 = vals[0]
    else:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    return {
        "median": statistics.median(vals), "p25": q1, "p75": q3,
        "n": len(vals),
    }


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    s = summarize(values)
    return (s["p75"] - s["p25"]) / abs(s["median"]) if s["median"] else 0.0


def bare_launch_s() -> float:
    """Wall time of two interpreters that import numpy and exit.

    Both start at once, as a 2-rank launch starts its ranks. No
    ``repro`` code runs, so no change to the program moves it; a
    slower or busier machine does, as it moves the steps.
    """
    t0 = time.perf_counter()
    procs = [
        subprocess.Popen([sys.executable, "-c", "import numpy"])
        for _ in range(2)
    ]
    codes = [p.wait() for p in procs]
    if any(codes):
        raise RuntimeError(f"bare interpreter exited with {codes}")
    return time.perf_counter() - t0


@dataclass
class LoopResult:
    """Per-call times of the calls that passed, and the failure count.

    ``reference`` holds one reading of the loop's ``reference``
    callable per call, whether the call passed or not.
    """

    times: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    reference: List[float] = field(default_factory=list)


def timed_call(run: Callable[[], object], check: Callable[[object], bool]):
    """``(seconds, result, error)`` of one call of ``run``.

    ``run`` is timed; ``check(result)`` runs after the clock stopped.
    ``error`` is ``None`` when the call returned and passed the check,
    else a one-line reason (``result`` is ``None`` if the call raised).
    """
    t0 = time.perf_counter()
    try:
        result = run()
    except Exception as exc:  # noqa: BLE001 - a failed step is counted
        reason = str(exc).splitlines()[0] if str(exc) else ""
        return time.perf_counter() - t0, None, (
            f"{type(exc).__name__}: {reason}"
        )
    seconds = time.perf_counter() - t0
    if not check(result):
        return seconds, result, "output check failed"
    return seconds, result, None


def closed_loop(
    run: Callable[[], object],
    check: Callable[[object], bool],
    *,
    count: Optional[int] = None,
    seconds: Optional[float] = None,
    reference: Optional[Callable[[], float]] = None,
) -> LoopResult:
    """Call ``run`` back to back, ``count`` times or for ``seconds``.

    With ``seconds`` the loop keeps starting calls until that much wall
    time (checks included) has passed, and makes at least one call.
    ``reference``, when given, is called just before each call and its
    result kept, so a measure of the machine alternates with the calls.
    Warm-up is a first loop whose times the caller discards.
    """
    if (count is None) == (seconds is None):
        raise ValueError("give exactly one of count= and seconds=")
    out = LoopResult()
    deadline = None if seconds is None else time.perf_counter() + seconds
    while True:
        if count is not None and out.attempted >= count:
            break
        if deadline is not None and out.attempted and (
            time.perf_counter() >= deadline
        ):
            break
        if reference is not None:
            out.reference.append(reference())
        dt, _, error = timed_call(run, check)
        out.attempted += 1
        if error is None:
            out.times.append(dt)
        else:
            out.failed += 1
            out.errors.append(error)
    return out


# ---------------------------------------------------------------------------
# Resident memory of a process tree, from /proc.
# ---------------------------------------------------------------------------

_PAGE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def proc_table() -> Dict[int, Tuple[str, int, int]]:
    """pid -> (state, parent pid, process group) of every process."""
    table: Dict[int, Tuple[str, int, int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:  # the process ended while we looked
            continue
        # the command name may hold spaces and parentheses: the fields
        # after its closing parenthesis are state, ppid, pgrp, ...
        state, ppid, pgrp = stat.rpartition(")")[2].split()[:3]
        table[int(entry)] = (state, int(ppid), int(pgrp))
    return table


def process_tree(root: int) -> List[int]:
    """``root`` and every descendant of it."""
    children: Dict[int, List[int]] = {}
    for pid, (_, ppid, _) in proc_table().items():
        children.setdefault(ppid, []).append(pid)
    tree, todo = [], [root]
    while todo:
        pid = todo.pop()
        tree.append(pid)
        todo.extend(children.get(pid, ()))
    return tree


def tree_rss_bytes(root: int) -> int:
    """Summed resident set size of ``root`` and its descendants."""
    total = 0
    for pid in process_tree(root):
        try:
            with open(f"/proc/{pid}/statm") as f:
                total += int(f.read().split()[1]) * _PAGE
        except (OSError, IndexError, ValueError):
            continue
    return total


class RssSampler:
    """Samples :func:`tree_rss_bytes` every ``interval`` seconds.

    ``start(pid)`` begins sampling on a daemon thread, ``stop()`` ends
    it; ``samples`` holds every reading, in bytes.
    """

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        self.samples: List[int] = []
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self, pid: int) -> None:
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, args=(pid,), daemon=True
        )
        self._thread.start()

    def _run(self, pid: int) -> None:
        while True:
            self.samples.append(tree_rss_bytes(pid))
            if self._stop.wait(self.interval):
                return

    def stop(self) -> None:
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            self._thread = None
