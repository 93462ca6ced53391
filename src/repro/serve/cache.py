"""Persistent schedule cache: tuned schedules as on-disk records.

The autotuner's dedup key is already a portable identity — the
artifact layer's :func:`~repro.core.artifact.structural_hash`, a
name-free digest of the lowered execution structure that two processes
compute identically for structurally equal programs. This module
promotes that identity to a **persistent tuning cache**: one JSON
record per ``(structural_hash, topology_signature)`` pair, holding the
winning move script and the tuned schedule's full serialized
:class:`~repro.core.artifact.Artifact`, so a schedule tuned once is
served across processes and sessions without re-running the search.

The key has two parts because a tuned schedule is only optimal for the
cluster it was timed on:

* ``structural_hash`` — the *untransformed* program's lowered
  structure (what the tuner's ``default`` candidate hashes to). Two
  users submitting the same (workload, shape, dtype) reach the same
  hash even though their processes generate different value names.
* ``topology_signature`` — :meth:`repro.cluster.topology.Cluster
  .signature`; a DGX-2 pair and a single node tune to different
  schedules, so they occupy different records. The autotuner appends
  its search depth (:meth:`repro.core.autotuner.Autotuner.cache_key`),
  so a record answers only a tune at the depth it was searched at.

``repro-run cache stats`` and ``repro-run cache clear`` inspect and
empty the directory
(``$REPRO_SCHEDULE_CACHE``, default ``~/.cache/repro/schedules``).

Records are written through :mod:`repro.store`, the store the kernel
cache (:mod:`repro.core.codegen.native`) also uses: concurrent writers
of one pair serialize on an ``flock``-guarded lock file, records
install via temp file + ``os.replace`` so readers only ever see
complete documents, and a corrupt or truncated record (disk trouble,
hand editing) is **deleted and treated as a miss** — the tuner simply
runs again — never an error. Hit / miss / corrupt / eviction counters
land in a :class:`~repro.observe.metrics.MetricsRegistry`.

>>> import tempfile
>>> from repro.cluster.topology import Cluster
>>> from repro.core.autotuner import Autotuner
>>> from repro.workloads.adam import AdamWorkload
>>> program = AdamWorkload.build(64, 4).program
>>> with tempfile.TemporaryDirectory() as d:
...     cache = ScheduleCache(d)
...     cold = Autotuner(Cluster(1), max_depth=2,
...                      schedule_cache=cache).tune(program)
...     warm = Autotuner(Cluster(1), max_depth=2,
...                      schedule_cache=cache).tune(program)
...     (cold.cached, warm.cached, len(cache),
...      warm.best.time == cold.best.time)
(False, True, 1, True)
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro import store
from repro.core import artifact as artifact_mod
from repro.core.artifact import Artifact, ArtifactError
from repro.errors import CoCoNetError
from repro.observe.metrics import MetricsRegistry

FORMAT = "coconet-schedule-cache"
SCHEMA_VERSION = 1

__all__ = [
    "FORMAT",
    "SCHEMA_VERSION",
    "CachedSchedule",
    "ScheduleCache",
    "ScheduleCacheError",
    "default_cache_dir",
]


class ScheduleCacheError(CoCoNetError):
    """A schedule-cache record that cannot be written."""


def default_cache_dir() -> str:
    """On-disk schedule cache root (``$REPRO_SCHEDULE_CACHE`` overrides)."""
    return os.path.expanduser(
        os.environ.get("REPRO_SCHEDULE_CACHE")
        or os.path.join("~", ".cache", "repro", "schedules")
    )


@dataclass
class CachedSchedule:
    """One tuned schedule as stored in (or loaded from) the cache.

    ``artifact`` is the tuned schedule's complete serialized lowered
    program — the record is self-sufficient: a process that never built
    the original DSL objects can execute, codegen or cost the schedule
    straight from the cache (``artifact.lowered()``).
    """

    structural_hash: str
    topology: str
    schedule_name: str
    moves: Tuple[Tuple[str, ...], ...]
    predicted_time: float
    tune_seconds: float
    candidates_explored: int
    artifact: Artifact

    def to_json(self) -> Dict[str, Any]:
        return {
            "format": FORMAT,
            "schema_version": SCHEMA_VERSION,
            "structural_hash": self.structural_hash,
            "topology": self.topology,
            "schedule_name": self.schedule_name,
            "moves": [list(m) for m in self.moves],
            "predicted_time": self.predicted_time,
            "tune_seconds": self.tune_seconds,
            "candidates_explored": self.candidates_explored,
            "artifact": json.loads(self.artifact.dumps()),
        }

    @classmethod
    def from_json(cls, doc: Dict[str, Any]) -> "CachedSchedule":
        if doc.get("format") != FORMAT:
            raise ArtifactError(
                f"not a {FORMAT} record (format={doc.get('format')!r})"
            )
        if doc.get("schema_version") != SCHEMA_VERSION:
            raise ArtifactError(
                f"unsupported schedule-cache schema "
                f"{doc.get('schema_version')!r}"
            )
        # artifact.loads re-verifies the embedded content hash, so a
        # tampered payload surfaces as ArtifactError -> treated corrupt
        art = artifact_mod.loads(json.dumps(doc["artifact"]))
        return cls(
            structural_hash=doc["structural_hash"],
            topology=doc["topology"],
            schedule_name=doc["schedule_name"],
            moves=tuple(tuple(m) for m in doc["moves"]),
            predicted_time=float(doc["predicted_time"]),
            tune_seconds=float(doc["tune_seconds"]),
            candidates_explored=int(doc["candidates_explored"]),
            artifact=art,
        )


class ScheduleCache:
    """Content-addressed on-disk cache of tuned schedules.

    One JSON file per ``(structural_hash, topology)`` pair under
    ``path`` (default :func:`default_cache_dir`), named by the SHA-256
    of the pair so keys never touch the filesystem's name rules.
    ``max_entries`` bounds the directory: inserting past the bound
    evicts the oldest records by modification time (a tuned schedule is
    cheap to regenerate — eviction costs one re-tune, never
    correctness).
    """

    def __init__(
        self,
        path: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
        max_entries: Optional[int] = None,
    ) -> None:
        self.path = path or default_cache_dir()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if max_entries is not None and max_entries < 1:
            raise ScheduleCacheError("max_entries must be >= 1")
        self.max_entries = max_entries

    # -- keys ---------------------------------------------------------------

    @staticmethod
    def record_key(structural_hash: str, topology: str) -> str:
        """Filename stem for a cache pair (SHA-256 of both parts)."""
        h = hashlib.sha256()
        h.update(structural_hash.encode("utf-8"))
        h.update(b"\x00")
        h.update(topology.encode("utf-8"))
        return h.hexdigest()

    def record_path(self, structural_hash: str, topology: str) -> str:
        return os.path.join(
            self.path, self.record_key(structural_hash, topology) + ".json"
        )

    # -- read side ----------------------------------------------------------

    def get(
        self, structural_hash: str, topology: str
    ) -> Optional[CachedSchedule]:
        """The cached tuned schedule for the pair, or ``None``.

        Any unreadable record — invalid JSON, wrong format tag, missing
        fields, artifact content-hash mismatch — counts as
        ``serve.cache.corrupt``, is deleted, and reads as a miss.
        """
        path = self.record_path(structural_hash, topology)
        try:
            with open(path) as f:
                text = f.read()
        except OSError:
            self.metrics.inc("serve.cache.misses")
            return None
        try:
            rec = CachedSchedule.from_json(json.loads(text))
            if (
                rec.structural_hash != structural_hash
                or rec.topology != topology
            ):
                raise ArtifactError(
                    "record key fields do not match the requested pair"
                )
        except (ValueError, KeyError, TypeError, ArtifactError):
            self.metrics.inc("serve.cache.corrupt")
            self.metrics.inc("serve.cache.misses")
            store.discard(path)
            return None
        self.metrics.inc("serve.cache.hits")
        return rec

    # -- write side ---------------------------------------------------------

    def put(self, record: CachedSchedule) -> str:
        """Install ``record``; returns the file path written.

        Concurrent writers of the same pair (two processes tuning the
        same signature) serialize on the lock; both produce valid
        records for the same deterministic search, so last-write-wins
        is benign.
        """
        path = self.record_path(record.structural_hash, record.topology)
        text = json.dumps(record.to_json(), sort_keys=True, indent=1) + "\n"

        def write(tmp: str) -> None:
            with open(tmp, "w") as f:
                f.write(text)

        with store.lock(path):
            store.install(path, write)
        self.metrics.inc("serve.cache.puts")
        if self.max_entries is not None:
            self._evict(keep=path)
        return path

    def _evict(self, keep: str) -> None:
        """Drop oldest records past ``max_entries`` (never ``keep``)."""
        live = self._live_entries()
        excess = len(live) - self.max_entries
        for _, path in sorted((st.st_mtime, p) for p, st in live):
            if excess <= 0:
                break
            if os.path.abspath(path) == os.path.abspath(keep):
                continue
            try:
                os.remove(path)
                self.metrics.inc("serve.cache.evictions")
                excess -= 1
            except OSError:
                pass

    # -- maintenance --------------------------------------------------------

    def entries(self) -> List[str]:
        """Paths of every record file currently in the cache."""
        try:
            names = os.listdir(self.path)
        except OSError:
            return []
        return [
            os.path.join(self.path, n)
            for n in sorted(names)
            if n.endswith(".json")
        ]

    def _live_entries(self) -> List[Tuple[str, os.stat_result]]:
        """``(path, stat)`` of every record still on disk.

        Another process's :meth:`clear` or eviction may remove a record
        between the listing and the ``stat``; such records are skipped.
        """
        live = []
        for path in self.entries():
            try:
                live.append((path, os.stat(path)))
            except OSError:
                continue
        return live

    def __len__(self) -> int:
        return len(self.entries())

    def clear(self) -> int:
        """Delete every record (and stray lock/tmp file); returns count."""
        removed = 0
        try:
            names = os.listdir(self.path)
        except OSError:
            return 0
        for n in names:
            if n.endswith((".json", ".lock", ".tmp")):
                try:
                    os.remove(os.path.join(self.path, n))
                    removed += n.endswith(".json")
                except OSError:
                    pass
        return removed

    def stats(self) -> Dict[str, float]:
        """Counter snapshot plus the current entry count and byte size."""
        out = dict(self.metrics.snapshot())
        live = self._live_entries()
        out["serve.cache.entries"] = float(len(live))
        out["serve.cache.bytes"] = float(sum(st.st_size for _, st in live))
        return out
