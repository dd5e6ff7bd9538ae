"""Append-only history log: the concurrent heart of the provider store.

The paper's vision makes the execution history a *shared, provider-side*
artifact — "the cloud is a centralized place that keeps a record of the
workloads' execution history across users" — which means the store must
survive many tenants appending and querying at once.  A mutable list
behind a lock would serialize every reader against every writer; this
module instead structures the history the way log-structured systems do:

* **Append-only segments.**  Writers only ever append to a small
  *active* segment under a short lock.  When the active segment reaches
  ``segment_records`` entries it is *sealed* into an immutable tuple and
  a fresh active segment starts.  Sealed segments are never mutated.
* **Periodic snapshot compaction.**  Once ``compact_after`` sealed
  segments accumulate, they are merged into a single flat tuple (the
  *compacted base*).  Compaction never blocks readers: it builds the
  merged tuple and swaps it in atomically; any snapshot taken before
  the swap keeps referencing the old (still-immutable) segments.
* **Lock-free concurrent readers.**  :meth:`snapshot` returns one
  immutable tuple of every record in append order.  The tuple is cached
  per log version and re-read without taking the writer lock: readers
  observe a *consistent prefix* of the log — never a torn state —
  because all published containers are immutable and the version/cache
  swap is a single attribute store (atomic under the CPython memory
  model).  Writers pay the concatenation cost at most once per version.

Record identity (``record_id``) and the provider's logical clock
(``timestamp``) are allocated inside the writer lock, so concurrent
appends can never collide — the property the multi-tenant service layer
(:mod:`repro.core.serviced`) depends on.

:class:`~repro.core.history.HistoryStore` keeps its familiar query API
as a thin *view* over one of these logs; everything downstream
(similarity, transfer, SLO references, persistence) is unchanged.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from ..config.space import Configuration

__all__ = ["ExecutionRecord", "HistoryLog", "readonly_signature"]


@dataclass(frozen=True, slots=True)
class ExecutionRecord:
    """One workload execution as the provider sees it.

    Records are immutable log entries: once appended they are shared
    freely with concurrent readers, so every field must stay frozen —
    including the signature array, which the log stores as a read-only
    copy (see :func:`readonly_signature`).  The log holds every record
    for the provider's lifetime, so they carry ``__slots__`` instead of
    a per-instance ``__dict__``.
    """

    record_id: int
    tenant: str
    workload_label: str          # tenant-scoped opaque label
    input_mb: float
    cluster: str                 # e.g. "4x h1.4xlarge (aws)"
    config: Configuration
    runtime_s: float
    success: bool
    signature: np.ndarray        # workload characterization vector
    #: logical timestamp (provider-side event counter)
    timestamp: int = 0

    @property
    def key(self) -> tuple[str, str]:
        return (self.tenant, self.workload_label)


def readonly_signature(signature: np.ndarray) -> np.ndarray:
    """A defensive, immutable copy of a characterization vector.

    The log stores records forever and hands them to concurrent readers;
    an aliased caller array mutated after insertion would silently change
    past query answers (mean signatures, similarity distances).  Every
    signature therefore enters the log as a fresh read-only copy.
    """
    sig = np.array(signature, dtype=float, copy=True)
    sig.setflags(write=False)
    return sig


class HistoryLog:
    """Append-only execution log with sealed segments and compaction.

    Parameters
    ----------
    segment_records:
        Appends per segment before it is sealed immutable.
    compact_after:
        Sealed segments tolerated before they are merged into the
        compacted base tuple.
    """

    def __init__(self, segment_records: int = 1024, compact_after: int = 8):
        if segment_records < 1:
            raise ValueError("segment_records must be >= 1")
        if compact_after < 1:
            raise ValueError("compact_after must be >= 1")
        self.segment_records = segment_records
        self.compact_after = compact_after
        self._lock = threading.Lock()
        self._base: tuple[ExecutionRecord, ...] = ()      # compacted prefix
        self._sealed: tuple[tuple[ExecutionRecord, ...], ...] = ()
        self._active: list[ExecutionRecord] = []
        self._count = 0
        self._next_id = 0
        self._clock = 0
        # (version, snapshot-tuple); swapped atomically, read without the
        # lock.  Version bumps on every append/seal/compaction.
        self._version = 0
        self._snapshot_cache: tuple[int, tuple[ExecutionRecord, ...]] = (0, ())
        # --- telemetry ----------------------------------------------------
        self.n_appends = 0
        self.n_seals = 0
        self.n_compactions = 0

    # --- writers ----------------------------------------------------------
    def append_new(self, *, tenant: str, workload_label: str, input_mb: float,
                   cluster: str, config: Configuration, runtime_s: float,
                   success: bool, signature: np.ndarray) -> ExecutionRecord:
        """Build and append a record, allocating id/clock atomically."""
        sig = readonly_signature(signature)
        with self._lock:
            rec = ExecutionRecord(
                record_id=self._next_id,
                tenant=tenant,
                workload_label=workload_label,
                input_mb=input_mb,
                cluster=cluster,
                config=config,
                runtime_s=runtime_s,
                success=success,
                signature=sig,
                timestamp=self._clock,
            )
            self._next_id += 1
            self._clock += 1
            self._append_locked(rec)
        return rec

    def append(self, record: ExecutionRecord) -> ExecutionRecord:
        """Append a pre-built record (e.g. loaded from disk).

        The record's signature is replaced with a read-only copy and the
        id/clock counters advance past the record's, so records created
        afterwards never collide with loaded ones.
        """
        record = ExecutionRecord(
            record_id=record.record_id,
            tenant=record.tenant,
            workload_label=record.workload_label,
            input_mb=record.input_mb,
            cluster=record.cluster,
            config=record.config,
            runtime_s=record.runtime_s,
            success=record.success,
            signature=readonly_signature(record.signature),
            timestamp=record.timestamp,
        )
        with self._lock:
            self._next_id = max(self._next_id, record.record_id + 1)
            self._clock = max(self._clock, record.timestamp + 1)
            self._append_locked(record)
        return record

    def _append_locked(self, record: ExecutionRecord) -> None:
        self._active.append(record)
        self._count += 1
        self.n_appends += 1
        if len(self._active) >= self.segment_records:
            self._seal_locked()
        self._version += 1

    def _seal_locked(self) -> None:
        self._sealed = self._sealed + (tuple(self._active),)
        self._active = []
        self.n_seals += 1
        if len(self._sealed) > self.compact_after:
            self._compact_locked()

    def _compact_locked(self) -> None:
        merged: list[ExecutionRecord] = list(self._base)
        for segment in self._sealed:
            merged.extend(segment)
        # Single atomic publication point: snapshots taken concurrently
        # keep referencing the old immutable segments.
        self._base = tuple(merged)
        self._sealed = ()
        self.n_compactions += 1

    def compact(self) -> None:
        """Force a seal + compaction now (tests and shutdown hooks)."""
        with self._lock:
            if self._active:
                self._seal_locked()
            if self._sealed:
                self._compact_locked()
            self._version += 1

    # --- readers ----------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    @property
    def version(self) -> int:
        """Monotonic change counter; bumps on every append/seal/compaction.

        Derived caches (the snapshot cache here, the signature index in
        :mod:`repro.core.simindex`) key their freshness on this — a
        single int read, safe without the lock.
        """
        return self._version

    def tail(self, start: int) -> tuple[ExecutionRecord, ...]:
        """Records from append-order position ``start`` on.

        Unlike :meth:`snapshot` this never concatenates the whole log —
        it walks only the segments past ``start`` — so an incremental
        consumer (the signature index) pays O(new records), not O(log).
        Append order is stable across sealing *and* compaction (both
        merge in order), so a consumer that has processed ``start``
        records never sees reordered or duplicated history.
        """
        if start <= 0:
            return self.snapshot()
        with self._lock:
            if start >= self._count:
                return ()
            out: list[ExecutionRecord] = []
            pos = 0
            for segment in (self._base, *self._sealed, self._active):
                end = pos + len(segment)
                if end > start:
                    out.extend(segment[max(0, start - pos):])
                pos = end
            return tuple(out)

    def __iter__(self) -> Iterator[ExecutionRecord]:
        return iter(self.snapshot())

    def snapshot(self) -> tuple[ExecutionRecord, ...]:
        """Every record in append order, as one immutable tuple.

        Safe to call from any thread without coordination: the cached
        tuple for the current version is returned when fresh; otherwise
        the snapshot is rebuilt under the lock (at most once per
        version) and re-published atomically.
        """
        version, snap = self._snapshot_cache
        if version == self._version:
            return snap
        with self._lock:
            version, snap = self._snapshot_cache
            if version == self._version:
                return snap
            parts: list[ExecutionRecord] = list(self._base)
            for segment in self._sealed:
                parts.extend(segment)
            parts.extend(self._active)
            snap = tuple(parts)
            self._snapshot_cache = (self._version, snap)
        return snap

    def reserve_ids(self) -> tuple[int, int]:
        """Peek the next (record_id, timestamp) the log would allocate."""
        with self._lock:
            return self._next_id, self._clock

    def segment_stats(self) -> dict:
        """Layout telemetry: base size, sealed segment sizes, active size."""
        with self._lock:
            return {
                "base_records": len(self._base),
                "sealed_segments": [len(s) for s in self._sealed],
                "active_records": len(self._active),
                "n_appends": self.n_appends,
                "n_seals": self.n_seals,
                "n_compactions": self.n_compactions,
            }

    def scan(self, predicate: Callable[[ExecutionRecord], bool]) -> list[ExecutionRecord]:
        """Filtered scan over a consistent snapshot."""
        return [r for r in self.snapshot() if predicate(r)]
