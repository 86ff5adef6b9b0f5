"""The content-addressed mapping cache.

Artifacts are stored as canonical JSON strings of
:meth:`repro.mapper.mapping.Mapping.to_dict` keyed by
:func:`repro.compile.fingerprint.mapping_cache_key`. Storing the
serialized form (rather than the live object) buys three things:

* **isolation** — every hit rehydrates a fresh ``Mapping``, so no two
  callers can corrupt each other through a shared mutable artifact;
* **byte-stability** — the determinism tests compare the cached bytes
  directly across fresh pipelines;
* **honesty** — rehydrated artifacts are untrusted by convention and
  re-validated by the pipeline before being returned, exactly like any
  other deserialized mapping.

The cache is bounded (LRU) and thread-safe; one process-wide instance
serves every entry point so experiment harnesses, the streaming
partitioner and the CLI all share work.

**Derived entries.** A deterministic strategy post-pass (island
refinement, gating, per-tile DVFS) turns an engine artifact into
another mapping. That mapping is kept as a canonical blob *next to* its
engine entry, keyed by the entry's key and a *variant* (the strategy
and the post-pass inputs the engine key does not cover). A derived
entry rides on its engine entry: it is dropped when the entry is
re-stored, evicted or cleared, and it is never counted in ``len``, the
hit/miss statistics or ``in``. Only the memory tier keeps them; the
same ``lookup_derived``/``store_derived`` protocol on
:class:`~repro.compile.diskcache.DiskCache` keeps nothing.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.arch.cgra import CGRA
from repro.dfg.graph import DFG
from repro.mapper.mapping import Mapping

#: Default entry bound: a full figure sweep uses a few hundred entries;
#: the cap only matters for very long-lived server processes.
DEFAULT_MAX_ENTRIES = 4096


def canonical_blob(mapping: Mapping) -> str:
    """The canonical JSON every cache tier stores for ``mapping``."""
    return json.dumps(mapping.to_dict(), sort_keys=True,
                      separators=(",", ":"))


@dataclass
class CacheStats:
    """Hit/miss accounting of one :class:`MappingCache`."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0

    def hit_rate(self) -> float:
        looked = self.hits + self.misses
        return self.hits / looked if looked else 0.0

    def to_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
        }


@dataclass
class MappingCache:
    """Bounded, thread-safe, content-addressed store of mappings."""

    max_entries: int = DEFAULT_MAX_ENTRIES
    stats: CacheStats = field(default_factory=CacheStats)
    _entries: OrderedDict = field(default_factory=OrderedDict)
    _meta: dict = field(default_factory=dict)
    #: Engine key -> {variant: derived blob}; see the module docstring.
    _derived: dict = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "MappingCache":
        """A cache holding what :meth:`snapshot` copied (fresh stats)."""
        cache = cls(max_entries=snapshot["max_entries"])
        cache._entries.update(snapshot["entries"])
        cache._meta.update(snapshot["meta"])
        cache._derived.update(snapshot["derived"])
        return cache

    def snapshot(self) -> dict:
        """A plain, picklable copy of the entries (in LRU order), their
        provenance and their derived entries — what a pool worker
        starts from (the cache itself holds a lock, which does not
        pickle)."""
        with self._lock:
            return {
                "max_entries": self.max_entries,
                "entries": list(self._entries.items()),
                "meta": dict(self._meta),
                "derived": {key: dict(variants)
                            for key, variants in self._derived.items()},
            }

    def lookup(self, key: str, dfg: DFG, cgra: CGRA,
               backend: str | None = None) -> Mapping | None:
        """Rehydrate the artifact under ``key`` against the caller's DFG
        and fabric instances; ``None`` on miss. The caller must still
        validate the result before trusting it. When ``backend`` is
        named and the entry's recorded provenance names a *different*
        backend, the entry is not served (a keying bug must surface as
        a miss, never as a wrong artifact)."""
        found = self.rehydrate(key, dfg, cgra, backend)
        return None if found is None else found[0]

    def rehydrate(self, key: str, dfg: DFG, cgra: CGRA,
                  backend: str | None = None, *, build: bool = True,
                  ) -> tuple[Mapping | None, str, dict] | None:
        """:meth:`lookup` as ``(mapping, canonical blob, provenance)``,
        the same triple :meth:`DiskCache.rehydrate` returns. With
        ``build=False`` the hit is counted but no mapping is built (the
        first element is ``None``): for a caller that serves a derived
        entry instead."""
        with self._lock:
            blob = self._entries.get(key)
            meta = self._meta.get(key, {})
            if blob is not None and backend is not None:
                tagged = meta.get("backend")
                if tagged is not None and tagged != backend:
                    blob = None
            if blob is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            meta = dict(meta)
        if not build:
            return None, blob, meta
        return Mapping.from_dict(json.loads(blob), dfg, cgra), blob, meta

    def meta(self, key: str) -> dict:
        """Provenance recorded with the entry (empty when unknown)."""
        with self._lock:
            return dict(self._meta.get(key, {}))

    def store(self, key: str, mapping: Mapping, *,
              engine_stats: dict[str, int] | None = None,
              backend: str | None = None,
              meta: dict | None = None) -> None:
        """Store a mapping (``engine_stats`` is accepted for protocol
        compatibility with :class:`DiskCache`; the memory tier has no
        envelope to embed it in)."""
        self.store_serialized(key, canonical_blob(mapping),
                              backend=backend, meta=meta)

    def store_serialized(self, key: str, blob: str,
                         backend: str | None = None,
                         meta: dict | None = None) -> None:
        """Insert a pre-serialized canonical artifact (promotion from a
        disk tier or a pool worker's returned blob). Re-storing a key
        drops its derived entries."""
        with self._lock:
            self._entries[key] = blob
            self._entries.move_to_end(key)
            self._derived.pop(key, None)
            record = dict(meta or {})
            if backend is not None:
                record.setdefault("backend", backend)
            if record:
                self._meta[key] = record
            else:
                self._meta.pop(key, None)
            self.stats.stores += 1
            while len(self._entries) > self.max_entries:
                evicted, _ = self._entries.popitem(last=False)
                self._meta.pop(evicted, None)
                self._derived.pop(evicted, None)
                self.stats.evictions += 1

    def lookup_derived(self, key: str, variant: tuple, dfg: DFG,
                       cgra: CGRA) -> Mapping | None:
        """Rehydrate the ``variant`` derived from the engine entry under
        ``key``; ``None`` when absent. Never touches the statistics or
        the LRU order. A blob that does not rehydrate raises, like a
        corrupt :meth:`lookup` artifact; the caller recomputes it."""
        with self._lock:
            blob = self._derived.get(key, {}).get(variant)
        if blob is None:
            return None
        return Mapping.from_dict(json.loads(blob), dfg, cgra)

    def store_derived(self, key: str, variant: tuple,
                      mapping: Mapping) -> None:
        """Keep ``mapping`` as the ``variant`` derived from the engine
        entry under ``key`` (nothing is kept without that entry)."""
        blob = canonical_blob(mapping)
        with self._lock:
            if key in self._entries:
                self._derived.setdefault(key, {})[variant] = blob

    def serialized(self, key: str) -> str | None:
        """The raw cached bytes (for byte-identity tests)."""
        with self._lock:
            return self._entries.get(key)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._meta.clear()
            self._derived.clear()
            self.stats = CacheStats()

    def stats_dict(self) -> dict[str, int]:
        with self._lock:
            d = self.stats.to_dict()
            d["entries"] = len(self._entries)
        return d


_GLOBAL_CACHE = MappingCache()


def get_cache() -> MappingCache:
    """The process-wide cache every pipeline entry point defaults to."""
    return _GLOBAL_CACHE
