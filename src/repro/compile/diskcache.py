"""The persistent on-disk mapping cache.

The in-memory :class:`~repro.compile.cache.MappingCache` dies with its
process; figure sweeps and CI jobs recompile everything from scratch on
every invocation. This module adds the layer below it: a directory of
JSON artifacts keyed by the same SHA-256 fingerprints, so a *fresh
process* (or a pool worker) can rehydrate mappings its predecessors
compiled.

Design rules, in order of importance:

* **never serve garbage** — every artifact carries a schema tag, its
  own key and the kernel name; anything that fails to parse or
  disagrees with its envelope is *quarantined* (moved aside, counted,
  reported) and treated as a miss, never raised to the compile;
* **never tear** — writers dump to a private temp file in the artifact's
  directory and publish with :func:`os.replace`, which is atomic on
  POSIX and Windows, so concurrent writers (pool workers racing on the
  same key) can interleave freely: readers see either a complete old
  artifact or a complete new one;
* **byte-stability** — artifacts are canonical JSON (sorted keys,
  compact separators) of :meth:`Mapping.to_dict`, exactly like the
  memory cache's blobs, so save -> load -> save is byte-identical and
  the determinism tests can compare files across processes.

:class:`TieredCache` stacks the memory cache in front of a
:class:`DiskCache` behind the same ``lookup``/``store`` protocol the
pipeline's ``place_route`` pass speaks, so any entry point can be
pointed at the tiered store without code changes.

Layout on disk (``SCHEMA_VERSION`` bumps orphan old trees wholesale)::

    .repro-cache/
      v1/
        ab/abcdef....json      # artifact, fanned out by key prefix
        ...
      quarantine/              # corrupt artifacts, moved aside
      shards/                  # per-server cache shards (repro serve)
        api-0/
          v1/ab/abcdef....json
          quarantine/

**Cache shards.** A ``DiskCache(root, shard="api-0")`` *writes* only
under its private ``shards/api-0/`` subtree but *reads* through every
sibling shard (and the unsharded tree) on a local miss — so N daemons
pointed at one artifact store share each other's compiles without ever
contending on the same artifact files, and without trusting them: a
peer's artifact passes exactly the same envelope validation, except
that a corrupt peer file is skipped rather than quarantined (it is not
ours to move).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.arch.cgra import CGRA
from repro.compile.cache import MappingCache, canonical_blob
from repro.dfg.graph import DFG
from repro.mapper.mapping import Mapping

#: Bump when the artifact envelope changes incompatibly; old version
#: directories are simply ignored (and reclaimed by ``gc``/``clear``).
SCHEMA_VERSION = 1

#: Default cache root, relative to the working directory.
DEFAULT_ROOT = ".repro-cache"

#: Environment override for the cache root (CLI and CI use it).
ENV_CACHE_DIR = "REPRO_CACHE_DIR"


def atomic_write(path: Path, payload: str) -> None:
    """Atomically replace ``path`` with ``payload``.

    Writes a private temp file (pid + monotonic ns) in the target's
    directory, flushes and fsyncs it, then renames it over ``path``: a
    concurrent reader sees old-or-new, never a prefix, and a concurrent
    writer's replace simply wins. A failed write removes its temp file
    and re-raises, so callers choose their own error policy.
    """
    tmp = path.parent / (
        f".{path.stem}.{os.getpid()}.{time.monotonic_ns()}.tmp"
    )
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # the write or replace failed: don't leak temps
            try:
                tmp.unlink()
            except OSError:
                pass


def default_cache_root() -> str:
    """The cache root the CLIs default to: ``$REPRO_CACHE_DIR`` or
    ``.repro-cache`` under the current directory."""
    return os.environ.get(ENV_CACHE_DIR) or DEFAULT_ROOT


@dataclass
class DiskCacheStats:
    """Hit/miss/housekeeping accounting of one :class:`DiskCache`."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    quarantined: int = 0
    evictions: int = 0
    peer_hits: int = 0

    def to_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "quarantined": self.quarantined,
            "evictions": self.evictions,
            "peer_hits": self.peer_hits,
        }


class DiskCache:
    """Content-addressed mapping artifacts persisted under ``root``.

    Speaks the same ``lookup(key, dfg, cgra)`` / ``store(key, mapping)``
    protocol as :class:`~repro.compile.cache.MappingCache`, so the
    pipeline can use either interchangeably. All failure modes on the
    read path degrade to a miss.
    """

    def __init__(self, root: str | Path | None = None,
                 shard: str | None = None):
        self.root = Path(root) if root is not None else Path(default_cache_root())
        self.shard = str(shard) if shard else None
        base = (self.root / "shards" / self.shard if self.shard
                else self.root)
        self.version_dir = base / f"v{SCHEMA_VERSION}"
        self.quarantine_dir = base / "quarantine"
        self.stats = DiskCacheStats()

    # -- paths --------------------------------------------------------------

    def _path(self, key: str) -> Path:
        return self.version_dir / key[:2] / f"{key}.json"

    def _peer_version_dirs(self) -> list[Path]:
        """Version dirs of every *other* writer over the same root:
        the unsharded tree (when we are a shard) plus each sibling
        shard, in sorted order for deterministic read preference.

        Listed afresh on every call (one ``os.scandir`` of the shards
        directory), so a shard that joins at any time is read on the
        very next own-tree miss.
        """
        peers: list[Path] = []
        unsharded = self.root / f"v{SCHEMA_VERSION}"
        if self.shard and unsharded.is_dir():
            peers.append(unsharded)
        shards_dir = self.root / "shards"
        try:
            with os.scandir(shards_dir) as entries:
                names = sorted(
                    entry.name for entry in entries if entry.is_dir()
                )
        except OSError:
            names = []
        for name in names:
            if self.shard is not None and name == self.shard:
                continue
            version_dir = shards_dir / name / f"v{SCHEMA_VERSION}"
            if version_dir.is_dir():
                peers.append(version_dir)
        return peers

    def _peer_path(self, version_dir: Path, key: str) -> Path:
        return version_dir / key[:2] / f"{key}.json"

    def artifact_paths(self) -> list[Path]:
        """Every *own* artifact file currently on disk, sorted by name
        (peer shards are read-through only — housekeeping never
        crosses a shard boundary)."""
        if not self.version_dir.is_dir():
            return []
        return sorted(self.version_dir.glob("*/*.json"))

    # -- read path ----------------------------------------------------------

    def load_blob(self, key: str, backend: str | None = None) -> str | None:
        """The canonical mapping JSON under ``key``; ``None`` on miss.

        Any artifact that fails to parse or whose envelope disagrees
        with ``key`` is quarantined and reported as a miss. When the
        caller names the ``backend`` it expects, the envelope's
        ``backend`` tag must agree: a mismatch is quarantined too.
        Artifacts written before the backend tag existed carry no tag;
        they are servable only for the default ``engine`` backend
        (whose keys they were computed under — the pipeline still
        revalidates them), and quarantined for any other expectation.

        A miss in the own tree falls through to peer shards (other
        servers over the same root); a peer's artifact is validated
        identically, but a corrupt one is *skipped*, never quarantined.
        """
        found = self._load(key, backend)
        return None if found is None else found[1]

    def _load(self, key: str,
              backend: str | None) -> tuple[dict, str, dict] | None:
        """What :meth:`load_blob` reads, as ``(mapping payload,
        canonical blob, provenance)`` from one read and one parse."""
        path = self._path(key)
        try:
            data = path.read_bytes()
        except OSError:
            data = None
        if data is not None:
            try:
                found = self._validated(data, key, backend)
            except (ValueError, KeyError, TypeError, UnicodeDecodeError):
                self._quarantine(path)
                self.stats.misses += 1
                return None
            self.stats.hits += 1
            return found
        for version_dir in self._peer_version_dirs():
            try:
                data = self._peer_path(version_dir, key).read_bytes()
            except OSError:
                continue
            try:
                found = self._validated(data, key, backend)
            except (ValueError, KeyError, TypeError, UnicodeDecodeError):
                continue  # a peer's corrupt artifact is not ours to move
            self.stats.hits += 1
            self.stats.peer_hits += 1
            return found
        self.stats.misses += 1
        return None

    @staticmethod
    def _validated(data: bytes, key: str,
                   backend: str | None) -> tuple[dict, str, dict]:
        """Envelope validation; raises ``ValueError`` family on any
        disagreement, returns the mapping payload, its canonical blob
        and the envelope's provenance fields."""
        envelope = json.loads(data.decode("utf-8"))
        if not isinstance(envelope, dict):
            raise ValueError("artifact is not a JSON object")
        if envelope.get("schema") != SCHEMA_VERSION:
            raise ValueError("schema tag mismatch")
        if envelope.get("key") != key:
            raise ValueError("key mismatch (misfiled artifact)")
        if backend is not None:
            tagged = envelope.get("backend", "engine")
            if tagged != backend:
                raise ValueError(
                    f"backend mismatch: artifact is {tagged!r}, "
                    f"caller expects {backend!r}"
                )
        mapping_dict = envelope["mapping"]
        if not isinstance(mapping_dict, dict):
            raise ValueError("mapping payload is not an object")
        blob = json.dumps(mapping_dict, sort_keys=True,
                          separators=(",", ":"))
        return mapping_dict, blob, _provenance(envelope)

    def _envelope(self, key: str) -> dict | None:
        """The raw envelope under ``key``, own tree first, then peers."""
        paths = [self._path(key)] + [
            self._peer_path(d, key) for d in self._peer_version_dirs()
        ]
        for path in paths:
            try:
                envelope = json.loads(path.read_bytes().decode("utf-8"))
            except (OSError, ValueError, UnicodeDecodeError):
                continue
            if isinstance(envelope, dict):
                return envelope
        return None

    def meta(self, key: str) -> dict:
        """Provenance of the artifact under ``key`` (empty on miss):
        the producing ``backend``, its ``optimal`` proof flag, the
        mapping ``cost`` and ``ii``, and any ``sweep`` tag. Peer
        shards are consulted on an own-tree miss, matching
        :meth:`load_blob`."""
        envelope = self._envelope(key)
        return {} if envelope is None else _provenance(envelope)

    def lookup(self, key: str, dfg: DFG, cgra: CGRA,
               backend: str | None = None) -> Mapping | None:
        """Rehydrate the artifact under ``key``; ``None`` on miss."""
        found = self.rehydrate(key, dfg, cgra, backend)
        return None if found is None else found[0]

    def rehydrate(self, key: str, dfg: DFG, cgra: CGRA,
                  backend: str | None = None, *, build: bool = True,
                  ) -> tuple[Mapping | None, str, dict] | None:
        """``(mapping, canonical blob, provenance)`` under ``key``, all
        from one read of the artifact; ``None`` on miss. ``build=False``
        leaves the mapping ``None``, as :meth:`MappingCache.rehydrate`
        does.

        A blob that parses but does not revalidate against the caller's
        DFG/fabric (e.g. a kernel-name mismatch) is counted as a miss and
        quarantined too: it can never become servable under this key.
        """
        found = self._load(key, backend)
        if found is None:
            return None
        mapping_dict, blob, meta = found
        if not build:
            return None, blob, meta
        try:
            return Mapping.from_dict(mapping_dict, dfg, cgra), blob, meta
        except Exception:
            self._quarantine(self._path(key))
            self.stats.hits -= 1
            self.stats.misses += 1
            return None

    # -- the memory-tier protocol (a disk tier keeps no derived entries) ----

    def lookup_derived(self, key: str, variant: tuple, dfg: DFG,
                       cgra: CGRA) -> Mapping | None:
        return None

    def store_derived(self, key: str, variant: tuple,
                      mapping: Mapping) -> None:
        pass

    # -- write path ---------------------------------------------------------

    def store(self, key: str, mapping: Mapping, *,
              engine_stats: dict[str, int] | None = None,
              backend: str | None = None,
              meta: dict | None = None) -> None:
        blob = canonical_blob(mapping)
        self.store_serialized(key, blob, kernel=mapping.dfg.name,
                              engine_stats=engine_stats, backend=backend,
                              meta=meta)

    def store_serialized(self, key: str, blob: str,
                         kernel: str = "",
                         engine_stats: dict[str, int] | None = None,
                         backend: str | None = None,
                         meta: dict | None = None) -> None:
        """Publish a pre-serialized canonical mapping blob atomically.

        ``engine_stats`` optionally embeds the search-effort counters of
        the compile that produced the artifact; ``backend`` tags which
        mapper backend produced it and ``meta`` adds provenance fields
        (``optimal``, ``cost``, ``ii``, and for DSE artifacts ``sweep``
        — the design-space hash and point index that first produced the
        blob). All are additive envelope fields:
        readers that don't know them ignore them, so the schema version
        is unchanged and cache keys are unaffected — but a reader that
        *names* its expected backend is refused a mismatching artifact
        (see :meth:`load_blob`).
        """
        envelope = {
            "schema": SCHEMA_VERSION,
            "key": key,
            "kernel": kernel or json.loads(blob).get("kernel", ""),
            "mapping": json.loads(blob),
        }
        if engine_stats:
            envelope["engine_stats"] = dict(engine_stats)
        if backend is not None:
            envelope["backend"] = backend
        for field_name in ("optimal", "cost", "ii", "sweep"):
            if meta and field_name in meta:
                envelope[field_name] = meta[field_name]
        payload = json.dumps(envelope, sort_keys=True,
                             separators=(",", ":"))
        path = self._path(key)
        # os.makedirs(exist_ok=True) end to end: two processes
        # initializing the same cache root simultaneously must both
        # succeed (the EEXIST race is swallowed at every level).
        os.makedirs(path.parent, exist_ok=True)
        atomic_write(path, payload)
        self.stats.stores += 1

    def tag_sweep(self, key: str, space_hash: str,
                  point_index: int) -> bool:
        """Stamp first-producer sweep provenance onto the artifact
        under ``key``: which design-space hash and point index caused
        it to be compiled. Rewrites the envelope in place (atomically,
        preserving every other field, ``engine_stats`` included); an
        artifact that already carries a ``sweep`` tag keeps its
        original producer. Returns True when the tag was written.
        """
        path = self._path(key)
        try:
            envelope = json.loads(path.read_bytes().decode("utf-8"))
        except (OSError, ValueError, UnicodeDecodeError):
            return False
        if not isinstance(envelope, dict) or "sweep" in envelope:
            return False
        envelope["sweep"] = {"space_hash": str(space_hash),
                             "point": int(point_index)}
        payload = json.dumps(envelope, sort_keys=True,
                             separators=(",", ":"))
        try:
            atomic_write(path, payload)
        except OSError:
            return False
        return True

    # -- housekeeping -------------------------------------------------------

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt artifact aside (best effort, never raises)."""
        try:
            os.makedirs(self.quarantine_dir, exist_ok=True)
            target = self.quarantine_dir / (
                f"{path.name}.{os.getpid()}.{time.monotonic_ns()}.bad"
            )
            os.replace(path, target)
            self.stats.quarantined += 1
        except OSError:
            pass

    def __contains__(self, key: str) -> bool:
        if self._path(key).is_file():
            return True
        return any(self._peer_path(d, key).is_file()
                   for d in self._peer_version_dirs())

    def __len__(self) -> int:
        return len(self.artifact_paths())

    def size_bytes(self) -> int:
        total = 0
        for path in self.artifact_paths():
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def quarantined_count(self) -> int:
        if not self.quarantine_dir.is_dir():
            return 0
        return sum(1 for _ in self.quarantine_dir.iterdir())

    def clear(self) -> int:
        """Delete every artifact (and the quarantine); returns count."""
        removed = 0
        for path in self.artifact_paths():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        if self.quarantine_dir.is_dir():
            for path in list(self.quarantine_dir.iterdir()):
                try:
                    path.unlink()
                except OSError:
                    pass
        return removed

    def gc(self, max_entries: int | None = None,
           max_age_s: float | None = None) -> int:
        """Evict artifacts least-recently-*written* first.

        ``max_age_s`` drops anything older than the horizon;
        ``max_entries`` then trims the survivors to the newest N. The
        eviction policy is mtime-ordered (writes refresh an artifact's
        clock via the atomic replace), which for a content-addressed
        store is the honest notion of "still in use": sweeps re-store on
        every miss and leave hits untouched.
        """
        paths = self.artifact_paths()
        stamped = []
        for path in paths:
            try:
                stamped.append((path.stat().st_mtime, path))
            except OSError:
                continue
        stamped.sort()  # oldest first
        doomed: list[Path] = []
        if max_age_s is not None:
            horizon = time.time() - max_age_s
            doomed.extend(p for mtime, p in stamped if mtime < horizon)
        if max_entries is not None:
            doomed_set = set(doomed)
            survivors = [p for _, p in stamped if p not in doomed_set]
            if len(survivors) > max_entries:
                doomed.extend(survivors[: len(survivors) - max_entries])
        removed = 0
        for path in doomed:
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        self.stats.evictions += removed
        return removed

    def stats_dict(self) -> dict[str, int]:
        d = self.stats.to_dict()
        d["entries"] = len(self)
        d["bytes"] = self.size_bytes()
        d["quarantine_files"] = self.quarantined_count()
        return d

    def engine_effort(self) -> dict[str, int]:
        """Aggregate engine search-effort counters across artifacts.

        Sums the ``engine_stats`` embedded by cold compiles (artifacts
        written before that field existed simply don't contribute), so
        ``repro cache stats`` can show what the cached mappings cost to
        produce — memo hits, pruned candidates, routes searched.
        """
        totals: dict[str, int] = {}
        counted = 0
        for path in self.artifact_paths():
            try:
                envelope = json.loads(path.read_bytes().decode("utf-8"))
            except (OSError, ValueError, UnicodeDecodeError):
                continue
            if not isinstance(envelope, dict):
                continue
            stats = envelope.get("engine_stats")
            if not isinstance(stats, dict):
                continue
            counted += 1
            for name, value in stats.items():
                if isinstance(value, int):
                    totals[name] = totals.get(name, 0) + value
        totals["artifacts_with_stats"] = counted
        return totals

    def sweep_footprint(self) -> dict[str, dict[str, int]]:
        """Per-sweep cache footprint: artifact count and bytes, grouped
        by the ``sweep`` provenance tag (design-space hash) stamped by
        ``repro dse``. Artifacts without the tag are grouped under
        ``"(untagged)"`` so the report always accounts for the whole
        store. Powers ``repro cache stats`` and lets ``gc`` answer
        "which sweep owns the disk I'm about to reclaim".
        """
        groups: dict[str, dict[str, int]] = {}
        for path in self.artifact_paths():
            try:
                data = path.read_bytes()
                envelope = json.loads(data.decode("utf-8"))
            except (OSError, ValueError, UnicodeDecodeError):
                continue
            if not isinstance(envelope, dict):
                continue
            sweep = envelope.get("sweep")
            label = "(untagged)"
            if isinstance(sweep, dict) and sweep.get("space_hash"):
                label = str(sweep["space_hash"])
            row = groups.setdefault(label, {"artifacts": 0, "bytes": 0})
            row["artifacts"] += 1
            row["bytes"] += len(data)
        return groups


#: Envelope fields :meth:`DiskCache.meta` reports as provenance.
_PROVENANCE_FIELDS = ("backend", "optimal", "cost", "ii", "sweep")


def _provenance(envelope: dict) -> dict:
    return {name: envelope[name] for name in _PROVENANCE_FIELDS
            if name in envelope}


@dataclass
class TieredCache:
    """Memory cache in front, disk cache behind, one protocol.

    ``lookup`` promotes disk hits into the memory tier so repeated
    intra-process compiles skip the filesystem; ``store`` writes
    through to both tiers. Derived entries and snapshots belong to the
    memory tier alone. Safe to share across threads (each tier is
    independently safe; the composition adds no shared state).
    """

    memory: MappingCache = field(default_factory=MappingCache)
    disk: DiskCache = field(default_factory=DiskCache)

    def lookup(self, key: str, dfg: DFG, cgra: CGRA,
               backend: str | None = None) -> Mapping | None:
        found = self.rehydrate(key, dfg, cgra, backend)
        return None if found is None else found[0]

    def rehydrate(self, key: str, dfg: DFG, cgra: CGRA,
                  backend: str | None = None, *, build: bool = True,
                  ) -> tuple[Mapping | None, str, dict] | None:
        """``(mapping, canonical blob, provenance)`` from the memory
        tier, else from one read of the disk artifact (promoted)."""
        found = self.memory.rehydrate(key, dfg, cgra, backend, build=build)
        if found is not None:
            return found
        found = self.disk.rehydrate(key, dfg, cgra, backend, build=build)
        if found is not None:
            _mapping, blob, meta = found
            self.memory.store_serialized(key, blob, meta=meta)
        return found

    def lookup_derived(self, key: str, variant: tuple, dfg: DFG,
                       cgra: CGRA) -> Mapping | None:
        return self.memory.lookup_derived(key, variant, dfg, cgra)

    def store_derived(self, key: str, variant: tuple,
                      mapping: Mapping) -> None:
        self.memory.store_derived(key, variant, mapping)

    def snapshot(self) -> dict:
        return self.memory.snapshot()

    def meta(self, key: str) -> dict:
        found = self.memory.meta(key)
        return found if found else self.disk.meta(key)

    def store(self, key: str, mapping: Mapping, *,
              engine_stats: dict[str, int] | None = None,
              backend: str | None = None,
              meta: dict | None = None) -> None:
        self.memory.store(key, mapping, backend=backend, meta=meta)
        blob = self.memory.serialized(key)
        if blob is not None:
            self.disk.store_serialized(key, blob, kernel=mapping.dfg.name,
                                       engine_stats=engine_stats,
                                       backend=backend, meta=meta)

    def store_serialized(self, key: str, blob: str,
                         kernel: str = "",
                         engine_stats: dict[str, int] | None = None,
                         backend: str | None = None,
                         meta: dict | None = None) -> None:
        self.memory.store_serialized(key, blob, backend=backend, meta=meta)
        self.disk.store_serialized(key, blob, kernel=kernel,
                                   engine_stats=engine_stats,
                                   backend=backend, meta=meta)

    def serialized(self, key: str) -> str | None:
        blob = self.memory.serialized(key)
        if blob is not None:
            return blob
        return self.disk.load_blob(key)

    def __contains__(self, key: str) -> bool:
        return key in self.memory or key in self.disk

    def stats_dict(self) -> dict[str, int]:
        d = {f"memory_{k}": v for k, v in self.memory.stats_dict().items()}
        d.update(
            {f"disk_{k}": v for k, v in self.disk.stats_dict().items()}
        )
        # The headline numbers --stats reports: a tier-crossing lookup
        # counts as one logical hit/miss.
        d["hits"] = self.memory.stats.hits + self.disk.stats.hits
        d["misses"] = self.disk.stats.misses
        d["entries"] = d["disk_entries"]
        return d
