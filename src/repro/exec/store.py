"""Persistent content-addressed result store with eviction, GC, and
runtime estimates — the one cache every sweep, figure bench and the
capacity planner share:

* **Content addressing with an index.**  Payload blobs live under
  ``blobs/<fingerprint>.json`` and an ``index.json`` maps each spec's
  stable ``spec_key`` to its current fingerprint, byte size, store time
  and last access.  The fingerprint hashes the spec together with a
  *code-version salt* (:func:`code_version`, a digest of every ``repro``
  source file), so a lookup whose indexed fingerprint no longer matches
  the running code is invalidated in place — a model edit can never be
  answered from a stale result.
* **LRU + TTL eviction under a byte budget.**  ``max_bytes`` caps the
  indexed payload bytes; every put first expires entries older than
  ``ttl_s`` and then evicts least-recently-used entries until the store
  fits.  Repeated figure regenerations and the capacity planner share
  one warm corpus that cannot grow without bound.
* **GC of orphaned blobs.**  A crash between blob write and index write
  leaves an unindexed blob; :meth:`ResultStore.gc` removes those (and
  drops index entries whose blob vanished) without ever touching an
  indexed, live blob.
* **Crash-safe atomic writes.**  Blobs and the index both go through
  :func:`atomic_write_json` (unique temp name + ``os.replace``); the
  blob is published before the index references it, so readers never
  see a dangling index entry after a crash.
* **Advisory cross-process locking.**  Every index *mutation* (get's
  access-time touch, put, gc, clear) runs under an exclusive
  ``flock`` on ``index.lock`` and re-reads the on-disk index at lock
  acquisition, turning concurrent writers' last-writer-wins index
  clobber into serialized read-modify-write: two sweeps sharing one
  store directory cannot silently drop each other's entries.  On
  platforms without :mod:`fcntl` the store degrades to the old
  lock-free behavior.
* **Counters.**  Hits, misses, invalidations, stores, evictions,
  expirations, GC'd orphans and the live byte gauge all land on
  :data:`~repro.exec.stats.exec_stats` (``store_*``), exported through
  ``repro.metrics.exec`` like every other executor counter.

The store also keeps per-spec **runtime estimates** (seconds of wall
time from the last execution, keyed by ``spec_key`` so they survive
code-version changes *and* payload eviction).  The work-stealing
scheduler orders its queue longest-expected-first from these, which is
what keeps stragglers off the critical path of a warm sweep.

Pass a store as ``SweepRunner(cache=ResultStore(...))``; the default
location is ``.repro-store/`` (override with ``REPRO_STORE_DIR``).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
import time
from pathlib import Path

try:  # POSIX only; the store degrades to lock-free elsewhere.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from .spec import ScenarioSpec
from .stats import exec_stats

__all__ = ["ResultStore", "DEFAULT_STORE_DIR", "STORE_DIR_ENV",
           "code_version", "atomic_write_json"]

DEFAULT_STORE_DIR = ".repro-store"
#: Environment override for the default store location.
STORE_DIR_ENV = "REPRO_STORE_DIR"

_INDEX_VERSION = 1
#: Runtime estimates kept per store (newest win); a bound, not a budget.
_MAX_ESTIMATES = 4096

_code_version: str | None = None


def code_version() -> str:
    """Digest of the ``repro`` package sources (the store's salt).

    Deliberately coarse: any edit under ``src/repro`` changes it, which
    is the only cheap sound answer to "could this change move a payload
    bit?".  Computed once per process.
    """
    global _code_version
    if _code_version is None:
        root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
        _code_version = digest.hexdigest()[:20]
    return _code_version


def atomic_write_json(path: Path, obj) -> None:
    """Write *obj* as canonical JSON to *path*, crash- and race-safe.

    The payload lands in a uniquely named temp file in the target
    directory first and is published with :func:`os.replace` (atomic on
    POSIX).  A crash mid-write leaves only an orphaned ``*.tmp`` file —
    never a truncated blob under the real name — and because every
    writer gets its own temp name, two processes writing the same entry
    concurrently cannot tear each other's bytes (a shared
    ``<name>.tmp`` would let writer B truncate the temp file writer A
    was about to rename).  Last rename wins, which is safe here: blobs
    for one address are byte-identical by contract.
    """
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(obj, fh, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        # Crash/interrupt mid-write: drop the private temp file; the
        # published entry (if any) is untouched.
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class ResultStore:
    """Content-addressed scenario-result store with an index, LRU+TTL
    eviction under *max_bytes*, orphan GC and runtime estimates.

    ``max_bytes=None`` disables the byte budget and ``ttl_s=None``
    disables expiry (entries then only leave through invalidation or
    explicit :meth:`clear`).  *clock* exists for tests: it must return
    seconds like :func:`time.time` and drives TTL expiry only — LRU
    ordering uses a persisted logical access sequence, so eviction
    order is deterministic regardless of wall-clock resolution.
    """

    def __init__(self, root: str | os.PathLike | None = None,
                 max_bytes: int | None = None, ttl_s: float | None = None,
                 salt: str | None = None, clock=time.time):
        if root is None:
            root = os.environ.get(STORE_DIR_ENV, DEFAULT_STORE_DIR)
        self.root = Path(root)
        self.blob_dir = self.root / "blobs"
        self.index_path = self.root / "index.json"
        self.lock_path = self.root / "index.lock"
        self.max_bytes = max_bytes
        self.ttl_s = ttl_s
        self.salt = code_version() if salt is None else salt
        self._clock = clock
        self._index: dict | None = None
        self._lock_depth = 0

    # -- index --------------------------------------------------------------------
    @contextlib.contextmanager
    def _locked(self):
        """Exclusive advisory lock over one index read-modify-write.

        Acquisition drops the cached in-memory index, so the critical
        section starts from the latest on-disk state another process
        may have published — without this, two writers each mutate
        their own stale copy and the later ``_save_index`` silently
        discards the earlier one's entries.  Reentrant within a
        process (``put`` → ``record_estimate``); closing the lock fd
        releases the flock even on error.
        """
        if fcntl is None or self._lock_depth:
            self._lock_depth += 1
            try:
                yield
            finally:
                self._lock_depth -= 1
            return
        self.root.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.lock_path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            self._index = None  # re-read on-disk state under the lock
            self._lock_depth += 1
            try:
                yield
            finally:
                self._lock_depth -= 1
        finally:
            os.close(fd)
    def _load_index(self) -> dict:
        if self._index is not None:
            return self._index
        try:
            raw = json.loads(self.index_path.read_text())
            if raw.get("version") != _INDEX_VERSION:
                raise ValueError("index version mismatch")
            raw.setdefault("entries", {})
            raw.setdefault("estimates", {})
            raw.setdefault("seq", 0)
        except (OSError, ValueError, KeyError, json.JSONDecodeError):
            raw = {"version": _INDEX_VERSION, "seq": 0,
                   "entries": {}, "estimates": {}}
        self._index = raw
        return raw

    def _save_index(self) -> None:
        if self._index is None:
            return
        self.root.mkdir(parents=True, exist_ok=True)
        atomic_write_json(self.index_path, self._index)

    def _touch(self, entry: dict) -> None:
        index = self._load_index()
        index["seq"] += 1
        entry["last_access"] = index["seq"]

    # -- addressing ---------------------------------------------------------------
    def blob_path(self, fingerprint: str) -> Path:
        return self.blob_dir / f"{fingerprint}.json"

    # -- lookup / store -----------------------------------------------------------
    def get(self, spec: ScenarioSpec) -> dict | None:
        """The stored payload for *spec* under the current salt, or None.

        An indexed entry whose fingerprint belongs to another code
        version is removed and counted as an invalidation; an entry
        whose blob is missing or unreadable is dropped and counted as a
        miss; a TTL-expired entry is dropped and counted as an expiry.
        Runs under the index lock: even the hit path mutates the index
        (the LRU access touch).
        """
        with self._locked():
            return self._get_locked(spec)

    def _get_locked(self, spec: ScenarioSpec) -> dict | None:
        index = self._load_index()
        key = spec.spec_key()
        entry = index["entries"].get(key)
        if entry is None:
            exec_stats.store_misses += 1
            return None
        if entry["fingerprint"] != spec.fingerprint(self.salt):
            self._drop(key, entry)
            exec_stats.store_invalidations += 1
            exec_stats.store_misses += 1
            self._save_index()
            return None
        if self.ttl_s is not None and \
                self._clock() - entry["stored_at"] > self.ttl_s:
            self._drop(key, entry)
            exec_stats.store_expirations += 1
            exec_stats.store_misses += 1
            self._save_index()
            return None
        try:
            blob = json.loads(self.blob_path(entry["fingerprint"])
                              .read_text())
            payload = blob["payload"]
        except (OSError, json.JSONDecodeError, KeyError, TypeError):
            self._drop(key, entry)
            exec_stats.store_misses += 1
            self._save_index()
            return None
        self._touch(entry)
        self._save_index()
        exec_stats.store_hits += 1
        return payload

    def put(self, spec: ScenarioSpec, payload: dict,
            wall_s: float | None = None) -> Path:
        """Store *payload* for *spec*; returns the blob path.

        The blob is published before the index references it (a crash
        in between leaves an orphan for :meth:`gc`, never a dangling
        index entry).  *wall_s*, when given, updates the spec's runtime
        estimate — kept even after the payload itself is evicted.
        """
        with self._locked():
            return self._put_locked(spec, payload, wall_s)

    def _put_locked(self, spec: ScenarioSpec, payload: dict,
                    wall_s: float | None) -> Path:
        index = self._load_index()
        key = spec.spec_key()
        fingerprint = spec.fingerprint(self.salt)
        self.blob_dir.mkdir(parents=True, exist_ok=True)
        path = self.blob_path(fingerprint)
        blob = {"fingerprint": fingerprint, "salt": self.salt,
                "spec": spec.as_dict(), "payload": payload}
        atomic_write_json(path, blob)
        old = index["entries"].get(key)
        if old is not None and old["fingerprint"] != fingerprint:
            self.blob_path(old["fingerprint"]).unlink(missing_ok=True)
        entry = {"fingerprint": fingerprint,
                 "bytes": path.stat().st_size,
                 "stored_at": self._clock(),
                 "last_access": 0}
        index["entries"][key] = entry
        self._touch(entry)
        if wall_s is not None:
            self.record_estimate(spec, wall_s)
        exec_stats.store_stores += 1
        self._enforce_budget()
        self._save_index()
        exec_stats.store_bytes = self.total_bytes()
        return path

    def _drop(self, key: str, entry: dict) -> None:
        index = self._load_index()
        index["entries"].pop(key, None)
        self.blob_path(entry["fingerprint"]).unlink(missing_ok=True)
        exec_stats.store_bytes = self.total_bytes()

    # -- eviction -----------------------------------------------------------------
    def _enforce_budget(self) -> None:
        """Expire TTL'd entries, then evict LRU until under *max_bytes*.

        The byte budget is a hard cap: if the newest entry alone
        exceeds it, that entry is evicted too (its runtime estimate
        survives), so ``total_bytes() <= max_bytes`` always holds after
        a put.
        """
        index = self._load_index()
        entries = index["entries"]
        if self.ttl_s is not None:
            now = self._clock()
            for key in [k for k, e in entries.items()
                        if now - e["stored_at"] > self.ttl_s]:
                self._drop(key, entries[key])
                exec_stats.store_expirations += 1
        if self.max_bytes is None:
            return
        total = sum(e["bytes"] for e in entries.values())
        # Oldest access first; ties (never expected — the sequence is
        # unique) break on key for determinism.
        for key in sorted(entries, key=lambda k:
                          (entries[k]["last_access"], k)):
            if total <= self.max_bytes:
                break
            total -= entries[key]["bytes"]
            self._drop(key, entries[key])
            exec_stats.store_evictions += 1

    # -- GC -----------------------------------------------------------------------
    def gc(self) -> dict[str, int]:
        """Remove orphaned blobs; drop index entries whose blob vanished.

        A blob is *orphaned* when no index entry references it (a crash
        between blob publish and index publish, or an eviction whose
        unlink was lost).  Indexed blobs are never touched.  Returns
        ``{"orphan_blobs": n, "dangling_entries": m}``.
        """
        with self._locked():
            return self._gc_locked()

    def _gc_locked(self) -> dict[str, int]:
        index = self._load_index()
        live = {e["fingerprint"] for e in index["entries"].values()}
        orphans = 0
        if self.blob_dir.is_dir():
            for path in sorted(self.blob_dir.glob("*.json")):
                if path.stem not in live:
                    path.unlink(missing_ok=True)
                    orphans += 1
                    exec_stats.store_gc_orphans += 1
        self._sweep_temp_files()
        dangling = [k for k, e in index["entries"].items()
                    if not self.blob_path(e["fingerprint"]).exists()]
        for key in dangling:
            index["entries"].pop(key, None)
        if dangling:
            self._save_index()
        exec_stats.store_bytes = self.total_bytes()
        return {"orphan_blobs": orphans, "dangling_entries": len(dangling)}

    # -- estimates ----------------------------------------------------------------
    def record_estimate(self, spec: ScenarioSpec, wall_s: float) -> None:
        """Remember *spec* took *wall_s* seconds (newest measurement
        wins).  Keyed by ``spec_key``, so estimates survive both code
        changes and payload eviction — they are scheduling hints, not
        result data."""
        index = self._load_index()
        estimates = index["estimates"]
        estimates[spec.spec_key()] = float(wall_s)
        if len(estimates) > _MAX_ESTIMATES:
            # Drop oldest-inserted first (dict preserves insertion).
            for key in list(estimates)[:len(estimates) - _MAX_ESTIMATES]:
                del estimates[key]

    def estimate(self, spec: ScenarioSpec) -> float | None:
        """The last measured wall seconds for *spec*, or None."""
        return self._load_index()["estimates"].get(spec.spec_key())

    # -- accounting ---------------------------------------------------------------
    def total_bytes(self) -> int:
        """Indexed payload bytes (the budgeted figure)."""
        return sum(e["bytes"]
                   for e in self._load_index()["entries"].values())

    def __len__(self) -> int:
        return len(self._load_index()["entries"])

    def stats(self) -> dict:
        """A JSON-safe snapshot of the store's shape (not the counters:
        those live on ``exec_stats``)."""
        index = self._load_index()
        return {"entries": len(index["entries"]),
                "bytes": self.total_bytes(),
                "max_bytes": self.max_bytes,
                "ttl_s": self.ttl_s,
                "estimates": len(index["estimates"]),
                "root": str(self.root)}

    def clear(self) -> int:
        """Drop every entry and estimate, and sweep orphaned ``*.tmp``
        files (torn writes are not entries); returns entries removed."""
        with self._locked():
            return self._clear_locked()

    def _clear_locked(self) -> int:
        index = self._load_index()
        removed = len(index["entries"])
        for key in list(index["entries"]):
            self._drop(key, index["entries"][key])
        index["estimates"].clear()
        self._save_index()
        self._sweep_temp_files()
        return removed

    def _sweep_temp_files(self) -> None:
        """Unlink torn-write leftovers; only safe under the lock, which
        every blob and index write holds."""
        for pattern in ("*.tmp", "blobs/*.tmp"):
            for path in self.root.glob(pattern):
                path.unlink(missing_ok=True)
