"""ResultStore: index, LRU+TTL eviction, GC, estimates, counters."""

import json
import os

import pytest

from repro.exec import (ResultStore, ScenarioSpec, SweepRunner,
                        atomic_write_json, exec_stats, fig2_spec)
from repro.units import MB

TINY = dict(n_tasks=4, file_size=4 * MB)


def spec_n(n: int) -> ScenarioSpec:
    return ScenarioSpec.make("fig2", alpha=0.25, n_tasks=n)


def payload_of(size: int) -> dict:
    """A payload whose blob lands within a few bytes of *size*."""
    return {"pad": "x" * size}


class FakeClock:
    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t


class TestBasics:
    def test_miss_put_hit_counters(self, store_dir):
        store = ResultStore(salt="v1")
        assert store.root == store_dir
        spec = spec_n(1)
        assert store.get(spec) is None
        assert exec_stats.store_misses == 1
        path = store.put(spec, {"ok": 1})
        assert path.is_file()
        assert store.get(spec) == {"ok": 1}
        assert exec_stats.store_hits == 1
        assert exec_stats.store_stores == 1
        assert len(store) == 1

    def test_persists_across_instances(self, store_dir):
        ResultStore(salt="v1").put(spec_n(1), {"ok": 1}, wall_s=2.5)
        reopened = ResultStore(salt="v1")
        assert reopened.get(spec_n(1)) == {"ok": 1}
        assert reopened.estimate(spec_n(1)) == 2.5

    def test_salt_change_invalidates_in_place(self, store_dir):
        old = ResultStore(salt="v1")
        old.put(spec_n(1), {"ok": 1})
        new = ResultStore(salt="v2")
        assert new.get(spec_n(1)) is None
        assert exec_stats.store_invalidations == 1
        # the stale blob is gone and the entry dropped
        assert len(new) == 0
        assert not list(new.blob_dir.glob("*.json"))

    def test_spec_change_is_a_plain_miss(self, store_dir):
        store = ResultStore(salt="v1")
        store.put(spec_n(1), {"ok": 1})
        assert store.get(spec_n(2)) is None
        assert exec_stats.store_invalidations == 0
        # the original entry survives
        assert store.get(spec_n(1)) == {"ok": 1}

    def test_payload_round_trips_exactly(self, store_dir):
        store = ResultStore(salt="v1")
        payload = {"x": 0.1 + 0.2, "y": [1e-300, 3, None, "s"],
                   "nested": {"z": False}}
        store.put(spec_n(1), payload)
        assert ResultStore(salt="v1").get(spec_n(1)) == payload

    def test_corrupt_blob_is_a_miss_and_recovers(self, store_dir):
        store = ResultStore(salt="v1")
        path = store.put(spec_n(1), {"ok": 1})
        path.write_text("{not json")
        assert store.get(spec_n(1)) is None
        store.put(spec_n(1), {"ok": 1})
        assert store.get(spec_n(1)) == {"ok": 1}

    def test_explicit_root_beats_env(self, tmp_path, store_dir):
        explicit = tmp_path / "elsewhere"
        store = ResultStore(root=explicit, salt="v1")
        store.put(spec_n(1), {"ok": 1})
        assert (explicit / "blobs").is_dir()
        assert not store_dir.exists()

    def test_clear_drops_entries_and_estimates(self, store_dir):
        store = ResultStore(salt="v1")
        store.put(spec_n(1), {"ok": 1}, wall_s=1.0)
        store.put(spec_n(2), {"ok": 2}, wall_s=2.0)
        assert store.clear() == 2
        assert len(store) == 0
        assert store.estimate(spec_n(1)) is None
        assert store.total_bytes() == 0


class TestEviction:
    def test_lru_eviction_keeps_store_under_budget(self, store_dir):
        blob_size = ResultStore(root=store_dir / "probe", salt="v1").put(
            spec_n(0), payload_of(100)).stat().st_size
        store = ResultStore(salt="v1", max_bytes=3 * blob_size + 10)
        for n in range(1, 4):
            store.put(spec_n(n), payload_of(100))
        assert len(store) == 3
        # Touch 1 so 2 becomes least-recently-used.
        assert store.get(spec_n(1)) is not None
        store.put(spec_n(4), payload_of(100))
        assert store.total_bytes() <= store.max_bytes
        assert exec_stats.store_evictions == 1
        assert store.get(spec_n(2)) is None       # the LRU victim
        exec_stats.reset()
        for n in (1, 3, 4):                       # survivors intact
            assert store.get(spec_n(n)) is not None
        assert exec_stats.store_hits == 3

    def test_oversized_entry_is_evicted_too(self, store_dir):
        store = ResultStore(salt="v1", max_bytes=64)
        store.put(spec_n(1), payload_of(500), wall_s=3.0)
        # The budget is a hard cap even against the newest entry...
        assert store.total_bytes() == 0
        assert len(store) == 0
        assert exec_stats.store_evictions == 1
        # ...but its runtime estimate survives eviction.
        assert store.estimate(spec_n(1)) == 3.0

    def test_ttl_expiry_on_get(self, store_dir):
        clock = FakeClock(100.0)
        store = ResultStore(salt="v1", ttl_s=60.0, clock=clock)
        store.put(spec_n(1), {"ok": 1})
        clock.t = 150.0
        assert store.get(spec_n(1)) == {"ok": 1}   # within TTL
        clock.t = 161.0
        assert store.get(spec_n(1)) is None
        assert exec_stats.store_expirations == 1
        assert len(store) == 0

    def test_ttl_expiry_on_put_sweeps_old_entries(self, store_dir):
        clock = FakeClock(0.0)
        store = ResultStore(salt="v1", ttl_s=60.0, clock=clock)
        store.put(spec_n(1), {"ok": 1})
        store.put(spec_n(2), {"ok": 2})
        clock.t = 100.0
        store.put(spec_n(3), {"ok": 3})
        assert exec_stats.store_expirations == 2
        assert len(store) == 1
        assert store.get(spec_n(3)) == {"ok": 3}

    def test_byte_gauge_reconciles_with_disk(self, store_dir):
        store = ResultStore(salt="v1", max_bytes=100_000)
        for n in range(1, 5):
            store.put(spec_n(n), payload_of(50 * n))
        on_disk = sum(p.stat().st_size
                      for p in store.blob_dir.glob("*.json"))
        assert store.total_bytes() == on_disk
        assert exec_stats.store_bytes == on_disk


class TestGC:
    def test_gc_removes_orphans_not_indexed_blobs(self, store_dir):
        store = ResultStore(salt="v1")
        live = store.put(spec_n(1), {"ok": 1})
        orphan = store.blob_dir / ("0" * 64 + ".json")
        orphan.write_text(json.dumps({"payload": {}}))
        stray_tmp = store.blob_dir / "deadbeef.json.abc123.tmp"
        stray_tmp.write_text("{")
        report = store.gc()
        assert report == {"orphan_blobs": 1, "dangling_entries": 0}
        assert exec_stats.store_gc_orphans == 1
        assert not orphan.exists()
        assert not stray_tmp.exists()
        assert live.exists()
        assert store.get(spec_n(1)) == {"ok": 1}

    def test_gc_drops_entries_whose_blob_vanished(self, store_dir):
        store = ResultStore(salt="v1")
        path = store.put(spec_n(1), {"ok": 1})
        path.unlink()
        report = store.gc()
        assert report == {"orphan_blobs": 0, "dangling_entries": 1}
        assert len(store) == 0
        # A reopened store agrees (the pruned index was persisted).
        assert len(ResultStore(salt="v1")) == 0

    def test_gc_on_empty_store_is_a_noop(self, store_dir):
        assert ResultStore(salt="v1").gc() == {"orphan_blobs": 0,
                                               "dangling_entries": 0}


class TestAtomicWrite:
    """Torn-write regression: unique temp names + rename publication."""

    def test_crash_mid_write_leaves_published_entry_intact(self, tmp_path,
                                                           monkeypatch):
        target = tmp_path / "entry.json"
        atomic_write_json(target, {"v": 1})

        class Boom(RuntimeError):
            pass

        def explode(obj, fh, **kwargs):
            fh.write('{"v": 2, "partial": ')  # tear mid-object...
            raise Boom("disk full / SIGKILL stand-in")

        monkeypatch.setattr("repro.exec.store.json.dump", explode)
        with pytest.raises(Boom):
            atomic_write_json(target, {"v": 2})
        # The published entry still reads back whole, and the torn temp
        # file was removed rather than left for a future rename.
        assert json.loads(target.read_text()) == {"v": 1}
        assert list(tmp_path.iterdir()) == [target]

    def test_concurrent_writers_get_private_temp_names(self, tmp_path,
                                                       monkeypatch):
        # A shared "<name>.tmp" per target would let writer B truncate
        # the temp file writer A was renaming.  Pin the fix: two
        # interleaved writes use distinct temp paths.
        import repro.exec.store as store_mod

        seen = []
        real_replace = os.replace

        def spy_replace(src, dst):
            seen.append(str(src))
            real_replace(src, dst)

        monkeypatch.setattr(store_mod.os, "replace", spy_replace)
        target = tmp_path / "entry.json"
        atomic_write_json(target, {"v": 1})
        atomic_write_json(target, {"v": 2})
        assert len(seen) == 2 and seen[0] != seen[1]
        assert all(s.endswith(".tmp") and "entry.json." in s for s in seen)
        assert json.loads(target.read_text()) == {"v": 2}


class TestEstimates:
    def test_newest_measurement_wins(self, store_dir):
        store = ResultStore(salt="v1")
        store.record_estimate(spec_n(1), 5.0)
        store.record_estimate(spec_n(1), 2.0)
        assert store.estimate(spec_n(1)) == 2.0
        assert store.estimate(spec_n(2)) is None

    def test_estimates_key_ignores_salt(self, store_dir):
        ResultStore(salt="v1").put(spec_n(1), {"ok": 1}, wall_s=4.0)
        # A code-version bump invalidates payloads but keeps the
        # scheduling hint: estimates address by spec_key, not fingerprint.
        new = ResultStore(salt="v2")
        assert new.get(spec_n(1)) is None
        assert new.estimate(spec_n(1)) == 4.0


class TestRunnerIntegration:
    def test_drop_in_for_result_cache(self, store_dir):
        specs = [fig2_spec(a, **TINY) for a in (0.0, 0.5, 1.0)]
        store = ResultStore(salt="v1")
        cold = SweepRunner("serial", cache=store).run(specs)
        assert exec_stats.scenarios_run == 3
        assert exec_stats.store_stores == 3
        # Wall-time estimates were recorded for the scheduler.
        assert all(store.estimate(s) is not None for s in specs)
        warm = SweepRunner("serial", cache=store).run(specs)
        assert exec_stats.scenarios_run == 3  # unchanged: zero new sims
        assert exec_stats.store_hits == 3
        assert all(r.cached for r in warm)
        assert json.dumps([r.payload for r in cold], sort_keys=True) == \
            json.dumps([r.payload for r in warm], sort_keys=True)

    def test_empty_store_is_still_used(self, store_dir):
        # Regression: ResultStore defines __len__, so an empty store is
        # falsy — the runner must keep it by identity, not truthiness.
        store = ResultStore(salt="v1")
        runner = SweepRunner("serial", cache=store)
        assert runner.cache is store
        runner.run([fig2_spec(0.5, **TINY)])
        assert len(store) == 1


class TestAdvisoryLocking:
    """Index mutations are serialized read-modify-write across writers."""

    def test_lock_file_created_on_put(self, store_dir):
        store = ResultStore(salt="v1")
        store.put(spec_n(1), {"ok": 1})
        assert store.lock_path.is_file()

    def test_stale_instance_does_not_clobber(self, store_dir):
        # Two store handles over one directory (two "processes").  B
        # loads the index, then A publishes an entry; B's put must
        # re-read under the lock and keep A's entry instead of saving
        # its own stale copy over it (the old last-writer-wins bug).
        a = ResultStore(salt="v1")
        b = ResultStore(salt="v1")
        assert b.get(spec_n(2)) is None  # b caches the (empty) index
        a.put(spec_n(1), {"who": "a"})
        b.put(spec_n(2), {"who": "b"})
        fresh = ResultStore(salt="v1")
        assert len(fresh) == 2
        assert fresh.get(spec_n(1)) == {"who": "a"}
        assert fresh.get(spec_n(2)) == {"who": "b"}

    def test_concurrent_writer_processes(self, store_dir, tmp_path):
        # The real thing: several writer processes hammer one store;
        # every entry must survive.  Without the flock the interleaved
        # index read-modify-writes drop entries nondeterministically.
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[2] / "src"
        worker = (
            "import sys\n"
            f"sys.path.insert(0, {str(src)!r})\n"
            "from repro.exec import ResultStore, ScenarioSpec\n"
            f"store = ResultStore(root={str(store_dir)!r}, salt='v1')\n"
            "wid = int(sys.argv[1])\n"
            "for i in range(6):\n"
            "    spec = ScenarioSpec.make('fig2', alpha=0.25,\n"
            "                             n_tasks=wid * 100 + i)\n"
            "    store.put(spec, {'w': wid, 'i': i}, wall_s=0.1)\n"
        )
        procs = [subprocess.Popen([sys.executable, "-c", worker, str(w)],
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE)
                 for w in range(4)]
        for p in procs:
            _, err = p.communicate(timeout=120)
            assert p.returncode == 0, err.decode()
        store = ResultStore(root=store_dir, salt="v1")
        assert len(store) == 4 * 6
        for w in range(4):
            for i in range(6):
                spec = ScenarioSpec.make("fig2", alpha=0.25,
                                         n_tasks=w * 100 + i)
                assert store.get(spec) == {"w": w, "i": i}
                assert store.estimate(spec) == 0.1
