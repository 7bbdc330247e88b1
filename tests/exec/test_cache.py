"""ResultStore as a sweep's result cache, seen through SweepRunner:
hits, misses, salt invalidation, corruption handling, clearing."""

from repro.exec import ResultStore, SweepRunner, exec_stats, fig2_spec
from repro.units import MB

SPEC = fig2_spec(0.25, n_tasks=4, file_size=4 * MB)


def _run(store):
    return SweepRunner(cache=store).run([SPEC])[0]


class TestCache:
    def test_miss_then_hit(self, store_dir):
        store = ResultStore(salt="v1")
        assert store.root == store_dir
        cold = _run(store)
        assert not cold.cached
        assert exec_stats.store_misses == 1
        assert exec_stats.store_stores == 1
        warm = _run(store)
        assert warm.cached and warm.payload == cold.payload
        assert exec_stats.store_hits == 1
        assert exec_stats.scenarios_run == 1  # the hit simulated nothing

    def test_salt_change_invalidates_stale_entry(self, store_dir):
        cold = _run(ResultStore(salt="v1"))
        new = ResultStore(salt="v2")
        fresh = _run(new)
        assert not fresh.cached and fresh.payload == cold.payload
        assert exec_stats.store_invalidations == 1
        assert exec_stats.scenarios_run == 2
        # the stale blob was replaced, not kept beside the fresh one
        assert len(list(new.blob_dir.glob("*.json"))) == 1
        assert _run(new).cached

    def test_corrupt_blob_is_a_miss_and_recovers(self, store_dir):
        store = ResultStore(salt="v1")
        cold = _run(store)
        store.blob_path(SPEC.fingerprint("v1")).write_text("{not json")
        again = _run(store)
        assert not again.cached and again.payload == cold.payload
        assert exec_stats.scenarios_run == 2
        assert _run(store).cached

    def test_clear(self, store_dir):
        store = ResultStore(salt="v1")
        _run(store)
        assert store.clear() == 1
        assert not _run(store).cached
        assert exec_stats.scenarios_run == 2

    def test_explicit_root_beats_env(self, tmp_path, store_dir):
        explicit = tmp_path / "elsewhere"
        _run(ResultStore(root=explicit, salt="v1"))
        assert list((explicit / "blobs").glob("*.json"))
        assert not store_dir.exists()


class TestAtomicWrite:
    def test_clear_sweeps_orphaned_temp_files(self, store_dir):
        store = ResultStore(salt="v1")
        _run(store)
        orphans = [store.blob_dir / "entry.json.abc123.tmp",
                   store.root / "index.json.def456.tmp"]
        for orphan in orphans:
            orphan.write_text('{"torn":')
        assert store.clear() == 1  # temp files are not entries
        assert not any(o.exists() for o in orphans)
        assert not list(store.blob_dir.glob("*.json"))
