"""Robustness tests for the persistent result cache.

The contract: a corrupt entry can never feed a wrong number into a
figure.  Junk bytes and checksum failures are quarantined; entries from
another schema are plain misses; concurrent writers never tear a file.
"""

import json
import multiprocessing
import os

import pytest

from repro.runtime import CACHE_SCHEMA, ResultCache
from repro.runtime.cache import QUARANTINE_DIR, cache_enabled
from repro.runtime.parallel import ParallelRunner
from repro.uarch import SimStats
from repro.uarch.config import wb

KEY = "ab" * 32


@pytest.fixture
def cache(tmp_path):
    return ResultCache(root=str(tmp_path / "cache"), enabled=True)


def write_raw(cache, key, text):
    path = cache.path_for(key)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def quarantined_files(cache):
    qdir = os.path.join(cache.root, QUARANTINE_DIR)
    return sorted(os.listdir(qdir)) if os.path.isdir(qdir) else []


class TestCorruptEntries:
    def test_junk_bytes_are_quarantined(self, cache):
        path = write_raw(cache, KEY, "{garbage")
        assert cache.get(KEY) is None
        assert not os.path.exists(path)            # moved, not deleted
        assert quarantined_files(cache) == [os.path.basename(path)]
        assert cache.quarantined == [path]

    def test_truncated_entry_is_quarantined(self, cache):
        cache.put(KEY, SimStats(cycles=10, committed=7))
        path = cache.path_for(KEY)
        with open(path) as fh:
            text = fh.read()
        write_raw(cache, KEY, text[:len(text) // 2])
        assert cache.get(KEY) is None
        assert quarantined_files(cache)

    def test_checksum_tamper_is_quarantined(self, cache):
        cache.put(KEY, SimStats(cycles=10, committed=7))
        path = cache.path_for(KEY)
        with open(path) as fh:
            envelope = json.load(fh)
        envelope["stats"]["cycles"] = 99999        # silent bit-flip
        with open(path, "w") as fh:
            json.dump(envelope, fh)
        assert cache.get(KEY) is None
        assert quarantined_files(cache)

    def test_missing_envelope_fields_are_quarantined(self, cache):
        write_raw(cache, KEY, json.dumps({"cycles": 10}))
        assert cache.get(KEY) is None
        assert quarantined_files(cache)

    def test_quarantined_entry_not_rescanned(self, cache):
        write_raw(cache, KEY, "{garbage")
        cache.get(KEY)
        report = cache.verify()
        assert report["ok"] == 0 and report["corrupt"] == 0

    def test_intact_entry_survives(self, cache):
        st = SimStats(cycles=10, committed=7)
        cache.put(KEY, st)
        assert cache.get(KEY) == st
        assert quarantined_files(cache) == []


class TestSchemaMismatch:
    def test_other_schema_is_a_miss_not_corruption(self, cache):
        cache.put(KEY, SimStats(cycles=10, committed=7))
        path = cache.path_for(KEY)
        with open(path) as fh:
            envelope = json.load(fh)
        envelope["schema"] = CACHE_SCHEMA - 1
        with open(path, "w") as fh:
            json.dump(envelope, fh)
        assert cache.get(KEY) is None              # miss ...
        assert os.path.exists(path)                # ... left in place
        assert quarantined_files(cache) == []

    def test_schema_mismatch_re_simulates(self, cache):
        """A stale-schema entry must trigger a fresh simulation."""
        cfg = wb(1, 256)
        first = ParallelRunner(scale=0.05, seed=1, jobs=1, cache=cache)
        st = first.run("eon", cfg)
        assert first.sims_run == 1
        # Downgrade the stored entry's schema in place.
        from repro.runtime import RunSpec, run_key
        key = run_key(RunSpec("eon", 0.05, 1, cfg))
        path = cache.path_for(key)
        with open(path) as fh:
            envelope = json.load(fh)
        envelope["schema"] = CACHE_SCHEMA - 1
        with open(path, "w") as fh:
            json.dump(envelope, fh)
        second = ParallelRunner(scale=0.05, seed=1, jobs=1, cache=cache)
        again = second.run("eon", cfg)
        assert second.sims_run == 1 and second.disk_hits == 0
        assert again == st


class TestVerify:
    def test_verify_counts_and_quarantines(self, cache):
        cache.put(KEY, SimStats(cycles=10, committed=7))
        write_raw(cache, "cd" * 32, "{junk")
        report = cache.verify()
        assert report["ok"] == 1 and report["corrupt"] == 1
        assert quarantined_files(cache)
        # Second pass is clean.
        assert cache.verify()["corrupt"] == 0

    def test_verify_without_quarantine_leaves_files(self, cache):
        path = write_raw(cache, KEY, "{junk")
        report = cache.verify(quarantine=False)
        assert report["corrupt"] == 1
        assert os.path.exists(path)

    def test_info_counts_quarantined_separately(self, cache):
        cache.put(KEY, SimStats(cycles=1))
        write_raw(cache, "cd" * 32, "{junk")
        cache.get("cd" * 32)
        info = cache.info()
        assert info["entries"] == 1 and info["quarantined"] == 1


def _writer(root, key, cycles, n):
    cache = ResultCache(root=root, enabled=True)
    for i in range(n):
        cache.put(key, SimStats(cycles=cycles, committed=cycles))


class TestConcurrentWriters:
    def test_parallel_writers_never_tear_an_entry(self, cache):
        """Hammer one key from several processes; every read of the
        final file must be a valid, checksummed entry."""
        ctx = multiprocessing.get_context()
        procs = [ctx.Process(target=_writer,
                             args=(cache.root, KEY, 100 + i, 25))
                 for i in range(4)]
        for p in procs:
            p.start()
        for p in procs:
            p.join()
        assert all(p.exitcode == 0 for p in procs)
        st = cache.get(KEY)
        assert st is not None and st.cycles in (100, 101, 102, 103)
        assert quarantined_files(cache) == []
        leftovers = [n for _, _, names in os.walk(cache.root)
                     for n in names if n.endswith(".tmp")]
        assert leftovers == []


class TestFaultModeDisablesCache:
    def test_repro_faults_disables(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert cache_enabled()
        monkeypatch.setenv("REPRO_FAULTS", "squash@100")
        assert not cache_enabled()


class TestCacheCounters:
    """The lifetime record: the runners' source tallies merged into
    ``counters.json`` — the cache itself counts nothing."""

    def test_runner_record_persists_disk_and_sim(self, cache):
        cfg = wb(1, 256)
        ParallelRunner(scale=0.05, seed=1, jobs=1, cache=cache).run(
            "eon", cfg)
        assert cache.load_counters()["sim"] == 1
        warm = ParallelRunner(scale=0.05, seed=1, jobs=1, cache=cache)
        warm.run("eon", cfg)
        assert (cache.load_counters()["sim"],
                cache.load_counters()["disk"]) == (1, 1)
        assert not hasattr(cache, "hits")

    def test_corrupt_entry_counts_as_miss(self, cache):
        cfg = wb(1, 256)
        ParallelRunner(scale=0.05, seed=1, jobs=1, cache=cache).run(
            "eon", cfg)
        from repro.runtime import RunSpec, run_key
        write_raw(cache, run_key(RunSpec("eon", 0.05, 1, cfg)), "{garbage")
        again = ParallelRunner(scale=0.05, seed=1, jobs=1, cache=cache)
        again.run("eon", cfg)
        assert (again.disk_hits, again.sims_run) == (0, 1)
        assert cache.load_counters()["sim"] == 2

    def test_disabled_cache_counts_nothing(self, tmp_path):
        c = ResultCache(root=str(tmp_path / "c"), enabled=False)
        assert c.merge_counters({"sim": 1})
        assert c.load_counters() == {}
        assert not os.path.exists(c.root)

    def test_flush_merges_across_instances(self, cache):
        assert cache.merge_counters({"sim": 1, "failed": 2})
        other = ResultCache(root=cache.root, enabled=True)
        assert other.merge_counters({"sim": 1, "disk": 3})
        assert other.load_counters() == {"sim": 2, "failed": 2, "disk": 3}

    def test_counters_file_is_not_a_cache_entry(self, cache):
        cache.merge_counters({"sim": 1})
        info = cache.info()
        assert info["entries"] == 0          # counters.json excluded
        report = cache.verify()
        assert report["corrupt"] == 0        # never quarantined
        assert cache.load_counters()["sim"] == 1

    def test_info_reads_the_persisted_record(self, cache):
        cache.merge_counters({"memo": 2, "sim": 1})
        assert cache.info()["counters"] == {"memo": 2, "sim": 1}

    def test_clear_resets_counters(self, cache):
        cache.merge_counters({"sim": 1})
        cache.clear()
        assert cache.load_counters() == {}
        assert cache.info()["counters"] == {}

    def test_legacy_counter_keys_are_dropped_on_merge(self, cache):
        os.makedirs(cache.root, exist_ok=True)
        path = os.path.join(cache.root, "counters.json")
        with open(path, "w") as fh:
            fh.write('{"hits": 4, "misses": 2, "coalesced": 1, "sim": 3}')
        assert cache.load_counters() == {"sim": 3}
        assert cache.merge_counters({"sim": 1})
        with open(path) as fh:
            assert json.load(fh) == {"sim": 4}

    def test_unreadable_counters_file_reads_as_zero(self, cache):
        cache.merge_counters({"sim": 1})
        with open(os.path.join(cache.root, "counters.json"), "w") as fh:
            fh.write("{broken")
        assert cache.load_counters() == {}
