"""Persistent on-disk compile cache: cross-process reuse and resilience.

The disk tier must make a *fresh* cache instance (the cross-process case)
serve compiled artifacts without recompilation, survive corrupted and
concurrent writes, and invalidate itself when the artifact format version
changes.  The in-memory :class:`ArtifactCache` fixes ride along: a stored
``None`` is a hit, not a miss.
"""

from __future__ import annotations

import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.config import SystemConfig
from repro.engine import CellCompiler
from repro.engine.cache import (
    CACHE_ENV_VAR,
    ArtifactCache,
    PersistentArtifactCache,
    default_cache,
    fingerprint,
    resolve_cache_dir,
)
from repro.study.cli import main
from repro.study.study import Study

SMALL_SYSTEM_FLAGS = [
    "--data-qubits", "16", "--comm-qubits", "4", "--buffer-qubits", "4",
]


# ---------------------------------------------------------------------------
# in-memory cache regressions (satellite fix)
# ---------------------------------------------------------------------------
class TestArtifactCacheSentinel:
    def test_stored_none_is_a_hit(self):
        cache = ArtifactCache()
        cache.put("ns", "k", None)
        assert cache.get("ns", "k") is None
        assert cache.hits == 1
        assert cache.misses == 0

    def test_absent_key_is_a_miss(self):
        cache = ArtifactCache()
        assert cache.get("ns", "absent") is None
        assert cache.misses == 1

    def test_stats_are_plain_ints(self):
        cache = ArtifactCache()
        cache.put("ns", "k", 1)
        cache.get("ns", "k")
        cache.get("ns", "absent")
        stats = cache.stats()
        for field in ("entries", "hits", "misses", "lookups"):
            assert type(stats[field]) is int
        assert type(stats["hit_rate"]) is float


# ---------------------------------------------------------------------------
# the disk tier
# ---------------------------------------------------------------------------
class TestPersistentCache:
    def test_fresh_instance_reads_prior_writes(self, tmp_path):
        """A new instance on the same directory — the cross-process case."""
        first = PersistentArtifactCache(tmp_path)
        first.put("cell", "abc", {"payload": [1, 2, 3]})
        second = PersistentArtifactCache(tmp_path)
        assert second.get("cell", "abc") == {"payload": [1, 2, 3]}
        assert second.disk_hits == 1
        assert second.misses == 0

    def test_memory_front_serves_repeat_lookups(self, tmp_path):
        cache = PersistentArtifactCache(tmp_path)
        cache.put("cell", "abc", "artifact")
        cache.get("cell", "abc")
        assert cache.memory_hits == 1
        assert cache.disk_hits == 0

    def test_disk_hit_promotes_to_memory(self, tmp_path):
        cache = PersistentArtifactCache(tmp_path)
        cache.put("cell", "abc", "artifact")
        warm = PersistentArtifactCache(tmp_path)
        warm.get("cell", "abc")
        warm.get("cell", "abc")
        assert warm.disk_hits == 1
        assert warm.memory_hits == 1

    def test_version_salt_invalidates(self, tmp_path):
        old = PersistentArtifactCache(tmp_path, version=1)
        old.put("cell", "abc", "v1-artifact")
        upgraded = PersistentArtifactCache(tmp_path, version=2)
        assert upgraded.get("cell", "abc") is None
        assert upgraded.misses == 1
        # The v1 tree is untouched: a rollback still finds its artifacts.
        assert PersistentArtifactCache(tmp_path, version=1).get(
            "cell", "abc") == "v1-artifact"

    def test_corrupted_entry_recovers_as_miss(self, tmp_path):
        cache = PersistentArtifactCache(tmp_path)
        cache.put("cell", "abc", "artifact")
        path = cache.entry_path("cell", "abc")
        path.write_bytes(b"not a pickle")
        fresh = PersistentArtifactCache(tmp_path)
        assert fresh.get("cell", "abc") is None
        assert fresh.disk_errors == 1
        assert not path.exists()  # the bad entry is dropped, not retried

    def test_no_tmp_files_left_behind(self, tmp_path):
        cache = PersistentArtifactCache(tmp_path)
        for index in range(5):
            cache.put("cell", f"k{index}", list(range(index)))
        leftovers = [p for p in tmp_path.rglob("*") if p.suffix == ".tmp"]
        assert leftovers == []

    def test_unpicklable_artifact_degrades_to_memory(self, tmp_path):
        cache = PersistentArtifactCache(tmp_path)
        artifact = lambda: None  # noqa: E731 - deliberately unpicklable
        with pytest.raises(Exception):
            pickle.dumps(artifact)
        cache.put("cell", "abc", artifact)
        assert cache.get("cell", "abc") is artifact  # memory still serves it
        assert PersistentArtifactCache(tmp_path).get("cell", "abc") is None

    def test_bounded_memory_keeps_disk_complete(self, tmp_path):
        cache = PersistentArtifactCache(tmp_path, max_entries=2)
        for index in range(5):
            cache.put("cell", f"k{index}", index)
        assert len(cache) == 2  # memory evicted down to the bound
        assert cache.disk_count() == 5  # the disk tier keeps everything
        assert cache.get("cell", "k0") == 0  # evicted entries reload

    def test_stored_none_round_trips_through_disk(self, tmp_path):
        cache = PersistentArtifactCache(tmp_path)
        cache.put("cell", "abc", None)
        fresh = PersistentArtifactCache(tmp_path)
        assert fresh.get("cell", "abc") is None
        assert fresh.disk_hits == 1
        assert fresh.misses == 0

    def test_clear_removes_disk_tree(self, tmp_path):
        cache = PersistentArtifactCache(tmp_path)
        cache.put("cell", "abc", "artifact")
        cache.clear()
        assert cache.disk_count() == 0
        assert PersistentArtifactCache(tmp_path).get("cell", "abc") is None

    def test_stats_include_disk_counters(self, tmp_path):
        cache = PersistentArtifactCache(tmp_path)
        cache.put("cell", "abc", "artifact")
        cache.get("cell", "abc")
        stats = cache.stats()
        assert stats["memory_hits"] == 1
        assert stats["disk_entries"] == 1
        assert stats["disk_bytes"] > 0
        for field in ("memory_hits", "disk_hits", "disk_errors",
                      "disk_entries", "disk_bytes"):
            assert type(stats[field]) is int


# ---------------------------------------------------------------------------
# resolution / construction helpers
# ---------------------------------------------------------------------------
class TestResolution:
    def test_explicit_dir_wins_over_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "env"))
        assert resolve_cache_dir(tmp_path / "flag") == tmp_path / "flag"

    def test_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "env"))
        assert resolve_cache_dir(None) == tmp_path / "env"

    def test_no_dir_resolves_to_none(self, monkeypatch):
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        assert resolve_cache_dir(None) is None
        assert resolve_cache_dir("") is None

    def test_default_cache_tiers(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        memory_only = default_cache()
        assert type(memory_only) is ArtifactCache
        persistent = default_cache(tmp_path)
        assert isinstance(persistent, PersistentArtifactCache)
        assert persistent.directory == tmp_path

    def test_study_honours_cache_dir(self, tmp_path):
        study = Study(benchmarks="TLIM-16", cache_dir=tmp_path)
        assert isinstance(study.cache, PersistentArtifactCache)
        study.close()

    def test_fingerprint_is_process_stable(self, tmp_path):
        """Fingerprints must match across interpreter runs for disk reuse."""
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "from repro.engine.cache import fingerprint; "
                "print(fingerprint('cell', ('TLIM-16', 'original'), 42))")
        src = str(Path(__file__).resolve().parent.parent / "src")
        runs = {
            subprocess.run(
                [sys.executable, "-c", code, src],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
            for _ in range(2)
        }
        assert runs == {fingerprint("cell", ("TLIM-16", "original"), 42)}


# ---------------------------------------------------------------------------
# end to end: compile once, reuse from a fresh process
# ---------------------------------------------------------------------------
class TestCrossProcessCompileReuse:
    def test_second_compiler_instance_skips_compilation(self, tmp_path):
        system = SystemConfig()
        cold = CellCompiler(system=system, cache_dir=tmp_path)
        cold.compile("TLIM-16", "original")
        assert cold.cache.misses > 0
        warm = CellCompiler(system=system, cache_dir=tmp_path)
        warm.compile("TLIM-16", "original")
        assert warm.cache.misses == 0
        assert warm.cache.disk_hits > 0

    def test_cached_cell_executes_identically(self, tmp_path):
        system = SystemConfig()
        seeds = [1, 2, 3]
        direct = CellCompiler(system=system).compile("QAOA-r2-16", "adapt_buf")
        expected = direct.execute_batch(seeds, mode="batched")
        CellCompiler(system=system, cache_dir=tmp_path).compile(
            "QAOA-r2-16", "adapt_buf")
        revived = CellCompiler(system=system, cache_dir=tmp_path).compile(
            "QAOA-r2-16", "adapt_buf")
        assert revived.execute_batch(seeds, mode="batched") == expected

    def test_cli_second_run_hits_everything(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        argv = ["run", "--benchmark", "TLIM-16", "--design", "original",
                "--runs", "2", "--cache-dir", cache_dir, "--quiet",
                *SMALL_SYSTEM_FLAGS]
        assert main(argv) == 0
        first = capsys.readouterr().err
        assert "compile cache:" in first
        assert main(argv) == 0
        second = capsys.readouterr().err
        assert "misses=0" in second
        assert "hit_rate=1.00" in second

    def test_cli_cache_stats_show_clear(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["run", "--benchmark", "TLIM-16", "--design", "original",
                     "--runs", "1", "--cache-dir", cache_dir, "--quiet",
                     *SMALL_SYSTEM_FLAGS]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "disk_entries" in capsys.readouterr().out
        assert main(["cache", "show", "--cache-dir", cache_dir]) == 0
        assert "cell" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "cleared" in capsys.readouterr().out
        assert PersistentArtifactCache(cache_dir).disk_count() == 0

    def test_cli_cache_requires_a_directory(self, monkeypatch, capsys):
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        assert main(["cache", "stats"]) == 2
        assert "no cache directory" in capsys.readouterr().err

    def test_cli_cache_env_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        assert main(["cache", "stats"]) == 0
        assert str(tmp_path) in capsys.readouterr().out
