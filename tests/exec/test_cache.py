"""Tests for the persistent result cache (repro.exec.cache)."""

import json
import os
import shutil

import pytest

from repro.config import test_config as tiny_config
from repro.exec import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    RunKey,
    config_fingerprint,
    deserialize_result,
    execute_cell,
    key_fingerprint,
    serialize_result,
)
from repro.workloads import Scale


@pytest.fixture(scope="module")
def key():
    return RunKey("SCN", "none", Scale.TINY, tiny_config())


@pytest.fixture(scope="module")
def result(key):
    return execute_cell(key)


class TestFingerprints:
    def test_config_fingerprint_stable(self):
        assert config_fingerprint(tiny_config()) == \
            config_fingerprint(tiny_config())

    def test_config_fingerprint_content_sensitive(self):
        assert config_fingerprint(tiny_config()) != \
            config_fingerprint(tiny_config(max_cycles=999))

    def test_key_fingerprint_varies_per_cell(self, key):
        other = RunKey("SCN", "nlp", Scale.TINY, key.config)
        assert key_fingerprint(key) != key_fingerprint(other)

    def test_scale_in_key(self, key):
        other = RunKey("SCN", "none", Scale.SMALL, key.config)
        assert key_fingerprint(key) != key_fingerprint(other)


class TestSerialization:
    def test_round_trip_equality(self, result):
        assert deserialize_result(serialize_result(result)) == result

    def test_round_trip_through_json(self, result):
        payload = json.loads(json.dumps(serialize_result(result)))
        restored = deserialize_result(payload)
        assert restored == result
        assert restored.ipc == result.ipc
        assert restored.prefetch_stats.accuracy() == \
            result.prefetch_stats.accuracy()


class TestResultCache:
    def test_miss_then_hit(self, tmp_path, key, result):
        cache = ResultCache(tmp_path)
        assert cache.get(key) is None
        cache.put(key, result)
        assert cache.get(key) == result
        assert cache.misses == 1 and cache.hits == 1
        assert len(cache) == 1

    def test_layout_is_versioned(self, tmp_path, key, result):
        cache = ResultCache(tmp_path)
        path = cache.put(key, result)
        assert path.parent.name == f"v{CACHE_SCHEMA_VERSION}"
        assert path.parent.parent == tmp_path

    def test_atomic_put_leaves_no_temp_files(self, tmp_path, key, result):
        cache = ResultCache(tmp_path)
        cache.put(key, result)
        leftovers = [p for p in cache.version_dir.iterdir()
                     if p.suffix != ".json"]
        assert leftovers == []

    def test_put_after_directory_removed_underneath(self, tmp_path, key,
                                                    result):
        cache = ResultCache(tmp_path / "cache")
        cache.put(key, result)
        shutil.rmtree(cache.root)
        cache.put(key, result)
        assert cache.get(key) == result

    def test_failing_write_leaves_no_temp_file(self, tmp_path, key, result,
                                               monkeypatch):
        cache = ResultCache(tmp_path)
        cache.put(key, result)

        def refuse(src, dst):
            raise OSError("injected: replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="injected"):
            cache.put(key, result)
        assert [p.name for p in cache.version_dir.iterdir()] == \
            [cache.path_for(key).name]

    def test_failing_cleanup_does_not_replace_the_write_error(
            self, tmp_path, key, result):
        """A root that is a regular file fails the write and the temp
        file's unlink alike; the write's error is the one raised."""
        root = tmp_path / "file"
        root.write_text("not a directory")
        with pytest.raises(NotADirectoryError) as err:
            ResultCache(root).put(key, result)
        assert err.value.__context__ is None
        assert root.read_text() == "not a directory"

    def test_config_hash_mismatch_invalidates(self, tmp_path, key, result):
        cache = ResultCache(tmp_path)
        path = cache.put(key, result)
        payload = json.loads(path.read_text())
        payload["key"]["config_hash"] = "0" * 64
        path.write_text(json.dumps(payload))
        assert cache.get(key) is None
        assert cache.invalidated == 1
        assert not path.exists()  # stale entry removed

    def test_schema_mismatch_invalidates(self, tmp_path, key, result):
        cache = ResultCache(tmp_path)
        path = cache.put(key, result)
        payload = json.loads(path.read_text())
        payload["schema"] = CACHE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(payload))
        assert cache.get(key) is None
        assert not path.exists()

    def test_corrupt_entry_invalidates(self, tmp_path, key, result):
        cache = ResultCache(tmp_path)
        path = cache.put(key, result)
        path.write_text("{not json")
        assert cache.get(key) is None
        assert not path.exists()

    def test_different_config_is_a_miss(self, tmp_path, key, result):
        cache = ResultCache(tmp_path)
        cache.put(key, result)
        other = RunKey(key.benchmark, key.prefetcher, key.scale,
                       tiny_config(max_cycles=150_000))
        assert cache.get(other) is None
        assert cache.get(key) is not None  # original entry untouched

    def test_clear(self, tmp_path, key, result):
        cache = ResultCache(tmp_path)
        cache.put(key, result)
        assert cache.clear() == 1
        assert len(cache) == 0
        assert cache.get(key) is None
