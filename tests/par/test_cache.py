"""Unit tests for the content-addressed result cache."""

import json
import math
import os

import pytest

from repro.par import MISS, ResultCache, WorkItem, code_fingerprint, config_hash


def _item(seed=0, config=None, experiment="t"):
    return WorkItem(experiment, "m:f", seed=seed,
                    config=config if config is not None else {"a": 1},
                    index=0)


def test_config_hash_is_key_order_insensitive():
    assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
    assert config_hash({"a": 1}) != config_hash({"a": 2})


def test_code_fingerprint_stable_and_memoized():
    assert code_fingerprint() == code_fingerprint()
    assert len(code_fingerprint()) == 64


def test_put_get_roundtrip(tmp_path):
    cache = ResultCache(str(tmp_path))
    payload = {"value": 42, "nested": [1, 2, {"x": "y"}]}
    cache.put(_item(), payload)
    assert cache.get(_item()) == payload
    assert cache.stats() == {"hits": 1, "remote_hits": 0, "misses": 0,
                             "writes": 1}


def test_get_miss_counts(tmp_path):
    cache = ResultCache(str(tmp_path))
    assert cache.get(_item()) is MISS
    assert cache.stats()["misses"] == 1


def test_cached_none_payload_is_a_hit(tmp_path):
    """None is a legitimate payload, distinguishable from a miss."""
    cache = ResultCache(str(tmp_path))
    cache.put(_item(), None)
    assert cache.get(_item()) is None
    assert cache.stats() == {"hits": 1, "remote_hits": 0, "misses": 0,
                             "writes": 1}


def test_entry_without_payload_key_is_a_miss(tmp_path):
    cache = ResultCache(str(tmp_path))
    cache.put(_item(), {"v": 1})
    path = cache.path_for(_item())
    with open(path, "w") as handle:
        json.dump({"experiment": "t"}, handle)     # valid JSON, no payload
    assert cache.get(_item()) is MISS
    with open(path, "w") as handle:
        json.dump([1, 2, 3], handle)               # not even an object
    assert cache.get(_item()) is MISS
    assert cache.stats()["misses"] == 2


def test_key_varies_with_every_component(tmp_path):
    cache = ResultCache(str(tmp_path))
    base = cache.key_for(_item())
    assert cache.key_for(_item(seed=1)) != base
    assert cache.key_for(_item(config={"a": 2})) != base
    assert cache.key_for(_item(experiment="u")) != base
    other = ResultCache(str(tmp_path), fingerprint="f" * 64)
    assert other.key_for(_item()) != base


def test_code_change_invalidates(tmp_path):
    """A different code fingerprint misses entries written under the old."""
    old = ResultCache(str(tmp_path), fingerprint="old" * 16)
    old.put(_item(), {"value": 1})
    fresh = ResultCache(str(tmp_path), fingerprint="new" * 16)
    assert fresh.get(_item()) is MISS


def test_entries_fan_out_under_experiment_dirs(tmp_path):
    cache = ResultCache(str(tmp_path))
    cache.put(_item(experiment="faults"), {"v": 1})
    path = cache.path_for(_item(experiment="faults"))
    assert os.path.exists(path)
    assert os.path.relpath(path, str(tmp_path)).startswith("faults" + os.sep)
    # entry is honest JSON with the cell identity alongside the payload
    with open(path) as handle:
        entry = json.load(handle)
    assert entry["experiment"] == "faults"
    assert entry["payload"] == {"v": 1}


def test_torn_entry_reads_as_miss(tmp_path):
    cache = ResultCache(str(tmp_path))
    cache.put(_item(), {"v": 1})
    with open(cache.path_for(_item()), "w") as handle:
        handle.write("{not json")
    assert cache.get(_item()) is MISS


def test_config_hash_rejects_nan_and_infinity():
    """allow_nan=False: a NaN config must be an error, not a
    repr-dependent token that silently forks the cache key."""
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            config_hash({"x": bad})


def test_entries_respect_the_umask(tmp_path):
    """Regression: mkstemp creates 0600 files; a shared cache directory
    must hand back entries other users can read, or every cross-user
    lookup is a permanent miss."""
    old_umask = os.umask(0o022)
    try:
        cache = ResultCache(str(tmp_path))
        cache.put(_item(), {"v": 1})
        mode = os.stat(cache.path_for(_item())).st_mode & 0o777
        assert mode == 0o644, oct(mode)
    finally:
        os.umask(old_umask)


def test_remote_tier_read_through_and_write_back(tmp_path):
    """A local miss consults the remote directory; the hit is written
    back locally (atomically) so the next get is a plain local hit."""
    remote_root = tmp_path / "shared"
    warm = ResultCache(str(remote_root))
    warm.put(_item(), {"v": "remote"})

    cache = ResultCache(str(tmp_path / "local"), remote=str(remote_root))
    assert cache.get(_item()) == {"v": "remote"}
    assert cache.stats()["remote_hits"] == 1
    assert cache.stats()["hits"] == 0
    # written back: the entry now exists locally, identity preserved
    with open(cache.path_for(_item())) as handle:
        entry = json.load(handle)
    assert entry["payload"] == {"v": "remote"}

    again = ResultCache(str(tmp_path / "local"), remote=str(remote_root))
    assert again.get(_item()) == {"v": "remote"}
    assert again.stats() == {"hits": 1, "remote_hits": 0, "misses": 0,
                             "writes": 0}


def test_cli_rejects_a_url_remote(tmp_path, capsys):
    """The remote tier is a directory; a URL would read as an absent
    directory and silently miss on every lookup."""
    from repro.experiments.__main__ import main

    with pytest.raises(SystemExit) as exit_info:
        main(["faults", "--cache", str(tmp_path / "local"),
              "--cache-remote", "file://" + str(tmp_path / "shared")])
    assert exit_info.value.code == 2
    assert "--cache-remote takes a directory" in capsys.readouterr().err


def test_cli_rejects_cache_remote_without_cache(tmp_path, capsys):
    """Without --cache there is no local tier to read through into."""
    from repro.experiments.__main__ import main

    with pytest.raises(SystemExit) as exit_info:
        main(["faults", "--cache-remote", str(tmp_path / "shared")])
    assert exit_info.value.code == 2
    assert "--cache-remote needs --cache" in capsys.readouterr().err


def test_remote_misses_and_failures_read_as_miss(tmp_path):
    absent = ResultCache(str(tmp_path / "local"),
                         remote=str(tmp_path / "nowhere"))
    assert absent.get(_item()) is MISS
    assert absent.stats()["misses"] == 1

    torn_root = tmp_path / "torn"
    warm = ResultCache(str(torn_root))
    warm.put(_item(), {"v": 1})
    with open(warm.path_for(_item()), "w") as handle:
        handle.write("{not json")
    torn = ResultCache(str(tmp_path / "local2"), remote=str(torn_root))
    assert torn.get(_item()) is MISS
