"""The blob primitive's contract, stated once over all four stores.

Every cache and content store is a :class:`repro.cache.BlobStore`:
each round-trips through a fresh instance over the same directory,
keeps its file at ``<dir>/<name[:2]>/<name><SUFFIX>``, reads a damaged
file as a miss, never builds a path from a malformed name, clears every
shard file, and leaves nothing behind when a disk write fails.
"""

import errno
import hashlib
import os
import shutil
import sys
import threading
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

import repro
from repro.cache import (
    BlobStore,
    CompilationCache,
    DictionaryStore,
    TraceCache,
)
from repro.serve.store import ModuleStore

WIRE = b"STSA\x01 some distribution bytes"
NAME = hashlib.sha256(WIRE).hexdigest()


class Case(NamedTuple):
    cls: type
    suffix: str
    #: store a value under ``name`` (content stores derive it)
    write: Callable
    #: look ``name`` up; a miss is falsy
    read: Callable
    value: object
    #: file contents each store must read as a miss
    damages: tuple = ()


CASES = [
    Case(CompilationCache, ".stsa",
         lambda store, name: store.put(name, WIRE),
         lambda store, name: store.get(name), WIRE),
    Case(TraceCache, ".trace",
         lambda store, name: store.put(name, "C.main", 1, (1, 2)),
         lambda store, name: store.get(name), {("C.main", 1): (1, 2)},
         (b"stsa-trace1\nC.main\t-1\t1,2\n", b"stsa-trace1\nC.main\t1\t-1\n",
          b"stsa-trace1\nC.main\t1\t1,\n", b"stsa-trace1\nC.main\t1\n",
          b"stsa-trace1\n", b"other-version\nC.main\t1\t1,2\n")),
    Case(DictionaryStore, ".blob",
         lambda store, name: store.put(WIRE),
         lambda store, name: store.get(bytes.fromhex(name)), WIRE,
         (b"\x00" * 20, WIRE[:-1])),
    Case(ModuleStore, ".stsa",
         lambda store, name: store.put(WIRE),
         lambda store, name: store.get(name), WIRE,
         (b"rotted" + WIRE, b"")),
]
IDS = [case.cls.__name__ for case in CASES]
CONTENT = (DictionaryStore, ModuleStore)


def shard(root: Path, case: Case, name: str = NAME) -> Path:
    return root / name[:2] / f"{name}{case.suffix}"


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_round_trip_through_a_fresh_instance(case, tmp_path):
    case.write(case.cls(str(tmp_path)), NAME)
    fresh = case.cls(str(tmp_path))
    assert case.read(fresh, NAME) == case.value
    assert fresh.stats() == {"hits": 1, "misses": 0, "hit_rate": 1.0,
                             "entries": 1}


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_memory_only_store_round_trips(case):
    store = case.cls()
    assert not case.read(store, NAME)
    case.write(store, NAME)
    assert case.read(store, NAME) == case.value
    assert len(store) == 1 and store
    assert store.stats() == {"hits": 1, "misses": 1, "hit_rate": 0.5,
                             "entries": 1}


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_file_lives_in_its_shard(case, tmp_path):
    case.write(case.cls(str(tmp_path)), NAME)
    files = [path for path in tmp_path.rglob("*") if path.is_file()]
    assert files == [shard(tmp_path, case)]


@pytest.mark.parametrize("case, damage", [
    (case, damage) for case in CASES for damage in case.damages],
    ids=[f"{case.cls.__name__}-{index}" for case in CASES
         for index in range(len(case.damages))])
def test_damaged_file_is_a_miss(case, damage, tmp_path):
    case.write(case.cls(str(tmp_path)), NAME)
    shard(tmp_path, case).write_bytes(damage)
    fresh = case.cls(str(tmp_path))
    assert not case.read(fresh, NAME)
    assert fresh.misses == 1 and len(fresh) == 0


@pytest.mark.parametrize("name", [
    "../x", "ab", "AB" * 32, NAME[:-1] + "g", NAME + "0", "../" + NAME[3:]],
    ids=["relative", "short", "upper-case", "non-hex", "long", "dotdot-64"])
@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_malformed_name_never_reaches_the_disk(case, name, tmp_path,
                                               monkeypatch):
    def no_path(self, name):
        raise AssertionError(f"built a path for {name!r}")

    store = case.cls(str(tmp_path))
    monkeypatch.setattr(BlobStore, "_path", no_path)
    # the dictionary store takes raw digests; any bad text is a bad one
    lookup = name.encode() if case.cls is DictionaryStore else name
    assert not store.get(lookup)
    assert lookup not in store
    if case.cls not in CONTENT:
        with pytest.raises(ValueError):
            case.write(store, name)
    assert len(store) == 0
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_clear_removes_every_shard_file(case, tmp_path):
    store = case.cls(str(tmp_path))
    case.write(store, NAME)
    # a second shard, written by some other process
    other = shard(tmp_path, case, "f" * 64)
    other.parent.mkdir()
    shutil.copy(shard(tmp_path, case), other)
    case.read(store, NAME)
    store.clear()
    assert store.stats() == {"hits": 0, "misses": 0, "hit_rate": 0.0,
                             "entries": 0}
    assert not list(tmp_path.rglob(f"*{case.suffix}"))
    assert not case.read(store, NAME)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_failed_write_leaves_no_entry(case, tmp_path, monkeypatch):
    real_replace = os.replace
    failed = []

    def replace_failing_once(source, target):
        if not failed:
            failed.append(target)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real_replace(source, target)

    monkeypatch.setattr(os, "replace", replace_failing_once)
    store = case.cls(str(tmp_path))
    with pytest.raises(OSError):
        case.write(store, NAME)
    assert len(store) == 0
    assert not [path for path in tmp_path.rglob("*") if path.is_file()]
    # the retry persists: a fresh instance reads the entry
    case.write(store, NAME)
    assert len(store) == 1
    assert case.read(case.cls(str(tmp_path)), NAME) == case.value


def test_concurrent_trace_puts_lose_no_entry(tmp_path):
    """Serve's run threads share one trace cache; every put merges into
    the digest's map, so a lost update would drop an entry.  The disk
    write widens the window between reading and publishing the map."""
    cache = TraceCache(str(tmp_path))
    threads, puts = 8, 40

    def worker(index):
        for header in range(puts):
            cache.put(NAME, f"C.f{index}", header, (header, header + 1))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=worker, args=(index,))
                for index in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in pool)
    assert len(cache) == threads * puts
    assert len(TraceCache(str(tmp_path)).get(NAME)) == threads * puts


def test_atomic_write_lives_only_in_the_blob_store():
    root = Path(repro.__file__).parent
    for needle in ("tempfile.mkstemp", "os.replace"):
        found = {path.relative_to(root).as_posix(): text.count(needle)
                 for path in root.rglob("*.py")
                 if needle in (text := path.read_text())}
        assert found == {"cache.py": 1}, needle
