"""Store integrity (satellite c): DiskStore.get must never return bytes
that differ from a published payload, under torn writes, partial writes
and bit flips — property-tested with hypothesis, plus a deterministic
crash-point sweep over the mkstemp -> os.replace publication sequence."""

from __future__ import annotations

import os
import pickle
import zlib

from hypothesis import given, settings, strategies as st

from repro.cache.store import (DiskStore, QUARANTINE_DIR, _HEADER, _MAGIC)

KEY = "rec"


def _record_bytes(value) -> bytes:
    payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(_MAGIC, zlib.crc32(payload), len(payload)) + payload


def _raw_path(store: DiskStore, key: str = KEY) -> str:
    return store._path(key)


# -- the property -------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(payload=st.binary(min_size=0, max_size=256),
       cut=st.integers(min_value=0, max_value=10_000),
       flip_at=st.integers(min_value=0, max_value=10_000),
       flip_mask=st.integers(min_value=1, max_value=255),
       mode=st.sampled_from(["torn", "bitflip", "both"]))
def test_get_returns_published_payload_or_nothing(tmp_path_factory, payload,
                                                 cut, flip_at, flip_mask,
                                                 mode):
    """Whatever damage lands on the record file, get() returns either the
    exact published value or None — never different bytes."""
    root = str(tmp_path_factory.mktemp("store"))
    store = DiskStore(root)
    assert store.put(KEY, payload)
    path = _raw_path(store)
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    if mode in ("torn", "both"):
        data = data[:cut % (len(data) + 1)]
    if mode in ("bitflip", "both") and data:
        data[flip_at % len(data)] ^= flip_mask
    with open(path, "wb") as fh:
        fh.write(data)
    got = store.get(KEY)
    assert got is None or got == payload
    if got is None:
        # damaged records are quarantined or vanish — never served later
        assert store.get(KEY) is None
        again = DiskStore(root)  # fresh instance: same verdict
        assert again.get(KEY) is None


@settings(max_examples=30, deadline=None)
@given(value=st.one_of(st.integers(), st.text(max_size=64),
                       st.dictionaries(st.text(max_size=8),
                                       st.integers(), max_size=4)))
def test_roundtrip_of_arbitrary_picklable_values(tmp_path_factory, value):
    store = DiskStore(str(tmp_path_factory.mktemp("store")))
    assert store.put(KEY, value)
    assert store.get(KEY) == value
    assert store.snapshot()["integrity_failures"] == 0


# -- deterministic crash-point sweep -----------------------------------------


def test_crash_point_sweep_over_publication(tmp_path):
    """Simulate a writer crashing after writing k bytes of the record for
    every k: the store must serve the *previous* value or a miss, never a
    blend.  This models mkstemp+partial write with the rename either not
    happening (tmp leak) or happening over a truncated file (torn final
    record — e.g. a filesystem that lost tail pages after a power cut)."""
    root = str(tmp_path / "store")
    store = DiskStore(root)
    old, new = {"v": "old", "n": 1}, {"v": "new", "n": 2}
    record = _record_bytes(new)
    for k in range(len(record)):
        store = DiskStore(root)
        assert store.put(KEY, old)

        # crash before rename: a half-written tmp file leaks, the
        # published record is untouched
        tmp = os.path.join(root, f"crash-{k}.tmp")
        with open(tmp, "wb") as fh:
            fh.write(record[:k])
        assert store.get(KEY) == old
        os.unlink(tmp)

        # crash where the final file ends up truncated at k bytes
        with open(_raw_path(store), "wb") as fh:
            fh.write(record[:k])
        got = store.get(KEY)
        assert got is None or got == new, f"blend served at cut {k}"
    # the full record, for completeness
    store = DiskStore(root)
    store.put(KEY, old)
    with open(_raw_path(store), "wb") as fh:
        fh.write(record)
    assert store.get(KEY) == new


def test_stale_tmp_files_are_swept_on_startup(tmp_path):
    root = str(tmp_path / "store")
    store = DiskStore(root)
    store.put(KEY, 42)
    stale = os.path.join(root, "leak.tmp")
    with open(stale, "wb") as fh:
        fh.write(b"half a record")
    os.utime(stale, (1.0, 1.0))  # ancient
    fresh = os.path.join(root, "inflight.tmp")
    with open(fresh, "wb") as fh:
        fh.write(b"another writer, mid-publish")
    DiskStore(root)  # construction runs the recovery sweep
    assert not os.path.exists(stale), "stale tmp survived the sweep"
    assert os.path.exists(fresh), "in-flight tmp was reaped too eagerly"
    assert store.get(KEY) == 42


# -- quarantine accounting ----------------------------------------------------


def test_bitflipped_record_is_quarantined_counted_and_recompilable(tmp_path):
    """The acceptance bar: a bit-flipped record is quarantined (moved
    aside, counted, evidence kept), never served, and the key accepts a
    fresh publication (the recompile)."""
    root = str(tmp_path / "store")
    store = DiskStore(root)
    store.put(KEY, {"module": "payload"})
    path = _raw_path(store)
    with open(path, "r+b") as fh:
        fh.seek(_HEADER.size + 2)
        byte = fh.read(1)
        fh.seek(_HEADER.size + 2)
        fh.write(bytes([byte[0] ^ 0xA5]))
    assert store.get(KEY) is None
    assert store.integrity_failures == 1
    assert store.quarantined == 1
    assert not os.path.exists(path), "corrupt record left in place"
    qdir = os.path.join(root, QUARANTINE_DIR)
    evidence = os.listdir(qdir)
    assert len(evidence) == 1 and evidence[0].endswith(".corrupt")
    # recompile path: the key is publishable and servable again
    assert store.put(KEY, {"module": "recompiled"})
    assert store.get(KEY) == {"module": "recompiled"}
    assert store.quarantined == 1  # no new quarantine


def test_header_with_wrong_length_is_quarantined(tmp_path):
    store = DiskStore(str(tmp_path / "store"))
    payload = pickle.dumps("x")
    bad = _HEADER.pack(_MAGIC, zlib.crc32(payload), len(payload) + 7) \
        + payload
    with open(_raw_path(store), "wb") as fh:
        fh.write(bad)
    assert store.get(KEY) is None
    assert store.quarantined == 1


def test_headerless_plain_pickle_is_quarantined(tmp_path):
    """A record without the checksummed header — even a loadable bare
    pickle — is damage: quarantined and never served, like garbage."""
    store = DiskStore(str(tmp_path / "store"))
    with open(_raw_path(store), "wb") as fh:
        fh.write(pickle.dumps({"headerless": True}))
    assert store.get(KEY) is None
    assert not os.path.exists(_raw_path(store))
    assert store.quarantined == 1
    with open(_raw_path(store, "junk"), "wb") as fh:
        fh.write(b"\x13\x37 not a pickle at all")
    assert store.get("junk") is None
    assert store.quarantined == 2
    assert store.get(KEY) is None, "a quarantined record is never served"


def test_checksum_valid_but_unloadable_is_a_miss_not_corruption(tmp_path):
    """Bytes that verify but do not unpickle here (schema drift) are a
    miss: the writer published exactly these bytes, nothing is damaged."""
    store = DiskStore(str(tmp_path / "store"))
    payload = b"(not-a-pickle"
    rec = _HEADER.pack(_MAGIC, zlib.crc32(payload), len(payload)) + payload
    with open(_raw_path(store), "wb") as fh:
        fh.write(rec)
    assert store.get(KEY) is None
    assert store.quarantined == 0
    assert store.integrity_failures == 0


def test_old_quarantine_evidence_expires(tmp_path):
    root = str(tmp_path / "store")
    store = DiskStore(root)
    store.put(KEY, 1)
    with open(_raw_path(store), "r+b") as fh:
        fh.seek(4)
        fh.write(b"\xff\xff")
    assert store.get(KEY) is None
    qdir = os.path.join(root, QUARANTINE_DIR)
    (name,) = os.listdir(qdir)
    os.utime(os.path.join(qdir, name), (1.0, 1.0))  # ancient evidence
    DiskStore(root)  # recovery sweep expires it
    assert os.listdir(qdir) == []
