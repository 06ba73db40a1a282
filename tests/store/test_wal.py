"""WAL framing: round-trips, reopen, and tail-corruption tolerance.

Hypothesis drives arbitrary record sequences (including real envelope
bytes) through append -> reopen -> scan, and then damages the tail —
truncation at every possible offset, single bit flips — asserting the
damaged record is detected and dropped while every earlier record
still replays.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.groups import get_group
from repro.net import envelopes as ev
from repro.net.envelopes import Envelope, wrap
from repro.store.wal import (
    MAGIC,
    RecordType,
    WalError,
    WriteAheadLog,
)

record_st = st.tuples(
    st.integers(min_value=1, max_value=200),
    st.binary(min_size=0, max_size=120),
)


def _write(path, records, fsync_every=8, fresh=True):
    wal = WriteAheadLog(path, fsync_every=fsync_every, fresh=fresh)
    for rtype, payload in records:
        wal.append(rtype, payload)
    wal.close()


@given(records=st.lists(record_st, max_size=20))
@settings(max_examples=50, deadline=None)
def test_arbitrary_records_survive_reopen(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("wal") / "atom.wal"
    _write(path, records)
    scan = WriteAheadLog.read(path)
    assert not scan.truncated
    assert [(r.type, r.payload) for r in scan.records] == records


@given(
    first=st.lists(record_st, max_size=10),
    second=st.lists(record_st, max_size=10),
)
@settings(max_examples=25, deadline=None)
def test_append_mode_preserves_existing_records(tmp_path_factory, first, second):
    path = tmp_path_factory.mktemp("wal") / "atom.wal"
    _write(path, first)
    _write(path, second, fresh=False)
    scan = WriteAheadLog.read(path)
    assert not scan.truncated
    assert [(r.type, r.payload) for r in scan.records] == first + second


def _envelopes(group):
    return [
        wrap(ev.SubmitErr("nope"), 0, 1, -1),
        wrap(ev.Fault(code="stalled", gid=1, alive=1, needed=2), 0, 1, -1),
        wrap(ev.CommitLayer(layer=3), 7, -1, 0),
        wrap(ev.KeyRequest(expected_groups=2), 2, -1, -2),
    ]


def test_envelope_records_round_trip(tmp_path):
    """Real wire envelopes — the WAL's primary payload — survive a
    close/reopen cycle byte for byte and decode back."""
    group = get_group("TOY")
    path = tmp_path / "atom.wal"
    originals = _envelopes(group)
    _write(path, [(RecordType.ENVELOPE, e.to_bytes(group)) for e in originals])
    scan = WriteAheadLog.read(path)
    assert not scan.truncated
    decoded = [Envelope.from_bytes(r.payload, group) for r in scan.records]
    assert [(d.kind, d.round_id, d.payload) for d in decoded] == [
        (o.kind, o.round_id, o.payload) for o in originals
    ]


@given(
    records=st.lists(record_st, min_size=2, max_size=8),
    cut=st.integers(min_value=1, max_value=1_000_000),
)
@settings(max_examples=50, deadline=None)
def test_torn_tail_detected_and_dropped(tmp_path_factory, records, cut):
    """Truncating anywhere inside the final record loses exactly that
    record; every earlier one still replays."""
    path = tmp_path_factory.mktemp("wal") / "atom.wal"
    _write(path, records[:-1])
    intact = path.stat().st_size
    _write(path, records[-1:], fresh=False)
    full = path.stat().st_size
    # Cut strictly inside the final frame (cutting exactly at the
    # record boundary is a clean shorter log, not a torn one).
    cut_at = intact + 1 + cut % (full - intact - 1)
    path.write_bytes(path.read_bytes()[:cut_at])

    scan = WriteAheadLog.read(path)
    assert scan.truncated
    assert [(r.type, r.payload) for r in scan.records] == records[:-1]


@given(
    records=st.lists(record_st, min_size=2, max_size=8),
    bit=st.integers(min_value=0, max_value=1_000_000),
)
@settings(max_examples=50, deadline=None)
def test_bit_flip_in_tail_record_detected(tmp_path_factory, records, bit):
    path = tmp_path_factory.mktemp("wal") / "atom.wal"
    _write(path, records[:-1])
    intact = path.stat().st_size
    _write(path, records[-1:], fresh=False)
    raw = bytearray(path.read_bytes())
    span = len(raw) - intact
    pos = intact + (bit // 8) % span
    raw[pos] ^= 1 << (bit % 8)
    path.write_bytes(bytes(raw))

    scan = WriteAheadLog.read(path)
    # Either the CRC catches it, or the flipped length field makes the
    # frame overrun the file — both must drop the tail record.
    assert scan.truncated
    assert [(r.type, r.payload) for r in scan.records] == records[:-1]


def test_mid_file_corruption_drops_the_rest(tmp_path):
    """A damaged record mid-log conservatively ends the scan there:
    replay must never skip a hole, because later records can depend on
    earlier ones."""
    path = tmp_path / "atom.wal"
    records = [(1, b"a" * 10), (2, b"b" * 10), (3, b"c" * 10)]
    _write(path, records[:1])
    first_end = path.stat().st_size
    _write(path, records[1:], fresh=False)
    raw = bytearray(path.read_bytes())
    raw[first_end + 11] ^= 0x40  # inside the second record's payload
    path.write_bytes(bytes(raw))

    scan = WriteAheadLog.read(path)
    assert scan.truncated and "crc" in scan.reason
    assert [(r.type, r.payload) for r in scan.records] == records[:1]


@given(
    records=st.lists(record_st, min_size=2, max_size=6),
    after=st.lists(record_st, min_size=1, max_size=4),
    cut=st.integers(min_value=1, max_value=1_000_000),
)
@settings(max_examples=25, deadline=None)
def test_reopen_after_torn_tail_truncates_then_appends(
    tmp_path_factory, records, after, cut
):
    """Appending to a torn log must first truncate the damage back to
    the intact prefix — otherwise every post-resume record lands
    behind unreadable garbage and is lost to the next scan."""
    path = tmp_path_factory.mktemp("wal") / "atom.wal"
    _write(path, records[:-1])
    intact = path.stat().st_size
    _write(path, records[-1:], fresh=False)
    full = path.stat().st_size
    cut_at = intact + 1 + cut % (full - intact - 1)
    path.write_bytes(path.read_bytes()[:cut_at])

    _write(path, after, fresh=False)
    scan = WriteAheadLog.read(path)
    assert not scan.truncated
    assert [(r.type, r.payload) for r in scan.records] == records[:-1] + after


def test_not_a_wal_raises(tmp_path):
    path = tmp_path / "atom.wal"
    path.write_bytes(b"definitely not a log")
    with pytest.raises(WalError):
        WriteAheadLog.read(path)
    path.write_bytes(MAGIC + bytes([99]))  # future version
    with pytest.raises(WalError):
        WriteAheadLog.read(path)


@pytest.mark.parametrize("fsync_every", [0, 1, 3])
def test_fsync_batching_knob(tmp_path, fsync_every):
    """Every batching setting yields the same on-disk records (the
    knob trades sync frequency, never content)."""
    path = tmp_path / "atom.wal"
    records = [(i, bytes([i]) * i) for i in range(1, 8)]
    _write(path, records, fsync_every=fsync_every)
    scan = WriteAheadLog.read(path)
    assert not scan.truncated
    assert [(r.type, r.payload) for r in scan.records] == records


def test_clean_shutdown_marker(tmp_path):
    path = tmp_path / "atom.wal"
    _write(path, [(RecordType.META, b"{}"), (RecordType.CLEAN, b"")])
    assert WriteAheadLog.read(path).clean_shutdown
    _write(path, [(RecordType.ROUND_SETUP, b"{}")], fresh=False)
    assert not WriteAheadLog.read(path).clean_shutdown
