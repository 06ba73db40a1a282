"""LogDir unit coverage: rotation thresholds, manifest atomicity,
single-file-log refusal, orphan collection, and backup rotation.

These tests drive the segmented layout directly (no deployment on
top): every manifest-visible state the appender can leave behind must
scan back to exactly the records that were appended, and nothing the
manifest does not name may influence a scan.
"""

import json

import pytest

from repro.store import segments as sg
from repro.store.segments import (
    MANIFEST_NAME,
    LogDir,
    LogDirError,
    segment_name,
)
from repro.store.wal import RecordType, WriteAheadLog


def _fill(log, n, start=0, rtype=RecordType.ENVELOPE):
    for i in range(start, start + n):
        log.append(rtype, b"payload-%04d" % i)


def _payloads(scan):
    return [r.payload for r in scan.records]


def _manifest(root):
    return json.loads((root / MANIFEST_NAME).read_text())


class TestRotation:
    def test_record_threshold_rotates_and_scan_concatenates(self, tmp_path):
        log = LogDir(tmp_path, segment_records=5)
        _fill(log, 12)
        log.close()
        names = _manifest(tmp_path)["segments"]
        assert len(names) == 3  # 5 + 5 + 2
        scan = LogDir.scan_dir(tmp_path)
        assert _payloads(scan) == [b"payload-%04d" % i for i in range(12)]
        assert scan.segments_read == names
        assert [c for _, c in scan.counts] == [5, 5, 2]

    def test_byte_threshold_rotates(self, tmp_path):
        log = LogDir(tmp_path, segment_bytes=200)
        _fill(log, 30)
        log.close()
        assert len(_manifest(tmp_path)["segments"]) > 1
        assert _payloads(LogDir.scan_dir(tmp_path)) == [
            b"payload-%04d" % i for i in range(30)
        ]

    def test_rotate_is_noop_on_empty_active_segment(self, tmp_path):
        log = LogDir(tmp_path, segment_records=3)
        assert not log.rotate()
        _fill(log, 3)  # threshold crossed -> fresh empty active
        seq_before = log.next_seq
        assert not log.rotate()
        assert log.next_seq == seq_before
        log.close()

    def test_sealed_segments_are_never_written_again(self, tmp_path):
        log = LogDir(tmp_path, segment_records=2)
        _fill(log, 2)
        sealed = tmp_path / log.sealed_names()[0]
        before = sealed.read_bytes()
        _fill(log, 5, start=2)
        log.close()
        assert sealed.read_bytes() == before

    def test_reopen_continues_appending_into_active(self, tmp_path):
        log = LogDir(tmp_path, segment_records=4)
        _fill(log, 6)
        log.close()
        log = LogDir(tmp_path, segment_records=4, fresh=False)
        _fill(log, 2, start=6)  # 2 already in active; hits the threshold
        log.close()
        scan = LogDir.scan_dir(tmp_path)
        assert _payloads(scan) == [b"payload-%04d" % i for i in range(8)]
        assert [c for _, c in scan.counts] == [4, 4, 0]

    def test_fresh_open_wipes_prior_layout(self, tmp_path):
        log = LogDir(tmp_path, segment_records=2)
        _fill(log, 5)
        log.close()
        log = LogDir(tmp_path, segment_records=2, fresh=True)
        _fill(log, 1, start=100)
        log.close()
        assert _payloads(LogDir.scan_dir(tmp_path)) == [b"payload-0100"]


class TestManifestDiscipline:
    def test_scan_ignores_files_the_manifest_does_not_name(self, tmp_path):
        log = LogDir(tmp_path, segment_records=3)
        _fill(log, 4)
        log.close()
        # Orphan segment from a hypothetical interrupted rotation, plus
        # spill scratch and a backup dir: all invisible to the scan.
        WriteAheadLog(tmp_path / "wal-000099.seg", fresh=True).close()
        (tmp_path / "r0-g0-1.spill").write_bytes(b"scratch, not a wal")
        scan = LogDir.scan_dir(tmp_path)
        assert _payloads(scan) == [b"payload-%04d" % i for i in range(4)]
        assert "wal-000099.seg" not in scan.segments_read
        sized = scan.disk_bytes
        assert sized == sum(
            (tmp_path / n).stat().st_size for n in scan.segments_read
        )

    def test_open_for_append_collects_orphans_but_not_scratch(self, tmp_path):
        log = LogDir(tmp_path, segment_records=3)
        _fill(log, 4)
        log.close()
        orphan = tmp_path / "wal-000099.seg"
        WriteAheadLog(orphan, fresh=True).close()
        spill = tmp_path / "r0-g0-1.spill"
        spill.write_bytes(b"scratch, not a wal")
        (tmp_path / (MANIFEST_NAME + ".tmp")).write_text("{stale")
        log = LogDir(tmp_path, segment_records=3, fresh=False)
        log.close()
        assert not orphan.exists()
        assert spill.exists()
        assert not (tmp_path / (MANIFEST_NAME + ".tmp")).exists()

    def test_torn_tail_tolerated_only_in_active_segment(self, tmp_path):
        log = LogDir(tmp_path, segment_records=3)
        _fill(log, 7)
        log.close()
        names = _manifest(tmp_path)["segments"]
        # Tear the active tail: scan survives, records intact.
        active = tmp_path / names[-1]
        active.write_bytes(active.read_bytes()[:-3])
        scan = LogDir.scan_dir(tmp_path)
        assert scan.truncated
        assert _payloads(scan) == [b"payload-%04d" % i for i in range(6)]
        # Tear a *sealed* segment: the scan conservatively ends there.
        sealed = tmp_path / names[0]
        sealed.write_bytes(sealed.read_bytes()[:-3])
        scan = LogDir.scan_dir(tmp_path)
        assert scan.truncated and names[0] in scan.reason
        assert len(scan.records) == 2  # first segment's surviving prefix

    def test_missing_manifest_segment_is_an_error_for_append(self, tmp_path):
        log = LogDir(tmp_path, segment_records=2)
        _fill(log, 3)
        log.close()
        (tmp_path / _manifest(tmp_path)["segments"][-1]).unlink()
        with pytest.raises(LogDirError, match="missing segment"):
            LogDir(tmp_path, fresh=False)

    def test_bad_manifest_version_rejected(self, tmp_path):
        LogDir(tmp_path).close()
        obj = _manifest(tmp_path)
        obj["version"] = 99
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(obj))
        with pytest.raises(LogDirError, match="version 99"):
            LogDir.scan_dir(tmp_path)


class TestSingleFileLogRefused:
    def test_wal_file_without_manifest_is_refused_by_name(self, tmp_path):
        """A dir holding only ``atom.wal`` was written by a build whose
        wire version recovery refuses: every entry point must say so,
        naming the file, and none may start a fresh log over it."""
        wal = WriteAheadLog(tmp_path / "atom.wal", fresh=True)
        wal.append(RecordType.ENVELOPE, b"old-world")
        wal.close()
        before = (tmp_path / "atom.wal").read_bytes()
        for entry in (
            lambda: LogDir(tmp_path, fresh=False),
            lambda: LogDir(tmp_path, fresh=True),
            lambda: LogDir.scan_dir(tmp_path),
            lambda: LogDir.present(tmp_path),
            lambda: LogDir.rotate_aside(tmp_path),
        ):
            with pytest.raises(LogDirError, match=r"atom\.wal is a single-file"):
                entry()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["atom.wal"]
        assert (tmp_path / "atom.wal").read_bytes() == before
        # an empty leftover is nobody's state: a log starts beside it
        (tmp_path / "atom.wal").write_bytes(b"")
        LogDir(tmp_path, fresh=False).close()
        assert LogDir.present(tmp_path)


class TestRotateAside:
    def test_resumable_layout_moves_to_backup_dir(self, tmp_path):
        log = LogDir(tmp_path, segment_records=2)
        _fill(log, 5)
        log.close()  # no CLEAN record -> resumable
        live = {p.name for p in tmp_path.glob("wal-*")}
        backup = LogDir.rotate_aside(tmp_path)
        assert backup == tmp_path / "wal-bak"
        assert {p.name for p in backup.iterdir()} == live | {MANIFEST_NAME}
        assert not LogDir.present(tmp_path)
        # Second backup never clobbers the first.
        log = LogDir(tmp_path, segment_records=2)
        _fill(log, 1)
        log.close()
        assert LogDir.rotate_aside(tmp_path) == tmp_path / "wal-bak1"

    def test_clean_layout_is_not_worth_keeping(self, tmp_path):
        log = LogDir(tmp_path)
        log.append(RecordType.CLEAN, b"{}")
        log.close()
        assert LogDir.rotate_aside(tmp_path) is None
        assert LogDir.present(tmp_path)


class TestFailpointCrashes:
    """Die at every named point inside a rotation; reopening must
    recover every appended record and leave a collectable layout."""

    @pytest.fixture(autouse=True)
    def _clear_failpoint(self):
        yield
        sg.FAILPOINT = None

    class Boom(Exception):
        pass

    def _arm(self, point):
        def hook(name):
            if name == point:
                raise self.Boom(name)

        sg.FAILPOINT = hook

    @pytest.mark.parametrize(
        "point", ["rotate:sealed", "rotate:created", "rotate:swapped"]
    )
    def test_crash_inside_rotation_loses_nothing(self, tmp_path, point):
        log = LogDir(tmp_path, segment_records=3)
        _fill(log, 2)
        self._arm(point)
        with pytest.raises(self.Boom):
            _fill(log, 1, start=2)  # third append crosses the threshold
        sg.FAILPOINT = None
        # The "process" is gone; a reader and a fresh appender both see
        # all three records, whatever side of the swap the crash hit.
        assert _payloads(LogDir.scan_dir(tmp_path)) == [
            b"payload-%04d" % i for i in range(3)
        ]
        log2 = LogDir(tmp_path, segment_records=3, fresh=False)
        _fill(log2, 1, start=3)
        log2.close()
        assert _payloads(LogDir.scan_dir(tmp_path)) == [
            b"payload-%04d" % i for i in range(4)
        ]
        # No orphans survive the reopen.
        named = set(_manifest(tmp_path)["segments"])
        assert {p.name for p in tmp_path.glob("wal-*.seg")} == named
