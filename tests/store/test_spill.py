"""SpillableHoldings: bounded-memory intake container semantics."""

import gc
from pathlib import Path

import pytest

from repro.core import AtomDeployment, Client, DeploymentConfig
from repro.core.batch import CiphertextBatch
from repro.crypto.elgamal import AtomElGamal
from repro.crypto.groups import DeterministicRng, get_group
from repro.crypto.vector import encrypt_vector
from repro.store.spill import SpillableHoldings
from repro.store.wal import RecordType, WriteAheadLog


@pytest.fixture()
def group():
    return get_group("TOY")


def _vectors(group, n, seed=b"spill"):
    scheme = AtomElGamal(group)
    rng = DeterministicRng(seed)
    key = scheme.keygen(rng).public
    return [
        encrypt_vector(scheme, key, b"payload-%02d" % i, rng)[0]
        for i in range(n)
    ]


class TestSpilling:
    def test_no_spill_below_threshold(self, group, tmp_path):
        holdings = SpillableHoldings(group, 10, tmp_path)
        for vec in _vectors(group, 9):
            holdings.append(vec)
        assert len(holdings) == 9
        assert holdings.spilled == 0
        assert holdings.path is None  # no file was ever created

    def test_spills_every_threshold(self, group, tmp_path):
        holdings = SpillableHoldings(group, 4, tmp_path)
        for vec in _vectors(group, 11):
            holdings.append(vec)
        assert len(holdings) == 11
        assert holdings.spilled == 8
        assert holdings.segments == 2
        assert holdings.path.exists()

    def test_iteration_preserves_append_order(self, group, tmp_path):
        vectors = _vectors(group, 10)
        holdings = SpillableHoldings(group, 3, tmp_path)
        for vec in vectors:
            holdings.append(vec)
        assert list(holdings) == vectors
        assert holdings == vectors  # __eq__ vs list

    def test_as_batch_equals_memory_batch(self, group, tmp_path):
        vectors = _vectors(group, 7)
        holdings = SpillableHoldings(group, 2, tmp_path)
        holdings.extend(vectors)
        assert holdings.as_batch() == CiphertextBatch.from_vectors(group, vectors)

    def test_extend_from_batch_splices(self, group, tmp_path):
        vectors = _vectors(group, 9)
        batch = CiphertextBatch.from_vectors(group, vectors)
        holdings = SpillableHoldings(group, 4, tmp_path)
        holdings.extend(batch)
        assert holdings.spilled == 8
        assert holdings == batch

    def test_extend_from_spillable(self, group, tmp_path):
        vectors = _vectors(group, 6)
        src = SpillableHoldings(group, 2, tmp_path, tag="src")
        src.extend(vectors)
        dst = SpillableHoldings(group, 3, tmp_path, tag="dst")
        dst.extend(src)
        assert dst == vectors

    def test_segments_survive_a_reread(self, group, tmp_path):
        """The scratch log is a real WAL: segments read back intact and
        typed SPILL_SEGMENT."""
        holdings = SpillableHoldings(group, 2, tmp_path)
        holdings.extend(_vectors(group, 6))
        records = list(WriteAheadLog.iter_records(holdings.path))
        assert [r.type for r in records] == [RecordType.SPILL_SEGMENT] * 3
        total = sum(
            len(CiphertextBatch.from_bytes(group, r.payload)) for r in records
        )
        assert total == 6


class TestLifecycle:
    def test_release_unlinks_scratch_file(self, group, tmp_path):
        holdings = SpillableHoldings(group, 2, tmp_path)
        holdings.extend(_vectors(group, 5))
        path = holdings.path
        assert path.exists()
        holdings.release()
        assert not path.exists()
        assert len(holdings) == 0
        holdings.release()  # idempotent

    def test_gc_unlinks_scratch_file(self, group, tmp_path):
        holdings = SpillableHoldings(group, 2, tmp_path)
        holdings.extend(_vectors(group, 5))
        path = holdings.path
        del holdings
        gc.collect()
        assert not path.exists()

    def test_recreated_containers_get_fresh_files(self, group, tmp_path):
        """Per-layer container recreation must never reuse a path — a
        late finalizer would otherwise unlink the successor's live
        file."""
        first = SpillableHoldings(group, 2, tmp_path, tag="g0")
        first.extend(_vectors(group, 4))
        second = SpillableHoldings(group, 2, tmp_path, tag="g0")
        second.extend(_vectors(group, 4, seed=b"other"))
        assert first.path != second.path
        first.release()
        assert second.path.exists()
        assert len(second) == 4


def _trap_intake(dep):
    """A seeded, padded trap-round intake: 5 users over 2 groups."""
    rng = DeterministicRng(b"one-copy")
    rnd = dep.start_round(0, rng=rng)
    client = Client(dep.group, rng)
    for i in range(5):
        dep.submit_trap(rnd, b"one-%d" % i, i % 2, client)
    dep.pad_round(rnd, rng)
    return rnd


def _intake_config(**overrides):
    return DeploymentConfig(
        num_servers=6, num_groups=2, group_size=2, variant="trap",
        iterations=2, message_size=8, crypto_group="TOY", **overrides,
    )


class TestIntakeKeepsOneCopy:
    """An in-process round holds each accepted vector once: in its
    entry node."""

    def test_one_append_per_accepted_vector(self, monkeypatch):
        appended = []
        append = CiphertextBatch.append

        def counted(self, vec):
            appended.append(vec)
            return append(self, vec)

        monkeypatch.setattr(CiphertextBatch, "append", counted)
        with AtomDeployment(_intake_config()) as dep:
            rnd = _trap_intake(dep)
            held = [
                len(node.holdings) for node in rnd.coordinator.nodes.values()
            ]
        assert held == [6, 6]
        assert len(appended) == sum(held)

    def test_spilled_intake_has_one_container_per_group(self, monkeypatch):
        tags = []
        init = SpillableHoldings.__init__

        def recorded(self, *args, **kwargs):
            init(self, *args, **kwargs)
            tags.append(self.tag)

        monkeypatch.setattr(SpillableHoldings, "__init__", recorded)
        with AtomDeployment(_intake_config(spill_threshold=2)) as dep:
            rnd = _trap_intake(dep)
            files = sorted(p.name for p in Path(dep.spill_dir()).iterdir())
            spilled = [
                node.holdings.spilled for node in rnd.coordinator.nodes.values()
            ]
        assert sorted(tags) == ["r0-g0", "r0-g1"]
        assert spilled == [6, 6]
        assert [name.rsplit("-", 1)[0] for name in files] == ["r0-g0", "r0-g1"]
        assert not [name for name in files if name.startswith("mirror-r")]
