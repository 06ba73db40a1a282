"""Property tests for the struct-of-arrays CiphertextBatch.

The batch's record layout must be byte-identical to the envelope
codec's ``seq(VECTOR)`` layout (that identity is what lets MIX_BATCH
splice batches onto the wire and checkpoints snapshot them without
re-encoding), and every structural operation (slice/split/concat/
extend) must agree with the same operation on a plain Python list of
vectors.  Hypothesis drives vector shapes across the Schnorr toy
group and the P-256 curve backend.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.batch import (
    BatchFormatError,
    CiphertextBatch,
    PartBuffer,
    encode_vector_records,
    vector_fingerprint,
)
from repro.crypto.elgamal import AtomCiphertext
from repro.crypto.groups import get_group
from repro.crypto.vector import CiphertextVector
from repro.codec import Writer, seq
from repro.net.envelopes import VECTOR

BACKENDS = ["TOY", "P256"]

_ELEMENTS = {}


def _elements(backend):
    if backend not in _ELEMENTS:
        group = get_group(backend)
        _ELEMENTS[backend] = [group.g_pow(k) for k in range(1, 9)]
    return _ELEMENTS[backend]


def element_st(backend):
    return st.sampled_from(_elements(backend))


def ciphertext_st(backend):
    return st.builds(
        AtomCiphertext,
        R=element_st(backend),
        c=element_st(backend),
        Y=st.one_of(st.none(), element_st(backend)),
    )


def vector_st(backend):
    return st.builds(
        CiphertextVector,
        parts=st.lists(ciphertext_st(backend), min_size=1, max_size=3).map(tuple),
    )


def vectors_st(backend, min_size=0, max_size=6):
    return st.lists(vector_st(backend), min_size=min_size, max_size=max_size)


COMMON = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.mark.parametrize("backend", BACKENDS)
class TestRoundTrip:
    @COMMON
    @given(data=st.data())
    def test_encode_matches_write_vectors(self, backend, data):
        """Batch bytes == the codec's eager ``seq(VECTOR)`` bytes."""
        group = get_group(backend)
        vectors = data.draw(vectors_st(backend))
        batch = CiphertextBatch.from_vectors(group, vectors)
        w = Writer(group)
        seq(VECTOR).enc(w, tuple(vectors))
        assert batch.to_bytes() == bytes(w.buf)

    @COMMON
    @given(data=st.data())
    def test_bytes_round_trip(self, backend, data):
        group = get_group(backend)
        vectors = data.draw(vectors_st(backend))
        batch = CiphertextBatch.from_vectors(group, vectors)
        decoded = CiphertextBatch.from_bytes(group, batch.to_bytes())
        assert len(decoded) == len(vectors)
        assert list(decoded) == vectors
        assert decoded == batch
        assert decoded == vectors

    @COMMON
    @given(data=st.data())
    def test_indexing_and_iteration(self, backend, data):
        group = get_group(backend)
        vectors = data.draw(vectors_st(backend, min_size=1))
        batch = CiphertextBatch.from_vectors(group, vectors)
        for i, vec in enumerate(vectors):
            assert batch[i] == vec
            assert batch.parts_count(i) == len(vec.parts)
        assert list(batch) == vectors
        assert bool(batch) is bool(vectors)

    @COMMON
    @given(data=st.data())
    def test_slice_is_view(self, backend, data):
        group = get_group(backend)
        vectors = data.draw(vectors_st(backend))
        n = len(vectors)
        i = data.draw(st.integers(min_value=0, max_value=n))
        j = data.draw(st.integers(min_value=i, max_value=n))
        batch = CiphertextBatch.from_vectors(group, vectors)
        sub = batch.slice(i, j)
        assert list(sub) == vectors[i:j]
        assert sub == vectors[i:j]
        assert batch[i:j] == vectors[i:j]
        # zero-copy: the view shares the parent's memory
        if j > i:
            assert memoryview(sub.raw_records()).obj is batch.raw_records()
        # and a view round-trips through bytes like an owned batch
        assert CiphertextBatch.from_bytes(group, sub.to_bytes()) == vectors[i:j]

    @COMMON
    @given(data=st.data())
    def test_split_matches_contiguous_division(self, backend, data):
        group = get_group(backend)
        beta = data.draw(st.integers(min_value=1, max_value=3))
        per = data.draw(st.integers(min_value=1, max_value=3))
        vectors = data.draw(
            vectors_st(backend, min_size=beta * per, max_size=beta * per)
        )
        batch = CiphertextBatch.from_vectors(group, vectors)
        parts = batch.split(beta)
        assert len(parts) == beta
        for k, part in enumerate(parts):
            assert list(part) == vectors[k * per: (k + 1) * per]

    @COMMON
    @given(data=st.data())
    def test_concat_and_extend(self, backend, data):
        group = get_group(backend)
        chunks = data.draw(
            st.lists(vectors_st(backend, max_size=3), min_size=0, max_size=4)
        )
        batches = [CiphertextBatch.from_vectors(group, c) for c in chunks]
        flat = [vec for chunk in chunks for vec in chunk]
        assert CiphertextBatch.concat(group, batches) == flat
        # extend with an iterable of vectors and with a batch view
        acc = CiphertextBatch(group)
        for chunk in chunks:
            acc.extend(chunk)
        assert acc == flat
        if flat:
            view = acc.slice(0, len(flat))
            grown = CiphertextBatch(group)
            grown.extend(view)
            grown.append(flat[0])
            assert list(grown) == flat + [flat[0]]

    @COMMON
    @given(data=st.data())
    def test_part_buffer_round_trip(self, backend, data):
        # mix_batch's uncompressed working buffer: wire batch -> parts
        # -> PartBuffer -> parts (any vector order) -> wire batch loses
        # nothing, through the load/store shape both buffers share.
        vectors = data.draw(vectors_st(backend))
        batch = CiphertextBatch.from_vectors(get_group(backend), vectors)
        order = list(reversed(range(len(vectors))))
        parts, counts = batch.load(order)
        assert counts == [len(vectors[i].parts) for i in order]
        assert parts == [part for i in order for part in vectors[i].parts]
        work = PartBuffer(batch.group)
        work.store(parts, counts)
        assert len(work) == len(vectors)
        assert [work.parts_count(i) for i in range(len(work))] == counts
        assert work.load(order) == batch.load(range(len(vectors)))
        again = CiphertextBatch(batch.group)
        again.store(*work.load(order))
        assert again == batch

    @COMMON
    @given(data=st.data())
    def test_size_bytes_total(self, backend, data):
        group = get_group(backend)
        vectors = data.draw(vectors_st(backend))
        batch = CiphertextBatch.from_vectors(group, vectors)
        assert batch.size_bytes_total() == sum(v.size_bytes for v in vectors)


class TestStructure:
    def _batch(self, n=4):
        group = get_group("TOY")
        g = group.g_pow
        vectors = [
            CiphertextVector((AtomCiphertext(R=g(i + 1), c=g(i + 2), Y=None),))
            for i in range(n)
        ]
        return group, vectors, CiphertextBatch.from_vectors(group, vectors)

    def test_split_requires_divisibility(self):
        _, _, batch = self._batch(4)
        with pytest.raises(ValueError, match="do not divide"):
            batch.split(3)

    def test_strided_slice_rejected(self):
        _, _, batch = self._batch(4)
        with pytest.raises(ValueError, match="contiguous"):
            batch[::2]

    def test_view_copy_on_write(self):
        group, vectors, batch = self._batch(4)
        view = batch.slice(1, 3)
        before = bytes(batch.raw_records())
        view.append(vectors[0])  # must NOT touch the parent's buffer
        assert bytes(batch.raw_records()) == before
        assert list(view) == vectors[1:3] + [vectors[0]]

    def test_copy_is_independent(self):
        group, vectors, batch = self._batch(2)
        dup = batch.copy()
        dup.append(vectors[0])
        assert len(batch) == 2 and len(dup) == 3

    def test_truncated_bytes_rejected(self):
        group, _, batch = self._batch(3)
        data = batch.to_bytes()
        for cut in (0, 3, len(data) // 2, len(data) - 1):
            with pytest.raises(BatchFormatError):
                CiphertextBatch.from_bytes(group, data[:cut])

    def test_trailing_bytes_rejected(self):
        group, _, batch = self._batch(2)
        with pytest.raises(BatchFormatError, match="trailing"):
            CiphertextBatch.from_bytes(group, batch.to_bytes() + b"\x00")

    def test_bad_flag_rejected(self):
        group, _, batch = self._batch(1)
        data = bytearray(batch.to_bytes())
        # layout: u32 count | u32 parts | R | c | flag
        assert data[-1] == 0
        data[-1] = 7
        with pytest.raises(BatchFormatError, match="flag"):
            CiphertextBatch.from_bytes(group, bytes(data))

    def test_hostile_counts_rejected_without_allocation(self):
        group = get_group("TOY")
        # absurd record count
        with pytest.raises(BatchFormatError, match="records"):
            CiphertextBatch.from_bytes(group, b"\xff\xff\xff\xff")
        # absurd part count inside an otherwise valid batch
        with pytest.raises(BatchFormatError, match="parts"):
            CiphertextBatch.from_bytes(
                group, b"\x00\x00\x00\x01" + b"\xff\xff\xff\xff"
            )

    def test_element_validation_is_lazy(self):
        """Parsing is structural; a non-member element only fails on
        decode of that record (the wire path validates lazily).  Uses
        P-256, the backend whose element() actually rejects non-members
        (TOY merely reduces mod p)."""
        group = get_group("P256")
        g = group.g_pow
        vectors = [
            CiphertextVector((AtomCiphertext(R=g(i + 1), c=g(i + 2), Y=None),))
            for i in range(2)
        ]
        batch = CiphertextBatch.from_vectors(group, vectors)
        data = bytearray(batch.to_bytes())
        # corrupt the x-coordinate of record 0's R point
        # (count u32 + parts u32 + 1 sign byte = offset 9)
        data[9] ^= 0xFF
        parsed = CiphertextBatch.from_bytes(group, bytes(data))
        assert len(parsed) == 2
        assert parsed.vector(1) == vectors[1]  # untouched record still decodes
        with pytest.raises(BatchFormatError, match="invalid element"):
            parsed.vector(0)

    def test_fingerprint_is_stable_and_small(self):
        _, vectors, _ = self._batch(2)
        fp0, fp1 = vector_fingerprint(vectors[0]), vector_fingerprint(vectors[1])
        assert len(fp0) == 32
        assert fp0 != fp1
        assert fp0 == vector_fingerprint(vectors[0])

    def test_encode_vector_records_matches_buffer(self):
        group, vectors, batch = self._batch(3)
        assert encode_vector_records(vectors) == bytes(batch.raw_records())

    def test_repr(self):
        _, _, batch = self._batch(2)
        assert "n=2" in repr(batch)
