"""Prime-order cyclic groups for Atom's cryptography.

The protocol layer is written against one abstract group interface,
:class:`GroupBackend`, with two implementations behind
:func:`get_group`:

- **NIST P-256** (``repro.crypto.ec.EcGroup``, name ``P256``): the
  elliptic curve the paper's evaluation runs on, and the one group a
  deployment uses.

- **TOY** (:class:`Group`): the unit-test group, the subgroup of
  quadratic residues of Z_p^* for a 64-bit safe prime p = 2q + 1.  It
  has prime order q and Python's native big-integer ``pow`` makes it
  cheap, so tests and smokes that exercise protocol logic rather than
  curve arithmetic run on it.

``P256`` is built on first use, so importing this module never pays
for the curve arithmetic module unless it is used.

Messages are encoded into the QR subgroup with the classic safe-prime
trick: m in [1, q] maps to m if m is a QR mod p, else to p - m; both
are invertible because exactly one of {m, p - m} is a QR when
p = 3 mod 4.  (The curve backend instead uses Koblitz embedding into
the x-coordinate; see ``repro.crypto.ec``.)
"""

from __future__ import annotations

import hashlib
import secrets
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Union

from repro.crypto.fastexp import FixedBaseExp, jacobi, multiexp_ints


class EncodingError(ValueError):
    """Raised when a value cannot be encoded into / decoded from the group."""


@dataclass(frozen=True)
class GroupParams:
    """Parameters of a Schnorr group over a safe prime ``p = 2q + 1``."""

    name: str
    p: int  # safe prime
    g: int  # generator of the order-q QR subgroup

    @property
    def q(self) -> int:
        """Order of the prime-order subgroup."""
        return (self.p - 1) // 2

    @property
    def message_bytes(self) -> int:
        """Safely encodable payload bytes per group element.

        One byte below ``q``'s byte length, minus one length byte used by
        the padding scheme.
        """
        return max(1, (self.q.bit_length() - 1) // 8 - 1)


# A safe prime found deterministically (seeded search, see DESIGN.md);
# 4 = 2^2 is a QR other than 1, so it generates the order-q subgroup.
_TOY_P = 0xA1C71AA2E828476B
_TOY_PARAMS = GroupParams("TOY", _TOY_P, 4)


@dataclass(frozen=True)
class GroupElement:
    """An element of a Schnorr :class:`Group`.

    Elements are immutable and hashable; arithmetic uses operator
    overloading (``*``, ``/``, ``**``) matching the multiplicative
    notation of the paper's Appendix A.
    """

    value: int
    group: "Group"

    def __post_init__(self) -> None:
        if not 0 < self.value < self.group.p:
            raise ValueError(f"element {self.value} outside Z_p^*")

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(self.value * other.value % self.group.p, self.group)

    def __truediv__(self, other: "GroupElement") -> "GroupElement":
        inv = pow(other.value, self.group.p - 2, self.group.p)
        return GroupElement(self.value * inv % self.group.p, self.group)

    def __pow__(self, exponent: int) -> "GroupElement":
        # Hot bases (g, group public keys) have a fixed-base table on
        # the Group; everything else takes the generic pow path.
        table = self.group._table_hit(self.value)
        if table is not None:
            return GroupElement(table.pow(exponent), self.group)
        return GroupElement(
            pow(self.value, exponent % self.group.q, self.group.p), self.group
        )

    def inverse(self) -> "GroupElement":
        return GroupElement(pow(self.value, self.group.p - 2, self.group.p), self.group)

    def is_identity(self) -> bool:
        return self.value == 1

    def to_bytes(self) -> bytes:
        return self.value.to_bytes((self.group.p.bit_length() + 7) // 8, "big")

    def __repr__(self) -> str:
        return f"GroupElement({self.value})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GroupElement)
            and self.value == other.value
            and self.group.params.name == other.group.params.name
        )

    def __hash__(self) -> int:
        return hash((self.value, self.group.params.name))


class GroupBackend:
    """Abstract prime-order group with message encoding.

    Everything above this module — ElGamal, the sigma protocols, the
    shuffle proof, DVSS/threshold decryption, the protocol engine —
    talks to a group exclusively through this interface, so backends
    are interchangeable per deployment (``DeploymentConfig.crypto_group``
    / the CLI's ``--group``).

    A backend must provide, in ``__init__``:

    - ``params`` with at least ``name`` and ``message_bytes``,
    - ``q`` (prime group order), ``g`` (generator element),
      ``identity``,

    and implement the abstract hooks at the bottom of this class:
    ``element`` (deserialize an integer), ``encode`` / ``decode``
    (reversible message embedding), ``is_prime_order`` (subgroup
    membership of an element), ``multiexp`` (Straus chain in the
    backend's native representation), ``element_bytes`` (serialized
    width), plus the two fixed-base-cache hooks ``_build_table`` /
    ``_wrap_raw``.

    Elements expose ``*``, ``/``, ``**``, ``inverse``, ``is_identity``,
    ``to_bytes`` and an integer ``value`` that round-trips through
    ``element`` — the proof transcripts serialize elements as those
    integers.

    This base class supplies the shared machinery: scalar sampling,
    Fiat-Shamir hashing, chunked message encoding, the fixed-base
    table cache with its LRU/promotion policy, and per-element defaults
    for the batch kernels (``pow_mul_many`` / ``div_pow_many``) and the
    uncompressed element codec, which a backend overrides when a list
    can share work (the curve backend: one inversion per list, no
    square root per decode).
    """

    #: fixed-base tables kept at most this many per group (a P-256
    #: table is ~0.27 MB, measured with tracemalloc, so the worst case
    #: stays under 20 MB even in a long-running deployment churning
    #: per-round keys)
    FIXED_CACHE_LIMIT = 64
    #: plain-pow uses of a base before it is promoted to a table
    FIXED_PROMOTE_AFTER = 2

    def __init__(self) -> None:
        #: base value -> fixed-base table (hot bases: g, public keys)
        self._fixed_cache: dict = {}
        #: base value -> times seen by pow_cached (promotion counter)
        self._fixed_counts: dict = {}

    # -- fast exponentiation ------------------------------------------

    def _table_hit(self, value: int):
        """Cache lookup with an LRU touch on hit, so hot bases used
        through ``__pow__``/``pow_cached`` are not evicted in favor of
        dead per-round keys that merely got inserted later."""
        table = self._fixed_cache.get(value)
        if table is not None:
            del self._fixed_cache[value]
            self._fixed_cache[value] = table
        return table

    def has_table(self, base) -> bool:
        """Whether ``base ** e`` runs through a cached fixed-base table
        (callers batching many bases send the others to ``multiexp``)."""
        return base.value in self._fixed_cache

    def fixed_base(self, base):
        """Return (building and caching if needed) the fixed-base comb
        table for ``base`` (an element, or its integer ``value``).
        Call this for bases known to be hot — the generator and
        per-round group public keys."""
        value = base if isinstance(base, int) else base.value
        table = self._table_hit(value)
        if table is None:
            gen_key = self.g.value
            if len(self._fixed_cache) >= self.FIXED_CACHE_LIMIT:
                # Evict least-recently-used, but never the generator:
                # dead per-round keys go first, g stays hot forever.
                for stale in self._fixed_cache:
                    if stale != gen_key:
                        self._fixed_cache.pop(stale)
                        break
            table = self._build_table(value)
            self._fixed_cache[value] = table
        return table

    def g_pow(self, exponent: int):
        """``g^exponent`` via the generator's fixed-base table."""
        gen_key = self.g.value
        if gen_key not in self._fixed_cache:
            self.fixed_base(self.g)
        return self._wrap_raw(self._fixed_cache[gen_key].pow(exponent))

    def pow_cached(self, base, exponent: int):
        """``base^exponent`` that promotes recurring bases to tables.

        A base already backed by a table uses it immediately; otherwise
        a use-counter promotes the base after ``FIXED_PROMOTE_AFTER``
        plain exponentiations, so per-round public keys (and derived
        values like ``pk^-1`` in sigma statements) get fast after their
        first couple of appearances while one-shot bases never pay the
        table-build cost.
        """
        value = base.value
        table = self._table_hit(value)
        if table is not None:
            return self._wrap_raw(table.pow(exponent))
        if base.is_identity():
            return self.identity
        seen = self._fixed_counts.get(value, 0) + 1
        if seen > self.FIXED_PROMOTE_AFTER:
            self._fixed_counts.pop(value, None)
            return self._wrap_raw(self.fixed_base(base).pow(exponent))
        if len(self._fixed_counts) > 8192:  # bound the counter map
            self._fixed_counts.clear()
        self._fixed_counts[value] = seen
        return base ** exponent

    # -- batch kernels (one mixing step over many ciphertext parts) ----
    #
    # Defaults loop over the single-element operations above; a backend
    # whose results need a per-element normalization (an inversion per
    # curve point) overrides them to share it across the list.

    def pow_mul_many(self, bases, scalars, elements) -> list:
        """``[b^s * el for b, s, el in zip(bases, scalars, elements)]``
        for hot bases (the generator and group public keys) — the
        rerandomization kernel, one base per element so that both
        components of a ciphertext list fit one call."""
        g, g_pow, pow_cached = self.g, self.g_pow, self.pow_cached
        return [
            (g_pow(s) if b == g else pow_cached(b, s)) * el
            for b, s, el in zip(bases, scalars, elements)
        ]

    def div_pow_many(self, elements, bases, scalar: int) -> list:
        """``[el / b^scalar for el, b in zip(elements, bases)]`` for
        arbitrary ``bases`` and one ``scalar`` — the decryption kernel
        (a server strips its layer from many ciphertexts at once)."""
        return [el / b ** scalar for el, b in zip(elements, bases)]

    # -- uncompressed element codec ------------------------------------
    #
    # A fixed-width encoding that decodes without arithmetic, for
    # buffers a process writes and reads back itself (the mix step's
    # working buffers).  Never a wire format: ``from_uncompressed``
    # trusts its input.  Here it is simply ``to_bytes``; the curve
    # backend stores both coordinates to skip the square root.

    @property
    def uncompressed_bytes(self) -> int:
        return self.element_bytes

    def to_uncompressed(self, element) -> bytes:
        return element.to_bytes()

    def from_uncompressed(self, data):
        return self.element(int.from_bytes(data, "big"))

    # -- randomness ---------------------------------------------------

    def random_scalar(self, rng: Optional["DeterministicRng"] = None) -> int:
        """Sample a uniform scalar in [1, q-1]."""
        if rng is not None:
            return rng.randint(1, self.q - 1)
        return secrets.randbelow(self.q - 1) + 1

    def random_element(self, rng: Optional["DeterministicRng"] = None):
        """Sample a uniform group element (as g^r)."""
        return self.g_pow(self.random_scalar(rng))

    # -- hashing ------------------------------------------------------

    def hash_to_scalar(self, *parts: bytes) -> int:
        """Hash byte strings to a scalar mod q (Fiat-Shamir challenge)."""
        h = hashlib.sha3_256()
        h.update(self.params.name.encode())
        for part in parts:
            h.update(len(part).to_bytes(8, "big"))
            h.update(part)
        return int.from_bytes(h.digest(), "big") % self.q

    # -- shared message-payload layout --------------------------------

    def _payload_to_int(self, message: bytes) -> int:
        """Fixed-width layout shared by both backends: message, zero
        padding, trailing length byte, as an integer ``m >= 1``.  The
        fixed width makes the int <-> bytes conversion unambiguous even
        when the message has leading zero bytes."""
        capacity = self.params.message_bytes
        if len(message) > capacity:
            raise EncodingError(
                f"message of {len(message)} bytes exceeds capacity {capacity}"
            )
        data = message + b"\x00" * (capacity - len(message)) + bytes([len(message)])
        return int.from_bytes(data, "big") + 1  # ensure m >= 1

    def _int_to_payload(self, m: int) -> bytes:
        """Invert :meth:`_payload_to_int`."""
        m -= 1
        try:
            raw = m.to_bytes(self.params.message_bytes + 1, "big")
        except OverflowError as exc:
            raise EncodingError("element does not carry an encoded message") from exc
        length = raw[-1]
        if length > self.params.message_bytes:
            raise EncodingError(f"invalid length byte {length}")
        return raw[:length]

    # -- chunked message encoding -------------------------------------

    def encode_chunks(self, message: bytes) -> List:
        """Encode an arbitrary-length message as a vector of elements.

        The paper embeds larger messages as multiple curve points
        ("a 64-byte message is two elliptic curve points"); the same
        scheme applies to Schnorr-group elements.
        """
        capacity = self.params.message_bytes
        chunks = [message[i: i + capacity] for i in range(0, len(message), capacity)]
        if not chunks:
            chunks = [b""]
        return [self.encode(chunk) for chunk in chunks]

    def decode_chunks(self, elements: Iterable) -> bytes:
        """Invert :meth:`encode_chunks`."""
        return b"".join(self.decode(el) for el in elements)

    def elements_for_size(self, num_bytes: int) -> int:
        """Number of group elements needed to carry ``num_bytes`` bytes."""
        capacity = self.params.message_bytes
        return max(1, -(-num_bytes // capacity))

    # -- backend hooks -------------------------------------------------

    @property
    def element_bytes(self) -> int:
        """Serialized width of one element (``element.to_bytes()``)."""
        raise NotImplementedError

    def element(self, value: int):
        """Deserialize an integer ``value`` back into an element
        (raises ``ValueError`` on values outside the group)."""
        raise NotImplementedError

    def encode(self, message: bytes):
        """Reversibly embed up to ``params.message_bytes`` bytes."""
        raise NotImplementedError

    def decode(self, element) -> bytes:
        """Invert :meth:`encode`."""
        raise NotImplementedError

    def is_prime_order(self, element) -> bool:
        """Whether ``element`` lies in the prime-order subgroup (the
        EncProof and batched ReEnc-proof verifiers reject order-2
        stowaways with this)."""
        raise NotImplementedError

    def multiexp(self, bases, exponents, window: int = 0):
        """``prod_i bases[i]^exponents[i]`` via a Straus chain."""
        raise NotImplementedError

    def _build_table(self, value: int):
        """Build a fixed-base table (with ``.pow(e) -> raw``) for the
        element serialized as ``value``."""
        raise NotImplementedError

    def _wrap_raw(self, raw):
        """Wrap a table/multiexp result in an element."""
        raise NotImplementedError


class Group(GroupBackend):
    """A prime-order Schnorr group with message encoding.

    Exposes the generator ``g``, subgroup order ``q``, scalar sampling,
    hashing to scalars (for Fiat-Shamir), and reversible message
    encoding into the subgroup.
    """

    def __init__(self, params: GroupParams):
        super().__init__()
        self.params = params
        self.p = params.p
        self.q = params.q
        self.g = GroupElement(params.g, self)
        self.identity = GroupElement(1, self)

    def __reduce__(self):
        # TOY deserializes back through get_group, restoring singleton
        # identity: a copy shares the process's one warm fixed-base
        # cache instead of carrying (and rebuilding) tables.
        if self.params == _TOY_PARAMS:
            return (get_group, (self.params.name,))
        return (Group, (self.params,))

    # -- fast exponentiation hooks ------------------------------------

    def _build_table(self, value: int) -> FixedBaseExp:
        return FixedBaseExp(self.p, self.q, value)

    def _wrap_raw(self, raw: int) -> GroupElement:
        return GroupElement(raw, self)

    def fixed_base(self, base: Union[GroupElement, int]) -> FixedBaseExp:
        if isinstance(base, int):
            base = base % self.p
        return super().fixed_base(base)

    def multiexp(self, bases, exponents, window: int = 0) -> GroupElement:
        """Straus multi-exponentiation over plain integer residues."""
        values = [getattr(b, "value", b) for b in bases]
        return GroupElement(
            multiexp_ints(self.p, self.q, values, exponents, window), self
        )

    # -- construction -------------------------------------------------

    @property
    def element_bytes(self) -> int:
        return (self.p.bit_length() + 7) // 8

    def element(self, value: int) -> GroupElement:
        """Wrap an integer as a group element (must lie in Z_p^*)."""
        return GroupElement(value % self.p, self)

    # -- message encoding ---------------------------------------------

    def encode(self, message: bytes) -> GroupElement:
        """Encode up to ``message_bytes`` bytes as a subgroup element.

        The padded message (``_payload_to_int``) is interpreted as an
        integer m in [1, q] and mapped to the QR subgroup via m -> m or
        p - m.
        """
        m = self._payload_to_int(message)
        if m > self.q:
            raise EncodingError("encoded integer exceeds subgroup order")
        if self._is_qr(m):
            return GroupElement(m, self)
        return GroupElement(self.p - m, self)

    def decode(self, element: GroupElement) -> bytes:
        """Invert :meth:`encode`."""
        m = element.value
        if m > self.q:
            m = self.p - m
        return self._int_to_payload(m)

    # -- internals ----------------------------------------------------

    def is_prime_order(self, element: GroupElement) -> bool:
        """QR-subgroup membership (order q) via the Jacobi symbol."""
        return jacobi(element.value, self.p) == 1

    def _is_qr(self, value: int) -> bool:
        """Quadratic-residue test via the Jacobi symbol.

        For prime ``p`` the Jacobi symbol equals the Legendre symbol,
        so this is equivalent to Euler's criterion (kept below as the
        property-test oracle) at O(log^2) bit cost instead of a full
        modular exponentiation per ``encode``.
        """
        return jacobi(value, self.p) == 1

    def _is_qr_euler(self, value: int) -> bool:
        """Euler's criterion: value^q == 1 mod p iff value is a QR."""
        return pow(value, self.q, self.p) == 1

    def __repr__(self) -> str:
        return f"Group({self.params.name}, |p|={self.p.bit_length()} bits)"


class DeterministicRng:
    """Deterministic randomness expander (SHA3-based) for reproducibility.

    Used wherever the protocol needs *public* or replayable randomness:
    the beacon, simulations, and tests.  Secret keys default to
    ``secrets`` unless a DeterministicRng is passed explicitly.
    """

    def __init__(self, seed: bytes):
        self._seed = seed
        self._counter = 0

    # -- replayable state (the durable store journals these) ----------

    @property
    def seed(self) -> bytes:
        return self._seed

    @property
    def counter(self) -> int:
        """Blocks drawn so far.  (seed, counter) is the complete rng
        state: the write-ahead log records it at layer commits and
        round boundaries so crash recovery resumes the exact stream."""
        return self._counter

    def seek(self, counter: int) -> None:
        """Jump to an absolute position previously read off ``counter``."""
        if counter < 0:
            raise ValueError("rng counter cannot be negative")
        self._counter = counter

    @classmethod
    def at(cls, seed: bytes, counter: int) -> "DeterministicRng":
        """An rng positioned at a journaled (seed, counter) state."""
        rng = cls(seed)
        rng.seek(counter)
        return rng

    def _next_block(self) -> bytes:
        h = hashlib.sha3_256()
        h.update(self._seed)
        h.update(self._counter.to_bytes(8, "big"))
        self._counter += 1
        return h.digest()

    def randbits(self, bits: int) -> int:
        out = b""
        while len(out) * 8 < bits:
            out += self._next_block()
        return int.from_bytes(out, "big") >> (len(out) * 8 - bits)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] via rejection sampling."""
        span = high - low + 1
        bits = span.bit_length()
        while True:
            candidate = self.randbits(bits)
            if candidate < span:
                return low + candidate

    def randbytes(self, n: int) -> bytes:
        out = b""
        while len(out) < n:
            out += self._next_block()
        return out[:n]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(0, i)
            items[i], items[j] = items[j], items[i]

    def choice(self, items: list):
        return items[self.randint(0, len(items) - 1)]


# -- the two groups ---------------------------------------------------------

_GROUP_CACHE: Dict[str, GroupBackend] = {}


def available_groups() -> List[str]:
    """The names :func:`get_group` (and the CLI's ``--group``) accept."""
    return ["P256", "TOY"]


def get_group(name: str) -> GroupBackend:
    """Return (and cache) the named group: ``P256`` or ``TOY``
    (case-insensitive), one instance per process, so every caller
    shares one warm fixed-base cache."""
    key = name.upper()
    group = _GROUP_CACHE.get(key)
    if group is None:
        if key == "TOY":
            group = Group(_TOY_PARAMS)
        elif key == "P256":
            from repro.crypto.ec import make_p256_group

            group = make_p256_group()
        else:
            raise KeyError(
                f"unknown group {name!r}; choose from {available_groups()}"
            )
        _GROUP_CACHE[key] = group
    return group
