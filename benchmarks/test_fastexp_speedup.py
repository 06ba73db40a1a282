"""Fast-exponentiation engine measurements on P-256 (BENCH_fastexp.json).

Recorded in ``BENCH_fastexp.json`` at the repo root so later scaling
PRs can track the trajectory (timings are recorded, never asserted:
tier-1 keeps no wall-clock ratio assert):

1. **Fixed-base vs variable-base exponentiation**: ``g^r`` through the
   generator's comb table against the wNAF scalar multiplication a base
   without a table takes, plus the table's build cost.

2. **Batched shuffle-proof verification**: one ``rerandomize_many``
   kernel call over every opened link against the per-part oracle
   (``batched=False``).

3. **Primitive costs** (``"backends"``): encrypt, re-encrypt, ``g^r``
   and encode with warm caches — the run-stream hot path.

4. **The lockstep comb's crossover**: the P-256 comb's per-exponentiation
   time, lockstep against one Jacobian chain at a time, by chain count —
   the evidence for ``ec.LOCKSTEP_MIN_CHAINS``.
"""

import time

import pytest

from conftest import print_table, record_bench
from repro.crypto import ec
from repro.crypto.elgamal import AtomElGamal, ElGamalKeyPair
from repro.crypto.groups import DeterministicRng, get_group
from repro.crypto.vector import (
    CiphertextVector,
    prove_vector_shuffle,
    shuffle_vectors,
    verify_vector_shuffle,
)

N_ELEMENTS = 12
ROUNDS = 3
#: chain counts per kernel call at which the two P-256 combs are timed
LOCKSTEP_CHAINS = (4, 8, 12, 16, 24, 48, 96)


def _build_proof(group):
    """A one-part vector shuffle proof: one group element per message."""
    rng = DeterministicRng(b"bench-fastexp")
    scheme = AtomElGamal(group)
    keys = ElGamalKeyPair.generate(group, rng)
    inputs = []
    for i in range(N_ELEMENTS):
        message = group.encode(b"m%02d" % i)
        ct, _ = scheme.encrypt(keys.public, message, rng)
        inputs.append(CiphertextVector((ct,)))
    outputs, perm, rands = shuffle_vectors(scheme, keys.public, inputs, rng)
    proof = prove_vector_shuffle(
        scheme, keys.public, inputs, outputs, perm, rands, rounds=ROUNDS, rng=rng
    )
    return scheme, keys.public, inputs, outputs, proof


@pytest.mark.slow
def test_fastexp_speedup(benchmark):
    # -- fixed-base microbenchmark (Table 3's exponentiation row) ------
    fresh = ec.EcGroup()  # a cold cache: g has no comb table yet
    rng = DeterministicRng(b"bench-fixed-base")
    exponents = [fresh.random_scalar(rng) for _ in range(8)]
    start = time.perf_counter()
    variable = [fresh.g ** e for e in exponents]
    variable_pow_s = (time.perf_counter() - start) / len(exponents)
    start = time.perf_counter()
    fresh.fixed_base(fresh.g)
    table_build_s = time.perf_counter() - start
    start = time.perf_counter()
    fixed = [fresh.g ** e for e in exponents]
    fixed_pow_s = (time.perf_counter() - start) / len(exponents)
    assert fixed == variable

    # -- batched vs per-part shuffle-proof verification ----------------
    group = get_group("P256")
    scheme, public_key, inputs, outputs, proof = _build_proof(group)
    start = time.perf_counter()
    assert verify_vector_shuffle(
        scheme, public_key, inputs, outputs, proof, rounds=ROUNDS, batched=False
    )
    elementwise_s = time.perf_counter() - start

    def batched():
        assert verify_vector_shuffle(
            scheme, public_key, inputs, outputs, proof, rounds=ROUNDS, batched=True
        )

    batched()  # warm the fixed-base tables (g, pk) like a real round
    benchmark.pedantic(batched, rounds=3, iterations=1)
    batched_s = benchmark.stats.stats.min

    speedup = elementwise_s / batched_s
    fixed_speedup = variable_pow_s / fixed_pow_s
    print_table(
        "Fast-exponentiation engine (P256)",
        ["metric", "before", "after", "speedup"],
        [
            (
                "g^r: variable-base vs comb table (ms)",
                f"{variable_pow_s * 1000:.3f}",
                f"{fixed_pow_s * 1000:.3f}",
                f"{fixed_speedup:.1f}x",
            ),
            (
                f"verify shuffle n={N_ELEMENTS} rounds={ROUNDS}: "
                "per-part vs batched (s)",
                f"{elementwise_s:.4f}",
                f"{batched_s:.4f}",
                f"{speedup:.1f}x",
            ),
        ],
    )

    record_bench(
        {
            "bench": "fastexp",
            "group": "P256",
            "n_elements": N_ELEMENTS,
            "proof_rounds": ROUNDS,
            "verify_elementwise_fixed_base_s": round(elementwise_s, 6),
            "verify_batched_s": round(batched_s, 6),
            "verify_speedup": round(speedup, 2),
            "pow_variable_base_ms": round(variable_pow_s * 1000, 4),
            "pow_fixed_base_ms": round(fixed_pow_s * 1000, 4),
            "pow_speedup": round(fixed_speedup, 2),
            "fixed_base_table_build_ms": round(table_build_s * 1000, 2),
        }
    )


def _time_primitive(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.slow
def test_lockstep_comb_crossover():
    """Per-exponentiation time of ``ec._comb_lockstep`` and of the
    Jacobian comb (one chain at a time, then one shared normalization)
    over g's and a key's tables, as a rerandomization call mixes them,
    at each of :data:`LOCKSTEP_CHAINS`.  Recorded in
    ``BENCH_fastexp.json`` under ``"lockstep_comb"``; never asserted,
    because tier-1 keeps no wall-clock asserts — only the points are
    checked to agree."""
    group = get_group("P256")
    rng = DeterministicRng(b"bench-lockstep")
    g_table = group.fixed_base(group.g)
    key_table = group.fixed_base(group.g_pow(group.random_scalar(rng)))
    by_chains = {}
    for chains in LOCKSTEP_CHAINS:
        tables = [g_table, key_table] * (chains // 2)
        scalars = [group.random_scalar(rng) for _ in range(chains)]
        accs = [group.random_element(rng)._jac() for _ in range(chains)]

        def lockstep():
            return ec._comb_lockstep(tables, scalars, accs)

        def jacobian():
            return ec._batch_to_affine(
                [t.pow(s, acc) for t, s, acc in zip(tables, scalars, accs)]
            )

        assert lockstep() == jacobian()
        lockstep_us = _time_primitive(lockstep, 7) / chains * 1e6
        jacobian_us = _time_primitive(jacobian, 7) / chains * 1e6
        by_chains[str(chains)] = {
            "lockstep_us": round(lockstep_us, 1),
            "jacobian_us": round(jacobian_us, 1),
            "ratio": round(lockstep_us / jacobian_us, 2),
        }

    print_table(
        f"P-256 comb per exponentiation (lockstep from "
        f"{ec.LOCKSTEP_MIN_CHAINS} chains)",
        ["chains", "lockstep (us)", "Jacobian (us)", "lockstep / Jacobian"],
        [
            (chains, row["lockstep_us"], row["jacobian_us"], row["ratio"])
            for chains, row in by_chains.items()
        ],
    )
    record_bench(
        {
            "lockstep_comb": {
                "min_chains": ec.LOCKSTEP_MIN_CHAINS,
                "per_exp_by_chains": by_chains,
            }
        }
    )


@pytest.mark.slow
def test_p256_primitive_costs(benchmark):
    """The run-stream hot path on P-256: encrypt, re-encrypt, ``g^r``
    and encode with warm caches, recorded in ``BENCH_fastexp.json``
    under ``"backends"`` for comparison with the paper's Table 3."""
    rng = DeterministicRng(b"bench-backends")
    group = get_group("P256")
    scheme = AtomElGamal(group)
    kp = ElGamalKeyPair.generate(group, rng)
    nxt = ElGamalKeyPair.generate(group, rng)
    message = group.encode(b"backend bench")
    ct, _ = scheme.encrypt(kp.public, message, rng)
    # Warm the fixed-base tables (g and both public keys) the way a
    # real deployment's first few operations would.
    for _ in range(4):
        scheme.encrypt(kp.public, message, rng)
        scheme.reencrypt(kp.secret, nxt.public, ct, rng)
    costs = {
        "encrypt_ms": _time_primitive(
            lambda: scheme.encrypt(kp.public, message, rng), 20
        )
        * 1000,
        "reencrypt_ms": _time_primitive(
            lambda: scheme.reencrypt(kp.secret, nxt.public, ct, rng), 20
        )
        * 1000,
        "g_pow_ms": _time_primitive(
            lambda: group.g_pow(group.random_scalar(rng)), 20
        )
        * 1000,
        "encode_ms": _time_primitive(lambda: group.encode(b"bench"), 20) * 1000,
    }

    benchmark.pedantic(
        lambda: scheme.encrypt(kp.public, message, rng), rounds=3, iterations=1
    )

    print_table(
        "P-256 primitives (warm caches)",
        ["primitive", "P256 (ms)"],
        [(metric[:-3], f"{ms:.3f}") for metric, ms in costs.items()],
    )
    record_bench(
        {"backends": {"P256": {k: round(v, 4) for k, v in costs.items()}}}
    )


@pytest.mark.slow
def test_envelope_overhead(benchmark):
    """The message-driven node API's wire cost.

    Records the serialize + deserialize cost of one mix-layer hand-off
    batch on P-256 (what the TCP transport pays per MIX_BATCH
    envelope) in ``BENCH_fastexp.json`` under ``"envelope_overhead"``,
    and drives one full round through the coordinator on the zero-copy
    ``InProcessTransport``.  No wall-clock ratio is asserted: on a
    shared box a ratio of two round timings measures the neighbours.
    """
    from repro.core import AtomDeployment, Client, DeploymentConfig
    from repro.core.batch import CiphertextBatch
    from repro.net import envelopes as ev
    from repro.net.envelopes import Envelope, wrap

    # -- wire codec cost per mix-layer batch (P-256) -------------------
    group = get_group("P256")
    rng = DeterministicRng(b"bench-envelope")
    scheme = AtomElGamal(group)
    keys = ElGamalKeyPair.generate(group, rng)
    vectors = []
    for i in range(8):
        ct, _ = scheme.encrypt(keys.public, group.encode(b"b%02d" % i), rng)
        vectors.append(CiphertextVector((ct,)))
    batch_env = wrap(
        ev.MixBatch(layer=1, batch=CiphertextBatch.from_vectors(group, vectors)),
        0, 0, 1,
    )
    serialize_s = _time_primitive(lambda: batch_env.to_bytes(group), 20)
    raw = batch_env.to_bytes(group)
    deserialize_s = _time_primitive(
        lambda: Envelope.from_bytes(raw, group), 20
    )

    # -- one inproc coordinator round ----------------------------------
    config = DeploymentConfig(
        num_servers=6, num_groups=2, group_size=2, variant="basic",
        iterations=3, message_size=8, crypto_group="P256",
    )
    with AtomDeployment(config) as dep:
        rnd = dep.start_round(0, rng=DeterministicRng(b"env-round"))
        client = Client(dep.group, DeterministicRng(b"env-client"))
        for i in range(8):
            dep.submit_plain(rnd, b"m%d" % i, i % 2, client)
        result = dep.run_round(rnd, DeterministicRng(b"env-mix"))
    assert result.ok and len(result.messages) == 8

    benchmark.pedantic(lambda: batch_env.to_bytes(group), rounds=3, iterations=1)

    print_table(
        "Envelope overhead (wire codec on P256)",
        ["metric", "value"],
        [
            ("serialize MIX_BATCH (8 vectors, ms)", f"{serialize_s * 1e3:.3f}"),
            ("deserialize MIX_BATCH (ms)", f"{deserialize_s * 1e3:.3f}"),
            ("envelope bytes per batch", f"{len(raw):,}"),
        ],
    )

    record_bench(
        {
            "envelope_overhead": {
                "group": "P256",
                "batch_vectors": 8,
                "serialize_ms_per_batch": round(serialize_s * 1e3, 4),
                "deserialize_ms_per_batch": round(deserialize_s * 1e3, 4),
                "batch_bytes": len(raw),
            }
        }
    )


@pytest.mark.slow
def test_batched_rejects_tampering_p256(benchmark):
    """The fast path keeps soundness: a mauled output vector fails."""
    group = get_group("P256")
    scheme, public_key, inputs, outputs, proof = _build_proof(group)
    tampered = list(outputs)
    tampered[0], tampered[1] = tampered[1], tampered[0]
    benchmark.pedantic(
        lambda: verify_vector_shuffle(
            scheme, public_key, inputs, tampered, proof, rounds=ROUNDS
        ),
        rounds=1,
        iterations=1,
    )
    assert not verify_vector_shuffle(
        scheme, public_key, inputs, tampered, proof, rounds=ROUNDS
    )
