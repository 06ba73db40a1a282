"""Golden wire bytes: one deterministic sample envelope per ``Kind``.

The round-trip property tests check that the codec agrees with itself;
this file pins what it actually puts on the wire.  Each sample fills
every field its kind declares (optional parts both present and absent,
nested proofs, non-empty sequences), and the sha256 of its encoding is
pinned per backend.  A codec rewrite that keeps ``WIRE_VERSION`` must
reproduce every digest unchanged; a deliberate format change bumps the
version and re-records this table.
"""

import hashlib

import pytest

from repro.core.batch import CiphertextBatch
from repro.core.client import Submission, TrapSubmission
from repro.core.group import MixAudit
from repro.core.trustees import GroupReport
from repro.crypto.elgamal import AtomCiphertext
from repro.crypto.groups import get_group
from repro.crypto.nizk import EncProof
from repro.crypto.sigma import SigmaProof
from repro.crypto.vector import (
    CiphertextVector,
    VectorShuffleProof,
    VectorShuffleRound,
)
from repro.net import envelopes as ev
from repro.net.envelopes import Envelope, Kind, wrap


def samples(group):
    """One payload per kind, a pure function of the group."""
    el = [group.g_pow(k) for k in range(1, 9)]
    vec = CiphertextVector(
        (AtomCiphertext(el[0], el[1], None), AtomCiphertext(el[2], el[3], el[4]))
    )
    sigma = SigmaProof(
        commitments=(el[5].value, el[6].value),
        challenge=group.q - 3,
        responses=(11, group.q - 1, 0),
    )
    sub = Submission(vector=vec, proofs=(EncProof(sigma), EncProof(sigma)))
    proof = VectorShuffleProof(
        rounds=(
            VectorShuffleRound(
                intermediate=(vec, CiphertextVector((AtomCiphertext(el[7], el[0], None),))),
                opened_perm=(1, 0),
                opened_rands=((5, 6), (group.q - 2,)),
            ),
            VectorShuffleRound(intermediate=(), opened_perm=(), opened_rands=()),
        ),
        challenge_bits=(1, 0),
    )
    audit = MixAudit(
        gid=3,
        shuffles_proved=4,
        shuffles_verified=5,
        reencs_proved=6,
        reencs_verified=7,
        tamperings=[(-1, "bad shuffle"), (2, "dup ∅")],
        bytes_sent=2**40 + 9,
        final_shuffle_proof=proof,
    )
    return {
        Kind.SUBMIT_PLAIN: ev.SubmitPlain(gid=5, submission=sub),
        Kind.SUBMIT_TRAP: ev.SubmitTrap(
            TrapSubmission(pair=(sub, sub), trap_commitment=b"\x01" * 32, gid=9)
        ),
        Kind.SUBMIT_OK: ev.SubmitOk(accepted=2),
        Kind.SUBMIT_ERR: ev.SubmitErr(reason="bad EncProof"),
        Kind.MIX: ev.Mix(
            layer=3, successors=(0, 7), next_keys=(el[1], None),
            seed=b"\x02" * 32,
        ),
        Kind.MIX_BATCH: ev.MixBatch(
            layer=2, batch=CiphertextBatch.from_vectors(group, [vec, vec]),
        ),
        Kind.MIX_SUMMARY: ev.MixSummary(layer=4, audit=audit),
        Kind.COMMIT_LAYER: ev.CommitLayer(layer=5),
        Kind.ABORT_LAYER: ev.AbortLayer(layer=6),
        Kind.FAULT: ev.Fault(
            code="abort", gid=2, culprit=-1, stage="reenc", alive=1,
            needed=3, message="RuntimeError('x')",
        ),
        Kind.EXIT: ev.Exit(),
        Kind.EXIT_PAYLOADS: ev.ExitPayloads(payloads=(b"p1", b"", b"p3" * 9)),
        Kind.TRAP_CHECK: ev.TrapCheck(
            traps=(b"t1", b"t2"), inner_ok=True, num_inner=4
        ),
        Kind.GROUP_REPORT: ev.GroupReportMsg(
            GroupReport(gid=1, traps_ok=True, inner_ok=False, num_traps=2,
                        num_inner=3)
        ),
        Kind.REPORT_OK: ev.ReportOk(),
        Kind.KEY_REQUEST: ev.KeyRequest(expected_groups=4),
        Kind.KEY_RELEASE: ev.KeyRelease(
            secret=group.q - 5, shares=(1, 2, group.q - 1)
        ),
        Kind.KEY_WITHHELD: ev.KeyWithheldMsg(
            reason="count mismatch", offending_gids=(0, 3)
        ),
        Kind.PING: ev.Ping(),
        Kind.PONG: ev.Pong(gid=1, alive=2, needed=3),
        Kind.ROUND_OPEN: ev.RoundOpen(
            fresh=True, epoch_round=2, seed=b"\x03" * 32, counter=2**40 + 17
        ),
        Kind.ROUND_CLOSE: ev.RoundClose(),
        Kind.FLEET_STATUS: ev.FleetStatus(),
        Kind.FLEET_STATUS_REPLY: ev.FleetStatusReply(
            name="p0", ready=True, pid=4242, gids=(0, 2), open_rounds=(1, 5)
        ),
        Kind.FLEET_SHUTDOWN: ev.FleetShutdown(),
        Kind.BUNDLE_INSTALL: ev.BundleInstall(data=b"\x04" * 24),
        Kind.BUNDLE_FETCH: ev.BundleFetch(),
        Kind.BUNDLE_DATA: ev.BundleData(data=b"\x05" * 24, records=3),
        Kind.CONTROL_OK: ev.ControlOk(),
    }


def digest(group, kind, payload) -> str:
    env = wrap(payload, round_id=7, sender=ev.COORDINATOR, dest=2,
               req_id=0x0102030405060708)
    return hashlib.sha256(env.to_bytes(group)).hexdigest()


#: sha256 of each sample's envelope bytes at wire version 4
GOLDEN = {
    'TOY': {
        'SUBMIT_PLAIN':
            '9e2aad174199632a6a7b2718a83efa67b442dd2fa19f97fd5077fa93b50bab95',
        'SUBMIT_TRAP':
            '679c226e8a0eb195ce8a108f1ce92d29ab24d7a055a07efcb1c0c2e97910932f',
        'SUBMIT_OK':
            'aad8b50a7b257563b9ab80f7c21b56b2af0e61bbd74595eff370e35211337e44',
        'SUBMIT_ERR':
            'cd1f4b269858cb4d384c93fbf52eb7b66d8bb1afbdc9d314b26a27a32da6a5cc',
        'MIX':
            'f72e2d82460600ecee1a5ac7d344ad540199a60f7e561c5f8bdec0a2dff0cf42',
        'MIX_BATCH':
            '3ea2b4f5536f110f113ed5555f549fd35f86e8b6eb88abfedfa261190e654b13',
        'MIX_SUMMARY':
            'd6b16e35719d18fe8fcc9c4df8e1ad8892785ac123923c2012a204ead0b05c58',
        'COMMIT_LAYER':
            '454d3c138778792c76fc1e06b7c9491a52df9b6b2173c4385717aed7739a0909',
        'ABORT_LAYER':
            '47ee4f1407508c0a7935e1589eacb7616ef9e16add3b90a83f50d84d7967b125',
        'FAULT':
            'd70deebac2eb9914d002d41a17b0dcc5a7e7c601e30a443e3d51c35a43e53e10',
        'EXIT':
            '50e2e13d9f9a065859cc1ab7133960aa266dd623b7af2950464ed6f64e8771f1',
        'EXIT_PAYLOADS':
            '1ece6fd27a82a4e12dbc883c2cc7968a98bd024362abfd0a91d932ebfed89a34',
        'TRAP_CHECK':
            '99bca51f8b721e16ba1579ad96c375a2b298acf0c4802d4548a7f5b4638ec3aa',
        'GROUP_REPORT':
            '50cae98309a5e31871c97637ea5cf2bb1a945f91ace7758c15f74bec0a38838b',
        'REPORT_OK':
            'b25f57d9239965d1dc9883222bcf7dafc33d6f55a77bd8d6ced151be6a953148',
        'KEY_REQUEST':
            'af62cb2f0cacfe98bf1023062468ae90910869a3d051334b044a088221ca26ce',
        'KEY_RELEASE':
            'e8d66fbb47ab9e3ee2b65f4ebbf666b1565f208691bb851dde1a8825e86db278',
        'KEY_WITHHELD':
            '2963ce81aad0a874a2161a4002f2ff533cf553dd5b842466a3518127b8f61758',
        'PING':
            'dc7231e2049d40cf4c7177a98eef60dc22f5fc8bf0ff0f2754ab91e582016aef',
        'PONG':
            'f4f2b96a55a9e0c64cc379f668c1b8039d1528a2ac0343e6bf45be01f1a6c1f7',
        'ROUND_OPEN':
            '2d808d748ed0adeaeabb3076535d9bd3fc39d0a14b1a88f080af4aebcbf7ccfc',
        'ROUND_CLOSE':
            '415992ea15397990dea12a94eb719e252c9595d8503515b30d5e6294afbdc02c',
        'FLEET_STATUS':
            '8ae22d268b1fbf63fcae878b8410b455e0b7852d3369707a1d96b9517cb1bd18',
        'FLEET_STATUS_REPLY':
            'c77d17d7b61d9812ffe54146c6cf74568ff4b323f327c0ea857938c26489632b',
        'FLEET_SHUTDOWN':
            'ba5ebec46cd6be6c513f4ced26d7b4d5b14471365e9a961d359b3e59f8e9616f',
        'BUNDLE_INSTALL':
            '360916e4e3f5ef61b71774c19fd209725f0c9dc4dde3992ac04454a8321ef4cc',
        'BUNDLE_FETCH':
            '3e3b152b009e9111fc32e07f79283d7028f399156f3b177df7c442f20c45704c',
        'BUNDLE_DATA':
            'b152319eb338652baa22a747d2eb75dc5f65f288f355f745199639a26a9bac3d',
        'CONTROL_OK':
            '6dfa6bf0463d077aa3be2777e970512b8b413f7663d4f8446c0fc5470cca6b58',
    },
    'P256': {
        'SUBMIT_PLAIN':
            'f756d3fa4c9260347d25c242109f7b91d48579b8eb99bf98a0a95411982c5700',
        'SUBMIT_TRAP':
            'f1a408d35feea862c26a668ee849f9d187cfeab3a93453a3feef2c20945249dd',
        'SUBMIT_OK':
            'aad8b50a7b257563b9ab80f7c21b56b2af0e61bbd74595eff370e35211337e44',
        'SUBMIT_ERR':
            'cd1f4b269858cb4d384c93fbf52eb7b66d8bb1afbdc9d314b26a27a32da6a5cc',
        'MIX':
            'e475dc3fcbede6a8c0b74aff2677008e1deb36d66482d12bfa0cccf75c3245b1',
        'MIX_BATCH':
            'b0322ecb2617fd1e47822a7c1e19bd935f12341bd25edeb975e19a45afe8bac1',
        'MIX_SUMMARY':
            '0ccbb60f544e3c5263e6cb8024c64a87be4e5f82cc7995dfd10d86ad55e32925',
        'COMMIT_LAYER':
            '454d3c138778792c76fc1e06b7c9491a52df9b6b2173c4385717aed7739a0909',
        'ABORT_LAYER':
            '47ee4f1407508c0a7935e1589eacb7616ef9e16add3b90a83f50d84d7967b125',
        'FAULT':
            'd70deebac2eb9914d002d41a17b0dcc5a7e7c601e30a443e3d51c35a43e53e10',
        'EXIT':
            '50e2e13d9f9a065859cc1ab7133960aa266dd623b7af2950464ed6f64e8771f1',
        'EXIT_PAYLOADS':
            '1ece6fd27a82a4e12dbc883c2cc7968a98bd024362abfd0a91d932ebfed89a34',
        'TRAP_CHECK':
            '99bca51f8b721e16ba1579ad96c375a2b298acf0c4802d4548a7f5b4638ec3aa',
        'GROUP_REPORT':
            '50cae98309a5e31871c97637ea5cf2bb1a945f91ace7758c15f74bec0a38838b',
        'REPORT_OK':
            'b25f57d9239965d1dc9883222bcf7dafc33d6f55a77bd8d6ced151be6a953148',
        'KEY_REQUEST':
            'af62cb2f0cacfe98bf1023062468ae90910869a3d051334b044a088221ca26ce',
        'KEY_RELEASE':
            '13133314b66b60ed90f2b906b75db40c17dfe9d4c8c7e449c83a060e07aecdb4',
        'KEY_WITHHELD':
            '2963ce81aad0a874a2161a4002f2ff533cf553dd5b842466a3518127b8f61758',
        'PING':
            'dc7231e2049d40cf4c7177a98eef60dc22f5fc8bf0ff0f2754ab91e582016aef',
        'PONG':
            'f4f2b96a55a9e0c64cc379f668c1b8039d1528a2ac0343e6bf45be01f1a6c1f7',
        'ROUND_OPEN':
            '2d808d748ed0adeaeabb3076535d9bd3fc39d0a14b1a88f080af4aebcbf7ccfc',
        'ROUND_CLOSE':
            '415992ea15397990dea12a94eb719e252c9595d8503515b30d5e6294afbdc02c',
        'FLEET_STATUS':
            '8ae22d268b1fbf63fcae878b8410b455e0b7852d3369707a1d96b9517cb1bd18',
        'FLEET_STATUS_REPLY':
            'c77d17d7b61d9812ffe54146c6cf74568ff4b323f327c0ea857938c26489632b',
        'FLEET_SHUTDOWN':
            'ba5ebec46cd6be6c513f4ced26d7b4d5b14471365e9a961d359b3e59f8e9616f',
        'BUNDLE_INSTALL':
            '360916e4e3f5ef61b71774c19fd209725f0c9dc4dde3992ac04454a8321ef4cc',
        'BUNDLE_FETCH':
            '3e3b152b009e9111fc32e07f79283d7028f399156f3b177df7c442f20c45704c',
        'BUNDLE_DATA':
            'b152319eb338652baa22a747d2eb75dc5f65f288f355f745199639a26a9bac3d',
        'CONTROL_OK':
            '6dfa6bf0463d077aa3be2777e970512b8b413f7663d4f8446c0fc5470cca6b58',
    },
}


@pytest.mark.parametrize("backend", sorted(GOLDEN))
def test_every_kind_encodes_to_its_pinned_bytes(backend):
    group = get_group(backend)
    table = samples(group)
    assert set(table) == set(Kind), "add a sample (and a digest) per new kind"
    got = {kind.name: digest(group, kind, p) for kind, p in table.items()}
    assert got == GOLDEN[backend]


@pytest.mark.parametrize("backend", sorted(GOLDEN))
def test_every_sample_decodes_back_to_itself(backend):
    group = get_group(backend)
    for kind, payload in samples(group).items():
        env = wrap(payload, round_id=7, sender=ev.COORDINATOR, dest=2)
        assert Envelope.from_bytes(env.to_bytes(group), group) == env, kind
