"""Tests for the directory (group formation, staggering) and the
trustee group's release logic."""

import pytest

from repro.core.directory import Directory, make_fleet
from repro.core.protocol import DeploymentConfig
from repro.core.server import AtomServer
from repro.core.trustees import GroupReport, KeyWithheld, TrusteeGroup
from repro.crypto.elgamal import AtomElGamal


@pytest.fixture()
def directory(toy_group):
    servers = [AtomServer(server_id=i, group=toy_group) for i in range(12)]
    return Directory(
        servers, toy_group, DeploymentConfig(group_size=3, seed=b"dir-test")
    )


class TestDirectory:
    def test_group_formation_deterministic(self, directory):
        a = directory.form_groups(0, num_groups=4)
        b = directory.form_groups(0, num_groups=4)
        for ga, gb in zip(a, b):
            assert [s.server_id for s in ga.servers] == [
                s.server_id for s in gb.servers
            ]

    def test_rounds_resample_groups(self, directory):
        a = directory.form_groups(0, num_groups=4)
        b = directory.form_groups(1, num_groups=4)
        ids_a = [[s.server_id for s in g.servers] for g in a]
        ids_b = [[s.server_id for s in g.servers] for g in b]
        assert ids_a != ids_b

    def test_group_keys_fresh_per_round(self, directory):
        a = directory.form_groups(0, num_groups=2)
        b = directory.form_groups(0, num_groups=2)
        # same membership but freshly generated keys (§4.4: keys change
        # across rounds, preventing replay)
        assert a[0].public_key != b[0].public_key

    def test_staggering_rotates_positions(self, directory):
        """§4.7: a server appearing in several groups should not always
        hold the same position."""
        contexts = directory.form_groups(0, num_groups=8)
        positions = directory.utilization_positions(contexts)
        multi = [p for p in positions if len(p) >= 3]
        assert multi, "expected servers serving in several groups"
        assert any(len(set(p)) > 1 for p in multi)

    def test_empty_directory_rejected(self, toy_group):
        with pytest.raises(ValueError):
            Directory([], toy_group, DeploymentConfig())

    def test_make_fleet_mix(self, toy_group):
        fleet = make_fleet(100, toy_group)
        cores = [s.cores for s in fleet]
        assert cores.count(4) == 80
        assert cores.count(8) == 10
        assert cores.count(16) == 5
        assert cores.count(32) == 5


class TestTrustees:
    def _clean_report(self, gid, traps=2, inner=2):
        return GroupReport(gid=gid, traps_ok=True, inner_ok=True,
                           num_traps=traps, num_inner=inner)

    def test_release_on_clean_reports(self, toy_group):
        trustees = TrusteeGroup(toy_group, num_trustees=3)
        for gid in range(4):
            trustees.submit_report(self._clean_report(gid))
        shares = trustees.evaluate(expected_groups=4)
        assert len(shares) == trustees.threshold
        secret = trustees.secret_key()
        assert toy_group.g ** secret == trustees.public_key

    def test_withheld_on_bad_trap_report(self, toy_group):
        trustees = TrusteeGroup(toy_group, num_trustees=3)
        trustees.submit_report(self._clean_report(0))
        trustees.submit_report(
            GroupReport(gid=1, traps_ok=False, inner_ok=True, num_traps=2, num_inner=2)
        )
        with pytest.raises(KeyWithheld) as excinfo:
            trustees.evaluate(expected_groups=2)
        assert excinfo.value.offending_gids == [1]

    def test_withheld_on_count_mismatch(self, toy_group):
        trustees = TrusteeGroup(toy_group, num_trustees=3)
        trustees.submit_report(self._clean_report(0, traps=3, inner=2))
        trustees.submit_report(self._clean_report(1))
        with pytest.raises(KeyWithheld, match="count mismatch"):
            trustees.evaluate(expected_groups=2)

    def test_withheld_on_missing_reports(self, toy_group):
        trustees = TrusteeGroup(toy_group, num_trustees=3)
        trustees.submit_report(self._clean_report(0))
        with pytest.raises(KeyWithheld, match="missing"):
            trustees.evaluate(expected_groups=2)

    def test_shares_deleted_after_abort(self, toy_group):
        """A failed round can never be decrypted later (§4.4)."""
        trustees = TrusteeGroup(toy_group, num_trustees=3)
        trustees.submit_report(
            GroupReport(gid=0, traps_ok=False, inner_ok=True, num_traps=1, num_inner=1)
        )
        with pytest.raises(KeyWithheld):
            trustees.evaluate(expected_groups=1)
        with pytest.raises(RuntimeError):
            trustees.submit_report(self._clean_report(0))
        with pytest.raises(RuntimeError):
            trustees.secret_key()

    def test_key_not_available_before_evaluate(self, toy_group):
        trustees = TrusteeGroup(toy_group, num_trustees=3)
        with pytest.raises(RuntimeError):
            trustees.secret_key()

    def test_threshold_trustees(self, toy_group):
        """Trustees double as a highly available threshold group."""
        trustees = TrusteeGroup(toy_group, num_trustees=5, threshold=3)
        scheme = AtomElGamal(toy_group)
        m = toy_group.encode(b"x")
        ct, _ = scheme.encrypt(trustees.public_key, m)
        for gid in range(2):
            trustees.submit_report(self._clean_report(gid))
        trustees.evaluate(expected_groups=2)
        assert scheme.decrypt(trustees.secret_key(), ct) == m
