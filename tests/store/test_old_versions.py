"""State written by a version-1 journal is refused by name, never parsed.

Journal version 2 added the frame's round-id slot; there is no legacy
parser.  Every entry point that opens a log — resume, ``repro store
info``, a restarting serve process, and a shipped bundle — must refuse
a version-1 segment with a :class:`WalError` that names both versions.
The fixtures are byte literals, so they do not depend on any writer in
this tree.
"""

import pytest

from repro.cli import main
from repro.core import DeploymentConfig
from repro.fleet.plan import DeploymentPlan
from repro.fleet.server import FleetServer, fleet_log_root
from repro.store.recovery import RecoveryManager
from repro.store.segments import write_manifest
from repro.store.ship import Bundle, BundleError
from repro.store.wal import WalError

#: a version-1 segment: magic, then one ``u8 type | u32 length |
#: payload | u32 crc`` frame holding a JSON ROUND_END body
V1_SEGMENT = (
    b"ATWL\x01"
    b'\n\x00\x00\x00\x18{"round": 0, "ok": true}\x1c~\x0ed'
)
REFUSAL = "log version 1, expected 2"


def _v1_state_dir(root):
    root.mkdir(parents=True, exist_ok=True)
    (root / "wal-000001.seg").write_bytes(V1_SEGMENT)
    write_manifest(root, ["wal-000001.seg"], next_seq=2)
    return root


def test_resume_refuses_a_version_1_segment(tmp_path):
    with pytest.raises(WalError, match=REFUSAL):
        RecoveryManager(_v1_state_dir(tmp_path))


def test_cli_resume_refuses_a_version_1_segment(tmp_path, capsys):
    argv = ["resume", "--state-dir", str(_v1_state_dir(tmp_path))]
    assert main(argv) == 2
    assert REFUSAL in capsys.readouterr().err


@pytest.mark.parametrize("fleet", [False, True])
def test_store_info_refuses_a_version_1_segment(tmp_path, capsys, fleet):
    root = tmp_path / "fleet-log" if fleet else tmp_path
    _v1_state_dir(root)
    argv = ["store", "info", "--state-dir", str(tmp_path)]
    assert main(argv + ["--fleet"] * fleet) == 2
    assert REFUSAL in capsys.readouterr().err


def test_serve_restart_refuses_a_version_1_segment(tmp_path, capsys):
    config = DeploymentConfig(
        num_servers=6, num_groups=2, group_size=2, variant="basic",
        iterations=3, message_size=8, crypto_group="TOY", nizk_rounds=4,
    )
    plan = DeploymentPlan.build(
        config, 2, ports=[1, 2], state_root=str(tmp_path / "state")
    )
    server = FleetServer(plan, "p0")
    _v1_state_dir(fleet_log_root(server.spec.state_dir))
    assert server.serve_forever() == 2
    out = capsys.readouterr().out
    assert "state-dir unusable: WalError" in out and REFUSAL in out


def test_bundle_refuses_a_version_1_image():
    header = (
        b"\x00\x00\x00\x05fleet"  # kind
        b"\x00\x00\x00\x01"  # record count
        b"\x00\x00\x00\x00"  # source
        b"\x00\x00\x00\x00\x00\x00\x00\x2d"  # disk bytes
    )
    raw = b"ATBL\x02" + len(header).to_bytes(4, "big") + header + V1_SEGMENT
    with pytest.raises(WalError, match=REFUSAL):
        Bundle.from_bytes(raw)
    # a version-1 bundle (JSON header) is refused at its own version byte
    old = b"ATBL\x01\x00\x00\x00\x02{}" + V1_SEGMENT
    with pytest.raises(BundleError, match="bundle version 1, expected 2"):
        Bundle.from_bytes(old)
