"""State written by an older journal is refused by name, never parsed.

Journal version 2 added the frame's round-id slot, and versions 3 and 4
dropped fields from the META and STREAM_BEGIN bodies; there is no
legacy parser.  Every entry point that opens a log — resume, ``repro
store info``, a restarting serve process, and a shipped bundle — must
refuse an older segment with a :class:`WalError` that names both
versions, and a fresh run over such a state dir moves the old log aside
instead of truncating it.  The fixtures are byte literals, so they do
not depend on any writer in this tree.  A fleet plan or a scenario that
still names a retired config knob is refused by the knob's name.
"""

import json

import pytest

from repro.cli import main
from repro.core import DeploymentConfig
from repro.crypto.groups import get_group
from repro.fleet.plan import DeploymentPlan, PlanError
from repro.fleet.server import FleetServer, fleet_log_root
from repro.scenarios import ScenarioError, ScenarioSpec
from repro.store import DurableStore
from repro.store.recovery import RecoveryManager
from repro.store.segments import LogDir, write_manifest
from repro.store.ship import Bundle, BundleError
from repro.store.wal import WalError

#: a version-1 segment: magic, then one ``u8 type | u32 length |
#: payload | u32 crc`` frame holding a JSON ROUND_END body
V1_SEGMENT = (
    b"ATWL\x01"
    b'\n\x00\x00\x00\x18{"round": 0, "ok": true}\x1c~\x0ed'
)
REFUSAL = "log version 1, expected 4"
#: a version-2 segment: magic, then one ``u8 type | u32 round_id |
#: u32 length | payload | u32 crc`` frame holding a ROUND_END body
V2_SEGMENT = (
    b"ATWL\x02"
    b"\n\x00\x00\x00\x00\x00\x00\x00\x01\x01\x9a\xb4\xf9h"
)
V2_REFUSAL = "log version 2, expected 4"
#: a version-3 segment: version 2's frame layout, one ROUND_END frame
V3_SEGMENT = (
    b"ATWL\x03"
    b"\n\x00\x00\x00\x00\x00\x00\x00\x01\x01\x9a\xb4\xf9h"
)
V3_REFUSAL = "log version 3, expected 4"


def _old_state_dir(root, segment=V1_SEGMENT):
    root.mkdir(parents=True, exist_ok=True)
    (root / "wal-000001.seg").write_bytes(segment)
    write_manifest(root, ["wal-000001.seg"], next_seq=2)
    return root


def _layout(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def test_resume_refuses_a_version_1_segment(tmp_path):
    with pytest.raises(WalError, match=REFUSAL):
        RecoveryManager(_old_state_dir(tmp_path))


def test_cli_resume_refuses_a_version_1_segment(tmp_path, capsys):
    argv = ["resume", "--state-dir", str(_old_state_dir(tmp_path))]
    assert main(argv) == 2
    assert REFUSAL in capsys.readouterr().err


@pytest.mark.parametrize("fleet", [False, True])
def test_store_info_refuses_a_version_1_segment(tmp_path, capsys, fleet):
    root = tmp_path / "fleet-log" if fleet else tmp_path
    _old_state_dir(root)
    argv = ["store", "info", "--state-dir", str(tmp_path)]
    assert main(argv + ["--fleet"] * fleet) == 2
    assert REFUSAL in capsys.readouterr().err


def _serve_over(tmp_path, segment):
    """A serve process restarting over a fleet log holding ``segment``;
    returns its exit status."""
    config = DeploymentConfig(
        num_servers=6, num_groups=2, group_size=2, variant="basic",
        iterations=3, message_size=8, crypto_group="TOY", nizk_rounds=4,
    )
    plan = DeploymentPlan.build(
        config, 2, ports=[1, 2], state_root=str(tmp_path / "state")
    )
    server = FleetServer(plan, "p0")
    _old_state_dir(fleet_log_root(server.spec.state_dir), segment)
    return server.serve_forever()


def test_serve_restart_refuses_a_version_1_segment(tmp_path, capsys):
    assert _serve_over(tmp_path, V1_SEGMENT) == 2
    out = capsys.readouterr().out
    assert "state-dir unusable: WalError" in out and REFUSAL in out


def _bundle(segment):
    header = (
        b"\x00\x00\x00\x05fleet"  # kind
        b"\x00\x00\x00\x01"  # record count
        b"\x00\x00\x00\x00"  # source
        b"\x00\x00\x00\x00\x00\x00\x00\x2d"  # disk bytes
    )
    return b"ATBL\x02" + len(header).to_bytes(4, "big") + header + segment


def test_bundle_refuses_a_version_1_image():
    with pytest.raises(WalError, match=REFUSAL):
        Bundle.from_bytes(_bundle(V1_SEGMENT))
    # a version-1 bundle (JSON header) is refused at its own version byte
    old = b"ATBL\x01\x00\x00\x00\x02{}" + V1_SEGMENT
    with pytest.raises(BundleError, match="bundle version 1, expected 2"):
        Bundle.from_bytes(old)


def test_every_entry_point_refuses_a_version_2_segment(tmp_path, capsys):
    with pytest.raises(WalError, match=V2_REFUSAL):
        RecoveryManager(_old_state_dir(tmp_path / "lib", V2_SEGMENT))
    cli = _old_state_dir(tmp_path / "cli", V2_SEGMENT)
    assert main(["resume", "--state-dir", str(cli)]) == 2
    assert V2_REFUSAL in capsys.readouterr().err
    assert main(["store", "info", "--state-dir", str(cli)]) == 2
    assert V2_REFUSAL in capsys.readouterr().err
    _old_state_dir(tmp_path / "fleet" / "fleet-log", V2_SEGMENT)
    argv = ["store", "info", "--state-dir", str(tmp_path / "fleet"), "--fleet"]
    assert main(argv) == 2
    assert V2_REFUSAL in capsys.readouterr().err
    assert _serve_over(tmp_path / "serve", V2_SEGMENT) == 2
    out = capsys.readouterr().out
    assert "state-dir unusable: WalError" in out and V2_REFUSAL in out
    with pytest.raises(WalError, match=V2_REFUSAL):
        Bundle.from_bytes(_bundle(V2_SEGMENT))


def test_resume_refuses_a_version_3_segment(tmp_path, capsys):
    with pytest.raises(WalError, match=V3_REFUSAL):
        RecoveryManager(_old_state_dir(tmp_path / "lib", V3_SEGMENT))
    cli = _old_state_dir(tmp_path / "cli", V3_SEGMENT)
    assert main(["resume", "--state-dir", str(cli)]) == 2
    assert V3_REFUSAL in capsys.readouterr().err


@pytest.mark.parametrize(
    "segment", [V1_SEGMENT, V2_SEGMENT, V3_SEGMENT], ids=["v1", "v2", "v3"]
)
def test_fresh_store_moves_an_old_log_aside(tmp_path, segment):
    """A fresh run over a log this build cannot read keeps the old
    bytes under ``wal-bak/`` instead of truncating them."""
    old = _layout(_old_state_dir(tmp_path, segment))
    DurableStore(tmp_path, get_group("TOY"), fresh=True).close()
    assert _layout(tmp_path / "wal-bak") == old
    assert LogDir.scan_dir(tmp_path).records == []


def test_plan_naming_a_retired_knob_is_refused():
    plan = DeploymentPlan.build(DeploymentConfig(), 2, ports=[1, 2])
    obj = json.loads(plan.to_json())
    obj["config"]["wal_fsync_every"] = 8
    with pytest.raises(PlanError, match="'wal_fsync_every'"):
        DeploymentPlan.from_json(json.dumps(obj))


def test_scenario_naming_a_retired_knob_is_refused():
    spec = {
        "name": "retired",
        "traffic": {"model": "constant", "users": 4, "rate": 1.0},
        "deployment": {"wal_fsync_every": 8},
    }
    with pytest.raises(ScenarioError, match="wal_fsync_every"):
        ScenarioSpec.parse(spec)
