"""The settable config surface, pinned field by field.

Every config field doubles what tests and benchmarks must cover, so a
knob with one value in use is a module constant instead (the WAL's
``FSYNC_EVERY``, the resilience layer's ``RPC_ATTEMPTS`` and
``HEARTBEAT_TIMEOUT_S``, the coordinator's ``HEARTBEAT_MISSES`` and
``HEARTBEAT_GRACE_S``, ``NUM_TRUSTEES``).  Adding a field means editing
the pin below and giving the caller that needs a second value.
"""

import dataclasses

from repro.core import directory
from repro.core.pipeline import StreamConfig
from repro.core.protocol import DeploymentConfig

DEPLOYMENT_FIELDS = (
    "num_servers", "num_groups", "group_size", "variant", "mode", "h",
    "iterations", "message_size", "crypto_group", "topology",
    "nizk_rounds", "seed", "transport", "fleet_plan", "data_plane",
    "state_dir", "wal_segment_bytes", "wal_segment_records",
    "wal_retain_segments", "resilience", "rpc_timeout", "net_faults",
    "heartbeat",
)
STREAM_FIELDS = ("rounds", "users_per_round", "seed")


def _names(cls):
    return tuple(f.name for f in dataclasses.fields(cls))


def test_deployment_config_fields_are_pinned():
    assert _names(DeploymentConfig) == DEPLOYMENT_FIELDS
    assert len(DEPLOYMENT_FIELDS) == 23


def test_stream_config_fields_are_pinned():
    assert _names(StreamConfig) == STREAM_FIELDS


def test_directory_reads_the_deployment_config():
    assert not hasattr(directory, "DirectoryConfig")
