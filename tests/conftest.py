"""Shared fixtures: groups and deterministic randomness."""

import pytest

from repro.crypto.groups import DeterministicRng, get_group


@pytest.fixture(scope="session")
def toy_group():
    """64-bit Schnorr group: fast enough for exhaustive unit tests."""
    return get_group("TOY")


@pytest.fixture(scope="session")
def test_group():
    """The group integration-style unit tests run on: TOY as well
    (cases that need realistic payload sizes name P256 themselves)."""
    return get_group("TOY")


@pytest.fixture()
def rng():
    """Fresh deterministic RNG per test (reproducible failures)."""
    return DeterministicRng(b"pytest-fixture-seed")
