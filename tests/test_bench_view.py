"""The benchmark traces ``src/repro`` from outside by wrapping public
names (``bench/layers.py::install``), and ``bench/`` may not change in
a PR that claims a gain — so a refactor that moves or renames a wrapped
function must fail here, in tier-1, not in the next traced run.
"""

from bench import layers
from bench.trace import Tracer

from repro.core.batch import CiphertextBatch, PartBuffer
from repro.crypto.ec import EcGroup
from repro.crypto.elgamal import AtomElGamal
from repro.crypto.groups import GroupBackend


def test_every_traced_name_is_still_defined():
    before = GroupBackend.__dict__["g_pow"]
    tracer = Tracer()
    try:
        # KeyError / AttributeError here names the wrapped function
        # that is gone from its class or module.
        layers.install(tracer)
        assert GroupBackend.__dict__["g_pow"] is not before
    finally:
        tracer.uninstall()
    assert GroupBackend.__dict__["g_pow"] is before


def test_batch_entry_points_can_be_traced_too():
    # The mix kernel's entry points are plain methods defined on these
    # classes, so a later benchmark PR can point spans at them.
    tracer = Tracer()
    try:
        for cls, attr in [
            (GroupBackend, "pow_mul_many"),
            (GroupBackend, "div_pow_many"),
            (EcGroup, "pow_mul_many"),
            (EcGroup, "div_pow_many"),
            (AtomElGamal, "rerandomize_many"),
            (AtomElGamal, "reencrypt_many"),
            (CiphertextBatch, "load"),
            (CiphertextBatch, "store"),
            (PartBuffer, "load"),
            (PartBuffer, "store"),
        ]:
            tracer.patch_method(cls, attr, "crypto.batch")
    finally:
        tracer.uninstall()
