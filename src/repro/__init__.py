"""repro — a pure-Python reproduction of *Atom: Horizontally Scaling
Strong Anonymity* (Kwon, Corrigan-Gibbs, Devadas, Ford — SOSP 2017).

Package map:

- :mod:`repro.crypto` — rerandomizable ElGamal with out-of-order
  re-encryption, NIZKs, verifiable shuffles, DVSS/threshold keys.
- :mod:`repro.topology` — square and iterated-butterfly permutation
  networks.
- :mod:`repro.core` — the Atom protocol: group mixing (Algorithms 1
  and 2), trap variant with trustees, fault tolerance, blame.
- :mod:`repro.sim` — the calibrated performance simulator behind the
  paper's evaluation figures.
- :mod:`repro.apps` — microblogging and dialing.
- :mod:`repro.baselines` — the Table 12 latency models of Riposte,
  Vuvuzela and Alpenhorn.
- :mod:`repro.analysis` — group-size math and cost estimates.

Quickstart::

    from repro.core import AtomDeployment, DeploymentConfig

    dep = AtomDeployment(DeploymentConfig(num_groups=2, variant="trap"))
    rnd = dep.start_round(0)
    for i in range(4):
        dep.submit_trap(rnd, f"hello {i}".encode(), entry_gid=i % 2)
    result = dep.run_round(rnd)
    print(result.messages)
"""

__version__ = "1.0.0"
