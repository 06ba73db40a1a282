"""Group-size mathematics (paper §4.1 and Appendix B).

Anytrust groups need at least one honest member; many-trust groups need
at least ``h`` honest members so that ``h - 1`` failures still leave an
honest participant among any ``k - (h - 1)`` members.

With adversarial fraction ``f`` and ``G`` groups:

    Pr[a group of k has fewer than h honest] = sum_{i<h} C(k,i) (1-f)^i f^(k-i)
    Pr[any of G groups bad]                 <= G * (the above)

The paper's worked examples, which these functions must reproduce:

- f = 0.2, G = 1024, h = 1  ->  k = 32   (since G * f^k < 2^-64)
- f = 0.2, G = 1024, h = 2  ->  k = 33
"""

from __future__ import annotations

import math
from typing import List


def anytrust_failure_probability(k: int, f: float, num_groups: int = 1) -> float:
    """Probability that any of ``num_groups`` groups of size ``k`` is
    all-malicious (union bound), paper §4.1."""
    if not 0 <= f < 1:
        raise ValueError("adversarial fraction must be in [0, 1)")
    if k < 1:
        raise ValueError("group size must be positive")
    return min(1.0, num_groups * f ** k)


def manytrust_failure_probability(
    k: int, f: float, h: int, num_groups: int = 1
) -> float:
    """Probability that any group has fewer than ``h`` honest members
    (union bound), paper Appendix B."""
    if not 0 <= f < 1:
        raise ValueError("adversarial fraction must be in [0, 1)")
    if h < 1:
        raise ValueError("h must be >= 1")
    if num_groups < 1:
        raise ValueError("need at least one group")
    if k < h:
        return 1.0
    single = sum(
        math.comb(k, i) * (1 - f) ** i * f ** (k - i) for i in range(h)
    )
    return min(1.0, num_groups * single)


def minimum_group_size(
    f: float,
    num_groups: int,
    h: int = 1,
    security_exponent: int = 64,
    max_k: int = 4096,
) -> int:
    """Smallest ``k`` with failure probability below ``2^-security_exponent``.

    ``h = 1`` gives the anytrust sizes of §4.1; larger ``h`` gives the
    many-trust sizes of Appendix B (Figure 13).
    """
    target = 2.0 ** (-security_exponent)
    for k in range(h, max_k + 1):
        if manytrust_failure_probability(k, f, h, num_groups) < target:
            return k
    raise ValueError(
        f"no group size up to {max_k} meets 2^-{security_exponent} "
        f"for f={f}, G={num_groups}, h={h}"
    )


def group_size_curve(
    f: float, num_groups: int, h_values: List[int], security_exponent: int = 64
) -> List[int]:
    """Figure 13: required ``k`` as a function of ``h``."""
    return [
        minimum_group_size(f, num_groups, h, security_exponent) for h in h_values
    ]


def expected_dummy_messages(mu: float, group_size: int) -> float:
    """Expected dummies for the dialing application (§6.2).

    Each server of an anytrust group contributes Poisson-ish noise with
    mean ``mu``; the paper quotes 32 * mu = 410k dummies network-wide
    for mu = 13,000 and 32 active servers.
    """
    return mu * group_size
