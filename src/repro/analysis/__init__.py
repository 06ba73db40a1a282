"""Analytical companions to the protocol.

- :mod:`repro.analysis.groups_math` — anytrust / many-trust group-size
  bounds (§4.1, Appendix B, Figure 13).
- :mod:`repro.analysis.costs` — deployment cost estimates (§7).
"""

from repro.analysis.groups_math import (
    anytrust_failure_probability,
    manytrust_failure_probability,
    minimum_group_size,
)

__all__ = [
    "anytrust_failure_probability",
    "manytrust_failure_probability",
    "minimum_group_size",
]
