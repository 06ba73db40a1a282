"""Deployment cost estimates (paper §7).

The paper works out what volunteering a server costs on AWS as of
September 2017: compute is a fixed hourly rate; bandwidth is bounded by
rate-matching the server's crypto throughput (a four-core trap-variant
server reencrypts ~2,700 msg/s and shuffles ~9,200 msg/s at 32 bytes,
i.e. ~90 KB/s and ~300 KB/s of traffic).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.costmodel import PrimitiveCosts

#: §7's quoted AWS prices (September 2017).
COMPUTE_USD_PER_MONTH = {4: 146.0, 36: 1165.0}
#: AWS egress pricing used for the §7 upper bound (~$0.09/GB blended
#: down to the paper's $7.20/month at 300 KB/s).
USD_PER_GB = 7.20 / (300e3 * 86400 * 30 / 1e9)


@dataclass(frozen=True)
class ServerCostEstimate:
    cores: int
    reencrypt_msgs_per_s: float
    shuffle_msgs_per_s: float
    bandwidth_bytes_per_s: float
    compute_usd_month: float
    bandwidth_usd_month: float

    @property
    def total_usd_month(self) -> float:
        return self.compute_usd_month + self.bandwidth_usd_month


def estimate_server_cost(
    cores: int,
    costs: PrimitiveCosts = None,
    message_bytes: int = 32,
) -> ServerCostEstimate:
    """Reproduce §7's estimate for a ``cores``-core trap-variant server."""
    if cores < 1:
        raise ValueError("cores must be >= 1")
    costs = costs or PrimitiveCosts.paper_table3()
    scale = cores / 4  # §7 scales the 4-core figures linearly
    reenc_rate = (1.0 / costs.reenc) * scale
    shuffle_rate = (1.0 / costs.shuffle_per_msg) * scale
    bandwidth = shuffle_rate * message_bytes  # rate-matching upper bound
    gb_per_month = bandwidth * 86400 * 30 / 1e9
    compute = COMPUTE_USD_PER_MONTH.get(cores)
    if compute is None:
        compute = COMPUTE_USD_PER_MONTH[4] * cores / 4
    return ServerCostEstimate(
        cores=cores,
        reencrypt_msgs_per_s=reenc_rate,
        shuffle_msgs_per_s=shuffle_rate,
        bandwidth_bytes_per_s=bandwidth,
        compute_usd_month=compute,
        bandwidth_usd_month=gb_per_month * USD_PER_GB,
    )
