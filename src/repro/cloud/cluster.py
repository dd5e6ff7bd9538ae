"""Virtual clusters: a count of identical instances plus derived resources."""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .instances import InstanceType, get_instance

__all__ = ["Cluster"]


@dataclass(frozen=True)
class Cluster:
    """A homogeneous virtual cluster (the shape EMR/Dataproc provision).

    One node is reserved conceptually for the driver/master, matching
    managed-Hadoop deployments, but all nodes contribute worker resources
    (Spark's driver coexists with executors on small clusters).
    """

    instance: InstanceType
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("cluster needs at least one node")

    @classmethod
    def of(cls, instance_name: str, count: int) -> "Cluster":
        return cls(get_instance(instance_name), count)

    # --- aggregate resources ------------------------------------------
    @property
    def total_vcpus(self) -> int:
        return self.instance.vcpus * self.count

    @property
    def total_memory_mb(self) -> int:
        return self.instance.memory_mb * self.count

    @property
    def node_disk_mb_s(self) -> float:
        return self.instance.disk_mb_s

    @property
    def node_network_mb_s(self) -> float:
        return self.instance.network_mb_s

    @property
    def price_per_hour(self) -> float:
        return self.instance.price_per_hour * self.count

    def cost_of(self, runtime_s: float) -> float:
        """On-demand cost (USD) of holding the cluster for ``runtime_s``.

        Per-second billing (the 2018+ cloud norm), so cost is linear in
        runtime rather than rounded up to whole hours.
        """
        if runtime_s < 0:
            raise ValueError("runtime must be non-negative")
        return self.price_per_hour * runtime_s / 3600.0

    def describe(self) -> str:
        """``"4x m5.xlarge (aws)"``, interned: every history record of a
        cluster shares one string object."""
        return sys.intern(
            f"{self.count}x {self.instance.name} ({self.instance.provider})"
        )
