"""Distributed archive cluster: coordinator/storage-node split.

The single-process serving stack (:mod:`repro.serve`) reconstructs
objects from a device array it owns.  This package splits that stack
over processes: storage *nodes* (:mod:`repro.cluster.node`) each hold
a flat block store behind the shared line-JSON protocol, and one
*coordinator* (:mod:`repro.cluster.coordinator`) owns the erasure
graph, placement (a consistent-hash ring, :mod:`repro.cluster.ring`),
object manifests, and the plan cache — serving reconstruction by
bulk-fetching surviving blocks over TCP and peeling around whatever is
dark or dead.  The coordinator's metadata is durable: every mutation
journals to a write-ahead log (:mod:`repro.cluster.wal`) before it is
acknowledged, and repair runs incrementally through a prioritized,
budgeted queue (:mod:`repro.cluster.scheduler`).
:mod:`repro.cluster.fleet` is the one process / membership /
telemetry harness under every multi-process run; over it,
:mod:`repro.cluster.driver` exercises a whole cluster (kill a node,
repair, rejoin) as one seeded scenario.
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".coordinator": (
            "ClusterCoordinator",
            "ClusterManifest",
            "start_coordinator",
        ),
        ".driver": ("ClusterLoadReport", "run_cluster_loadgen"),
        ".node": ("StorageNode", "start_storage_node"),
        ".ring": ("HashRing",),
        ".scheduler": ("RepairScheduler",),
        ".wal": ("CoordinatorWal", "WalCorruptError", "WalUnwritableError"),
        "..scenarios": ("ClusterLoadConfig",),
    },
)
