"""Resilience subsystem: fault injection, degraded reads, retry policy.

The paper's argument is about what happens when things fail; this
package makes the simulator fail in all the ways real archives do and
keeps the toolchain itself crash-tolerant:

* :mod:`repro.resilience.faults` — composable fault plans (transient
  outages with exponential recovery, correlated drawer failures over
  the paper's 8×12 topology, latent sector errors, silent corruption,
  replacement-lag jitter — plus the cluster-level kinds: coordinator
  crashes, node crashes, partitions, slow nodes) and the injection
  engine;
* :mod:`repro.resilience.campaign` — seeded fault-injection campaigns
  over :func:`repro.storage.run_mission` with integrity scrubbing,
  degraded-read probes, and repair-queue telemetry;
* :mod:`repro.resilience.cluster_campaign` — the same idea against a
  *live* multi-process cluster (a scenario over
  :class:`repro.cluster.fleet.Fleet`): seeded kill / partition /
  recover schedules with WAL-recovery digest checks and a zero-loss
  sweep;
* :mod:`repro.resilience.retry` — the deterministic
  retry-with-exponential-backoff policy behind degraded-mode reads
  (``archive.get(..., retry=...)``, the cluster coordinator's RPCs,
  and the blocking protocol clients).

Crash-tolerant *sweeps* (checkpoint / resume / per-cell timeouts for
``profile_graph``) live with the sweep itself in
:mod:`repro.sim.montecarlo`.  See ``docs/RESILIENCE.md`` for the full
taxonomy and file formats.
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".campaign": ("CampaignConfig", "CampaignReport", "run_campaign"),
        ".cluster_campaign": (
            "ClusterCampaignReport",
            "default_cluster_plan",
            "run_cluster_campaign",
        ),
        ".faults": (
            "CoordinatorCrashes",
            "DrawerOutages",
            "FaultInjector",
            "FaultPlan",
            "LatentErrors",
            "NetworkPartitions",
            "NodeCrashes",
            "ReplacementJitter",
            "SilentCorruption",
            "SlowNodes",
            "TransientOutages",
        ),
        ".retry": ("RetryPolicy",),
        "..scenarios": ("ClusterCampaignConfig",),
    },
)
