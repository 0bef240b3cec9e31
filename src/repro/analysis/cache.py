"""Profile caching for the benchmark harness.

Failure profiles are the expensive inputs every experiment shares
(Tables 1–6 all consume them).  The cache stores profiles as JSON keyed
by the full simulation configuration — system name, graph structure,
sample count, seed, exact/sampled split (``exact_upto``) and sampled
k-grid (``ks``) — so the benchmark suite simulates each graph once per
configuration and reuses it across experiments — the same reason the
paper ran its 34-CPU-day suite once per graph and analysed the outputs
many ways.

Every cache **write** stores a :class:`~repro.obs.manifest.RunManifest`
sidecar (``<profile>.manifest.json``) recording the seed, config,
package version, host, and wall time that produced the profile, so a
cached number can always be traced back to the run that made it.  Cache
traffic is counted in the metrics registry (``cache.hits``,
``cache.misses``, ``cache.invalidations``).
"""

from __future__ import annotations

import hashlib
import os
import time
from pathlib import Path
from typing import Sequence

from ..core.decoder import resolve_engine
from ..core.graph import ErasureGraph
from ..obs.manifest import RunManifest
from ..obs.registry import registry
from ..sim.montecarlo import profile_graph
from ..sim.results import FailureProfile

__all__ = ["ProfileCache", "default_cache"]

_MANIFEST_SUFFIX = ".manifest.json"


class ProfileCache:
    """Directory-backed store of :class:`FailureProfile` JSON files."""

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(
        self,
        graph: ErasureGraph,
        samples: int,
        seed: int,
        exact_upto: int,
        ks: Sequence[int] | None,
    ) -> Path:
        # The graph's structure participates in the key so a changed
        # construction invalidates stale profiles with the same name;
        # exact_upto and ks participate because they change the
        # exact/sampled split and the interpolation grid, hence the
        # resulting profile (regression: they used to be omitted, so two
        # calls differing only in exact_upto shared a cache entry).
        ks_key = None if ks is None else tuple(int(k) for k in ks)
        digest = hashlib.sha256(
            repr(
                (graph.num_nodes, graph.data_nodes, graph.constraints, ks_key)
            ).encode()
        ).hexdigest()[:16]
        safe = "".join(
            ch if ch.isalnum() or ch in "-_" else "_"
            for ch in graph.name
        )
        return self.root / f"{safe}-s{samples}-r{seed}-e{exact_upto}-{digest}.json"

    def manifest_path(self, profile_path: Path) -> Path:
        """Sidecar manifest location for a cached profile file."""
        return profile_path.with_name(profile_path.stem + _MANIFEST_SUFFIX)

    def get(
        self,
        graph: ErasureGraph,
        *,
        samples_per_k: int,
        seed: int = 0,
        exact_upto: int = 6,
        ks: Sequence[int] | None = None,
        n_jobs: int = 1,
    ) -> FailureProfile:
        """Load a cached profile or simulate and store it.

        The batch decode kernel of a cache fill is the one the graph's
        size selects.  It does **not** participate in the cache key —
        both kernels produce byte-identical profiles at the same seed —
        but its name is recorded as ``engine`` in the manifest sidecar
        so a cached number can be traced to the kernel that computed it.
        """
        reg = registry()
        path = self._path(graph, samples_per_k, seed, exact_upto, ks)
        if path.exists():
            reg.counter("cache.hits").inc()
            reg.event("cache.hit", graph=graph.name, path=str(path))
            return FailureProfile.load(path)
        reg.counter("cache.misses").inc()
        reg.event("cache.miss", graph=graph.name, path=str(path))
        config = {
            "samples_per_k": samples_per_k,
            "seed": seed,
            "exact_upto": exact_upto,
            "ks": None if ks is None else [int(k) for k in ks],
            "n_jobs": n_jobs,
        }
        manifest = RunManifest.create(
            "profile_graph",
            seed=seed,
            config=config,
            graph=graph.name,
            engine=resolve_engine(num_nodes=graph.num_nodes),
        )
        t0 = time.perf_counter()
        profile = profile_graph(
            graph,
            samples_per_k=samples_per_k,
            seed=seed,
            exact_upto=exact_upto,
            ks=ks,
            n_jobs=n_jobs,
        )
        if reg.enabled:
            reg.histogram("cache.fill_seconds").observe(
                time.perf_counter() - t0
            )
        profile.save(path)
        manifest.finish().save(self.manifest_path(path))
        return profile

    def manifest_for(
        self,
        graph: ErasureGraph,
        *,
        samples_per_k: int,
        seed: int = 0,
        exact_upto: int = 6,
        ks: Sequence[int] | None = None,
    ) -> RunManifest | None:
        """Provenance of a cached profile, if it was stored with one."""
        path = self.manifest_path(
            self._path(graph, samples_per_k, seed, exact_upto, ks)
        )
        return RunManifest.load(path) if path.exists() else None

    def clear(self) -> int:
        """Delete every cached profile; returns the number removed.

        Manifest sidecars are removed alongside their profiles but not
        counted.
        """
        removed = 0
        for path in self.root.glob("*.json"):
            path.unlink()
            if not path.name.endswith(_MANIFEST_SUFFIX):
                removed += 1
        registry().counter("cache.invalidations").inc(removed)
        return removed


def default_cache() -> ProfileCache:
    """Cache under the repository's ``benchmarks/data`` (or CWD fallback).

    Override the location with the ``REPRO_CACHE_DIR`` environment
    variable.
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return ProfileCache(env)
    here = Path(__file__).resolve()
    for parent in here.parents:
        if (parent / "pyproject.toml").exists():
            return ProfileCache(parent / "benchmarks" / "data")
    return ProfileCache(Path.cwd() / ".repro-cache")
