"""Shared fixtures for the experiment benchmark harness.

Every bench regenerates one of the paper's tables or figures.  The
expensive shared input — Monte Carlo failure profiles of the twelve
96-node systems — is simulated once per configuration and cached as
JSON under ``benchmarks/data`` (see :mod:`repro.analysis.cache`).

Fidelity is controlled by ``REPRO_BENCH_SAMPLES`` (samples per offline
count; default 4000 keeps the whole suite to a few minutes; the paper
used ~10-34 million per point over 34 CPU-days).  Rendered tables are
written to ``benchmarks/results/`` so they survive pytest's output
capture and can be diffed against EXPERIMENTS.md.

Every bench runs under a scoped :mod:`repro.obs` metrics registry; the
per-bench snapshots (decode throughput counters, cache hits, search
timings) are collected into ``benchmarks/results/metrics_summary.json``
at session end, beside the rendered ``.txt`` results they explain.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import default_cache
from repro.graphs import catalog_96_node_systems
from repro.obs import MetricsRegistry, capture
from repro.sim import FailureProfile

from _bench_utils import BENCH_SAMPLES, RESULTS_DIR

_METRICS_BY_BENCH: dict[str, dict] = {}


@pytest.fixture(autouse=True)
def _bench_metrics(request):
    """Collect instrumentation for each bench into the session summary."""
    with capture(MetricsRegistry()) as reg:
        yield
    snap = reg.snapshot()
    if snap["counters"] or snap["gauges"] or snap["histograms"]:
        _METRICS_BY_BENCH[request.node.nodeid] = snap


def pytest_sessionfinish(session, exitstatus):
    if not _METRICS_BY_BENCH:
        return
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out = RESULTS_DIR / "metrics_summary.json"
    out.write_text(
        json.dumps(_METRICS_BY_BENCH, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


@pytest.fixture(scope="session")
def cache():
    return default_cache()


@pytest.fixture(scope="session")
def systems():
    """The twelve 96-node graphs of the paper's comparisons."""
    return catalog_96_node_systems()


@pytest.fixture(scope="session")
def profile_of(cache, systems):
    """Callable returning the cached failure profile of a catalog system."""

    def get(label: str, samples: int = BENCH_SAMPLES) -> FailureProfile:
        graph = systems[label]
        prof = cache.get(graph, samples_per_k=samples, seed=0)
        # Carry the catalog label (graph names differ, e.g. seeds).
        return FailureProfile(
            system_name=label,
            num_devices=prof.num_devices,
            num_data=prof.num_data,
            fail_fraction=prof.fail_fraction,
            samples=prof.samples,
        )

    return get
