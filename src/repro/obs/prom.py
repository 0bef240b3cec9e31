"""Prometheus text-format rendering of registry snapshots.

Turns any :meth:`~repro.obs.registry.MetricsRegistry.snapshot` into the
Prometheus exposition format (version 0.0.4) so a running service — or
a finished run's ``metrics_summary`` event — can be scraped or pushed
without adding a client-library dependency:

* counters render as ``counter`` samples,
* gauges as ``gauge`` samples,
* histograms as native Prometheus histograms: cumulative ``_bucket``
  series with ``le`` labels taken from the log-spaced bucket bounds
  (:func:`~repro.obs.registry.bucket_upper_bound`), plus ``_sum`` and
  ``_count``.

Dotted metric names become underscore-separated (``serve.batch_size``
→ ``repro_serve_batch_size``).  Every tier serves its snapshot as
``metrics.snapshot``; :meth:`repro.ArchiveClient.metrics` renders it.

Dynamic-suffix families are folded into labels: the cluster and sites
layers mint names like ``cluster.repair.bytes.node-1`` and
``sites.wan.bytes.site-0`` (one name per node/site), which would mint
one Prometheus *metric* per fleet member — a cardinality trap and
unjoinable in PromQL.  :data:`LABELED_FAMILIES` maps such prefixes to
a label name, so every member renders as one metric family with a
``node=`` / ``site=`` / ``target=`` label instead.  A warn-once guard
fires past :data:`MAX_SERIES` distinct series as a tripwire for new
unlabelled dynamic names.
"""

from __future__ import annotations

import math
import re
import warnings
from typing import Any, Mapping

from .registry import bucket_upper_bound

__all__ = ["LABELED_FAMILIES", "MAX_SERIES", "render_prometheus"]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")

# family name (dotted) → label key for the dynamic suffix.  Longest
# prefix wins, so "sites.wan.bytes" beats a hypothetical "sites.wan".
LABELED_FAMILIES: dict[str, str] = {
    "cluster.repair.bytes": "node",
    "sites.wan.bytes": "site",
    "up": "target",
    "node.available": "node",
    "node.partitioned": "node",
    "node.slow_seconds": "node",
    "node.outage_remaining": "node",
    "node.outages_drawn": "node",
    "node.blocks": "node",
    "node.bytes_stored": "node",
}

MAX_SERIES = 1000

_warned_cardinality = False


def _metric_name(name: str, prefix: str) -> str:
    name = _NAME_RE.sub("_", prefix + name)
    if name and name[0].isdigit():
        name = "_" + name
    return name


def _split_labeled(name: str) -> tuple[str, str | None, str | None]:
    """(family, label key, label value) for dynamic-suffix names.

    ``cluster.repair.bytes.node-1`` → ``("cluster.repair.bytes",
    "node", "node-1")``; names that are a family verbatim, or match no
    family, come back unlabelled.
    """
    for family in sorted(LABELED_FAMILIES, key=len, reverse=True):
        if name.startswith(family + "."):
            return family, LABELED_FAMILIES[family], name[len(family) + 1:]
    return name, None, None


def _fmt(value: float) -> str:
    """Prometheus sample value: integers stay integral, inf is +Inf."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    f = float(value)
    if f.is_integer() and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _scalar_lines(
    items: Mapping[str, Any],
    prefix: str,
    kind: str,
    name_suffix: str = "",
) -> tuple[list[str], int]:
    """Render counters/gauges, folding labelled families together."""
    plain: dict[str, float] = {}
    labelled: dict[str, tuple[str, dict[str, float]]] = {}
    for name, value in items.items():
        family, label, member = _split_labeled(name)
        if label is None:
            plain[name] = value
        else:
            labelled.setdefault(family, (label, {}))[1][member] = value
    lines: list[str] = []
    series = 0
    for name in sorted(set(plain) | set(labelled)):
        metric = _metric_name(name, prefix) + name_suffix
        lines.append(f"# TYPE {metric} {kind}")
        if name in plain:
            lines.append(f"{metric} {_fmt(float(plain[name]))}")
            series += 1
        if name in labelled:
            label, members = labelled[name]
            for member in sorted(members):
                lines.append(
                    f'{metric}{{{label}="{_escape_label(member)}"}} '
                    f"{_fmt(float(members[member]))}"
                )
                series += 1
    return lines, series


def _histogram_lines(name: str, summary: Mapping[str, Any]) -> list[str]:
    lines = [f"# TYPE {name} histogram"]
    count = int(summary.get("count", 0))
    buckets = summary.get("buckets", {}) or {}
    bounds = sorted(
        (bucket_upper_bound(key), int(n)) for key, n in buckets.items()
    )
    cum = 0
    for upper, n in bounds:
        cum += n
        lines.append(f'{name}_bucket{{le="{_fmt(upper)}"}} {cum}')
    # +Inf uses the full observation count: legacy summaries carry no
    # buckets, and non-finite observations are counted but unbucketed.
    lines.append(f'{name}_bucket{{le="+Inf"}} {count}')
    total = summary.get("total", 0.0)
    lines.append(f"{name}_sum {_fmt(float(total))}")
    lines.append(f"{name}_count {count}")
    return lines


def render_prometheus(
    snapshot: Mapping[str, Any], prefix: str = "repro_"
) -> str:
    """Render a registry snapshot in Prometheus text format.

    ``snapshot`` is the dict shape produced by
    :meth:`~repro.obs.registry.MetricsRegistry.snapshot` (also embedded
    in ``metrics_summary`` events and service ``stats()`` responses).
    Unknown keys are ignored, so service stats dicts render directly.
    """
    global _warned_cardinality
    lines: list[str] = []
    counter_lines, series = _scalar_lines(
        snapshot.get("counters", {}), prefix, "counter", "_total"
    )
    lines.extend(counter_lines)
    gauge_lines, gauge_series = _scalar_lines(
        snapshot.get("gauges", {}), prefix, "gauge"
    )
    lines.extend(gauge_lines)
    series += gauge_series
    for name, summary in sorted(snapshot.get("histograms", {}).items()):
        rendered = _histogram_lines(_metric_name(name, prefix), summary)
        lines.extend(rendered)
        series += len(rendered) - 1
    if series > MAX_SERIES and not _warned_cardinality:
        _warned_cardinality = True
        warnings.warn(
            f"rendering {series} Prometheus series (> {MAX_SERIES}); "
            "a dynamic-suffix metric family probably needs an entry in "
            "repro.obs.prom.LABELED_FAMILIES",
            RuntimeWarning,
            stacklevel=2,
        )
    return "\n".join(lines) + "\n" if lines else ""
