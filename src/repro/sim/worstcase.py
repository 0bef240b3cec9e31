"""Worst-case search orchestration (paper §3's first test suite).

The paper detects worst-case failure scenarios "using a full
combinatorial examination of lost nodes, starting with (96 choose 1)
through (96 choose 6)" — 21 CPU-hours per graph.  The production path
here is the stopping-set search of :mod:`repro.core.critical` (exact
and roughly five orders of magnitude faster); this module packages it
with the optional exhaustive cross-check for auditability, mirroring
the paper's own verification instincts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..core.critical import (
    analyze_worst_case,
    exhaustive_failing_sets,
    minimal_bad_stopping_sets,
)
from ..core.graph import ErasureGraph
from ..obs.registry import registry

__all__ = ["WorstCaseResult", "worst_case_search", "verify_exhaustive"]


@dataclass(frozen=True)
class WorstCaseResult:
    """Outcome of a worst-case search with provenance and timing."""

    graph_name: str
    first_failure: int | None
    minimal_sets: tuple[frozenset[int], ...]
    failing_counts: dict[int, tuple[int, int]]
    search_seconds: float
    verified_upto: int

    def describe(self) -> str:
        ff = self.first_failure
        lines = [
            f"{self.graph_name}: first failure = "
            f"{ff if ff is not None else 'beyond search limit'} "
            f"({self.search_seconds:.2f}s"
            + (
                f", exhaustively verified to k={self.verified_upto})"
                if self.verified_upto
                else ")"
            )
        ]
        for k in sorted(self.failing_counts):
            fails, total = self.failing_counts[k]
            lines.append(f"  k={k}: {fails:,} failing of {total:,}")
        return "\n".join(lines)


def worst_case_search(
    graph: ErasureGraph,
    max_k: int = 6,
    verify_upto: int = 0,
) -> WorstCaseResult:
    """Exact worst-case analysis, optionally cross-checked by brute force.

    ``verify_upto`` replays the paper's combinatorial enumeration for
    ``k`` up to that bound and raises if it ever disagrees with the
    stopping-set counts — the library's equivalent of the paper's
    simulator-vs-theory validation.
    """
    reg = registry()
    expanded_before = reg.counter("critical.nodes_expanded").value
    t0 = time.perf_counter()
    report = analyze_worst_case(graph, max_k=max_k)
    elapsed = time.perf_counter() - t0
    reg.counter("worstcase.searches").inc()
    if reg.enabled:
        reg.histogram("worstcase.search_seconds").observe(elapsed)
        reg.event(
            "worstcase.search",
            graph=graph.name,
            max_k=max_k,
            first_failure=report.first_failure,
            nodes_expanded=(
                reg.counter("critical.nodes_expanded").value - expanded_before
            ),
            seconds=elapsed,
        )

    for k in range(1, min(verify_upto, max_k) + 1):
        brute = len(exhaustive_failing_sets(graph, k))
        counted = report.failing_counts[k][0]
        if brute != counted:  # pragma: no cover - correctness guard
            raise AssertionError(
                f"exhaustive k={k} found {brute} failing sets, "
                f"inclusion-exclusion predicted {counted}"
            )

    return WorstCaseResult(
        graph_name=graph.name,
        first_failure=report.first_failure,
        minimal_sets=report.minimal_sets,
        failing_counts=report.failing_counts,
        search_seconds=elapsed,
        verified_upto=verify_upto,
    )


def verify_exhaustive(graph: ErasureGraph, k: int) -> bool:
    """True iff brute force and the stopping-set search agree at ``k``."""
    minimal = minimal_bad_stopping_sets(graph, max_size=k)
    brute = exhaustive_failing_sets(graph, k)
    from ..core.critical import count_failing_sets

    return len(brute) == count_failing_sets(graph.num_nodes, k, minimal)
