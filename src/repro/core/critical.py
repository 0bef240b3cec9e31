"""Critical node sets: exact worst-case failure analysis.

Peeling a lost-node set ``M`` leaves a residual that is always a
*stopping set*: a node set ``S`` such that every constraint touching
``S`` contains at least two members of ``S`` (no constraint can make
progress).  Reconstruction of a lost set fails iff the lost set contains
a stopping set that includes a data node — a *bad* stopping set.  Two
consequences drive this module:

* the paper's **worst case failure scenario** (minimum number of lost
  nodes causing data loss) equals the size of the smallest bad stopping
  set, so it can be found by branch-and-bound instead of enumerating all
  ``(96 choose k)`` loss combinations; and
* the exact **number of failing k-sets** (the paper's "14 losses out of
  61,124,064" style counts) is the number of k-supersets of the minimal
  bad stopping sets, computable by inclusion–exclusion.

The exhaustive enumeration the paper used is also provided
(:func:`exhaustive_failing_sets`) and is cross-checked against the
branch-and-bound results in the test suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Iterable, Sequence

import numpy as np

from ..obs.registry import registry
from .decoder import make_batch_decoder
from .graph import ErasureGraph

__all__ = [
    "is_stopping_set",
    "minimal_bad_stopping_sets",
    "min_bad_stopping_set_containing",
    "first_failure",
    "count_failing_sets",
    "CountBudgetExceeded",
    "failing_set_counts",
    "exhaustive_failing_sets",
    "CriticalReport",
    "analyze_worst_case",
]


def is_stopping_set(graph: ErasureGraph, nodes: Iterable[int]) -> bool:
    """True iff ``nodes`` is a stopping set (peeling makes no progress)."""
    s = set(nodes)
    if not s:
        return True
    for con in graph.constraints:
        hit = 0
        for m in con.members():
            if m in s:
                hit += 1
                if hit >= 2:
                    break
        if hit == 1:
            return False
    return True


class _StoppingSearch:
    """Shared DFS engine for stopping-set enumeration and minimisation."""

    def __init__(self, graph: ErasureGraph):
        self.graph = graph
        self.members: list[tuple[int, ...]] = graph.constraint_members()
        self.node_cons: list[list[int]] = graph.node_constraints()
        # A violated constraint is held as ``options * num_cons + index``
        # so the minimum of a set of them is the one with fewest branch
        # options, lowest index first.
        self.code = [
            (len(m) - 1) * len(self.members) + ci
            for ci, m in enumerate(self.members)
        ]
        self.is_data = [False] * graph.num_nodes
        for d in graph.data_nodes:
            self.is_data[d] = True
        # DFS nodes visited across every enumerate() call on this
        # engine; flushed into the metrics registry by callers.
        self.nodes_expanded = 0

    # The DFS maintains S plus a per-constraint count of members in S.
    # A constraint with count exactly 1 is "violated"; a stopping set
    # must cover it with a second member.  Branching on the members of
    # one violated constraint is complete: any stopping superset must
    # include at least one of them.  The violated set is kept as S
    # changes (a count reaching 1 enters it, leaving 1 leaves it), so
    # no DFS node rescans every constraint.

    def enumerate(
        self,
        seed: int,
        max_size: int,
        forbidden: frozenset[int],
        collect: list[frozenset[int]],
        minimize: bool = False,
    ) -> None:
        """Collect stopping sets containing ``seed`` up to ``max_size``.

        In ``minimize`` mode the size bound tightens to the smallest
        *bad* (data-containing) stopping set found so far — use it only
        when the caller needs the minimum, not the full minimal family.
        """
        num_cons = len(self.members)
        cnt = [0] * num_cons
        code = self.code
        violated: set[int] = set()
        s: set[int] = set()
        visited: set[frozenset[int]] = set()
        bound = [max_size]
        data = self.is_data
        node_cons = self.node_cons

        def add(node: int) -> None:
            s.add(node)
            for ci in node_cons[node]:
                c = cnt[ci] = cnt[ci] + 1
                if c == 1:
                    violated.add(code[ci])
                elif c == 2:
                    violated.discard(code[ci])

        def remove(node: int) -> None:
            s.discard(node)
            for ci in node_cons[node]:
                c = cnt[ci] = cnt[ci] - 1
                if c == 1:
                    violated.add(code[ci])
                elif c == 0:
                    violated.discard(code[ci])

        def dfs() -> None:
            key = frozenset(s)
            if key in visited:
                return
            visited.add(key)
            self.nodes_expanded += 1
            if len(s) > bound[0]:
                return
            if not violated:
                collect.append(key)
                if minimize and any(data[n] for n in key):
                    bound[0] = min(bound[0], len(key))
                return
            if len(s) >= bound[0]:
                return  # cannot grow further
            for cand in self.members[min(violated) % num_cons]:
                if cand in s or cand in forbidden:
                    continue
                add(cand)
                dfs()
                remove(cand)

        add(seed)
        dfs()
        remove(seed)


def minimal_bad_stopping_sets(
    graph: ErasureGraph, max_size: int
) -> list[frozenset[int]]:
    """All minimal stopping sets of size <= ``max_size`` containing data.

    These are the graph's *critical node sets*: losing any superset of
    one of them loses data.  Enumeration iterates data nodes in
    increasing order, requiring each set's smallest data member to be the
    seed, so every set is produced exactly once; a final subset filter
    keeps only minimal sets.
    """
    search = _StoppingSearch(graph)
    found: list[frozenset[int]] = []
    for pos, d in enumerate(graph.data_nodes):
        smaller_data = frozenset(graph.data_nodes[:pos])
        collect: list[frozenset[int]] = []
        search.enumerate(
            seed=d,
            max_size=max_size,
            forbidden=smaller_data,
            collect=collect,
        )
        found.extend(collect)
    registry().counter("critical.nodes_expanded").inc(search.nodes_expanded)
    # Keep minimal sets only (smallest first so supersets filter cheaply).
    found.sort(key=len)
    minimal: list[frozenset[int]] = []
    for s in found:
        if not any(m <= s for m in minimal):
            minimal.append(s)
    return minimal


def min_bad_stopping_set_containing(
    graph: ErasureGraph, node: int, max_size: int
) -> frozenset[int] | None:
    """Smallest stopping set containing data node ``node``.

    Used by the federation analysis: the minimum loss making a *specific*
    data block unrecoverable at one site.  Returns ``None`` if no such
    set exists within ``max_size``.  ``node`` must be a data node: the
    DFS stops at the first stopping set on each path, which is complete
    for bad sets only when every intermediate stopping set is itself bad
    (guaranteed when the seed carries data).
    """
    if node not in set(graph.data_nodes):
        raise ValueError(f"node {node} is not a data node")
    search = _StoppingSearch(graph)
    data = set(graph.data_nodes)
    try:
        # Iterative deepening: the DFS cost explodes with the size
        # bound, so probing small bounds first makes the common case (a
        # critical set well under max_size) cheap and never searches
        # deeper than needed.
        for bound in range(2, max_size + 1):
            collect: list[frozenset[int]] = []
            search.enumerate(
                seed=node,
                max_size=bound,
                forbidden=frozenset(),
                collect=collect,
                minimize=True,
            )
            bad = [s for s in collect if s & data]
            if bad:
                return min(bad, key=len)
        return None
    finally:
        registry().counter("critical.nodes_expanded").inc(
            search.nodes_expanded
        )


def first_failure(graph: ErasureGraph, limit: int = 8) -> int | None:
    """Worst-case failure scenario: size of the smallest critical set.

    Iterative deepening keeps the search cheap when the answer is small
    (RAID-like graphs fail at 2; Tornado graphs at 4–5).  Returns ``None``
    if no bad stopping set exists within ``limit`` lost nodes.
    """
    for size in range(1, limit + 1):
        if minimal_bad_stopping_sets(graph, max_size=size):
            return size
    return None


class CountBudgetExceeded(RuntimeError):
    """Raised when inclusion–exclusion would visit too many terms."""


def _count_disjoint(
    num_nodes: int, k: int, sizes: Sequence[int]
) -> int:
    """Failing k-set count when the minimal sets are pairwise disjoint.

    The k-subsets containing *none* of disjoint sets with the given
    sizes are counted by the generating function
    ``prod_i ((1+x)^s_i - x^s_i) * (1+x)^(n - sum s_i)``; subtracting
    the coefficient of ``x^k`` from ``C(n, k)`` gives the failing count.
    Exact in Python integers.  Handles the degenerate mirrored/striped
    families (dozens of small disjoint critical sets) that would blow up
    the general recursion.
    """
    poly = [1]
    covered = 0
    for s in sizes:
        factor = [comb(s, j) for j in range(s + 1)]
        factor[s] -= 1  # forbid taking the whole set
        poly = [
            sum(
                poly[a] * factor[b]
                for a in range(len(poly))
                for b in range(len(factor))
                if a + b == c
            )
            for c in range(min(len(poly) + len(factor) - 1, k + 1))
        ]
        covered += s
    rest = num_nodes - covered
    surviving = sum(
        poly[j] * comb(rest, k - j)
        for j in range(min(len(poly), k + 1))
        if k - j <= rest
    )
    return comb(num_nodes, k) - surviving


def count_failing_sets(
    num_nodes: int,
    k: int,
    minimal_sets: Sequence[frozenset[int]],
    max_terms: int = 5_000_000,
) -> int:
    """Exact number of k-node loss sets that fail reconstruction.

    A loss set fails iff it contains at least one minimal bad stopping
    set, so the count is an inclusion–exclusion over unions of the
    minimal sets.  Recursion prunes once a union exceeds ``k`` (further
    unions only grow), which keeps the term count tiny for the sparse
    critical-set families adjusted Tornado graphs have; pairwise
    disjoint families (mirrored pairs, striped singletons) use an exact
    generating-function fast path instead.  Raises
    :class:`CountBudgetExceeded` if the recursion would exceed
    ``max_terms`` visited terms.

    Only valid for ``k`` below the size of any bad stopping set *not*
    covered by ``minimal_sets`` — i.e. ``minimal_sets`` must be complete
    up to size ``k`` (as produced by :func:`minimal_bad_stopping_sets`
    with ``max_size >= k``).
    """
    sets = sorted({s for s in minimal_sets if len(s) <= k}, key=sorted)
    if not sets:
        return 0
    if sum(len(s) for s in sets) == len(frozenset().union(*sets)):
        return _count_disjoint(num_nodes, k, [len(s) for s in sets])

    total = 0
    visited = 0

    def rec(idx: int, union: frozenset[int], parity: int) -> None:
        nonlocal total, visited
        for j in range(idx, len(sets)):
            u = union | sets[j]
            if len(u) > k:
                continue
            visited += 1
            if visited > max_terms:
                raise CountBudgetExceeded(
                    f"inclusion-exclusion exceeded {max_terms} terms"
                )
            sign = -parity
            total += sign * comb(num_nodes - len(u), k - len(u))
            rec(j + 1, u, sign)

    rec(0, frozenset(), -1)
    return total


def failing_set_counts(
    graph: ErasureGraph, max_k: int
) -> dict[int, tuple[int, int]]:
    """Exact ``k -> (failing sets, total sets)`` for ``k <= max_k``.

    This reproduces the paper's exact small-``k`` results (e.g. "exactly
    two out of 3,321,960 test cases" at k=4) without brute force.
    """
    minimal = minimal_bad_stopping_sets(graph, max_size=max_k)
    out: dict[int, tuple[int, int]] = {}
    for k in range(1, max_k + 1):
        out[k] = (
            count_failing_sets(graph.num_nodes, k, minimal),
            comb(graph.num_nodes, k),
        )
    return out


def exhaustive_failing_sets(
    graph: ErasureGraph,
    k: int,
    batch_size: int = 8192,
) -> list[tuple[int, ...]]:
    """Brute-force enumeration of all failing k-sets (paper §3 method).

    Streams ``(num_nodes choose k)`` combinations through the batch
    decoder.  Intended for cross-validation at small ``k``; the
    branch-and-bound path is the production route.
    """
    decoder = make_batch_decoder(graph)
    failing: list[tuple[int, ...]] = []
    combos = itertools.combinations(range(graph.num_nodes), k)
    while True:
        chunk = list(itertools.islice(combos, batch_size))
        if not chunk:
            break
        unknown = np.zeros((len(chunk), graph.num_nodes), dtype=bool)
        rows = np.repeat(np.arange(len(chunk)), k)
        cols = np.fromiter(
            (n for combo in chunk for n in combo),
            dtype=np.intp,
            count=len(chunk) * k,
        )
        unknown[rows, cols] = True
        ok = decoder.decode_batch(unknown)
        for i in np.flatnonzero(~ok):
            failing.append(chunk[i])
    return failing


@dataclass(frozen=True)
class CriticalReport:
    """Summary of a graph's worst-case behaviour."""

    graph_name: str
    first_failure: int | None
    minimal_sets: tuple[frozenset[int], ...]
    failing_counts: dict[int, tuple[int, int]]

    def failing_fraction(self, k: int) -> float:
        fails, total = self.failing_counts[k]
        return fails / total

    def describe(self) -> str:
        lines = [f"graph: {self.graph_name}"]
        ff = self.first_failure
        lines.append(f"first failure: {ff if ff is not None else 'none found'}")
        for k in sorted(self.failing_counts):
            fails, total = self.failing_counts[k]
            lines.append(f"  k={k}: {fails} failing of {total}")
        for s in self.minimal_sets:
            lines.append(f"  critical set: {sorted(s)}")
        return "\n".join(lines)


def analyze_worst_case(graph: ErasureGraph, max_k: int = 6) -> CriticalReport:
    """Full worst-case analysis up to ``max_k`` simultaneous losses."""
    minimal = minimal_bad_stopping_sets(graph, max_size=max_k)
    counts = {
        k: (
            count_failing_sets(graph.num_nodes, k, minimal),
            comb(graph.num_nodes, k),
        )
        for k in range(1, max_k + 1)
    }
    ff = min((len(s) for s in minimal), default=None)
    return CriticalReport(
        graph_name=graph.name,
        first_failure=ff,
        minimal_sets=tuple(minimal),
        failing_counts=counts,
    )
