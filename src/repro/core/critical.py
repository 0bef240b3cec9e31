"""Critical node sets: exact worst-case failure analysis.

Peeling a lost-node set ``M`` leaves a residual that is always a
*stopping set*: a node set ``S`` such that every constraint touching
``S`` contains at least two members of ``S`` (no constraint can make
progress).  Reconstruction of a lost set fails iff the lost set contains
a stopping set that includes a data node — a *bad* stopping set.  Two
consequences drive this module:

* the paper's **worst case failure scenario** (minimum number of lost
  nodes causing data loss) equals the size of the smallest bad stopping
  set, so it can be found by a stopping-set search instead of
  enumerating all ``(96 choose k)`` loss combinations; and
* the exact **number of failing k-sets** (the paper's "14 losses out of
  61,124,064" style counts) is the number of k-supersets of the minimal
  bad stopping sets, computable by inclusion–exclusion.

The search is level-synchronous: every candidate set of one size is a
row of packed node bits, and one level's rows grow into the next
size's in a few array passes (:class:`_LevelSearch`).

The exhaustive enumeration the paper used is also provided
(:func:`exhaustive_failing_sets`) and is cross-checked against the
stopping-set search in the test suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Iterable, Iterator, Sequence

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


#: Rows per array pass.  Bounds a level's per-constraint counts and
#: candidate temporaries to a few MB however wide the level grows.
_CHUNK = 1 << 16


class _LevelSearch:
    """Level-synchronous stopping-set search over packed node sets.

    Level ``L`` holds every set of ``L`` nodes the search reaches, one
    row of ``ceil(num_nodes / 64)`` uint64 words each, plus each row's
    member count in every constraint.  A constraint holding exactly one
    member is *violated*: any stopping superset must add a second one,
    so branching on the members of one violated constraint is complete.
    Every row branches on the same choice, the violated constraint with
    the fewest members (lowest index first), skipping members already in
    the set and data nodes ranked below the row's limit.  A child's
    counts are its parent's plus the added node's incidence row.

    Rows stay in the order a depth-first search with a visited set would
    first reach them (parent order, then member order): a child reached
    from two parents keeps its first occurrence.  So the search examines
    exactly the sets that DFS examined, and finds its stopping sets in
    the same order.
    """

    def __init__(self, graph: ErasureGraph):
        members = graph.constraint_members()
        n = graph.num_nodes
        order = sorted(
            range(len(members)), key=lambda ci: (len(members[ci]), ci)
        )
        # Constraint columns in branch order, plus one all-zero column
        # so a row that violates nothing still has an argmax.
        widest = max((len(m) for m in members), default=0)
        self.members = np.full((len(order) + 1, widest), -1, dtype=np.intp)
        self.incidence = np.zeros((n, len(order) + 1), dtype=np.uint8)
        for col, ci in enumerate(order):
            m = members[ci]
            self.members[col, : len(m)] = m
            self.incidence[list(m), col] = 1
        self.rank = np.full(n, n, dtype=np.int32)  # checks rank last
        self.rank[list(graph.data_nodes)] = np.arange(graph.num_data)
        nodes = np.arange(n)
        self.word = nodes >> 6
        self.bit = np.uint64(1) << (nodes & 63).astype(np.uint64)
        self.width = (n + 63) >> 6  # uint64 words per set

    def levels(
        self, seeds: Sequence[int], max_size: int, below_seed: bool
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield ``(words, paths)`` for the stopping sets of each size.

        Sizes run from 1 up to ``max_size``, stopping early once no set
        can grow.  ``paths[i]`` lists stopping set ``i``'s members in the
        order the search added them, seed first.  With ``below_seed`` no
        set takes a data node ranked below its seed, so each set is
        found from its smallest data member only.  Every set examined is
        counted into ``critical.nodes_expanded``.
        """
        seeds = np.asarray(seeds, dtype=np.int32)
        expanded = registry().counter("critical.nodes_expanded")
        words = np.zeros((len(seeds), self.width), dtype=np.uint64)
        words[np.arange(len(seeds)), self.word[seeds]] = self.bit[seeds]
        limit = self.rank[seeds] if below_seed else np.zeros_like(seeds)
        # A row's counts are base[src] + incidence[added]; level 1 adds
        # nothing to its seed's incidence row.
        base, src, added = self.incidence, seeds, None
        trail: list[tuple[np.ndarray, np.ndarray]] = []  # (parent, added)
        for size in itertools.count(1):
            expanded.inc(len(words))
            if size > max_size or not len(words):
                return
            grow = size < max_size
            stop, parent, node, src, base = self._branch(
                words, limit, base, src, added, grow
            )
            yield words[stop], self._paths(stop, seeds, trail)
            if not grow:
                return
            words, keep = self._children(words, parent, node)
            parent, added, src = parent[keep], node[keep], src[keep]
            limit = limit[parent]
            trail.append((parent, added))

    def _branch(self, words, limit, base, src, added, grow):
        """One pass over a level, ``_CHUNK`` rows at a time.

        Returns the stopping rows and, when ``grow``, every child as
        ``(parent row, added node, row of its parent's counts)`` plus
        those counts, which the live rows alone keep.
        """
        stop, parents, nodes, srcs, live_counts = [], [], [], [], []
        num_live = 0
        for a in range(0, len(words), _CHUNK):
            counts = base[src[a : a + _CHUNK]]
            if added is not None:
                counts += self.incidence[added[a : a + _CHUNK]]
            violated = counts == 1
            first = violated.argmax(axis=1)
            live = violated[np.arange(len(first)), first]
            stop.append(a + np.flatnonzero(~live))
            if not grow:
                continue
            par = np.flatnonzero(live)
            cand = self.members[first[par]]
            safe = np.maximum(cand, 0)
            held = words[(a + par)[:, None], self.word[safe]]
            ok = (
                (cand >= 0)
                & ((held & self.bit[safe]) == 0)
                & (self.rank[safe] >= limit[a + par][:, None])
            )
            pi, ki = np.nonzero(ok)
            parents.append(a + par[pi])
            nodes.append(cand[pi, ki])
            srcs.append(num_live + pi)
            live_counts.append(counts[par])
            num_live += len(par)
        if not grow:
            return np.concatenate(stop), None, None, None, None
        return (
            np.concatenate(stop),
            np.concatenate(parents, dtype=np.int32),
            np.concatenate(nodes, dtype=np.int32),
            np.concatenate(srcs, dtype=np.int32),
            np.concatenate(live_counts),
        )

    def _children(self, words, parent, node):
        """Distinct children in first-occurrence order, and their indices."""
        child = words[parent]
        child[np.arange(len(node)), self.word[node]] |= self.bit[node]
        keep = _first_occurrences(child)
        return child[keep], keep

    @staticmethod
    def _paths(
        rows: np.ndarray,
        seeds: np.ndarray,
        trail: list[tuple[np.ndarray, np.ndarray]],
    ) -> np.ndarray:
        """Members of level rows in the order they were added."""
        paths = np.empty((len(rows), len(trail) + 1), dtype=np.intp)
        for col in range(len(trail), 0, -1):
            parent, added = trail[col - 1]
            paths[:, col] = added[rows]
            rows = parent[rows]
        paths[:, 0] = seeds[rows]
        return paths


def _first_occurrences(rows: np.ndarray) -> np.ndarray:
    """Indices of the first occurrence of each distinct row, in order."""
    order = np.lexsort(rows.T)  # stable: equal rows keep index order
    first = np.zeros(len(order), dtype=bool)
    first[:1] = True
    for column in rows.T:
        ranked = column[order]
        first[1:] |= ranked[1:] != ranked[:-1]
    return np.sort(order[first])


def _contains_any(sets: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """Mask of the rows of ``sets`` that contain some row of ``subsets``."""
    out = np.zeros(len(sets), dtype=bool)
    if not len(subsets):
        return out
    step = max(1, _CHUNK * 16 // (len(subsets) * sets.shape[1]))
    for a in range(0, len(sets), step):
        block = sets[a : a + step, None, :]
        out[a : a + step] = (
            ((subsets[None] & ~block) == 0).all(axis=2).any(axis=1)
        )
    return out


def _as_set(path: Sequence[int]) -> frozenset[int]:
    # A frozenset's iteration order depends on how it was built, and
    # adjust_graph's tie-breaks read it: members go in the order the
    # search added them, seed first, and are copied through a set.
    return frozenset(set(path))


def minimal_bad_stopping_sets(
    graph: ErasureGraph, max_size: int
) -> list[frozenset[int]]:
    """All minimal stopping sets of size <= ``max_size`` containing data.

    These are the graph's *critical node sets*: losing any superset of
    one of them loses data.  Every data node seeds the search, and no
    set takes a data node below its seed, so every set is produced
    exactly once, from its smallest data member.  Sets come smallest
    first, by seed within a size; one that contains an earlier set is
    dropped, so only minimal sets remain.
    """
    search = _LevelSearch(graph)
    kept = np.zeros((0, search.width), dtype=np.uint64)
    minimal: list[frozenset[int]] = []
    for words, paths in search.levels(
        graph.data_nodes, max_size, below_seed=True
    ):
        fresh = ~_contains_any(words, kept)
        kept = np.concatenate([kept, words[fresh]])
        minimal.extend(_as_set(p) for p in paths[fresh].tolist())
    return minimal


def min_bad_stopping_set_containing(
    graph: ErasureGraph, node: int, max_size: int
) -> frozenset[int] | None:
    """Smallest stopping set containing data node ``node``.

    Used by the federation analysis: the minimum loss making a *specific*
    data block unrecoverable at one site.  Returns ``None`` if no such
    set exists within ``max_size``.  The search grows sets one node at a
    time from ``{node}`` and stops at the first size holding a stopping
    set.  ``node`` must be a data node: a set stops growing once it is
    a stopping set, which is complete for bad sets only when every
    stopping set on the way is itself bad (guaranteed when the seed
    carries data).
    """
    if node not in set(graph.data_nodes):
        raise ValueError(f"node {node} is not a data node")
    search = _LevelSearch(graph)
    for _words, paths in search.levels((node,), max_size, below_seed=False):
        if len(paths):
            return _as_set(paths[0].tolist())
    return None


def first_failure(graph: ErasureGraph, limit: int = 8) -> int | None:
    """Worst-case failure scenario: size of the smallest critical set.

    One search that stops at the first size holding a bad stopping set
    (RAID-like graphs fail at 2; Tornado graphs at 4–5).  Returns
    ``None`` if no bad stopping set exists within ``limit`` lost nodes.
    """
    search = _LevelSearch(graph)
    levels = search.levels(graph.data_nodes, limit, below_seed=True)
    for size, (words, _paths) in enumerate(levels, start=1):
        if len(words):
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
    stopping-set search is the production route.
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
