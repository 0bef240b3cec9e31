"""Structural defect detection for freshly generated graphs (paper §3.2).

Randomly constructed Tornado graphs occasionally contain small closed
left/right node sets — e.g. two left nodes whose redundancy lives in
exactly the same two right nodes, so losing both left nodes is
unrecoverable no matter how many other blocks survive.  The paper screens
for "two- and three-node overlapping sets" during generation and discards
graphs that fail.

Here the screen is exact: a defect of size ``s`` is precisely a bad
stopping set of size ``s``, so the stopping-set enumeration from
:mod:`repro.core.critical` finds *all* small defects, not just the
pattern-matched ones.  A direct pattern scan for the paper's two-node
case is also provided because it names the defect in the paper's own
terms (and is used in tests to validate the general machinery).
"""

from __future__ import annotations

from dataclasses import dataclass

from .critical import minimal_bad_stopping_sets
from .graph import ErasureGraph

__all__ = [
    "Defect",
    "find_defects",
    "has_defects",
    "shared_right_set_pairs",
]

DEFAULT_DEFECT_SIZE = 3


@dataclass(frozen=True)
class Defect:
    """A small critical node set that caps the graph's fault tolerance."""

    nodes: frozenset[int]

    @property
    def size(self) -> int:
        return len(self.nodes)

    def __str__(self) -> str:
        return f"defect{sorted(self.nodes)}"


def find_defects(
    graph: ErasureGraph, max_size: int = DEFAULT_DEFECT_SIZE
) -> list[Defect]:
    """All minimal critical sets of size <= ``max_size``."""
    return [
        Defect(nodes=s)
        for s in minimal_bad_stopping_sets(graph, max_size=max_size)
    ]


def has_defects(
    graph: ErasureGraph, max_size: int = DEFAULT_DEFECT_SIZE
) -> bool:
    """True iff the graph fails with ``max_size`` or fewer lost nodes."""
    return bool(minimal_bad_stopping_sets(graph, max_size=max_size))


def shared_right_set_pairs(graph: ErasureGraph) -> list[tuple[int, int]]:
    """Pairs of left nodes with identical right-node sets (paper's example).

    The paper's most egregious defect: ``17 [48, 57] / 22 [48, 57]`` —
    two data nodes protected by exactly the same check nodes.  Losing
    both is unrecoverable, making the worst case failure scenario two.
    """
    rights_of: dict[int, set[int]] = {d: set() for d in graph.data_nodes}
    for con in graph.constraints:
        for l in con.lefts:
            if l in rights_of:
                rights_of[l].add(con.check)
    by_signature: dict[frozenset[int], list[int]] = {}
    for node, rights in rights_of.items():
        by_signature.setdefault(frozenset(rights), []).append(node)
    pairs: list[tuple[int, int]] = []
    for group in by_signature.values():
        if len(group) >= 2:
            group = sorted(group)
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    pairs.append((group[i], group[j]))
    return pairs
