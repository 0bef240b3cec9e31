"""Erasure-graph model shared by every coding scheme in this package.

The paper's systems — Tornado Code cascades, regular single-stage LDPC
graphs, fixed-degree cascaded random graphs, mirrored arrays — are all
systems of XOR parity constraints over a fixed set of *nodes* (storage
blocks, one per device in the 96-device analysis).  Each constraint says

    value(check) = XOR of value(left) for every left neighbour,

equivalently the XOR over ``{check} | lefts`` is zero.  Erasure decoding,
worst-case (critical set) analysis and the storage codec all operate on
this representation, so it lives in one place.

Node ids are dense integers ``0 .. num_nodes-1``.  ``data_nodes`` are the
nodes holding original data (level-0 left nodes); every other node is a
check node and appears as the ``check`` of exactly one constraint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "Constraint",
    "ErasureGraph",
    "GraphValidationError",
]


class GraphValidationError(ValueError):
    """Raised when an :class:`ErasureGraph` is structurally inconsistent."""


@dataclass(frozen=True)
class Constraint:
    """One XOR parity equation: ``check = XOR(lefts)``.

    ``check`` is the node storing the parity value; ``lefts`` are the node
    ids XORed together to produce it.  The *members* of the constraint are
    ``{check} | set(lefts)``: if exactly one member is unknown it can be
    recovered from the others, which is the single rule behind Tornado
    peeling decoding (recover a missing left from a complete check, or
    recompute a missing check from complete lefts).
    """

    check: int
    lefts: tuple[int, ...]

    def members(self) -> tuple[int, ...]:
        """All node ids participating in this equation (check first)."""
        return (self.check, *self.lefts)

    def __len__(self) -> int:
        return 1 + len(self.lefts)


@dataclass(frozen=True)
class ErasureGraph:
    """An erasure-coding scheme as a set of XOR constraints.

    Parameters
    ----------
    num_nodes:
        Total number of storage nodes (data + check).
    data_nodes:
        Ids of the nodes carrying original data.
    constraints:
        The parity equations.  Every non-data node must be the ``check``
        of exactly one constraint (that is how its stored value is
        defined); data nodes must never be a ``check``.
    levels:
        Optional cascade metadata: ``levels[i]`` is the tuple of indices
        into ``constraints`` whose checks belong to cascade level ``i+1``.
        Encoding evaluates levels in order so that every constraint's
        lefts are already known when its check is computed.  Single-stage
        graphs have one level.
    name:
        Human-readable label used in reports and GraphML output.
    """

    num_nodes: int
    data_nodes: tuple[int, ...]
    constraints: tuple[Constraint, ...]
    levels: tuple[tuple[int, ...], ...] = ()
    name: str = "erasure-graph"

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def __post_init__(self) -> None:
        object.__setattr__(self, "data_nodes", tuple(sorted(self.data_nodes)))
        object.__setattr__(
            self, "constraints", tuple(self.constraints)
        )
        if not self.levels and self.constraints:
            object.__setattr__(
                self, "levels", (tuple(range(len(self.constraints))),)
            )
        self.validate()

    def validate(self) -> None:
        """Check structural invariants; raise :class:`GraphValidationError`."""
        n = self.num_nodes
        if n <= 0:
            raise GraphValidationError("num_nodes must be positive")
        if not self.data_nodes:
            raise GraphValidationError("graph needs at least one data node")
        data = set(self.data_nodes)
        if min(self.data_nodes) < 0 or max(self.data_nodes) >= n:
            raise GraphValidationError("data node id out of range")
        if len(data) != len(self.data_nodes):
            raise GraphValidationError("duplicate data node ids")

        seen_checks: set[int] = set()
        for idx, con in enumerate(self.constraints):
            if not con.lefts:
                raise GraphValidationError(f"constraint {idx} has no lefts")
            if con.check in data:
                raise GraphValidationError(
                    f"constraint {idx}: data node {con.check} used as check"
                )
            if con.check in seen_checks:
                raise GraphValidationError(
                    f"node {con.check} is the check of two constraints"
                )
            seen_checks.add(con.check)
            mem = con.members()
            if min(mem) < 0 or max(mem) >= n:
                raise GraphValidationError(f"constraint {idx}: id out of range")
            if len(set(con.lefts)) != len(con.lefts):
                raise GraphValidationError(
                    f"constraint {idx}: duplicate left {con.lefts}"
                )
            if con.check in con.lefts:
                raise GraphValidationError(
                    f"constraint {idx}: check {con.check} is its own left"
                )

        expected_checks = set(range(n)) - data
        if seen_checks != expected_checks:
            missing = sorted(expected_checks - seen_checks)
            raise GraphValidationError(
                f"check nodes without defining constraint: {missing[:8]}"
            )

        if self.levels:
            flat = [i for lev in self.levels for i in lev]
            if sorted(flat) != list(range(len(self.constraints))):
                raise GraphValidationError(
                    "levels must partition the constraint index set"
                )
            # Encoding order: a constraint's lefts must be defined before
            # its own level (data nodes, or checks of earlier levels).
            defined = set(self.data_nodes)
            for lev in self.levels:
                for i in lev:
                    con = self.constraints[i]
                    bad = [l for l in con.lefts if l not in defined]
                    if bad:
                        raise GraphValidationError(
                            f"constraint {i} uses undefined lefts {bad[:4]}"
                        )
                defined.update(self.constraints[i].check for i in lev)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    @property
    def check_nodes(self) -> tuple[int, ...]:
        """Node ids that store parity (everything that is not data)."""
        data = set(self.data_nodes)
        return tuple(i for i in range(self.num_nodes) if i not in data)

    @property
    def num_data(self) -> int:
        return len(self.data_nodes)

    @property
    def num_checks(self) -> int:
        return self.num_nodes - len(self.data_nodes)

    @property
    def num_edges(self) -> int:
        """Total left-to-check edges across all constraints."""
        return sum(len(c.lefts) for c in self.constraints)

    def average_left_degree(self) -> float:
        """Mean number of constraints each level-0 data node feeds.

        The paper reports an average degree of ~3.6 for its Tornado
        graphs; this metric makes the generated graphs comparable.
        """
        counts = np.zeros(self.num_nodes, dtype=np.int64)
        for con in self.constraints:
            for l in con.lefts:
                counts[l] += 1
        data = np.asarray(self.data_nodes, dtype=np.int64)
        return float(counts[data].mean())

    def constraint_members(self) -> list[tuple[int, ...]]:
        """Member tuples of every constraint (check first)."""
        return [c.members() for c in self.constraints]

    def node_constraints(self) -> list[list[int]]:
        """For each node, the indices of constraints it participates in."""
        table: list[list[int]] = [[] for _ in range(self.num_nodes)]
        for ci, con in enumerate(self.constraints):
            for node in con.members():
                table[node].append(ci)
        return table

    # ------------------------------------------------------------------
    # Mutation-by-copy
    # ------------------------------------------------------------------

    def with_constraints(
        self, constraints: Sequence[Constraint], name: str | None = None
    ) -> "ErasureGraph":
        """Copy of this graph with a replaced constraint list.

        Levels are remapped positionally, so the replacement list must
        keep the original ordering/length (used by the §3.3 rewiring
        adjustment, which only edits edge sets inside constraints).
        """
        if len(constraints) != len(self.constraints):
            raise GraphValidationError(
                "with_constraints requires an equal-length constraint list"
            )
        return ErasureGraph(
            num_nodes=self.num_nodes,
            data_nodes=self.data_nodes,
            constraints=tuple(constraints),
            levels=self.levels,
            name=name if name is not None else self.name,
        )

    def renamed(self, name: str) -> "ErasureGraph":
        return ErasureGraph(
            num_nodes=self.num_nodes,
            data_nodes=self.data_nodes,
            constraints=self.constraints,
            levels=self.levels,
            name=name,
        )

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------

    def __iter__(self) -> Iterator[Constraint]:
        return iter(self.constraints)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ErasureGraph(name={self.name!r}, nodes={self.num_nodes}, "
            f"data={self.num_data}, constraints={len(self.constraints)}, "
            f"edges={self.num_edges})"
        )


def edge_list(graph: ErasureGraph) -> list[tuple[int, int]]:
    """All (left, check) edges of the graph, in constraint order."""
    return [(l, c.check) for c in graph.constraints for l in c.lefts]
