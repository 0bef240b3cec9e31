"""Mirrored, striped, and replicated layouts as erasure graphs.

Expressing RAID-10-style mirroring as an :class:`ErasureGraph` (each
mirror pair is a one-left constraint: ``copy = data``) lets the same
simulator that profiles Tornado graphs run on mirrored systems — the
paper's §3 verification compares those sampled results against the
closed-form mirrored failure probability and finds agreement "to at
least 9 significant digits".  Striping (no redundancy) and m-way
replication (the federation baseline) complete the family.
"""

from __future__ import annotations

from .._checks import check_count
from ..core.graph import Constraint, ErasureGraph

__all__ = ["mirrored_graph", "striped_graph", "replicated_graph"]


def mirrored_graph(num_pairs: int, name: str | None = None) -> ErasureGraph:
    """RAID-10 layout: ``num_pairs`` data nodes, each with one mirror.

    Node ``i`` holds data; node ``num_pairs + i`` is its copy.  The
    96-device configuration of the paper is ``mirrored_graph(48)``.
    """
    check_count(num_pairs, "num_pairs", 1)
    constraints = tuple(
        Constraint(check=num_pairs + i, lefts=(i,))
        for i in range(num_pairs)
    )
    return ErasureGraph(
        num_nodes=2 * num_pairs,
        data_nodes=tuple(range(num_pairs)),
        constraints=constraints,
        levels=(tuple(range(num_pairs)),),
        name=name or f"mirrored-{num_pairs}x2",
    )


def striped_graph(num_devices: int, name: str | None = None) -> ErasureGraph:
    """Striping without redundancy: every device holds unique data.

    Any single loss destroys data, which is what makes striping the
    reliability floor in the paper's Table 5.
    """
    check_count(num_devices, "num_devices", 1)
    return ErasureGraph(
        num_nodes=num_devices,
        data_nodes=tuple(range(num_devices)),
        constraints=(),
        levels=(),
        name=name or f"striped-{num_devices}",
    )


def replicated_graph(
    num_data: int, copies: int, name: str | None = None
) -> ErasureGraph:
    """``copies``-way replication: each data node has ``copies-1`` clones.

    ``replicated_graph(num_data, 2)`` equals :func:`mirrored_graph`.
    Used as the federation baseline ("Mirrored (4 copies)" in Table 7).
    """
    check_count(copies, "copies", 2)
    constraints = []
    next_id = num_data
    for c in range(copies - 1):
        for d in range(num_data):
            constraints.append(Constraint(check=next_id, lefts=(d,)))
            next_id += 1
    return ErasureGraph(
        num_nodes=num_data * copies,
        data_nodes=tuple(range(num_data)),
        constraints=tuple(constraints),
        levels=(tuple(range(len(constraints))),),
        name=name or f"replicated-{num_data}x{copies}",
    )
