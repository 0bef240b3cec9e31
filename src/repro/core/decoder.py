"""Peeling (iterative erasure) decoding for :class:`ErasureGraph`.

Tornado decoding repeatedly applies one rule: *if a parity constraint has
exactly one unknown member, solve for it*.  This covers both directions
the paper describes — recovering a missing left node from a check node
with one missing left neighbour, and recomputing a missing check node
whose left set is complete.  Decoding succeeds when every data node is
known.  The set of nodes still unknown at the fixpoint is the *residual*;
residuals are exactly the graph's stopping sets, which is what makes the
worst-case analysis in :mod:`repro.core.critical` exact.

One scalar decoder and two batch kernels apply that rule:

* :class:`PeelingDecoder` — scalar, counter-based, O(edges) per case with
  no per-case allocation beyond small lists.  Used by exhaustive search,
  the codec, and anywhere a recovery *schedule* is needed; the reference
  the batch kernels are tested against case for case.
* :class:`~repro.core.bitdecoder.BitsetBatchDecoder` — the **bitset**
  kernel: packs 64 cases per ``uint64`` word and peels with bitwise
  sweeps over per-constraint bit-planes, one constraint at a time while
  a call is wide and all constraints at once below that (see
  :mod:`repro.core.bitdecoder`).  Fastest on the paper's 96-node graphs.
* :class:`~repro.core.sparse.SparseBitsetDecoder` — the **sparse**
  kernel: the same packing and the same fixpoint loop, over one block
  of constraints per cascade level with planes bounded in ``chunk``
  rows (see :mod:`repro.core.sparse`), scaling to 2^20-node graphs.
  Fastest from 2^14 nodes up.

Batch callers do not pick a class: :func:`make_batch_decoder` is the
one place a kernel is chosen, and it chooses from the graph alone —
bitset below ``_SPARSE_AUTO_MIN_NODES`` nodes, sparse at or above it and
for every :class:`~repro.core.csrgraph.CsrGraph`.  Each kernel wins the
benchmark workload on its side of that line (docs/PERF.md), both return
identical success vectors and identical Monte Carlo profiles at the
same seed, and nothing above :mod:`repro.core` and the estimators of
:mod:`repro.sim.montecarlo` takes a kernel name.  The ``engine=``
keyword those keep exists so the differential tests can pin each kernel
on the same graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from .bitdecoder import BitsetBatchDecoder
from .graph import ErasureGraph
from .sparse import SparseBitsetDecoder

__all__ = [
    "DecodeResult",
    "PeelingDecoder",
    "BitsetBatchDecoder",
    "SparseBitsetDecoder",
    "DECODE_ENGINES",
    "resolve_engine",
    "make_batch_decoder",
]

# ``engine="auto"`` switches from the bitset block lists to the sparse
# kernel's level blocks at this node count: below it the bitset
# kernel's serial sweeps and one-block rounds win; above it a sweep's
# one numpy call per member row and a round's planes over every
# constraint cost more than level sweeps.  Module-level so tests can
# lower it to exercise the boundary.
_SPARSE_AUTO_MIN_NODES = 1 << 14

_KERNELS = {"bitset": BitsetBatchDecoder, "sparse": SparseBitsetDecoder}

#: The batch kernels ``engine=`` can pin (``"auto"`` picks by size).
DECODE_ENGINES = tuple(_KERNELS)


def resolve_engine(
    engine: str | None = "auto", *, num_nodes: int | None = None
) -> str:
    """Resolve an ``engine=`` argument to a concrete batch kernel name.

    An explicit kernel name is returned as is; ``"auto"`` (or ``None``)
    is decided by graph size alone: sparse for graphs with at least
    ``_SPARSE_AUTO_MIN_NODES`` nodes (when ``num_nodes`` is given), else
    bitset.  Raises ``ValueError`` for any other name.
    """
    if engine is None or engine == "auto":
        if num_nodes is not None and num_nodes >= _SPARSE_AUTO_MIN_NODES:
            return "sparse"
        return "bitset"
    if engine not in DECODE_ENGINES:
        raise ValueError(
            f"unknown decode engine {engine!r}: expected 'auto' or one "
            f"of {DECODE_ENGINES}"
        )
    return engine


def make_batch_decoder(
    graph, engine: str = "auto"
) -> BitsetBatchDecoder | SparseBitsetDecoder:
    """Build the batch decode kernel for ``graph``.

    The single entry point every batch caller (Monte Carlo, exhaustive
    checks, federation, overhead, serve, cluster) goes through, and the
    only place a kernel is chosen.  Accepts an :class:`ErasureGraph` or
    a :class:`~repro.core.csrgraph.CsrGraph`; a CSR graph always gets
    the sparse kernel (the one whose level blocks and word ranges suit
    the graphs CSR is built for), so pinning ``engine="bitset"`` on one
    is a ``ValueError``.  The returned
    decoder's ``engine`` attribute names the kernel that was built.
    """
    is_csr = hasattr(graph, "con_indptr")
    if is_csr and engine in (None, "auto"):
        engine = "sparse"
    engine = resolve_engine(engine, num_nodes=graph.num_nodes)
    if is_csr and engine != "sparse":
        raise ValueError(
            f"engine {engine!r} is not built for a CsrGraph: every "
            "CsrGraph gets the sparse kernel; pass engine='auto', or "
            "convert via to_graph()."
        )
    return _KERNELS[engine](graph)


def _evaluate_headroom(decoder, stripes):
    """Decode a single-failure what-if probe and read off its answers.

    Each of ``stripes`` is ``(label, owners, erased)``: a ``(name,
    index)`` label, the device or node holding each position, and the
    positions lost now.  One batch decode covers every stripe's current
    state plus, per owner still holding a position, the state after
    that owner fails too.  Returns ``(cases, base_ok, at_risk,
    failing_now)``: the number of cases decoded, current decodability
    per label, the sorted owners whose failure breaks a stripe
    decodable today, and the sorted ``"name/index"`` of stripes already
    lost.  Shared by the service's and the cluster coordinator's
    headroom probes.
    """
    cases: list[list[int]] = []
    meta: list[tuple[tuple[str, int], Any]] = []
    for label, owners, erased in stripes:
        lost = set(erased)
        held: dict[Any, list[int]] = {}
        for position, owner in enumerate(owners):
            if position not in lost:
                held.setdefault(owner, []).append(position)
        for culprit, extra in [(None, []), *held.items()]:
            cases.append([*erased, *extra])
            meta.append((label, culprit))
    ok = (
        decoder.decode_missing_sets(cases)
        if cases
        else np.zeros(0, dtype=bool)
    )
    base_ok = {
        label: bool(good)
        for (label, culprit), good in zip(meta, ok)
        if culprit is None
    }
    at_risk = {
        culprit
        for (label, culprit), good in zip(meta, ok)
        if culprit is not None and base_ok[label] and not good
    }
    failing_now = sorted(
        f"{name}/{index}"
        for (name, index), good in base_ok.items()
        if not good
    )
    return len(cases), base_ok, sorted(at_risk), failing_now


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of peeling one erasure pattern.

    ``steps`` is the recovery schedule: ``(constraint_index, node)`` pairs
    in the order nodes were solved.  Replaying the schedule with XOR on
    real block contents is exactly data reconstruction (see
    :mod:`repro.core.codec`).  ``residual`` holds the nodes that remained
    unknown; ``success`` is true iff no *data* node is in the residual.
    """

    success: bool
    steps: tuple[tuple[int, int], ...]
    residual: frozenset[int]

    @property
    def recovered(self) -> tuple[int, ...]:
        return tuple(node for _, node in self.steps)


class PeelingDecoder:
    """Scalar peeling decoder with preprocessed incidence structure."""

    def __init__(self, graph: ErasureGraph):
        self.graph = graph
        self._members: list[tuple[int, ...]] = graph.constraint_members()
        self._node_cons: list[tuple[int, ...]] = [
            tuple(cs) for cs in graph.node_constraints()
        ]
        self._is_data = np.zeros(graph.num_nodes, dtype=bool)
        self._is_data[list(graph.data_nodes)] = True
        # Work arrays reused across calls (reset via touched lists).
        self._cnt = [0] * len(graph.constraints)
        self._known = [True] * graph.num_nodes

    # ------------------------------------------------------------------

    def is_recoverable(self, missing: Iterable[int]) -> bool:
        """True iff all data nodes can be recovered with ``missing`` lost.

        Fast path used inside combinatorial searches: identical peeling
        to :meth:`decode` but without building the result object.
        """
        cnt = self._cnt
        known = self._known
        node_cons = self._node_cons
        members = self._members

        missing_list = [m for m in missing]
        touched_nodes: list[int] = []
        touched_cons: list[int] = []
        unknown_data = 0
        for m in missing_list:
            if not known[m]:
                continue
            known[m] = False
            touched_nodes.append(m)
            if self._is_data[m]:
                unknown_data += 1
            for ci in node_cons[m]:
                if cnt[ci] == 0:
                    touched_cons.append(ci)
                cnt[ci] += 1

        stack = [ci for ci in touched_cons if cnt[ci] == 1]
        while stack and unknown_data:
            ci = stack.pop()
            if cnt[ci] != 1:
                continue
            # locate the single unknown member
            node = -1
            for m in members[ci]:
                if not known[m]:
                    node = m
                    break
            if node < 0:  # already solved via another constraint
                continue
            known[node] = True
            if self._is_data[node]:
                unknown_data -= 1
            for cj in node_cons[node]:
                cnt[cj] -= 1
                if cnt[cj] == 1:
                    stack.append(cj)

        success = unknown_data == 0
        # reset work arrays
        for m in touched_nodes:
            known[m] = True
        for ci in touched_cons:
            cnt[ci] = 0
        return success

    def decode(self, missing: Iterable[int]) -> DecodeResult:
        """Peel to fixpoint and return the full schedule and residual."""
        members = self._members
        node_cons = self._node_cons
        known = [True] * self.graph.num_nodes
        cnt = [0] * len(members)

        missing_set = set(missing)
        for m in missing_set:
            known[m] = False
            for ci in node_cons[m]:
                cnt[ci] += 1

        stack = [ci for ci in range(len(members)) if 0 < cnt[ci] == 1]
        steps: list[tuple[int, int]] = []
        while stack:
            ci = stack.pop()
            if cnt[ci] != 1:
                continue
            node = -1
            for m in members[ci]:
                if not known[m]:
                    node = m
                    break
            if node < 0:
                continue
            known[node] = True
            steps.append((ci, node))
            for cj in node_cons[node]:
                cnt[cj] -= 1
                if cnt[cj] == 1:
                    stack.append(cj)

        residual = frozenset(n for n in missing_set if not known[n])
        success = all(known[d] for d in self.graph.data_nodes)
        return DecodeResult(
            success=success, steps=tuple(steps), residual=residual
        )

    # ------------------------------------------------------------------

    def residual(self, missing: Iterable[int]) -> frozenset[int]:
        """The stopping set left after peeling ``missing``."""
        return self.decode(missing).residual
