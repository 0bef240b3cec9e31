"""Real-data Tornado encoding and decoding.

Everything else in the package reasons about *decodability*; this module
moves actual bytes.  Blocks are fixed-size ``uint8`` NumPy rows; encoding
walks the cascade levels in order computing each check block as the XOR
of its left blocks, and decoding replays the peeling schedule its
:class:`~repro.core.plancache.PlanCache` hands out with XOR on block
contents.  Because a parity constraint XORs to zero across all members,
any single unknown member is the XOR of the others — the same rule for
both directions of the cascade.

Payload helpers segment an arbitrary byte string into one or more
stripes of ``num_data`` blocks with explicit length framing, which is
the transactional whole-object interface archival systems use (§2.2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .._checks import check_count
from .graph import ErasureGraph
from .plancache import PlanCache

__all__ = [
    "BlockRun",
    "DecodeFailure",
    "TornadoCodec",
    "EncodedStripe",
    "stripe_rows",
]


class DecodeFailure(RuntimeError):
    """Raised when peeling cannot recover the rows asked for.

    ``residual`` follows one convention everywhere an archive tier
    reports loss: the stuck *data* nodes, or the whole residual when
    only check nodes are stuck.
    """

    def __init__(self, residual: frozenset[int]):
        self.residual = residual
        super().__init__(
            f"unrecoverable: {len(residual)} nodes stuck "
            f"(e.g. {sorted(residual)[:6]})"
        )


@dataclass(frozen=True)
class EncodedStripe:
    """One encoded stripe: a block per graph node plus framing metadata."""

    blocks: np.ndarray  # (num_nodes, block_size) uint8
    payload_length: int  # bytes of real payload carried by this stripe


class BlockRun(NamedTuple):
    """Blocks back to back, ``sizes[i]`` bytes each: how a burst of
    blocks travels on the wire, and what :func:`stripe_rows` lands."""

    sizes: tuple[int, ...] = ()
    data: bytes = b""

    @classmethod
    def of(cls, blocks) -> "BlockRun":
        """The run of ``blocks`` (flat byte buffers), in order."""
        blocks = list(blocks)
        return cls(tuple(map(len, blocks)), b"".join(blocks))

    def split(self, count: int) -> list:
        """The ``count`` blocks as slices of ``data``; ``ValueError`` for
        a run of another count or whose sizes miss its bytes."""
        ends = list(itertools.accumulate(self.sizes, initial=0))
        if len(ends) != count + 1 or ends[-1] != len(self.data):
            raise ValueError(
                f"a run of {len(self.sizes)} blocks summing to {ends[-1]} "
                f"bytes in {len(self.data)} is not {count} blocks"
            )
        return [self.data[a:b] for a, b in itertools.pairwise(ends)]


def stripe_rows(blocks: np.ndarray, present: np.ndarray, rows, run: BlockRun) -> int:
    """Land ``run``'s block ``i`` in row ``rows[i]`` of ``blocks``, mark
    it ``present``, and return how many blocks were refused.

    The one place a fetched run becomes stripe rows.  A run whose count
    is not ``len(rows)`` or whose sizes miss its bytes cannot say which
    block is which: all of it is refused (its blocks or its rows,
    whichever are more).  Else a block whose row is outside the matrix
    or whose size is not its block size is refused alone.  What to do
    about a refusal (count it, reject the reply) is the caller's policy.
    """
    count, size = blocks.shape
    rows = np.asarray(rows, dtype=np.intp)
    sizes = np.asarray(run.sizes, dtype=np.int64)
    if sizes.size != rows.size or sizes.sum() != len(run.data):
        return max(sizes.size, rows.size)
    ok = (sizes == size) & (rows >= 0) & (rows < count)
    data = np.frombuffer(run.data, dtype=np.uint8)
    if ok.all():  # one copy into the matrix, not one per row
        blocks[rows] = data.reshape(-1, size)
    else:
        starts = np.cumsum(sizes)[ok] - size
        blocks[rows[ok]] = data[starts[:, None] + np.arange(size)]
    present[rows[ok]] = True
    return int(ok.size - ok.sum())


class TornadoCodec:
    """Encode/decode byte blocks over any :class:`ErasureGraph`.

    ``plans`` is the scheduler: the owner's
    :class:`~repro.core.plancache.PlanCache` when it has one to share
    (a coordinator, a gateway, a service), else a cache of the codec's
    own.  Whichever it is, decoding takes the same path.
    """

    def __init__(
        self,
        graph: ErasureGraph,
        block_size: int,
        plans: PlanCache | None = None,
    ):
        self.block_size = check_count(block_size, "block_size", 1)
        self.graph = graph
        self.plans = plans if plans is not None else PlanCache()
        self._others = {  # a replay step's operands: the constraint's others
            (ci, node): np.array([m for m in members if m != node], dtype=np.intp)
            for ci, members in enumerate(graph.constraint_members())
            for node in members
        }
        self._data_rows = list(graph.data_nodes)
        self._data = frozenset(graph.data_nodes)
        # Constraint evaluation order honouring the cascade levels.
        self._encode_order = [
            ci for level in graph.levels for ci in level
        ]

    # ------------------------------------------------------------------
    # Block-level API
    # ------------------------------------------------------------------

    def encode_blocks(self, data_blocks: np.ndarray) -> np.ndarray:
        """Fill check blocks from data blocks.

        ``data_blocks`` has shape ``(num_data, block_size)``; the result
        has one row per graph node with data rows at the data node ids.
        """
        g = self.graph
        data_blocks = np.asarray(data_blocks, dtype=np.uint8)
        if data_blocks.shape != (g.num_data, self.block_size):
            raise ValueError(
                f"expected ({g.num_data}, {self.block_size}) data blocks, "
                f"got {data_blocks.shape}"
            )
        blocks = np.zeros((g.num_nodes, self.block_size), dtype=np.uint8)
        blocks[self._data_rows] = data_blocks
        for ci in self._encode_order:
            con = g.constraints[ci]
            np.bitwise_xor.reduce(
                blocks[list(con.lefts)], axis=0, out=blocks[con.check]
            )
        return blocks

    def _stripe(
        self, blocks: np.ndarray, present: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(blocks, present)`` as arrays of this codec's stripe shape."""
        g = self.graph
        present = np.asarray(present, dtype=bool)
        if present.shape != (g.num_nodes,):
            raise ValueError("present mask must have one entry per node")
        blocks = np.asarray(blocks, dtype=np.uint8)
        if blocks.shape != (g.num_nodes, self.block_size):
            raise ValueError("blocks matrix has the wrong shape")
        return blocks, present

    def schedule(self, present: np.ndarray, *, every_row: bool = False):
        """The cached peeling plan for an availability mask.

        Raises :class:`DecodeFailure` when the plan leaves a data node
        stuck — or, with ``every_row``, any node at all.
        """
        plan = self.plans.schedule(self.graph, np.flatnonzero(~present))
        lost_data = plan.residual & self._data
        if lost_data or (every_row and plan.residual):
            raise DecodeFailure(lost_data or plan.residual)
        return plan

    def decode_blocks(
        self, blocks: np.ndarray, present: np.ndarray
    ) -> np.ndarray:
        """Recover all data blocks given the surviving node blocks.

        ``present`` is a boolean per-node availability mask; rows of
        ``blocks`` for absent nodes are ignored.  Returns the
        ``(num_data, block_size)`` data matrix or raises
        :class:`DecodeFailure`.  With nothing absent the data rows are
        returned as they are — no plan lookup, no replay; otherwise one
        :meth:`schedule` and one :meth:`decode_blocks_with_schedule`.
        """
        blocks, present = self._stripe(blocks, present)
        if present.all():
            return blocks[self._data_rows]
        return self.decode_blocks_with_schedule(
            blocks, present, self.schedule(present).steps
        )

    def recover(
        self, blocks: np.ndarray, present: np.ndarray
    ) -> np.ndarray:
        """Every row of the stripe, lost checks included.

        One :meth:`schedule` and one :meth:`replay_schedule`; repair
        and scrub take the rows they rewrite from here.  Raises
        :class:`DecodeFailure` if any row stays stuck.
        """
        blocks, present = self._stripe(blocks, present)
        plan = self.schedule(present, every_row=True)
        return self.replay_schedule(blocks, present, plan.steps)

    def decode_blocks_with_schedule(
        self,
        blocks: np.ndarray,
        present: np.ndarray,
        steps,
    ) -> np.ndarray:
        """Replay a precomputed peeling schedule; return the data rows.

        ``steps`` is the ``(constraint_index, node)`` recovery schedule
        from :meth:`repro.core.decoder.PeelingDecoder.decode` for the
        *same* erasure pattern as ``present``.  Separating scheduling
        from replay lets a serving layer compute the plan once per
        (graph, erasure mask) and reuse it across many stripes (see
        :mod:`repro.core.plancache`); replay is pure XOR with no graph
        search.
        """
        stripe = self.replay_schedule(blocks, present, steps)
        return stripe[self._data_rows]

    def replay_schedule(
        self,
        blocks: np.ndarray,
        present: np.ndarray,
        steps,
    ) -> np.ndarray:
        """The whole stripe after replaying ``steps``, one row per node.

        Each ``(ci, node)`` step overwrites row ``node`` with the XOR of
        constraint ``ci``'s other rows — the package's only XOR replay
        loop.  The schedule solves lost check nodes as well as lost
        data (the decoder peels to a fixpoint), so with an empty
        residual every row equals a fresh :meth:`encode_blocks`.
        """
        blocks, present = self._stripe(blocks, present)
        work = blocks.copy()
        work[~present] = 0
        for ci, node in steps:
            others = work.take(self._others[ci, node], axis=0)
            np.bitwise_xor.reduce(others, axis=0, out=work[node])
        return work

    # ------------------------------------------------------------------
    # Payload (whole-object) API
    # ------------------------------------------------------------------

    @property
    def stripe_capacity(self) -> int:
        """Payload bytes carried by one stripe."""
        return self.graph.num_data * self.block_size

    def encode_payload(self, payload: bytes) -> list[EncodedStripe]:
        """Segment and encode an object into stripes (zero-padded tail)."""
        cap = self.stripe_capacity
        stripes: list[EncodedStripe] = []
        n_stripes = max(1, -(-len(payload) // cap))
        for i in range(n_stripes):
            chunk = payload[i * cap : (i + 1) * cap]
            buf = np.zeros(cap, dtype=np.uint8)
            buf[: len(chunk)] = np.frombuffer(chunk, dtype=np.uint8)
            data = buf.reshape(self.graph.num_data, self.block_size)
            stripes.append(
                EncodedStripe(
                    blocks=self.encode_blocks(data),
                    payload_length=len(chunk),
                )
            )
        return stripes

    def decode_payload(
        self,
        stripes: list[EncodedStripe],
        present_masks: list[np.ndarray] | None = None,
    ) -> bytes:
        """Reassemble an object from its (possibly degraded) stripes."""
        parts: list[bytes] = []
        for i, stripe in enumerate(stripes):
            present = (
                present_masks[i]
                if present_masks is not None
                else np.ones(self.graph.num_nodes, dtype=bool)
            )
            data = self.decode_blocks(stripe.blocks, present)
            parts.append(data.tobytes()[: stripe.payload_length])
        return b"".join(parts)
