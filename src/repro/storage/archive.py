"""Transactional archival object store over Tornado-coded devices.

Archival systems "function using a transactional interface where
complete files or objects are uploaded or downloaded" (paper §2.2) —
which is what makes Tornado Codes usable: the object size is known at
encode time, so there are no in-place block updates rippling through the
cascade.  :class:`TornadoArchive` provides exactly that interface over a
:class:`~repro.storage.device.DeviceArray`: ``put`` encodes an object
into one or more stripes placed one-node-per-device; ``get`` reads the
surviving blocks and peels; ``scrub``/``repair`` reconstruct missing
blocks back onto rebuilt devices (the paper's §6 "stripe reliability
assurance" mechanism pairs with :mod:`repro.storage.monitor`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..core.codec import BlockRun, DecodeFailure, TornadoCodec, stripe_rows
from ..core.graph import ErasureGraph
from ..obs.registry import registry
from .blockstore import DeviceBlockStore
from .device import DeviceArray, DeviceState, TransientUnavailableError
from .retrieval import FALLBACK_CHAIN
from .stripe import StripeMap, rotated_placement

__all__ = [
    "DataLossError",
    "ObjectManifest",
    "StripeRecord",
    "TornadoArchive",
    "read_stripe",
]


def read_stripe(
    codec: TornadoCodec,
    rows: np.ndarray,
    present: np.ndarray,
    *,
    name: str,
    index: int,
    dark: Callable[[], Sequence],
    every_row: bool = False,
) -> np.ndarray:
    """``codec``'s decode of one fetched stripe: its data rows (every row
    with ``every_row``), or every tier's one verdict on why not —
    :class:`TransientUnavailableError` while ``dark()`` names a holder
    that is out (a device, node or site that may come back with its
    blocks), else :class:`DataLossError` with the codec's residual.
    ``dark`` is called only on failure."""
    try:
        if every_row:
            return codec.recover(rows, present)
        return codec.decode_blocks(rows, present)
    except DecodeFailure as exc:
        out = list(dark())
        if out:
            raise TransientUnavailableError(
                f"object {name!r} stripe {index}: undecodable while "
                f"{out} are out (retry or repair may succeed)",
                out,
            ) from exc
        raise DataLossError(name, index, exc.residual) from exc


class DataLossError(RuntimeError):
    """An object (or stripe) is unrecoverable from the surviving devices."""

    def __init__(self, name: str, stripe_index: int, residual):
        self.object_name = name
        self.stripe_index = stripe_index
        self.residual = residual
        super().__init__(
            f"object {name!r} stripe {stripe_index}: data loss "
            f"({len(residual)} blocks unrecoverable)"
        )


@dataclass(frozen=True)
class StripeRecord:
    """Placement and framing of one stored stripe."""

    index: int
    placement: StripeMap
    payload_length: int


@dataclass(frozen=True)
class ObjectManifest:
    """Everything needed to retrieve one archived object."""

    name: str
    size: int
    stripes: tuple[StripeRecord, ...]


class TornadoArchive:
    """Whole-object archive on simulated devices.

    Parameters
    ----------
    graph:
        The (certified!) erasure graph protecting every stripe.
    devices:
        Device pool; must hold at least ``graph.num_nodes`` devices.
    block_size:
        Bytes per block; one stripe carries
        ``graph.num_data * block_size`` payload bytes.
    """

    def __init__(
        self,
        graph: ErasureGraph,
        devices: DeviceArray,
        block_size: int = 4096,
    ):
        if len(devices) < graph.num_nodes:
            raise ValueError(
                f"{graph.num_nodes}-node stripes need at least that many "
                f"devices; pool has {len(devices)}"
            )
        self.graph = graph
        self.devices = devices
        self.blocks = DeviceBlockStore(devices)
        self.codec = TornadoCodec(graph, block_size)
        self.objects: dict[str, ObjectManifest] = {}
        self._next_stripe = 0

    # ------------------------------------------------------------------
    # Transactional interface
    # ------------------------------------------------------------------

    def put(self, name: str, payload: bytes) -> ObjectManifest:
        """Encode and store a whole object; overwrites an existing name,
        deleting the replaced object's blocks once the new one is stored."""
        stripes = self.codec.encode_payload(payload)
        records: list[StripeRecord] = []
        for encoded in stripes:
            idx = self._next_stripe
            self._next_stripe += 1
            placement = rotated_placement(self.graph, len(self.devices), idx)
            for node, dev in enumerate(placement.device_of):
                self.blocks.write(
                    dev, name, idx, node, encoded.blocks[node].tobytes()
                )
            records.append(
                StripeRecord(
                    index=idx,
                    placement=placement,
                    payload_length=encoded.payload_length,
                )
            )
        manifest = ObjectManifest(
            name=name, size=len(payload), stripes=tuple(records)
        )
        if name in self.objects:
            self.delete(name)
        self.objects[name] = manifest
        return manifest

    def get(self, name: str, *, retry=None) -> bytes:
        """Retrieve a whole object, reconstructing around failures.

        Without ``retry`` this reads every available block per stripe
        (the historical behaviour).  With a retry policy (any object
        with the ``call`` of :class:`repro.resilience.retry.RetryPolicy`)
        reads run in *degraded mode*: each stripe is fetched through the
        planner fallback chain ``plan_guided`` → ``plan_data_first`` →
        ``plan_all``, and when the stripe is undecodable only because
        devices are transiently unavailable the policy backs off and the
        read walks the chain again, letting recovery land instead of
        declaring loss.  An unreadable stripe raises what
        :func:`read_stripe` does: loss, or an outage while one of its
        devices is transiently unavailable.
        """
        manifest = self._manifest(name)
        parts: list[bytes] = []
        for record in manifest.stripes:
            data = self._read_stripe_degraded(name, record, retry)
            parts.append(data.tobytes()[: record.payload_length])
        return b"".join(parts)

    def delete(self, name: str) -> None:
        manifest = self._manifest(name)
        for record in manifest.stripes:
            for node, dev in enumerate(record.placement.device_of):
                self.blocks.discard(dev, name, record.index, node)
        del self.objects[name]

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def missing_blocks(self, name: str) -> dict[int, list[int]]:
        """Per-stripe graph nodes currently unavailable for an object."""
        manifest = self._manifest(name)
        avail = self.devices.available_mask
        out: dict[int, list[int]] = {}
        for record in manifest.stripes:
            missing = record.placement.missing_nodes(avail)
            # Blocks may also be missing because a rebuilt device came
            # back empty.
            for node, dev in enumerate(record.placement.device_of):
                if avail[dev] and not self.blocks.has(
                    dev, name, record.index, node
                ):
                    missing.append(node)
            out[record.index] = sorted(set(missing))
        return out

    def repair(self, name: str) -> int:
        """Reconstruct and rewrite all recoverable missing blocks.

        Returns the number of blocks rewritten.  Raises
        :class:`DataLossError` if a stripe is beyond recovery.
        """
        manifest = self._manifest(name)
        repaired = 0
        avail = self.devices.available_mask
        missing_by_stripe = self.missing_blocks(name)
        for record in manifest.stripes:
            missing = missing_by_stripe[record.index]
            if not missing:
                continue
            full = read_stripe(
                self.codec,
                *self.stripe_blocks(name, record),
                name=name,
                index=record.index,
                dark=lambda: self.transient_devices(record),
                every_row=True,
            )
            for node in missing:
                dev = record.placement.device_of[node]
                if avail[dev]:
                    self.blocks.write(
                        dev, name, record.index, node, full[node].tobytes()
                    )
                    repaired += 1
        return repaired

    def stripe_blocks(
        self,
        name: str,
        record: StripeRecord,
        nodes: tuple[int, ...] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Surviving blocks of one stripe as ``(blocks, present)``.

        The returned matrix has one row per graph node, and ``present``
        marks the rows actually read: every node on an available device
        by default, or just the planned ``nodes`` (a planned device
        that became unavailable since planning raises
        :class:`TransientUnavailableError`).  A block a rebuilt-empty
        device no longer holds, or holds at the wrong size, is an
        erasure.  Also the entry point for serving layers
        (:mod:`repro.serve`) that plan and decode outside the archive.
        """
        devs = record.placement.device_of
        if nodes is None:
            avail = self.devices.available_mask
            nodes = [node for node, dev in enumerate(devs) if avail[dev]]
        held = [n for n in nodes if self.blocks.has(devs[n], name, record.index, n)]
        run = BlockRun.of(self.blocks.read(devs[n], name, record.index, n) for n in held)
        blocks = np.zeros((self.graph.num_nodes, self.codec.block_size), np.uint8)
        present = np.zeros(self.graph.num_nodes, dtype=bool)
        stripe_rows(blocks, present, held, run)
        return blocks, present

    def transient_devices(self, record: StripeRecord) -> tuple[int, ...]:
        """Stripe devices that are transiently unavailable right now: a
        stripe's ``dark`` holders for :func:`read_stripe`."""
        return tuple(
            dev
            for dev in record.placement.device_of
            if self.devices[dev].state is DeviceState.UNAVAILABLE
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _manifest(self, name: str) -> ObjectManifest:
        try:
            return self.objects[name]
        except KeyError:
            raise KeyError(f"no archived object named {name!r}") from None

    def _read_stripe_degraded(
        self, name: str, record: StripeRecord, retry
    ) -> np.ndarray:
        """One stripe of :meth:`get`: without ``retry`` a read of every
        available block, with it the fallback chain, retried by ``retry``.

        One pass tries guided → data-first → all against fresh
        availability; a strategy is skipped if its plan cannot decode,
        and a read that fails (blocks missing on rebuilt-empty devices,
        device lost mid-read) falls through to the next strategy.  A
        pass that exhausts the chain raises the last read's verdict (a
        read of every available block's, when no plan decodes on
        paper); ``retry.call`` answers an outage with a fresh pass.
        """
        reg = registry()
        passes = 0

        def read(nodes: tuple[int, ...] | None = None) -> np.ndarray:
            return read_stripe(
                self.codec,
                *self.stripe_blocks(name, record, nodes),
                name=name,
                index=record.index,
                dark=lambda: self.transient_devices(record),
            )

        if retry is None:
            return read()

        def walk_chain() -> np.ndarray:
            nonlocal passes
            passes += 1
            avail = self.devices.available_mask
            verdict = None
            for planner in FALLBACK_CHAIN:
                plan = planner(self.graph, record.placement, avail)
                if not plan.decodable:
                    continue
                if planner is not FALLBACK_CHAIN[0]:
                    reg.counter("resilience.reads.fallbacks").inc()
                try:
                    data = read(plan.nodes)
                except (DataLossError, TransientUnavailableError) as exc:
                    verdict = exc
                    continue
                if passes > 1:
                    reg.counter("resilience.reads.recovered").inc()
                return data
            reg.counter("resilience.reads.degraded").inc()
            if verdict is None:
                return read()
            raise verdict

        return retry.call(
            walk_chain,
            retry_on=TransientUnavailableError,
            counter="resilience.reads.retries",
        )
