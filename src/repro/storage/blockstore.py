"""Block stores: the key scheme and block IO beneath the archive layer.

A stored block is addressed by ``(object name, stripe index, graph
node)`` everywhere in the system — on simulated devices inside one
process, and across the wire between a cluster coordinator and its
storage nodes.  This module owns that addressing plus the two store
implementations:

* :func:`block_key` / :func:`parse_block_key` — the canonical string
  form ``"{name}/{stripe}/{node}"`` (object names may themselves
  contain ``/``; the stripe and node components are always the final
  two).
* :class:`DeviceBlockStore` — block IO over a
  :class:`~repro.storage.device.DeviceArray`, extracted from
  :class:`~repro.storage.archive.TornadoArchive` so the archive's
  transactional logic reads as placement + codec rather than raw
  device poking.
* :class:`LocalBlockStore` — the flat in-memory store a cluster
  storage node serves over RPC (:mod:`repro.cluster.node`): no device
  topology, just keyed blocks with byte accounting, because a node's
  failure model is the *process* (kill/unreachable), not per-drive
  state.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .device import DeviceArray

__all__ = [
    "DeviceBlockStore",
    "LocalBlockStore",
    "block_key",
    "parse_block_key",
]


def block_key(name: str, stripe_index: int, node: int) -> str:
    """Canonical address of one stored block."""
    return f"{name}/{stripe_index}/{node}"


def parse_block_key(key: str) -> tuple[str, int, int]:
    """Split a block key back into ``(name, stripe_index, node)``."""
    try:
        name, stripe, node = key.rsplit("/", 2)
        return name, int(stripe), int(node)
    except ValueError:
        raise ValueError(f"malformed block key {key!r}") from None


class DeviceBlockStore:
    """Keyed block IO over a device pool.

    Thin by design: device-state semantics (transient unavailability,
    failure, spin-up accounting) stay in
    :class:`~repro.storage.device.Device`; this class contributes the
    key scheme and the per-device addressing the archive uses.
    """

    def __init__(self, devices: DeviceArray):
        self.devices = devices

    def __len__(self) -> int:
        return len(self.devices)

    @property
    def available_mask(self) -> np.ndarray:
        return self.devices.available_mask

    def write(
        self, dev: int, name: str, stripe_index: int, node: int, data: bytes
    ) -> None:
        self.devices[dev].write_block(
            block_key(name, stripe_index, node), data
        )

    def read(
        self, dev: int, name: str, stripe_index: int, node: int
    ) -> bytes:
        return self.devices[dev].read_block(
            block_key(name, stripe_index, node)
        )

    def has(
        self, dev: int, name: str, stripe_index: int, node: int
    ) -> bool:
        """Whether the block is physically present on the device.

        Pure presence — no availability check, no access accounting —
        which is what repair planning needs (a rebuilt-empty device is
        available yet holds nothing).
        """
        return block_key(name, stripe_index, node) in self.devices[dev].blocks

    def discard(
        self, dev: int, name: str, stripe_index: int, node: int
    ) -> bool:
        """Drop a block if present (object deletion); returns presence."""
        return (
            self.devices[dev].blocks.pop(
                block_key(name, stripe_index, node), None
            )
            is not None
        )


class LocalBlockStore:
    """Flat in-memory block store served by one cluster storage node."""

    def __init__(self) -> None:
        self._blocks: dict[str, bytes] = {}
        self.bytes_stored = 0
        self.puts = 0
        self.gets = 0

    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, key: str) -> bool:
        return key in self._blocks

    def put(self, key: str, data: bytes) -> None:
        previous = self._blocks.get(key)
        if previous is not None:
            self.bytes_stored -= len(previous)
        self._blocks[key] = bytes(data)
        self.bytes_stored += len(data)
        self.puts += 1

    def get(self, key: str) -> bytes:
        try:
            data = self._blocks[key]
        except KeyError:
            raise KeyError(f"no block {key!r} on this node") from None
        self.gets += 1
        return data

    def delete(self, key: str) -> bool:
        data = self._blocks.pop(key, None)
        if data is None:
            return False
        self.bytes_stored -= len(data)
        return True

    def keys(self, prefix: str = "") -> Iterator[str]:
        """Stored keys starting with ``prefix``, in insertion order
        (deterministic: a node applies its puts in the order they came)."""
        return (key for key in self._blocks if key.startswith(prefix))

    def clear(self) -> None:
        self._blocks.clear()
        self.bytes_stored = 0

    def stats(self) -> dict[str, int]:
        return {
            "blocks": len(self._blocks),
            "bytes_stored": self.bytes_stored,
            "puts": self.puts,
            "gets": self.gets,
        }
