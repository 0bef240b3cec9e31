"""Block integrity: silent-corruption detection and scrubbing.

Erasure coding protects against *erasures* — blocks known to be gone.
Archival systems also face silent corruption (bit rot), where a device
returns wrong bytes without an error.  The standard defence is
checksummed blocks plus periodic scrubbing: verify every block against
its recorded checksum, demote mismatches to erasures, and let the
erasure code reconstruct them.  That is exactly what
:class:`IntegrityScanner` adds on top of
:class:`~repro.storage.archive.TornadoArchive` — the "stripe
reliability assurance and user introspection mechanism" of the paper's
§6, extended to the failure mode Table 5's device model does not cover.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from .archive import TornadoArchive, read_stripe
from .blockstore import block_key

__all__ = ["CorruptBlock", "IntegrityReport", "IntegrityScanner"]


def _checksum(payload: bytes) -> int:
    return zlib.crc32(payload) & 0xFFFFFFFF


@dataclass(frozen=True)
class CorruptBlock:
    """One block whose content no longer matches its checksum."""

    object_name: str
    stripe_index: int
    node: int
    device_id: int


@dataclass(frozen=True)
class IntegrityReport:
    """Outcome of a verification pass."""

    blocks_checked: int
    corrupt: tuple[CorruptBlock, ...]

    @property
    def clean(self) -> bool:
        return not self.corrupt


class IntegrityScanner:
    """Checksum registry and scrubber for an archive.

    Register an object right after ``put`` (while its blocks are known
    good); ``verify`` then detects any later mutation, and ``scrub``
    repairs it through the erasure code.  Checksums live outside the
    devices, as a real system would keep them in metadata storage.
    """

    def __init__(self, archive: TornadoArchive):
        self.archive = archive
        self._checksums: dict[str, int] = {}

    # ------------------------------------------------------------------

    def register(self, name: str) -> int:
        """Record checksums for every block of an object.

        Returns the number of blocks registered.  Blocks on failed
        devices are skipped (they are erasures, not corruption).
        """
        manifest = self.archive.objects[name]
        avail = self.archive.devices.available_mask
        count = 0
        for record in manifest.stripes:
            for node, dev in enumerate(record.placement.device_of):
                if not avail[dev]:
                    continue
                key = block_key(name, record.index, node)
                store = self.archive.devices[dev].blocks
                if key in store:
                    self._checksums[key] = _checksum(store[key])
                    count += 1
        return count

    def verify(self, name: str) -> IntegrityReport:
        """Check every reachable block against its recorded checksum."""
        manifest = self.archive.objects[name]
        avail = self.archive.devices.available_mask
        corrupt: list[CorruptBlock] = []
        checked = 0
        for record in manifest.stripes:
            for node, dev in enumerate(record.placement.device_of):
                if not avail[dev]:
                    continue
                key = block_key(name, record.index, node)
                expected = self._checksums.get(key)
                store = self.archive.devices[dev].blocks
                if expected is None or key not in store:
                    continue
                checked += 1
                if _checksum(store[key]) != expected:
                    corrupt.append(
                        CorruptBlock(
                            object_name=name,
                            stripe_index=record.index,
                            node=node,
                            device_id=dev,
                        )
                    )
        return IntegrityReport(
            blocks_checked=checked, corrupt=tuple(corrupt)
        )

    def scrub(self, name: str) -> int:
        """Repair corrupt blocks by erasure-decoding around them.

        Corrupt blocks are treated as erasures: every row of the stripe
        is recovered from the remaining verified blocks and the bad
        blocks rewritten (checksums refreshed).  Returns the number of
        blocks rewritten; raises
        :class:`~repro.storage.archive.DataLossError` if corruption
        plus failures exceed the stripe's tolerance, or
        :class:`~repro.storage.device.TransientUnavailableError` while a
        stripe device is only out (see :func:`read_stripe`).
        """
        report = self.verify(name)
        if report.clean:
            return 0
        manifest = self.archive.objects[name]
        by_stripe: dict[int, list[CorruptBlock]] = {}
        for bad in report.corrupt:
            by_stripe.setdefault(bad.stripe_index, []).append(bad)

        rewritten = 0
        for record in manifest.stripes:
            bads = by_stripe.get(record.index)
            if not bads:
                continue
            blocks, present = self.archive.stripe_blocks(name, record)
            for bad in bads:
                present[bad.node] = False  # demote to erasure
            full = read_stripe(
                self.archive.codec,
                blocks,
                present,
                name=name,
                index=record.index,
                dark=lambda: self.archive.transient_devices(record),
                every_row=True,
            )
            for bad in bads:
                payload = full[bad.node].tobytes()
                key = block_key(name, record.index, bad.node)
                self.archive.devices[bad.device_id].write_block(
                    key, payload
                )
                self._checksums[key] = _checksum(payload)
                rewritten += 1
        return rewritten


def corrupt_block(
    archive: TornadoArchive,
    name: str,
    stripe_index: int,
    node: int,
    flip_byte: int = 0,
) -> None:
    """Test helper: silently flip one byte of a stored block."""
    record = next(
        r
        for r in archive.objects[name].stripes
        if r.index == stripe_index
    )
    dev = archive.devices[record.placement.device_of[node]]
    key = block_key(name, stripe_index, node)
    raw = bytearray(dev.blocks[key])
    raw[flip_byte] ^= 0xFF
    dev.blocks[key] = bytes(raw)
