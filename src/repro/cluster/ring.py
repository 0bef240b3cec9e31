"""Consistent-hash placement ring for cluster block keys.

The coordinator places every stored block on exactly one storage node
(the Tornado code supplies redundancy across *graph nodes*, so the
ring does no replication of its own — losing a storage node erases the
blocks it owned, and the stripe decodes around them).  Consistent
hashing keeps that placement stable under membership churn: when a
node joins or leaves, only the keys in the arcs it gains or cedes move
(~``K/N`` of them), which is exactly the re-shard traffic the
coordinator's rebalance pass ships.

Determinism matters here: placement is a pure function of
``(node ids, weights, key)`` via SHA-256, independent of join order,
process, and platform — two coordinators bootstrapped with the same
membership agree on every owner, and tests can assert exact placements.

Heterogeneous capacity is expressed through per-member *weights*: a
member with weight ``w`` hashes ``replicas * w`` virtual nodes onto the
ring, so its expected share of the key space is proportional to ``w``.
Weight 1 (the default) produces the exact vnode labels the unweighted
ring always used, so existing placements are byte-identical.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right

from .._checks import check_count

__all__ = ["HashRing"]


def _point(label: str) -> int:
    """Ring coordinate of a label: first 8 bytes of its SHA-256."""
    return int.from_bytes(
        hashlib.sha256(label.encode()).digest()[:8], "big"
    )


class HashRing:
    """SHA-256 consistent-hash ring with virtual nodes.

    Parameters
    ----------
    replicas:
        Virtual nodes per member.  64 keeps the max/min load ratio
        tight (empirically < 1.4 for a handful of members) while the
        ring stays small enough to rebuild on every membership change.
    """

    def __init__(self, replicas: int = 64):
        self.replicas = check_count(replicas, "replicas", 1)
        self._members: set[str] = set()
        self._weights: dict[str, int] = {}
        self._points: list[int] = []
        self._owners: list[str] = []

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._members

    @property
    def members(self) -> tuple[str, ...]:
        return tuple(sorted(self._members))

    def weight(self, node_id: str) -> int:
        """The member's vnode multiplier (1 for unweighted members)."""
        if node_id not in self._members:
            raise KeyError(f"no ring member named {node_id!r}")
        return self._weights[node_id]

    def add(self, node_id: str, weight: int = 1) -> None:
        if not node_id:
            raise ValueError("node_id must be non-empty")
        check_count(weight, "weight", 1)
        if (
            node_id in self._members
            and self._weights[node_id] == weight
        ):
            return
        self._members.add(node_id)
        self._weights[node_id] = weight
        self._rebuild()

    def remove(self, node_id: str) -> None:
        self._members.discard(node_id)
        self._weights.pop(node_id, None)
        self._rebuild()

    def _rebuild(self) -> None:
        # Rebuilt from the sorted member set so the ring is a pure
        # function of membership (+ weights), never of add/remove
        # history.  A weight-w member hashes replicas*w vnodes with the
        # same "{node_id}#{i}" labels the unweighted ring used, so
        # weight 1 reproduces historical placement exactly.
        pairs = sorted(
            (_point(f"{node_id}#{i}"), node_id)
            for node_id in self._members
            for i in range(self.replicas * self._weights[node_id])
        )
        self._points = [p for p, _ in pairs]
        self._owners = [n for _, n in pairs]

    def owner(self, key: str) -> str:
        """The member that owns ``key``; raises if the ring is empty."""
        if not self._owners:
            raise LookupError("hash ring has no members")
        idx = bisect_right(self._points, _point(key))
        return self._owners[idx % len(self._owners)]

    def spread(self, keys: list[str]) -> dict[str, int]:
        """Owner histogram for a key sample (load-balance diagnostics)."""
        out: dict[str, int] = {m: 0 for m in self._members}
        for key in keys:
            out[self.owner(key)] += 1
        return out
