"""One stripe, one verdict, every tier.

``read_stripe`` is the only code that types an undecodable stripe: an
outage while a holder is out, loss with the codec's residual when none
is.  Each case below erases the same graph nodes of one stripe for
``read_stripe`` itself, ``TornadoArchive.get``, the reconstruction
service and an in-process coordinator, and every tier must answer
alike: the same bytes, or the same error type with the same residual
and the same wire code.
"""

import asyncio

import numpy as np
import pytest

from repro.core import TornadoCodec
from repro.core.codec import DecodeFailure
from repro.core.critical import minimal_bad_stopping_sets
from repro.resilience import RetryPolicy
from repro.serve import ReconstructionService, ServeConfig
from repro.serve.protocol import error_code
from repro.storage import DeviceArray, TornadoArchive
from repro.storage.archive import DataLossError, read_stripe
from repro.storage.blockstore import block_key
from repro.storage.device import TransientUnavailableError
from repro.storage.retrieval import FALLBACK_CHAIN
from tests.cluster.test_cluster import Cluster, catalog_graph

GRAPH = catalog_graph()  # 96 nodes, 48 data, first failure at 5
PAYLOAD = np.random.default_rng(3).bytes(3000)  # one stripe of 64-byte blocks
STUCK = sorted(minimal_bad_stopping_sets(GRAPH, max_size=5)[0])

# name -> (graph nodes whose blocks are gone for good, whether the
# holder of stripe node 0 is out: a dark coordinator member, whose
# every fourth node is interrupted devices in the archive).
CASES = {
    "healthy": ((), False),
    "degraded": ((0, 1, 2, 60), False),
    "holder-out": ((), True),
    "stuck-holder-out": (STUCK, True),
    "stuck-none-out": (STUCK, False),
}


def verdict(exc):
    return (type(exc).__name__, getattr(exc, "residual", None), error_code(exc))


def expected(lost, out):
    """What every tier must answer (one holder's share alone decodes:
    the ring's striding is certified for it)."""
    present = np.ones(GRAPH.num_nodes, dtype=bool)
    present[list(lost)] = False
    try:
        TornadoCodec(GRAPH, 64).schedule(present)
    except DecodeFailure as stuck:
        if out:
            return ("TransientUnavailableError", None, "unavailable")
        return ("DataLossError", stuck.residual, "data_loss")
    return PAYLOAD


async def answers(lost, out):
    """The case through every tier, as bytes or a verdict tuple."""
    cluster = await Cluster.start(members=4)
    coord = cluster.coordinator
    await coord.put("obj", PAYLOAD)
    record = coord.manifests["obj"].stripes[0]
    dark = record.placement[0]
    erased = set(lost)
    if out:
        erased |= {j for j, nid in enumerate(record.placement) if nid == dark}
    for node in lost:
        assert cluster.nodes[record.placement[node]].store.delete(
            block_key("obj", record.index, node)
        )
    if out:
        await cluster.kill(dark)

    archive = TornadoArchive(GRAPH, DeviceArray(96), block_size=64)
    archive.put("obj", PAYLOAD)
    stripe = archive.objects["obj"].stripes[0]
    devices = stripe.placement.device_of
    for node in lost:
        archive.blocks.discard(devices[node], "obj", stripe.index, node)
    if out:
        archive.devices.interrupt(devices[j] for j in erased - set(lost))

    codec = TornadoCodec(GRAPH, 64)
    rows = codec.encode_payload(PAYLOAD)[0].blocks
    present = np.ones(GRAPH.num_nodes, dtype=bool)
    present[sorted(erased)] = False
    asked = []

    def holders_out():
        asked.append(True)
        return [dark] if out else []

    got = {}

    def direct():
        data = read_stripe(
            codec, rows, present, name="obj", index=0, dark=holders_out
        )
        return data.tobytes()[: len(PAYLOAD)]

    for tier, call in (
        ("read_stripe", direct),
        ("archive", lambda: archive.get("obj")),
    ):
        try:
            got[tier] = call()
        except (DataLossError, TransientUnavailableError) as exc:
            got[tier] = verdict(exc)
    assert asked == ([] if got["read_stripe"] == PAYLOAD else [True])

    async with ReconstructionService(
        archive, ServeConfig(batch_window=0.0)
    ) as svc:
        try:
            got["service"] = await svc.submit("obj")
        except (DataLossError, TransientUnavailableError) as exc:
            got["service"] = verdict(exc)
    try:
        got["coordinator"] = (
            await coord.get("obj", want_payload=True)
        ).payload
    except (DataLossError, TransientUnavailableError) as exc:
        got["coordinator"] = verdict(exc)
    await cluster.close()
    return got


@pytest.mark.parametrize("case", CASES)
def test_every_tier_gives_one_verdict(case):
    lost, out = CASES[case]
    want = expected(lost, out)
    got = asyncio.run(answers(lost, out))
    assert got == dict.fromkeys(got, want)
    assert set(got) == {"read_stripe", "archive", "service", "coordinator"}


def test_an_exhausted_degraded_pass_reads_each_rung_once():
    """Blocks gone from rebuilt-empty devices: every plan decodes on
    paper and every read fails.  The pass ends on the last rung's
    verdict instead of reading the whole stripe once more for it."""
    archive = TornadoArchive(GRAPH, DeviceArray(96), block_size=64)
    archive.put("obj", PAYLOAD)
    record = archive.objects["obj"].stripes[0]
    emptied = [record.placement.device_of[node] for node in STUCK]
    archive.devices.fail(emptied)
    for device in emptied:
        archive.devices[device].rebuild()
    with pytest.raises(DataLossError) as plain:
        archive.get("obj")

    reads = []
    real = archive.stripe_blocks

    def counted(name, rec, nodes=None):
        reads.append(nodes)
        return real(name, rec, nodes)

    archive.stripe_blocks = counted
    retry = RetryPolicy(
        max_attempts=3, jitter=0.0, seed=0, sleep=lambda _delay: None
    )
    with pytest.raises(DataLossError) as laddered:
        archive.get("obj", retry=retry)
    assert len(reads) == len(FALLBACK_CHAIN)
    assert None not in reads  # no whole-stripe re-read for the verdict
    assert laddered.value.residual == plain.value.residual
