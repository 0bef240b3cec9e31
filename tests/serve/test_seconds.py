"""One contract for a seconds value: ``get(deadline=)``, the service's
windows, ``node.admin``'s delay and every ``rpc_timeout``.

``check_seconds`` refuses a bool with ``TypeError`` and NaN or a
non-positive value with ``ValueError`` (``bad_request`` on the wire),
before the value has any effect: no request is counted, no RPC is sent.
"""

import asyncio
import math

import pytest

from repro.serve import ReconstructionService, ServeConfig
from repro._checks import check_seconds
from repro.serve.frontend import start_frontend
from repro.serve.lineserver import within_deadline
from repro.serve.link import PipelinedLink
from repro.serve.protocol import GetRequest, ProtocolError, parse_request
from tests.cluster.test_cluster import Cluster, payload_bytes
from tests.serve.wire import frame, read_reply
from tests.serve.test_service import small_archive
from tests.sites.test_gateway import Federation

NAN = float("nan")
# A deadline every entry point refuses, and what it raises.
REFUSED = [
    (True, TypeError),
    (False, TypeError),
    (NAN, ValueError),
    (0, ValueError),
    (-1.5, ValueError),
]


@pytest.mark.parametrize("value, error", REFUSED)
def test_check_seconds(value, error):
    with pytest.raises(error, match="deadline"):
        check_seconds(value, "deadline")
    check_seconds(None, "deadline")
    check_seconds(0.5, "deadline")
    check_seconds(math.inf, "deadline")
    check_seconds(0, "window", zero=True)


@pytest.mark.parametrize("value, error", REFUSED)
def test_get_request(value, error):
    with pytest.raises(error, match="'get' deadline"):
        GetRequest(name="o", deadline=value)


def get_frame(name: str, deadline: float, request_id: int) -> bytes:
    """A ``get`` frame whose deadline is whatever the wire carries."""
    return frame(
        "get", "I??d", len(name.encode()), False, True, deadline,
        header=name.encode(), id=request_id,
    )


@pytest.mark.parametrize("wire", ["NaN", "0", "-1", "-inf", "-0.0"])
def test_wire_get(wire):
    with pytest.raises(ProtocolError) as refused:
        parse_request(get_frame("o", float(wire), 9))
    assert (refused.value.code, refused.value.request_id) == ("bad_request", 9)


@pytest.mark.parametrize("wire", ["NaN", "-1", "-inf"])
def test_wire_node_admin_delay(wire):
    def admin(delay):
        return frame(
            "node.admin", "I?d", 4, True, delay, header=b"slow", id=4
        )

    with pytest.raises(ProtocolError) as refused:
        parse_request(admin(float(wire)))
    assert (refused.value.code, refused.value.request_id) == ("bad_request", 4)
    parse_request(admin(0.0))  # no delay is fine


@pytest.mark.parametrize(
    "field, value, error",
    [("default_deadline", v, e) for v, e in REFUSED]
    + [
        ("batch_window", True, TypeError),
        ("batch_window", NAN, ValueError),
        ("batch_window", -0.5, ValueError),
    ],
)
def test_serve_config(field, value, error):
    with pytest.raises(error, match=field):
        ServeConfig(**{field: value})
    ServeConfig(batch_window=0.0, default_deadline=None)


@pytest.mark.parametrize("value, error", REFUSED)
def test_service_try_submit(value, error):
    archive, names = small_archive()

    async def scenario():
        async with ReconstructionService(
            archive, ServeConfig(batch_window=0.0)
        ) as svc:
            with pytest.raises(error, match="deadline"):
                svc.try_submit(names[0], deadline=value)
            with pytest.raises(error, match="deadline"):
                await svc.submit(names[0], deadline=value)
            return svc.stats()["counters"]

    assert "serve.requests" not in asyncio.run(scenario())


@pytest.mark.parametrize("wire", ["NaN", "0", "-inf"])
def test_served_frontend_answers_bad_request(wire):
    archive, names = small_archive()

    async def scenario():
        async with ReconstructionService(
            archive, ServeConfig(batch_window=0.0)
        ) as svc:
            server = await start_frontend(svc)
            host, port = server.sockets[0].getsockname()[:2]
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(get_frame(names[0], float(wire), 3))
            reply = await read_reply(reader)
            writer.close()
            server.close()
            return reply, svc.stats()["counters"]

    reply, counters = asyncio.run(scenario())
    assert (reply["code"], reply["id"]) == ("bad_request", 3)
    assert "serve.requests" not in counters


def no_rpc(monkeypatch):
    """Make any RPC fail the test (every burst a link sends is parked
    through ``PipelinedLink.burst``)."""

    def forbidden(self, items, timeout):
        raise AssertionError("an RPC was sent for a refused deadline")

    monkeypatch.setattr(PipelinedLink, "burst", forbidden)


@pytest.mark.parametrize("value, error", REFUSED)
def test_coordinator_get(monkeypatch, value, error):
    async def scenario():
        cluster = await Cluster.start(members=3)
        await cluster.coordinator.put("obj", payload_bytes(1000))
        no_rpc(monkeypatch)
        try:
            with pytest.raises(error, match="deadline"):
                await cluster.coordinator.get("obj", deadline=value)
        finally:
            await cluster.close()

    asyncio.run(scenario())


@pytest.mark.parametrize("value, error", REFUSED)
def test_gateway_get(monkeypatch, value, error):
    async def scenario():
        fed = await Federation.start()
        await fed.gateway.put("obj", payload_bytes(1000))
        no_rpc(monkeypatch)
        try:
            with pytest.raises(error, match="deadline"):
                await fed.gateway.get("obj", deadline=value)
        finally:
            await fed.close()

    asyncio.run(scenario())


@pytest.mark.parametrize("value, error", REFUSED)
def test_within_deadline(value, error):
    started = []

    async def read():
        started.append(True)

    with pytest.raises(error, match="deadline"):
        asyncio.run(within_deadline(value, read))
    assert started == []
