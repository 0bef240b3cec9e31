"""What this machine can do right now, measured beside every run.

Four calibrations run inside each workload process before its rounds, so
a slow phase of the machine shows up next to the numbers it distorted,
and each layer can be read against a floor it cannot beat:

* ``ceiling.xor_MBps`` / ``ceiling.memcpy_MBps`` — ``np.bitwise_xor`` and
  a plain copy over 8 MiB buffers: the bound on ``core.codec`` encode
  and replay;
* ``ceiling.b64json_MBps`` — base64 + JSON round trip of one 36 864 B
  payload: the floor of today's wire format, per hop;
* ``ceiling.loopback_rtt_us`` — a 64 B line echoed over a bare asyncio
  loopback connection: the floor of one RPC.
"""

from __future__ import annotations

import asyncio
import base64
import json
import statistics
from time import perf_counter

import numpy as np

BUFFER_BYTES = 8 << 20
PAYLOAD_BYTES = 36_864
LINE = b"x" * 63 + b"\n"


def _best_mbps(fn, nbytes: int, repeats: int) -> float:
    """Throughput of the fastest of ``repeats`` calls (a ceiling)."""
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        fn()
        best = min(best, perf_counter() - start)
    return nbytes / 1e6 / best


def xor_mbps() -> float:
    a = np.full(BUFFER_BYTES, 0x5A, dtype=np.uint8)
    b = np.full(BUFFER_BYTES, 0xA5, dtype=np.uint8)
    out = np.empty_like(a)
    return _best_mbps(lambda: np.bitwise_xor(a, b, out=out), BUFFER_BYTES, 7)


def memcpy_mbps() -> float:
    a = np.full(BUFFER_BYTES, 0x5A, dtype=np.uint8)
    out = np.empty_like(a)
    return _best_mbps(lambda: np.copyto(out, a), BUFFER_BYTES, 7)


def b64json_mbps() -> float:
    payload = bytes(range(256)) * (PAYLOAD_BYTES // 256)

    def round_trip() -> None:
        line = json.dumps(
            {"payload": base64.b64encode(payload).decode("ascii")}
        )
        if base64.b64decode(json.loads(line)["payload"]) != payload:
            raise AssertionError("base64/JSON round trip corrupted bytes")

    return _best_mbps(round_trip, PAYLOAD_BYTES, 50)


async def _echo_rtts(count: int) -> list[float]:
    async def echo(reader, writer):
        while line := await reader.readline():
            writer.write(line)
            await writer.drain()
        writer.close()

    server = await asyncio.start_server(echo, "127.0.0.1", 0)
    host, port = server.sockets[0].getsockname()[:2]
    reader, writer = await asyncio.open_connection(host, port)
    rtts = []
    try:
        for _ in range(count):
            start = perf_counter()
            writer.write(LINE)
            await writer.drain()
            await reader.readline()
            rtts.append(perf_counter() - start)
    finally:
        writer.close()
        await writer.wait_closed()
        server.close()
        await server.wait_closed()
    return rtts


def loopback_rtt_us(count: int = 1000) -> float:
    rtts = asyncio.run(_echo_rtts(count))
    return 1e6 * statistics.median(rtts[count // 10:])


def measure() -> dict[str, float]:
    return {
        "ceiling.xor_MBps": xor_mbps(),
        "ceiling.memcpy_MBps": memcpy_mbps(),
        "ceiling.b64json_MBps": b64json_mbps(),
        "ceiling.loopback_rtt_us": loopback_rtt_us(),
    }
