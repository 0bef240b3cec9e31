"""What ``perf/tests`` pins about the recovery path, in tier-1.

The benchmark attributes time by wrapping ``PlanCache.schedule`` (from
``repro.serve.plancache``), ``TornadoCodec.decode_blocks_with_schedule``
and ``CoordinatorWal.append`` and asserts their call counts; a slip
there should show up under ``pytest -x -q`` too.
"""

import functools

import repro.core
import repro.serve.plancache
from repro.cluster import CoordinatorWal
from repro.core import TornadoCodec

from .test_repair_burst import STRIPE, Cluster, payload_bytes, run


def counted(monkeypatch, owner, name, calls):
    original = owner.__dict__[name]

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def test_the_benchmark_patches_the_class_the_codec_schedules_with():
    assert repro.serve.plancache.PlanCache is repro.core.PlanCache


def test_calls_per_read_put_and_repair(monkeypatch, tmp_path):
    calls = {}
    PlanCache = repro.serve.plancache.PlanCache
    counted(monkeypatch, PlanCache, "schedule", calls)
    counted(monkeypatch, TornadoCodec, "decode_blocks_with_schedule", calls)
    counted(monkeypatch, TornadoCodec, "replay_schedule", calls)
    counted(monkeypatch, CoordinatorWal, "append", calls)
    stripes = 3

    async def check():
        cluster = await Cluster.start(4, wal_dir=tmp_path)
        coord = cluster.coordinator
        payload = payload_bytes(stripes * STRIPE, seed=5)

        calls.clear()
        await coord.put("obj", payload)
        assert calls == {"append": 1}

        calls.clear()
        got = await coord.get("obj", want_payload=True)
        assert got.payload == payload
        assert calls == {}  # healthy: no plan lookup, no replay

        cluster.kill("node-2")
        calls.clear()
        got = await coord.get("obj", want_payload=True)
        assert got.payload == payload
        assert calls == {
            "schedule": stripes,
            "decode_blocks_with_schedule": stripes,
            "replay_schedule": stripes,  # the one replay underneath
        }
        assert coord.plans.stats()["misses"] <= stripes

        calls.clear()
        left = await coord.deregister("node-2")
        assert left["rebuilt_blocks"] == stripes * 24
        assert calls == {
            # the leave, then one per repair wave: the three stripes
            # fit in one, and their records share its append
            "append": 2,
            "schedule": stripes,
            "replay_schedule": stripes,
        }
        await cluster.close()

    run(check())
