"""Wire-protocol tests: round-trips, malformed frames, payload framing."""

import asyncio
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.serve import protocol as proto
from repro.serve.errors import (
    DeadlineExceededError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.serve.lineserver import start_line_server
from repro.serve.protocol import (
    MAX_PAYLOAD_BYTES,
    PROTOCOL_VERSION,
    AckResponse,
    BlockDeleteRequest,
    BlockFetchRequest,
    BlockListRequest,
    BlockMapResponse,
    BlockPutRequest,
    ClusterJoinRequest,
    ClusterLeaveRequest,
    ClusterRepairStatusRequest,
    ClusterSnapshotRequest,
    ErrorResponse,
    FetchStripeRequest,
    GetRequest,
    KeyListResponse,
    MetricsRequest,
    MetricsResponse,
    MetricsSnapshotRequest,
    MetricsSnapshotResponse,
    NodeAdminRequest,
    ObjectInfoResponse,
    PingRequest,
    PongResponse,
    ProtocolError,
    PutRequest,
    RemoteError,
    RepairRequest,
    StatsRequest,
    StatsResponse,
    StatusRequest,
    StatusResponse,
    StripeBlocksResponse,
    encode_request,
    error_code,
    exception_for,
    parse_request,
    parse_response,
    payload_size,
)
from repro.storage.archive import DataLossError
from repro.storage.device import TransientUnavailableError

# JSON-safe building blocks.
names = st.text(min_size=1, max_size=40)
keys = st.text(min_size=1, max_size=60)
# Arbitrary bytes, with the ones a text framing would trip on drawn
# often: empty, newlines, base64 padding, 0xFF.
payloads = st.one_of(
    st.binary(max_size=512),
    st.sampled_from([b"", b"\n", b"\n\n{}\n", b"=", b"==\xff", b"\xff" * 7]),
)
# A ``block.put`` batch: 0, 1 or many entries, ``bytes`` values or the
# ``memoryview`` rows the coordinator sends.
block_batches = st.dictionaries(
    keys, st.one_of(payloads, payloads.map(memoryview)), max_size=8
)
json_dicts = st.dictionaries(
    st.text(max_size=20),
    st.one_of(st.integers(), st.text(max_size=20), st.booleans()),
    max_size=5,
)

# One strategy per request type — every op is covered (the coverage
# tests below compare these sets against the registries).
COVERED_REQUESTS = {
    PingRequest,
    StatsRequest,
    MetricsRequest,
    MetricsSnapshotRequest,
    PutRequest,
    GetRequest,
    StatusRequest,
    RepairRequest,
    BlockPutRequest,
    BlockFetchRequest,
    BlockDeleteRequest,
    BlockListRequest,
    NodeAdminRequest,
    ClusterRepairStatusRequest,
    ClusterSnapshotRequest,
    ClusterJoinRequest,
    ClusterLeaveRequest,
    FetchStripeRequest,
}
COVERED_RESPONSES = {
    PongResponse,
    StatsResponse,
    MetricsResponse,
    MetricsSnapshotResponse,
    ObjectInfoResponse,
    BlockMapResponse,
    KeyListResponse,
    AckResponse,
    StatusResponse,
    StripeBlocksResponse,
    ErrorResponse,
}
request_strategies = st.one_of(
    st.just(PingRequest()),
    st.just(StatsRequest()),
    st.just(MetricsRequest()),
    st.just(MetricsSnapshotRequest()),
    st.builds(PutRequest, name=names, payload=payloads),
    st.builds(
        GetRequest,
        name=names,
        want_payload=st.booleans(),
        deadline=st.one_of(
            st.none(),
            st.floats(min_value=0.001, max_value=1e6, allow_nan=False),
        ),
    ),
    st.just(StatusRequest()),
    st.builds(RepairRequest, mode=st.sampled_from(RepairRequest._MODES)),
    st.builds(BlockPutRequest, blocks=block_batches),
    st.builds(
        BlockFetchRequest,
        keys=st.lists(keys, max_size=8).map(tuple),
    ),
    st.builds(
        BlockDeleteRequest,
        keys=st.lists(keys, max_size=8).map(tuple),
    ),
    st.builds(BlockListRequest, prefix=st.text(max_size=20)),
    st.builds(
        NodeAdminRequest,
        action=st.sampled_from(NodeAdminRequest._ACTIONS),
        delay_seconds=st.one_of(
            st.none(),
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        ),
    ),
    st.just(ClusterRepairStatusRequest()),
    st.just(ClusterSnapshotRequest()),
    st.builds(
        ClusterJoinRequest,
        node_id=names,
        host=names,
        port=st.integers(min_value=1, max_value=65535),
    ),
    st.builds(ClusterLeaveRequest, node_id=names),
    st.builds(
        FetchStripeRequest,
        name=names,
        seq=st.integers(min_value=0, max_value=2**20),
    ),
)

# One strategy per response type likewise.
response_strategies = st.one_of(
    st.just(PongResponse()),
    st.builds(StatsResponse, stats=json_dicts),
    st.builds(MetricsResponse, metrics=st.text(max_size=100)),
    st.builds(
        MetricsSnapshotResponse,
        role=st.sampled_from(["coordinator", "node", "gateway"]),
        source=names,
        snapshot=json_dicts,
    ),
    st.builds(
        ObjectInfoResponse,
        name=names,
        size=st.integers(min_value=0, max_value=2**40),
        sha256=st.text(max_size=64),
        payload=st.one_of(st.none(), payloads),
    ),
    st.builds(
        BlockMapResponse,
        blocks=st.dictionaries(keys, payloads, max_size=6),
        missing=st.lists(keys, max_size=4).map(tuple),
    ),
    st.builds(
        KeyListResponse, keys=st.lists(keys, max_size=8).map(tuple)
    ),
    st.builds(AckResponse, info=json_dicts),
    st.builds(StatusResponse, status=json_dicts),
    st.builds(
        StripeBlocksResponse,
        name=names,
        seq=st.integers(min_value=0, max_value=2**20),
        payload_length=st.integers(min_value=0, max_value=2**30),
        blocks=st.dictionaries(
            st.integers(min_value=0, max_value=95).map(str),
            payloads,
            max_size=6,
        ),
    ),
    st.builds(
        ErrorResponse,
        code=st.sampled_from(
            ["overloaded", "deadline", "not_found", "internal"]
        ),
        error=st.text(min_size=1, max_size=30),
        message=st.text(max_size=80),
    ),
)

request_ids = st.one_of(
    st.none(), st.integers(min_value=0, max_value=2**31), names
)


def split(data: bytes) -> tuple[bytes, bytes]:
    """Encoded frame -> (header line, payload), read as a stream reader
    does: up to the first newline, then ``payload_size`` bytes."""
    line, newline, rest = data.partition(b"\n")
    line += newline
    assert payload_size(line) == len(rest)
    return line, rest


class TestRequestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(request=request_strategies, request_id=request_ids)
    def test_every_request_type_round_trips(self, request, request_id):
        data = encode_request(request, request_id=request_id)
        parsed, envelope = parse_request(*split(data))
        assert parsed == request
        assert type(parsed) is type(request)
        assert envelope.id == request_id

    @settings(max_examples=50, deadline=None)
    @given(request=request_strategies)
    def test_trace_context_rides_the_envelope(self, request):
        trace = {"trace_id": "abc123", "span_id": "def456"}
        data = encode_request(request, trace=trace)
        _, envelope = parse_request(*split(data))
        assert envelope.trace == trace

    @settings(max_examples=100, deadline=None)
    @given(blocks=block_batches)
    @example(blocks={})
    @example(blocks={"k": memoryview(b"\n\xff=")[1:]})
    @example(blocks={f"obj/0/{i}": bytes([i]) * i for i in range(32)})
    def test_block_put_batch_arrives_byte_exact_and_in_order(self, blocks):
        line, payload = split(encode_request(BlockPutRequest(blocks=blocks)))
        assert payload == b"".join(bytes(v) for v in blocks.values())
        parsed, _ = parse_request(line, payload)
        assert list(parsed.blocks.items()) == [
            (key, bytes(data)) for key, data in blocks.items()
        ]
        assert all(type(data) is bytes for data in parsed.blocks.values())

    def test_all_registered_ops_covered_by_strategy(self):
        # If a new request type lands without a strategy above, fail
        # loudly instead of silently losing property coverage.
        assert COVERED_REQUESTS == set(proto._REQUEST_TYPES.values())


class TestResponseRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(response=response_strategies)
    def test_every_response_type_round_trips(self, response):
        data = proto.encode_frame(response.to_frame(request_id=7))
        parsed, frame = parse_response(*split(data))
        assert parsed == response
        assert type(parsed) is type(response)
        assert frame["v"] == PROTOCOL_VERSION
        assert frame["kind"] == response.kind
        assert frame["id"] == 7

    def test_payload_bytes_travel_raw_after_the_header_line(self):
        blocks = {"a": b"\n\xff=", "b": b"", "c": b"{}\n"}
        data = proto.encode_frame(
            BlockMapResponse(blocks=blocks, missing=("d",)).to_frame()
        )
        line, payload = split(data)
        assert payload == b"\n\xff={}\n"
        header = json.loads(line)
        assert header["blocks"] == {"a": 3, "b": 0, "c": 3}
        assert line.endswith(b',"bin":6}\n')
        # A frame without buffer fields is the header line alone.
        assert split(proto.encode_frame(PongResponse().to_frame())) == (
            b'{"v":%d,"ok":true,"kind":"pong","pong":true}\n'
            % PROTOCOL_VERSION,
            b"",
        )

    def test_views_encode_like_the_bytes_they_cover(self):
        raw = bytes(range(256))
        view = memoryview(raw)[16:48]
        assert encode_request(
            BlockPutRequest(blocks={"k": view})
        ) == encode_request(BlockPutRequest(blocks={"k": raw[16:48]}))

    def test_all_registered_kinds_covered_by_strategy(self):
        assert COVERED_RESPONSES == set(proto._RESPONSE_TYPES.values())

    def test_unknown_kind_is_a_protocol_error(self):
        with pytest.raises(ProtocolError):
            parse_response(b'{"ok": true, "kind": "wat"}')


def versioned(**fields) -> bytes:
    """A hand-written header line (compact) at the current version."""
    frame = {"v": PROTOCOL_VERSION, **fields}
    return json.dumps(frame, separators=(",", ":")).encode() + b"\n"


class TestMalformedFrames:
    def check(self, line, code="bad_request", payload=b""):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(line, payload)
        assert excinfo.value.code == code
        return excinfo.value

    def test_invalid_json(self):
        self.check(b"{nope")

    def test_non_object_frame(self):
        self.check(b"[1, 2, 3]")

    def test_missing_op(self):
        self.check(versioned(), code="unknown_op")

    def test_unknown_op(self):
        exc = self.check(versioned(op="explode", id=7), code="unknown_op")
        # The reply can still be correlated and versioned.
        assert exc.request_id == 7

    def test_unsupported_future_version(self):
        self.check(
            json.dumps({"v": 99, "op": "ping"}).encode(),
            code="unsupported_version",
        )

    def test_bad_version_type(self):
        self.check(b'{"v": "one", "op": "ping"}')
        self.check(b'{"v": -1, "op": "ping"}')
        self.check(b'{"v": true, "op": "ping"}')

    def test_bad_id_type(self):
        self.check(versioned(op="ping", id=[1]))

    def test_bad_trace_shape(self):
        self.check(versioned(op="ping", trace="t1"))
        self.check(versioned(op="ping", trace={"trace_id": 5}))

    def test_missing_required_field(self):
        self.check(versioned(op="get"))
        self.check(versioned(op="cluster.leave"))
        self.check(versioned(op="block.put"))

    @pytest.mark.parametrize("deadline", [0, -1, -0.5])
    def test_non_positive_get_deadline(self, deadline):
        exc = self.check(
            versioned(op="get", id=9, name="o", deadline=deadline)
        )
        assert exc.request_id == 9
        assert "deadline" in str(exc)

    def test_mistyped_field(self):
        self.check(versioned(op="get", name=42))
        self.check(versioned(op="block.fetch", keys="k"))
        self.check(versioned(op="block.delete", keys="k"))
        self.check(versioned(op="block.delete", keys=["k", 1]))

    def test_payload_field_must_be_a_byte_length(self):
        # ``blocks`` is an object of byte lengths: the base64 text a v1
        # peer would send, or any other value, is a type error ...
        for bad in ("eA==", -1, 1.5, True, None, [1], {"a": 1}):
            exc = self.check(
                versioned(op="block.put", id=4, blocks={"k": bad, "l": 1}),
            )
            assert exc.request_id == 4
            assert "byte length" in str(exc)
        # ... so is a ``blocks`` that is no object at all (the v3 shape
        # of a length included) ...
        for bad in (3, "k", ["k"], None, True):
            exc = self.check(versioned(op="block.put", id=4, blocks=bad))
            assert exc.request_id == 4
            assert "object of byte lengths" in str(exc)
        # ... and so are per-key lengths that do not add up to "bin".
        for lengths in ({"k": 1, "l": 1}, {"k": 2, "l": 2}, {"k": 4}, {}):
            exc = self.check(
                versioned(op="block.put", id=4, blocks=lengths, bin=3),
                payload=b"abc",
            )
            assert exc.request_id == 4

    def test_bad_admin_action(self):
        self.check(versioned(op="node.admin", action="reboot"))


class TestVersioning:
    def test_any_other_version_is_refused_with_its_id(self):
        for frame in (
            {"op": "ping", "id": 9},  # the un-versioned v0 shape
            {"v": 0, "op": "ping", "id": 9},
            {"v": 1, "op": "get", "name": "object-000", "id": 9},
            {"v": 1, "op": "block.put", "key": "k", "data": "eA==", "id": 9},
            # v2 named the same ops per tier (cluster.get, sites.put ...):
            # its speakers learn the version moved, not "unknown_op".
            {"v": 2, "op": "cluster.get", "name": "object-000", "id": 9},
            {"v": 2, "op": "ping", "id": 9},
            # v3 wrote and deleted one block per frame and had a
            # ``block.get``: same answer, whether the op survived or not.
            {"v": 3, "op": "block.put", "key": "k", "data": 0, "id": 9},
            {"v": 3, "op": "block.get", "key": "k", "id": 9},
            {"v": 3, "op": "ping", "id": 9},
            {"v": PROTOCOL_VERSION + 1, "op": "ping", "id": 9},
        ):
            with pytest.raises(ProtocolError) as excinfo:
                parse_request(json.dumps(frame).encode() + b"\n")
            assert excinfo.value.code == "unsupported_version", frame
            assert excinfo.value.request_id == 9
        # ... and the refusal itself is a current-version error frame.
        reply = ErrorResponse.from_exception(excinfo.value).to_frame(
            request_id=excinfo.value.request_id
        )
        assert reply["v"] == PROTOCOL_VERSION
        assert (reply["ok"], reply["kind"], reply["id"]) == (False, "error", 9)

    def test_frames_carry_the_envelope(self):
        frame = PongResponse().to_frame(request_id="r1")
        assert frame["v"] == PROTOCOL_VERSION
        assert frame["kind"] == "pong"
        assert frame["id"] == "r1"


def put_header(data, bin) -> bytes:
    """A hand-written one-block ``block.put`` header line (id 5):
    ``data`` is the length it claims for key ``"k"``."""
    return versioned(op="block.put", id=5, blocks={"k": data}, bin=bin)


class TestPayloadFraming:
    """Lengths in the header versus bytes behind it."""

    def refused(self, line, payload=b""):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(line, payload)
        exc = excinfo.value
        assert exc.code == "bad_request"
        assert exc.request_id == 5
        return str(exc)

    def test_well_formed_hand_written_frame_parses(self):
        line = put_header(data=3, bin=3)
        assert payload_size(line) == 3
        request, envelope = parse_request(line, b"\n\xff=")
        assert request == BlockPutRequest(blocks={"k": b"\n\xff="})
        assert envelope.id == 5

    def test_negative_and_non_integer_lengths(self):
        for bad in (-1, 1.5, "3", True, [3]):
            assert "byte length" in self.refused(
                put_header(data=bad, bin=3), b"abc"
            )
        for bad in (-3, 1.5, "3", True, [3]):
            line = put_header(data=0, bin=bad)
            assert payload_size(line) == 0  # not a total a reader takes
            assert "non-negative integer" in self.refused(line)

    def test_mismatched_lengths(self):
        # field claims more than the payload holds
        assert "3 payload bytes left, got 4" in self.refused(
            put_header(data=4, bin=3), b"abc"
        )
        # payload bytes no field claims
        assert "no field claims" in self.refused(
            put_header(data=2, bin=3), b"abc"
        )
        assert "no field claims" in self.refused(
            versioned(op="ping", id=5, bin=3), b"abc"
        )
        # declared total versus bytes actually handed over
        assert "declares 3 payload bytes" in self.refused(
            put_header(data=3, bin=3), b"ab"
        )
        # a total that is not the header's last key is not taken by a
        # reader, and the parse says so
        line = (
            b'{"v":%d,"op":"block.put","id":5,"bin":3,"blocks":{"k":3}}\n'
            % PROTOCOL_VERSION
        )
        assert payload_size(line) == 0
        assert "written last" in self.refused(line)
        # dict[str, bytes]: every value is checked the same way
        with pytest.raises(ProtocolError, match="2 payload bytes left, got 9"):
            parse_response(
                b'{"v":%d,"ok":true,"kind":"blocks","id":5,'
                b'"blocks":{"a":1,"b":9},"bin":3}\n' % PROTOCOL_VERSION,
                b"abc",
            )

    def test_over_cap_total_is_refused_before_any_read(self):
        line = put_header(data=MAX_PAYLOAD_BYTES + 1, bin=MAX_PAYLOAD_BYTES + 1)
        with pytest.raises(ProtocolError) as excinfo:
            payload_size(line)
        assert "cap" in str(excinfo.value)
        assert excinfo.value.request_id == 5
        with pytest.raises(ProtocolError, match="cap"):
            encode_request(
                BlockPutRequest(
                    blocks={"k": memoryview(bytearray(MAX_PAYLOAD_BYTES + 1))}
                )
            )

    def test_only_the_top_level_last_key_is_a_total(self):
        # "bin" inside a nested object or a string is just data.
        for line in (
            b'{"v":%d,"ok":true,"kind":"ack","info":{"a":1,"bin":5}}\n',
            b'{"v":%d,"ok":true,"kind":"metrics","metrics":",\\"bin\\":5}"}\n',
            b'{"v":%d,"ok":true,"kind":"keys","keys":["x"],"xbin":5}\n',
        ):
            line %= PROTOCOL_VERSION
            assert payload_size(line) == 0
            parse_response(line)

    def test_live_connection_survives_every_skippable_bad_frame(self):
        """Bad lengths get a typed error with the sender's id, and —
        because the declared payload was read off the stream — the
        next frame on the same connection is served."""

        async def check():
            stored = {}

            async def handler(request, envelope):
                if isinstance(request, BlockPutRequest):
                    stored.update(request.blocks)
                return PongResponse()

            server = await start_line_server(handler, port=0)
            host, port = server.sockets[0].getsockname()[:2]
            reader, writer = await asyncio.open_connection(host, port)
            bad = [
                put_header(data=-1, bin=3) + b"abc",
                put_header(data="3", bin=3) + b"abc",
                put_header(data=4, bin=3) + b"abc",
                put_header(data=2, bin=3) + b"a\nc",
                versioned(op="block.put", id=5, blocks=3, bin=3) + b"abc",
                versioned(
                    op="block.put", id=5, blocks={"k": 1, "l": 1}, bin=3
                )
                + b"a\nc",
                b'{"v":1,"op":"ping","id":5}\n',
                b'{"op":"ping","id":5}\n',
            ]
            for frame in bad:
                writer.write(frame)
                writer.write(
                    encode_request(
                        BlockPutRequest(blocks={"good": b"\n\xff"}),
                        request_id=6,
                    )
                )
                await writer.drain()
                replies = {}
                for _ in range(2):
                    reply = json.loads(await reader.readline())
                    replies[reply["id"]] = reply
                assert replies[5]["ok"] is False, frame
                assert replies[5]["code"] in (
                    "bad_request",
                    "unsupported_version",
                )
                assert replies[6]["kind"] == "pong", frame
                assert stored.pop("good") == b"\n\xff"
            writer.close()
            server.close()
            await server.wait_closed()

        asyncio.run(check())

    def test_reply_over_the_cap_becomes_a_typed_error(self, monkeypatch):
        monkeypatch.setattr(proto, "MAX_PAYLOAD_BYTES", 8)

        async def check():
            async def handler(request, envelope):
                return BlockMapResponse(blocks={"k": b"x" * 9})

            server = await start_line_server(handler, port=0)
            host, port = server.sockets[0].getsockname()[:2]
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                encode_request(BlockFetchRequest(keys=("k",)), request_id=3)
            )
            await writer.drain()
            reply = json.loads(await reader.readline())
            assert (reply["id"], reply["ok"], reply["code"]) == (
                3, False, "bad_request"
            )
            assert "cap" in reply["message"]
            writer.close()
            server.close()
            await server.wait_closed()

        asyncio.run(check())

    def test_unskippable_frames_are_answered_then_hung_up_on(self):
        async def check(frame, expect_id):
            async def handler(request, envelope):
                return PongResponse()

            server = await start_line_server(handler, port=0)
            host, port = server.sockets[0].getsockname()[:2]
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(versioned(op="ping", id=1) + frame)
            await writer.drain()
            replies = [json.loads(await reader.readline()) for _ in range(2)]
            by_id = {r.get("id"): r for r in replies}
            assert by_id[1]["kind"] == "pong"
            error = by_id[expect_id]
            assert (error["ok"], error["code"]) == (False, "bad_request")
            assert await reader.read() == b""  # server hung up
            writer.close()
            server.close()
            await server.wait_closed()
            return error["message"]

        over_cap = put_header(data=1, bin=MAX_PAYLOAD_BYTES + 1)
        assert "cap" in asyncio.run(check(over_cap, 5))
        long_line = (
            versioned(op="block.list", id=5)[:-2]
            + b',"prefix":"'
            + b"k" * (proto.MAX_LINE_BYTES + 1)
            + b'"}\n'
        )
        assert "limit" in asyncio.run(check(long_line, None))


class TestErrorTaxonomy:
    CASES = [
        (ServiceOverloadedError("q"), "overloaded"),
        (DeadlineExceededError("d"), "deadline"),
        (ServiceClosedError("c"), "closed"),
        (DataLossError("obj", 0, [1, 2]), "data_loss"),
        (TransientUnavailableError("dark"), "unavailable"),
        (KeyError("missing"), "not_found"),
        (ValueError("bad"), "bad_request"),
        (RuntimeError("boom"), "internal"),
        (ProtocolError("x", code="unknown_op"), "unknown_op"),
        (RemoteError("y", code="data_loss"), "data_loss"),
    ]

    @pytest.mark.parametrize(
        "exc,code", CASES, ids=[c for _, c in CASES]
    )
    def test_every_exception_maps_to_a_stable_code(self, exc, code):
        assert error_code(exc) == code

    def test_exception_for_rebuilds_faithful_types(self):
        assert isinstance(
            exception_for("overloaded", "m"), ServiceOverloadedError
        )
        assert isinstance(
            exception_for("deadline", "m"), DeadlineExceededError
        )
        assert isinstance(
            exception_for("closed", "m"), ServiceClosedError
        )
        assert isinstance(exception_for("not_found", "m"), KeyError)
        assert isinstance(
            exception_for("unavailable", "m"),
            TransientUnavailableError,
        )
        remote = exception_for("data_loss", "m")
        assert isinstance(remote, RemoteError)
        assert remote.code == "data_loss"
        assert not remote.retryable
        assert exception_for("overloaded", "m")  # sanity: truthy

    def test_retryable_codes(self):
        assert RemoteError("m", code="overloaded").retryable
        assert RemoteError("m", code="unavailable").retryable
        assert not RemoteError("m", code="internal").retryable

    def test_error_response_raise_remote_round_trip(self):
        response = ErrorResponse.from_exception(
            TransientUnavailableError("node dark")
        )
        with pytest.raises(TransientUnavailableError):
            response.raise_remote()
