"""Wire-protocol tests: round-trips, malformed and torn frames, payload
framing."""

import asyncio
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.codec import BlockRun
from repro.serve import lineserver, link
from repro.serve import protocol as proto
from repro.serve.errors import (
    DeadlineExceededError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.serve.lineserver import FrameSplitter, start_line_server
from repro.serve.protocol import (
    ENVELOPE,
    MAX_HEADER_BYTES,
    MAX_PAYLOAD_BYTES,
    PROTOCOL_VERSION,
    AckResponse,
    BlockDeleteRequest,
    BlockFetchRequest,
    BlockListRequest,
    BlockRunResponse,
    BlockPutRequest,
    ClusterJoinRequest,
    ClusterLeaveRequest,
    ClusterRepairStatusRequest,
    ClusterSnapshotRequest,
    ErrorResponse,
    FetchStripeRequest,
    GetRequest,
    KeyListResponse,
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
    body_size,
    encode_frame,
    encode_request,
    error_code,
    exception_for,
    frame_id,
    parse_request,
    parse_response,
)
from repro.storage.archive import DataLossError
from repro.storage.device import TransientUnavailableError

from .wire import BOGUS_OP, OPS, block_put, frame, read_reply, reply_dict

# Building blocks: any text for a name, any but NUL (the wire's key
# separator) for a key.
names = st.text(min_size=1, max_size=40)
keys = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\0"),
    min_size=1,
    max_size=60,
)
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
# A run of blocks: empty, zero-length blocks among them, or one whose
# sizes do not sum to its bytes (the wire carries it; a reader refuses it).
u32s = st.integers(min_value=0, max_value=2**32 - 1)
runs = st.one_of(
    st.lists(payloads, max_size=8).map(BlockRun.of),
    st.builds(BlockRun, st.lists(u32s, max_size=4).map(tuple), payloads),
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
    MetricsSnapshotResponse,
    ObjectInfoResponse,
    BlockRunResponse,
    KeyListResponse,
    AckResponse,
    StatusResponse,
    StripeBlocksResponse,
    ErrorResponse,
}
request_strategies = st.one_of(
    st.just(PingRequest()),
    st.just(StatsRequest()),
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
    st.builds(BlockPutRequest.of, block_batches),
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
        BlockRunResponse,
        blocks=runs,
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
        nodes=st.lists(u32s, max_size=6).map(tuple),
        blocks=runs,
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

request_ids = st.integers(min_value=0, max_value=2**64 - 1)
hex_ids = st.binary(min_size=8, max_size=8).map(bytes.hex)


class TestRequestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(request=request_strategies, request_id=request_ids)
    def test_every_request_type_round_trips(self, request, request_id):
        data = encode_request(request, request_id=request_id)
        parsed, envelope = parse_request(data)
        assert parsed == request
        assert type(parsed) is type(request)
        assert envelope.id == request_id
        assert envelope.trace is None

    @settings(max_examples=50, deadline=None)
    @given(request=request_strategies, trace_id=hex_ids, span_id=hex_ids)
    def test_trace_context_rides_the_envelope(self, request, trace_id, span_id):
        trace = {"trace_id": trace_id, "span_id": span_id}
        data = encode_request(request, trace=trace)
        _, envelope = parse_request(data)
        assert envelope.trace == trace

    @settings(max_examples=100, deadline=None)
    @given(blocks=block_batches)
    @example(blocks={})
    @example(blocks={"k": memoryview(b"\n\xff=")[1:]})
    @example(blocks={f"obj/0/{i}": bytes([i]) * i for i in range(32)})
    def test_block_put_batch_arrives_byte_exact_and_in_order(self, blocks):
        data = encode_request(BlockPutRequest.of(blocks))
        assert data.endswith(b"".join(bytes(v) for v in blocks.values()))
        parsed, _ = parse_request(data)
        assert parsed.keys == tuple(blocks)
        assert type(parsed.blocks.data) is bytes
        assert parsed.blocks.split(len(blocks)) == [
            bytes(data) for data in blocks.values()
        ]

    def test_a_put_whose_keys_and_run_disagree_is_refused(self):
        for keys, run in (
            (("a",), BlockRun()),
            (("a", "b"), BlockRun.of([b"x"])),
            (("a",), BlockRun((2,), b"x")),
            ((), BlockRun((), b"x")),
        ):
            with pytest.raises(ProtocolError, match="'block.put' names"):
                BlockPutRequest(keys=keys, blocks=run)

    def test_a_key_holding_nul_is_refused_at_encode(self):
        for request in (
            BlockPutRequest.of({"a\0b": b"x"}),
            BlockPutRequest.of({"a": b"x", "\0": b""}),
            BlockFetchRequest(keys=("a", "b\0")),
        ):
            with pytest.raises(ProtocolError, match="NUL"):
                encode_request(request)

    def test_all_registered_ops_covered_by_strategy(self):
        # If a new request type lands without a strategy above, fail
        # loudly instead of silently losing property coverage.
        assert COVERED_REQUESTS == set(proto._REQUEST_TYPES.values())


class TestResponseRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(response=response_strategies, request_id=request_ids)
    def test_every_response_type_round_trips(self, response, request_id):
        data = encode_frame(response, request_id=request_id)
        parsed, envelope = parse_response(data)
        assert parsed == response
        assert type(parsed) is type(response)
        assert data[0] == PROTOCOL_VERSION
        assert envelope == (request_id, None)

    @pytest.mark.parametrize("flags", [1, 2, 3])
    def test_a_reply_sets_no_flag(self, flags):
        # Bit 1 is a request's trace context; bit 2 once marked spans
        # shipped back in a reply, which no tier sends any more.
        with pytest.raises(ProtocolError, match="flags") as excinfo:
            parse_response(
                frame(PongResponse.wire_code, "?", True, flags=flags, id=4)
            )
        assert excinfo.value.code == "bad_request"
        assert excinfo.value.request_id == 4

    def test_payload_bytes_travel_raw_after_the_header(self):
        run = BlockRun.of([b"\n\xff=", b"", b"{}\n"])
        data = encode_frame(BlockRunResponse(blocks=run, missing=("d",)))
        # envelope | block count, run bytes, missing count and bytes
        # | block sizes | missing | payload
        header = struct.pack("<IIII", 3, 6, 1, 1)
        header += struct.pack("<3I", 3, 0, 3) + b"d"
        assert data[ENVELOPE.size :] == header + b"\n\xff={}\n"
        assert ENVELOPE.unpack_from(data)[3:5] == (len(header), 6)
        # A frame without buffer fields is the envelope and header alone.
        assert encode_frame(PongResponse()) == frame(
            PongResponse.wire_code, "?", True
        )

    def test_views_encode_like_the_bytes_they_cover(self):
        raw = bytes(range(256))
        view = memoryview(raw)[16:48]
        assert encode_request(
            BlockPutRequest.of({"k": view})
        ) == encode_request(BlockPutRequest.of({"k": raw[16:48]}))

    def test_all_registered_kinds_covered_by_strategy(self):
        assert COVERED_RESPONSES == set(proto._RESPONSE_TYPES.values())

    def test_unknown_kind_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="unknown response code 7"):
            parse_response(frame(7, id=3))


class TestMalformedFrames:
    def check(self, data, code="bad_request"):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(data)
        assert excinfo.value.code == code
        return excinfo.value

    def test_bytes_that_are_no_frame(self):
        self.check(b"nope")
        self.check(b"\x05" * (ENVELOPE.size - 1))

    def test_non_object_frame(self):
        self.check(b"[1, 2, 3]")

    def test_missing_op(self):
        self.check(frame(0), code="unknown_op")

    def test_unknown_op(self):
        exc = self.check(frame(BOGUS_OP, id=7), code="unknown_op")
        # The reply can still be correlated and versioned.
        assert exc.request_id == 7

    def test_retired_metrics_op_is_unknown(self):
        # Op 3 rendered Prometheus text on the server; every tier now
        # serves only ``metrics.snapshot`` (op 4).
        exc = self.check(frame(3, id=5), code="unknown_op")
        assert exc.request_id == 5

    def test_unsupported_future_version(self):
        self.check(frame("ping", v=99), code="unsupported_version")

    def test_a_version_5_frame_is_refused(self):
        # Version 5 carried blocks as a key -> bytes map; version 6
        # carries them as one run.
        v5 = bytes([5]) + block_put((3,), b"k", b"abc")[1:]
        exc = self.check(v5, code="unsupported_version")
        assert exc.request_id == 5

    def test_json_header_line_is_an_old_version(self):
        for line in (
            b'{"v": "one", "op": "ping"}\n',
            b'{"v":4,"op":"ping","id":1}\n',
            b"{" + b" " * 64,
        ):
            exc = self.check(line, code="unsupported_version")
            assert exc.request_id is None
            assert "JSON header line" in str(exc)

    def test_id_outside_u64_is_refused_at_encode(self):
        for bad in (-1, 2**64):
            with pytest.raises(ProtocolError, match="cannot encode"):
                encode_request(PingRequest(), request_id=bad)

    def test_bad_trace_shape(self):
        for trace in (
            {"trace_id": "t1", "span_id": "ab" * 8},
            {"trace_id": "ab" * 8},
            {"trace_id": 5, "span_id": "ab" * 8},
            {"trace_id": "ab" * 9, "span_id": "ab" * 8},
        ):
            with pytest.raises(ProtocolError, match="16 hex digits"):
                encode_request(PingRequest(), trace=trace)
        # ... and a reply never carries a trace context.
        with pytest.raises(ProtocolError, match="flags"):
            parse_response(frame(PongResponse.wire_code, "?", True, flags=1))

    def test_missing_required_field(self):
        # A header shorter than its fixed fields, and empty strings
        # where a name is required.
        self.check(frame("get"))
        self.check(frame("get", "I??d", 0, False, False, 0.0))
        self.check(frame("cluster.leave", "I", 0))
        self.check(frame("block.put"))

    @pytest.mark.parametrize("deadline", [0, -1, -0.5])
    def test_non_positive_get_deadline(self, deadline):
        exc = self.check(
            frame("get", "I??d", 1, False, True, deadline, header=b"o", id=9)
        )
        assert exc.request_id == 9
        assert "deadline" in str(exc)

    def test_mistyped_field(self):
        # bytes that do not decode as the field's type
        self.check(frame("get", "I??d", 2, False, False, 0.0, header=b"\xff\xfe"))
        self.check(frame("block.fetch", "II", 2, 1, header=b"k"))
        self.check(frame("block.delete", "II", 1, 3, header=b"k\0l"))
        # a JSON body must be exactly one object
        for body in (b"[1]", b"{} ", b"nope", b"\xff"):
            with pytest.raises(ProtocolError, match="JSON|utf-8"):
                parse_response(
                    frame(AckResponse.wire_code, "?I", True, len(body),
                          header=body)
                )

    def test_payload_field_must_be_a_byte_length(self):
        # Value lengths that claim past the payload, keys that do not
        # match the count, and lengths that leave bytes unclaimed.
        for lengths, keys, payload in (
            ((4,), b"k", b"abc"),
            ((1, 3), b"k\0l", b"abc"),
            ((3,), b"k\0l", b"abc"),
            ((1, 1), b"k", b"ab"),
            ((1,), b"k", b"abc"),
            ((), b"", b"abc"),
        ):
            exc = self.check(block_put(lengths, keys, payload, id=4))
            assert exc.request_id == 4

    def test_bad_admin_action(self):
        self.check(frame("node.admin", "I?d", 6, False, 0.0, header=b"reboot"))


class TestVersioning:
    @settings(max_examples=50, deadline=None)
    @given(
        version=st.integers(0, 255).filter(lambda v: v != PROTOCOL_VERSION),
        request_id=request_ids,
        op=st.sampled_from(sorted(OPS)),
    )
    def test_any_other_version_is_refused_with_its_id(
        self, version, request_id, op
    ):
        if version == ord("{"):
            return  # the first byte of a JSON line: refused without an id
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(frame(op, v=version, id=request_id))
        assert excinfo.value.code == "unsupported_version"
        assert excinfo.value.request_id == request_id
        # ... and the refusal itself is a current-version error frame.
        reply = encode_frame(
            ErrorResponse.from_exception(excinfo.value),
            request_id=excinfo.value.request_id,
        )
        assert reply_dict(reply) | {"message": ""} == {
            "v": PROTOCOL_VERSION,
            "ok": False,
            "kind": "error",
            "code": "unsupported_version",
            "error": "BadRequest",
            "message": "",
            **({"id": request_id} if request_id else {}),
        }

    def test_codes_are_the_documented_table(self):
        # docs/SERVE.md § "Wire format"; a code that moves is a new
        # protocol version.  Op 3 and kind 131 (the retired Prometheus
        # text op) stay unused.
        assert OPS == {
            "ping": 1, "stats": 2, "metrics.snapshot": 4,
            "put": 5, "get": 6, "status": 7, "repair": 8, "block.put": 9,
            "block.fetch": 10, "block.delete": 11, "block.list": 12,
            "node.admin": 13, "cluster.repair_status": 14,
            "cluster.snapshot": 15, "cluster.join": 16, "cluster.leave": 17,
            "cluster.fetch_stripe": 18,
        }
        assert {
            cls.kind: code for code, cls in proto._RESPONSE_TYPES.items()
        } == {
            "error": 128, "pong": 129, "stats": 130,
            "metrics_snapshot": 132, "object": 133, "blocks": 134,
            "stripe": 135, "keys": 136, "ack": 137, "status": 138,
        }

    def test_frames_carry_the_envelope(self):
        data = encode_frame(PongResponse(), request_id=12)
        version, flags, code, hlen, plen, request_id, ids = (
            ENVELOPE.unpack_from(data)
        )
        assert (version, flags, code) == (
            PROTOCOL_VERSION, 0, PongResponse.wire_code
        )
        assert (hlen, plen, request_id, ids) == (1, 0, 12, bytes(16))
        assert frame_id(data) == 12


def mutations(data: bytes):
    """Every truncation of ``data``, each length field flipped up and
    down, and the payload declared past the cap."""
    for cut in range(len(data)):
        yield data[:cut]
    for offset in (4, 8):  # header length, payload length
        (size,) = struct.unpack_from("<I", data, offset)
        for changed in (size + 1, size - 1 if size else 7, size ^ 0xFF):
            yield data[:offset] + struct.pack("<I", changed) + data[offset + 4 :]
    yield data[:8] + struct.pack("<I", MAX_PAYLOAD_BYTES + 1) + data[12:]
    yield data[:4] + struct.pack("<I", MAX_HEADER_BYTES + 1) + data[8:]


class TestTornFrames:
    """Whatever a stream delivers ends in a typed refusal or a clean
    end of stream, never another exception and never a wait."""

    @settings(max_examples=60, deadline=None)
    @given(request=request_strategies, request_id=request_ids)
    def test_mutated_frames_end_typed_or_at_a_clean_eof(
        self, request, request_id
    ):
        def read_all(data: bytes) -> list:
            frames = FrameSplitter()
            outcomes = []
            try:
                for got in frames.feed(data):
                    try:
                        outcomes.append(parse_request(got))
                    except ProtocolError as exc:
                        outcomes.append(exc)
            except ProtocolError as exc:
                outcomes.append(exc)  # a reader hangs up here
            else:
                if frames.parts:
                    outcomes.append("eof mid-frame")
            return outcomes

        data = encode_request(request, request_id=request_id)
        for mutated in mutations(data):
            for outcome in read_all(mutated):
                if isinstance(outcome, ProtocolError):
                    assert outcome.code in (
                        "bad_request", "unsupported_version"
                    ), outcome
                elif outcome != "eof mid-frame":
                    parsed, envelope = outcome
                    assert (parsed, envelope.id) == (request, request_id)


class FakeTransport(asyncio.Transport):
    """Records what a protocol writes; never backs up."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, data):
        self.writes.append(bytes(data))

    def is_closing(self):
        return False


def chunked(stream: bytes, sizes: list[int]):
    """``stream`` cut into chunks of the ``sizes``, cycled."""
    start, turn = 0, 0
    while start < len(stream):
        size = sizes[turn % len(sizes)]
        yield stream[start : start + size]
        start, turn = start + size, turn + 1


class TestFrameSplitter:
    """The line server and the link cut frames with one splitter: any
    chunking of a stream of whole frames, one byte at a time included,
    yields exactly those frames in order."""

    @settings(max_examples=40, deadline=None)
    @given(
        requests=st.lists(request_strategies, min_size=1, max_size=5),
        sizes=st.lists(st.integers(1, 2048), min_size=1, max_size=5),
    )
    def test_server_dispatches_every_chunking_in_order(self, requests, sizes):
        stream = b"".join(
            encode_request(r, request_id=i) for i, r in enumerate(requests, 1)
        )

        async def serve(chunks) -> tuple[list, list]:
            seen = []

            def handler(request, envelope):
                seen.append((request, envelope.id))
                return PongResponse()

            connection = lineserver._Connection(handler, set())
            transport = FakeTransport()
            connection.connection_made(transport)
            for chunk in chunks:
                connection.data_received(chunk)
            assert not connection.frames.parts
            replies = [
                proto.parse_response(frame)
                for data in transport.writes
                for frame in FrameSplitter().feed(data)
            ]
            return seen, [envelope.id for _, envelope in replies]

        expected = [(r, i) for i, r in enumerate(requests, 1)]
        for chunks in (chunked(stream, [1]), chunked(stream, sizes)):
            seen, answered = asyncio.run(serve(chunks))
            assert seen == expected
            assert answered == [i for _, i in expected]

    @settings(max_examples=40, deadline=None)
    @given(
        responses=st.lists(response_strategies, min_size=1, max_size=5),
        sizes=st.lists(st.integers(1, 2048), min_size=1, max_size=5),
    )
    def test_link_resolves_every_chunking_in_order(self, responses, sizes):
        frames = [
            encode_frame(r, request_id=i) for i, r in enumerate(responses, 1)
        ]

        async def resolve(chunks) -> list:
            peer = link.PipelinedLink("127.0.0.1", 1, "peer")
            loop = asyncio.get_running_loop()
            order = []
            for i in range(1, len(frames) + 1):
                peer._pending[i] = future = loop.create_future()
                future.add_done_callback(order.append)
            connection = peer._connection = link._LinkConnection(peer)
            connection.connection_made(FakeTransport())
            for chunk in chunks:
                connection.data_received(chunk)
            await asyncio.sleep(0)  # done callbacks run in resolution order
            assert not connection.frames.parts and not peer._pending
            return [future.result() for future in order]

        for chunks in (
            chunked(b"".join(frames), [1]),
            chunked(b"".join(frames), sizes),
        ):
            assert asyncio.run(resolve(chunks)) == frames


class TestPayloadFraming:
    """Lengths in the header versus bytes behind it."""

    def refused(self, data):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(data)
        exc = excinfo.value
        assert exc.code == "bad_request"
        assert exc.request_id == 5
        return str(exc)

    def test_well_formed_hand_written_frame_parses(self):
        data = block_put((3,), b"k", b"\n\xff=")
        assert body_size(data[: ENVELOPE.size]) == len(data) - ENVELOPE.size
        request, envelope = parse_request(data)
        assert request == BlockPutRequest.of({"k": b"\n\xff="})
        assert envelope.id == 5

    def test_lengths_past_the_payload(self):
        assert "claims 4 payload bytes, 3 are left" in self.refused(
            block_put((4,), b"k", b"abc", run=4)
        )
        assert "claims 2 header bytes, 1 are left" in self.refused(
            frame("block.list", "I", 2, header=b"k", id=5)
        )

    def test_mismatched_lengths(self):
        # payload bytes no field claims
        assert "no field claims" in self.refused(
            block_put((2,), b"k", b"abc", run=2)
        )
        assert "no field claims" in self.refused(
            frame("ping", payload=b"abc", id=5)
        )
        # header bytes no field claims
        assert "no field claims" in self.refused(
            frame("ping", header=b"abc", id=5)
        )
        # declared lengths versus bytes actually handed over
        assert "followed it" in self.refused(
            block_put((3,), b"k", b"abc")[:-1]
        )
        # a put whose sizes do not sum to its run
        assert "'block.put' names 1 keys" in self.refused(
            block_put((2,), b"k", b"abc")
        )

    @pytest.mark.parametrize("run", [2, 4, 10])
    def test_a_reply_run_must_claim_the_payload_exactly(self, run):
        def reply(run, sizes=(1, 2)):
            return frame(
                BlockRunResponse.wire_code,
                "IIII",
                len(sizes), run, 0, 0,
                header=struct.pack(f"<{len(sizes)}I", *sizes),
                payload=b"abc",
                id=5,
            )

        with pytest.raises(ProtocolError) as excinfo:
            parse_response(reply(run))
        assert excinfo.value.code == "bad_request"
        assert excinfo.value.request_id == 5
        # Sizes that do not sum to the run still parse: the reader
        # that lands the run refuses it (repro.core.codec.stripe_rows).
        parsed, _ = parse_response(reply(3, sizes=(1, 9)))
        assert parsed.blocks == BlockRun((1, 9), b"abc")

    def test_over_cap_total_is_refused_before_any_read(self):
        prefix = block_put((1,), b"k", b"a")[: ENVELOPE.size]
        over = prefix[:8] + struct.pack("<I", MAX_PAYLOAD_BYTES + 1) + prefix[12:]
        with pytest.raises(ProtocolError) as excinfo:
            body_size(over)
        assert "cap" in str(excinfo.value)
        assert excinfo.value.request_id == 5
        with pytest.raises(ProtocolError, match="cap"):
            huge = memoryview(bytearray(MAX_PAYLOAD_BYTES + 1))
            encode_request(
                BlockPutRequest(keys=("k",), blocks=BlockRun((len(huge),), huge))
            )

    def test_over_bound_header_is_refused_before_any_read(self):
        prefix = frame("block.list", "I", 0, id=5)[: ENVELOPE.size]
        over = prefix[:4] + struct.pack("<I", MAX_HEADER_BYTES + 1) + prefix[8:]
        with pytest.raises(ProtocolError, match="cap") as excinfo:
            body_size(over)
        assert excinfo.value.request_id == 5
        with pytest.raises(ProtocolError, match="cap"):
            encode_frame(KeyListResponse(keys=("k" * MAX_HEADER_BYTES,)))

    def test_live_connection_survives_every_skippable_bad_frame(self):
        """Bad lengths get a typed error with the sender's id, and —
        because the declared header and payload were read off the
        stream — the next frame on the same connection is served."""

        async def check():
            stored = {}

            async def handler(request, envelope):
                if isinstance(request, BlockPutRequest):
                    blocks = request.blocks.split(len(request.keys))
                    stored.update(zip(request.keys, blocks))
                return PongResponse()

            server = await start_line_server(handler, port=0)
            host, port = server.sockets[0].getsockname()[:2]
            reader, writer = await asyncio.open_connection(host, port)
            bad = [
                block_put((4,), b"k", b"abc"),
                block_put((2,), b"k", b"a\nc"),
                block_put((1, 1), b"k", b"abc"),
                block_put((1, 2), b"k\0l\0m", b"a\nc"),
                block_put((3,), b"k", b"a\nc", run=4),
                block_put((2,), b"k", b"a\nc", run=2),
                frame("block.put", "II", 2**31, 0, payload=b"abc", id=5),
                frame("ping", header=b"\n", id=5),
                frame("ping", v=1, id=5),
                frame("ping", v=4, id=5),
            ]
            for data in bad:
                writer.write(data)
                writer.write(
                    encode_request(
                        BlockPutRequest.of({"good": b"\n\xff"}),
                        request_id=6,
                    )
                )
                await writer.drain()
                replies = {}
                for _ in range(2):
                    reply = await read_reply(reader)
                    replies[reply["id"]] = reply
                assert replies[5]["ok"] is False, data
                assert replies[5]["code"] in (
                    "bad_request",
                    "unsupported_version",
                )
                assert replies[6]["kind"] == "pong", data
                assert stored.pop("good") == b"\n\xff"
            writer.close()
            server.close()
            await server.wait_closed()

        asyncio.run(check())

    def test_reply_over_the_cap_becomes_a_typed_error(self, monkeypatch):
        monkeypatch.setattr(proto, "MAX_PAYLOAD_BYTES", 8)

        async def check():
            async def handler(request, envelope):
                return BlockRunResponse(blocks=BlockRun.of([b"x" * 9]))

            server = await start_line_server(handler, port=0)
            host, port = server.sockets[0].getsockname()[:2]
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                encode_request(BlockFetchRequest(keys=("k",)), request_id=3)
            )
            await writer.drain()
            reply = await read_reply(reader)
            assert (reply["id"], reply["ok"], reply["code"]) == (
                3, False, "bad_request"
            )
            assert "cap" in reply["message"]
            writer.close()
            server.close()
            await server.wait_closed()

        asyncio.run(check())

    def test_unskippable_frames_are_answered_then_hung_up_on(self):
        async def check(data, expect_id, code="bad_request"):
            async def handler(request, envelope):
                return PongResponse()

            server = await start_line_server(handler, port=0)
            host, port = server.sockets[0].getsockname()[:2]
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(encode_request(PingRequest(), request_id=1) + data)
            await writer.drain()
            # Answered at once: the server never waits for bytes that
            # a frame it cannot read would need.
            replies = [
                await asyncio.wait_for(read_reply(reader), 10) for _ in range(2)
            ]
            by_id = {r.get("id"): r for r in replies}
            assert by_id[1]["kind"] == "pong"
            error = by_id[expect_id]
            assert (error["ok"], error["code"]) == (False, code)
            assert await asyncio.wait_for(reader.read(), 10) == b""  # hung up
            writer.close()
            server.close()
            await server.wait_closed()
            return error["message"]

        over_cap = block_put((1,), b"k", b"")[:8] + struct.pack(
            "<I", MAX_PAYLOAD_BYTES + 1
        ) + block_put((1,), b"k", b"")[12:]
        assert "cap" in asyncio.run(check(over_cap, 5))
        long_header = frame("block.list", "I", 0, id=5, hlen=MAX_HEADER_BYTES + 1)
        assert "cap" in asyncio.run(check(long_header, 5))
        # A JSON line (protocol 4 or older), even a short one that
        # never fills an envelope.
        old = b'{"v":4,"op":"ping","id":5}\n'
        assert "JSON header line" in asyncio.run(
            check(old, None, "unsupported_version")
        )


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
