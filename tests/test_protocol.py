"""Wire protocol framing, codecs, and external-backend integration via the stub."""

from __future__ import annotations

import io
import json
import os
import random
import socket
import struct
import subprocess
import sys
import time

import pytest

from scopeline.backends import external, protocol
from scopeline.backends.external import (
    ExternalBlurGate,
    ExternalClient,
    ExternalDetectorBackend,
    SocketTransport,
)
from scopeline.errors import BackendError, DataFormatError, DesyncError, ProtocolError
from scopeline.geometry import SOURCE_A, BoundingBox, ScoredBox

from conftest import NEVER_ANSWERS, NEVER_READS, checkerboard_frame, solid_frame

STUB = [sys.executable, "-m", "scopeline.backends.stub"]


# A frame extent whose RGB8 raster is just over MAX_MESSAGE_BYTES.
LARGE_WIDTH = protocol.MAX_MESSAGE_BYTES // 3 + 1


def framed_header(header: dict) -> bytes:
    """A length prefix and a JSON header, sent as is: no payload follows unless the caller adds one."""
    text = json.dumps(header).encode("utf-8")
    return struct.pack(">I", len(text)) + text


class TestFraming:
    def test_encode_prefixes_big_endian_length(self):
        framed = protocol.encode_message({"type": "detect"})
        (length,) = struct.unpack(">I", framed[:4])
        assert length == len(framed) - 4

    def test_round_trip_single(self):
        body = {"type": "detections", "frame_index": 3, "boxes": []}
        assert protocol.read_message(io.BytesIO(protocol.encode_message(body))) == body

    def test_clean_eof_returns_none(self):
        assert protocol.read_message(io.BytesIO(b"")) is None

    def test_torn_header_rejected(self):
        with pytest.raises(ProtocolError, match="length prefix"):
            protocol.read_message(io.BytesIO(b"\x00\x00"))

    def test_torn_body_rejected(self):
        framed = protocol.encode_message({"type": "x"})
        with pytest.raises(ProtocolError, match="body"):
            protocol.read_message(io.BytesIO(framed[:-2]))

    def test_body_must_be_json_object_with_type(self):
        bad = struct.pack(">I", 2) + b"[]"
        with pytest.raises(ProtocolError):
            protocol.read_message(io.BytesIO(bad))
        with pytest.raises(ProtocolError):
            protocol.encode_message({"no_type": 1})

    def test_round_trip_with_pixel_payload(self):
        frame = checkerboard_frame(3, 2, index=4)
        body = protocol.encode_blur_request(frame)
        framed = protocol.encode_message(body)
        assert framed.endswith(frame.pixels)
        assert protocol.read_message(io.BytesIO(framed)) == body

    def test_fuzz_concatenated_stream_round_trips(self):
        rng = random.Random(17)
        for _ in range(50):
            messages = []
            for _ in range(rng.randrange(0, 10)):
                if rng.random() < 0.5:
                    width, height = rng.randrange(1, 40), rng.randrange(1, 40)
                    messages.append(
                        {
                            "type": rng.choice(["detect", "blur"]),
                            "frame_index": rng.randrange(0, 1 << 20),
                            "width": width,
                            "height": height,
                            "pixels": rng.randbytes(3 * width * height),
                        }
                    )
                    continue
                messages.append(
                    {
                        "type": rng.choice(["detect", "detections", "blur", "blur_verdict"]),
                        "frame_index": rng.randrange(0, 1 << 20),
                        "payload": "x" * rng.randrange(0, 64),
                        "nested": {"k": [rng.random() for _ in range(rng.randrange(0, 4))]},
                    }
                )
            stream = io.BytesIO(b"".join(protocol.encode_message(m) for m in messages))
            for message in messages:
                assert protocol.read_message(stream) == message
            assert protocol.read_message(stream) is None

    @pytest.mark.parametrize(
        "header, payload, match",
        [
            ({"width": 2, "height": 2, "payload_bytes": 12}, bytes(11), "truncated pixel payload"),
            ({"width": 2, "height": 2, "payload_bytes": 11}, bytes(11), "expected 12"),
            ({"width": 2, "height": 2, "payload_bytes": 12.0}, bytes(12), "payload_bytes must be of type int"),
            ({"width": 2, "height": 2, "payload_bytes": "12"}, bytes(12), "payload_bytes must be of type int"),
            ({"width": 2, "height": 2, "payload_bytes": True}, bytes(12), "payload_bytes must be of type int"),
            ({"width": 1, "height": 1, "payload_bytes": -3}, b"", "expected 3"),
            ({"width": LARGE_WIDTH, "height": 1, "payload_bytes": 3 * LARGE_WIDTH}, b"", "exceeds"),
            ({"width": 0, "height": 2, "payload_bytes": 0}, b"", "at least 1"),
            ({"width": 2.0, "height": 2, "payload_bytes": 12}, bytes(12), "width must be of type int"),
            ({"height": 2, "payload_bytes": 12}, bytes(12), "width"),
        ],
        ids=["torn", "not-3wh", "float-size", "text-size", "bool-size", "negative-size", "over-max",
             "zero-width", "float-width", "no-width"],
    )
    def test_ill_declared_payload_rejected(self, header, payload, match):
        with pytest.raises(ProtocolError, match=match):
            protocol.read_message(io.BytesIO(framed_header({"type": "blur", "frame_index": 1, **header}) + payload))

    def test_trailing_garbage_detected(self):
        stream = io.BytesIO(protocol.encode_message({"type": "x"}) + b"\x00\x00\x00")
        assert protocol.read_message(stream) == {"type": "x"}
        with pytest.raises(ProtocolError):
            protocol.read_message(stream)


class TestCodecs:
    def test_detect_request_wire_bytes(self):
        frame = solid_frame((255, 0, 0), width=1, height=1, index=5)
        assert protocol.encode_message(protocol.encode_detect_request(frame)) == (
            b"\x00\x00\x00\x48"
            b'{"type":"detect","frame_index":5,"width":1,"height":1,"payload_bytes":3}'
            b"\xff\x00\x00"
        )

    def test_frame_payload_round_trip(self):
        frame = checkerboard_frame(4, 2, index=9)
        body = protocol.encode_detect_request(frame)
        frame_index, width, height, pixels = protocol.decode_frame_payload(body)
        assert (frame_index, width, height, pixels) == (9, 4, 2, frame.pixels)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("frame_index", 7.9),
            ("frame_index", True),
            ("frame_index", "9"),
            ("width", True),
            ("width", 4.0),
            ("height", 1.5),
            ("height", None),
            ("width", 0),
        ],
    )
    def test_mistyped_frame_header_rejected_not_truncated(self, field, value):
        body = {**protocol.encode_detect_request(checkerboard_frame(4, 2, index=9)), field: value}
        with pytest.raises(ProtocolError, match=field):
            protocol.decode_frame_payload(body)

    @pytest.mark.parametrize("pixels", [None, "AAAA", bytes(23), bytes(25)], ids=["none", "text", "short", "long"])
    def test_frame_request_without_its_payload_rejected(self, pixels):
        body = {**protocol.encode_detect_request(checkerboard_frame(4, 2, index=9)), "pixels": pixels}
        with pytest.raises(ProtocolError, match="24-byte pixel payload"):
            protocol.decode_frame_payload(body)

    def test_detections_round_trip(self):
        boxes = [
            ScoredBox(BoundingBox(1, 2, 3, 4), 0.5),
            ScoredBox(BoundingBox(9, 9, 20, 12), 0.25),
        ]
        body = protocol.encode_detections(7, boxes)
        decoded = protocol.decode_detections(body, SOURCE_A, 64, 64)
        assert [(sb.box, sb.score) for sb in decoded] == [(sb.box, sb.score) for sb in boxes]

    def test_invalid_box_names_index(self):
        body = {
            "type": "detections",
            "frame_index": 0,
            "boxes": [{"x": 0, "y": 0, "w": 4, "h": 4, "score": 0.5}, {"x": 0, "y": 0, "w": 0, "h": 4, "score": 0.5}],
        }
        with pytest.raises(DataFormatError, match="index 1"):
            protocol.decode_detections(body, SOURCE_A, 64, 64)

    @pytest.mark.parametrize(
        "fields",
        [{"x": 7.9, "w": True}, {"score": True}, {"score": "0.5"}, {"score": None}, {"score": 10**400}],
        ids=["coordinates", "boolean-score", "text-score", "null-score", "huge-score"],
    )
    def test_mistyped_box_rejected_not_truncated(self, fields):
        body = {
            "type": "detections",
            "frame_index": 0,
            "boxes": [
                {"x": 0, "y": 0, "w": 4, "h": 4, "score": 0.5},
                {"x": 0, "y": 0, "w": 4, "h": 4, "score": 0.5, **fields},
            ],
        }
        with pytest.raises(DataFormatError, match="index 1"):
            protocol.decode_detections(body, SOURCE_A, 64, 64)

    def test_integer_score_accepted(self):
        body = protocol.encode_detections(0, [])
        body["boxes"] = [{"x": 0, "y": 0, "w": 4, "h": 4, "score": 1}]
        [scored] = protocol.decode_detections(body, SOURCE_A, 64, 64)
        assert type(scored.score) is float and scored.score == 1.0

    def test_box_outside_image_rejected(self):
        body = {
            "type": "detections",
            "frame_index": 0,
            "boxes": [{"x": 60, "y": 0, "w": 10, "h": 4, "score": 0.5}],
        }
        with pytest.raises(DataFormatError, match="index 0"):
            protocol.decode_detections(body, SOURCE_A, 64, 64)

    def test_blur_verdict_round_trip(self):
        assert protocol.decode_blur_verdict(protocol.encode_blur_verdict(4, True)) is True
        assert protocol.decode_blur_verdict(protocol.encode_blur_verdict(4, False)) is False

    def test_blur_verdict_missing_field(self):
        with pytest.raises(ProtocolError, match="blurry"):
            protocol.decode_blur_verdict({"type": "blur_verdict", "frame_index": 4})


def detections_with_payload(fields: dict, payload: bytes) -> bytes:
    return framed_header({**protocol.encode_detections(7, []), "width": 8, "height": 8, **fields}) + payload


class FakeTransport:
    """In-memory transport: the peer's replies are fixed bytes, requests are kept."""

    def __init__(self, replies: bytes):
        self.reader = io.BytesIO(replies)
        self.writer = io.BytesIO()
        self.closed = False

    def close(self) -> None:
        self.closed = True


def detect_call(client: ExternalClient):
    return ExternalDetectorBackend(client, SOURCE_A).detect


def blur_call(client: ExternalClient):
    return ExternalBlurGate(client).is_blurry


class TestClientResetRule:
    """``ExternalClient.request`` closes the connection on a desync or a framing fault."""

    FRAME = solid_frame((0, 0, 0), width=8, height=8, index=7)

    @pytest.mark.parametrize(
        "adapter, frame_index, reply, error",
        [
            (detect_call, 7, protocol.encode_message(protocol.encode_detections(8, [])), DesyncError),
            (blur_call, 7, protocol.encode_message({"type": "blur_verdict", "blurry": True}), DesyncError),
            (detect_call, 1, protocol.encode_message(protocol.encode_detections(True, [])), DesyncError),
            (blur_call, 7, protocol.encode_message(protocol.encode_blur_verdict(7.0, False)), DesyncError),
            (detect_call, 7, struct.pack(">I", protocol.MAX_MESSAGE_BYTES + 1), BackendError),
            (detect_call, 7, struct.pack(">I", 2) + b"[]", BackendError),
            (blur_call, 7, b"\x00\x00", BackendError),
            (detect_call, 7, detections_with_payload({"payload_bytes": 192}, bytes(10)), BackendError),
            (detect_call, 7, detections_with_payload({"payload_bytes": 191}, bytes(191)), BackendError),
            (detect_call, 7, detections_with_payload(
                {"width": LARGE_WIDTH, "height": 1, "payload_bytes": 3 * LARGE_WIDTH}, b""), BackendError),
            (detect_call, 7, detections_with_payload({"payload_bytes": 192.0}, bytes(192)), BackendError),
            (detect_call, 7, detections_with_payload({"payload_bytes": 192}, bytes(192)), BackendError),
        ],
        ids=["wrong-echo", "missing-blur-echo", "bool-echo", "float-echo", "oversized-length",
             "non-object-body", "torn-header", "torn-payload", "payload-not-3wh", "oversized-payload",
             "non-int-payload-size", "well-formed-payload"],
    )
    def test_fault_closes_the_transport(self, adapter, frame_index, reply, error):
        frame = solid_frame((0, 0, 0), width=8, height=8, index=frame_index)
        # A well-formed reply queued behind the fault must never be read.
        transport = FakeTransport(reply + protocol.encode_message(protocol.encode_detections(frame_index, [])))
        call = adapter(ExternalClient(transport))
        with pytest.raises(error):
            call(frame)
        assert transport.closed
        with pytest.raises(BackendError, match="closed"):
            call(frame)

    def test_matching_echo_keeps_the_connection(self):
        replies = [protocol.encode_detections(7, []), protocol.encode_blur_verdict(7, False)]
        transport = FakeTransport(b"".join(map(protocol.encode_message, replies)))
        client = ExternalClient(transport)
        assert ExternalDetectorBackend(client, SOURCE_A).detect(self.FRAME) == []
        assert ExternalBlurGate(client).is_blurry(self.FRAME) is False
        assert not transport.closed
        assert protocol.read_message(io.BytesIO(transport.writer.getvalue()))["frame_index"] == 7


class TestStubSubprocess:
    def test_the_stub_loads_without_numpy(self):
        # A backend child pays for every module it imports before its first answer.
        code = "import sys, scopeline.backends.stub; print(sorted(m for m in sys.modules if m.partition('.')[0] == 'numpy'))"
        child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=30)
        assert child.stdout.strip() == "[]"

    def test_detect_round_trip(self):
        client = ExternalClient(SocketTransport.spawn(STUB + ["--box", "5,6,20,10,0.75"]))
        backend = ExternalDetectorBackend(client, SOURCE_A)
        try:
            frame = solid_frame((1, 2, 3), width=64, height=48, index=4)
            out = backend.detect(frame)
            assert out == [ScoredBox(BoundingBox(5, 6, 20, 10), 0.75, SOURCE_A)]
            out2 = backend.detect(solid_frame((1, 2, 3), width=64, height=48, index=5))
            assert [sb.box for sb in out2] == [BoundingBox(5, 6, 20, 10)]
        finally:
            backend.close()

    def test_blur_gate_round_trip(self):
        client = ExternalClient(SocketTransport.spawn(STUB))
        gate = ExternalBlurGate(client)
        try:
            assert gate.is_blurry(solid_frame((50, 50, 50), width=8, height=8)) is True
            assert gate.is_blurry(checkerboard_frame(8, 8, index=1)) is False
        finally:
            gate.close()

    def test_desync_closes_connection(self):
        client = ExternalClient(SocketTransport.spawn(STUB + ["--desync"]))
        backend = ExternalDetectorBackend(client, SOURCE_A)
        try:
            with pytest.raises(DesyncError):
                backend.detect(solid_frame((0, 0, 0), width=8, height=8, index=1))
            with pytest.raises(BackendError, match="closed"):
                backend.detect(solid_frame((0, 0, 0), width=8, height=8, index=2))
        finally:
            backend.close()

    def test_dead_process_reported_as_backend_error(self):
        client = ExternalClient(SocketTransport.spawn([sys.executable, "-c", "pass"]))
        backend = ExternalDetectorBackend(client, SOURCE_A)
        try:
            with pytest.raises(BackendError):
                backend.detect(solid_frame((0, 0, 0), width=8, height=8))
        finally:
            backend.close()


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class TestStubTcp:
    def test_detect_over_tcp(self):
        port = _free_port()
        server = subprocess.Popen(STUB + ["--box", "0,0,8,8,0.5", "--tcp-port", str(port)])
        try:
            client = None
            for _ in range(100):
                try:
                    client = ExternalClient(SocketTransport.connect("127.0.0.1", port))
                    break
                except BackendError:
                    time.sleep(0.05)
            assert client is not None, "stub TCP server never came up"
            backend = ExternalDetectorBackend(client, SOURCE_A)
            out = backend.detect(solid_frame((9, 9, 9), width=16, height=16, index=0))
            assert [sb.box for sb in out] == [BoundingBox(0, 0, 8, 8)]
            backend.close()
        finally:
            server.terminate()
            server.wait(timeout=10)


def _connect_when_up(port: int) -> ExternalClient:
    for _ in range(100):
        try:
            return ExternalClient(SocketTransport.connect("127.0.0.1", port))
        except BackendError:
            time.sleep(0.05)
    raise AssertionError("stub TCP server never came up")


def test_closing_clients_leaks_no_descriptor():
    frame = solid_frame((9, 9, 9), width=16, height=16)
    port = _free_port()
    before = len(os.listdir("/proc/self/fd"))
    server = subprocess.Popen(STUB + ["--tcp-port", str(port)])
    try:
        clients = [ExternalClient(SocketTransport.spawn(STUB)) for _ in range(10)]
        clients.append(_connect_when_up(port))
        for client in clients:
            assert ExternalDetectorBackend(client, SOURCE_A).detect(frame) == []
            client.close()
    finally:
        server.terminate()
        server.wait(timeout=10)
    # The socket and both of its makefile streams were closed for every client.
    assert len(os.listdir("/proc/self/fd")) == before


TIMEOUT_S = 0.5


@pytest.fixture
def short_timeout(monkeypatch):
    monkeypatch.setattr(external, "IO_TIMEOUT_S", TIMEOUT_S)


class TestStalledBackend:
    """A backend that stops reading or never answers fails the frame after the I/O timeout."""

    @pytest.mark.parametrize(
        "command, width, height",
        # A 384x288 request outgrows the socket buffer, so it stalls in the send.
        [(NEVER_READS, 384, 288), (NEVER_ANSWERS, 8, 8)],
        ids=["never-reads", "never-answers"],
    )
    def test_stalled_child_fails_the_request_and_is_reaped(self, short_timeout, command, width, height):
        transport = SocketTransport.spawn(command)
        backend = ExternalDetectorBackend(ExternalClient(transport), SOURCE_A)
        frame = solid_frame((0, 0, 0), width=width, height=height)
        try:
            start = time.monotonic()
            with pytest.raises(BackendError, match="timed out"):
                backend.detect(frame)
            assert time.monotonic() - start < TIMEOUT_S + 1
            start = time.monotonic()
            with pytest.raises(BackendError, match="closed"):
                backend.detect(frame)
            assert time.monotonic() - start < 0.1
            # The failed request closed the client, and close() reaped the child.
            assert transport._proc.returncode is not None
        finally:
            backend.close()

    def test_close_does_not_wait_to_flush_a_stalled_request(self, short_timeout):
        ours, theirs = socket.socketpair()
        with theirs:  # open but never read
            ours.setblocking(False)
            with pytest.raises(BlockingIOError):
                while True:  # fill the socket buffer
                    ours.send(bytes(1 << 16))
            transport = SocketTransport(ours)
            transport.writer.write(b"tail")  # left in the write buffer, so close() flushes it
            start = time.monotonic()
            transport.close()
            assert time.monotonic() - start < TIMEOUT_S / 2

    def test_silent_tcp_peer_fails_the_request(self, short_timeout):
        with socket.create_server(("127.0.0.1", 0)) as server:  # listens, never accepts
            client = ExternalClient(SocketTransport.connect(*server.getsockname()))
            start = time.monotonic()
            with pytest.raises(BackendError, match="timed out"):
                client.request(protocol.encode_detect_request(solid_frame((0, 0, 0))))
            assert time.monotonic() - start < TIMEOUT_S + 1
            with pytest.raises(BackendError, match="closed"):
                client.request(protocol.encode_detect_request(solid_frame((0, 0, 0))))
