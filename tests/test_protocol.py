"""Wire protocol framing, codecs, and external-backend integration via the stub."""

from __future__ import annotations

import io
import random
import socket
import struct
import subprocess
import sys
import time

import pytest

from scopeline.backends import protocol
from scopeline.backends.external import (
    ExternalBlurGate,
    ExternalClient,
    ExternalDetectorBackend,
    SubprocessTransport,
    TcpTransport,
)
from scopeline.errors import BackendError, DataFormatError, DesyncError, ProtocolError
from scopeline.geometry import SOURCE_A, BoundingBox, ScoredBox

from conftest import checkerboard_frame, solid_frame

STUB = [sys.executable, "-m", "scopeline.backends.stub"]


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

    def test_fuzz_concatenated_stream_round_trips(self):
        rng = random.Random(17)
        for _ in range(50):
            messages = []
            for _ in range(rng.randrange(0, 10)):
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

    def test_trailing_garbage_detected(self):
        stream = io.BytesIO(protocol.encode_message({"type": "x"}) + b"\x00\x00\x00")
        assert protocol.read_message(stream) == {"type": "x"}
        with pytest.raises(ProtocolError):
            protocol.read_message(stream)


class TestCodecs:
    def test_detect_request_base64(self):
        frame = solid_frame((255, 0, 0), width=1, height=1)
        body = protocol.encode_detect_request(frame)
        assert body["pixels_b64"] == "/wAA"
        assert body["type"] == "detect"
        assert (body["width"], body["height"]) == (1, 1)

    def test_frame_payload_round_trip(self):
        frame = checkerboard_frame(4, 2, index=9)
        body = protocol.encode_detect_request(frame)
        frame_index, width, height, pixels = protocol.decode_frame_payload(body)
        assert (frame_index, width, height, pixels) == (9, 4, 2, frame.pixels)

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

    def test_mistyped_box_rejected_not_truncated(self):
        body = {
            "type": "detections",
            "frame_index": 0,
            "boxes": [
                {"x": 0, "y": 0, "w": 4, "h": 4, "score": 0.5},
                {"x": 7.9, "y": 0, "w": True, "h": 4, "score": 0.5},
            ],
        }
        with pytest.raises(DataFormatError, match="index 1"):
            protocol.decode_detections(body, SOURCE_A, 64, 64)

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
        ],
        ids=["wrong-echo", "missing-blur-echo", "bool-echo", "float-echo", "oversized-length",
             "non-object-body", "torn-header"],
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
    def test_detect_round_trip(self):
        client = ExternalClient(SubprocessTransport(STUB + ["--box", "5,6,20,10,0.75"]))
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
        client = ExternalClient(SubprocessTransport(STUB))
        gate = ExternalBlurGate(client)
        try:
            assert gate.is_blurry(solid_frame((50, 50, 50), width=8, height=8)) is True
            assert gate.is_blurry(checkerboard_frame(8, 8, index=1)) is False
        finally:
            gate.close()

    def test_desync_closes_connection(self):
        client = ExternalClient(SubprocessTransport(STUB + ["--desync"]))
        backend = ExternalDetectorBackend(client, SOURCE_A)
        try:
            with pytest.raises(DesyncError):
                backend.detect(solid_frame((0, 0, 0), width=8, height=8, index=1))
            with pytest.raises(BackendError, match="closed"):
                backend.detect(solid_frame((0, 0, 0), width=8, height=8, index=2))
        finally:
            backend.close()

    def test_dead_process_reported_as_backend_error(self):
        client = ExternalClient(SubprocessTransport([sys.executable, "-c", "pass"]))
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
                    client = ExternalClient(TcpTransport("127.0.0.1", port))
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
