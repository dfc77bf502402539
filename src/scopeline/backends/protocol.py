"""Framed JSON wire protocol for out-of-process detector and blur backends.

Framing: a 4-byte big-endian unsigned length prefix followed by exactly that
many bytes of UTF-8 JSON. Every body is a single JSON object carrying a
mandatory ``"type"`` field.

Message types:

  ``detect``        {"type","frame_index","width","height","pixels_b64"}
  ``detections``    {"type","frame_index","boxes":[{"x","y","w","h","score"},...]}
  ``blur``          {"type","frame_index","width","height","pixels_b64"}
  ``blur_verdict``  {"type","frame_index","blurry"}

Pixels travel base64-inline (row-major RGB8) so the peer needs no shared
filesystem. Every response echoes its request's ``frame_index``. The client
(:meth:`scopeline.backends.external.ExternalClient.request`) resets the
connection on a desync (a wrong or missing echo) and on a framing fault (a
response that is not one whole, well-formed frame).
"""

from __future__ import annotations

import base64
import json
import struct
from typing import BinaryIO, Sequence

from ..errors import DataFormatError, ProtocolError
from ..geometry import ScoredBox, box_from_dict, box_to_dict
from ..media import Frame

HEADER_SIZE = 4
MAX_MESSAGE_BYTES = 64 * 1024 * 1024

TYPE_DETECT = "detect"
TYPE_DETECTIONS = "detections"
TYPE_BLUR = "blur"
TYPE_BLUR_VERDICT = "blur_verdict"


def encode_message(body: dict) -> bytes:
    """Serialize one message to its framed byte form."""
    if "type" not in body:
        raise ProtocolError("message body lacks mandatory 'type' field")
    payload = json.dumps(body, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"message of {len(payload)} bytes exceeds {MAX_MESSAGE_BYTES}")
    return struct.pack(">I", len(payload)) + payload


def _parse_body(payload: bytes) -> dict:
    try:
        body = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"message body is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(body, dict) or "type" not in body:
        raise ProtocolError("message body must be a JSON object with a 'type' field")
    return body


def read_message(stream: BinaryIO) -> dict | None:
    """Read one framed message; None on clean EOF, ProtocolError on a torn one."""
    header = stream.read(HEADER_SIZE)
    if header == b"":
        return None
    if len(header) < HEADER_SIZE:
        raise ProtocolError(f"truncated length prefix: got {len(header)} of {HEADER_SIZE} bytes")
    (length,) = struct.unpack(">I", header)
    if length > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"declared message length {length} exceeds {MAX_MESSAGE_BYTES}")
    payload = stream.read(length)
    if len(payload) < length:
        raise ProtocolError(f"truncated message body: got {len(payload)} of {length} bytes")
    return _parse_body(payload)


def write_message(stream: BinaryIO, body: dict) -> None:
    stream.write(encode_message(body))
    stream.flush()


def encode_detect_request(frame: Frame) -> dict:
    return {
        "type": TYPE_DETECT,
        "frame_index": frame.frame_index,
        "width": frame.width,
        "height": frame.height,
        "pixels_b64": base64.b64encode(frame.pixels).decode("ascii"),
    }


def encode_blur_request(frame: Frame) -> dict:
    body = encode_detect_request(frame)
    body["type"] = TYPE_BLUR
    return body


def decode_frame_payload(body: dict) -> tuple[int, int, int, bytes]:
    """Server-side decode of a detect/blur request: (frame_index, w, h, pixels)."""
    try:
        frame_index = int(body["frame_index"])
        width = int(body["width"])
        height = int(body["height"])
        pixels = base64.b64decode(body["pixels_b64"], validate=True)
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"bad frame payload: {exc}") from exc
    if len(pixels) != 3 * width * height:
        raise ProtocolError(
            f"pixel payload is {len(pixels)} bytes, expected {3 * width * height}"
        )
    return frame_index, width, height, pixels


def encode_detections(frame_index: int, boxes: Sequence[ScoredBox]) -> dict:
    return {
        "type": TYPE_DETECTIONS,
        "frame_index": frame_index,
        "boxes": [box_to_dict(sb.box, score=sb.score) for sb in boxes],
    }


def _expect_type(body: dict, expected: str) -> None:
    if body["type"] != expected:
        raise ProtocolError(f"expected message type {expected!r}, got {body['type']!r}")


def decode_detections(body: dict, source: str, image_w: int, image_h: int) -> list[ScoredBox]:
    """Validate and convert a detections response into ScoredBoxes inside the image."""
    _expect_type(body, TYPE_DETECTIONS)
    raw = body.get("boxes")
    if not isinstance(raw, list):
        raise ProtocolError("detections response lacks a 'boxes' list")
    boxes = []
    for i, entry in enumerate(raw):
        try:
            box = box_from_dict(entry)
            scored = ScoredBox(box, float(entry["score"]), source)
        except (KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(f"invalid box at index {i}: {exc}") from exc
        if not box.within(image_w, image_h):
            raise DataFormatError(
                f"invalid box at index {i}: {box} exceeds image extent {image_w}x{image_h}"
            )
        boxes.append(scored)
    return boxes


def encode_blur_verdict(frame_index: int, blurry: bool) -> dict:
    return {"type": TYPE_BLUR_VERDICT, "frame_index": frame_index, "blurry": blurry}


def decode_blur_verdict(body: dict) -> bool:
    """Validate a blur_verdict response."""
    _expect_type(body, TYPE_BLUR_VERDICT)
    if "blurry" not in body or not isinstance(body["blurry"], bool):
        raise ProtocolError("blur_verdict response lacks a boolean 'blurry' field")
    return body["blurry"]
