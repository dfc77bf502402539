"""Framed wire protocol for out-of-process detector and blur backends.

Framing: every message is ``[u32 BE length][JSON header][payload]``. The
4-byte big-endian prefix gives the byte length of the UTF-8 JSON header, a
single object with a mandatory ``"type"`` field. A header that carries
``"payload_bytes"`` is followed by exactly that many raw bytes; any other
message ends with its header. Both parts are bounded by
``MAX_MESSAGE_BYTES``, and a declared payload must be ``3 * width * height``
bytes, the size of a row-major RGB8 raster of the header's extent.

Message types (``pixels`` is the payload):

  ``detect``        {"type","frame_index","width","height","payload_bytes"} + pixels
  ``detections``    {"type","frame_index","boxes":[{"x","y","w","h","score"},...]}
  ``blur``          {"type","frame_index","width","height","payload_bytes"} + pixels
  ``blur_verdict``  {"type","frame_index","blurry"}

In memory a message is one dict: :func:`encode_message` sends its
``"pixels"`` bytes as the payload and declares their length, and
:func:`read_message` hands the payload back under ``"pixels"``. Only
requests carry a payload, so the peer needs no shared filesystem and no
text encoding of the pixels. Every response echoes its request's
``frame_index``. The client
(:meth:`scopeline.backends.external.ExternalClient.request`) resets the
connection on a desync (a wrong or missing echo) and on a framing fault (a
response that is not one whole, well-formed, header-only frame).
"""

from __future__ import annotations

import json
import struct
from typing import TYPE_CHECKING, BinaryIO, Sequence

from ..errors import DataFormatError, ProtocolError
from ..geometry import JSON_NUMBER, ScoredBox, box_from_dict, box_to_dict, json_field

if TYPE_CHECKING:  # only annotations use Frame; a backend child need not load NumPy
    from ..media import Frame

PREFIX_SIZE = 4
MAX_MESSAGE_BYTES = 64 * 1024 * 1024

TYPE_DETECT = "detect"
TYPE_DETECTIONS = "detections"
TYPE_BLUR = "blur"
TYPE_BLUR_VERDICT = "blur_verdict"


def encode_message(body: dict) -> bytes:
    """Serialize one message to its framed byte form; ``body["pixels"]`` becomes the payload."""
    if "type" not in body:
        raise ProtocolError("message body lacks mandatory 'type' field")
    header = {key: value for key, value in body.items() if key != "pixels"}
    payload = body.get("pixels", b"")
    if "pixels" in body:
        header["payload_bytes"] = len(payload)
    text = json.dumps(header, separators=(",", ":")).encode("utf-8")
    if max(len(text), len(payload)) > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"header of {len(text)} or payload of {len(payload)} bytes exceeds {MAX_MESSAGE_BYTES}"
        )
    return b"".join((struct.pack(">I", len(text)), text, payload))


def _parse_body(payload: bytes) -> dict:
    try:
        body = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"message body is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(body, dict) or "type" not in body:
        raise ProtocolError("message body must be a JSON object with a 'type' field")
    return body


def _read_exact(stream: BinaryIO, size: int, what: str) -> bytes:
    data = stream.read(size)
    if len(data) < size:
        raise ProtocolError(f"truncated {what}: got {len(data)} of {size} bytes")
    return data


def _frame_header(body: dict) -> tuple[int, int, int]:
    """``(frame_index, width, height)`` of a frame message: JSON integers, at least 1x1."""
    try:
        frame_index, width, height = (json_field(body, key, int) for key in ("frame_index", "width", "height"))
    except (KeyError, TypeError) as exc:
        raise ProtocolError(f"bad frame header: {exc}") from exc
    if width < 1 or height < 1:
        raise ProtocolError(f"bad frame header: width and height must be at least 1, got {width}x{height}")
    return frame_index, width, height


def _payload_size(body: dict) -> int:
    """The payload length a header declares; ProtocolError unless it is the raster's 3·w·h."""
    _, width, height = _frame_header(body)
    try:
        size = json_field(body, "payload_bytes", int)
    except TypeError as exc:
        raise ProtocolError(f"bad frame header: {exc}") from exc
    if size > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"declared payload of {size} bytes exceeds {MAX_MESSAGE_BYTES}")
    if size != 3 * width * height:
        raise ProtocolError(f"declared payload of {size} bytes, expected {3 * width * height} for {width}x{height}")
    return size


def read_message(stream: BinaryIO) -> dict | None:
    """Read one framed message; None on clean EOF, ProtocolError on a torn or ill-declared one."""
    prefix = stream.read(PREFIX_SIZE)
    if prefix == b"":
        return None
    if len(prefix) < PREFIX_SIZE:
        raise ProtocolError(f"truncated length prefix: got {len(prefix)} of {PREFIX_SIZE} bytes")
    (length,) = struct.unpack(">I", prefix)
    if length > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"declared message length {length} exceeds {MAX_MESSAGE_BYTES}")
    body = _parse_body(_read_exact(stream, length, "message body"))
    if "payload_bytes" in body:
        body["pixels"] = _read_exact(stream, _payload_size(body), "pixel payload")
        del body["payload_bytes"]
    return body


def write_message(stream: BinaryIO, body: dict) -> None:
    stream.write(encode_message(body))
    stream.flush()


def encode_detect_request(frame: Frame) -> dict:
    return {
        "type": TYPE_DETECT,
        "frame_index": frame.frame_index,
        "width": frame.width,
        "height": frame.height,
        "pixels": frame.pixels,
    }


def encode_blur_request(frame: Frame) -> dict:
    body = encode_detect_request(frame)
    body["type"] = TYPE_BLUR
    return body


def decode_frame_payload(body: dict) -> tuple[int, int, int, bytes]:
    """Server-side decode of a detect/blur request: (frame_index, w, h, pixels)."""
    frame_index, width, height = _frame_header(body)
    pixels = body.get("pixels")
    if not isinstance(pixels, bytes) or len(pixels) != 3 * width * height:
        raise ProtocolError(f"request carries no {3 * width * height}-byte pixel payload for {width}x{height}")
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
            scored = ScoredBox(box, float(json_field(entry, "score", JSON_NUMBER)), source)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
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
