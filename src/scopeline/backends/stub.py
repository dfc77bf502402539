"""Reference external backend process for protocol integration tests.

Speaks the framed wire protocol of :mod:`scopeline.backends.protocol` over
stdio (default) or a single TCP connection: each request is a JSON header
followed by the frame's raw RGB8 pixels, each response a JSON header alone.
When the pipeline spawns it, its stdin and stdout are one connected socket.
Detection requests are answered with the boxes given on the command line,
clipped to the frame; blur requests are answered blurry when every pixel
byte is identical.

    python -m scopeline.backends.stub --box 10,10,40,40,0.9
    python -m scopeline.backends.stub --tcp-port 45000
"""

from __future__ import annotations

import argparse
import socket
import sys
from typing import BinaryIO

from ..errors import ProtocolError
from ..geometry import BoundingBox, ScoredBox
from . import protocol


def _parse_box(text: str) -> tuple[int, int, int, int, float]:
    parts = text.split(",")
    if len(parts) != 5:
        raise argparse.ArgumentTypeError(f"expected x,y,w,h,score, got {text!r}")
    x, y, w, h = (int(p) for p in parts[:4])
    return x, y, w, h, float(parts[4])


def _clipped_boxes(raw_boxes, width: int, height: int) -> list[ScoredBox]:
    boxes = []
    for x, y, w, h, score in raw_boxes:
        w = min(w, width - x)
        h = min(h, height - y)
        if x < 0 or y < 0 or w < 1 or h < 1:
            continue
        boxes.append(ScoredBox(BoundingBox(x, y, w, h), score))
    return boxes


def serve(reader: BinaryIO, writer: BinaryIO, raw_boxes, desync: bool = False) -> None:
    while True:
        body = protocol.read_message(reader)
        if body is None:
            return
        kind = body["type"]
        if kind == protocol.TYPE_DETECT:
            frame_index, width, height, _pixels = protocol.decode_frame_payload(body)
            echo = frame_index + 1 if desync else frame_index
            response = protocol.encode_detections(echo, _clipped_boxes(raw_boxes, width, height))
        elif kind == protocol.TYPE_BLUR:
            frame_index, _width, _height, pixels = protocol.decode_frame_payload(body)
            constant = pixels.count(pixels[:1]) == len(pixels)
            echo = frame_index + 1 if desync else frame_index
            response = protocol.encode_blur_verdict(echo, constant)
        else:
            raise ProtocolError(f"unsupported request type {kind!r}")
        protocol.write_message(writer, response)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--box",
        type=_parse_box,
        action="append",
        default=[],
        help="x,y,w,h,score returned for every detect request (repeatable)",
    )
    parser.add_argument(
        "--tcp-port",
        type=int,
        default=None,
        help="serve one TCP connection on this port instead of stdio",
    )
    parser.add_argument(
        "--desync",
        action="store_true",
        help="echo frame_index + 1 to exercise client desync handling",
    )
    args = parser.parse_args(argv)

    if args.tcp_port is not None:
        with socket.create_server(("127.0.0.1", args.tcp_port)) as server:
            conn, _addr = server.accept()
            with conn:
                reader = conn.makefile("rb")
                writer = conn.makefile("wb")
                serve(reader, writer, args.box, desync=args.desync)
    else:
        serve(sys.stdin.buffer, sys.stdout.buffer, args.box, desync=args.desync)
    return 0


if __name__ == "__main__":
    sys.exit(main())
