"""Clients for external-process backends speaking the framed wire protocol.

Transport is a local byte stream: either the standard streams of a child
process or a TCP socket. Requests on one connection are serialized, and
every response must echo its request's ``frame_index`` as a JSON integer.
:meth:`ExternalClient.request` alone decides when to distrust a connection:
it closes it on a desync (a wrong or missing echo) and on a framing fault
(a response that is not one whole, well-formed, header-only frame), and
refuses every later request.
"""

from __future__ import annotations

import socket
import subprocess
from typing import BinaryIO, Sequence

from ..errors import BackendError, DesyncError, ProtocolError
from ..geometry import ScoredBox
from ..media import Frame
from . import protocol


class SubprocessTransport:
    """Child process reached through its stdin/stdout pipes."""

    def __init__(self, command: Sequence[str]):
        self.command = list(command)
        try:
            self._proc = subprocess.Popen(
                self.command, stdin=subprocess.PIPE, stdout=subprocess.PIPE
            )
        except OSError as exc:
            raise BackendError(f"cannot start backend process {self.command}: {exc}") from exc

    @property
    def reader(self) -> BinaryIO:
        return self._proc.stdout

    @property
    def writer(self) -> BinaryIO:
        return self._proc.stdin

    def close(self) -> None:
        for stream in (self._proc.stdin, self._proc.stdout):
            try:
                stream.close()
            except OSError:
                pass
        self._proc.terminate()
        try:
            self._proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()


class TcpTransport:
    """TCP connection to a backend serving the same protocol."""

    def __init__(self, host: str, port: int):
        try:
            self._sock = socket.create_connection((host, port), timeout=30)
        except OSError as exc:
            raise BackendError(f"cannot connect to backend at {host}:{port}: {exc}") from exc
        self.reader: BinaryIO = self._sock.makefile("rb")
        self.writer: BinaryIO = self._sock.makefile("wb")

    def close(self) -> None:
        for stream in (self.reader, self.writer):
            try:
                stream.close()
            except OSError:
                pass
        self._sock.close()


class ExternalClient:
    """Request/response layer over a transport; one outstanding request at a time."""

    def __init__(self, transport):
        self._transport = transport
        self._closed = False

    def request(self, body: dict) -> dict:
        """Send one request and return the response that echoes its ``frame_index``."""
        if self._closed:
            raise BackendError("backend connection is closed")
        try:
            protocol.write_message(self._transport.writer, body)
            response = protocol.read_message(self._transport.reader)
            if response is not None and "pixels" in response:
                raise ProtocolError("backend response carries a pixel payload")
        except (OSError, ValueError, ProtocolError) as exc:
            self.close()
            raise BackendError(f"backend transport failed: {exc}") from exc
        if response is None:
            self.close()
            raise BackendError("backend closed the connection")
        echoed = response.get("frame_index")
        if type(echoed) is not int or echoed != body["frame_index"]:  # not a bool or a float
            self.close()
            raise DesyncError(f"peer echoed frame_index {echoed!r}, expected {body['frame_index']}")
        return response

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._transport.close()


class ExternalDetectorBackend:
    """DetectorBackend adapter over an :class:`ExternalClient`."""

    def __init__(self, client: ExternalClient, source: str):
        self.client = client
        self.source = source

    def detect(self, frame: Frame) -> list[ScoredBox]:
        response = self.client.request(protocol.encode_detect_request(frame))
        return protocol.decode_detections(response, self.source, frame.width, frame.height)

    def close(self) -> None:
        self.client.close()


class ExternalBlurGate:
    """BlurGate adapter over an :class:`ExternalClient`."""

    def __init__(self, client: ExternalClient):
        self.client = client

    def is_blurry(self, frame: Frame) -> bool:
        return protocol.decode_blur_verdict(self.client.request(protocol.encode_blur_request(frame)))

    def close(self) -> None:
        self.client.close()
