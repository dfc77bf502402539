"""Clients for external-process backends speaking the framed wire protocol.

Every backend is reached over one connected stream socket. A subprocess
backend gets one end of a ``socket.socketpair()`` as its stdin and stdout; a
TCP backend gets the socket of ``socket.create_connection``. Both carry the
timeout :data:`IO_TIMEOUT_S`, which limits each send or receive, not a whole
request: a backend that stops reading or never answers fails that frame, and
so does one that needs longer than that to start reading its first request
(the stub, a fresh interpreter, answers its first one about 85 ms after spawn).
Requests on one connection are serialized, and every response must echo its
request's ``frame_index`` as a JSON integer. :meth:`ExternalClient.request`
alone decides when to distrust a connection: it closes it on a timeout or
reset, on a desync (a wrong or missing echo) and on a framing fault (a
response that is not one whole, well-formed, header-only frame), and refuses
every later request.
"""

from __future__ import annotations

import socket
import subprocess
from typing import BinaryIO, Sequence

from ..errors import BackendError, DesyncError, ProtocolError
from ..geometry import ScoredBox
from ..media import Frame
from . import protocol

IO_TIMEOUT_S = 30.0


class SocketTransport:
    """A connected stream socket to a backend, and the child process serving it, if any."""

    def __init__(self, sock: socket.socket, proc: subprocess.Popen | None = None):
        sock.settimeout(IO_TIMEOUT_S)
        self._sock = sock
        self._proc = proc
        self.reader: BinaryIO = sock.makefile("rb")
        self.writer: BinaryIO = sock.makefile("wb")

    @classmethod
    def spawn(cls, command: Sequence[str]) -> SocketTransport:
        """Start ``command`` with one end of a socket pair as its stdin and stdout."""
        ours, theirs = socket.socketpair()
        try:
            proc = subprocess.Popen(command, stdin=theirs, stdout=theirs)
        except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the command
            ours.close()
            raise BackendError(f"cannot start backend process {list(command)}: {exc}") from exc
        finally:
            theirs.close()  # the child keeps its copy, so its exit reads as EOF here
        return cls(ours, proc)

    @classmethod
    def connect(cls, host: str, port: int) -> SocketTransport:
        try:
            sock = socket.create_connection((host, port), timeout=IO_TIMEOUT_S)
        except OSError as exc:
            raise BackendError(f"cannot connect to backend at {host}:{port}: {exc}") from exc
        return cls(sock)

    def close(self) -> None:
        self._sock.settimeout(0)  # flushing a stalled request must not wait out a second timeout
        for stream in (self.reader, self.writer):
            try:
                stream.close()
            except OSError:
                pass
        self._sock.close()
        if self._proc is not None:
            self._proc.terminate()
            try:
                self._proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()


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
