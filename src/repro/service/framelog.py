"""The one on-disk write path: CRC-framed append log + atomic snapshot.

Both durable logs of the service — the data WAL
(:mod:`repro.service.wal`) and the privacy-budget charge journal
(:mod:`repro.service.budget`) — keep their bytes here, so the frame
format, the integrity check and every durability flush exist exactly
once.  A directory holds two files:

* the **log**: frames ``[u32 length][u32 crc32][blob]`` (big-endian),
  appended one at a time and ``fsync``'d before :meth:`FrameLog.append`
  returns;
* the **snapshot**: a single frame of the same shape, replaced
  atomically (tmp file + ``fsync`` + ``os.replace`` + directory
  ``fsync``), after which the client truncates the log.

:class:`FrameLog` moves bytes and knows nothing about what a blob
means.  What differs between the clients is only what they do with the
torn tail :meth:`FrameLog.scan` hands back: the WAL drops it (the write
was never acked), the journal salvages its epsilon and re-journals a
clean frame (the release may have escaped).
"""

from __future__ import annotations

import io
import os
import struct
import zlib
from types import SimpleNamespace

from repro.api.wire import WireError, recv_frame_prefix, recv_message_body

#: Frame header: blob byte count, then CRC32 of the blob.
_PREFIX = struct.Struct(">II")
#: Its size — where the blob starts inside a frame (or a torn tail).
FRAME_HEADER_BYTES = _PREFIX.size


class FrameError(RuntimeError):
    """A snapshot whose single frame fails its length, CRC or decode."""


def frame(blob: bytes) -> bytes:
    return _PREFIX.pack(len(blob), zlib.crc32(blob)) + blob


def _unframe(data: bytes, pos: int = 0) -> bytes | None:
    """The blob of the frame at ``pos``; None when it is short or
    fails its CRC."""
    if pos + _PREFIX.size > len(data):
        return None
    length, crc = _PREFIX.unpack_from(data, pos)
    blob = data[pos + _PREFIX.size : pos + _PREFIX.size + length]
    if len(blob) != length or zlib.crc32(blob) != crc:
        return None
    return blob


def decode_message(blob: bytes):
    """Inverse of :func:`repro.api.wire.encode_message` over bytes.

    The socket-frame decoder reads through a ``recv``-shaped view, so
    the on-disk blobs and the wire share one codec.  Raises
    :class:`~repro.api.wire.WireError` or ``EOFError`` on a blob that
    does not decode.
    """
    reader = SimpleNamespace(recv=io.BytesIO(blob).read)
    return recv_message_body(reader, recv_frame_prefix(reader))


class FrameLog:
    """A framed append log plus its snapshot file, in one directory.

    Not internally locked: each client serializes its own calls (the
    RPC server's exclusive write lock, the accountant's lock).
    """

    def __init__(self, directory, log_name: str, snapshot_name: str):
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.log_path = os.path.join(self.directory, log_name)
        self.snapshot_path = os.path.join(self.directory, snapshot_name)
        self._log = None  # opened on first append

    def append(self, blob: bytes) -> None:
        """Frame ``blob`` onto the log's end and ``fsync`` it.

        The ack contract of both clients: the frame is on stable
        storage before the caller sees success.
        """
        if self._log is None:
            self._log = open(self.log_path, "ab")
        self._log.write(frame(blob))
        self._log.flush()
        os.fsync(self._log.fileno())

    def scan(self, decode) -> tuple[list, bytes]:
        """Read the log; returns ``(decoded frames, torn tail bytes)``.

        Parsing stops at the first frame that fails its length, its
        CRC or ``decode`` — everything after an interrupted write is
        untrusted.  That torn tail is cut from the file (and the cut
        ``fsync``'d) so later appends start on a clean frame boundary,
        and returned so the caller can still inspect it.
        """
        self.close()
        try:
            with open(self.log_path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return [], b""
        docs, pos = [], 0
        while (blob := _unframe(data, pos)) is not None:
            try:
                docs.append(decode(blob))
            except (WireError, EOFError):
                break
            pos += _PREFIX.size + len(blob)
        torn = data[pos:]
        if torn:
            with open(self.log_path, "r+b") as handle:
                handle.truncate(pos)
                handle.flush()
                os.fsync(handle.fileno())
        return docs, torn

    def write_snapshot(self, blob: bytes) -> None:
        tmp_path = self.snapshot_path + ".tmp"
        with open(tmp_path, "wb") as handle:
            handle.write(frame(blob))
            handle.flush()
            os.fsync(handle.fileno())
        # Atomic replace: a crash leaves either the old snapshot or the
        # new one, never a half-written file under the real name.
        os.replace(tmp_path, self.snapshot_path)
        self._fsync_directory()

    def read_snapshot(self, decode):
        """The decoded snapshot, or None when no snapshot exists.

        Unlike a torn log tail, a bad snapshot is never silently
        dropped: it stands for state that was acked, so a frame that
        fails its length, its CRC or ``decode`` raises
        :class:`FrameError` and the client refuses to start.
        """
        try:
            with open(self.snapshot_path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return None
        blob = _unframe(data)
        if blob is None:
            raise FrameError(
                f"snapshot {self.snapshot_path} fails its integrity check"
            )
        try:
            return decode(blob)
        except (WireError, EOFError) as exc:
            raise FrameError(
                f"snapshot {self.snapshot_path} does not decode: {exc}"
            ) from exc

    def truncate(self) -> None:
        """Empty the log (its frames now live in the snapshot)."""
        self.close()
        with open(self.log_path, "wb") as handle:
            handle.flush()
            os.fsync(handle.fileno())
        self._fsync_directory()

    def _fsync_directory(self) -> None:
        try:
            fd = os.open(self.directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-dependent
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def close(self) -> None:
        if self._log is not None:
            self._log.close()
            self._log = None
