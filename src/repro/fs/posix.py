"""FUSE-like POSIX layer (paper §III-C).

Scientific-workflow tasks are "legacy binaries which perform POSIX I/O
operations"; MemFSS serves them through a FUSE mount on the own nodes.
:class:`MountPoint` is that mount: it exposes ``open``/``read``/``write``/
``close``/``listdir``/``mkdir``/``unlink``/``rename``/``stat`` from one own
node's perspective.  Handle methods are generators (they cost simulated
time); only own nodes may mount (victims run no tasks, §III-C).

Writes are buffered per handle and flushed stripe-by-stripe through
:class:`~repro.fs.memfss.MemFSS`; for size-only workloads ``write_size``
appends virtual bytes.
"""

from __future__ import annotations

from ..cluster.node import Node
from .memfss import FileExists, FsError, MemFSS

__all__ = ["MountPoint", "FileHandle", "HandleClosed"]


class HandleClosed(FsError):
    """I/O attempted on a closed file handle."""


class FileHandle:
    """A write- or read-mode handle on one file.

    Write mode accumulates content (real bytes or a virtual size) and
    materializes the file on :meth:`close` — matching the paper's FUSE
    layer, which knows a file's stripe count only once it is complete.
    Read mode fetches the whole file on open and serves reads from the
    local buffer (MemFS-style whole-file staging).
    """

    def __init__(self, mount: "MountPoint", path: str, mode: str):
        if mode not in ("r", "w"):
            raise ValueError(f"mode must be 'r' or 'w', got {mode!r}")
        self.mount = mount
        self.path = path
        self.mode = mode
        self.closed = False
        self._buffer = bytearray()
        self._virtual_size = 0.0
        self._read_payload: bytes | None = None
        self._read_size = 0.0
        self._pos = 0

    def _check_open(self, mode: str) -> None:
        if self.closed:
            raise HandleClosed(f"{self.path}: handle is closed")
        if self.mode != mode:
            raise FsError(f"{self.path}: handle is {self.mode!r}-mode")

    # -- write side -----------------------------------------------------------
    def write(self, data: bytes):
        """Generator: append real bytes."""
        self._check_open("w")
        self._buffer.extend(data)
        return len(data)
        yield  # pragma: no cover - makes this a generator

    def write_size(self, nbytes: float):
        """Generator: append virtual bytes (simulation mode)."""
        self._check_open("w")
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if self._buffer:
            raise FsError("cannot mix write() and write_size() on one handle")
        self._virtual_size += nbytes
        return nbytes
        yield  # pragma: no cover - makes this a generator

    # -- read side -------------------------------------------------------------
    def read(self, n: int | None = None):
        """Generator: read up to *n* bytes from the current position.

        Returns bytes in payload mode, or a byte count in size-only mode.
        """
        self._check_open("r")
        if self._read_payload is not None:
            end = len(self._read_payload) if n is None else self._pos + n
            data = self._read_payload[self._pos:end]
            self._pos += len(data)
            return data
        total = int(self._read_size)
        end = total if n is None else min(total, self._pos + n)
        count = max(0, end - self._pos)
        self._pos += count
        return count
        yield  # pragma: no cover - makes this a generator

    def seek(self, pos: int) -> None:
        self._check_open("r")
        if pos < 0:
            raise ValueError("seek position must be non-negative")
        self._pos = pos

    @property
    def size(self) -> float:
        if self.mode == "w":
            return float(len(self._buffer)) or self._virtual_size
        return self._read_size

    # -- lifecycle --------------------------------------------------------------
    def close(self):
        """Generator: flush (write mode) and invalidate the handle."""
        if self.closed:
            return None
        self.closed = True
        if self.mode == "w":
            if self._buffer:
                meta = yield from self.mount.fs.write_file(
                    self.mount.node, self.path, payload=bytes(self._buffer))
            else:
                meta = yield from self.mount.fs.write_file(
                    self.mount.node, self.path, nbytes=self._virtual_size)
            self._buffer = bytearray()
            return meta
        return None


class MountPoint:
    """MemFSS as seen from one own node."""

    def __init__(self, fs: MemFSS, node: Node):
        fs.client(node)  # validates this is an own node
        self.fs = fs
        self.node = node

    # -- open/close -----------------------------------------------------------
    def open(self, path: str, mode: str = "r"):
        """Generator: open a file for reading or (over)writing."""
        handle = FileHandle(self, path, mode)
        if mode == "r":
            size, payload = yield from self.fs.read_file(self.node, path)
            handle._read_size = size
            handle._read_payload = payload
        else:
            exists = yield from self.fs.exists(self.node, path)
            if exists:
                raise FileExists(path)
        return handle

    # -- convenience whole-file operations --------------------------------------
    def write_file(self, path: str, nbytes: float | None = None,
                   payload: bytes | None = None, batch: int = 1):
        """Generator: create a file in one call (*batch* = bundled count)."""
        return (yield from self.fs.write_file(self.node, path, nbytes=nbytes,
                                              payload=payload, batch=batch))

    def read_file(self, path: str, batch: int = 1):
        """Generator: ``(size, payload_or_None)``."""
        return (yield from self.fs.read_file(self.node, path, batch=batch))

    # -- namespace ops ------------------------------------------------------------
    def mkdir(self, path: str):
        return (yield from self.fs.mkdir(self.node, path))

    def listdir(self, path: str):
        return (yield from self.fs.listdir(self.node, path))

    def unlink(self, path: str):
        return (yield from self.fs.unlink(self.node, path))

    def rename(self, old: str, new: str):
        return (yield from self.fs.rename(self.node, old, new))

    def stat(self, path: str):
        return (yield from self.fs.stat(self.node, path))

    def exists(self, path: str):
        return (yield from self.fs.exists(self.node, path))
