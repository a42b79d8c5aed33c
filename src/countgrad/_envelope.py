"""The binary envelope that corpus and checkpoint files share.

A file is a 4-byte magic, a body that opens with a u16 version and the
u32-length JSON echo of a config dataclass, and a u32 CRC-32 (zlib) of
the body. ``write`` frames an echo and the records after it; ``open_body``
verifies the frame and returns a ``Reader`` positioned at the echo. Each
format keeps its own magic, version and error class; every failure raises
that class with the byte position, from the start of the file, at which
it was found.
"""

from __future__ import annotations

import zlib
from contextlib import contextmanager
from dataclasses import fields

import numpy as np


def uint(value: int, n: int, field: str) -> bytes:
    """``value`` as an n-byte unsigned integer; one that does not fit raises ValueError naming ``field``."""
    try:
        return int(value).to_bytes(n, "little")
    except OverflowError:
        raise ValueError(f"{field} {value} does not fit in {n} unsigned bytes") from None


def uints(values, dtype: str, field: str) -> bytes:
    """An integer array as one block of unsigned ``dtype``, range-checked like ``uint``."""
    arr = np.asarray(values)
    bad = arr[(arr < 0) | (arr > np.iinfo(dtype).max)]
    if bad.size:
        raise ValueError(f"{field} {bad[0]} does not fit in {np.dtype(dtype).itemsize} unsigned bytes")
    return arr.astype(dtype).tobytes()


def write(path, magic: bytes, version: int, echo: str, body: bytes) -> None:
    """Write magic, version, the JSON ``echo``, ``body`` and the CRC-32 of all but the magic."""
    echo = echo.encode()
    head = uint(version, 2, "version") + uint(len(echo), 4, "echo length") + echo
    with open(path, "wb") as fh:
        fh.writelines((magic, head, body, zlib.crc32(body, zlib.crc32(head)).to_bytes(4, "little")))


def open_body(path, magic: bytes, version: int, error: type[Exception]) -> Reader:
    """Read ``path`` and verify its magic, length, checksum and version."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != magic:
        raise error(f"bad magic at byte 0: {blob[:4]!r}")
    end = len(blob) - 4
    if end < 6:
        raise error(f"file too short for version and checksum: ends at byte {len(blob)}")
    if zlib.crc32(memoryview(blob)[4:end]) != int.from_bytes(blob[end:], "little"):
        raise error(f"checksum mismatch: crc32 stored at byte {end} does not match the body")
    r = Reader(blob, end, error)
    if (found := r.u(2)) != version:
        raise error(f"unsupported version {found} at byte 4")
    return r


class Reader:
    """Bounds-checked cursor over a verified body; ``pos`` counts from the start of the file."""

    def __init__(self, blob: bytes, end: int, error: type[Exception]):
        self.blob, self.pos, self.end, self.error = blob, 4, end, error

    def take(self, n: int) -> bytes:
        if self.pos + n > self.end:
            raise self.error(f"truncated at byte {self.pos}: needed {n} more")
        self.pos += n
        return self.blob[self.pos - n : self.pos]

    def u(self, n: int) -> int:
        return int.from_bytes(self.take(n), "little")

    def text(self, what: str) -> str:
        """The next u16-length UTF-8 string; undecodable bytes raise the format's error."""
        start = self.pos
        raw = self.take(self.u(2))
        try:
            return raw.decode()
        except UnicodeDecodeError as exc:
            raise self.error(f"{what} at byte {start} is not UTF-8: {exc}") from None

    def array(self, dtype: str, count: int) -> np.ndarray:
        """The next ``count`` items of ``dtype`` as a read-only array."""
        return np.frombuffer(self.take(np.dtype(dtype).itemsize * count), dtype)

    @contextmanager
    def invariants(self, what: str, start: int):
        """Re-raise a plain ValueError from the block as the format's error, naming
        ``what`` at byte ``start``; the format's own errors pass through unchanged."""
        try:
            yield
        except self.error:
            raise
        except ValueError as exc:
            raise self.error(f"{what} at byte {start}: {exc}") from exc

    def echo(self, parse, what: str):
        """``parse`` applied to the next u32-length JSON echo; its ValueError becomes the format's."""
        start = self.pos
        text = self.take(self.u(4))
        with self.invariants(f"{what} echo", start):  # includes malformed JSON and undecodable bytes
            return parse(text.decode())

    def finish(self, what: str) -> None:
        """Reject bytes left between the last record and the checksum."""
        if self.pos != self.end:
            raise self.error(f"{self.end - self.pos} trailing bytes after {what} at byte {self.pos}")


def from_echo(cls, raw, what: str, strict_ints: bool):
    """``cls(**raw)`` for a decoded JSON echo holding every field of the dataclass
    ``cls`` and no other; a missing, unknown or ill-typed field raises a ValueError naming it."""
    if not isinstance(raw, dict):
        raise ValueError(f"{what} is not a JSON object")
    odd = sorted({f.name for f in fields(cls)} ^ set(raw))
    if odd:
        kind = "unknown" if odd[0] in raw else "missing"
        raise ValueError(f"{kind} {what} field {odd[0]!r}")
    for f in fields(cls):
        if not _json_fits(raw[f.name], f.default, strict_ints):
            raise ValueError(f"{what} field {f.name!r} has bad value {raw[f.name]!r}")
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()})


def _json_fits(value, default, strict_ints: bool) -> bool:
    """Is a JSON value typed like ``default`` (a list like its first item for a tuple)?
    Any number passes for a number, but ``strict_ints`` wants an int for an int."""
    if isinstance(default, tuple):
        return isinstance(value, list) and all(_json_fits(v, default[0], strict_ints) for v in value)
    if type(default) in (int, float) and not (strict_ints and type(default) is int):
        return type(value) in (int, float)
    return type(value) is type(default)
