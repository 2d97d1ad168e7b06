"""Byte-loop reference for the PGM reader.

``read_vector_pgm`` skips whitespace and ``#`` comments one byte at a
time, as the package's reader did before it matched each token with
one anchored regular expression.  The package reader must return the
same array bit for bit, or raise ``FormatError`` with the same message.
"""

import numpy as np

from chaosmark.fileio import FormatError
from chaosmark.phase_space import as_vector


def read_vector_pgm(path) -> np.ndarray:
    """Single-channel PGM (P2 ascii or P5 binary), flattened row-major."""
    blob = path.read_bytes()
    pos = 0

    def token() -> bytes:
        nonlocal pos
        while pos < len(blob):
            ch = blob[pos:pos + 1]
            if ch == b"#":
                while pos < len(blob) and blob[pos:pos + 1] not in (b"\n", b"\r"):
                    pos += 1
            elif ch.isspace():
                pos += 1
            else:
                break
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError(f"{path}: truncated PGM header")
        return blob[start:pos]

    magic = token()
    if magic not in (b"P2", b"P5"):
        raise FormatError(f"{path}: not a PGM file (magic {magic!r})")
    try:
        width, height, maxval = int(token()), int(token()), int(token())
    except ValueError as exc:
        raise FormatError(f"{path}: bad PGM header") from exc
    if width < 1 or height < 1 or not 0 < maxval < 65536:
        raise FormatError(f"{path}: bad PGM dimensions or maxval")
    count = width * height
    if magic == b"P2":
        try:
            samples = [int(token()) for _ in range(count)]
        except FormatError:
            raise FormatError(f"{path}: PGM pixel data truncated")
        except ValueError as exc:
            raise FormatError(
                f"{path}: PGM samples must be integers: {exc}") from exc
        arr = np.array(samples, dtype=np.float64)
    else:
        pos += 1  # exactly one whitespace byte separates header from raster
        width_bytes = 2 if maxval > 255 else 1
        need = count * width_bytes
        raster = blob[pos:pos + need]
        if len(raster) != need:
            raise FormatError(f"{path}: PGM raster truncated")
        dtype = ">u2" if width_bytes == 2 else np.uint8
        arr = np.frombuffer(raster, dtype=dtype).astype(np.float64)
    if np.any(arr < 0) or np.any(arr > maxval):
        raise FormatError(f"{path}: PGM sample out of range")
    return as_vector(arr)
