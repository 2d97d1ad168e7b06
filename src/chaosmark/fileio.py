"""File formats and report rendering for the command-line tools.

Vectors travel as JSON objects {"nv": n, "data": [...]}, as
single-column CSV (one component per line), or read-only as PGM images
(P2/P5, single channel, flattened row-major).  Messages are bit
strings, plain or 0b-prefixed, or 0x-prefixed hex rendered MSB-first
into exactly nc bits.  Reports carry one envelope (schema, command,
config) and serialize with sorted keys and fixed layout so identical
runs produce byte-identical files.  This module is the only one that
reads or writes a file.
"""

from __future__ import annotations

import hashlib
import json
import re
import struct
import sys
from pathlib import Path

import numpy as np

from .phase_space import as_vector

SCHEMA = "chaosmark/3"
# Whitespace and #-comments to the end of their line, then one token.
# Matched from where the last token ended, so none is found in a comment.
_PGM_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*)*(\S*)")


class FormatError(ValueError):
    """Input file or literal does not match its expected format."""


# ---------- vectors ----------

def read_vector(path) -> np.ndarray:
    """Load a vector, picking the format from the file extension."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".json":
        return _read_vector_json(path)
    if suffix == ".csv":
        return _read_vector_csv(path)
    if suffix == ".pgm":
        return _read_vector_pgm(path)
    raise FormatError(
        f"unsupported vector format {suffix!r} for {path}; use .json, .csv, or .pgm")


def write_vector(path, vec) -> None:
    """Write a vector as .json or .csv, picked by extension."""
    path = Path(path)
    vec = as_vector(vec)
    suffix = path.suffix.lower()
    if suffix == ".json":
        payload = {"nv": int(vec.size), "data": [float(v) for v in vec]}
        path.write_text(json.dumps(payload, sort_keys=True) + "\n",
                        encoding="utf-8")
    elif suffix == ".csv":
        path.write_text("".join(f"{float(v)!r}\n" for v in vec),
                        encoding="utf-8")
    else:
        raise FormatError(
            f"unsupported vector output format {suffix!r}; use .json or .csv")


def read_text(path) -> str:
    """Read a UTF-8 text file; undecodable bytes raise FormatError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc


def _read_vector_json(path: Path) -> np.ndarray:
    try:
        payload = json.loads(read_text(path))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "nv" not in payload or "data" not in payload:
        raise FormatError(f'{path}: expected an object with "nv" and "data"')
    data = payload["data"]
    # type(), not isinstance(): JSON true/false decode to bool, an int subclass
    if not isinstance(data, list) or type(payload["nv"]) is not int:
        raise FormatError(f'{path}: "nv" must be an integer and "data" a list')
    if payload["nv"] != len(data):
        raise FormatError(
            f'{path}: "nv" is {payload["nv"]} but "data" has {len(data)} entries')
    if not all(type(v) in (int, float) for v in data):
        raise FormatError(f'{path}: "data" entries must be JSON numbers')
    try:
        return as_vector(data)
    except (ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _read_vector_csv(path: Path) -> np.ndarray:
    values = []
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            values.append(float(line))
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: not a number: {line!r}") from exc
    if not values:
        raise FormatError(f"{path}: no values found")
    try:
        return as_vector(values)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _read_vector_pgm(path: Path) -> np.ndarray:
    """Single-channel PGM (P2 ascii or P5 binary), flattened row-major."""
    blob = path.read_bytes()
    pos = 0

    def token() -> bytes:
        nonlocal pos
        match = _PGM_TOKEN.match(blob, pos)
        pos = match.end()
        if not match[1]:
            raise FormatError(f"{path}: truncated PGM header")
        return match[1]

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


# ---------- messages ----------

def parse_message_text(text: str, nc: int | None) -> np.ndarray:
    """Parse a message literal into nc bits.

    Accepts a bit string ("0101" or "0b0101", of length nc; with nc None
    its length is the width) or hex ("0x2a"), whose integer value is
    rendered MSB-first into nc bits and must fit.  An nc below 1, or hex
    without nc, raises ValueError; a malformed literal, FormatError.
    """
    if nc is not None and nc < 1:
        raise ValueError(f"nc must be a positive integer, got {nc!r}")
    text = text.strip()
    if not text:
        raise FormatError("empty message")
    if text.lower().startswith("0x"):
        if nc is None:
            raise ValueError("--nc is required when the message is hex")
        try:
            value = int(text, 16)
        except ValueError as exc:
            raise FormatError(f"invalid hex message {text!r}") from exc
        if value >= 1 << nc:
            raise FormatError(
                f"hex message {text!r} does not fit in {nc} bits")
        raw = np.frombuffer(value.to_bytes((nc + 7) // 8, "big"), np.uint8)
        return np.unpackbits(raw)[-nc:]
    if text.lower().startswith("0b"):
        text = text[2:]
    if not text or set(text) - {"0", "1"}:
        raise FormatError(
            "message must be a bit string (optionally 0b-prefixed) or 0x-prefixed hex")
    if nc is not None and len(text) != nc:
        raise FormatError(f"message has {len(text)} bits, expected {nc}")
    return np.frombuffer(text.encode("ascii"), np.uint8) - ord("0")


def bits_to_string(bits) -> str:
    return "".join(str(int(b)) for b in bits)


# ---------- reports ----------

def key_fingerprint(key: int) -> str:
    """Short stable digest of an embedding key; never the key itself."""
    return hashlib.sha256(struct.pack("<Q", key)).hexdigest()[:16]


def report(command: str, config: dict, **body) -> dict:
    """Report envelope: schema, command and effective config, then the body."""
    return {"schema": SCHEMA, "command": command, "config": config, **body}


def emit(payload: dict, fmt: str, out, kind: str = "kv") -> None:
    """Write a report as JSON or CSV (the trace layout for kind "trace",
    else key-value) to the file out, or to stdout when out is empty."""
    if fmt == "json":
        text = render_json(payload)
    elif kind == "trace":
        text = render_trace_csv(payload)
    else:
        text = render_kv_csv(payload)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def render_json(payload: dict) -> str:
    """Strict JSON: a non-finite float raises ValueError, since JSON has none."""
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (int, str)):
        return str(value)
    if value is None:
        return ""
    return json.dumps(value, sort_keys=True)


def _flatten(prefix: str, value, rows: list) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else str(key), value[key], rows)
    else:
        rows.append((prefix, _csv_cell(value)))


def render_kv_csv(payload: dict) -> str:
    """Key,value CSV of a nested payload, keys dotted and sorted."""
    rows: list[tuple[str, str]] = []
    _flatten("", payload, rows)
    out = ["key,value"]
    for key, cell in rows:
        if "," in cell or '"' in cell or "\n" in cell:
            cell = '"' + cell.replace('"', '""') + '"'
        out.append(f"{key},{cell}")
    return "\n".join(out) + "\n"


def render_trace_csv(payload: dict) -> str:
    """Trace CSV: commented schema/config header, then step rows."""
    trace = payload["trace"]
    head = {k: v for k, v in payload.items() if k != "trace"}
    meta = {"columns": trace["columns"], "meta": trace.get("meta", {})}
    lines = [
        f"# {payload['schema']}",
        "# " + json.dumps(head, sort_keys=True),
        "# " + json.dumps(meta, sort_keys=True),
        ",".join(trace["columns"]),
    ]
    for row in trace["points"]:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row))
    return "\n".join(lines) + "\n"
