"""File formats and report rendering for the command-line tools.

Vectors travel as JSON objects {"nv": n, "data": [...]}, as
single-column CSV (one component per line), or read-only as PGM images
(P2/P5, single channel, flattened row-major).  Messages are bit
strings, plain or 0b-prefixed, or 0x-prefixed hex rendered MSB-first
into exactly nc bits.  Reports carry one envelope (schema, command,
config) and serialize with sorted keys and fixed layout so identical
runs produce byte-identical files.  This module is the only one that
reads or writes a file.

Every output is rendered and encoded in full, then written over its
file's old bytes, and a regular file is cut to the new length after.
Truncating a written file to zero first, as opening it in mode "w"
does, makes ext4 flush it on close: on a shared 2-core x86 VM a 3 KB
rewrite took 54-60 us that way and 10-15 us in place.  The write is
still not atomic.

A vector's text is repr's for each component, as json.dumps writes it:
the shortest digits that read back to the same double.  repr costs
about 0.6 us a float, most of a stego vector's write; orjson, a
required dependency, writes the same digits about five times faster
(0.12 against 0.63 ms for 1024 floats on the same VM), and _floats
lets repr redo only what orjson lays out differently.

A vector file is read the same way: its numbers, ints and floats
alike, go through one orjson.loads call, 0.1 ms for 1024 of them against
0.2-0.35 ms through json.loads or float() a line.  What orjson refuses
or could read otherwise (NaN, nesting, an "nv" past 64 bits, -0 in a CSV
line, 007 in a P2 body, a comment, float()'s wider grammar) takes the
json, float() or regex path, whose values and error texts these are.

The vector readers, _floats and key_fingerprint import orjson and
hashlib themselves, which spares tm and analyze a tenth of the CLI's
import time and 4 MiB of RSS.  A fresh decode process now pays orjson's
import for a read that saves about 0.25 ms at nv 1024: its median wall
time rose 2-4 ms at nv 1024 and 4096 on the same VM.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import re
import stat
import struct
import sys
from pathlib import Path

import numpy as np

from . import budget
from .phase_space import _frozen, as_vector

SCHEMA = "chaosmark/5"
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
    reader = {".json": _read_vector_json, ".csv": _read_vector_csv,
              ".pgm": _read_vector_pgm}.get(suffix)
    if reader is None:
        raise FormatError(f"unsupported vector format {suffix!r} for {path}; "
                          "use .json, .csv, or .pgm")
    values = reader(path)  # its own FormatError passes unwrapped
    try:
        return as_vector(values)
    except (ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_vector(path, vec) -> None:
    """Write a vector as .json or .csv, picked by extension."""
    path = Path(path)
    vec = as_vector(vec)
    suffix = path.suffix.lower()
    if suffix == ".json":
        # json.dumps({"nv": ..., "data": ...}, sort_keys=True)'s bytes
        _write(path, '{"data": [' + _floats(vec, ", ")
               + f'], "nv": {vec.size}}}\n')
    elif suffix == ".csv":
        _write(path, _floats(vec, "\n") + "\n")
    else:
        raise FormatError(
            f"unsupported vector output format {suffix!r}; use .json or .csv")


def _floats(vec: np.ndarray, sep: str) -> str:
    """sep.join(map(repr, vec.tolist())) for a vector of finite floats.

    orjson writes repr's shortest digits, but where repr takes an
    exponent, at 0 < |x| < 1e-4 and |x| >= 1e16, orjson lays them out
    its own way (0.000025 for 2.5e-05, 1e-7 for 1e-07, 1e16 for 1e+16),
    so repr writes just those components again.  The cut is exact: the
    shortest digits of the double nearest 1e-4 are 1e-4, so those of
    every double below it are below 1e-4, and likewise at 1e16.  Zeros
    agree.  Other orjson releases may lay digits out differently, so
    pyproject.toml holds orjson to the minor release the tests passed on.
    """
    import orjson
    values = vec.tolist()
    parts = orjson.dumps(values)[1:-1].decode("ascii").split(",")
    mag = np.abs(vec)
    for i in np.flatnonzero(((mag > 0) & (mag < 1e-4)) | (mag >= 1e16)):
        parts[i] = repr(values[i])
    return sep.join(parts)


def _write(path, text: str) -> None:
    """Path.write_text(text, "utf-8") without the truncation to zero: only
    a regular file is cut to length, so /dev/null and FIFOs still work."""
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        rest = memoryview(data)
        while rest:  # a write may take fewer bytes than it was given
            rest = rest[os.write(fd, rest):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def read_text(path) -> str:
    """Read a UTF-8 text file; undecodable bytes raise FormatError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc


def _read_vector_json(path: Path) -> list:
    import orjson
    blob = path.read_bytes()
    try:
        payload = orjson.loads(blob)
    except orjson.JSONDecodeError:
        payload = None
    # orjson reads what json reads, but refuses NaN, Infinity, lone
    # surrogates and numbers past the largest double, and makes ints past
    # 64 bits floats (as_vector's doubles, but an "nv" json reads as an
    # int).  A second [ or { may nest past json's recursion limit, which
    # follows the caller's stack.  json reads those files, so each value
    # and each error text is its own.
    if (payload is None or blob.count(b"[") > 1 or blob.count(b"{") > 1
            or type(payload) is dict and type(payload.get("nv")) is float):
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
    if not set(map(type, data)) <= {int, float}:
        raise FormatError(f'{path}: "data" entries must be JSON numbers')
    return data


def _json_list(items: bytes, size: int) -> list | None:
    """orjson's reading of b"[" + items + b"]" if it is size values; None
    if it is not, or orjson refuses the text."""
    import orjson
    try:
        values = orjson.loads(b"[" + items + b"]")
    except orjson.JSONDecodeError:
        return None
    return values if len(values) == size else None


def _read_vector_csv(path: Path) -> list[float]:
    # One number a line reads as float() reads it: orjson refuses a blank
    # line and every break but \n and \r\n, and a line of two values is
    # counted.  Its ints are float()'s values but for -0, the int 0 to
    # orjson and -0.0 to float(): a -0 with no fraction or exponent.
    body = path.read_bytes().rstrip(b"\n")
    values = _json_list(body.replace(b"\n", b","), body.count(b"\n") + 1)
    if values is not None:
        kinds = set(map(type, values))
        if kinds <= {float} or (kinds <= {int, float}
                                and not re.search(rb"-0(?![.eE])", body)):
            return values
    values = []
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.strip()  # as float() strips
        if not line:
            continue
        try:
            values.append(float(line))
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: not a number: {line!r}") from exc
    if not values:
        raise FormatError(f"{path}: no values found")
    return values


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
        # bytes.split() finds _PGM_TOKEN's tokens up to a comment, whose
        # first token orjson refuses for its #.  orjson reads an integer
        # as int() does; it refuses 007 and +3, and makes ints past 64
        # bits floats, which the regex path reads or refuses.
        tokens = blob[pos:].split()[:count]
        samples = _json_list(b",".join(tokens), len(tokens))
        if samples is None or not set(map(type, samples)) <= {int}:
            # only the match at the end of the blob has an empty token
            tokens = _PGM_TOKEN.findall(blob, pos)[:count]
            try:
                samples = list(map(int, filter(None, tokens)))
            except ValueError as exc:
                raise FormatError(
                    f"{path}: PGM samples must be integers: {exc}") from exc
        if len(samples) < count:
            raise FormatError(f"{path}: PGM pixel data truncated")
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
    return arr


# ---------- messages ----------

def parse_message_text(text: str, nc: int | None) -> np.ndarray:
    """Parse a message literal into nc bits.

    Accepts a bit string ("0101" or "0b0101", of length nc; with nc None
    its length is the width) or hex ("0x2a"), whose integer value is
    rendered MSB-first into nc bits and must fit.  An nc below 1, or hex
    without nc, raises ValueError; a width over MAX_MESSAGE_BITS,
    BudgetExceeded; a malformed literal, FormatError.
    """
    if nc is not None and nc < 1:
        raise ValueError(f"nc must be a positive integer, got {nc!r}")
    if nc is not None:
        budget.charge("MAX_MESSAGE_BITS", nc, f"a message of --nc {nc} bits")
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
        if value.bit_length() > nc:
            raise FormatError(
                f"hex message {text!r} does not fit in {nc} bits")
        raw = np.frombuffer(value.to_bytes((nc + 7) // 8, "big"), np.uint8)
        return _frozen(np.unpackbits(raw)[-nc:].copy())
    if text.lower().startswith("0b"):
        text = text[2:]
    if nc is None:
        budget.charge("MAX_MESSAGE_BITS", len(text), f"a message of {len(text)} bits")
    if not text or set(text) - {"0", "1"}:
        raise FormatError(
            "message must be a bit string (optionally 0b-prefixed) or 0x-prefixed hex")
    if nc is not None and len(text) != nc:
        raise FormatError(f"message has {len(text)} bits, expected {nc}")
    return _frozen(np.frombuffer(text.encode("ascii"), np.uint8) - ord("0"))


def bits_to_string(bits) -> str:
    """Bits, each 0 or 1, as a string of "0" and "1" characters."""
    return (np.asarray(bits, dtype=np.uint8) + ord("0")).tobytes().decode("ascii")


# ---------- reports ----------

def key_fingerprint(key: int) -> str:
    """Short stable digest of an embedding key; never the key itself."""
    import hashlib
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
        _write(out, text)
    else:
        sys.stdout.write(text)


def render_json(payload: dict) -> str:
    """Strict JSON: the bytes of json.dumps(payload, sort_keys=True,
    indent=2, allow_nan=False), then a newline.

    With indent, json.dumps runs its pure-Python encoder, several
    generator frames per number.  Here Python walks only the containers
    that hold containers.  A scalar, a list or dict of scalars, or a
    list of non-empty scalar rows goes to json's C encoder in one call,
    whose item separator carries the indentation.  Whatever that path
    refuses (NaN or +-inf, a key that is not a str, an unsupported
    type, a cycle) goes to json.dumps itself, so each error keeps its
    type and text: a non-finite float raises ValueError, since JSON has
    none.
    """
    chunks: list[str] = []
    try:
        _layout(payload, 0, chunks)
    except (ValueError, TypeError, RecursionError):
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    chunks.append("\n")
    return "".join(chunks)


@functools.cache
def _block_encoder(depth: int):
    """json's strict C encoder whose list items sit at depth (two spaces
    a level); it refuses NaN, +-inf and unsupported types."""
    return json.encoder.c_make_encoder(
        None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
        None, ": ", ",\n" + "  " * depth, True, False, False)


def _scalars(items) -> bool:
    return not any(issubclass(kind, (dict, list, tuple))
                   for kind in set(map(type, items)))


def _layout(value, depth: int, out: list) -> None:
    """Append value's indented JSON, its closing line at depth, to out."""
    if not isinstance(value, (dict, list, tuple)) or not value:
        out.append("".join(_block_encoder(depth)(value, 0)))
        return
    close = "\n" + "  " * depth
    pad = close + "  "
    is_dict = isinstance(value, dict)
    if _scalars(value.values() if is_dict else value):
        text = "".join(_block_encoder(depth + 1)(value, 0))
        out += (text[0] + pad, text[1:-1], close + text[-1])
    elif is_dict:
        sep = "{" + pad
        for key, item in sorted(value.items()):
            # a key that is not a str raises TypeError here
            out.append(sep + json.encoder.encode_basestring_ascii(key) + ": ")
            _layout(item, depth + 1, out)
            sep = "," + pad
        out.append(close + "}")
    elif (all(issubclass(kind, (list, tuple)) for kind in set(map(type, value)))
          and all(map(len, value)) and _scalars(itertools.chain.from_iterable(value))):
        # One call lays the rows out at depth + 2, row seams included;
        # ensure_ascii escapes every newline in a string, so a seam
        # "],\n<pad>[" can only come from a separator.
        inner = pad + "  "
        text = "".join(_block_encoder(depth + 2)(value, 0))
        text = text.replace("]," + inner + "[", pad + "]," + pad + "[" + inner)
        out += ("[" + pad + "[" + inner, text[2:-2], pad + "]" + close + "]")
    else:
        sep = "[" + pad
        for item in value:
            out.append(sep)
            _layout(item, depth + 1, out)
            sep = "," + pad
        out.append(close + "]")


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
        if "," in cell or '"' in cell or "\n" in cell or "\r" in cell:
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
