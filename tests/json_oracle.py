"""json.loads reference for the JSON vector reader.

``read_vector_json`` decodes the file's UTF-8 text with ``json.loads``
and checks the payload, as the package's reader did before it parsed
the bytes with one ``orjson.loads`` call and kept this path for what
orjson refuses or could read differently.  ``read_vector`` on a .json
path must return the same array bit for bit, or raise ``FormatError``
with the same message.
"""

import json

from chaosmark.fileio import FormatError, read_text
from chaosmark.phase_space import as_vector


def read_vector_json(path):
    """The "data" list of an object {"nv": n, "data": [...]}."""
    try:
        payload = json.loads(read_text(path))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "nv" not in payload or "data" not in payload:
        raise FormatError(f'{path}: expected an object with "nv" and "data"')
    data = payload["data"]
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
