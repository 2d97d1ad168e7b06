"""Line-loop reference for the CSV vector reader.

``read_vector_csv`` strips each line, skips blank ones and converts the
rest one at a time.  The package's reader parses the whole file with one
``orjson.loads`` call and runs this loop, with no other float() pass,
only for files that call refuses or could read differently (a blank
line, ``-0`` as an integer, float()'s wider grammar).  ``read_vector``
on a .csv path must return the same array bit for bit, or raise
``FormatError`` with the same message.
"""

from chaosmark.fileio import FormatError, read_text
from chaosmark.phase_space import as_vector


def read_vector_csv(path):
    """One component per non-blank line, numbered from 1 in errors."""
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
    except (ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: {exc}") from exc
