"""The artifact writers, one for CSV tables and one for JSON documents,
``finite``, the one rule for the numbers JSON cannot hold, and ``_is_count``,
the one test of a JSON integer."""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _quote
from typing import Sequence

import numpy as np

_ROWS = 256  # CSV rows formatted by one % call


def write_csv(path, columns: Sequence[str], data: np.ndarray) -> None:
    """The rows of the 2-D ``data`` under the header ``columns``, CRLF line ends
    (RFC 4180) and 17 significant digits, so every float round-trips exactly: the
    bytes of ``np.savetxt(fmt="%.17g")``, formatted a block of rows at a time."""
    line = ",".join(["%.17g"] * data.shape[1]) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\r\n")
        for start in range(0, data.shape[0], _ROWS):
            block = data[start:start + _ROWS]
            fh.write(line * block.shape[0] % tuple(block.ravel().tolist()))


def _is_count(v, least: int = 0) -> bool:
    """A JSON integer (not a boolean) of at least ``least``."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= least


def finite(node):
    """``node`` with each non-finite float, in its dicts and lists too, as None
    (JSON has no Infinity or NaN); other values keep their bits.  A container is
    copied only when a value in it changes, so a config's own lists stay as they are."""
    if isinstance(node, float):
        return node if math.isfinite(node) else None
    out = node
    if isinstance(node, (dict, list)):
        for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
            new = finite(value)
            if new is not value:
                out = node.copy() if out is node else out
                out[key] = new
    return out


def json_text(doc) -> list[str]:
    """The text of ``json.dump(doc, sort_keys=True, indent=2, allow_nan=False)``
    and a newline, in chunks.  A non-finite float raises ValueError; a key that
    is not a str, or a value of a type JSON does not hold, raises TypeError."""
    chunks, pieces = [], []
    put = pieces.append

    def emit(node, pad):
        if isinstance(node, str):
            put(_quote(node))
        elif node is None or node is True or node is False:
            put("null" if node is None else "true" if node else "false")
        elif isinstance(node, int):
            put(int.__repr__(node))
        elif isinstance(node, float):
            if not math.isfinite(node):
                raise ValueError(f"{node!r} is not JSON compliant")
            put(float.__repr__(node))
        elif isinstance(node, (dict, list, tuple)):
            inner = pad + "  "
            sep, comma = inner, "," + inner
            if isinstance(node, dict):
                if not all(isinstance(key, str) for key in node):
                    raise TypeError("keys must be str")
                put("{")
                for key in sorted(node):
                    put(sep + _quote(key) + ": ")
                    emit(node[key], inner)
                    sep = comma
                put(pad + "}" if node else "}")
            else:
                put("[")
                for value in node:
                    put(sep)
                    emit(value, inner)
                    sep = comma
                put(pad + "]" if node else "]")
            if len(pieces) >= 4096:  # joined a chunk at a time: memory near the text's size
                chunks.append("".join(pieces))
                pieces.clear()
        else:
            raise TypeError(f"{type(node).__name__} is not JSON serializable")

    emit(doc, "\n")
    put("\n")
    return chunks + ["".join(pieces)]


def write_json(path, doc) -> None:
    """Write the ``finite`` document ``doc`` as ``json_text``: sorted keys, a
    2-space indent and a final newline.  The text is made before the file is
    opened, so a document it refuses leaves no file."""
    text = json_text(doc)
    with open(path, "w") as fh:
        fh.writelines(text)
