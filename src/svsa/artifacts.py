"""The artifact writers, one for CSV tables and one for JSON documents,
``finite``, the one rule for the numbers JSON cannot hold, and ``_is_count``,
the one test of a JSON integer."""

from __future__ import annotations

import json
import math
from typing import Sequence

import numpy as np


def write_csv(path, columns: Sequence[str], data: np.ndarray) -> None:
    """The rows of the 2-D ``data`` under the header ``columns``, CRLF line ends
    (RFC 4180) and 17 significant digits, so every float round-trips exactly."""
    with open(path, "w", newline="") as fh:
        np.savetxt(fh, data, fmt="%.17g", delimiter=",", newline="\r\n",
                   header=",".join(columns), comments="")


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


def write_json(path, doc) -> None:
    """Write the ``finite`` document ``doc`` with sorted keys, a 2-space indent
    and a final newline; a non-finite float left in it raises ValueError."""
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")
