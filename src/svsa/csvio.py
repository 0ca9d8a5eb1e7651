"""The one CSV writer shared by every artifact table: a header row, comma
separated fields, CRLF line ends (RFC 4180) and 17 significant digits, so
every float round-trips exactly."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def write_csv(path, columns: Sequence[str], data: np.ndarray) -> None:
    """Write the rows of the 2-D ``data`` under the header ``columns``."""
    with open(path, "w", newline="") as fh:
        np.savetxt(fh, data, fmt="%.17g", delimiter=",", newline="\r\n",
                   header=",".join(columns), comments="")
