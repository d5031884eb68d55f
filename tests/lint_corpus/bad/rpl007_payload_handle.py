"""RPL103 fixture (zero-length chain): an open handle on a worker payload."""

from dataclasses import dataclass
from typing import TextIO


@dataclass
class CellWorkPayload:
    name: str
    log_handle: TextIO
