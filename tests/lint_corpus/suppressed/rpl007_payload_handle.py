"""RPL103 suppression fixture (a depth-0 handle field)."""

from dataclasses import dataclass
from typing import TextIO


@dataclass
class CellWorkPayload:
    name: str
    log_handle: TextIO  # reprolint: disable=RPL103
