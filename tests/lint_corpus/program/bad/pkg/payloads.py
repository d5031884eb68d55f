"""RPL103 fixtures: worker payloads must be picklable all the way down.

``CellPayload.config`` (bad) reaches a ``TextIO`` through a nested
dataclass; ``ShardWorkItem`` (bad) holds one directly next to a nested
one, and both fields are flagged.  ``CleanWorkItem`` (good twin) nests
a handle-free dataclass and must stay clean.
"""

from dataclasses import dataclass
from typing import TextIO


@dataclass
class InnerConfig:
    log: TextIO


@dataclass
class CleanConfig:
    seed: int
    tag: str


@dataclass
class CellPayload:
    name: str
    config: InnerConfig


@dataclass
class CleanWorkItem:
    name: str
    config: CleanConfig


@dataclass
class ShardWorkItem:
    log: TextIO
    config: InnerConfig
