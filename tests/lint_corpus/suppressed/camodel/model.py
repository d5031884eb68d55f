"""Suppressed twin of ``bad/camodel/model.py``."""

import time


def stamp_artifact(record):
    record["written_at"] = time.time()  # reprolint: disable=RPL101
    return record
