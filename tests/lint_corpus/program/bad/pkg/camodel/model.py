"""RPL101 fixture (zero-length chain): a wall-clock read reaching no sink.

The module mirrors ``camodel/model.py``, a ``wallclock_paths`` scope, so
the read is flagged at the read although the stamp never reaches a
content hash or a commit.
"""

import time


def stamp_model(record):
    record["built_at"] = time.time()
    return record
