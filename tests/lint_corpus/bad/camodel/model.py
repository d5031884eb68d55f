"""RPL101 fixture (zero-length chain): a wall-clock read in an artifact module.

The file name mirrors ``camodel/model.py`` so the default
``wallclock_paths`` scope applies.  There is no site allowlist: every
read in a scoped module is flagged at the read, sink or no sink
(reviewed timing sites live outside the scope, policed by dataflow).
"""

import time


def stamp_artifact(record):
    record["written_at"] = time.time()
    return record
