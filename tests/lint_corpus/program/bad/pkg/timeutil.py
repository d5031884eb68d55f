"""RPL101 source: a wall-clock read laundered through a helper.

RPL101 never flags this read itself (it is not in wallclock_paths);
only reachability analysis can connect ``indirect()`` to the hash sink
in ``pkg.hasher``.
"""

import time


def stamp():
    return time.time()


def indirect():
    return stamp()
