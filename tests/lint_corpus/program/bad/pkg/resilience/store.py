"""RPL102 fixtures: raw writes in, and reachable from, a scoped module.

``checkpoint`` (bad) funnels run-dir data into ``pkg.writer.spill``, a
raw write; ``flush`` (bad) writes directly *and* through it, and each
site is reported once.  ``summarize`` (good twin) calls into the same
unscoped module but the callee never writes, so it must stay clean.
"""

from pkg.writer import spill, tidy


def checkpoint(path, data):
    spill(path, data)


def summarize(path, data):
    return tidy(path, data)


def flush(path, data):
    path.write_text(data)
    spill(path, data)
