"""RPL102 terminal site: a raw (non-atomic) write helper.

This module is *outside* every atomic_paths scope, so RPL102 never
flags the write itself.  The violation is the call edge from the scoped
``pkg.resilience.store`` into ``spill`` — only visible to the
whole-program pack.
"""


def spill(path, data):
    with open(path, "w") as fh:
        fh.write(data)


def tidy(path, data):
    text = data.strip()
    return len(text)
