"""The one atomic file writer.

Every artifact, ledger, manifest, lease, telemetry shard and cache file
the repository writes goes through :func:`write_text_atomic`, so a crash
(or a concurrent writer) can never leave a torn file behind: readers see
either the previous content or the new content.  Stdlib only, so every
layer — ``repro.obs``, ``repro.simulation``, ``repro.service``,
``repro.lint`` — can import it without pulling in the generation stack.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Union


def write_text_atomic(path: Union[str, Path], text: str) -> None:
    """Replace *path* with *text* without ever exposing a torn file.

    *text* goes to a temporary file in the target's directory (created
    if missing), which then replaces *path* through ``os.replace``.  On
    any failure the temporary file is removed and the exception
    propagates, leaving the previous content of *path* in place.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
