"""RPL102 fixture (zero-length chains): direct writes under a run-dir path."""

import json


def checkpoint(path, payload):
    with open(path, "w") as handle:
        json.dump(payload, handle)


def note(path, text):
    path.write_text(text)
