"""RPL102 suppression fixture: file-level disable."""

# reprolint: disable-file=RPL102

import json


def checkpoint(path, payload):
    with open(path, "w") as handle:
        json.dump(payload, handle)


def note(path, text):
    path.write_text(text)
