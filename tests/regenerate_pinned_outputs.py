"""Rewrite ``tests/pinned_outputs.json`` from the current code.

Usage (from the root of a checkout)::

    PYTHONPATH=src python tests/regenerate_pinned_outputs.py

Run it only for a change that is meant to move a pinned value, and say
in the change's notes what moved, by how much and why.
"""

import json
import tempfile

from test_pinned_outputs import EXPECTED, pinned_values

if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        values = pinned_values(tmp)
    EXPECTED.write_text(json.dumps(values, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(values)} values to {EXPECTED}")
