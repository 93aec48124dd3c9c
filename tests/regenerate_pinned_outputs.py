"""Rewrite ``tests/pinned_outputs.json`` from the current code.

Usage (from the root of a checkout)::

    PYTHONPATH=src python tests/regenerate_pinned_outputs.py

Run it only for a change that is meant to move a pinned value, and say
in the change's notes what moved, by how much and why.  Before it
rewrites the file it prints that: per run, how many floats moved and
the largest relative move, then every changed exact value and every
added or removed path.
"""

import json
import tempfile

from test_pinned_outputs import EXPECTED, pinned_values


def moves(old: dict, new: dict) -> list[str]:
    """Lines saying what moved from the pinned ``old`` to ``new``."""
    floats, changed = {}, []
    for path in sorted(old.keys() | new.keys()):
        run = path.split(":", 1)[0]
        if path not in new or path not in old:
            changed.append(f"{'removed' if path not in new else 'added'}: {path}")
            continue
        want, got = old[path], new[path]
        if isinstance(want, float) and isinstance(got, float):
            count, largest, where = floats.get(run, (0, 0.0, ""))
            if got != want:
                rel = abs(got - want) / max(abs(want), abs(got))
                count, (largest, where) = count + 1, max((largest, where), (rel, path))
            floats[run] = (count, largest, where)
        elif got != want or type(got) is not type(want):
            changed.append(f"exact value changed: {path}: {want!r} -> {got!r}")
    lines = [f"{run}: {count} floats moved, largest relative move {largest:.3g}"
             + (f" ({where})" if count else "")
             for run, (count, largest, where) in floats.items()]
    return lines + changed


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        values = pinned_values(tmp)
    for line in moves(json.loads(EXPECTED.read_text(encoding="utf-8")), values):
        print(line)
    EXPECTED.write_text(json.dumps(values, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(values)} values to {EXPECTED}")
