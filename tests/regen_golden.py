"""Rewrite tests/golden_digests.json from the current code.

Run from the repository root:

    PYTHONPATH=src python tests/regen_golden.py

It prints each digest that moved against the old file. Regenerate only when
a change moves seeded bits on purpose, and name the moved digests and the
reason in CHANGES.md.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from conftest import numpy_build  # noqa: E402
from test_golden import GOLDEN_FILE, compute_digests  # noqa: E402


def main() -> int:
    old = {}
    if os.path.exists(GOLDEN_FILE):
        with open(GOLDEN_FILE) as fh:
            old = json.load(fh)["digests"]
    new = compute_digests()
    for name in sorted(set(old) | set(new)):
        if old.get(name) != new.get(name):
            print(f"moved: {name}")
    with open(GOLDEN_FILE, "w") as fh:
        json.dump({"environment": numpy_build(), "digests": new}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(new)} digests to {GOLDEN_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
