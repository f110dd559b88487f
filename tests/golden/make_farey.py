"""Generate the golden `farey --d D` output that tests/test_golden.py
compares against.

farey_stdout.json maps each D = 1..40, as a string, to the exact stdout of
the in-process CLI run `farey --d D` (every run exits 0).

Run from the repository root:

    PYTHONPATH=src python tests/golden/make_farey.py

The output is deterministic.  Regenerate it only for a deliberate change of
the packing search's sizes or witnesses, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from golden.make_corpus import run_cli  # noqa: E402

FAREY = HERE / "farey_stdout.json"
DS = range(1, 41)


def farey_stdout(d: int) -> str:
    code, out = run_cli(["farey", "--d", str(d)])
    if code != 0:
        raise SystemExit(f"farey --d {d} exits {code}")
    return out


def main():
    golden = {str(d): farey_stdout(d) for d in DS}
    FAREY.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"{len(golden)} runs written to {FAREY.name}")


if __name__ == "__main__":
    main()
