"""Re-pin the golden outputs: write ``tests/golden/`` from the cases' producers.

    python tests/regen_golden.py

Run it with ``vlcfair`` importable (installed, or ``PYTHONPATH=src``),
and only for a change that is meant to alter results; report each use in
CHANGES.md, where ``git diff tests/golden`` shows what moved.  It runs
every producer of ``tests/golden_cases.py`` in a temporary directory,
writes each file whose bytes changed, removes any file the table does
not name, and prints each file it wrote or removed.  It writes nothing
when two cases that name one file produce different bytes.  Tier-1 never
runs it: pytest collects only ``test_*.py``.
"""

import sys
import tempfile
from pathlib import Path

from golden_cases import CASES, GOLDEN, golden_files, prepare


def main() -> int:
    produced = {}
    with tempfile.TemporaryDirectory() as tmp:
        prepare(Path(tmp))
        for case, (name, produce) in CASES.items():
            data = produce(Path(tmp))
            if produced.setdefault(name, data) != data:
                print(f"error: case {case} and an earlier case name {name} "
                      "but produce different bytes", file=sys.stderr)
                return 1
    GOLDEN.mkdir(exist_ok=True)
    for stale in sorted(golden_files() - produced.keys()):
        (GOLDEN / stale).unlink()
        print(f"removed tests/golden/{stale}")
    for name, data in sorted(produced.items()):
        path = GOLDEN / name
        if not path.is_file() or path.read_bytes() != data:
            path.write_bytes(data)
            print(f"wrote tests/golden/{name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
