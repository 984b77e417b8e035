"""Print the sha256 of every file the nine demos write, for a few seeds.

Usage: ``PYTHONPATH=src python tools/demo_digest.py SEED...``

Each demo runs through ``demos.run_demo`` at 3 epochs into a temporary
directory; the output is one ``<sha256>  <seed>/<demo>/<file>`` line per
file written (metrics, parameters and artifact CSVs), sorted by path.
Two checkouts that print the same lines behave the same on these runs.
"""

import hashlib
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from reallogic import demos


def digests(seeds) -> list:
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            for demo in demos.DEMO_IDS:
                train = replace(demos.default_train(demo, seed), epochs=3)
                demos.run_demo(demo, seed, train, out=Path(tmp, str(seed), demo))
        for path in sorted(Path(tmp).rglob("*")):
            if path.is_file():
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                lines.append(f"{digest}  {path.relative_to(tmp)}")
    return lines


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: demo_digest.py SEED...")
    print("\n".join(digests([int(s) for s in sys.argv[1:]])))
