"""Set-up probe, run in a fresh interpreter by run.py.

Usage: python3 setup_probe.py <src dir> <config dir>

Imports circleresp from <src dir>, parses every ``*.cfg`` in <config dir>
and prints the CLOCK_MONOTONIC time at which that finished, so the parent
can time the whole start-up from just before it launched this process.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, sys.argv[1])

import circleresp  # noqa: E402
from circleresp.config import load_config  # noqa: E402

if not Path(circleresp.__file__).resolve().is_relative_to(Path(sys.argv[1]).resolve()):
    sys.exit(f"circleresp imported from {circleresp.__file__}, not {sys.argv[1]}")
for path in sorted(Path(sys.argv[2]).glob("*.cfg")):
    load_config(path)
print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
