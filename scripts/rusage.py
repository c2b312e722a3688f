#!/usr/bin/env python3
"""Wall time, peak memory and page faults of one fso-secrecy command.

Usage:

    python scripts/rusage.py [--src SRC] COMMAND [ARGS...]

Runs ``fso-secrecy COMMAND ARGS...`` from the package in SRC (by default
the ``src/`` of the tree holding this script) in a fresh child
interpreter, with its standard output discarded, and prints one JSON
line: the wall time in seconds, the child's peak resident set in MB
(``ru_maxrss`` of ``RUSAGE_CHILDREN``), its minor and major page faults,
and its exit code.  The script exits with the child's exit code.

Standard library only, so the child starts under a small parent: Linux
carries a parent's RSS high-water mark into its child across fork and exec,
so a parent that had imported numpy would hide every lower peak of the
child's.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

_LAUNCH = "import sys; from fso_secrecy.cli import main; sys.exit(main(sys.argv[1:]))"


def measure(src: Path, argv: list[str]) -> dict:
    """The usage document of one ``fso-secrecy`` run of ``argv`` on ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _LAUNCH, *argv], env=env, stdout=subprocess.DEVNULL
    )
    wall = time.perf_counter() - t0
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "argv": argv,
        "exit": proc.returncode,
        "wall_s": round(wall, 4),
        "peak_rss_mb": round(usage.ru_maxrss / 1024.0, 1),  # ru_maxrss is in KiB on Linux
        "minflt": usage.ru_minflt,
        "majflt": usage.ru_majflt,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="fso-secrecy command line")
    args = parser.parse_args()
    if not args.command:
        parser.error("a fso-secrecy command is required")
    doc = measure(args.src.resolve(), args.command)
    print(json.dumps(doc))
    return doc["exit"]


if __name__ == "__main__":
    sys.exit(main())
