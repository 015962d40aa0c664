"""mixbench: the served-session benchmark of the MIX mediator.

One closed-loop client drives the mediator server (a child process)
through seeded BBQ-style session scripts over TCP; every timed sample is
scaled by an interleaved fixed calibration kernel so results are "at
reference speed" on a noisy shared box.  A separate traced run drives
the same deployment in-process with spans recorded around the public
entry points of each ``src/repro`` package.  Nothing under ``src/`` is
edited: every layer is measured from outside.  See ``README.md``.
"""

import os
import sys

#: The checkout root (the directory holding ``mixbench/`` and ``src/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "bench-out", "mixbench")


def require_repro():
    """Put ``src/`` on ``sys.path``; exit 2 when the program is absent
    (a directory holding only the benchmark cannot run it)."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write(
            "mixbench: no program to measure: {} is missing\n".format(
                os.path.join(SRC, "repro")
            )
        )
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
