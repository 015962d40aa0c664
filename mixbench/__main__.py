"""``python -m mixbench {run|selfcheck} ...``."""

import ctypes
import os
import sys

_ADDR_NO_RANDOMIZE = 0x0040000


def _pin_layout(argv):
    """Re-exec once on one CPU, with a fixed string-hash seed and,
    where the kernel allows it, without address-space randomisation
    (the server child inherits all three).

    One CPU: client and server take turns anyway (closed loop), and on
    two CPUs every reply pays a cross-CPU wake-up whose cost flipped
    between 0.06 and 0.12 ms for minutes at a time; it also puts the
    calibration kernel on the CPU the server's work runs on.  Fixed
    layout: a Python process's speed depends on where its objects
    happen to land, which gave two runs of one commit a ~5 % offset for
    their whole lifetime, in the server and in the kernel alike.
    """
    if os.environ.get("MIXBENCH_PINNED"):
        return
    os.environ["MIXBENCH_PINNED"] = "1"
    os.environ["PYTHONHASHSEED"] = "0"
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        libc = ctypes.CDLL(None)
        persona = libc.personality(0xFFFFFFFF)
        if persona != -1:
            libc.personality(persona | _ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass  # not pinned: noisier, still correct
    os.execv(sys.executable, [sys.executable, "-m", "mixbench"] + argv)


def main(argv):
    if argv and argv[0] == "run":
        _pin_layout(argv)
        from mixbench.run import main as run

        return run(argv[1:])
    if argv and argv[0] == "selfcheck":
        from mixbench.selfcheck import main as selfcheck

        return selfcheck(argv[1:])
    sys.stderr.write(
        "usage: python -m mixbench run [--workload W] [--seed N] "
        "[--seconds S] [--trace [0|1]]\n"
        "       python -m mixbench selfcheck [--sets 2] [--runs 5] "
        "[--write-bounds]\n"
    )
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
