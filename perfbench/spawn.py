"""Run one command; write its wall time, peak RSS (KiB) and exit code to a file.

    python perfbench/spawn.py REPORT_FILE -- CMD...

A spawned process starts in its parent's address space, and Linux
carries that address space's peak RSS through exec into the child's
ru_maxrss.  This launcher is a small process of its own, so the peak
reported for CMD is CMD's own and not the benchmark's (whose oracle
holds arrays of 2^20 entries).  stdin, stdout and stderr pass through.
"""

import os
import sys
import time


def main() -> int:
    sep = sys.argv.index("--")
    report, cmd = sys.argv[1], sys.argv[sep + 1:]
    start = time.perf_counter()
    pid = os.posix_spawn(cmd[0], cmd, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    with open(report, "w", encoding="utf-8") as fh:
        fh.write(f"{wall!r} {usage.ru_maxrss} {os.waitstatus_to_exitcode(status)}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
