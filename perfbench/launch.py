"""Run one command and write its own resource usage to a JSON file.

    python3 -S perfbench/launch.py TIMEOUT_S USAGE.json ARGV...

A child's `ru_maxrss` on Linux also counts the memory of the process that
started it (exec records the starting process's high-water mark), so a
benchmark process holding more memory than a small command would report its
own size.  This launcher is a bare interpreter (`-S`, a few imports) that
starts ARGV with the inherited working directory, environment, CPU affinity
and standard streams, kills it after TIMEOUT_S seconds, waits for it and
writes {"status", "timed_out", "cpu_s", "maxrss_kb"} to USAGE.json.
"""

import json
import os
import select
import signal
import sys


def main() -> int:
    timeout, report, argv = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
    pid = os.posix_spawn(argv[0], argv, os.environ)
    timed_out = True
    try:
        fd = os.pidfd_open(pid)
        try:
            poller = select.poll()
            poller.register(fd, select.POLLIN)
            timed_out = not poller.poll(max(timeout, 0.0) * 1000)
        finally:
            os.close(fd)
    finally:  # on a time-out or an error, never leave the child behind
        if timed_out:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    with open(report, "w", encoding="utf-8") as fh:
        json.dump({"status": os.waitstatus_to_exitcode(status), "timed_out": timed_out,
                   "cpu_s": usage.ru_utime + usage.ru_stime, "maxrss_kb": usage.ru_maxrss}, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
