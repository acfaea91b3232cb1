"""Runs the benchmark's processes from an interpreter that stays small.

Linux carries a parent's peak resident size over into the ru_maxrss of a
child it spawns.  The harness holds numpy and parsed payloads of several MB,
so a child spawned from it would report the harness's peak whenever that is
the larger.  This process imports only the standard library, so its peak
stays well below that of any operation, and a child's ru_maxrss is the
operation's own.

    python3 perfbench/spawner.py

Reads one JSON request a line on stdin, {"argv", "out", "err", "cwd"}, runs
the interpreter with argv and its output going to the files out and err,
and answers one JSON line on stdout, {"seconds", "exit", "rss_mb",
"timed_out"}.  On SIGTERM it kills the running child, waits for it and exits.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time

OP_TIMEOUT_S = 150.0


def spawn(argv: list[str], out: str, err: str, cwd: str) -> dict:
    """Time one process from spawn to exit.  Exit is observed through a
    pidfd, so the timing has no polling delay."""
    with open(out, "wb") as out_fh, open(err, "wb") as err_fh:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + argv, stdout=out_fh, stderr=err_fh,
                                stdin=subprocess.DEVNULL, cwd=cwd)
        try:
            fd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([fd], [], [], OP_TIMEOUT_S)
            finally:
                os.close(fd)
        except BaseException:  # never leave the operation running
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise
        if not ready:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"seconds": elapsed, "exit": proc.returncode, "rss_mb": usage.ru_maxrss / 1024.0,
            "timed_out": not ready}


def main() -> int:
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for line in iter(sys.stdin.readline, ""):
        print(json.dumps(spawn(**json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
