"""Launcher process: runs one child at a time and reports its own peak RSS.

On Linux a child's ``ru_maxrss`` (from ``os.wait4``) starts at the RSS of
the process that forked it, because the forked memory image counts until
``exec``.  The benchmark's runner grows while it checks large outputs, so
children forked from it would report the runner's size instead of their
own.  This launcher imports only the standard library and stays small, so
``ru_maxrss`` of its children is their own peak.

Protocol: one JSON request per stdin line, ``{"cmd": [...], "stdout": path,
"timeout": seconds}``; one JSON reply per stdout line, ``{"wall_s",
"maxrss_kb", "returncode"}``.  The child's stderr goes to ``stdout`` +
".err".  Exits when stdin closes; on SIGTERM it kills and reaps the
running child first.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

_current = None


def _terminate(signum, _frame):
    if _current is not None and _current.poll() is None:
        _current.kill()
        _current.wait()
    sys.exit(128 + signum)


def run(cmd, stdout, timeout):
    global _current
    with open(stdout, "wb") as out, open(stdout + ".err", "wb") as err:
        t0 = time.perf_counter()
        proc = _current = subprocess.Popen(cmd, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "maxrss_kb": usage.ru_maxrss, "returncode": proc.returncode}


def main():
    signal.signal(signal.SIGTERM, _terminate)
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["cmd"], request["stdout"], request["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
