"""Start benchmark children from a process that stays small.

Usage: python3 perfbench/spawn.py   (run.py drives it over stdin/stdout)

On Linux a child's ``ru_maxrss`` is at least the resident set of the process
that spawned it, because the high-water mark of the memory image replaced by
exec is kept.  run.py grows (traces, samples), so it would inflate the peak
RSS of small children; this helper imports almost nothing and does the
spawning instead.  Each request is one JSON line ``{"argv": [...],
"stdout": path, "stderr": path, "timeout_s": n}``; each reply is one JSON
line with the child's wall time (spawn to reaped), its own CPU time and
peak RSS from ``os.wait4``, and its exit code.  The child is killed if it
runs past ``timeout_s``.  The helper exits when its stdin closes.
"""

import json
import os
import signal
import sys
import time


def run(request: dict) -> dict:
    out = os.open(request["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    err = os.open(request["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        actions = [(os.POSIX_SPAWN_DUP2, out, 1), (os.POSIX_SPAWN_DUP2, err, 2)]
        t0 = time.perf_counter()
        pid = os.posix_spawn(request["argv"][0], request["argv"], os.environ, file_actions=actions)
    finally:
        os.close(out)
        os.close(err)
    signal.signal(signal.SIGALRM, lambda signum, frame: os.kill(pid, signal.SIGKILL))
    signal.alarm(request["timeout_s"])
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.alarm(0)
    wall_s = time.perf_counter() - t0
    return {
        "wall_s": wall_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "exit_code": os.waitstatus_to_exitcode(status),
    }


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
