"""Runs the benchmark's commands one at a time and reports, for each, its
exit code, wall time and peak RSS.

Linux reports a child's peak RSS as at least the RSS of the process that
forked it, so the benchmark forks its children from this small process
rather than from its own, which holds numpy and the corpora.

Protocol: one JSON request per stdin line,
``{"argv": [...], "cwd": ..., "stdout": path, "stderr": path, "timeout_s": s}``,
answered by one JSON line on stdout, ``{"code": ..., "wall_s": ..., "maxrss_kb": ...}``.
The process ends at the end of its input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(request["argv"], cwd=request["cwd"], stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(request["timeout_s"], proc.kill)
        timer.start()
        try:
            # the rusage of this one child, not the maximum over all children
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall_s = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall_s": wall_s, "maxrss_kb": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
