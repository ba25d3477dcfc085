"""Start benchmark children on request and report their time and memory.

Reads one JSON request per line on stdin, ``{"argv", "cwd", "stdout"}``,
runs it as a child process with this process's environment and stderr
discarded, and answers with one JSON line: ``{"seconds", "exit",
"cpu_s", "maxrss_kb"}``, where ``seconds`` is spawn-to-reap wall time.
Exits when stdin closes.

Linux carries the resident high-water mark of the process that calls
``exec`` into the child's ``ru_maxrss``.  This process stays small, so a
child's peak is its own and not that of the benchmark process, which
holds and parses large outputs.
"""

import json
import os
import subprocess
import sys
import threading
import time

CHILD_TIMEOUT_S = 60.0  # the slowest invocation takes about 3 s


def run(argv: list, cwd: str, stdout: str) -> dict:
    with open(stdout, "wb") as out:
        start = time.perf_counter()
        child = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL, cwd=cwd)
        killer = threading.Timer(CHILD_TIMEOUT_S, child.kill)
        killer.start()
        _, status, usage = os.wait4(child.pid, 0)
        seconds = time.perf_counter() - start
        killer.cancel()
    child.returncode = os.waitstatus_to_exitcode(status)
    return {"seconds": seconds, "exit": child.returncode,
            "cpu_s": usage.ru_utime + usage.ru_stime, "maxrss_kb": usage.ru_maxrss}


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        print(json.dumps(run(request["argv"], request["cwd"], request["stdout"])), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
