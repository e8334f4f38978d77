"""Starts the benchmark's child processes from a small interpreter.

Linux carries a process's peak RSS across exec, so a child started by the
benchmark's own, larger interpreter would report that interpreter's peak
as its own.  This process stays small.  It reads one JSON request per line
on standard input: the children to run (argv, cwd, env, stdout and stderr
paths), the CPUs they may use, and a timeout.  It starts them all at once,
pinned to those CPUs, waits for every one, and answers with one JSON line
holding, per child in request order, its wall time, CPU time and peak RSS
from ``os.wait4``, and its exit code.  It exits when its input closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> list[dict]:
    os.sched_setaffinity(0, req["cpus"])  # the children inherit it
    procs, files = {}, []
    start = time.perf_counter()
    try:
        for i, child in enumerate(req["children"]):
            files += [open(child["stdout"], "wb"), open(child["stderr"], "wb")]
            proc = subprocess.Popen(child["argv"], cwd=child["cwd"],
                                    env=child["env"], stdout=files[-2],
                                    stderr=files[-1])
            procs[proc.pid] = (i, proc)
        timer = threading.Timer(
            req["timeout"], lambda: [p.kill() for _, p in procs.values()])
        timer.start()
        results: list[dict] = [{}] * len(procs)
        try:
            for _ in range(len(procs)):
                pid, status, usage = os.wait4(-1, 0)
                i, proc = procs[pid]
                proc.returncode = os.waitstatus_to_exitcode(status)
                results[i] = {"wall": time.perf_counter() - start,
                              "code": proc.returncode,
                              "cpu": usage.ru_utime + usage.ru_stime,
                              "rss_kb": usage.ru_maxrss}
        finally:
            timer.cancel()
    finally:
        for f in files:
            f.close()
    return results


def serve() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    serve()
