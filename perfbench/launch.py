"""Run one command and print its own resource use as JSON.

Usage: python3 perfbench/launch.py STDOUT_FILE STDERR_FILE -- ARGV...

Prints {"returncode", "wall_s", "cpu_s", "maxrss_kb"}.  The caller enforces
the time limit by killing this launcher's session.

The benchmark starts every pbcert command through this launcher because
Linux carries a process's peak RSS across exec from the memory it ran in
before.  A command started straight from the benchmark, which holds the
generated data, would report the benchmark's own peak.  This process stays
small and has this one child, so the peak RSS and CPU time that
`RUSAGE_CHILDREN` reports are the command's.
"""

import json
import resource
import subprocess
import sys
import time


def run(argv, stdout_path, stderr_path) -> dict:
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        returncode = subprocess.call(argv, stdout=out, stderr=err)
        wall = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {"returncode": returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss}


def main(args) -> int:
    if len(args) < 4 or args[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(run(args[3:], args[0], args[1])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
