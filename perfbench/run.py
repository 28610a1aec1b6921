#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds fecbench and the fecsynth daemon
with dune (into _build), then runs fecbench with the given arguments in
its own process group, which is killed if the run overstays its time
limit.  Build output goes to standard error, so fecbench's last line of
standard output stays the JSON result.
"""

import os
import signal
import subprocess
import sys

RUN_LIMIT_S = 170


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of a full checkout", file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "./perfbench/fecbench.exe", "./bin/fecsynth.exe"],
        stdout=sys.stderr, stdin=subprocess.DEVNULL)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join("_build", "default", "perfbench", "fecbench.exe")
    proc = subprocess.Popen([exe] + sys.argv[1:], start_new_session=True,
                            stdin=subprocess.DEVNULL)
    try:
        return proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_LIMIT_S, file=sys.stderr)
        return 124
    finally:
        # fecbench's daemon shares its process group; reap any straggler
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


if __name__ == "__main__":
    sys.exit(main())
