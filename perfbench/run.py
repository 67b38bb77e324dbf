#!/usr/bin/env python3
"""Build bdbms and the benchmark from source, then run one workload.

Run from the root of a bdbms checkout:

    python3 perfbench/run.py --workload curation --seed 1 --seconds 10 --trace 0

Build output goes to standard error; the benchmark's report and, as the
last line of standard output, its JSON result go to standard output.
Database files live under .perfbench/ in the checkout and are removed
when the run ends.
"""

import os
import subprocess
import sys

BENCH = "_build/default/perfbench/bench.exe"
SERVE = "_build/default/bin/bdbms_serve.exe"


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        print("perfbench: run from the root of a bdbms checkout "
              "(dune-project, lib/ and bin/ are missing)", file=sys.stderr)
        return 2
    # keep every build artifact inside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe", "./bin/bdbms_serve.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    run = subprocess.run([BENCH, "--serve", SERVE] + sys.argv[1:])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
