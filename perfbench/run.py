#!/usr/bin/env python3
"""Build and run the repository benchmark from the repository root.

    python3 perfbench/run.py --workload fabric_perm --seed 1 --seconds 25 --trace 0

Builds perfbench/main.exe with dune (the first build compiles the
simulator's libraries from source), then runs it with the same
arguments.  The last line of standard output is the JSON result; the
exit status is non-zero when the build fails or a scheme-run fails its
checks.  See perfbench/README.md.
"""
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the repository root "
              "(no dune-project or lib/ here)", file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        return build.returncode
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
