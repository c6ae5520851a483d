#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The simulator and the benchmark are built with dune into the checkout's
_build directory; build output goes to stderr.  The benchmark's own
output goes to stdout, and its last line is the JSON result.  The exit
code is the benchmark's: 0 when the simulated output checked out.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = "./perfbench/bin/main.exe"


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    return None


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        print("perfbench: no dune project at %s; nothing to build" % ROOT,
              file=sys.stderr)
        return 2
    dune = dune_command()
    if dune is None:
        print("perfbench: dune not found", file=sys.stderr)
        return 2
    build = subprocess.run(
        dune + ["build", "--root", ROOT, TARGET],
        cwd=ROOT,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=out_dir)
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "bin", "main.exe")
    sys.stdout.flush()
    run = subprocess.run(
        [exe] + sys.argv[1:] + ["--git-rev", git_rev()], cwd=ROOT, env=env
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
