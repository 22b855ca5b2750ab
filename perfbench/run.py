#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload host-colocation --seed 1 --seconds 40 --trace 0

The Go toolchain's cache, temporary files and the binary stay under
.bench_build/ in the current directory. Arguments are passed to the
benchmark unchanged; the last line it prints is the JSON result.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    pkg = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
    )
    binary = os.path.join(build, "bin", "perfbench")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=pkg, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
