#!/usr/bin/env python3
"""Build and run the DPZ benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload flat-field --seed 1 --seconds 50 --trace 0

Every file the build and the run write goes under .bench_build/ in the
current directory: the Go build cache and temporary files, the benchmark
binary and the span files of traced runs. The benchmark module replaces
the dpz module with the directory above it, so without the repository
sources the build fails and this script exits non-zero without printing
a result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, ".bench_build")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        TMPDIR=tmp,
        GOTMPDIR=tmp,
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomodcache"),
        GOPATH=os.path.join(out, "gopath"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        XDG_CACHE_HOME=os.path.join(out, "cache"),
        GOPROXY="off",
        GOFLAGS="-mod=mod",
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOENV="off",
    )
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    cmd = [binary, *sys.argv[1:], "--trace-dir", os.path.join(out, "trace")]
    return subprocess.run(cmd, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
