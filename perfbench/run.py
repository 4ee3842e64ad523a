#!/usr/bin/env python3
"""Build and run the Glasswing benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload wc-native --seed 1 --seconds 15 --trace 0

The Go build cache, temporary files, the binary, traces and layer tables
all go under .bench_build/ in the current directory. Arguments are passed
to the benchmark binary unchanged; its exit code is returned.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=mod -buildvcs=false",
        "GOWORK": "off",
    })
    binary = os.path.join(build, "perfbench-bin")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
