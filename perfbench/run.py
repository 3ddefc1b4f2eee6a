#!/usr/bin/env python3
"""Build and run hbmvolt's end-to-end benchmark (the Go module beside this file).

Run from the repository root; every argument is passed to the benchmark:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

The benchmark binary, the Go build cache and the nodes' cache directories
all live in the build directory ($CARGO_TARGET_DIR, default .bench_build),
so a run writes nothing outside the checkout. The binary is rebuilt only
when a Go source, go.mod or go.sum of the repository changes.
"""

import hashlib
import os
import subprocess
import sys


def source_stamp(root, skip):
    """Hash every Go source and module file under root, in path order."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames
                             if not d.startswith(".") and os.path.join(dirpath, d) != skip)
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(root, "go.mod")) or \
            not os.path.isfile(os.path.join(root, "testdata", "campaign", "paper-repro-smoke-shared", "manifest.json")):
        print("perfbench: run from the root of an hbmvolt checkout", file=sys.stderr)
        return 2
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build, exist_ok=True)
    binary = os.path.join(build, "perfbench")
    stamp_file = binary + ".stamp"
    stamp = source_stamp(root, build)
    env = dict(os.environ,
               GOCACHE=os.path.join(build, "gocache"),
               GOPATH=os.path.join(build, "gopath"),
               GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
               XDG_CONFIG_HOME=os.path.join(build, "config"),
               GOENV="off", GOFLAGS="-mod=mod", GOTOOLCHAIN="local", GOPROXY="off",
               CGO_ENABLED="0", PERFBENCH_BUILD=build)
    try:
        with open(stamp_file) as f:
            fresh = f.read() == stamp and os.path.isfile(binary)
    except OSError:
        fresh = False
    if not fresh:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                               stdout=sys.stderr)
        if built.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1
        with open(stamp_file, "w") as f:
            f.write(stamp)
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
