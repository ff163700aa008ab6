#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload open-batch --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py summarize .bench_build/perfbench/results/*.json

The first form runs one workload and prints, as its last line, the JSON
result; the second prints the median and spread of result files. Everything
the build and the runs write stays under $CARGO_TARGET_DIR (default
.bench_build) in the repository: the Go build and module caches, the
stores a workload builds, and the stamped result and span files.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    out = os.path.join(build, "perfbench")
    env = dict(os.environ)
    # Keep the toolchain's caches, temporary files and telemetry inside the
    # checkout, and never reach for the network.
    for key, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomodcache"),
                     ("GOPATH", "gopath"), ("GOTMPDIR", "tmp"), ("TMPDIR", "tmp"),
                     ("HOME", "home"), ("XDG_CONFIG_HOME", "config"),
                     ("XDG_CACHE_HOME", "cache")):
        env[key] = os.path.join(out, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOPROXY="off", GOFLAGS="-mod=readonly", GOTOOLCHAIN="local",
               GOWORK="off", GOSUMDB="off")

    binary = os.path.join(out, "bin", "lbebench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        sys.exit(built.returncode or 1)

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                                capture_output=True, text=True).stdout.strip()
    except OSError:
        commit = ""
    env["LBEBENCH_COMMIT"] = commit or "unknown"

    args = sys.argv[1:]
    if args[:1] != ["summarize"]:
        args += ["--work", os.path.join(out, "work"),
                 "--out", os.path.join(out, "results"), "--src", root]
    # Become the benchmark, so no child outlives this process and its exit
    # code is the command's.
    sys.stdout.flush()
    sys.stderr.flush()
    os.execve(binary, [binary] + args, env)


if __name__ == "__main__":
    main()
