#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload deque-churn --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. It builds the perfbench command from the
checkout's sources into .bench_build/ -- Go's build cache and temporary
files included, so nothing is written outside the checkout -- runs it with
the given arguments, and exits with its exit code. The last line of standard
output is the benchmark's JSON result. A traced run (--trace 1) also writes
its spans to .bench_build/perfbench/spans-<workload>-<seed>.jsonl.
"""

import argparse
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "go.mod")) or not os.path.isdir(
        os.path.join(root, "internal")
    ):
        print("run.py: the lfrc module is not next to perfbench/; run from a full checkout", file=sys.stderr)
        return 2

    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        {
            "GOCACHE": os.path.join(build, "gocache"),
            "GOPATH": os.path.join(build, "gopath"),
            "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
            "GOTMPDIR": os.path.join(build, "tmp"),
            "TMPDIR": os.path.join(build, "tmp"),
            "XDG_CONFIG_HOME": os.path.join(build, "config"),
            "XDG_CACHE_HOME": os.path.join(build, "cache"),
            "GOENV": "off",
            "GOPROXY": "off",
            "GOTOOLCHAIN": "local",
            "GOWORK": "off",
        }
    )
    for d in ("tmp", "config", "cache", "perfbench"):
        os.makedirs(os.path.join(build, d), exist_ok=True)

    binary = os.path.join(build, "perfbench", "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        return built.returncode

    args = sys.argv[1:]
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--workload", default="")
    p.add_argument("--seed", default="1")
    p.add_argument("--trace", default="0")
    known, _ = p.parse_known_args(args)
    if known.trace == "1":
        spans = "spans-%s-%s.jsonl" % (known.workload, known.seed)
        args += ["--spans", os.path.join(build, "perfbench", spans)]
    sys.stdout.flush()
    return subprocess.run([binary] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
