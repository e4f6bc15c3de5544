#!/usr/bin/env python3
"""Run one workload of the soctest benchmark from the root of a checkout.

    python3 perfbench/run.py --workload cold|explore|serve --seed N \
        --seconds S --trace 0|1

Builds the benchmark executables and the `soctest` daemon from source (dune,
release profile, no shared cache), then runs one workload. The last line
of stdout is the result object; the line before it stamps the host and
the build. Store files go to .perfbench/ in the checkout.

    python3 perfbench/run.py --selftest        load-generator self-test
    python3 perfbench/run.py --record-golden   rewrite perfbench/golden.tsv
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BUILD = "_build/default"
TARGETS = ["./perfbench/bench.exe", "./perfbench/selftest.exe", "./bin/main.exe"]


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--profile", "release"] + TARGETS
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
    if done.returncode != 0:
        sys.exit("perfbench: build failed")


def command_output(cmd):
    try:
        return subprocess.run(
            cmd, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def source_digest():
    """The commit when the checkout is a git work tree, else a digest of
    the sources the benchmark builds."""
    if os.path.isdir(".git"):
        return command_output(["git", "rev-parse", "HEAD"])
    h = hashlib.sha256()
    for top in ["dune-project", "lib", "bin", "perfbench"]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs
        )
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def stamp():
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ocaml": command_output(["ocamlopt", "-version"]),
        "commit": source_digest(),
        "profile": "release",
    }


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=["cold", "explore", "serve"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--record-golden", action="store_true")
    a = p.parse_args()
    if not (a.workload or a.selftest or a.record_golden):
        p.error("give --workload, --selftest or --record-golden")
    build()
    daemon = os.path.join(BUILD, "bin/main.exe")
    if a.selftest:
        cmd = [os.path.join(BUILD, "perfbench/selftest.exe"), "--daemon", daemon]
    elif a.record_golden:
        cmd = [os.path.join(BUILD, "perfbench/bench.exe"), "--record-golden"]
    else:
        print(json.dumps({"stamp": stamp()}), flush=True)
        cmd = [
            os.path.join(BUILD, "perfbench/bench.exe"),
            "--workload", a.workload,
            "--seed", str(a.seed),
            "--seconds", str(a.seconds),
            "--trace", str(a.trace),
            "--daemon", daemon,
            "--work", ".perfbench",
            "--golden", "perfbench/golden.tsv",
        ]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
