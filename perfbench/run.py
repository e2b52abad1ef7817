#!/usr/bin/env python3
"""Build and run the spinstreams benchmark.

Run from the root of a spinstreams checkout:

    python3 perfbench/run.py --workload chain-max --seed 1 --seconds 10 --trace 0

The Go benchmark in this directory is compiled from the checkout's own
sources (its go.mod replaces the spinstreams module with the parent
directory). Every build and run artifact -- Go build cache, module cache,
temporary files, the benchmark binary and the per-run records -- stays
under .bench_build/ in the checkout. All arguments are passed through to
the benchmark binary; the last line it prints is the JSON result.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")


def source_digest():
    """SHA-256 over the checkout's Go sources, so a record names the exact
    code it measured even where no git metadata exists."""
    h = hashlib.sha256()
    for base, dirs, files in os.walk(ROOT):
        dirs[:] = sorted(d for d in dirs if not d.startswith("."))
        for name in sorted(files):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: run from the root of a spinstreams checkout (no go.mod here)", file=sys.stderr)
        return 2
    env = dict(os.environ)
    for key, sub in (
        ("GOCACHE", "gocache"),
        ("GOMODCACHE", "gomodcache"),
        ("GOPATH", "gopath"),
        ("GOTMPDIR", "tmp"),
        ("XDG_CONFIG_HOME", "config"),
        ("XDG_CACHE_HOME", "cache"),
    ):
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    env["GOTOOLCHAIN"] = "local"
    env["GOPROXY"] = "off"
    env["GOFLAGS"] = "-mod=mod"
    env["GOTELEMETRY"] = "off"
    env["CGO_ENABLED"] = "0"
    # All load comes from one process with at most two scheduler threads
    # and never more than the machine has.
    env["GOMAXPROCS"] = str(max(1, min(2, os.cpu_count() or 1)))

    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    args = [
        binary,
        "--out", os.path.join(BUILD, "records"),
        "--commit", commit(),
        "--source-digest", source_digest(),
        *sys.argv[1:],
    ]
    return subprocess.run(args, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
