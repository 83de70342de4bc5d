#!/usr/bin/env python3
"""Build and run the layer-ledger benchmark.

    python3 perfbench/run.py --workload tcp-read --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The Go package in this directory is built
into the build directory ($CARGO_TARGET_DIR, default .bench_build), with the
Go build cache kept there too, so a run reads and writes only inside the
checkout. The last line of standard output is the result JSON; its metric
names and units are checked against BENCHMARK.json before it is passed on.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT = 170  # seconds; a run must end within 180


# Where the Go toolchain is looked for when `go` is not on PATH, as when the
# benchmark runs under a minimal environment.
GO_FALLBACKS = ["/usr/local/go/bin/go", "/usr/lib/go/bin/go"]


def find_go():
    goroot = os.environ.get("GOROOT")
    candidates = [shutil.which("go")]
    if goroot:
        candidates.append(os.path.join(goroot, "bin", "go"))
    for path in candidates + GO_FALLBACKS:
        if path and os.path.isfile(path) and os.access(path, os.X_OK):
            return path
    return None


def build(build_dir):
    go = find_go()
    if go is None:
        print("perfbench: no Go toolchain on PATH, in $GOROOT/bin or at " + ", ".join(GO_FALLBACKS),
              file=sys.stderr)
        return None
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build_dir, "gocache"),
        "GOPATH": os.path.join(build_dir, "gopath"),
        "GOMODCACHE": os.path.join(build_dir, "gopath", "pkg", "mod"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
    })
    binary = os.path.join(build_dir, "perfbench")
    env["PATH"] = os.path.dirname(go) + os.pathsep + env.get("PATH", "")
    proc = subprocess.run([go, "build", "-o", binary, "."], cwd=HERE, env=env,
                          stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        return None
    return binary


def declared(trace):
    path = os.path.join(HERE, "..", "BENCHMARK.json")
    with open(path) as f:
        bench = json.load(f)
    section = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[section]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    try:
        want = declared(args.trace)
    except (OSError, ValueError, KeyError) as err:
        print(f"perfbench: cannot read BENCHMARK.json: {err}", file=sys.stderr)
        return 2
    binary = build(build_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace), "-workdir", build_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT, text=True)
    except subprocess.TimeoutExpired as err:
        sys.stdout.write(err.stdout or "")
        print(f"perfbench: run exceeded {RUN_TIMEOUT}s", file=sys.stderr)
        return 3
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if proc.returncode != 0:
        sys.stdout.write(lines[-1] + "\n")
        return proc.returncode
    try:
        result = json.loads(lines[-1])
        got = {k: v["unit"] for k, v in result["metrics"].items()}
    except (ValueError, KeyError, TypeError) as err:
        print(f"perfbench: unreadable result line: {err}", file=sys.stderr)
        return 4
    if got != want:
        print(f"perfbench: metrics {sorted(got.items())} differ from BENCHMARK.json {sorted(want.items())}",
              file=sys.stderr)
        return 5
    sys.stdout.write(lines[-1] + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
