#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark is built with
`cargo build --release --offline` into $CARGO_TARGET_DIR (default
`.bench_build`); build output goes to standard error. The last line of
standard output is the result object; the line before it holds the run's
details. Spans of a traced run are written to
`$CARGO_TARGET_DIR/perfbench-out/`.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The program's sources; the benchmark builds them from the checkout.
SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "src"]
# Longest a single run may take once built; runs are expected to end
# within 180 s.
RUN_TIMEOUT_S = 170


def revision():
    """The git revision when the checkout is a repository, else a hash of
    the source tree the benchmark builds."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return "git:" + r.stdout.strip()
    h = hashlib.sha256()
    for top in SOURCES + ["perfbench"]:
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else []
        for d, dirs, files in os.walk(base):
            dirs[:] = sorted(x for x in dirs if x != "target")
            paths += [os.path.join(d, f) for f in sorted(files)]
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    a = ap.parse_args()

    os.chdir(ROOT)
    missing = [s for s in SOURCES if not os.path.exists(s)]
    if missing:
        print(f"perfbench: sources missing from {ROOT}: {missing}", file=sys.stderr)
        return 2

    target = os.path.relpath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    workdir = os.path.join(target, "perfbench-run")
    cmd = [os.path.join(target, "release", "perfbench"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", a.trace,
           "--workdir", workdir,
           "--outdir", os.path.join(target, "perfbench-out"),
           "--revision", revision()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        # The run keeps its WAL files and socket under <workdir>/<pid>;
        # a run that was killed cannot remove them itself.
        shutil.rmtree(os.path.join(workdir, str(proc.pid)), ignore_errors=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
