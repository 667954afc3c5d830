#!/usr/bin/env python3
"""Builds hydrabench from the checkout it sits in, then runs it.

    python3 hydrabench/run.py --workload upf_churn --seed 1 \
        --seconds 45 --trace 0

Run from the root of a checkout. The CMake build tree goes to
$CARGO_TARGET_DIR when that is set, else to .bench_build (relative paths are
taken from the checkout root). Build output goes to standard error, so the
benchmark's last line of standard output stays its JSON result. Every
argument is passed to the benchmark binary, which rejects anything it does
not understand with exit status 2.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = pathlib.Path(__file__).resolve().parent
# The binary measures for --seconds (at most MAX_SECONDS, as it enforces)
# and needs at most this much more for set-up, warm-up and its checks (about
# 15 s on upf_churn); the timeout only catches a hang, and even at
# MAX_SECONDS it ends the run within 180 s.
MAX_SECONDS = 60
MARGIN_S = 115


def build_dir():
    d = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"run.py: no hydra sources at {ROOT / 'src'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return False
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "hydrabench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def source_identity():
    """Git commit when there is one, plus a hash of the built sources."""
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        git_sha = sha.stdout.strip() if sha.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        git_sha = "none"
    h = hashlib.sha256()
    files = [p for top in ("src", "hydrabench")
             for p in (ROOT / top).rglob("*") if p.is_file()]
    files.append(ROOT / "tools" / "cli_parse.hpp")
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return git_sha, h.hexdigest()[:16]


def run_timeout(args):
    """Wall seconds the binary may take for these arguments."""
    try:
        seconds = int(args[args.index("--seconds") + 1])
    except (ValueError, IndexError):
        seconds = 10  # the binary's default, or a value it will reject
    return min(max(seconds, 1), MAX_SECONDS) + MARGIN_S


def main():
    out = build_dir()
    if not build(out):
        return 1
    git_sha, tree = source_identity()
    print(f"source: git_sha={git_sha} tree_sha256={tree}", flush=True)
    timeout = run_timeout(sys.argv[1:])
    proc = subprocess.Popen([str(out / "hydrabench")] + sys.argv[1:], cwd=ROOT)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run.py: benchmark exceeded {timeout} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
