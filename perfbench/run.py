#!/usr/bin/env python3
"""Builds the repository benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The build goes to .bench_build/perfbench
(or $CARGO_TARGET_DIR/perfbench when that is set); build output goes to
stderr.  Before every run the benchmark's statistics self-tests run, and
after it the result line's metric names are checked against BENCHMARK.json.
Any failure exits non-zero without printing a result line.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def source_sha1():
    """Content hash of the sources under test and of the benchmark itself."""
    digest = hashlib.sha1()
    files = [ROOT / "CMakeLists.txt"]
    for top in (ROOT / "src", BENCH_DIR):
        files += sorted(p for p in top.rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    """The checked-out commit, or "none" outside a git work tree."""
    if not (ROOT / ".git").exists():
        return "none"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (build_dir / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    compile_cmd = ["cmake", "--build", str(build_dir), "--target", "perfbench", "-j", jobs]
    for cmd in (configure, compile_cmd):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT).returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return build_dir / "perfbench"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), required=True)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        fail("the sources under test (src/, CMakeLists.txt) are missing from this checkout")
    spec = json.loads(spec_path.read_text())

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    binary = build(target / "perfbench")
    workdir = target / "perfbench-run"
    workdir.mkdir(parents=True, exist_ok=True)

    if subprocess.run([str(binary), "--self-test"], cwd=ROOT).returncode != 0:
        fail("statistics self-test failed")
    expected = [m["name"] for m in spec["per_layer" if args.trace == "1" else "end_to_end"]]

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--workdir", str(workdir), "--source-sha1", source_sha1(), "--git-sha", git_sha()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        for artifact in workdir.glob("*.plpm*"):
            artifact.unlink()
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {proc.returncode}")

    result = json.loads(lines[-1])
    keys = {"correct", "attempted", "failed", "metrics"}
    if set(result) != keys or result["correct"] is not True:
        fail("malformed or incorrect result line")
    if sorted(result["metrics"]) != sorted(expected):
        fail(f"printed metrics differ from BENCHMARK.json: "
             f"{sorted(set(result['metrics']) ^ set(expected))}")
    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}
    for name, metric in result["metrics"].items():
        if metric["unit"] != units[name]:
            fail(f"metric {name}: unit {metric['unit']!r}, BENCHMARK.json says {units[name]!r}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
