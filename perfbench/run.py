#!/usr/bin/env python3
"""tmsim benchmark: build the simulator from source, run one workload, check it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/ (the simulator's libraries straight from src/, RelWithDebInfo)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset; later runs rebuild incrementally.

Output: progress and the run record (host fingerprint, build, seed, run
length, traced flag, every check) on the lines before the last; the last
stdout line is the result object {"correct", "attempted", "failed",
"metrics"}. --trace 0 reports the end-to-end metrics of BENCHMARK.json,
--trace 1 the per-layer metrics. The exit code is 0 only when every
correctness check passed. Each record is also written under
<build dir>/records/ for perfbench/compare.py.
"""
import argparse
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXIT_USAGE = 2
# A run lasts --seconds plus the service drain (at most 60 s past the
# window), the set-up samples and the standalone re-runs.
RUN_OVERHEAD_S = 140


def fail_usage(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(EXIT_USAGE)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def parse_args(argv, workloads, default_seed):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", default=str(default_seed))
    p.add_argument("--seconds", default="10")
    p.add_argument("--trace", default="0")
    args = p.parse_args(argv)
    if args.workload not in workloads:
        fail_usage(f"unknown workload '{args.workload}' "
                   f"(known: {', '.join(workloads)})")
    if not re.fullmatch(r"[0-9]{1,19}", args.seed) or int(args.seed) >= 2**64:
        fail_usage(f"--seed must be a non-negative decimal integer below 2^64, "
                   f"got '{args.seed}'")
    if not re.fullmatch(r"[0-9]{1,3}", args.seconds) or not 1 <= int(args.seconds) <= 600:
        fail_usage(f"--seconds must be an integer in 1..600, got '{args.seconds}'")
    if args.trace not in ("0", "1"):
        fail_usage(f"--trace must be 0 or 1, got '{args.trace}'")
    return args


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = Path.cwd() / base
    return base / "perfbench"


def build(bdir):
    """Configure (once) and build; returns the binary path."""
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(bdir), "-j", str(os.cpu_count() or 1),
                  "--target", "perfbench"])
    with open(log, "w", encoding="utf-8") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                out.flush()
                sys.stderr.write(log.read_text(encoding="utf-8")[-6000:])
                print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
                sys.exit(1)
    return bdir / "perfbench"


def cmake_cache(bdir):
    cache = {}
    for line in (bdir / "CMakeCache.txt").read_text(encoding="utf-8").splitlines():
        m = re.match(r"([A-Za-z_0-9]+):[A-Z]+=(.*)", line)
        if m:
            cache[m.group(1)] = m.group(2)
    return cache


def first_line(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True,
                              check=False).stdout.splitlines()[0].strip()
    except (OSError, IndexError):
        return "unknown"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest():
    """sha256 over the simulator and benchmark sources (the checkout may
    not be a git repository)."""
    h = hashlib.sha256()
    files = sorted(p for d in (ROOT / "src", HERE) for p in d.rglob("*")
                   if p.is_file() and "__pycache__" not in p.parts)
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True, check=False)
    return r.stdout.strip() if r.returncode == 0 else "none"


def fingerprint(bdir, args):
    """What must match for two records to be compared or merged."""
    cache = cmake_cache(bdir)
    btype = cache.get("CMAKE_BUILD_TYPE", "")
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "compiler": first_line([cache.get("CMAKE_CXX_COMPILER", "c++"), "--version"]),
        "build_type": btype,
        "build_flags": cache.get(f"CMAKE_CXX_FLAGS_{btype.upper()}", ""),
        "run_seconds": int(args.seconds),
        "traced": args.trace == "1",
    }


def main(argv):
    meta = load_json(HERE / "metric_map.json")
    workloads = [w["name"] for w in load_json(ROOT / "BENCHMARK.json")["workloads"]]
    args = parse_args(argv, workloads, meta["default_seed"])
    if not (ROOT / "src" / "core" / "engine.h").exists():
        print(f"perfbench: simulator sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 1

    bdir = build_dir()
    binary = build(bdir)
    scratch = bdir / f"scratch-{os.getpid()}"
    cmd = [str(binary), "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--scratch-dir", str(scratch)]
    started = time.time()
    timeout = int(args.seconds) + RUN_OVERHEAD_S
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {timeout} s", file=sys.stderr)
        return 1
    sys.stderr.write(proc.stderr)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"perfbench: no result from the run (exit {proc.returncode})",
              file=sys.stderr)
        return 1

    correct = bool(result["correct"]) and proc.returncode == 0
    record = {
        "fingerprint": fingerprint(bdir, args),
        "workload": args.workload,
        "seed": int(args.seed),
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "started_unix": started,
        "wall_s": time.time() - started,
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failed_frac": result["failed"] / max(1, result["attempted"]),
        "metrics": result["metrics"],
        "detail": result.get("record", {}),
        "failures": result.get("failures", []),
    }
    rdir = bdir / "records"
    rdir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}.trace{args.trace}.seed{args.seed}.{int(started * 1000)}.json"
    (rdir / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
    print("record: " + json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
