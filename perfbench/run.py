#!/usr/bin/env python3
"""SenseDroid end-to-end benchmark: one workload per run.

    python3 perfbench/run.py --workload ingest_flood|rounds_small|live_city \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Builds ../src and the benchmark programs
with CMake into $CARGO_TARGET_DIR (default .bench_build), runs the unit
tests of the summary code, prints one "# meta {...}" line with the host
fingerprint, then runs the workload.  The last stdout line is the JSON
result of perfbench_sut.  The exit status is non-zero when the build,
the self-test or a correctness check fails.  See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ingest_flood", "rounds_small", "live_city")
TARGETS = ("perfbench_sut", "perfbench_loadgen", "perfbench_selftest")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures once, then builds incrementally; output goes to stderr."""
    jobs = str(os.cpu_count() or 1)
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", str(build_dir), "-j", jobs, "--target", *TARGETS]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def source_digest():
    """sha256 over the sources that make up the measured program."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for p in sorted(base.rglob("*")):
            if p.is_file() and p.suffix in (".h", ".cpp", ".txt", ".py"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def compiler_and_flags(build_dir):
    compiler, flags = "unknown", ""
    for f in sorted(build_dir.glob("CMakeFiles/*/CMakeCXXCompiler.cmake")):
        text = f.read_text()
        cid = re.search(r'set\(CMAKE_CXX_COMPILER_ID "([^"]*)"\)', text)
        ver = re.search(r'set\(CMAKE_CXX_COMPILER_VERSION "([^"]*)"\)', text)
        if cid and ver:
            compiler = f"{cid.group(1)} {ver.group(1)}"
    cache = (build_dir / "CMakeCache.txt").read_text()
    m = re.search(r"^CMAKE_CXX_FLAGS_RELEASE:\w+=(.*)$", cache, re.M)
    flags = (m.group(1).strip() if m else "") + " -std=c++20"
    if re.search(r"^PERFBENCH_HAS_MARCH_NATIVE:INTERNAL=1$", cache, re.M):
        flags += " -march=native"
    return compiler, flags


def cpu_model():
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log(f"no SenseDroid sources under {ROOT / 'src'}; nothing to measure")
        return 2
    build_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    if not build(build_dir):
        log("build failed")
        return 2
    selftest = subprocess.run([str(build_dir / "perfbench_selftest")], capture_output=True,
                              text=True)
    if selftest.returncode != 0:
        log("summary self-test failed:\n" + selftest.stdout)
        return 1

    compiler, flags = compiler_and_flags(build_dir)
    workers = os.cpu_count() or 1
    meta = {
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "compiler": compiler,
        "flags": flags,
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workers": workers,
        "run_seconds": args.seconds,
        "workload": args.workload,
        "trace": args.trace,
    }
    print("# meta " + json.dumps(meta, sort_keys=True), flush=True)

    cmd = [str(build_dir / "perfbench_sut"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace), "--workdir", str(build_dir)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, timeout=args.seconds + 120)
    except subprocess.TimeoutExpired:
        log(f"workload did not finish within {args.seconds + 120:.0f} s")
        return 3
    log(f"{args.workload} finished in {time.monotonic() - started:.1f} s "
        f"with status {proc.returncode}")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
