#!/usr/bin/env python3
"""Perf-trajectory guard over the committed solver benchmark JSONL.

BENCH_solvers.json accumulates one trajectory point per benchmarked
change (bench/micro_solvers appends them; see DESIGN.md).  This script
compares, for every solver key, the two most recent points that report
that solver and fails when the newest median regressed by more than the
threshold (default 25%).  It runs as a tier-1 ctest, so a PR that lands
a slower solver median without also updating the trajectory story fails
the default lane.

The check is trajectory-vs-trajectory, not a live measurement: it never
times anything, so it is immune to builder noise.  Appending an honest
new point that shows a regression is exactly what makes it fire.

With --overhead the contract changes: instead of comparing the newest
two points per key, the NEWEST point is checked internally — every
`<name>_armed` median is paired with its `<name>_detached` sibling and
the check fails when armed exceeds detached by more than the ratio
(default 1.05).  BENCH_obs.json uses this to gate the armed telemetry
stack at 5% overhead on the solver hot path.

With --recovery the newest `checkpoint_write_us` and
`checkpoint_restore_us` medians are bounded absolutely (defaults 50 ms
and 250 ms): a checkpoint that stalls the campaign for longer than that
is a fault of its own, not crash-safety.  bench/exp_checkpoint appends
the trajectory points this mode reads.

With --gateway the newest point's `gw_frames_per_s` is bounded from
BELOW (default 100k frames/s — the ingest daemon's loopback floor) and
`gw_p99_ingest_us` from above (default 20 ms).  BENCH_gateway.json
carries these under a "metrics" key rather than "median_us" because a
throughput is not a latency; load_series accepts either spelling.

With --batch the newest point's operator speedup is bounded from below:
`sweep_dense_n4096 / sweep_fastdct_n4096` (one A^T r correlation sweep,
dense matrix vs fast-DCT operator) must be at least the operator floor
(default 5.0x).  bench/micro_solvers appends the "batch_ops" trajectory
points this mode reads; the plain trajectory mode additionally gates
every one of those keys against its previous point like any other
series.  The historical `omp_b*` keys (batch OMP, since removed) are no
longer gated here.

A file with no trajectory points yet is a FIRST RUN, not an error: every
guard passes (exit 0) so a brand-new bench file does not fail tier-1
before its first honest point lands.  A missing or unparseable file is
still exit 2 — the committed fixture being gone is a real breakage.

Usage: check_regression.py [--overhead|--recovery|--gateway|--batch]
                           [path-to-jsonl]
                           [max-ratio | max-write-us max-restore-us |
                            min-frames-per-s max-p99-us |
                            min-operator-speedup]
Exit codes: 0 ok, 1 regression found, 2 malformed input.
"""

import json
import sys


def load_series(path):
    """Maps solver name -> list of (label, median_us) in file order."""
    series = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                point = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SystemExit(
                    f"check_regression: {path}:{lineno}: bad JSON: {exc}"
                ) from exc
            label = point.get("label", f"line {lineno}")
            # "median_us" is the historical key; "metrics" is the honest
            # spelling for points whose values are not latencies (e.g.
            # BENCH_gateway.json's frames/s).  A point may use either.
            for key in ("median_us", "metrics"):
                values = point.get(key, {})
                if not isinstance(values, dict):
                    raise SystemExit(
                        f"check_regression: {path}:{lineno}: {key} is not "
                        "an object"
                    )
                for name, value in values.items():
                    if not isinstance(value, (int, float)) or value <= 0:
                        raise SystemExit(
                            f"check_regression: {path}:{lineno}: bad value "
                            f"for {name!r}: {value!r}"
                        )
                    series.setdefault(name, []).append((label, float(value)))
    return series


def check_overhead(series, max_ratio):
    """Pairs <name>_armed with <name>_detached in the newest point."""
    failures = []
    checked = 0
    for key in sorted(series):
        if not key.endswith("_armed"):
            continue
        sibling = key[: -len("_armed")] + "_detached"
        if sibling not in series:
            print(f"  {key}: no {sibling} sibling, skipped")
            continue
        armed_label, armed = series[key][-1]
        _, detached = series[sibling][-1]
        checked += 1
        ratio = armed / detached if detached > 0 else float("inf")
        verdict = "OVER BUDGET" if ratio > max_ratio else "ok"
        print(
            f"  {key[: -len('_armed')]}: detached {detached:.3f} us, armed "
            f"{armed:.3f} us ({armed_label})  {ratio:.3f}x  {verdict}"
        )
        if ratio > max_ratio:
            failures.append(key)
    if not checked:
        print("check_regression: no armed/detached pairs found")
        return 2
    if failures:
        print(
            f"check_regression: FAIL — {', '.join(failures)} exceed the "
            f"{(max_ratio - 1.0) * 100.0:.0f}% armed-observability budget"
        )
        return 1
    print("check_regression: ok")
    return 0


def check_recovery(series, max_write_us, max_restore_us):
    """Bounds the newest checkpoint write/restore medians absolutely."""
    budgets = {
        "checkpoint_write_us": max_write_us,
        "checkpoint_restore_us": max_restore_us,
    }
    failures = []
    checked = 0
    for key, budget in budgets.items():
        if key not in series:
            print(f"  {key}: no trajectory point, skipped")
            continue
        label, value = series[key][-1]
        checked += 1
        verdict = "OVER BUDGET" if value > budget else "ok"
        print(f"  {key}: {value:.3f} us ({label})  budget {budget:.0f} us  "
              f"{verdict}")
        if value > budget:
            failures.append(key)
    if not checked:
        print("check_regression: no checkpoint latency keys found")
        return 2
    if failures:
        print(
            f"check_regression: FAIL — {', '.join(failures)} exceed the "
            "checkpoint latency budget"
        )
        return 1
    print("check_regression: ok")
    return 0


def check_gateway(series, min_frames_per_s, max_p99_us):
    """Bounds the newest gateway point: throughput floor, latency cap."""
    gates = [
        ("gw_frames_per_s", min_frames_per_s, "floor", "frames/s"),
        ("gw_p99_ingest_us", max_p99_us, "cap", "us"),
    ]
    failures = []
    checked = 0
    for key, bound, kind, unit in gates:
        if key not in series:
            print(f"  {key}: no trajectory point, skipped")
            continue
        label, value = series[key][-1]
        checked += 1
        bad = value < bound if kind == "floor" else value > bound
        verdict = "OUT OF BOUNDS" if bad else "ok"
        print(f"  {key}: {value:.3f} {unit} ({label})  {kind} {bound:.0f} "
              f"{unit}  {verdict}")
        if bad:
            failures.append(key)
    if not checked:
        print("check_regression: no gateway keys found")
        return 2
    if failures:
        print(
            f"check_regression: FAIL — {', '.join(failures)} outside the "
            "gateway ingest budget"
        )
        return 1
    print("check_regression: ok")
    return 0


def check_batch(series, min_operator_speedup):
    """Floors the newest point's dense-vs-fast-DCT sweep speedup."""
    slow_key, fast_key = "sweep_dense_n4096", "sweep_fastdct_n4096"
    if slow_key not in series or fast_key not in series:
        missing = slow_key if slow_key not in series else fast_key
        print(f"  fast-DCT sweep: no {missing} trajectory point, skipped")
        print("check_regression: no operator speedup pair found")
        return 2
    label, slow = series[slow_key][-1]
    _, fast = series[fast_key][-1]
    speedup = slow / fast if fast > 0 else float("inf")
    bad = speedup < min_operator_speedup
    verdict = "UNDER FLOOR" if bad else "ok"
    print(
        f"  fast-DCT sweep: {slow_key} {slow:.3f} us / {fast_key} "
        f"{fast:.3f} us ({label})  {speedup:.2f}x  "
        f"floor {min_operator_speedup:.1f}x  {verdict}"
    )
    if bad:
        print("check_regression: FAIL — fast-DCT sweep below the operator "
              "speedup floor")
        return 1
    print("check_regression: ok")
    return 0


def main(argv):
    argv = list(argv)
    overhead = "--overhead" in argv
    if overhead:
        argv.remove("--overhead")
    recovery = "--recovery" in argv
    if recovery:
        argv.remove("--recovery")
    gateway = "--gateway" in argv
    if gateway:
        argv.remove("--gateway")
    batch = "--batch" in argv
    if batch:
        argv.remove("--batch")
    path = argv[1] if len(argv) > 1 else "BENCH_solvers.json"
    default_ratio = 1.05 if overhead else 1.25
    max_ratio = float(argv[2]) if len(argv) > 2 else default_ratio
    try:
        series = load_series(path)
    except OSError as exc:
        print(f"check_regression: cannot read {path}: {exc}")
        return 2
    if not series:
        # First run: the file exists but carries no points yet.  Nothing
        # can have regressed, so every mode passes (the file going
        # MISSING is still exit 2 above).
        print(f"check_regression: no trajectory points in {path} — "
              "first run, ok")
        return 0
    if batch:
        min_operator = float(argv[2]) if len(argv) > 2 else 5.0
        return check_batch(series, min_operator)
    if gateway:
        min_frames = float(argv[2]) if len(argv) > 2 else 100_000.0
        max_p99 = float(argv[3]) if len(argv) > 3 else 20_000.0
        return check_gateway(series, min_frames, max_p99)
    if recovery:
        max_write = float(argv[2]) if len(argv) > 2 else 50_000.0
        max_restore = float(argv[3]) if len(argv) > 3 else 250_000.0
        return check_recovery(series, max_write, max_restore)
    if overhead:
        return check_overhead(series, max_ratio)

    failures = []
    for solver in sorted(series):
        points = series[solver]
        if len(points) < 2:
            print(f"  {solver}: single point, nothing to compare")
            continue
        (prev_label, prev), (last_label, last) = points[-2], points[-1]
        change = (last / prev - 1.0) * 100.0
        verdict = "REGRESSED" if last > prev * max_ratio else "ok"
        print(
            f"  {solver}: {prev:.3f} us ({prev_label}) -> {last:.3f} us "
            f"({last_label})  {change:+.1f}%  {verdict}"
        )
        if last > prev * max_ratio:
            failures.append(solver)

    if failures:
        print(
            f"check_regression: FAIL — {', '.join(failures)} regressed more "
            f"than {(max_ratio - 1.0) * 100.0:.0f}% between the latest two "
            "trajectory points"
        )
        return 1
    print("check_regression: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
