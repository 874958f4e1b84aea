#!/usr/bin/env python3
"""Repository benchmark: build, run one workload, check it, report.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Builds perfbench/ (which compiles the repository's src/ tree) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
measuring program, checks its simulated outputs against the pinned
references in perfbench/data/, writes a run record to perfbench/out/,
prints every metric by name and unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
ones. perfbench/README.md documents the workloads and metrics.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DATA_DIR = BENCH_DIR / "data"
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("webwork_accounting", "webwork_traced", "fig08_sweep")
# Whole run, build excluded, must end well inside the 180 s limit.
RUN_TIMEOUT_S = 170
# Sum of classified layer self times over the traced run's host time.
SUM_RATIO_TOLERANCE = 0.05


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configure once, then bring pcon_perfbench up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no src/ tree next to {BENCH_DIR.name}/; nothing to build", 2)
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    log_path = bdir / "build.log"
    with open(bdir / ".lock", "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (bdir / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", str(bdir), "--target",
                      "pcon_perfbench", "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace")[-4000:]
                fail(f"build failed ({' '.join(cmd)}):\n{tail}")
    return bdir / "pcon_perfbench"


def run_harness(exe, args, deadline, spans_out=None):
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()),
                              text=True)
    except subprocess.TimeoutExpired:
        fail("measuring program exceeded the time limit")
    if proc.returncode != 0:
        fail(f"measuring program exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("measuring program printed nothing")
    return json.loads(lines[-1])


def quantile(values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def metric_units(section):
    """name -> unit of a BENCHMARK.json metric list, in file order."""
    with open(ROOT / "BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def load_pins():
    with open(DATA_DIR / "pins.json") as f:
        return json.load(f)


def pinned_digest(pins, workload, seed):
    table = pins.get(workload, {})
    return table.get("*", table.get(str(seed)))


def load_fig08_reference():
    """today's fig08_validation.csv: (machine, workload, load, approach)
    -> the validation error exactly as the CSV prints it."""
    ref = {}
    with open(DATA_DIR / "fig08_validation.csv") as f:
        header = f.readline().strip().split(",")
        if header != ["machine", "workload", "load", "approach",
                      "validation_error"]:
            fail(f"unexpected fig08_validation.csv header {header}")
        for line in f:
            m, w, load, a, err = line.strip().split(",")
            ref[(m, w, load, int(a))] = err
    return ref


def check(result, pins):
    """Returns (checks, attempted, failed). A failed check fails the
    operations it covers: a whole episode's requests (or worlds) for a
    digest mismatch, single requests or worlds otherwise."""
    workload = result["workload"]
    fig08 = workload == "fig08_sweep"
    episodes = result["episodes"]
    checks = {}
    failed = 0

    def size(ep):
        return len(ep["worlds"]) if fig08 else ep["digest"]["requests"]

    attempted = sum(size(ep) for ep in episodes)
    first = episodes[0]["digest"]
    # Every episode of a run simulates the same inputs.
    same = [ep["digest"] == first for ep in episodes]
    checks["episodes_identical"] = all(same)
    failed += sum(size(ep) for ep, ok in zip(episodes, same) if not ok)

    pin = pinned_digest(pins, workload, result["seed"])
    if pin is None:
        checks["pinned_digest"] = "not pinned for this seed"
    else:
        keys = ("events", "requests", "energy_j") + (
            ("spans",) if workload == "webwork_traced" else ())
        ok = all(first[k] == pin[k] for k in keys)
        checks["pinned_digest"] = ok
        if not ok:
            failed = attempted

    if workload == "webwork_traced":
        mism = sum(ep["span_mismatches"] for ep in episodes)
        checks["span_energy_matches_ledger"] = mism == 0
        failed += mism

    if fig08:
        ref = load_fig08_reference()
        bad = 0
        for ep in episodes:
            for w in ep["worlds"]:
                key = (w["machine"], w["workload"], w["load"], w["approach"])
                if format(w["validation_error"], ".6g") != ref.get(key):
                    bad += 1
        checks["fig08_csv_identical"] = bad == 0
        failed += bad
        worst = {}
        for w in episodes[0]["worlds"]:
            k = (w["machine"], w["approach"])
            worst[k] = max(worst.get(k, 0.0), w["validation_error"])
        machines = sorted({m for m, _ in worst})
        stair = {m: worst[(m, 1)] > worst[(m, 2)] > worst[(m, 3)]
                 for m in machines}
        checks["fig08_staircase"] = all(stair.values())
        failed += sum(36 for ok in stair.values() if not ok)

    if result["trace"] == 1:
        untraced, traced = episodes[0]["digest"], episodes[1]["digest"]
        checks["traced_digest_equals_untraced"] = untraced == traced
        ratio = result["layers"]["layers.sum_ratio"]
        checks["layers_sum_within_5pct"] = (
            abs(ratio - 1.0) <= SUM_RATIO_TOLERANCE)
        if fig08:
            checks["traced_worlds_equal_untraced"] = (
                episodes[0]["worlds"] == episodes[1]["worlds"])

    return checks, attempted, min(failed, attempted)


def composite_slices(episodes):
    """Host ms of each simulated second, the least disturbed of the run.

    Every episode of a run simulates the same inputs (checked by
    episodes_identical), so simulated second i does the same work in
    each; its host time is taken as the minimum over the episodes. On a
    shared host other tenants slow the program by up to 2x, in spells
    of a fraction of a second to minutes (README, "Host noise"); a
    per-second minimum drops the spells shorter than the run, which a
    whole-episode figure cannot. A Figure 8 run holds one sweep, so its
    slices are that sweep's."""
    rows = [ep["slices_ms"] for ep in episodes]
    return [min(col) for col in zip(*rows)]


def end_to_end(result):
    eps = result["episodes"]
    slices = composite_slices(eps)
    run_s = sum(slices) / 1e3
    if result["workload"] == "fig08_sweep":
        err = max(w["validation_error"] for w in eps[0]["worlds"]
                  if w["approach"] == 3)
    else:
        err = eps[0]["validation_error"]
    values = {
        "setup_s": statistics.median(result["setup_s"]),
        "run_s": run_s,
        "events_per_host_s": eps[0]["digest"]["events"] / run_s,
        "sim_s_per_host_s": eps[0]["sim_s"] / run_s,
        "slice_ms_p90": quantile(slices, 0.9),
        "peak_rss_mb": result["peak_rss_mb"],
        "validation_err_max": err,
    }
    samples = {
        "setup_s": len(result["setup_s"]),
        "run_s": len(eps),
        "events_per_host_s": len(eps),
        "sim_s_per_host_s": len(eps),
        "slice_ms_p90": len(slices),
    }
    return values, samples


def per_layer(result):
    values = dict(result["layers"])
    values["core.calibrate_ms"] = statistics.median(result["calibrate_ms"])
    return values, {}


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must be non-negative", 2)

    exe = build()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    spans_out = OUT_DIR / f"{stem}_spans.json" if args.trace else None
    result = run_harness(exe, args, deadline, spans_out)
    pins = load_pins()
    checks, attempted, failed = check(result, pins)
    correct = failed == 0 and all(v is not False for v in checks.values())

    values, samples = (per_layer if args.trace else end_to_end)(result)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    missing = [k for k in units if k not in values]
    if missing:
        fail(f"measuring program produced no {', '.join(missing)}")
    values = {k: values[k] for k in units}

    record = {
        "config": {
            "workload": args.workload,
            "seconds": args.seconds,
            "trace": args.trace,
            "episodes": len(result["episodes"]),
            "build_type": "Release",
        },
        "seed": args.seed,
        "workload_seed": result["workload_seed"],
        "git_sha": git_sha(),
        "digest": result["episodes"][0]["digest"],
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "metrics": {k: {"value": v, "unit": units[k],
                        **({"samples": samples[k]} if k in samples else {})}
                    for k, v in values.items()},
        "layer_ledger": result.get("layers", {}).get("self_ns"),
    }
    with open(OUT_DIR / f"{stem}.json", "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")

    for k, v in checks.items():
        print(f"check {k}: {v}")
    print(f"failed_frac = {record['failed_frac']:.6g} "
          f"({failed} of {attempted} operations)")
    for k, v in values.items():
        n = f" (n={samples[k]})" if k in samples else ""
        print(f"{k} = {v:.6g} {units[k]}{n}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }))


if __name__ == "__main__":
    main()
