#!/usr/bin/env python3
"""Regenerate perfbench/data/pins.json, the reference digests run.py
checks every run against.

    python3 perfbench/pin.py

Run it only when a change is meant to alter simulated behaviour, and
say so in that change: the pins are what "the outputs are still
correct" means for every later benchmark run. It always rewrites the
whole table: each WeBWorK workload is pinned for seeds 0..63 (one
world per seed); fig08_sweep does not depend on the seed (it only
orders the worlds), so it has one pin.
fig08's per-world errors are pinned separately, by
perfbench/data/fig08_validation.csv (bench_fig08_validation's CSV).
"""

import argparse
import json
import subprocess
from concurrent.futures import ThreadPoolExecutor

import run

DIGEST_KEYS = ("events", "requests", "energy_j", "spans")
SEEDS = 64  # WeBWorK seeds 0..63
JOBS = 3    # measuring programs run at once


def digest(exe, workload, seed):
    out = subprocess.run(
        [str(exe), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True, cwd=run.ROOT)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    d = result["episodes"][0]["digest"]
    return {k: d[k] for k in DIGEST_KEYS}


def main():
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    exe = run.build()
    jobs = [("fig08_sweep", 0)] + [
        (w, s) for w in ("webwork_accounting", "webwork_traced")
        for s in range(SEEDS)]
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        digests = list(pool.map(lambda j: digest(exe, *j), jobs))
    pins = {"fig08_sweep": {"*": digests[0]}}
    for (workload, seed), d in zip(jobs[1:], digests[1:]):
        pins.setdefault(workload, {})[str(seed)] = d
    with open(run.DATA_DIR / "pins.json", "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
