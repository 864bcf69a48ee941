"""One pass of a workload in a fresh interpreter.

``run.py`` starts this script once per pass. It imports ``baileyforge`` from
the checkout's ``src``, loads the workload's specs, checks that every
process-wide ``lru_cache`` is empty and prints ``ready``; the time until then
is the set-up time. It then runs the workload's jobs in seed order through
the registry, checks every verdict against ``expected.json`` and prints one
JSON line with the pass's measurements. Untraced, it also times the
reference computation of ``calibrate.py`` before a verdict whenever a
second has passed since it last did, and after the last verdict:
``verdict_wall_s`` and ``verdict_cpu_s`` sum the verdicts' own times and
leave those timings out.

    python3 perfbench/worker.py --workload chain-sweep --seed 1 [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import layers
from calibrate import reference_seconds
from tracer import Tracer, install, span_cost
from verdicts import Capture, check_records
from workloads import WORKLOADS, jobs

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
EXPECTED = os.path.join(HERE, "expected.json")
PACKAGE = "baileyforge"
REFERENCE_EVERY_S = 1.0     # an untraced pass times the reference at most this often


def import_program():
    """Import the registry from the checkout's own source tree, not from elsewhere."""
    sys.path.insert(0, SRC)
    from baileyforge import registry

    if not os.path.abspath(registry.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"baileyforge was imported from {registry.__file__}, not from {SRC}")
    return registry


def load_specs(registry, workload: str) -> None:
    """Parse the catalog specs the workload verifies (part of set-up, as in a CLI run)."""
    for job in WORKLOADS[workload]:
        if job[0] in ("entry", "sweep"):
            entry = registry.REGISTRY[job[1]]
            if entry.route == "dsl":
                registry.load_spec(entry)


def find_caches(package: str = PACKAGE) -> list:
    """Every ``lru_cache`` held by a module of the package or by a class defined there."""
    found: dict = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == package or name.startswith(package + ".")):
            continue
        spaces = [module] + [v for v in vars(module).values()
                             if isinstance(v, type) and v.__module__ == name]
        for space in spaces:
            for value in vars(space).values():
                if callable(getattr(value, "cache_info", None)):
                    found[id(value)] = value
    return list(found.values())


def run_jobs(registry, job_list: list) -> None:
    for job in job_list:
        kind, target = job[0], job[1]
        if kind == "entry":
            registry.verify_entry(target, job[2], job[3])
        elif kind == "file":
            registry.verify_file(os.path.join(registry.IDENTITY_DIR, target))
        else:
            registry.sweep_entry(target, job[2], jobs=1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    registry = import_program()
    tracer = None
    absent: list = []
    if args.trace:
        tracer = Tracer(sampled=layers.SAMPLED)
        absent = install(tracer, layers.PROBES, PACKAGE)
    load_specs(registry, args.workload)
    caches = find_caches()
    warm = [c for c in caches if c.cache_info().currsize]
    if warm:
        raise SystemExit(f"process-wide caches are not empty before timing: {warm}")
    with open(EXPECTED) as fh:
        expected = json.load(fh)[args.workload]
    references: list = []
    last_reference = [float("-inf")]

    def calibrate(force=False):
        if force or time.perf_counter() - last_reference[0] >= REFERENCE_EVERY_S:
            references.extend(reference_seconds())
            last_reference[0] = time.perf_counter()

    capture = Capture(registry, None if args.trace else calibrate)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    job_list = jobs(args.workload, args.seed)
    run_jobs(registry, job_list)
    if not args.trace:
        calibrate(force=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = check_records(expected, capture.records)
    out = {
        "peak_rss_mb": peak_rss_mb,
        "verdict_wall_s": sum(w for _, w, _ in capture.times),
        "verdict_cpu_s": sum(c for _, _, c in capture.times),
        "reference_times": references,
        "attempted": len(set(expected) | {key for key, _, _ in capture.records}),
        "failed": len(problems),
        "problems": problems,
    }
    if tracer is not None:
        out["layers"] = {**layers.span_metrics(tracer), **layers.cache_metrics(caches),
                         "trace.overhead_s": tracer.closed * span_cost()}
        out["absent"] = absent
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
