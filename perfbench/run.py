"""Benchmark of ``baileyforge`` verification: end-to-end metrics or a traced per-layer run.

    python3 perfbench/run.py --workload catalog-mix --seed 1 --seconds 55 --trace 0

Run from the root of a checkout. Every pass runs in a fresh interpreter
(``worker.py``) that imports the package from ``src``, so each pass starts
with cold process-wide caches.

``--trace 0`` first starts a few set-up-only interpreters, then repeats
two set-up-only interpreters and an untraced cold pass while the next
round still ends within ``--seconds`` of the start (at least three passes).
``setup_s`` is the median over every interpreter the run started, and
``peak_rss_mb`` the median over the passes.

``wall_s`` and ``cpu_s`` are medians over the passes of each pass's time at
reference speed (``calibrate.py``). A pass's time is the sum of its
verdicts' times; it is scaled by ``REFERENCE_S`` over the median of the
reference timings the pass took between its verdicts. On a shared host the
speed of a core drifts by half over minutes, and this scaling removes most
of that drift. The unscaled pass times and reference medians go to the
environment line.

``--trace 1`` runs one traced pass and reports its per-layer metrics.

Every verdict is checked against ``expected.json``: status, finding code or
mismatch, and the SHA-256 of both coefficient tables. The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import layers
from calibrate import REFERENCE_S
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

SETUP_ONLY_RUNS = 2     # set-up-only interpreters before the first pass
SETUP_ONLY_PER_PASS = 2 # and before each pass
MIN_PASSES = 3          # untraced passes per run, however long they take
DEADLINE_S = 170.0      # after the first MIN_PASSES, no pass starts that would end later


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """The checked-out commit read from ``.git``, or ``unknown`` outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_sha256() -> str:
    """SHA-256 over the package sources, to identify the code when there is no git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "baileyforge")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".idn", ".json")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


class PassError(RuntimeError):
    pass


def one_pass(workload: str, seed: int, deadline: float, *, trace=False, setup_only=False):
    """Run one worker; returns (set-up seconds, its result or None for set-up only)."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if first.strip() != "ready":
            raise PassError(f"worker did not get ready: {first.strip()!r}")
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise PassError("worker ran past the run's deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise PassError(f"worker exited with code {proc.returncode}")
    if setup_only:
        return setup_s, None
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def at_reference_speed(p: dict, key: str) -> float:
    """A pass's time ``key`` scaled by ``REFERENCE_S`` over the median reference time in it."""
    return p[key] * REFERENCE_S / statistics.median(p["reference_times"])


def measure(workload: str, seed: int, seconds: int, deadline: float):
    """Untraced passes; returns (end-to-end metrics, pass results, unscaled figures)."""
    start = time.monotonic()
    setups = [one_pass(workload, seed, deadline, setup_only=True)[0]
              for _ in range(SETUP_ONLY_RUNS)]
    passes: list = []
    last = 0.0
    while len(passes) < MIN_PASSES or time.monotonic() + last <= min(start + seconds, deadline):
        started = time.monotonic()
        setups += [one_pass(workload, seed, deadline, setup_only=True)[0]
                   for _ in range(SETUP_ONLY_PER_PASS)]
        setup_s, result = one_pass(workload, seed, deadline)
        last = time.monotonic() - started
        setups.append(setup_s)
        passes.append(result)
    metrics = {
        "wall_s": (statistics.median(at_reference_speed(p, "verdict_wall_s") for p in passes), "s"),
        "cpu_s": (statistics.median(at_reference_speed(p, "verdict_cpu_s") for p in passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    unscaled = {
        "verdict_wall_s": [p["verdict_wall_s"] for p in passes],
        "reference_s": [statistics.median(p["reference_times"]) for p in passes],
    }
    return metrics, passes, unscaled


def traced(workload: str, seed: int, deadline: float):
    """One traced pass; returns (per-layer metrics, pass results)."""
    _, run = one_pass(workload, seed, deadline, trace=True)
    if run["absent"]:
        print("absent from the program: " + ", ".join(run["absent"]), file=sys.stderr)
    units = layers.per_layer_units()
    metrics = {name: (run["layers"][name], units[name][0]) for name in units if name in run["layers"]}
    return metrics, [run]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if "BAILEY_FORGE_MAX_TERMS" in os.environ:
        print("BAILEY_FORGE_MAX_TERMS is set; unset it so the default term budget is measured",
              file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "baileyforge", "__init__.py")):
        print(f"no baileyforge sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    deadline = time.monotonic() + DEADLINE_S
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
    }
    try:
        if args.trace:
            metrics, passes = traced(args.workload, args.seed, deadline)
        else:
            metrics, passes, env["unscaled"] = measure(args.workload, args.seed, args.seconds,
                                                       deadline)
    except PassError as e:
        print(f"benchmark run failed: {e}", file=sys.stderr)
        return 1
    env["passes"] = len(passes)
    print(json.dumps({"env": env}))
    for p in passes:
        for key, problems in sorted(p["problems"].items()):
            print(f"FAILED {key}: {'; '.join(problems)}", file=sys.stderr)
    failed = sum(p["failed"] for p in passes)
    result = {
        "correct": failed == 0,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
