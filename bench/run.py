"""Run one warpcurv benchmark workload and print its metrics.

    python3 bench/run.py --workload identity-grid --seed 1 --seconds 20 --trace 0

Workloads: algebra, audit-battery, identity-grid, cli-battery (see
``workloads.py`` for what each runs and why).  Each run starts fresh child
processes with the BLAS pool pinned to one thread:

* ``--trace 0``: three untraced children, each timing a third of
  ``--seconds``; prints the end-to-end metrics.  ``setup_s`` and
  ``peak_rss_mb`` are medians over the children, latencies are pooled.
  Times are scaled to a reference host speed by a host probe that the
  children time between items (see ``host_scales``).
* ``--trace 1``: one child that runs each item untraced and traced,
  alternating which goes first, for ``--seconds`` in all; prints the
  per-layer metrics and the tracing overhead (summed traced over summed
  untraced latency).

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The run record (commit, versions, machine,
seed, host-speed probe) and, for traced runs, every span go to
``.bench_run/`` in the checkout.  Exits non-zero, printing no result, when
the checkout has no warpcurv sources or a child fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_run"

WORKLOADS = ("algebra", "audit-battery", "identity-grid", "cli-battery")
CHILDREN = 3
# Percentile of item_ms_tail, fixed per workload so that every commit is
# read at the same one.  Each is the highest of 90, 80 and 60 that keeps
# ten items beyond it at the item counts of 26 s runs of the baseline
# (algebra 1150-1600, audit-battery 120-150, cli-battery 73-99,
# identity-grid 26-33); a run times at least min_items(percentile) items.
# algebra is read at p95, not p99: over ten runs of the same code its p99
# spread 0.10 (quartile distance over median), its p95 0.05.
TAIL_PERCENTILE = {"algebra": 95, "audit-battery": 90, "identity-grid": 60,
                   "cli-battery": 80}
DEADLINE_S = 170.0
# The time metrics are given for a host on which child.host_probe_ms reads
# PROBE_REF_MS (see host_scales).  The host's speed differs by up to 1.5x
# between identical processes and drifts within one; item time over nearby
# probe time moves by a few percent.
PROBE_REF_MS = 7.5
PINNED_BLAS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"items_per_s": "1/s", "item_ms_p50": "ms",
                    "item_ms_tail": "ms", "peak_rss_mb": "MiB",
                    "setup_s": "s"}


class ChildFailed(RuntimeError):
    pass


def commit():
    if not (ROOT / ".git").exists():   # keep git from searching parent dirs
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_child(deadline, **opts):
    cmd = [sys.executable, str(BENCH / "child.py")]
    for key, value in opts.items():
        if value is not None:
            cmd += ["--" + key.replace("_", "-"), str(value)]
    env = dict(os.environ, **PINNED_BLAS)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"child {opts} passed the run deadline")
    if proc.returncode != 0:
        raise ChildFailed(f"child {opts} exited {proc.returncode}:\n{err}")
    return json.loads(out.strip().splitlines()[-1])


def min_items(percentile):
    """Fewest items that leave ten beyond the nearest-rank percentile."""
    return -(-1000 // (100 - percentile))


def tail_ms(latencies, percentile):
    """Nearest-rank value at ``percentile`` of the latencies."""
    ranked = sorted(latencies)
    return ranked[math.ceil(percentile * len(ranked) / 100) - 1]


def probe_median(child):
    return statistics.median(reading for _, reading in child["probes"])


def host_scales(child):
    """Factors that take a child's item latencies to the reference host.

    The items between two probe readings are scaled by PROBE_REF_MS over
    the mean of those two readings.
    """
    probes = child["probes"]
    scales = []
    for (start, before), (stop, after) in zip(probes, probes[1:]):
        scales += [2.0 * PROBE_REF_MS / (before + after)] * (stop - start)
    return scales


def end_to_end(children, percentile, scaled=True):
    """End-to-end metrics; ``scaled`` takes times to the reference host.

    ``setup_s`` is scaled by PROBE_REF_MS over the child's median probe
    reading, since set-up precedes the first one.
    """
    latencies, setups = [], []
    for c in children:
        if scaled:
            scales = host_scales(c)
            setup_scale = PROBE_REF_MS / probe_median(c)
        else:
            scales = [1.0] * len(c["latencies_ms"])
            setup_scale = 1.0
        latencies += [x * f for x, f in zip(c["latencies_ms"], scales)]
        setups.append(c["setup_s"] * setup_scale)
    return {
        "items_per_s": 1e3 * len(latencies) / sum(latencies),
        "item_ms_p50": statistics.median(latencies),
        "item_ms_tail": tail_ms(latencies, percentile),
        "peak_rss_mb": statistics.median(c["peak_rss_mib"] for c in children),
        "setup_s": statistics.median(setups),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "warpcurv" / "__init__.py").is_file():
        print(f"no warpcurv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    common = dict(workload=args.workload, seed=args.seed)
    percentile = TAIL_PERCENTILE[args.workload]

    try:
        if args.trace:
            traced = run_child(deadline, seconds=args.seconds, trace=1,
                               spans_out=OUT / f"{stem}-spans.json",
                               work_dir=OUT / f"work-{os.getpid()}-0",
                               **common)
            children = [traced]
            values = traced["layers"]
            units = {m.name: m.unit for m in layers.LAYER_METRICS}
            for name in traced["unreached"]:
                print(f"warning: {args.workload} never reached traced layer "
                      f"{name}", file=sys.stderr)
        else:
            children = [
                run_child(deadline, slot=slot, slots=CHILDREN,
                          seconds=args.seconds / CHILDREN,
                          min_items=-(-min_items(percentile) // CHILDREN),
                          work_dir=OUT / f"work-{os.getpid()}-{slot}",
                          **common)
                for slot in range(CHILDREN)]
            values = end_to_end(children, percentile)
            unscaled = end_to_end(children, percentile, scaled=False)
            units = END_TO_END_UNITS
    except ChildFailed as exc:
        print(exc, file=sys.stderr)
        return 3

    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    problems = [msg for c in children for msg in c["problems"]]
    digests = {}
    for c in children:
        for key, digest in c["digests"].items():
            if digests.setdefault(key, digest) != digest:
                problems.append(f"battery {key}: report trees differ between "
                                "children")
    correct = failed == 0 and not problems

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "commit": commit(),
        **children[0]["versions"],
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "host_probe_ms": [probe_median(c) for c in children],
        "fail_ratio": failed / attempted,
    }
    if not args.trace:
        items = sum(len(c["latencies_ms"]) for c in children)
        record["timed_items"] = items
        record["item_ms_tail_percentile"] = percentile
        record["unscaled"] = unscaled
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in values.items()}
    with open(OUT / f"{stem}-trace{args.trace}.json", "w") as fh:
        json.dump({"record": record, "correct": correct, "metrics": metrics,
                   "problems": problems,
                   "latencies_ms": [c["latencies_ms"] for c in children],
                   "traced_ms": [c.get("traced_ms") for c in children],
                   "probes": [c["probes"] for c in children]},
                  fh, indent=1)

    for msg in problems[:5]:
        print(f"problem: {msg}", file=sys.stderr)
    print("run record: " + json.dumps(record))
    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:14.6g} {m['unit']}")
    print(f"{'fail_ratio':45s} {record['fail_ratio']:14.6g} "
          f"({failed} of {attempted} items)")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
