"""One benchmark child process: set up, warm up, then time items.

Started by ``run.py`` with the BLAS pool already pinned through the
environment.  Prints one JSON object on its last line of stdout.  The
clock for ``setup_s`` starts before numpy or warpcurv are imported.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import warpcurv  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


# Operands of the host probe: a 24^3 grid of 3x3 blocks, like the grid
# workloads' per-node tensors.
PROBE_GRID = np.random.default_rng(0).random((24, 24, 24, 3, 3))
# Item time between two host probes.
PROBE_EVERY_S = 0.2


def host_probe_ms():
    """Time fixed interpreter and grid work that calls no warpcurv code.

    The host's speed differs by up to 1.5x between identical processes and
    drifts within one; this probe, timed between items, tracks it (see
    ``run.host_scales``).  Interpreter loops and per-node numpy on a grid
    together tracked every workload better than either alone, or than a
    BLAS or memory-bound loop.
    """
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i % 7
    table = {}
    for i in range(3000):
        table[i] = [i, str(i)]
    g = PROBE_GRID
    h = np.einsum("...ij,...jk->...ik", g, g)
    np.trace(h, axis1=-2, axis2=-1).sum()
    np.gradient(g[..., 0, 0], axis=0)
    return 1e3 * (time.perf_counter() - start)


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            path = next(line.split()[-1] for line in fh if "openblas" in line)
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    except (OSError, StopIteration):
        pass
    return None


def versions():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": blas_threads()}


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--slot", type=int, default=0)
    p.add_argument("--slots", type=int, default=1)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--min-items", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work-dir", required=True)
    p.add_argument("--spans-out", default=None)
    args = p.parse_args(argv)
    if Path(warpcurv.__file__).resolve().parent != SRC / "warpcurv":
        raise SystemExit(f"warpcurv imported from {warpcurv.__file__}, "
                         f"not from {SRC}")
    work_dir = Path(args.work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def measure(args, work_dir):
    wl = workloads.WORKLOADS[args.workload](work_dir,
                                            workloads.load_reference())
    wl.setup()
    tracer = Tracer() if args.trace else None
    table = layers.boundaries() if tracer is not None else None

    attempted = failed = 0
    problems = []

    def run_item(spec, traced=False):
        """Run and check one item; returns its latency in seconds."""
        nonlocal attempted, failed
        attempted += 1
        if traced:
            tracer.install(table)
        start = time.perf_counter()
        try:
            try:
                if traced:
                    out = tracer.call(layers.ITEM_SPAN, wl.run, spec)
                else:
                    out = wl.run(spec)
                elapsed = time.perf_counter() - start
            finally:
                if traced:
                    tracer.restore()
            found = wl.check(spec, out)
            if traced:
                for name, value in wl.item_stats.items():
                    tracer.count(name, value)
        except Exception:
            elapsed = time.perf_counter() - start
            found = [traceback.format_exc(limit=4)]
        if found:
            failed += 1
            problems.extend(found[:3])
        return elapsed

    items = wl.inputs(args.seed, args.slot, args.slots)
    first = next(items)
    run_item(first)                    # warm-up; the first timed item repeats it
    setup_s = time.perf_counter() - T0

    # Untraced: one latency per item.  Traced: each item runs untraced and
    # traced, alternating which goes first, so host drift between the two
    # cancels out of the tracing overhead.  The host probe runs outside the
    # latencies, before the first item, after the last, and between items
    # whenever PROBE_EVERY_S of item time has passed since the last one;
    # each reading is stored with the index of the item that follows it.
    latencies, traced_ms, probes = [], [], []
    busy = since_probe = 0.0
    spec = first
    while True:
        if not probes or since_probe >= PROBE_EVERY_S:
            probes.append((len(latencies), host_probe_ms()))
            since_probe = 0.0
        if tracer is None:
            elapsed = run_item(spec)
        else:
            plain_first = len(latencies) % 2 == 0
            if plain_first:
                elapsed = run_item(spec)
            traced_s = run_item(spec, traced=True)
            if not plain_first:
                elapsed = run_item(spec)
            traced_ms.append(1e3 * traced_s)
            busy += traced_s
            since_probe += traced_s
        latencies.append(1e3 * elapsed)
        busy += elapsed
        since_probe += elapsed
        if busy >= args.seconds and len(latencies) >= args.min_items:
            break
        spec = next(items)
    probes.append((len(latencies), host_probe_ms()))

    result = {
        "setup_s": setup_s,
        "latencies_ms": latencies,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:10],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "probes": probes,
        "versions": versions(),
        "digests": wl.digests,
    }
    if tracer is not None:
        summary = tracer.summary()
        values = layers.layer_values(summary, tracer.counters, len(traced_ms))
        values["trace.overhead_pct"] = 100.0 * (sum(traced_ms)
                                                / sum(latencies) - 1.0)
        result["layers"] = values
        result["traced_ms"] = traced_ms
        result["unreached"] = [name for name in wl.reaches
                               if name not in summary]
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                json.dump(tracer.dump(), fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
