"""Self-tests of the benchmark: tracer, byte counting, drift rule, smoke runs.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import BoundaryMissing, Tracer, summarize  # noqa: E402
from warpcurv import cli  # noqa: E402
from warpcurv.hypersurface import GraphImmersion  # noqa: E402


class FakeClock:
    """Each reading advances time by one second."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def _toy_module():
    mod = types.ModuleType("toy")
    mod.leaf = lambda: "leaf"
    mod.middle = lambda: (mod.leaf(), mod.leaf())
    mod.top = lambda: mod.middle()
    return mod


def test_tracer_self_time_parents_and_restore():
    mod = _toy_module()
    originals = (mod.top, mod.middle, mod.leaf)
    tracer = Tracer(clock=FakeClock())
    tracer.install([(mod, name, name, None) for name in ("top", "middle",
                                                         "leaf")])
    assert mod.top() == ("leaf", "leaf")
    tracer.restore()
    assert (mod.top, mod.middle, mod.leaf) == originals

    # clock readings: top 1..8, middle 2..7, leaf 3..4 and 5..6
    assert [s[0] for s in tracer.spans] == ["top", "middle", "leaf", "leaf"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 1]
    assert tracer.summary() == {"top": (1, 2.0), "middle": (1, 3.0),
                                "leaf": (2, 2.0)}
    dumped = tracer.dump()
    spans = [[dumped["names"][i], a, b, p] for i, a, b, p in dumped["spans"]]
    assert summarize(spans) == tracer.summary()


def test_missing_boundary_fails_loudly_and_undoes_partial_install():
    mod = _toy_module()
    leaf = mod.leaf
    tracer = Tracer()
    with pytest.raises(BoundaryMissing, match="toy.gone"):
        tracer.install([(mod, "leaf", "leaf", None),
                        (mod, "gone", "gone", None)])
    assert mod.leaf is leaf


def test_every_boundary_exists_at_this_commit():
    table = layers.boundaries()
    originals = [getattr(module, attr) for module, attr, _, _ in table]
    tracer = Tracer()
    tracer.install(table)
    assert all(getattr(module, attr) is not original
               for (module, attr, _, _), original in zip(table, originals))
    tracer.restore()
    assert [getattr(module, attr) for module, attr, _, _ in table] == originals


def test_geometry_bytes_count_each_buffer_once():
    @dataclasses.dataclass
    class Grid:
        big: np.ndarray
        view: np.ndarray
        spread: np.ndarray
        label: str

    big = np.zeros((10, 10))
    small = np.eye(3)
    grid = Grid(big=big, view=big[2:5], label="x",
                spread=np.broadcast_to(small, (10, 10, 3, 3)))
    tracer = Tracer()
    layers._geometry_bytes(tracer, grid)
    assert tracer.counters["hypersurface.geometry_bytes"] == \
        big.nbytes + small.nbytes


def test_benchmark_json_lists_the_metrics_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in layers.LAYER_METRICS]


def test_tail_keeps_ten_items_beyond():
    for percentile in run.TAIL_PERCENTILE.values():
        least = run.min_items(percentile)
        for n in range(least, least + 200):
            values = list(range(n))
            assert n - 1 - run.tail_ms(values, percentile) >= 10
        assert least - 1 - run.tail_ms(list(range(least)), percentile) == 10


def test_times_are_scaled_to_the_reference_host_speed():
    ref = run.PROBE_REF_MS
    # twice the reference speed over the first two items, half of it over
    # the third
    fast = {"latencies_ms": [10.0, 20.0, 160.0], "setup_s": 1.0,
            "peak_rss_mib": 80.0,
            "probes": [(0, ref / 2), (2, ref / 2), (3, 7 * ref / 2)]}
    assert run.host_scales(fast) == [2.0, 2.0, 0.5]
    plain = dict(fast, latencies_ms=[40.0], setup_s=2.0,
                 probes=[(0, ref), (1, ref)])
    values = run.end_to_end([fast, plain], 50)
    assert values == {"items_per_s": 1e3 * 4 / 180.0, "item_ms_p50": 40.0,
                      "item_ms_tail": 40.0, "peak_rss_mb": 80.0,
                      "setup_s": 2.0}
    assert run.end_to_end([fast, plain], 50, scaled=False)["setup_s"] == 1.5


def test_drift_rule_flags_nan_and_drift_not_rounding():
    ref = {"op": {"differenced": 1e-5, "algebraic": 2e-15}}
    ok = {"op": {"differenced": 1e-5 * (1 + 1e-9), "algebraic": 9e-15}}
    assert workloads.drift_problems(ok, ref) == []
    bad = {"op": {"differenced": 1.1e-5, "algebraic": float("nan")}}
    assert len(workloads.drift_problems(bad, ref)) == 2


def test_algebra_check_catches_a_wrong_newton_tensor(tmp_path):
    wl = workloads.WORKLOADS["algebra"](tmp_path, workloads.load_reference())
    batch = next(wl.inputs(5, 0, 1))
    out = wl.run(batch)
    assert wl.check(batch, out) == []
    fam = out[0][1]
    fam.P[-1] = fam.P[-1] + 1e-6
    assert wl.check(batch, out) != []


def _scale_heights(monkeypatch, factor):
    build = cli.build_immersion

    def scaled(W, section, rng):
        imm = build(W, section, rng)
        return GraphImmersion.from_function(
            W, lambda mesh: factor * imm.fn(mesh), imm.shape, box=imm.box,
            periodic=imm.periodic, orientation=imm.orientation)

    monkeypatch.setattr(cli, "build_immersion", scaled)


@pytest.mark.parametrize("name", ["audit-battery", "identity-grid"])
def test_drift_rule_tolerates_one_ulp_and_catches_real_change(
        name, monkeypatch, tmp_path):
    wl = workloads.WORKLOADS[name](tmp_path, workloads.load_reference())
    wl.setup()
    _scale_heights(monkeypatch, 1.0 + 4e-16)
    assert wl.check(0, wl.run(0)) == []
    _scale_heights(monkeypatch, 1.0 + 1e-4)
    assert wl.check(0, wl.run(0)) != []


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_one_item_smoke_run_with_checks(name, tmp_path):
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"), "--workload", name,
         "--seed", "3", "--seconds", "0", "--trace", "1",
         "--work-dir", str(ROOT / ".bench_run" / f"test-{name}"),
         "--spans-out", str(spans)],
        capture_output=True, text=True, env=dict(os.environ, **run.PINNED_BLAS),
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # warm-up, then the first item once untraced and once traced
    assert (result["attempted"], result["failed"]) == (3, 0), result
    assert result["problems"] == []
    assert result["unreached"] == []
    assert set(result["layers"]) == {m.name for m in layers.LAYER_METRICS}
    assert json.loads(spans.read_text())["spans"]


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "algebra", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
