"""End-to-end checks of the batch interface: exit codes, report layout,
and byte-identical reruns."""

import copy
import itertools
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_product, random_immersion
from test_acceptance import BATTERY
from warpcurv import cli, hypersurface, operators
from warpcurv.ambient import FiberSpec
from warpcurv.cli import ENV_OUT, main, write_json
from warpcurv.hypersurface import (
    DiscretizationConfig,
    _sample_peak,
    _trigonometric_field,
    evaluate_geometry,
    random_height_function,
)


def _write_config(path, cfg):
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return str(path)


def _read_json(out_dir, name):
    with open(os.path.join(str(out_dir), name)) as fh:
        return json.load(fh)


def _tree_bytes(root):
    found = {}
    for dirpath, _, filenames in os.walk(str(root)):
        for fn in filenames:
            full = os.path.join(dirpath, fn)
            with open(full, "rb") as fh:
                found[os.path.relpath(full, str(root))] = fh.read()
    return found


SLICE_VERIFY = {
    "ambient": {"profile": "cosh", "chart": "flat-torus", "n": 2},
    "immersion": {"family": "slice", "t": 0.7, "resolution": 24},
    "tolerance": 1e-9,
    "operations": [
        {"op": "structure"},
        {"op": "height-sigma", "k": 1},
        {"op": "div-newton", "k": 1},
        {"op": "theta-hat", "k": 1},
        {"op": "calligraphic", "k": 2},
        {"op": "laplacian-cross-check"},
    ],
}


def test_verify_slice_exits_clean(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", SLICE_VERIFY)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    summary = _read_json(out, "verify-summary.json")
    assert summary["exit_code"] == 0
    assert summary["failed"] == []
    assert not summary["not_applicable_only"]
    assert [o["status"] for o in summary["operations"]] == ["pass"] * 6
    # each operation also gets its own report file
    assert (out / "verify-00-structure.json").exists()
    assert (out / "verify-05-laplacian-cross-check.json").exists()


def test_verify_detects_violation(tmp_path):
    # a random graph cannot satisfy the structure identities to 1e-15
    cfg = _write_config(tmp_path / "cfg.json", {
        "ambient": {"profile": "exp", "chart": "flat-torus", "n": 2},
        "immersion": {"family": "random", "resolution": 24,
                      "amplitude": 0.2},
        "seed": 5,
        "operations": [{"op": "structure", "tol": 1e-15}],
    })
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
    summary = _read_json(out, "verify-summary.json")
    assert summary["failed"] == ["structure"]
    assert summary["exit_code"] == 1


def test_not_applicable_is_not_a_failure(tmp_path):
    # at the cosh waist the height speed vanishes, so the positivity-
    # normalized operator suite declines instead of failing
    cfg = _write_config(tmp_path / "cfg.json", {
        "ambient": {"profile": "cosh", "chart": "flat-torus", "n": 2},
        "immersion": {"family": "slice", "t": 0.0, "resolution": 16},
        "operations": [{"op": "frak-phi", "k": 1}],
    })
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    summary = _read_json(out, "verify-summary.json")
    assert summary["not_applicable_only"]
    assert summary["operations"][0]["status"] == "not-applicable"
    entry = _read_json(out, "verify-00-frak-phi.json")
    assert "reason" in entry


def test_convergence_op_reports_every_level(tmp_path):
    # the README's verify graph at res 32 converges at the fourth-order
    # stencil for both identities (slopes 3.98 and 3.97)
    torus = {"profile": "cosh", "chart": "flat-torus", "n": 2}
    cfg = _write_config(tmp_path / "cfg.json", {
        "ambient": torus,
        "immersion": {"family": "random", "t_center": 0.7,
                      "amplitude": 0.1, "resolution": 32},
        "seed": 17,
        "operations": [{"op": "convergence", "identity": "height", "k": 1},
                       {"op": "convergence", "identity": "frak-phi",
                        "k": 2}]})
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    levels = DiscretizationConfig().refine_levels
    for i in range(2):
        entry = _read_json(out, f"verify-{i:02d}-convergence.json")
        assert entry["status"] == "pass", entry
        assert len(entry["maxima"]) == len(entry["spacings"]) == levels
        rows = (out / f"verify-{i:02d}-convergence.tsv").read_text() \
            .splitlines()
        assert rows[0] == "spacing\tmax_residual"
        assert len(rows) == 1 + levels

    # H_2 changes sign on this graph, so the frak-phi study declines
    cfg = _write_config(tmp_path / "na.json", {
        "ambient": torus,
        "immersion": {"family": "random", "t_center": 0.0,
                      "amplitude": 0.2, "resolution": 32},
        "seed": 5,
        "operations": [{"op": "convergence", "identity": "frak-phi",
                        "k": 2}]})
    out = tmp_path / "na"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    entry = _read_json(out, "verify-00-convergence.json")
    assert entry["status"] == "not-applicable" and "reason" in entry
    assert _read_json(out, "verify-summary.json")["not_applicable_only"]
    assert not (out / "verify-00-convergence.tsv").exists()


def test_verify_evaluates_the_convergence_base_level_once(tmp_path,
                                                         monkeypatch):
    # the verify ops and the convergence study's level 0 read the same
    # memoized geometry; only the refined levels are new
    body = hypersurface._geometry_fields
    shapes = []

    def counted(imm, cfg):
        shapes.append(imm.shape)
        return body(imm, cfg)

    monkeypatch.setattr(hypersurface, "_geometry_fields", counted)
    cfg = _write_config(tmp_path / "cfg.json", {
        "ambient": {"profile": "cosh", "chart": "flat-torus", "n": 2},
        "immersion": {"family": "random", "t_center": 0.7,
                      "amplitude": 0.1, "resolution": 16},
        "seed": 17,
        "operations": [{"op": "structure", "tol": 1e-3},
                       {"op": "convergence", "identity": "height", "k": 1}]})
    assert main(["verify", "--config", cfg, "--out",
                 str(tmp_path / "out")]) == 0
    assert shapes == [(16, 16), (32, 32), (64, 64)]


def test_config_errors_exit_two(tmp_path, capsys):
    out = str(tmp_path / "out")

    rc = main(["verify", "--config", str(tmp_path / "missing.json"),
               "--out", out])
    assert rc == 2
    assert "not found" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", "--config", str(bad), "--out", out]) == 2
    assert "valid JSON" in capsys.readouterr().err

    cfg = _write_config(tmp_path / "p.json", {
        "ambient": {"profile": "warp-factor-9"},
        "operations": [{"op": "structure"}]})
    assert main(["verify", "--config", cfg, "--out", out]) == 2
    assert "registry" in capsys.readouterr().err

    cfg = _write_config(tmp_path / "o.json", {
        "ambient": {"profile": "exp"},
        "immersion": {"family": "slice", "resolution": 12},
        "operations": [{"op": "does-not-exist"}]})
    assert main(["verify", "--config", cfg, "--out", out]) == 2
    assert "unknown verify operation" in capsys.readouterr().err

    cfg = _write_config(tmp_path / "empty.json", {
        "ambient": {"profile": "exp"}, "operations": []})
    assert main(["verify", "--config", cfg, "--out", out]) == 2
    assert "non-empty" in capsys.readouterr().err

    # bad values deep inside a config: one line on stderr, no traceback
    torus = {"profile": "cosh", "chart": "flat-torus", "n": 2}
    slice12 = {"family": "slice", "resolution": 12}
    structure = [{"op": "structure"}]
    for name, sub, config in (
            ("k", "verify", {"ambient": torus, "immersion": slice12,
                             "operations": [{"op": "div-newton", "k": 5}]}),
            # a profile is a registry name, never an object of parameters
            ("param", "verify", {"ambient": {"profile": {"name": "cosh",
                                                         "bogus": 1}},
                                 "operations": structure}),
            ("res", "verify", {"ambient": torus,
                               "immersion": {"family": "slice",
                                             "resolution": "big"},
                               "operations": structure}),
            ("t", "verify", {"ambient": torus,
                             "immersion": dict(slice12, t=1e6),
                             "operations": structure}),
            ("res0", "verify", {"ambient": torus,
                                "immersion": dict(slice12, resolution=0),
                                "operations": structure}),
            ("origin", "verify", {"ambient": torus, "immersion": slice12,
                                  "operations": [{"op": "gamma-probe",
                                                  "origin": "x"}]}),
            ("levels", "verify", {"ambient": torus, "immersion": slice12,
                                  "discretization": {"refine_levels": 1.5},
                                  "operations": structure}),
            ("n1", "scenario", {
                "ambient": dict(torus, n=1), "immersion": slice12,
                "operations": [{"op": "theorem-audit",
                                "id": "compact-constant-h2"}]}),
            ("height", "probe", {"height": "tanh"}),
            ("jmax", "probe", {"jmax": 0}),
            ("T", "comparison", {"T": 0}),
            ("margin", "verify", {"ambient": {"chart": "space-form",
                                              "kappa": 1.0},
                                  "immersion": dict(slice12, resolution=16),
                                  "operations": structure}),
            # integer fields refuse a value int() would change
            ("k1.9", "verify", {"ambient": torus, "immersion": slice12,
                                "operations": [{"op": "height-sigma",
                                                "k": 1.9}]}),
            ("order", "scenario", {"ambient": torus, "immersion": slice12,
                                   "operations": [{"op": "curvature-estimate",
                                                   "order": 1.5}]}),
            ("audit-k", "scenario", {
                "ambient": dict(torus, n=3), "immersion": slice12,
                "operations": [{"op": "theorem-audit",
                                "id": "compact-constant-hk", "k": 3.5}]}),
            ("res12.5", "verify", {"ambient": torus,
                                   "immersion": dict(slice12, resolution=12.5),
                                   "operations": structure}),
            ("n2.5", "verify", {"ambient": dict(torus, n=2.5),
                                "immersion": slice12, "operations": structure}),
            ("max_mode", "verify", {"ambient": torus,
                                    "immersion": {"family": "random",
                                                  "resolution": 12,
                                                  "max_mode": 1.5},
                                    "operations": structure}),
            # a random deviation needs at least one mode
            ("max_mode0", "verify", {"ambient": torus,
                                     "immersion": {"family": "random",
                                                   "resolution": 12,
                                                   "max_mode": 0},
                                     "operations": structure}),
            ("max_mode-1", "verify", {"ambient": torus,
                                      "immersion": {"family": "random",
                                                    "resolution": 12,
                                                    "max_mode": -1},
                                      "operations": structure}),
            ("orientation", "verify", {"ambient": torus,
                                       "immersion": dict(slice12,
                                                         orientation=-0.5),
                                       "operations": structure}),
            ("jmax8.5", "probe", {"jmax": 8.5}),
            ("seed", "comparison", {"seed": 1.5}),
            ("inf", "verify", {"ambient": torus,
                               "immersion": dict(slice12, resolution=math.inf),
                               "operations": structure}),
            # parabolicity parameters are checked before the op runs
            ("parab-k", "scenario", {"operations": [{"op": "parabolicity",
                                                     "k": 0}]}),
            ("parab-H", "scenario", {"operations": [{"op": "parabolicity",
                                                     "H": -1.0}]}),
            ("parab-t", "scenario", {"operations": [{"op": "parabolicity",
                                                     "t_max": 0}]}),
            ("parab-m", "scenario", {"operations": [{"op": "parabolicity",
                                                     "m": 1}]}),
            # Gamma(m/2) in the unit-sphere area overflows from m = 344 up
            ("parab-m344", "scenario", {"operations": [{"op": "parabolicity",
                                                        "m": 344}]}),
            ("parab-m344-hyperbolic", "scenario", {"operations": [
                {"op": "parabolicity", "model": "hyperbolic", "m": 344}]}),
            # a JSON boolean is not a number, although True == 1
            ("k-true", "verify", {"ambient": torus, "immersion": slice12,
                                  "operations": [{"op": "height-sigma",
                                                  "k": True}]}),
            ("res-true", "verify", {"ambient": torus,
                                    "immersion": dict(slice12,
                                                      resolution=True),
                                    "operations": structure}),
            ("levels-true", "verify", {"ambient": torus, "immersion": slice12,
                                       "discretization": {
                                           "refine_levels": True},
                                       "operations": structure}),
            ("tol-true", "verify", {"ambient": torus, "immersion": slice12,
                                    "discretization": {"identity_tol": True},
                                    "operations": structure}),
            # one level fits no slope
            ("levels1", "verify", {"ambient": torus, "immersion": slice12,
                                   "discretization": {"refine_levels": 1},
                                   "operations": [{"op": "convergence"}]}),
            # float fields take finite numbers only, and no booleans
            ("tol-bool", "verify", {"ambient": torus, "immersion": slice12,
                                    "operations": [{"op": "structure",
                                                    "tol": True}]}),
            ("tol-inf", "verify", {"ambient": torus, "immersion": slice12,
                                   "operations": [{"op": "structure",
                                                   "tol": math.inf}]}),
            ("tolerance-bool", "verify", {"ambient": torus,
                                          "immersion": slice12,
                                          "tolerance": True,
                                          "operations": structure}),
            # no residual passes a negative tolerance: bad input, not a
            # falsification
            ("tolerance-neg", "verify", {"ambient": torus,
                                         "immersion": slice12,
                                         "tolerance": -1.0,
                                         "operations": structure}),
            ("tol-neg", "verify", {"ambient": torus, "immersion": slice12,
                                   "operations": [{"op": "structure",
                                                   "tol": -1.0}]}),
            ("tolerance-neg-scenario", "scenario", {
                "tolerance": -1e-8, "operations": [{"op": "parabolicity"}]}),
            ("parab-H-bool", "scenario", {"operations": [
                {"op": "parabolicity", "H": True}]}),
            ("T-bool", "comparison", {"T": True}),
            ("T-inf", "comparison", {"T": math.inf}),
            ("T-huge", "comparison", {"T": 1e999}),
            ("selector-nan", "probe", {"selector": [1.0, math.nan]}),
            ("selector-bool", "probe", {"selector": [True, 1.0]}),
            ("amplitude-nan", "verify", {"ambient": torus,
                                         "immersion": {"family": "random",
                                                       "resolution": 12,
                                                       "amplitude": math.nan},
                                         "operations": structure}),
            ("width0", "verify", {"ambient": torus,
                                  "immersion": {"family": "bump",
                                                "resolution": 12,
                                                "width": 0},
                                  "operations": structure}),
            ("lengths0", "verify", {"ambient": dict(torus,
                                                    lengths=[0.0, 1.0]),
                                    "immersion": slice12,
                                    "operations": structure}),
            ("box-nan", "verify", {"ambient": torus,
                                   "immersion": dict(slice12, box=[
                                       [0.0, 1.0], [math.nan, 1.0]]),
                                   "operations": structure}),
            ("box-flat", "verify", {"ambient": torus,
                                    "immersion": dict(slice12, box=[
                                        [0.0, 1.0], [1.0, 1.0]]),
                                    "operations": structure}),
            # a bump center or a box takes one entry per fiber axis
            ("center-short", "verify", {"ambient": torus,
                                        "immersion": {"family": "bump",
                                                      "resolution": 12,
                                                      "center": [1.0]},
                                        "operations": structure}),
            ("center-long", "verify", {"ambient": torus,
                                       "immersion": {"family": "bump",
                                                     "resolution": 12,
                                                     "center": [1.0, 2.0,
                                                                3.0]},
                                       "operations": structure}),
            ("box-one-axis", "verify", {"ambient": torus,
                                        "immersion": {"family": "bump",
                                                      "resolution": 12,
                                                      "box": [[0.0, 1.0]]},
                                        "operations": structure}),
            ("kappa-str", "verify", {"ambient": dict(torus, kappa="0"),
                                     "immersion": slice12,
                                     "operations": structure}),
            # discretization takes its three fields and nothing else
            ("disc-typo", "verify", {"ambient": torus, "immersion": slice12,
                                     "discretization": {"ordr": 2},
                                     "operations": structure}),
            ("disc-margin", "verify", {"ambient": torus,
                                       "immersion": slice12,
                                       "discretization": {"margin_factor": 1},
                                       "operations": structure}),
            ("disc-list", "verify", {"ambient": torus, "immersion": slice12,
                                     "discretization": [],
                                     "operations": structure}),
            ("disc-order3", "verify", {"ambient": torus,
                                       "immersion": slice12,
                                       "discretization": {"order": 3},
                                       "operations": structure}),
            # every other section refuses the keys it does not read
            ("immersion-typo", "verify", {
                "ambient": torus,
                "immersion": {"family": "random", "resolution": 12,
                              "amplitdue": 0.1},
                "operations": structure}),
            ("slice-amplitude", "verify", {
                "ambient": torus, "immersion": dict(slice12, amplitude=0.1),
                "operations": structure}),
            ("ambient-typo", "verify", {"ambient": dict(torus, kapa=1.0),
                                        "immersion": slice12,
                                        "operations": structure}),
            ("verify-op-typo", "verify", {"ambient": torus,
                                          "immersion": slice12,
                                          "operations": [{"op": "structure",
                                                          "tl": 1e-3}]}),
            ("scenario-op-typo", "scenario", {
                "ambient": torus, "immersion": slice12,
                "operations": [{"op": "curvature-estimate", "ordr": 2}]}),
            ("parab-typo", "scenario", {"operations": [
                {"op": "parabolicity", "t_mx": 2.0}]}),
            ("height-typo", "probe", {"height": {"family": "tanh",
                                                 "scal": 2.0}}),
            ("model-typo", "probe", {"model": {"name": "flat", "Rr": 2.0}}),
            ("model-m", "probe", {"model": {"name": "flat", "m": 2.5}}),
            # an ODE the integrator cannot follow is refused, not a crash
            ("ode-T", "comparison", {"growth": "exp-square", "T": 40}),
            ("ode-model", "comparison", {"growth": "exp-square", "T": 3,
                                         "model": {"name": "hyperbolic",
                                                   "R": 40}}),
            ("ode-probe", "probe", {"model": {"name": "hyperbolic", "R": 7},
                                    "growth": "exp-square"}),
            # a subcommand refuses a top-level key another one reads
            ("verify-model", "verify", {"ambient": torus, "immersion": slice12,
                                        "model": "flat",
                                        "operations": structure}),
            ("scenario-min-slope", "scenario", {
                "operations": [{"op": "parabolicity"}], "min_slope": 1.0}),
            ("probe-operations", "probe", {"operations": structure}),
            ("comparison-height", "comparison", {"height": {"family": "tanh"}})):
        cfg = _write_config(tmp_path / f"{name}.json", config)
        assert main([sub, "--config", cfg, "--out", out]) == 2, name
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err

    # a radial model object takes its name, m and R and nothing else,
    # wherever a config reads one
    bogus = {"name": "hyperbolic", "R": 3, "bogus": 1}
    for sub, config in (
            ("comparison", {"model": bogus}),
            ("probe", {"model": bogus}),
            ("scenario", {"operations": [{"op": "parabolicity",
                                          "model": bogus}]})):
        cfg = _write_config(tmp_path / f"model-{sub}.json", config)
        assert main([sub, "--config", cfg, "--out", out]) == 2, sub
        assert capsys.readouterr().err == (
            "config error: unknown model key(s) bogus; accepted: name, m, "
            "R\n"), sub

    # a fiber the charts cannot carry is refused by name, before any report
    # is written: the removed polar charts (a polar box would silently mean
    # something else), a dimension outside [1, 8], box lengths on the curved
    # chart, and a box or probe origin reaching the Poincare ball's boundary
    ball = {"profile": "cosh", "chart": "space-form", "kappa": -1.0}
    for name, config, says in (
            ("round-sphere", {"ambient": {"profile": "cosh",
                                          "chart": "round-sphere",
                                          "kappa": 1.0}}, "'space-form'"),
            ("hyperbolic", {"ambient": dict(ball, chart="hyperbolic")},
             "'space-form'"),
            ("n0", {"ambient": dict(torus, n=0)}, "n=0 outside [1, 8]"),
            ("n9", {"ambient": dict(torus, n=9)}, "n=9 outside [1, 8]"),
            ("space-form-lengths", {"ambient": dict(ball, kappa=1.0,
                                                    lengths=[1, 2])},
             "takes no box lengths"),
            ("ball-box", {"ambient": ball, "immersion": dict(
                slice12, box=[[-0.5, 0.8], [-0.6, 0.2]])},
             "box reaches |x| sqrt(-kappa) = 1 >= 1"),
            ("ball-origin", {"ambient": ball, "operations": [
                {"op": "gamma-probe", "origin": [0.6, -0.8]}]},
             "gamma-probe origin reaches"),
            # a sectional bound over no frame pair would pass vacuously
            ("sectional-n1", {"ambient": dict(torus, n=1), "operations": [
                {"op": "sectional-bound"}]},
             "sectional-bound: n=1 has no frame pair")):
        config = {"immersion": slice12, "operations": structure, **config}
        cfg = _write_config(tmp_path / f"{name}.json", config)
        fresh = tmp_path / f"out-{name}"
        assert main(["verify", "--config", cfg, "--out", str(fresh)]) == 2, name
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and says in err, err
        assert err.count("\n") == 1, err
        assert not fresh.exists() or list(fresh.iterdir()) == [], name

    cfg = _write_config(tmp_path / "refine.json", {
        "ambient": torus, "immersion": slice12,
        "operations": [{"op": "convergence"}]})
    assert main(["verify", "--config", cfg, "--out", out, "--refine", "1"]) == 2
    assert "two refinement levels" in capsys.readouterr().err
    assert main(["verify", "--config", cfg, "--out", out, "--tol", "inf"]) == 2
    assert "tolerance=inf" in capsys.readouterr().err
    cfg = _write_config(tmp_path / "tol.json", {
        "ambient": torus, "immersion": slice12, "operations": structure})
    assert main(["verify", "--config", cfg, "--out", out, "--tol", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: tolerance=-1.0 is negative")
    assert err.count("\n") == 1, err
    # 0 is a tolerance: a slice's structure residuals pass it or fail it
    assert main(["verify", "--config", cfg, "--out", out, "--tol", "0"]) in (0, 1)
    assert "config error" not in capsys.readouterr().err

    # an unknown key is named, so a removed or misspelt key never runs
    # with its default
    cfg = _write_config(tmp_path / "shape.json", {
        "ambient": torus, "immersion": dict(slice12, shape=[12, 12]),
        "operations": structure})
    assert main(["verify", "--config", cfg, "--out", out]) == 2
    assert "unknown immersion key(s) shape;" in capsys.readouterr().err
    for sub, key, config in (
            ("comparison", "modle", {"growth": "one", "T": 2,
                                     "modle": "hyperbolic"}),
            ("verify", "tolerence", {"ambient": torus, "immersion": slice12,
                                     "tolerence": 1e-30,
                                     "operations": structure})):
        cfg = _write_config(tmp_path / f"{key}.json", config)
        assert main([sub, "--config", cfg, "--out", out]) == 2, key
        err = capsys.readouterr().err
        assert err.startswith(f"config error: unknown top-level key(s) {key};")
        assert err.count("\n") == 1, err

    # every operation is checked before any report is written
    late = tmp_path / "late"
    cfg = _write_config(tmp_path / "late.json", {
        "ambient": torus, "immersion": slice12,
        "operations": [{"op": "structure"}, {"op": "does-not-exist"}]})
    assert main(["verify", "--config", cfg, "--out", str(late)]) == 2
    assert "unknown verify operation" in capsys.readouterr().err
    assert list(late.iterdir()) == []

    # an integrator failure in the Hessian check leaves no report behind
    late = tmp_path / "late-ode"
    cfg = _write_config(tmp_path / "late-ode.json", {
        "growth": "exp-square", "T": 3,
        "model": {"name": "hyperbolic", "R": 40}})
    assert main(["comparison", "--config", cfg, "--out", str(late)]) == 2
    assert "integrator failed" in capsys.readouterr().err
    assert list(late.iterdir()) == []

    late = tmp_path / "late-parabolicity"
    cfg = _write_config(tmp_path / "late-parabolicity.json", {
        "operations": [{"op": "parabolicity"},
                       {"op": "parabolicity", "k": 0}]})
    assert main(["scenario", "--config", cfg, "--out", str(late)]) == 2
    assert "k=0" in capsys.readouterr().err
    assert list(late.iterdir()) == []

    late = tmp_path / "late-sphere-area"
    cfg = _write_config(tmp_path / "late-sphere-area.json", {
        "operations": [{"op": "parabolicity"},
                       {"op": "parabolicity", "m": 344}]})
    assert main(["scenario", "--config", cfg, "--out", str(late)]) == 2
    assert "m=344" in capsys.readouterr().err
    assert list(late.iterdir()) == []


@pytest.mark.parametrize("n,res", [(2, 12), (3, 8)])
def test_cli_k_ranges_match_the_operators(n, res):
    # the CLI checks k before any work, against ranges it states apart from
    # the operators: it must refuse exactly the k the operator would raise on
    ranges = (cli._TENSOR_K, cli._DIVERGENCE_K, cli._CURVATURE_K,
              cli._CALLIGRAPHIC_K)
    ops = [{"op": name} for name, (_, check, _) in cli.VERIFY_OPS.items()
           if check in ranges]
    ops += [{"op": "convergence", "identity": identity}
            for identity, (_, check, _) in cli._CONVERGENCE.items()
            if check is not None]
    assert len(ops) == 11
    W = make_product("cosh", "flat-torus", n, 0.0)
    imm = random_immersion(W, seed=4, t_center=0.6, amplitude=0.1, res=res)
    cfg = DiscretizationConfig()
    run = SimpleNamespace(imm=imm, geom=evaluate_geometry(imm, cfg), cfg=cfg)
    for op, k in itertools.product(ops, range(-1, n + 2)):
        op = dict(op, k=k)
        try:
            cli._operations("verify", {"operations": [op]}, cli.VERIFY_OPS,
                            W.fiber)
            refused = False
        except cli.ConfigError:
            refused = True
        try:
            if op["op"] == "convergence":
                cli._CONVERGENCE[op["identity"]][0](run.geom, k)
            else:
                cli.VERIFY_OPS[op["op"]][0](run, op, None)
            raised = False
        except operators.NotApplicableError:
            raised = False
        except ValueError:
            raised = True
        assert refused == raised, op


def test_convergence_identities_study_their_verify_residual(tmp_path):
    # every axis is periodic, so the audit window is the interior: the
    # study's first level is the verify geometry, and its maximum must be
    # the residual the verify op gates, bit for bit
    studies = {"height-hessian": ("structure", "height-hessian"),
               "sigma-hessian": ("structure", "sigma-hessian"),
               "height": ("height-sigma", "height"),
               "sigma": ("height-sigma", "sigma"),
               "div-newton": ("div-newton", "residual_ab"),
               "theta-hat": ("theta-hat", "operator"),
               "calligraphic": ("calligraphic", "sigma_identity"),
               "frak-phi": ("frak-phi", "four-term")}
    assert list(cli._CONVERGENCE) == list(studies)
    # at n = 3 the div-newton keys residual_ab and residual_ac differ
    W = make_product("cosh", "flat-torus", 3, 0.0)
    imm = random_immersion(W, seed=4, t_center=0.6, amplitude=0.1, res=8)
    cfg = DiscretizationConfig(refine_levels=2)
    run = SimpleNamespace(imm=imm, geom=evaluate_geometry(imm, cfg), cfg=cfg,
                          min_slope=1.9)
    for identity, (name, key) in studies.items():
        k = 2 if name == "calligraphic" else 1
        entry = cli.VERIFY_OPS[name][0](run, {"op": name, "k": k}, None)
        op = {"op": "convergence", "identity": identity, "k": k}
        study = cli.VERIFY_OPS["convergence"][0](run, op,
                                                 str(tmp_path / identity))
        assert study["maxima"][0] == entry["residuals"][key], identity


def _field_paths(node, prefix=()):
    """Key paths to every field of a config, nested ones included."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from _field_paths(child, prefix + (key,))


def _small_battery():
    """The c8 battery with every grid at 16 nodes per axis."""
    battery = copy.deepcopy(BATTERY)
    for sub in ("verify", "scenario"):
        battery[sub]["immersion"]["resolution"] = 16
    return battery


_FUZZ_FIELDS = [(sub, path) for sub, config in _small_battery().items()
                for path in _field_paths(config)]
# no magnitude above 2, so no replacement can ask for a large grid
_FUZZ_VALUES = [True, None, "x", -1, 0, 1.5, math.nan, math.inf, [], {}]


@given(field=st.sampled_from(_FUZZ_FIELDS),
       value=st.sampled_from(_FUZZ_VALUES))
@settings(max_examples=50, deadline=None)
def test_fuzzed_config_field_never_crashes(field, value):
    sub, path = field
    config = _small_battery()[sub]
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        cfg = _write_config(os.path.join(tmp, "cfg.json"), config)
        rc = main([sub, "--config", cfg, "--out", os.path.join(tmp, "out")])
    assert rc in (0, 1, 2), (field, value, rc)


def _reject_constant(token):
    raise ValueError(f"report holds the non-JSON constant {token}")


def test_nan_residual_fails_the_gate(tmp_path, monkeypatch):
    # Python's max() drops a NaN that is not the first item, so a gate on
    # the worst residual would pass this suite
    def height_sigma_identities(imm, k, cfg=None, geom=None):
        return {"height": operators.IdentityResidual(None, 1e-12),
                "sigma": operators.IdentityResidual(None, np.float64("nan"))}

    monkeypatch.setattr(operators, "height_sigma_identities",
                        height_sigma_identities)
    cfg = _write_config(tmp_path / "cfg.json", {
        "ambient": {"profile": "cosh", "chart": "flat-torus", "n": 2},
        "immersion": {"family": "slice", "t": 0.7, "resolution": 12},
        "operations": [{"op": "height-sigma", "k": 1, "tol": 1e-3}]})
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
    entry = json.loads((out / "verify-00-height-sigma.json").read_text(),
                       parse_constant=_reject_constant)
    assert entry["status"] == "fail"
    assert entry["residuals"] == {"height": 1e-12, "sigma": "nan"}
    assert _read_json(out, "verify-summary.json")["failed"] == ["height-sigma"]


def _pool_battery(v):
    """The v-th of the benchmark's 12 cli-battery config sets: the c8
    battery with its seed, slice height, growth and T varied."""
    battery = copy.deepcopy(BATTERY)
    for config in battery.values():
        config["seed"] = 17 + v
    battery["scenario"]["immersion"]["t"] = 0.5 + 0.1 * (v % 4)
    battery["comparison"].update(growth=("quadratic", "one")[v % 2],
                                 T=6.0 - (v % 3) * 0.5)
    return battery


def test_battery_trees_do_not_depend_on_the_batteries_before(tmp_path):
    # the benchmark's digest check runs the 12 batteries in one process:
    # run in order and then in reverse, each writes the same bytes both
    # times, whatever the process ran before
    runs = {}
    for sweep, order in (("forward", range(12)),
                         ("reverse", range(11, -1, -1))):
        for v in order:
            root = tmp_path / sweep / f"{v:02d}"
            exits = {}
            for sub, config in _pool_battery(v).items():
                cfg = _write_config(tmp_path / f"{sweep}-{v:02d}-{sub}.json",
                                    config)
                exits[sub] = main([sub, "--config", cfg,
                                   "--out", str(root / sub)])
            runs.setdefault(v, []).append((exits, _tree_bytes(root)))
    for v, (forward, reverse) in runs.items():
        assert forward == reverse, v


def test_reports_are_strict_json(tmp_path):
    path = tmp_path / "report.json"
    write_json(str(path), {"numpy": np.float64("nan"), "python": math.inf,
                           "small": np.array([-np.inf, 1.0]),
                           "large": np.full(65, np.nan)})
    assert json.loads(path.read_text(), parse_constant=_reject_constant) == {
        "numpy": "nan", "python": "inf", "small": ["-inf", 1.0],
        "large": {"shape": [65], "max_abs": "nan"}}


def test_out_dir_from_environment(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path / "cfg.json", {
        "growth": "one", "T": 2.0})
    env_dir = tmp_path / "from-env"
    monkeypatch.setenv(ENV_OUT, str(env_dir))
    assert main(["comparison", "--config", cfg]) == 0
    assert (env_dir / "comparison-summary.json").exists()


def test_scenario_statuses_and_hypothesis_handling(tmp_path):
    # a perturbed graph breaks the constancy hypothesis: the run reports
    # hypothesis-violated but still exits 0 (nothing was falsified)
    cfg = _write_config(tmp_path / "cfg.json", {
        "ambient": {"profile": "cosh", "chart": "flat-torus", "n": 2},
        "immersion": {"family": "random", "t_center": 0.7,
                      "amplitude": 0.1, "resolution": 20},
        "seed": 11,
        "operations": [
            {"op": "theorem-audit", "id": "compact-constant-h2"},
            {"op": "parabolicity", "model": "flat", "H": 1.0, "k": 1},
        ],
    })
    out = tmp_path / "out"
    assert main(["scenario", "--config", cfg, "--out", str(out)]) == 0
    summary = _read_json(out, "scenario-summary.json")
    assert summary["operations"][0]["status"] == "hypothesis-violated"
    assert summary["operations"][1]["status"] == "pass"
    assert summary["failed"] == []
    audit = _read_json(out, "scenario-00-theorem-audit.json")
    assert audit["report"]["verdict"] == "hypothesis-violated"
    table = (out / "scenario-01-parabolicity.tsv").read_text().splitlines()
    assert table[0] == "t\tintegrand"
    assert len(table) > 10


def test_scenario_slice_audit_passes(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", {
        "ambient": {"profile": "cosh", "chart": "flat-torus", "n": 2},
        "immersion": {"family": "slice", "t": 0.7, "resolution": 20},
        "operations": [
            {"op": "theorem-audit", "id": "compact-constant-h2"},
            {"op": "curvature-estimate", "order": 2},
            {"op": "elliptic-signs"},
        ],
    })
    out = tmp_path / "out"
    assert main(["scenario", "--config", cfg, "--out", str(out)]) == 0
    summary = _read_json(out, "scenario-summary.json")
    assert [o["status"] for o in summary["operations"]] == ["pass"] * 3


def test_probe_reports_and_table(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", {
        "model": "hyperbolic",
        "height": {"family": "tanh"},
        "jmax": 12,
    })
    out = tmp_path / "out"
    assert main(["probe", "--config", cfg, "--out", str(out)]) == 0
    entry = _read_json(out, "probe-00-omori-yau.json")
    assert entry["status"] == "pass"
    assert not entry["boundary_flag"]
    assert len(entry["records"]) == 12
    lines = (out / "probe-00-omori-yau.tsv").read_text().splitlines()
    assert lines[0] == "j\tradius\tgap\tgrad_norm\tLu"
    assert len(lines) == 13


def test_probe_boundary_flag_goes_not_applicable(tmp_path):
    # heights that keep growing push every maximizer to the boundary
    cfg = _write_config(tmp_path / "cfg.json", {
        "model": "flat",
        "height": {"family": "negative-square"},
        "jmax": 6,
    })
    out = tmp_path / "out"
    rc = main(["probe", "--config", cfg, "--out", str(out)])
    entry = _read_json(out, "probe-00-omori-yau.json")
    if entry["status"] == "not-applicable":
        assert rc == 0
        assert entry["boundary_flag"]
    else:
        # -r^2 is maximized at the origin; accept an interior certificate
        assert rc == 0 and entry["status"] == "pass"


def test_comparison_with_growing_bound_passes(tmp_path):
    # regression: the solution-side Riccati drift for non-constant growth
    # must not be gated as a violation
    cfg = _write_config(tmp_path / "cfg.json", {
        "growth": "quadratic", "T": 6.0})
    out = tmp_path / "out"
    assert main(["comparison", "--config", cfg, "--out", str(out)]) == 0
    entry = _read_json(out, "comparison-01-solution.json")
    assert entry["gates"]["riccati_nonnegative"]
    assert entry["gates"]["envelope_identity_nonneg"]
    assert entry["gates"]["sturm_holds"]
    assert entry["report"]["riccati_min"] < -0.5  # the drift is real


def test_comparison_with_model_section(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", {
        "growth": "one", "T": 4.0, "model": "hyperbolic"})
    out = tmp_path / "out"
    assert main(["comparison", "--config", cfg, "--out", str(out)]) == 0
    entry = _read_json(out, "comparison-02-hessian.json")
    assert entry["status"] == "pass"
    lines = (out / "comparison-01-solution.tsv").read_text().splitlines()
    assert lines[0] == "t\tphi\tdphi\tpsi\tdpsi\tenvelope"


@pytest.mark.parametrize("argv_cfg", [
    ("verify", SLICE_VERIFY),
    ("verify", {
        "ambient": {"profile": "exp", "chart": "flat-torus", "n": 2},
        "immersion": {"family": "random", "resolution": 20,
                      "amplitude": 0.15},
        "seed": 7,
        "operations": [{"op": "structure", "tol": 1e-3},
                       {"op": "gamma-probe", "tol": 1e-2}],
    }),
    ("probe", {"model": "hyperbolic", "height": {"family": "tanh"},
               "jmax": 8}),
    ("comparison", {"growth": "quadratic", "T": 4.0,
                    "model": "hyperbolic"}),
])
def test_reruns_are_byte_identical(tmp_path, argv_cfg):
    sub, config = argv_cfg
    cfg = _write_config(tmp_path / "cfg.json", config)
    first, second = tmp_path / "a", tmp_path / "b"
    rc1 = main([sub, "--config", cfg, "--out", str(first)])
    rc2 = main([sub, "--config", cfg, "--out", str(second)])
    assert rc1 == rc2
    ta, tb = _tree_bytes(first), _tree_bytes(second)
    assert sorted(ta) == sorted(tb)
    for name in ta:
        assert ta[name] == tb[name], f"{name} differs between reruns"


def test_gamma_probe_gates_its_hessian_residual(tmp_path):
    # a held gradient bound leaves the verdict to the residual gate
    config = {"ambient": {"profile": "exp", "chart": "flat-torus", "n": 2},
              "immersion": {"family": "random", "resolution": 20,
                            "amplitude": 0.15},
              "seed": 7}
    for tol, rc, status in ((1e-12, 1, "fail"), (1e-2, 0, "pass")):
        cfg = _write_config(tmp_path / f"{tol}.json", dict(
            config, operations=[{"op": "gamma-probe", "tol": tol}]))
        out = tmp_path / f"out-{tol}"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == rc
        entry = _read_json(out, "verify-00-gamma-probe.json")
        assert entry["gradient_bound_holds"], entry
        assert entry["residuals"]["hessian"] > 1e-12 and \
            entry["status"] == status
        failed = _read_json(out, "verify-summary.json")["failed"]
        assert failed == (["gamma-probe"] if rc else [])


def test_seed_flag_overrides_config(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", {
        "ambient": {"profile": "exp", "chart": "flat-torus", "n": 2},
        "immersion": {"family": "random", "resolution": 16},
        "seed": 3,
        "operations": [{"op": "structure", "tol": 1.0}],
    })
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["verify", "--config", cfg, "--out", str(out_a), "--seed", "9"])
    main(["verify", "--config", cfg, "--out", str(out_b)])
    assert _read_json(out_a, "verify-summary.json")["seed"] == 9
    assert _read_json(out_b, "verify-summary.json")["seed"] == 3
    ra = _read_json(out_a, "verify-00-structure.json")["residuals"]
    rb = _read_json(out_b, "verify-00-structure.json")["residuals"]
    assert ra != rb  # different seeds, different random graphs


def test_consecutive_calls_parse_independently(tmp_path, monkeypatch):
    # every main call parses with the one parser of the process; no flag
    # value carries over to the next call
    seen = []

    def record(config, args, out_dir):
        seen.append((args.subcommand, args.seed, args.tol, args.refine))
        return 0

    for name, (_, keys) in list(cli._RUNNERS.items()):
        monkeypatch.setitem(cli._RUNNERS, name, (record, keys))
    cfg = _write_config(tmp_path / "cfg.json", {"seed": 3, "tolerance": 0.25})
    out = str(tmp_path / "out")
    calls = [["comparison", "--seed", "9", "--tol", "0.5", "--refine", "2"],
             ["probe"],
             ["verify", "--tol", "0.125"],
             ["comparison", "--seed", "4"]]
    for argv in calls:
        assert main(argv + ["--config", cfg, "--out", out]) == 0
    assert seen == [("comparison", 9, 0.5, 2), ("probe", 3, 0.25, None),
                    ("verify", 3, 0.125, None), ("comparison", 4, 0.25, None)]
    assert cli._parser() is cli._parser()


def test_console_script_entry_point(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", {"growth": "one", "T": 2.0})
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "warpcurv.cli", "comparison",
         "--config", cfg, "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (out / "comparison-summary.json").exists()


def test_a_log_level_in_the_environment_changes_nothing(tmp_path):
    # nothing in the package logs, so no log-level variable is read; a
    # bad value once ended the run in a traceback with exit 1
    cfg = _write_config(tmp_path / "cfg.json", {"growth": "one", "T": 2.0})
    proc = subprocess.run(
        [sys.executable, "-m", "warpcurv.cli", "comparison",
         "--config", cfg, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, WARPCURV_LOGLEVEL="foo"))
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr


def test_import_leaves_scipy_integrate_unloaded():
    # the ODE and quadrature routines load scipy.integrate when first
    # called, so importing the package stays cheap
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, warpcurv; "
         "assert 'scipy.integrate' not in sys.modules"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("sub,config", [
    ("comparison", {"growth": "exp-square", "T": 40}),
    ("comparison", {"growth": "exp-square", "T": 3,
                    "model": {"name": "hyperbolic", "R": 40}}),
    ("probe", {"model": {"name": "hyperbolic", "R": 7},
               "growth": "exp-square"}),
])
def test_overflowing_growth_writes_one_stderr_line(tmp_path, sub, config):
    # exp(t^2) overflows inside the domain
    _assert_one_line_refusal(tmp_path, sub, config)


@pytest.mark.parametrize("sub,config", [
    ("probe", {"model": {"name": "stretched", "R": 400},
               "height": {"family": "tanh"}}),
    ("comparison", {"growth": "one", "T": 2,
                    "model": {"name": "hyperbolic", "R": 800}}),
])
def test_overflowing_model_writes_one_stderr_line(tmp_path, sub, config):
    # sinh overflows on (0, R]: the model is refused when built, before a
    # NaN growth bound can reach the ODE (which then never finished)
    _assert_one_line_refusal(tmp_path, sub, config)


def test_probe_ode_failure_names_the_probe_and_radius(tmp_path):
    # phi = sinh(t) overflows before T = R^2 = 900
    err = _assert_one_line_refusal(tmp_path, "probe", {
        "model": {"name": "hyperbolic", "R": 30},
        "height": {"family": "tanh"}})
    assert err.startswith("config error: omori-yau probe: comparison ODE to "
                          "T = R^2 = 900 (model radius 30) failed: "), err


def test_probe_radius_whose_square_overflows_exits_two(tmp_path):
    # Python's float ** raises OverflowError where numpy returns inf: R * R
    # is inf, and the comparison ODE refuses a domain it cannot integrate
    err = _assert_one_line_refusal(tmp_path, "probe", {
        "model": {"name": "flat", "R": 1e200}})
    assert "T = R^2 = inf" in err, err


@pytest.mark.parametrize("sub,config", [
    ("probe", {"height": {"family": "gaussian-bump", "width": 1e-300}}),
    ("verify", {"ambient": {"profile": "cosh", "chart": "flat-torus",
                            "n": 2},
                "immersion": {"family": "bump", "resolution": 12,
                              "width": 1e200},
                "operations": [{"op": "structure"}]}),
])
def test_extreme_bump_widths_take_their_limits(tmp_path, sub, config):
    # a width whose square overflows (or an offset over a tiny width that
    # does) leaves exp its limit, 1 or 0, with no OverflowError and no
    # RuntimeWarning (an error under this suite's filterwarnings)
    cfg = _write_config(tmp_path / "cfg.json", config)
    assert main([sub, "--config", cfg, "--out", str(tmp_path / "out")]) == 0


def test_an_extreme_tanh_scale_takes_its_limit(tmp_path):
    # scale * r overflows to inf at every r > 0, where tanh takes its
    # limit 1 with no RuntimeWarning (an error under this suite's
    # filterwarnings)
    cfg = _write_config(tmp_path / "cfg.json",
                        {"height": {"family": "tanh", "scale": 1e308}})
    out = tmp_path / "out"
    assert main(["probe", "--config", cfg, "--out", str(out)]) == 0
    records = _read_json(out, "probe-00-omori-yau.json")["records"]
    assert all(rec["u"] == 1.0 for rec in records if rec["radius"] > 0.0)


@pytest.mark.parametrize("sub, config, line", [
    ("probe", {"height": {"family": "negative-square"},
               "model": {"name": "flat", "R": 1e200}},
     "config error: height field must be finite\n"),
    ("verify", {"ambient": {"profile": "cosh", "chart": "flat-torus", "n": 2},
                "immersion": {"family": "bump", "resolution": 12,
                              "width": 1e-200},
                "operations": [{"op": "structure"}]},
     "config error: width=1e-200 is too small: 2 width^2 underflows the "
     "float range\n"),
    ("comparison", {"growth": "one", "T": 1,
                    "model": {"name": "hyperbolic", "R": 1e-300}},
     "config error: model radius 1e-300 is too small: r^2 underflows on "
     "[R/2, R]\n"),
    ("probe", {"model": {"name": "hyperbolic", "R": 1e-300}},
     "config error: model radius 1e-300 is too small: r^2 underflows on "
     "[R/2, R]\n"),
    ("comparison", {"growth": "quadratic", "T": 1e300},
     "config error: comparison integrator failed: Required step size is "
     "less than spacing between numbers.\n"),
])
def test_refusals_raise_no_runtime_warning(tmp_path, sub, config, line):
    # a squared radius that overflows, a squared width or radius that
    # underflows, and a growth ratio whose sides both overflow: the
    # refusal is the whole of stderr, with no warning raised before it
    cfg = _write_config(tmp_path / "cfg.json", config)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "warpcurv.cli",
         sub, "--config", cfg, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == line


@pytest.mark.parametrize("model", [{"name": "hyperbolic", "R": 1e-6},
                                   {"name": "flat", "R": 1e-8}])
def test_hessian_comparison_at_a_small_radius_exits_clean(tmp_path, model):
    # phi'/phi and f'/f near 1/r round apart by more than 1e-8 here; the
    # gate scales with them, so the equality case is no falsification
    cfg = _write_config(tmp_path / "cfg.json",
                        {"growth": "one", "T": 2.0, "model": model})
    out = tmp_path / "out"
    assert main(["comparison", "--config", cfg, "--out", str(out)]) == 0
    report = _read_json(out, "comparison-02-hessian.json")["report"]
    assert report["slope_margin_min"] < -1e-8


def test_hessian_comparison_at_a_tiny_radius_warns_nothing(tmp_path):
    # the check reads phi'/phi from the integrator's dense solution; the
    # Sturm report of a solve to R = 1e-14 would divide by psi = 0
    cfg = _write_config(tmp_path / "cfg.json", {
        "growth": "one", "T": 1, "model": {"name": "flat", "R": 1e-14}})
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "warpcurv.cli",
         "comparison", "--config", cfg, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr


def test_parabolicity_past_the_sinh_overflow(tmp_path):
    # T = 2R = 800 runs sinh past its overflow near t = 710, where the
    # integrand takes its limit 0 without a warning
    cfg = _write_config(tmp_path / "cfg.json", {"operations": [
        {"op": "parabolicity", "model": "hyperbolic", "R": 400, "k": 2}]})
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "warpcurv.cli", "scenario",
         "--config", cfg, "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    report = _read_json(out, "scenario-00-parabolicity.json")["report"]
    assert not report["parabolic_criterion"]
    # with t_max = 3000 the first increment is 0 too: no trend to read
    (tmp_path / "zero").mkdir()
    err = _assert_one_line_refusal(tmp_path / "zero", "scenario", {
        "operations": [{"op": "parabolicity", "model": "hyperbolic",
                        "k": 2, "t_max": 3000}]})
    assert "increment" in err, err


def test_parabolicity_past_the_sphere_area_underflow(tmp_path):
    # at m = 200, t^199 underflows to 0 near t = T/100: the sampled
    # integrand exceeds the float range there and reads inf, without a
    # RuntimeWarning (an error under this suite's filterwarnings)
    cfg = _write_config(tmp_path / "cfg.json", {"operations": [
        {"op": "parabolicity", "model": "flat", "m": 200, "H": 1.0,
         "k": 1}]})
    out = tmp_path / "out"
    assert main(["scenario", "--config", cfg, "--out", str(out)]) == 0
    report = _read_json(out, "scenario-00-parabolicity.json")["report"]
    assert report["parabolic_criterion"] is False
    rows = (out / "scenario-00-parabolicity.tsv").read_text().splitlines()
    assert rows[1].endswith("\tinf")


def _limit_address_space():
    # about 2 GB: the interpreter and numpy fit, a 7 TiB grid cannot,
    # whatever the host's overcommit policy
    limit = 2 * 1024 ** 3
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_grid_too_large_for_memory_exits_two(tmp_path):
    # a bad input, not a falsification (exit 1); one line, no traceback
    _assert_one_line_refusal(tmp_path, "verify", {
        "ambient": {"profile": "cosh", "chart": "flat-torus", "n": 2},
        "immersion": {"family": "slice", "t": 0.7, "resolution": 1000000},
        "operations": [{"op": "structure"}]},
        preexec_fn=_limit_address_space,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))


def test_a_spacing_too_fine_to_difference_exits_two(tmp_path):
    # FiberSpec takes any positive finite length, but a spacing of 6e-162
    # squares to below the smallest normal float: the second differences
    # would overflow, so the grid is refused before any stencil runs,
    # and a box given with the immersion is held to the same rule
    torus = {"profile": "cosh", "chart": "flat-torus", "n": 2}
    random16 = {"family": "random", "resolution": 16}
    estimate = [{"op": "curvature-estimate", "order": 1}]
    err = _assert_one_line_refusal(tmp_path, "scenario", {
        "ambient": dict(torus, lengths=[1e-160, 1]), "immersion": random16,
        "operations": estimate})
    assert "grid spacing 6.25e-162 is too fine" in err, err
    (tmp_path / "box").mkdir()
    err = _assert_one_line_refusal(tmp_path / "box", "scenario", {
        "ambient": torus, "operations": estimate,
        "immersion": dict(random16, box=[[0.0, 1.0], [0.0, 1e-160]])})
    assert "grid spacing 6.25e-162 is too fine" in err, err


def test_stencils_that_overflow_exit_two_in_verify_and_scenario(tmp_path):
    # a spacing of 6e-152 squares to a normal float, but the heights over
    # it make the differenced metric overflow: the geometry is refused
    # while the inputs are checked, so verify does not report a
    # falsification (exit 1) and scenario no consistent estimate (exit 0)
    config = {"ambient": {"profile": "cosh", "chart": "flat-torus", "n": 2,
                          "lengths": [1e-150, 1]},
              "immersion": {"family": "random", "resolution": 16},
              "seed": 3}
    for sub, ops in (("verify", [{"op": "structure"},
                                 {"op": "height-sigma", "k": 1}]),
                     ("scenario", [{"op": "curvature-estimate",
                                    "order": 1}])):
        (tmp_path / sub).mkdir()
        err = _assert_one_line_refusal(tmp_path / sub, sub,
                                       dict(config, operations=ops))
        assert "Christoffel symbols are not finite" in err, err
        assert not any((tmp_path / sub / "out").iterdir())


def _assert_one_line_refusal(tmp_path, sub, config, **run_args):
    """The refusal is the only line on stderr, with no numpy or scipy
    RuntimeWarning ahead of it (pytest captures warnings in-process, so
    this needs a fresh interpreter).  ``run_args`` go to the child's
    ``subprocess.run``.  Returns stderr."""
    cfg = _write_config(tmp_path / "cfg.json", config)
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "warpcurv.cli", sub,
         "--config", cfg, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120, **run_args)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error: "), proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr
    return proc.stderr


def _check_normalization(box, periodic, seed, max_mode, amplitude=0.2):
    """Compare the scale of ``random_height_function`` with an oracle that
    evaluates the closed form at every one of the 64**n samples; return the
    height field and the samples."""
    raw, terms = _trigonometric_field(box, np.random.default_rng(seed),
                                      max_mode)
    axes = [np.linspace(lo, hi, 64, endpoint=not per)
            for (lo, hi), per in zip(box, periodic)]
    points = np.stack(np.meshgrid(*axes, indexing="ij"),
                      axis=-1).reshape(-1, len(box))
    values = raw(points)
    peak = float(np.max(np.abs(values)))
    assert _sample_peak(raw, terms, box, periodic, 64) == peak
    dev = random_height_function(box, periodic, np.random.default_rng(seed),
                                 amplitude=amplitude, max_mode=max_mode)
    # a scale one ulp off changes most products
    some = slice(None, None, 1 + len(points) // 512)
    assert np.array_equal(dev(points[some]), (amplitude / peak) * values[some])
    return dev, points


# the largest max_mode drawn per dimension: past 31 the modes alias on a
# 64-point axis, and the oracle's cost grows with (2 max_mode + 1)**n
_MAX_MODE = {1: 40, 2: 4, 3: 2}


@given(data=st.data(), n=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1),
       box=st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(0.5, 10.0)),
                    min_size=3, max_size=3),
       periodic=st.lists(st.booleans(), min_size=3, max_size=3))
@settings(max_examples=25, deadline=None)
def test_periodic_normalization_matches_dense_sampling(data, n, seed, box,
                                                       periodic):
    # the bounded row search must reproduce the dense scale bit for bit on
    # periodic, non-periodic and mixed boxes, aliased modes included, so
    # every seeded height field is unchanged
    max_mode = data.draw(st.integers(1, _MAX_MODE[n]), label="max_mode")
    box = [(lo, lo + length) for lo, length in box[:n]]
    _check_normalization(box, tuple(periodic[:n]), seed, max_mode)


@pytest.mark.parametrize("max_mode", [1, 2])
@pytest.mark.parametrize("periodic", [
    (True,), (False,), (True, True), (False, False), (True, False),
    (False, True), (True,) * 3, (False,) * 3, (True, False, True),
    (False, True, False)],
    ids=lambda flags: "".join("p" if per else "o" for per in flags))
def test_peak_locator_matches_every_sample(periodic, max_mode):
    # the separable transform only locates the peak; on periodic,
    # non-periodic (the far edge kept) and mixed boxes the closed form at
    # its candidates must equal the maximum over all 64**n samples
    n = len(periodic)
    rng = np.random.default_rng(10 * n + max_mode)
    for seed in range(2 if n == 3 else 3):
        box = [(lo, lo + length) for lo, length in
               zip(rng.uniform(-5.0, 5.0, n), rng.uniform(0.5, 10.0, n))]
        _check_normalization(box, periodic, seed, max_mode)


_SPHERE = FiberSpec(n=2, kappa=1.0, chart="space-form")


@pytest.mark.parametrize("box,periodic,max_mode", [
    # a space-form chart box: no axis is periodic
    (_SPHERE.default_box(), _SPHERE.periodic, 1),
    # the Nyquist mode: 32 and -32 share a bin of 64 samples
    ([(0.0, 2.0 * math.pi)], (True,), 32),
])
def test_dense_normalization_fallbacks(box, periodic, max_mode):
    dev, points = _check_normalization(box, periodic, 7, max_mode)
    # A/peak*peak rounds to within an ulp of A
    assert float(np.max(np.abs(dev(points)))) == pytest.approx(0.2, rel=1e-15)


@pytest.mark.parametrize("periodic", [(True,), (False,)])
def test_aliased_modes_share_their_bin(periodic):
    # past mode 63 (64 on a periodic axis) a mode shares its DFT bin with a
    # low one; the bin must hold their sum, or the peak search misses the
    # dense peak for some seeds
    for seed in range(8):
        _check_normalization([(-1.0, 2.0)], periodic, seed, 70)


def _closed_form(box, terms):
    """The sum of ``a cos(phase) + b sin(phase)`` over hand-built ``terms``
    ``(mode, a, b)``, phase = 2 pi m . (x - lo) / length, as a function of
    the stacked mesh (..., n)."""
    los = [lo for lo, _ in box]
    lengths = [hi - lo for lo, hi in box]

    def raw(mesh):
        dev = np.zeros(mesh.shape[:-1])
        for mode, a, b in terms:
            phase = sum(2.0 * math.pi * m * (mesh[..., i] - los[i])
                        / lengths[i] for i, m in enumerate(mode) if m)
            dev = dev + a * np.cos(phase) + b * np.sin(phase)
        return dev
    return raw


def _dense_samples(raw, box, periodic):
    """The closed form at every one of the 64**n samples, on their grid."""
    axes = [np.linspace(lo, hi, 64, endpoint=not per)
            for (lo, hi), per in zip(box, periodic)]
    return raw(np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1))


def _peak_matches_dense(box, periodic, terms):
    raw = _closed_form(box, terms)
    values = _dense_samples(raw, box, periodic)
    assert _sample_peak(raw, terms, box, periodic, 64) == np.max(
        np.abs(values))
    return values


def test_peak_search_when_every_row_ties():
    # only last-axis modes: every row holds the same polynomial, so no
    # bound falls below the cut and every row is evaluated
    values = _peak_matches_dense(
        [(0.0, 1.0), (-2.0, 1.0), (0.5, 3.0)], (True, False, False),
        [((0, 0, 1), 0.7, -0.2), ((0, 0, 2), 0.1, 0.3)])
    rows = values.reshape(-1, 64)
    assert np.array_equal(rows, np.broadcast_to(rows[0], rows.shape))


def test_peak_search_finds_a_negative_peak():
    # -cos x - cos(2x)/2 reaches -1.5 at x = 0 and only 0.75 above zero
    values = _peak_matches_dense(
        [(0.0, 2.0), (-1.0, 1.5), (0.0, 4.0)], (True, False, True),
        [((1, 0, 0), -1.0, 0.0), ((2, 0, 0), -0.5, 0.0),
         ((0, 1, 0), 0.2, 0.0), ((0, 0, 1), 0.1, 0.05)])
    assert values.min() == -np.max(np.abs(values)) < -1.5


@pytest.mark.parametrize("periodic", [(False, True), (True, False)],
                         ids=["row-axis", "last-axis"])
def test_peak_search_keeps_the_far_edge(periodic):
    # cos(31 x + 0.02) peaks just before each multiple of 2 pi / 31; the
    # nearest sample on the non-periodic axis is the first one and its
    # wrapped repeat at the far edge, whose rounded phase lands closer
    axis = periodic.index(False)
    c, s = math.cos(-0.02), math.sin(-0.02)
    mode = [0, 0]
    mode[axis] = 31
    terms = [(tuple(mode), c, s)]
    for side in (1, -1):
        mode[1 - axis] = side
        # (1 + 0.3 cos y) cos(31 x + 0.02) as waves; a wave whose first
        # mode is negative is stored as its conjugate, which negates b
        sign = 1 if mode[0] > 0 else -1
        terms.append((tuple(sign * m for m in mode), 0.15 * c, sign * 0.15 * s))
    box = [(0.0, 2.0), (0.0, 2.0)]
    box[axis] = (-3.0, -2.0)
    values = np.abs(_peak_matches_dense(box, periodic, terms))
    where = np.unravel_index(np.argmax(values), values.shape)
    assert where[axis] == 63
    first = list(where)
    first[axis] = 0
    assert values[tuple(first)] < values[where]


def test_peak_search_between_two_rows_within_1e_10():
    # row x = 0 is c_A cos(y - pi/64), row x = pi is cos y: the first has
    # the larger bound, yet its samples straddle its crest and reach only
    # 1 - 5e-11, so the peak of the second row decides
    p = 1.0 - 5e-11
    q = p * math.tan(math.pi / 64)
    # ((1 + cos x) (p cos y + q sin y) + (1 - cos x) cos y) / 2
    values = _peak_matches_dense(
        [(0.0, 2.0 * math.pi)] * 2, (True, True),
        [((0, 1), (p + 1.0) / 2.0, q / 2.0),
         ((1, 1), (p - 1.0) / 4.0, q / 4.0),
         ((1, -1), (p - 1.0) / 4.0, -q / 4.0)])
    rows = np.abs(values).max(axis=1)
    assert np.argmax(rows) == 32
    assert rows[32] * (1.0 - 1e-10) < rows[0] < rows[32]


def test_height_build_memory_at_n4():
    # the row search holds 64**3 (2 max_mode + 1) complex numbers at n = 4
    # (12 MiB); a whole 64**4 located field would take 384 MiB
    box = [(0.0, 2.0 * math.pi)] * 4
    tracemalloc.start()
    try:
        random_height_function(box, (True,) * 4, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
