"""The four benchmark workloads: inputs, the timed call, and output checks.

Every workload turns ``(seed, slot, slots)`` into an endless stream of item
inputs, runs one item through warpcurv's public API (or ``cli.main``), and
checks the outputs after the clock has stopped:

* ``verdicts`` (verdict strings, statuses, exit codes, booleans) must equal
  the reference stored in ``reference.json`` exactly;
* ``residuals`` (residual maxima and reported values) must be finite and
  within the drift rule of :func:`drift_problems`.

The grid workloads draw their items from fixed pools, so every item has a
stored reference; the seed picks the order in which a run visits the pool.
``algebra`` draws fresh matrices from the seed and checks a rule instead,
since every symmetric matrix must pass the same identities.

Why these workloads: ``algebra`` is the only one on symfun's per-matrix
(Jacobi) path and never touches a grid; ``audit-battery`` is many small
grids where geometry building dominates; ``identity-grid`` is one large
grid per item where the operator identities dominate; ``cli-battery`` is
the user-facing path and the only one reaching comparison and the CLI's
serialization.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
from pathlib import Path

import numpy as np

from warpcurv import cli, hypersurface, operators, scenarios, symfun

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Drift rule for residual maxima, calibrated by scaling every height field
# by (1 + 4e-16), i.e. moving it by about one ulp, on every pool item of
# the three pooled workloads: values above the floor moved by at most
# 2.8e-9 relative, values at the rounding floor stayed below 1e-14, and the
# smallest value above the floor was 1.9e-7.  Verdicts did not change.
DRIFT_REL = 1e-6
DRIFT_FLOOR = 1e-10

# Gate of the identity-grid statuses; every pool residual sits well below.
IDENTITY_TOL = 1e-2


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def flatten_residuals(residuals):
    return {f"{label}/{key}": float(value)
            for label, values in residuals.items()
            for key, value in values.items()}


def drift_problems(got, ref):
    """Residual values that are non-finite or moved beyond the drift rule.

    ``got`` and ``ref`` map labels to {key: value}.  A value passes when
    both it and its reference sit at or below ``DRIFT_FLOOR`` (rounding
    level, where relative changes mean nothing), or when it is within
    ``DRIFT_REL`` relative of the reference.
    """
    got, ref = flatten_residuals(got), flatten_residuals(ref)
    problems = []
    if sorted(got) != sorted(ref):
        problems.append(f"residual keys differ: {sorted(set(got) ^ set(ref))}")
    for key in sorted(set(got) & set(ref)):
        g, r = got[key], ref[key]
        if not math.isfinite(g):
            problems.append(f"{key} is not finite: {g!r}")
        elif max(abs(g), abs(r)) <= DRIFT_FLOOR:
            continue
        elif abs(g - r) > DRIFT_REL * abs(r):
            problems.append(f"{key} drifted: {g!r} vs reference {r!r}")
    return problems


def compare(record, ref):
    """Problems of one item's record against its stored reference."""
    problems = []
    if record["verdicts"] != ref["verdicts"]:
        problems.append(f"verdicts {record['verdicts']} != reference "
                        f"{ref['verdicts']}")
    problems += drift_problems(record.get("residuals", {}),
                               ref.get("residuals", {}))
    return problems


def _pool_order(size, seed, slot, slots):
    """Cycle through a pool in a seeded order, slot ``slot`` of ``slots``
    starting at its own offset so parallel slots visit different items."""
    order = np.random.default_rng(seed).permutation(size)
    i = slot * size // slots
    while True:
        yield int(order[i % size])
        i += 1


class Workload:
    name = ""
    # spans a traced run of this workload must record
    reaches = ()

    def __init__(self, work_dir, reference=None):
        self.work_dir = Path(work_dir)
        self.reference = reference and reference[self.name]
        self.params = self.pool()
        self.item_stats = {}  # counts of the last checked item, if any
        self.digests = {}    # report-tree digest per pool item, if any

    def pool(self):
        """Parameters of the stored reference items (empty: rule-checked)."""
        return []

    def setup(self):
        pass

    def inputs(self, seed, slot, slots):
        raise NotImplementedError

    def run(self, spec):
        raise NotImplementedError

    def describe(self, spec, out):
        raise NotImplementedError

    def reference_for(self, spec):
        entry = self.reference["pool"][spec]
        if entry["params"] != self.params[spec]:
            raise ValueError(f"{self.name}: reference pool item {spec} was "
                             "made from other parameters")
        return entry

    def check(self, spec, out):
        return compare(self.describe(spec, out), self.reference_for(spec))


class Algebra(Workload):
    """c1 shape: random symmetric matrices, n in [2, 6], a batch per item.

    One matrix takes 0.3 to 8 ms depending on n and on how many Jacobi
    sweeps it needs, so single-matrix latencies cluster and their median
    sits on a gap between clusters: in one set of runs a 15% slower host
    moved that median by 38%.  The median of batches of ``BATCH`` matrices
    moves with the host speed only.
    """

    name = "algebra"
    reaches = ("symfun.jacobi_eigenvalues", "symfun.newton_family")
    BATCH = 8

    def inputs(self, seed, slot, slots):
        rng = np.random.default_rng([seed, slot])
        while True:
            batch = []
            for _ in range(self.BATCH):
                n = int(rng.integers(2, 7))
                M = rng.normal(size=(n, n))
                batch.append(0.5 * (M + M.T))
            yield batch

    def run(self, batch):
        return [(symfun.trace_and_norm_identities(A), symfun.newton_family(A),
                 [symfun.bk_telescope(A, k) for k in range(1, A.shape[0])])
                for A in batch]

    def describe(self, batch, out):
        verdicts = {"identities_pass": True, "telescope_pass": True,
                    "newton_tensors": True}
        for A, (rep, fam, tele) in zip(batch, out):
            n = A.shape[0]
            lam, Q = np.linalg.eigh(A)
            tol = 1e-10 * (1.0 + float(np.max(np.abs(lam)))) ** n
            verdicts["identities_pass"] &= bool(rep["passed"])
            verdicts["telescope_pass"] &= all(t <= tol for t in tele)
            verdicts["newton_tensors"] &= len(fam.P) == n and all(
                np.max(np.abs(got - want)) <= tol
                for got, want in zip(fam.P, spectral_newton(lam, Q)))
        return {"verdicts": verdicts}

    def reference_for(self, spec):
        return self.reference["rule"]


def spectral_newton(lam, Q):
    """P_0..P_{n-1} in spectral form: P_k = Q diag(e_k(lam without lam_i)) Q^T."""
    n = lam.size
    # row i: monic coefficients of prod_{j != i} (x - lam_j), (-1)^k e_k
    coeffs = np.array([np.poly(np.delete(lam, i)) for i in range(n)])
    signs = (-1.0) ** np.arange(n)
    return [(Q * (signs[k] * coeffs[:, k])) @ Q.T for k in range(n)]


class AuditBattery(Workload):
    """c7 shape: a compact random graph (n=3, exp, flat torus, 12^3) per
    item, through the curvature estimates of orders 1-3, the sign
    dichotomy and one rigidity audit."""

    name = "audit-battery"
    reaches = ("hypersurface.height_build", "hypersurface.evaluate_geometry",
               "scenarios.curvature_estimate_scenario",
               "scenarios.elliptic_point_and_signs", "scenarios.theorem_audit",
               "ambient.profile_summary", "ambient.warping_eval",
               "symfun.batch")

    def pool(self):
        amplitudes = np.random.default_rng(2026).uniform(0.05, 0.3, size=100)
        return [{"seed": s, "amplitude": float(a)}
                for s, a in enumerate(amplitudes)]

    def setup(self):
        self.W = cli.build_ambient({"profile": "exp", "chart": "flat-torus",
                                    "n": 3})

    def inputs(self, seed, slot, slots):
        return _pool_order(len(self.params), seed, slot, slots)

    def run(self, spec):
        params = self.params[spec]
        W = self.W
        imm = cli.build_immersion(
            W, {"family": "random", "t_center": 0.0,
                "amplitude": params["amplitude"], "resolution": 12},
            np.random.default_rng(params["seed"]))
        reports = [scenarios.curvature_estimate_scenario(imm, W, order)
                   for order in (1, 2, 3)]
        reports.append(scenarios.elliptic_point_and_signs(imm))
        reports.append(scenarios.theorem_audit(imm, W, "compact-constant-hk",
                                               k=3))
        return reports

    def describe(self, spec, reports):
        return {"verdicts": [r.verdict for r in reports],
                "residuals": {f"{i}:{r.scenario_id}": dict(r.residuals)
                              for i, r in enumerate(reports)}}


class IdentityGrid(Workload):
    """One random graph (n=3, cosh, flat torus, 24^3) per item: one
    geometry, then the full verify operation set on it."""

    name = "identity-grid"
    reaches = ("hypersurface.height_build", "hypersurface.evaluate_geometry",
               "hypersurface.structure_identities", "operators.div_pk",
               "operators.height_sigma_identities",
               "operators.theta_hat_identity", "operators.calligraphic_ops",
               "operators.frak_phi", "ambient.curvature_tensor_components",
               "symfun.batch")

    def pool(self):
        amplitudes = np.random.default_rng(2411).uniform(0.05, 0.3, size=24)
        return [{"seed": 100 + s, "amplitude": float(a)}
                for s, a in enumerate(amplitudes)]

    def setup(self):
        self.W = cli.build_ambient({"profile": "cosh", "chart": "flat-torus",
                                    "n": 3})
        self.cfg = hypersurface.DiscretizationConfig()

    def inputs(self, seed, slot, slots):
        return _pool_order(len(self.params), seed, slot, slots)

    def run(self, spec):
        params = self.params[spec]
        cfg = self.cfg
        imm = cli.build_immersion(
            self.W, {"family": "random", "t_center": 0.7,
                     "amplitude": params["amplitude"], "resolution": 24},
            np.random.default_rng(params["seed"]))
        geom = hypersurface.evaluate_geometry(imm, cfg)
        out = {"structure": {key: val["max"] for key, val in
                             hypersurface.structure_identities(geom).items()}}
        hs = operators.height_sigma_identities(imm, 1, cfg, geom=geom)
        out["height-sigma-1"] = {key: val.max for key, val in hs.items()}
        for k in (1, 2):
            dp = operators.div_pk(imm, k, cfg, geom=geom)
            out[f"div-newton-{k}"] = {
                key: dp[key].max
                for key in ("residual_ab", "residual_ac", "residual_bc")}
        th = operators.theta_hat_identity(imm, 1, cfg, geom=geom)
        out["theta-hat-1"] = {
            key: th[key].max for key in ("gradient", "operator", "beta_routes",
                                         "general_vs_constant")}
        cal = operators.calligraphic_ops(imm, 3, cfg, geom=geom)
        out["calligraphic-3"] = {
            "sigma_identity_algebraic": cal["sigma_identity_algebraic"].max,
            "sigma_identity": cal["sigma_identity"].max}
        frak = operators.frak_phi(imm, 1, cfg, geom=geom)
        if frak.get("applicable"):
            out["frak-phi-1"] = {"four-term": frak["residual"].max}
        return out, cal["implication_respected"]

    def describe(self, spec, out):
        residuals, implication = out
        statuses = {}
        for label, values in residuals.items():
            ok = all(math.isfinite(v) and v <= IDENTITY_TOL
                     for v in values.values())
            statuses[label] = "pass" if ok else "fail"
        statuses["calligraphic-3"] = (
            "pass" if statuses["calligraphic-3"] == "pass" and implication
            else "fail")
        statuses.setdefault("frak-phi-1", "not-applicable")
        return {"verdicts": statuses,
                "residuals": {label: {k: float(v) for k, v in vals.items()}
                              for label, vals in residuals.items()}}


SUBCOMMANDS = ("verify", "scenario", "probe", "comparison")


class CliBattery(Workload):
    """c8 shape: one battery of the four subcommands through ``cli.main``
    per item, each into a fresh report tree.  Two batteries of the same
    configs within a run must write byte-identical trees."""

    name = "cli-battery"
    reaches = ("cli.main", "cli.write", "comparison.solve_comparison",
               "comparison.omori_yau_probe",
               "comparison.hessian_comparison_check",
               "hypersurface.evaluate_geometry")

    def pool(self):
        pool = []
        for v in range(12):
            pool.append({
                "verify": {
                    "ambient": {"profile": "cosh", "chart": "flat-torus",
                                "n": 2},
                    "immersion": {"family": "random", "t_center": 0.7,
                                  "amplitude": 0.1, "resolution": 24},
                    "seed": 17 + v,
                    "operations": [{"op": "structure", "tol": 1e-3},
                                   {"op": "height-sigma", "k": 1, "tol": 1e-2},
                                   {"op": "div-newton", "k": 1, "tol": 1e-1}]},
                "scenario": {
                    "ambient": {"profile": "cosh", "chart": "flat-torus",
                                "n": 2},
                    "immersion": {"family": "slice", "t": 0.5 + 0.1 * (v % 4),
                                  "resolution": 20},
                    "seed": 17 + v,
                    "operations": [
                        {"op": "theorem-audit", "id": "compact-constant-h2"},
                        {"op": "curvature-estimate", "order": 2},
                        {"op": "elliptic-signs"},
                        {"op": "parabolicity", "model": "flat", "H": 1.0,
                         "k": 1}]},
                "probe": {"model": "hyperbolic", "height": {"family": "tanh"},
                          "jmax": 20, "seed": 17 + v},
                "comparison": {"growth": ("quadratic", "one")[v % 2],
                               "T": 6.0 - (v % 3) * 0.5,
                               "model": "hyperbolic", "seed": 17 + v},
            })
        return pool

    def setup(self):
        config_dir = self.work_dir / "configs"
        self.config_paths = []
        for v, battery in enumerate(self.params):
            paths = {}
            for sub in SUBCOMMANDS:
                path = config_dir / f"{v:02d}-{sub}.json"
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(json.dumps(battery[sub]))
                paths[sub] = str(path)
            self.config_paths.append(paths)

    def inputs(self, seed, slot, slots):
        order = _pool_order(len(self.params), seed, slot, slots)
        for i, v in enumerate(order):
            yield v, self.work_dir / f"tree-{i:05d}"

    def run(self, spec):
        v, tree = spec
        return {sub: cli.main([sub, "--config", self.config_paths[v][sub],
                               "--out", str(tree / sub)])
                for sub in SUBCOMMANDS}

    def describe(self, spec, out):
        v, tree = spec
        statuses, residuals = {}, {}
        for sub in SUBCOMMANDS:
            summary = json.loads((tree / sub / f"{sub}-summary.json")
                                 .read_text())
            statuses[sub] = [op["status"] for op in summary["operations"]]
        for path in sorted((tree / "verify").glob("verify-*.json")):
            entry = json.loads(path.read_text())
            if "residuals" in entry:
                residuals[path.stem] = entry["residuals"]
        return {"verdicts": {"exits": out, "statuses": statuses},
                "residuals": residuals}

    def check(self, spec, out):
        v, tree = spec
        try:
            files = {}
            for dirpath, _, names in os.walk(tree):
                for name in names:
                    full = Path(dirpath) / name
                    files[str(full.relative_to(tree))] = full.read_bytes()
            digest = hashlib.sha256()
            for name in sorted(files):
                digest.update(name.encode() + b"\0" + files[name] + b"\0")
            first = self.digests.setdefault(v, digest.hexdigest())
            problems = [] if first == digest.hexdigest() else [
                f"battery {v}: report tree differs from its earlier run"]
            self.item_stats = {
                "cli.report_bytes": float(sum(len(b) for b in files.values()))}
            return problems + compare(self.describe(spec, out),
                                      self.reference_for(v))
        finally:
            shutil.rmtree(tree, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Algebra, AuditBattery, IdentityGrid,
                                 CliBattery)}
