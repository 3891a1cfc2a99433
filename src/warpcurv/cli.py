"""Batch interface: JSON configs in, machine-readable reports out.

Four subcommands map onto the compute modules:

* ``verify``      identity suites on a configured graph immersion
* ``scenario``    rigidity-statement audits and the parabolicity criterion
* ``probe``       the penalized-maximizer sequence on a radial model
* ``comparison``  the growth-comparison ODE suite

Every number written to a report is copied from a module output; the CLI
itself only builds inputs, dispatches, gates against tolerances, and
serializes.  Reports are strict JSON with sorted keys and round-trip float
formatting (non-finite numbers are written as the strings ``"nan"``,
``"inf"`` and ``"-inf"``), plus tab-separated tables for plotting, so a
rerun with the same config and seed is byte-identical.

Exit codes: 0 success (also when every operation was not-applicable, with
a flag in the summary), 1 violation (a gated residual, trend, or verdict
failed), 2 configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import sys
from types import SimpleNamespace

import numpy as np

from . import operators, scenarios
from ._grid import masked_max
from .ambient import PROFILES, FiberSpec, WarpedProduct, builtin_profile
from .comparison import (
    GROWTH_FUNCTIONS,
    MODELS,
    builtin_growth,
    builtin_model,
    check_growth_conditions,
    hessian_comparison_check,
    omori_yau_probe,
    solve_comparison,
)
from .hypersurface import (
    DiscretizationConfig,
    GraphImmersion,
    evaluate_geometry,
    extrinsic_gamma_probe,
    random_height_function,
    require_audited_node,
    sectional_bound_report,
    structure_identities,
)

ENV_OUT = "WARPCURV_OUT"
EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_NA = "not-applicable"
STATUS_HYPOTHESIS = "hypothesis-violated"


class ConfigError(ValueError):
    """Raised for unreadable, unparseable, or out-of-registry configs."""


@contextlib.contextmanager
def _config_inputs():
    """Report a ValueError or TypeError raised while building inputs from
    the config as a config error."""
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _jsonable(obj):
    """Plain-type view of module outputs (grids summarized, not dumped)."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        # strict JSON has no NaN or Infinity: write their repr as a string
        obj = float(obj)
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, np.ndarray):
        if obj.size > 64:
            return _jsonable({"shape": list(obj.shape),
                              "max_abs": np.max(np.abs(obj))})
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def write_json(path: str, obj) -> None:
    text = json.dumps(_jsonable(obj), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def write_table(path: str, header: list, columns: list) -> None:
    """Tab-separated table with one sequence per column.  ``tolist``
    turns each column into Python numbers, whose ``str`` is their
    ``repr``: a float is written with every digit it needs."""
    rows = zip(*(np.asarray(col).tolist() for col in columns))
    lines = ["\t".join(header)] + ["\t".join(map(str, row)) for row in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# config loading and input builders
# ---------------------------------------------------------------------------

def _refuse_constant(token):
    raise ConfigError(f"config holds the non-JSON constant {token}")


def load_config(path: str) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            cfg = json.load(fh, parse_constant=_refuse_constant)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("top-level config must be a JSON object")
    return cfg


def _integer(section: dict, key: str, default: int) -> int:
    """``section[key]`` (``default`` when absent) as an int; a value the
    conversion would change, such as 1.9 or "3", is refused, and so is a
    boolean, although ``True == 1``."""
    value = section.get(key, default)
    try:
        converted = int(value)
    except (ValueError, TypeError, OverflowError):
        converted = None
    if converted is None or converted != value or isinstance(value, bool):
        raise ConfigError(f"{key}={value!r} is not an integer")
    return converted


def _float(value, name: str, positive: bool = False) -> float:
    """``value`` as a finite float, and a positive one with ``positive``;
    a string or a boolean is refused, although ``True == 1``."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and abs(value) <= sys.float_info.max
            and (value > 0 or not positive)):
        raise ConfigError(f"{name}={value!r} is not a "
                          f"{'positive ' if positive else ''}finite number")
    return float(value)


def _tolerance(value, name: str) -> float:
    """A residual tolerance: a finite number, at least 0.  No residual
    passes a negative one, so it is bad input, not a falsification."""
    tol = _float(value, name)
    if tol < 0.0:
        raise ConfigError(f"{name}={value!r} is negative; a tolerance is "
                          f"at least 0")
    return tol


def _registry_miss(kind: str, name, registry) -> ConfigError:
    return ConfigError(
        f"unknown {kind} {name!r}; registry: {', '.join(sorted(registry))}")


def _per_axis(values, n: int, key: str) -> list:
    """``values``, refused unless it is a list of one entry per fiber axis."""
    if not isinstance(values, list) or len(values) != n:
        raise ConfigError(f"{key} must be a list of {n} entries, one per "
                          f"fiber axis")
    return values


def _refuse_unknown(kind: str, section: dict, accepted) -> None:
    """Refuse the keys of ``section`` that are not in ``accepted``, so a
    typo never runs with a default."""
    unknown = sorted(set(section) - set(accepted))
    if unknown:
        raise ConfigError(f"unknown {kind} key(s) {', '.join(unknown)}"
                          f"; accepted: {', '.join(accepted)}")


def build_ambient(section: dict) -> WarpedProduct:
    if not isinstance(section, dict):
        raise ConfigError("'ambient' must be an object")
    _refuse_unknown("ambient", section,
                    ("profile", "chart", "n", "kappa", "lengths"))
    name = section.get("profile", "exp")
    if not isinstance(name, str):
        raise ConfigError(f"ambient.profile must be a registered name "
                          f"({', '.join(sorted(PROFILES))}); each profile's "
                          f"interval and base point are fixed")
    if name not in PROFILES:
        raise _registry_miss("profile", name, PROFILES)

    chart = section.get("chart", "flat-torus")
    n = _integer(section, "n", 2)
    kappa = _float(section.get("kappa", 0.0), "kappa")
    lengths = section.get("lengths")
    fiber = FiberSpec(n=n, kappa=kappa, chart=chart,
                      lengths=None if lengths is None else
                      tuple(_float(v, "lengths") for v in lengths))
    return WarpedProduct(profile=builtin_profile(name), fiber=fiber)


# family -> the keys it reads besides the shared ones
_IMMERSION_KEYS = {"slice": ("t",),
                   "random": ("t_center", "amplitude", "max_mode"),
                   "bump": ("t_center", "amplitude", "width", "center")}


def build_immersion(W: WarpedProduct, section: dict,
                    rng: np.random.Generator) -> GraphImmersion:
    if not isinstance(section, dict):
        raise ConfigError("'immersion' must be an object")
    family = section.get("family", "slice")
    if not isinstance(family, str) or family not in _IMMERSION_KEYS:
        raise _registry_miss("immersion family", family, _IMMERSION_KEYS)
    _refuse_unknown("immersion", section, ("family", "resolution",
                                           "orientation", "box")
                    + _IMMERSION_KEYS[family])
    res = _integer(section, "resolution", 48)
    orientation = _integer(section, "orientation", 1)
    n = W.fiber.n
    box = section.get("box")
    if box is not None:
        box = tuple((_float(lo, "box"), _float(hi, "box"))
                    for lo, hi in _per_axis(box, n, "box"))

    if family == "slice":
        t = _float(section.get("t", W.profile.t0), "t")
        return GraphImmersion.from_function(W, lambda mesh: t + 0.0 * mesh[..., 0],
                                            res, box=box,
                                            orientation=orientation)
    if box is None:
        box = tuple(tuple(b) for b in W.fiber.default_box())
    t_center = _float(section.get("t_center", W.profile.t0), "t_center")
    amplitude = _float(section.get("amplitude", 0.2), "amplitude")
    if family == "random":
        max_mode = _integer(section, "max_mode", 1)
        dev = random_height_function(box, W.fiber.periodic, rng,
                                     amplitude=amplitude, max_mode=max_mode)
        return GraphImmersion.from_function(
            W, lambda mesh: t_center + dev(mesh), res, box=box,
            orientation=orientation)
    # family == "bump"
    width = _float(section.get("width", 0.15), "width", positive=True)
    if 2.0 * width * width < sys.float_info.min:
        raise ConfigError(f"width={width!r} is too small: 2 width^2 "
                          f"underflows the float range")
    center = section.get("center")
    if center is None:
        center = [0.5 * (lo + hi) for lo, hi in box]
    center = [_float(c, "center") for c in _per_axis(center, n, "center")]

    def bump(mesh):
        r2 = sum((mesh[..., i] - center[i]) ** 2 for i in range(n))
        return t_center + amplitude * np.exp(-r2 / (2.0 * width * width))

    return GraphImmersion.from_function(W, bump, res, box=box,
                                        orientation=orientation)


def _audited_immersion(config, W, cfg, seed) -> GraphImmersion:
    """The configured immersion, refused if the audit margin covers it or
    its geometry cannot be evaluated (say, its stencils overflow).  The
    geometry is memoized on the immersion for the operations."""
    imm = build_immersion(W, config.get("immersion", {}),
                          np.random.default_rng(seed))
    require_audited_node(imm, cfg)
    evaluate_geometry(imm, cfg)
    return imm


def build_discretization(config: dict, args) -> DiscretizationConfig:
    section = config.get("discretization", {})
    if not isinstance(section, dict):
        raise ConfigError("'discretization' must be an object")
    fields = dataclasses.fields(DiscretizationConfig)
    _refuse_unknown("discretization", section, [f.name for f in fields])
    kwargs = {f.name: _integer(section, f.name, None)
              for f in fields if f.name in section}
    if args.refine is not None:
        kwargs["refine_levels"] = args.refine
    return DiscretizationConfig(**kwargs)


def _build_model(spec, **params):
    """A radial model from a registry name, or an object with a 'name' and
    the model's parameters."""
    if isinstance(spec, dict):
        _refuse_unknown("model", spec, ("name", "m", "R"))
        params = {**spec, **params}
        spec = params.pop("name", None)
    if not isinstance(spec, str) or spec not in MODELS:
        raise _registry_miss("radial model", spec, MODELS)
    if "m" in params:
        params["m"] = _integer(params, "m", None)
    if "R" in params:
        params["R"] = _float(params["R"], "R")
    return builtin_model(spec, **params)


# ---------------------------------------------------------------------------
# operations shared by verify and scenario
# ---------------------------------------------------------------------------

def _index(op: dict, key: str = "k") -> int:
    return _integer(op, key, 1)


def _index_range(lo: int, below_n: int, key: str = "k"):
    """Check that ``op[key]`` lies in [lo, n - below_n], the range its
    operator enforces."""
    def check(op, fiber):
        value, hi = _index(op, key), fiber.n - below_n
        if not lo <= value <= hi:
            raise ConfigError(
                f"{op['op']}: {key}={value} outside [{lo}, {hi}]")
    return check


_TENSOR_K = _index_range(0, 1)      # Newton tensor index, P_0..P_{n-1}
_DIVERGENCE_K = _index_range(1, 1)  # div P_0 vanishes identically
_CURVATURE_K = _index_range(1, 0)   # curvature order, H_1..H_n
_CALLIGRAPHIC_K = _index_range(2, 0)


def _holds(flag) -> str:
    return STATUS_PASS if flag else STATUS_FAIL


def _gate(residuals: dict, tol: float) -> str:
    """Pass only when every residual is finite and at most ``tol``."""
    return _holds(all(math.isfinite(r) and r <= tol
                      for r in residuals.values()))


# keys of an operation entry besides "op" and those its table row names:
# every verify entry reports its k and tol
_SHARED_OP_KEYS = {"verify": ("k", "tol"), "scenario": ()}


def _operations(subcommand: str, config: dict, table: dict, fiber) -> list:
    """The configured operations, each checked against ``table`` for the
    ambient's ``fiber``."""
    ops = config.get("operations")
    if not isinstance(ops, list) or not ops:
        raise ConfigError("'operations' must be a non-empty list")
    for i, op in enumerate(ops):
        if not isinstance(op, dict) or "op" not in op:
            raise ConfigError(f"operation {i} must be an object with 'op'")
        if op["op"] not in table:
            raise _registry_miss(f"{subcommand} operation", op["op"], table)
        _, check, keys = table[op["op"]]
        _refuse_unknown(f"{op['op']} operation", op,
                        ("op",) + _SHARED_OP_KEYS[subcommand] + keys)
        if check is not None:
            check(op, fiber)
    return ops


def _run_operations(subcommand: str, ops: list, entries: list, table: dict,
                    run, out_dir: str) -> list:
    """Run each operation into its entry and write the entry's report.

    An operation that declines reports not-applicable with its reason; an
    entry whose runner set no status is gated on its residuals.
    """
    for i, (op, entry) in enumerate(zip(ops, entries)):
        stem = os.path.join(out_dir, f"{subcommand}-{i:02d}-{op['op']}")
        try:
            entry.update(table[op["op"]][0](run, op, stem))
        except operators.NotApplicableError as exc:
            entry.update(status=STATUS_NA, reason=str(exc))
        if "status" not in entry:
            entry["status"] = _gate(entry["residuals"], entry["tol"])
        write_json(stem + ".json", entry)
    return entries


# ---------------------------------------------------------------------------
# verify subcommand
# ---------------------------------------------------------------------------

# Each identity suite is a function of (geometry, k) that returns its
# residuals by key, as IdentityResidual, and the entry's other fields, and
# raises NotApplicableError where it declines.  It looks its module
# function up at call time, so a replaced attribute (a tracer, a test stub)
# is the one that runs.

def _structure(geom, k):
    return {key: operators.IdentityResidual(**rec)
            for key, rec in structure_identities(geom).items()}, {}


def _residual_suite(name):
    """The suite ``operators.<name>``, whose output is all residuals."""
    def suite(geom, k):
        return getattr(operators, name)(geom.imm, k, geom=geom), {}
    return suite


def _calligraphic(geom, k):
    out = operators.calligraphic_ops(geom.imm, k, geom=geom)
    fields = {"min_eigenvalue": out["min_eigenvalue"],
              "implication_respected": out["implication_respected"]}
    if not out["implication_respected"]:
        fields["status"] = STATUS_FAIL
    return {key: out[key] for key in ("sigma_identity_algebraic",
                                      "sigma_identity")}, fields


def _frak_phi(geom, k):
    out = operators.frak_phi(geom.imm, k, geom=geom)
    if not out.get("applicable"):
        raise operators.NotApplicableError(
            f"order-{k} curvature not positive (min {out['min_Hk']:.3e})")
    return {"four-term": out["residual"]}, {"term_minima": out["term_minima"]}


# verify op -> (suite, check of k, convergence identity -> the residual key
# it studies under refinement)
_SUITES = {
    "structure": (_structure, None, {"height-hessian": "height-hessian",
                                     "sigma-hessian": "sigma-hessian"}),
    "height-sigma": (_residual_suite("height_sigma_identities"), _TENSOR_K,
                     {"height": "height", "sigma": "sigma"}),
    "div-newton": (_residual_suite("div_pk"), _DIVERGENCE_K,
                   {"div-newton": "residual_ab"}),
    "theta-hat": (_residual_suite("theta_hat_identity"), _TENSOR_K,
                  {"theta-hat": "operator"}),
    "calligraphic": (_calligraphic, _CALLIGRAPHIC_K,
                     {"calligraphic": "sigma_identity"}),
    "frak-phi": (_frak_phi, _CURVATURE_K, {"frak-phi": "four-term"}),
}

# convergence identity -> (suite, check of k, residual key)
_CONVERGENCE = {identity: (suite, check, key)
                for suite, check, identities in _SUITES.values()
                for identity, key in identities.items()}


def _suite_entry(suite):
    """Verify runner of ``suite``: its other fields and the maximum of each
    residual."""
    def run_suite(run, op, stem):
        residuals, fields = suite(run.geom, _index(op))
        return dict(fields, residuals={key: r.max
                                       for key, r in residuals.items()})
    return run_suite


def _laplacian_cross_check(run, op, stem):
    geom = run.geom
    lk0 = operators.lk_apply(geom, 0, geom.sigma)
    lb = operators.laplace_beltrami(geom, geom.sigma)
    return {"residuals": {"trace-vs-divergence":
                          masked_max(lk0 - lb, geom.interior)}}


def _check_origin(op, fiber):
    origin = op.get("origin", [0.0] * fiber.n)
    for v in _per_axis(origin, fiber.n, "gamma-probe: origin"):
        _float(v, "origin")
    fiber.check_points(origin, "gamma-probe origin")


def _gamma_probe(run, op, stem):
    origin = op.get("origin")
    if origin is None:
        origin = [float(ax[0]) for ax in run.imm.axes()]
    out = extrinsic_gamma_probe(run.geom, tuple(float(v) for v in origin))
    fields = {"gradient_bound_holds": out["gradient_bound_holds"],
              "residuals": {"hessian": out["hessian_max"]},
              "min_margin": out["min_margin"]}
    if not out["gradient_bound_holds"]:
        fields["status"] = STATUS_FAIL
    return fields


def _check_frame_pair(op, fiber):
    if fiber.n < 2:
        raise ConfigError(f"{op['op']}: n={fiber.n} has no frame pair")


def _sectional_bound(run, op, stem):
    out = sectional_bound_report(run.geom)
    return {"sectional_min": out["sectional_min"],
            "ambient_min": out["ambient_min"],
            "status": _holds(out["chain_holds"] and out["fiber_bound_holds"])}


def _check_convergence(op, fiber):
    identity = op.get("identity", "height")
    if identity not in _CONVERGENCE:
        raise _registry_miss("convergence identity", identity, _CONVERGENCE)
    check = _CONVERGENCE[identity][1]
    if check is not None:
        check(op, fiber)


def _convergence(run, op, stem):
    identity, k = op.get("identity", "height"), _index(op)
    suite, _, key = _CONVERGENCE[identity]
    study = operators.convergence_study(
        run.imm, run.cfg,
        lambda geom: {identity: suite(geom, k)[0][key].grid})[identity]
    write_table(stem + ".tsv", ["spacing", "max_residual"],
                [study["spacings"], study["maxima"]])
    fields = dict(study, identity=identity)
    if study["slope"] is None:
        return dict(fields, status=STATUS_PASS,
                    note="all levels at rounding floor")
    return dict(fields, status=_holds(study["slope"] >= run.min_slope))


# name -> (runner, check, keys).  runner(run inputs, op config, report path
# stem) returns the entry's fields; check(op, fiber), if any, rejects bad
# parameters before any work; keys are the entry keys the operation reads
# besides the shared ones.
VERIFY_OPS = {
    **{name: (_suite_entry(suite), check, ())
       for name, (suite, check, _) in _SUITES.items()},
    "laplacian-cross-check": (_laplacian_cross_check, None, ()),
    "gamma-probe": (_gamma_probe, _check_origin, ("origin",)),
    "sectional-bound": (_sectional_bound, _check_frame_pair, ()),
    "convergence": (_convergence, _check_convergence, ("identity",)),
}


def run_verify(config: dict, args, out_dir: str) -> int:
    with _config_inputs():
        cfg = build_discretization(config, args)
        W = build_ambient(config.get("ambient", {}))
        ops = _operations("verify", config, VERIFY_OPS, W.fiber)
        entries = [{"op": op["op"], "k": _index(op),
                    "tol": _tolerance(op.get("tol", args.tol), "tol")}
                   for op in ops]
        min_slope = _float(config.get("min_slope", 1.9), "min_slope")
        imm = _audited_immersion(config, W, cfg, args.seed)
    run = SimpleNamespace(imm=imm, geom=evaluate_geometry(imm, cfg), cfg=cfg,
                          min_slope=min_slope)
    results = _run_operations("verify", ops, entries, VERIFY_OPS, run, out_dir)
    return _summarize("verify", config, args.seed, results, out_dir)


# ---------------------------------------------------------------------------
# scenario subcommand
# ---------------------------------------------------------------------------

_VERDICT_STATUS = {scenarios.VERDICT_CONSISTENT: STATUS_PASS,
                   scenarios.VERDICT_HYPOTHESIS: STATUS_HYPOTHESIS}


def _audit_entry(rep) -> dict:
    return {"report": rep,
            "status": _VERDICT_STATUS.get(rep.verdict, STATUS_FAIL)}


def _audit_k(op):
    """The configured curvature order of an audit; None selects the
    statement's own."""
    return None if op.get("k") is None else _integer(op, "k", None)


def _check_theorem(op, fiber):
    theorem_id = op.get("id")
    if theorem_id not in scenarios.THEOREM_IDS:
        raise _registry_miss("theorem id", theorem_id, scenarios.THEOREM_IDS)
    scenarios.audit_order(theorem_id, fiber.n, _audit_k(op))


def _theorem_audit(run, op, stem):
    return _audit_entry(scenarios.theorem_audit(
        run.imm, run.W, op["id"], k=_audit_k(op), cfg=run.cfg, tol=run.tol))


def _curvature_estimate(run, op, stem):
    return _audit_entry(scenarios.curvature_estimate_scenario(
        run.imm, run.W, _index(op, "order"), cfg=run.cfg, tol=run.tol))


def _elliptic_signs(run, op, stem):
    return _audit_entry(scenarios.elliptic_point_and_signs(
        run.imm, cfg=run.cfg, tol=run.tol))


def _parabolicity_inputs(op):
    """The radial model, refused where its unit-sphere area overflows, and
    the checked ``H``, ``k`` and ``t_max`` of a parabolicity operation."""
    model = _build_model(op.get("model", "flat"),
                         **{key: op[key] for key in ("m", "R") if key in op})
    scenarios.sphere_area_constant(model.m)
    k = _integer(op, "k", 2)
    if k < 1:
        raise ConfigError(f"parabolicity: k={k} must be at least 1")
    H = _float(op.get("H", 1.0), "parabolicity: H", positive=True)
    t_max = op.get("t_max")
    return model, H, k, (None if t_max is None else
                         _float(t_max, "parabolicity: t_max", positive=True))


def _parabolicity(run, op, stem):
    model, H, k, t_max = _parabolicity_inputs(op)
    with _config_inputs():   # its ValueErrors all reject the op's inputs
        rep = scenarios.parabolicity_integral(model, H, k, t_max=t_max)
    write_table(stem + ".tsv", ["t", "integrand"],
                [rep["ts"], rep["integrand"]])
    return {"report": {key: val for key, val in rep.items()
                       if key not in ("ts", "integrand")},
            "status": STATUS_PASS}


SCENARIO_OPS = {
    "theorem-audit": (_theorem_audit, _check_theorem, ("id", "k")),
    "curvature-estimate": (_curvature_estimate,
                           _index_range(1, 0, key="order"), ("order",)),
    "elliptic-signs": (_elliptic_signs, None, ()),
    "parabolicity": (_parabolicity,
                     lambda op, fiber: _parabolicity_inputs(op),
                     ("model", "m", "R", "k", "H", "t_max")),
}


def run_scenario(config: dict, args, out_dir: str) -> int:
    with _config_inputs():
        cfg = build_discretization(config, args)
        W = build_ambient(config.get("ambient", {}))
        ops = _operations("scenario", config, SCENARIO_OPS, W.fiber)
        imm = (_audited_immersion(config, W, cfg, args.seed)
               if any(op["op"] != "parabolicity" for op in ops) else None)
    run = SimpleNamespace(imm=imm, W=W, cfg=cfg, tol=args.tol)
    entries = [{"op": op["op"]} for op in ops]
    results = _run_operations("scenario", ops, entries, SCENARIO_OPS, run,
                              out_dir)
    return _summarize("scenario", config, args.seed, results, out_dir)


# ---------------------------------------------------------------------------
# probe subcommand
# ---------------------------------------------------------------------------

# height family -> the keys it reads besides "family"
_HEIGHT_KEYS = {"tanh": ("scale",),
                "gaussian-bump": ("center", "width", "amplitude"),
                "negative-square": ()}


def _height_function(section: dict):
    if not isinstance(section, dict):
        raise ConfigError("'height' must be an object")
    family = section.get("family", "tanh")
    if not isinstance(family, str) or family not in _HEIGHT_KEYS:
        raise _registry_miss("height family", family, _HEIGHT_KEYS)
    _refuse_unknown("height", section, ("family",) + _HEIGHT_KEYS[family])
    if family == "tanh":
        scale = _float(section.get("scale", 1.0), "scale")

        def tanh(r):
            # tanh(+-inf) = +-1; a float product overflows to inf without
            # a warning, so the probe's scalar points skip the errstate
            if type(r) is float:
                return np.tanh(scale * r)
            with np.errstate(over="ignore"):
                return np.tanh(scale * r)
        return tanh
    if family == "gaussian-bump":
        center = _float(section.get("center", 0.3), "center")
        width = _float(section.get("width", 0.15), "width", positive=True)
        amplitude = _float(section.get("amplitude", 1.0), "amplitude")

        def bump(r):   # np.square, not **: Python's float pow raises
            with np.errstate(over="ignore"):   # exp(-inf) = 0 is the limit
                return amplitude * np.exp(-np.square((r - center) / width))
        return bump

    def negative_square(r):
        # a radius whose square overflows gives -inf, which the probe refuses
        with np.errstate(over="ignore"):
            return -np.asarray(r) ** 2
    return negative_square


def _growth(spec):
    if spec not in GROWTH_FUNCTIONS:
        raise _registry_miss("growth function", spec, GROWTH_FUNCTIONS)
    return builtin_growth(spec)


def run_probe(config: dict, args, out_dir: str) -> int:
    with _config_inputs():
        model = _build_model(config.get("model", "hyperbolic"))
        u = _height_function(config.get("height", {}))
        jmax = _integer(config, "jmax", 20)
        growth_spec = config.get("growth")
        G = None if growth_spec is None else _growth(growth_spec)
        selector = config.get("selector", "laplacian")
        if isinstance(selector, list):
            selector = [_float(v, "selector") for v in selector]
        # the probe's ValueErrors all reject its arguments
        probe = omori_yau_probe(model, u, jmax=jmax, G=G, L=selector)

    entry = {"op": "omori-yau-probe", "model": model.name,
             "dimension": model.m, **dataclasses.asdict(probe)}
    entry["growth"] = entry.pop("growth_name")
    if probe.boundary_flag:
        entry["status"] = STATUS_NA
        entry["reason"] = ("maximizers pinned at the model boundary; the "
                           "sequence is not certifying an interior principle")
    else:
        entry["status"] = _holds(all(
            bool(v) for v in probe.trends.values()
            if isinstance(v, (bool, np.bool_))))

    write_json(os.path.join(out_dir, "probe-00-omori-yau.json"), entry)
    keys = ["j", "radius", "gap", "grad_norm", "Lu"]
    write_table(os.path.join(out_dir, "probe-00-omori-yau.tsv"), keys,
                [[rec[key] for rec in probe.records] for key in keys])
    return _summarize("probe", config, args.seed, [entry], out_dir)


# ---------------------------------------------------------------------------
# comparison subcommand
# ---------------------------------------------------------------------------

def run_comparison(config: dict, args, out_dir: str) -> int:
    with _config_inputs():
        G = _growth(config.get("growth", "one"))
        T = _float(config.get("T", 5.0), "T")
        model = _build_model(config["model"]) if "model" in config else None
        cond = check_growth_conditions(G, T)
        # an ODE the integrator cannot follow rejects the growth function
        sol = solve_comparison(G, T)
        hess = None if model is None else hessian_comparison_check(model, G)
    results = []

    cond_entry = {"op": "growth-conditions", "report": cond,
                  "status": STATUS_PASS}
    results.append(cond_entry)
    write_json(os.path.join(out_dir, "comparison-00-growth-conditions.json"),
               cond_entry)

    dG_abs = np.abs(np.asarray(G.derivative(np.linspace(0.0, T, 256))))
    constant_growth = float(np.max(dG_abs)) <= 1e-12
    gates = {
        "sturm_holds": bool(sol.report["sturm_holds"]),
        # the solution-side Riccati bound is a constant-growth fact (for
        # growing G the quantity drifts below zero by the second-order
        # WKB correction); the general nonnegativity gate is carried by
        # the envelope identity below
        "riccati_nonnegative": (not constant_growth)
        or sol.report["riccati_min"] >= -1e-8,
        "envelope_identity_nonneg": bool(
            sol.report["envelope_identity_nonneg"]),
    }
    ode_entry = {"op": "comparison-solution", "report": sol.report,
                 "gates": gates, "status": _holds(all(gates.values()))}
    results.append(ode_entry)
    write_json(os.path.join(out_dir, "comparison-01-solution.json"), ode_entry)
    write_table(
        os.path.join(out_dir, "comparison-01-solution.tsv"),
        ["t", "phi", "dphi", "psi", "dpsi", "envelope"],
        [sol.ts, sol.phi, sol.dphi, sol.psi, sol.dpsi, sol.envelope])

    if model is not None:
        entry = {"op": "hessian-comparison", "report": hess}
        if not hess.get("applicable", True):
            entry["status"] = STATUS_NA
            entry["reason"] = ("model radial curvature exceeds the growth "
                               "bound near radius "
                               f"{hess['violating_radius']:.4g}")
        else:
            entry["status"] = _holds(hess["slope_comparison_holds"])
        results.append(entry)
        write_json(os.path.join(out_dir, "comparison-02-hessian.json"), entry)

    return _summarize("comparison", config, args.seed, results, out_dir)


# ---------------------------------------------------------------------------
# summary and entry point
# ---------------------------------------------------------------------------

def _summarize(subcommand: str, config: dict, seed: int, results: list,
               out_dir: str) -> int:
    statuses = [r["status"] for r in results]
    failed = [r["op"] for r in results if r["status"] == STATUS_FAIL]
    all_na = bool(results) and all(s == STATUS_NA for s in statuses)
    summary = {
        "subcommand": subcommand,
        "seed": seed,
        "config": config,
        "operations": [{"op": r["op"], "status": r["status"]}
                       for r in results],
        "failed": failed,
        "not_applicable_only": all_na,
        "exit_code": EXIT_VIOLATION if failed else EXIT_OK,
    }
    write_json(os.path.join(out_dir, f"{subcommand}-summary.json"), summary)
    return summary["exit_code"]


def _add_shared_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="path to a JSON config")
    p.add_argument("--out", default=None,
                   help=f"output directory (default ${ENV_OUT} or cwd)")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config seed")
    p.add_argument("--refine", type=int, default=None, metavar="N",
                   help="override the number of refinement levels")
    p.add_argument("--tol", type=float, default=None, metavar="X",
                   help="override the global residual tolerance")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="warpcurv",
        description="Numerical audits of curvature identities and rigidity "
                    "statements on warped-product graphs.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, helptext in (
            ("verify", "run identity suites on a configured immersion"),
            ("scenario", "run rigidity-statement audits"),
            ("probe", "run the penalized-maximizer probe on a radial model"),
            ("comparison", "run the growth-comparison ODE suite")):
        p = sub.add_parser(name, help=helptext)
        _add_shared_flags(p)
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call shares: ``parse_args`` returns a
    fresh namespace and leaves the parser as it was."""
    return build_parser()


# subcommand -> (runner, the top-level keys it reads besides seed and
# tolerance, which main reads for every subcommand)
_RUNNERS = {
    "verify": (run_verify, ("ambient", "immersion", "discretization",
                            "operations", "min_slope")),
    "scenario": (run_scenario, ("ambient", "immersion", "discretization",
                                "operations")),
    "probe": (run_probe, ("model", "height", "jmax", "growth", "selector")),
    "comparison": (run_comparison, ("growth", "T", "model")),
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    out_dir = args.out or os.environ.get(ENV_OUT) or "."
    try:
        os.makedirs(out_dir, exist_ok=True)
        config = load_config(args.config)
        runner, keys = _RUNNERS[args.subcommand]
        _refuse_unknown("top-level", config, ("seed", "tolerance") + keys)
        # a flag overrides the config; every subcommand reads the result
        with _config_inputs():
            if args.seed is None:
                args.seed = _integer(config, "seed", 0)
            args.tol = _tolerance(config.get("tolerance", 1e-8)
                                  if args.tol is None else args.tol,
                                  "tolerance")
        return runner(config, args, out_dir)
    except (ConfigError, OSError, MemoryError) as exc:
        # a grid too large for memory is a bad input, not a falsification
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
