"""Layer boundaries of warpcurv and the per-layer metrics derived from them.

The layers are the package modules.  Each boundary names the module
attribute through which a caller finds a function, so a function imported
by name into several modules is wrapped once per importing module (e.g.
``evaluate_geometry`` in ``hypersurface``, ``operators``, ``scenarios`` and
``cli``).  ``moves`` records, before any optimization is measured, which
end-to-end metric a change in that layer metric should move, and where.
"""

from __future__ import annotations

import dataclasses
from collections import namedtuple

import numpy as np

ITEM_SPAN = "bench.item"

Metric = namedtuple("Metric", "name unit better kind source moves")

LAYER_METRICS = (
    Metric("symfun.jacobi_eigenvalues.calls", "calls/item", "lower", "calls",
           "symfun.jacobi_eigenvalues", "items_per_s on algebra only"),
    Metric("symfun.jacobi_eigenvalues.ms", "ms/item", "lower", "ms",
           "symfun.jacobi_eigenvalues", "items_per_s on algebra only"),
    Metric("symfun.newton_family.calls", "calls/item", "lower", "calls",
           "symfun.newton_family", "items_per_s on algebra only"),
    Metric("symfun.newton_family.ms", "ms/item", "lower", "ms",
           "symfun.newton_family", "items_per_s on algebra only"),
    Metric("symfun.batch.ms", "ms/item", "lower", "ms", "symfun.batch",
           "items_per_s on audit-battery and identity-grid"),
    Metric("ambient.curvature_tensor_components.calls", "calls/item", "lower",
           "calls", "ambient.curvature_tensor_components",
           "items_per_s on identity-grid"),
    Metric("ambient.curvature_tensor_components.ms", "ms/item", "lower", "ms",
           "ambient.curvature_tensor_components",
           "items_per_s on identity-grid"),
    Metric("ambient.warping_eval.ms", "ms/item", "lower", "ms",
           "ambient.warping_eval", "items_per_s on audit-battery"),
    Metric("ambient.profile_summary.calls", "calls/item", "lower", "calls",
           "ambient.profile_summary", "items_per_s on audit-battery"),
    Metric("ambient.profile_summary.ms", "ms/item", "lower", "ms",
           "ambient.profile_summary", "items_per_s on audit-battery"),
    Metric("hypersurface.height_build.ms", "ms/item", "lower", "ms",
           "hypersurface.height_build",
           "items_per_s on audit-battery most, identity-grid less, "
           "algebra not at all"),
    Metric("hypersurface.evaluate_geometry.calls", "calls/item", "lower",
           "calls", "hypersurface.evaluate_geometry",
           "items_per_s on audit-battery"),
    Metric("hypersurface.evaluate_geometry.ms", "ms/item", "lower", "ms",
           "hypersurface.evaluate_geometry", "items_per_s on audit-battery"),
    Metric("hypersurface.geometry_bytes", "bytes", "lower", "max",
           "hypersurface.geometry_bytes", "peak_rss_mb on identity-grid"),
    Metric("hypersurface.structure_identities.ms", "ms/item", "lower", "ms",
           "hypersurface.structure_identities",
           "item_ms_p50 on identity-grid"),
    Metric("operators.div_pk.ms", "ms/item", "lower", "ms",
           "operators.div_pk", "item_ms_p50 on identity-grid"),
    Metric("operators.height_sigma_identities.ms", "ms/item", "lower", "ms",
           "operators.height_sigma_identities",
           "item_ms_p50 on identity-grid"),
    Metric("operators.theta_hat_identity.ms", "ms/item", "lower", "ms",
           "operators.theta_hat_identity", "item_ms_p50 on identity-grid"),
    Metric("operators.calligraphic_ops.ms", "ms/item", "lower", "ms",
           "operators.calligraphic_ops", "item_ms_p50 on identity-grid"),
    Metric("operators.frak_phi.ms", "ms/item", "lower", "ms",
           "operators.frak_phi", "item_ms_p50 on identity-grid"),
    Metric("operators.frak_phi.applicable_ratio", "ratio", "higher", "ratio",
           "operators.frak_phi", "item_ms_p50 on identity-grid"),
    Metric("scenarios.curvature_estimate_scenario.ms", "ms/item", "lower",
           "ms", "scenarios.curvature_estimate_scenario",
           "items_per_s on audit-battery"),
    Metric("scenarios.elliptic_point_and_signs.ms", "ms/item", "lower", "ms",
           "scenarios.elliptic_point_and_signs",
           "items_per_s on audit-battery"),
    Metric("scenarios.theorem_audit.ms", "ms/item", "lower", "ms",
           "scenarios.theorem_audit", "items_per_s on audit-battery"),
    Metric("comparison.solve_comparison.calls", "calls/item", "lower", "calls",
           "comparison.solve_comparison", "item_ms_p50 on cli-battery"),
    Metric("comparison.solve_comparison.ms", "ms/item", "lower", "ms",
           "comparison.solve_comparison", "item_ms_p50 on cli-battery"),
    Metric("comparison.omori_yau_probe.ms", "ms/item", "lower", "ms",
           "comparison.omori_yau_probe", "item_ms_p50 on cli-battery"),
    Metric("comparison.hessian_comparison_check.ms", "ms/item", "lower", "ms",
           "comparison.hessian_comparison_check",
           "item_ms_p50 on cli-battery"),
    Metric("cli.main.self_ms", "ms/item", "lower", "ms", "cli.main",
           "item_ms_p50 on cli-battery"),
    Metric("cli.write.ms", "ms/item", "lower", "ms", "cli.write",
           "item_ms_p50 on cli-battery"),
    Metric("cli.report_bytes", "bytes/item", "lower", "per_item",
           "cli.report_bytes", "item_ms_p50 on cli-battery"),
    Metric("trace.overhead_pct", "%", "lower", "overhead", None,
           "none: traced minus untraced time per item, over untraced"),
)


def _geometry_bytes(tracer, geom):
    """Bytes of a GeometryGrid, each distinct underlying buffer once.

    Views (``np.broadcast_to``, slices) are followed through ``.base`` to
    the array that owns the memory, so a shared or broadcast field costs
    what it really holds rather than its logical ``nbytes``.
    """
    owners = {}
    for f in dataclasses.fields(geom):
        value = getattr(geom, f.name)
        if isinstance(value, np.ndarray):
            while isinstance(value.base, np.ndarray):
                value = value.base
            owners[id(value)] = value.nbytes
    tracer.maximum("hypersurface.geometry_bytes", float(sum(owners.values())))


def _frak_outcome(tracer, result):
    tracer.count("operators.frak_phi.attempts")
    if result.get("applicable"):
        tracer.count("operators.frak_phi.applicable")


def boundaries():
    """(module, attribute, span name, observer) for every traced call site."""
    from warpcurv import (ambient, cli, comparison, hypersurface, operators,
                          scenarios, symfun)

    table = [
        (symfun, "jacobi_eigenvalues", "symfun.jacobi_eigenvalues"),
        (symfun, "newton_family", "symfun.newton_family"),
        (symfun, "elementary_symmetric_batch", "symfun.batch"),
        (symfun, "h_from_s", "symfun.batch"),
        (symfun, "newton_family_batch", "symfun.batch"),
        (ambient, "curvature_tensor_components",
         "ambient.curvature_tensor_components"),
        (operators, "curvature_tensor_components",
         "ambient.curvature_tensor_components"),
        (ambient, "warping_eval", "ambient.warping_eval"),
        (hypersurface, "warping_eval", "ambient.warping_eval"),
        (ambient, "profile_summary", "ambient.profile_summary"),
        (operators, "profile_summary", "ambient.profile_summary"),
        (scenarios, "profile_summary", "ambient.profile_summary"),
        (cli, "build_immersion", "hypersurface.height_build"),
        (hypersurface, "structure_identities",
         "hypersurface.structure_identities"),
        (cli, "structure_identities", "hypersurface.structure_identities"),
        (operators, "div_pk", "operators.div_pk"),
        (operators, "height_sigma_identities",
         "operators.height_sigma_identities"),
        (operators, "theta_hat_identity", "operators.theta_hat_identity"),
        (operators, "calligraphic_ops", "operators.calligraphic_ops"),
        (scenarios, "curvature_estimate_scenario",
         "scenarios.curvature_estimate_scenario"),
        (scenarios, "elliptic_point_and_signs",
         "scenarios.elliptic_point_and_signs"),
        (scenarios, "theorem_audit", "scenarios.theorem_audit"),
        (comparison, "solve_comparison", "comparison.solve_comparison"),
        (cli, "solve_comparison", "comparison.solve_comparison"),
        (cli, "omori_yau_probe", "comparison.omori_yau_probe"),
        (cli, "hessian_comparison_check",
         "comparison.hessian_comparison_check"),
        (cli, "main", "cli.main"),
        (cli, "write_json", "cli.write"),
        (cli, "write_table", "cli.write"),
    ]
    out = [(module, attr, name, None) for module, attr, name in table]
    for module in (hypersurface, operators, scenarios, cli):
        out.append((module, "evaluate_geometry",
                    "hypersurface.evaluate_geometry", _geometry_bytes))
    out.append((operators, "frak_phi", "operators.frak_phi", _frak_outcome))
    return out


def layer_values(summary, counters, items):
    """Per-layer metrics of one traced run, except the tracing overhead.

    ``summary`` maps span names to (calls, self seconds), ``counters`` holds
    observer and workload counts, ``items`` is the number of timed items.
    A layer the workload does not reach reads 0.
    """
    out = {}
    for m in LAYER_METRICS:
        if m.kind == "calls":
            value = summary.get(m.source, (0, 0.0))[0] / items
        elif m.kind == "ms":
            value = 1e3 * summary.get(m.source, (0, 0.0))[1] / items
        elif m.kind == "max":
            value = counters.get(m.source, 0.0)
        elif m.kind == "per_item":
            value = counters.get(m.source, 0.0) / items
        elif m.kind == "ratio":
            attempts = counters.get(m.source + ".attempts", 0.0)
            value = (counters.get(m.source + ".applicable", 0.0) / attempts
                     if attempts else 0.0)
        else:
            continue
        out[m.name] = value
    return out
