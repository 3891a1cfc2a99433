"""Scenario audits: hypothesis checking, verdict gating, and the
hypothesis-violated / conclusion-violated separation.

The load-bearing invariant of this layer: a failed hypothesis must
short-circuit to 'hypothesis-violated'; 'CONCLUSION-VIOLATED' is reserved
for inputs that satisfy every hypothesis yet break a conclusion.
"""

import ast
import dataclasses
import inspect
import math
import textwrap

import numpy as np
import pytest

from helpers import CHART, make_product, random_immersion, slice_immersion
from warpcurv import hypersurface, scenarios
from warpcurv.comparison import builtin_model
from warpcurv.hypersurface import GraphImmersion, evaluate_geometry
from warpcurv.scenarios import (
    THEOREM_IDS,
    VERDICT_CONCLUSION,
    VERDICT_CONSISTENT,
    VERDICT_HYPOTHESIS,
    CheckResult,
    ScenarioReport,
    curvature_estimate_scenario,
    elliptic_point_and_signs,
    find_elliptic_point,
    parabolicity_integral,
    theorem_audit,
)


def _names(checks, passed=None):
    return [c.name for c in checks if passed is None or c.passed == passed]


# ---------------------------------------------------------------------------
# verdict gating
# ---------------------------------------------------------------------------

def test_verdict_gating_rules():
    good = CheckResult("a", True, 1.0)
    bad = CheckResult("b", False, -1.0)

    rep = ScenarioReport("x", hypothesis_checks=[good],
                         conclusion_checks=[good]).finalize()
    assert rep.verdict == VERDICT_CONSISTENT

    rep = ScenarioReport("x", hypothesis_checks=[good, bad],
                         conclusion_checks=[bad]).finalize()
    assert rep.verdict == VERDICT_HYPOTHESIS  # hypotheses short-circuit

    rep = ScenarioReport("x", hypothesis_checks=[good],
                         conclusion_checks=[good, bad]).finalize()
    assert rep.verdict == VERDICT_CONCLUSION

    d = dataclasses.asdict(rep)
    assert d["verdict"] == VERDICT_CONCLUSION
    assert [c["name"] for c in d["conclusion_checks"]] == ["a", "b"]


# ---------------------------------------------------------------------------
# elliptic point search
# ---------------------------------------------------------------------------

def test_elliptic_point_on_definite_slice():
    W = make_product("cosh", "flat-torus", 2, 0.0)
    geom = evaluate_geometry(slice_immersion(W, 0.7))
    found = find_elliptic_point(geom)
    assert found["found"]
    assert found["orientation"] == 1
    assert abs(found["margin"] - math.tanh(0.7)) <= 1e-12

    # on the negative side the flipped normal makes the node definite
    geom = evaluate_geometry(slice_immersion(W, -0.7))
    found = find_elliptic_point(geom)
    assert found["found"] and found["orientation"] == -1
    assert abs(found["margin"] - math.tanh(0.7)) <= 1e-12
    pinned = find_elliptic_point(geom, both_orientations=False)
    assert not pinned["found"]


def test_no_elliptic_point_on_flat_wave():
    # a sine wave over a metric product is flat along the second axis:
    # one principal curvature is identically zero, so no node is definite
    W = make_product("const", "flat-torus", 2, 0.0)
    imm = GraphImmersion.from_function(
        W, lambda m: 0.1 * np.sin(m[..., 0]), 32)
    geom = evaluate_geometry(imm)
    found = find_elliptic_point(geom)
    assert not found["found"]
    assert abs(found["margin"]) <= 1e-9


# ---------------------------------------------------------------------------
# theorem audits on slices
# ---------------------------------------------------------------------------

TWO_DIM_IDS = ("compact-constant-h2", "complete-constant-h2",
               "compact-constant-hk-fiber-curvature",
               "complete-parabolic-constant-hk")
THREE_DIM_IDS = ("compact-constant-hk", "complete-constant-hk")


@pytest.mark.parametrize("theorem_id", TWO_DIM_IDS)
def test_slice_is_consistent_two_dim(theorem_id):
    W = make_product("cosh", "flat-torus", 2, 0.0)
    imm = slice_immersion(W, 0.7)
    rep = theorem_audit(imm, W, theorem_id)
    assert rep.verdict == VERDICT_CONSISTENT, dataclasses.asdict(rep)
    assert rep.data["angle_branch"] == "nonpositive"
    assert rep.residuals["order-curvature-spread"] <= 1e-12
    assert "slice-conclusion" in _names(rep.conclusion_checks, passed=True)


@pytest.mark.parametrize("theorem_id", THREE_DIM_IDS)
def test_slice_is_consistent_three_dim(theorem_id):
    W = make_product("cosh", "flat-torus", 3, 0.0)
    imm = slice_immersion(W, 0.7, res=12)
    rep = theorem_audit(imm, W, theorem_id, k=3)
    assert rep.verdict == VERDICT_CONSISTENT, dataclasses.asdict(rep)
    assert rep.data["k"] == 3
    assert "elliptic-point-exists" in _names(rep.hypothesis_checks, passed=True)


def test_parabolic_audit_records_divergence_residual():
    W = make_product("cosh", "flat-torus", 2, 0.0)
    rep = theorem_audit(slice_immersion(W, 0.7), W,
                        "complete-parabolic-constant-hk")
    assert rep.verdict == VERDICT_CONSISTENT
    assert "divergence-form-residual" in rep.residuals
    names = _names(rep.conclusion_checks, passed=True)
    assert "divergence-form-subharmonicity" in names
    assert "nonnegative-term-decomposition" in names


def test_nan_term_fails_the_term_decomposition(monkeypatch):
    # Python's min drops a NaN that is not first, so a NaN H_3 at one
    # audited node would pass nonnegative-term-decomposition
    real = scenarios.evaluate_geometry

    def evaluate_geometry(imm, cfg=None):
        geom = real(imm, cfg)
        H = geom.H.copy()
        H[3, 4, 5, 3] = np.nan
        return dataclasses.replace(geom, H=H)

    monkeypatch.setattr(scenarios, "evaluate_geometry", evaluate_geometry)
    W = make_product("cosh", "flat-torus", 3, 0.0)
    rep = theorem_audit(slice_immersion(W, 0.7, res=12), W,
                        "complete-parabolic-constant-hk", k=2)
    assert math.isnan(rep.residuals["divergence-form-residual"])
    assert rep.verdict == VERDICT_CONCLUSION
    assert _names(rep.conclusion_checks, passed=False) == [
        "nonnegative-term-decomposition"]


def test_audit_is_orientation_gauge_invariant():
    W = make_product("cosh", "flat-torus", 2, 0.0)
    plus = theorem_audit(slice_immersion(W, 0.7), W, "compact-constant-h2")
    minus = theorem_audit(slice_immersion(W, 0.7, orientation=-1), W,
                          "compact-constant-h2")
    assert plus.verdict == minus.verdict == VERDICT_CONSISTENT
    assert not plus.data["orientation_flipped"]
    assert minus.data["orientation_flipped"]
    assert minus.data["input_orientation"] == -1
    # the realized constants agree after the gauge normalization
    a = plus.data["realized_constants"]["sup_abs_mean_curvature"]
    b = minus.data["realized_constants"]["sup_abs_mean_curvature"]
    assert abs(a - b) <= 1e-12


def test_runners_evaluate_one_geometry_per_immersion(monkeypatch):
    # the c7 battery reads one geometry: three curvature estimates, the
    # sign dichotomy and a rigidity audit; a flipped input adds the
    # flipped immersion's, which the two gauge-normalizing runners share
    body = hypersurface._geometry_fields
    evaluated = []

    def counted(imm, cfg):
        evaluated.append(imm.orientation)
        return body(imm, cfg)

    monkeypatch.setattr(hypersurface, "_geometry_fields", counted)
    W = make_product("exp", "flat-torus", 3, 0.0)
    for orientation, expected in ((1, [1]), (-1, [-1, 1])):
        evaluated.clear()
        imm = random_immersion(W, seed=5, amplitude=0.05, res=12,
                               orientation=orientation)
        reports = [curvature_estimate_scenario(imm, W, order)
                   for order in (1, 2, 3)]
        reports += [elliptic_point_and_signs(imm),
                    theorem_audit(imm, W, "compact-constant-hk", k=3)]
        assert evaluated == expected
        assert [rep.data["orientation_flipped"] for rep in reports[3:]] == \
            [orientation < 0] * 2

    # metamorphic: the opposite normal negates the angle function and the
    # principal curvatures, which reverses their ascending order
    geom, flipped = evaluate_geometry(imm), evaluate_geometry(imm.flipped())
    assert np.array_equal(flipped.theta, -geom.theta)
    assert np.max(np.abs(flipped.kappas + geom.kappas[..., ::-1])) <= \
        1e-14 * np.max(np.abs(geom.kappas))
    assert evaluated == [-1, 1]


def _emitted_check_names():
    """The names of every check the runners can emit, read from the
    ``CheckResult`` calls of the scenarios module."""
    tree = ast.parse(inspect.getsource(scenarios))
    return {node.args[0].value for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "CheckResult"}


def _margin_battery():
    """(ambient, immersion) pairs at n = 2 and 3: on three ambients the
    slices t0 +- 0.3, the lower one flipped, and a random graph; on the
    open chart of exp x the round sphere a tilted graph, whose curvature
    estimate fails with a positive warping speed."""
    for n in (2, 3):
        for profile, chart, kappa in (("exp", "flat-torus", 0.0),
                                      ("cosh", "space-form", -1.0),
                                      ("linear", "space-form", 1.0)):
            W = make_product(profile, chart, n, kappa)
            t0 = W.profile.t0
            yield W, slice_immersion(W, t0 + 0.3, res=20)
            yield W, slice_immersion(W, t0 - 0.3, res=20, orientation=-1)
            yield W, random_immersion(W, seed=0, t_center=t0 + 0.2,
                                      amplitude=0.1, res=20)
        W = make_product("exp", "space-form", n, 1.0)
        yield W, GraphImmersion.from_function(
            W, lambda m: 0.2 + m[..., 0], 20)


def test_every_reported_margin_agrees_with_its_check():
    # a check's margin is the signed number that decided it, so at tol = 0
    # a passed check never reports a negative margin and a failed one
    # never a positive one
    seen = set()
    for W, imm in _margin_battery():
        n = W.fiber.n
        reports = [curvature_estimate_scenario(imm, W, order, tol=0.0)
                   for order in range(1, n + 1)]
        reports.append(elliptic_point_and_signs(imm, tol=0.0))
        reports += [theorem_audit(imm, W, tid, tol=0.0) for tid in THEOREM_IDS
                    if n >= 3 or tid not in THREE_DIM_IDS]
        for rep in reports:
            for check in rep.hypothesis_checks + rep.conclusion_checks:
                seen.add(check.name)
                where = (W.profile.name, n, rep.scenario_id, check)
                if check.passed:
                    assert check.margin >= -1e-8, where
                else:
                    assert not check.margin > 1e-8, where
    names = _emitted_check_names()
    assert len(names) == 26
    assert seen == names


@pytest.mark.parametrize("fiber,n,kappa,res", [
    ("flat-torus", 2, 0.0, 20), ("flat-torus", 3, 0.0, 12),
    ("round-sphere", 2, 1.0, 24)])
def test_flipped_orientation_keeps_every_verdict(fiber, n, kappa, res):
    # the audits renormalize to positive mean curvature, so handing in the
    # opposite normal must not change a single verdict
    W = make_product("cosh", CHART[fiber], n, kappa)
    audits = [(tid, k) for tid in THEOREM_IDS for k in range(2, n + 1)
              if not (tid.endswith("h2") and k != 2)
              and not (tid in THREE_DIM_IDS and k < 3)]
    for seed in (1, 2):
        verdicts = []
        for orientation in (1, -1):
            imm = random_immersion(W, seed=seed, t_center=0.6,
                                   amplitude=0.1, res=res,
                                   orientation=orientation)
            verdicts.append(
                [theorem_audit(imm, W, tid, k=k).verdict for tid, k in audits]
                + [elliptic_point_and_signs(imm).verdict])
        assert verdicts[0] == verdicts[1], (seed, audits)


def test_swapping_two_torus_axes_keeps_the_geometry_and_every_check():
    # the same graph with chart axes 0 and 1 swapped: the principal
    # curvatures, H and Theta are the swapped originals, and every check of
    # every audit decides alike.  Per-vector residuals are not compared:
    # they live in the Cholesky frame, which depends on the axis order.
    W = make_product("cosh", "flat-torus", 3, 0.0)
    imm = random_immersion(W, seed=11, t_center=0.7, amplitude=0.1, res=16)
    box = (imm.box[1], imm.box[0], imm.box[2])
    swapped = GraphImmersion.from_function(
        W, lambda mesh: imm.fn(mesh[..., [1, 0, 2]]), 16, box=box)
    assert np.array_equal(swapped.u, np.swapaxes(imm.u, 0, 1))
    geom, geom_swapped = evaluate_geometry(imm), evaluate_geometry(swapped)
    for name in ("kappas", "H", "theta"):
        want = np.swapaxes(getattr(geom, name), 0, 1)
        assert np.max(np.abs(getattr(geom_swapped, name) - want)) <= 1e-12, \
            name

    audits = [(tid, k) for tid in THEOREM_IDS for k in range(2, 4)
              if not (tid.endswith("h2") and k != 2)
              and not (tid in THREE_DIM_IDS and k < 3)]
    for tid, k in audits:
        a, b = (theorem_audit(im, W, tid, k=k) for im in (imm, swapped))
        assert a.verdict == b.verdict, (tid, k)
        assert [(c.name, c.passed) for c in
                a.hypothesis_checks + a.conclusion_checks] == \
            [(c.name, c.passed) for c in
             b.hypothesis_checks + b.conclusion_checks], (tid, k)


def test_perturbed_slice_violates_hypotheses_not_conclusions():
    W = make_product("cosh", "flat-torus", 2, 0.0)
    for seed in range(4):
        imm = random_immersion(W, seed=seed, t_center=0.7, amplitude=0.1)
        rep = theorem_audit(imm, W, "compact-constant-h2")
        assert rep.verdict == VERDICT_HYPOTHESIS
        assert rep.verdict != VERDICT_CONCLUSION
        assert "order-curvature-constant" in _names(rep.hypothesis_checks,
                                                    passed=False)


def test_fiber_equality_reports_umbilical_alternative():
    # exp profile has sup(rho'^2 - rho'' rho) = 0 = flat-fiber curvature:
    # the equality case, where a non-slice must be checked for umbilicity
    W = make_product("exp", "flat-torus", 2, 0.0)
    imm = random_immersion(W, seed=3, t_center=0.0, amplitude=0.15)
    rep = theorem_audit(imm, W, "compact-constant-hk-fiber-curvature")
    assert rep.verdict == VERDICT_HYPOTHESIS  # H_2 is not constant
    names = _names(rep.conclusion_checks)
    assert "slice-or-umbilical-conclusion" in names
    # the equality-case hypothesis itself is satisfied
    assert "fiber-curvature-dominates" in _names(rep.hypothesis_checks,
                                                 passed=True)


def test_strict_fiber_hypothesis_rejects_equality():
    W = make_product("exp", "flat-torus", 2, 0.0)
    rep = theorem_audit(slice_immersion(W, 0.5), W,
                        "complete-parabolic-constant-hk")
    assert "fiber-curvature-dominates-strictly" in _names(
        rep.hypothesis_checks, passed=False)
    assert rep.verdict == VERDICT_HYPOTHESIS


def test_monotonicity_hypothesis_fails_on_contracting_profile():
    # rho = t over the unit sphere: hcal' = -1/t^2 < 0
    W = make_product("linear", "space-form", 2, 1.0)
    rep = theorem_audit(slice_immersion(W, 2.0), W, "compact-constant-h2")
    failed = _names(rep.hypothesis_checks, passed=False)
    assert "warping-speed-nondecreasing" in failed
    # the chart is not closed either
    assert "compact-without-boundary" in failed
    assert rep.verdict == VERDICT_HYPOTHESIS


# (theorem, profile, kappa, the hypotheses that fail besides the boundary
# and constancy ones, the conclusion reported)
_ORDER_THREE_AUDITS = [
    ("compact-constant-hk", "cosh", 1.0, [], "slice-conclusion"),
    ("compact-constant-hk", "cosh", -1.0, [], "slice-conclusion"),
    ("compact-constant-hk", "sin", 1.0, ["warping-speed-nondecreasing"],
     "slice-conclusion"),
    ("compact-constant-hk", "sin", -1.0, ["warping-speed-nondecreasing"],
     "slice-conclusion"),
    ("complete-constant-hk", "cosh", 1.0, [], "slice-conclusion"),
    ("complete-constant-hk", "cosh", -1.0, [], "slice-conclusion"),
    ("complete-constant-hk", "sin", 1.0, ["warping-speed-increasing-ae"],
     "slice-conclusion"),
    ("complete-constant-hk", "sin", -1.0, ["warping-speed-increasing-ae"],
     "slice-conclusion"),
    ("compact-constant-hk-fiber-curvature", "cosh", 1.0, [],
     "slice-conclusion"),
    # cosh has alpha = -1, so kappa = alpha: the umbilical alternative
    ("compact-constant-hk-fiber-curvature", "cosh", -1.0, [],
     "slice-or-umbilical-conclusion"),
    ("compact-constant-hk-fiber-curvature", "sin", 1.0, [],
     "slice-conclusion"),
    ("compact-constant-hk-fiber-curvature", "sin", -1.0,
     ["fiber-curvature-dominates"], "slice-conclusion"),
]


@pytest.mark.parametrize(
    "theorem,profile,kappa,extra,conclusion", _ORDER_THREE_AUDITS,
    # the compact-constant-hk cases keep their plain profile-kappa ids
    ids=[f"{p}-{kap}" if th == "compact-constant-hk" else f"{th}-{p}-{kap}"
         for th, p, kap, _, _ in _ORDER_THREE_AUDITS])
def test_order_three_audit_over_three_dimensional_space_forms(
        theorem, profile, kappa, extra, conclusion):
    # the -hk audits at k = 3 need n = 3, which no curved fiber had before
    # the conformally flat chart: a random graph over the bounded chart
    # fails closedness and constancy, sin's contracting phases fail the
    # monotone warping speed, and sin's alpha exceeds kappa = -1; the
    # conclusion is never blamed
    W = make_product(profile, "space-form", 3, kappa)
    imm = random_immersion(W, seed=3, t_center=0.6, amplitude=0.1, res=20)
    rep = theorem_audit(imm, W, theorem, k=3)
    assert rep.verdict == VERDICT_HYPOTHESIS
    boundary = ("complete-without-boundary" if theorem.startswith("complete")
                else "compact-without-boundary")
    expected = [boundary, "order-curvature-constant"] + extra
    assert _names(rep.hypothesis_checks, passed=False) == expected
    assert conclusion in _names(rep.conclusion_checks, passed=False)


# the values each key of the theorem table may take
_AUDIT_VALUES = {
    "kind": {"compact", "complete", "parabolic"},
    "k": {2, 3},
    "fixed": {True, False},
    "definite": {True, False},
    "monotone": {None, "nonnegative", "ae-positive"},
    "speed": {None, "nonvanishing", "sign-constant"},
    "fiber": {None, "dominates", "strict"},
}

# the curvature orders each statement is about, in dimension n
_AUDIT_ORDERS = {
    "compact-constant-h2": lambda n: {2},
    "complete-constant-h2": lambda n: {2},
    "compact-constant-hk": lambda n: set(range(3, n + 1)),
    "complete-constant-hk": lambda n: set(range(3, n + 1)),
    "compact-constant-hk-fiber-curvature": lambda n: set(range(2, n + 1)),
    "complete-parabolic-constant-hk": lambda n: set(range(2, n + 1)),
}


def _compared_literals(fn):
    """(key, literal) for every ``spec["key"] == literal`` (or ``in`` a
    tuple of literals) in the source of ``fn``."""
    found = set()
    for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(fn)))):
        if not (isinstance(node, ast.Compare)
                and isinstance(node.left, ast.Subscript)
                and isinstance(node.left.value, ast.Name)
                and node.left.value.id == "spec"):
            continue
        key = node.left.slice.value
        for right in node.comparators:
            elts = right.elts if isinstance(right, ast.Tuple) else [right]
            found |= {(key, e.value) for e in elts}
    return found


def test_theorem_table_uses_known_keys_values_and_orders():
    # a misspelled key or value would silently drop a hypothesis
    assert set(THEOREM_IDS) == set(_AUDIT_ORDERS)
    for theorem_id, spec in scenarios._AUDITS.items():
        assert set(spec) == set(_AUDIT_VALUES), theorem_id
        for key, value in spec.items():
            # typed, so that True cannot stand in for 1
            allowed = {(type(v), v) for v in _AUDIT_VALUES[key]}
            assert (type(value), value) in allowed, (theorem_id, key, value)
    # every string the audit compares a table value with is a known value,
    # and every known string value is compared somewhere
    compared = _compared_literals(theorem_audit)
    known = {(key, v) for key, values in _AUDIT_VALUES.items()
             for v in values if isinstance(v, str)}
    assert compared == known
    for theorem_id, orders in _AUDIT_ORDERS.items():
        for n in (2, 3, 4):
            accepted = set()
            for k in range(-1, n + 3):
                try:
                    assert scenarios.audit_order(theorem_id, n, k) == k
                except ValueError:
                    continue
                accepted.add(k)
            assert accepted == orders(n), (theorem_id, n)
            if orders(n):
                assert scenarios.audit_order(theorem_id, n) == min(orders(n))
            else:
                with pytest.raises(ValueError):
                    scenarios.audit_order(theorem_id, n)


def test_audit_validation_errors():
    W = make_product("cosh", "flat-torus", 2, 0.0)
    imm = slice_immersion(W, 0.7, res=16)
    with pytest.raises(ValueError, match="unknown theorem id"):
        theorem_audit(imm, W, "compact-h2")
    with pytest.raises(ValueError, match="outside \\[3, 2\\]"):
        theorem_audit(imm, W, "compact-constant-hk")
    with pytest.raises(ValueError, match="specific to order"):
        theorem_audit(imm, W, "compact-constant-h2", k=3)
    other = make_product("cosh", "flat-torus", 2, 0.0)
    with pytest.raises(ValueError, match="ambient mismatch"):
        theorem_audit(imm, other, "compact-constant-h2")


# ---------------------------------------------------------------------------
# sign dichotomy
# ---------------------------------------------------------------------------

def test_sign_dichotomy_negative_angle_branch():
    W = make_product("cosh", "flat-torus", 2, 0.0)
    rep = elliptic_point_and_signs(slice_immersion(W, 0.7))
    assert rep.verdict == VERDICT_CONSISTENT
    assert rep.data["angle_branch"] == "nonpositive"
    assert _names(rep.conclusion_checks) == ["height-speed-nonnegative"]
    assert not rep.data["orientation_flipped"]


def test_sign_dichotomy_positive_angle_branch():
    # below the neck the canonical gauge flips the normal, so the angle
    # function is +1 and the speed conclusion flips sign with it
    W = make_product("cosh", "flat-torus", 2, 0.0)
    rep = elliptic_point_and_signs(slice_immersion(W, -0.7))
    assert rep.verdict == VERDICT_CONSISTENT
    assert rep.data["orientation_flipped"]
    assert rep.data["angle_branch"] == "nonnegative"
    assert _names(rep.conclusion_checks) == ["height-speed-nonpositive"]


def test_sign_dichotomy_needs_monotone_speed():
    # oscillating profile at a descending point: hcal' < 0 breaks the
    # hypothesis, so the verdict must not blame the conclusion
    W = make_product("sin", "flat-torus", 2, 0.0)
    rep = elliptic_point_and_signs(slice_immersion(W, 2.0))
    assert rep.verdict == VERDICT_HYPOTHESIS
    assert "warping-speed-nondecreasing" in _names(rep.hypothesis_checks,
                                                   passed=False)


# ---------------------------------------------------------------------------
# curvature estimates
# ---------------------------------------------------------------------------

def test_estimate_saturates_on_slice():
    W = make_product("cosh", "flat-torus", 2, 0.0)
    imm = slice_immersion(W, 0.7)
    for order in (1, 2):
        rep = curvature_estimate_scenario(imm, W, order)
        assert rep.verdict == VERDICT_CONSISTENT
        gap = rep.residuals["sup_curvature"] - rep.residuals["inf_height_speed"]
        assert abs(gap) <= 1e-10  # the slice is the equality case


def test_estimate_third_order_needs_elliptic_point():
    W = make_product("cosh", "flat-torus", 3, 0.0)
    rep = curvature_estimate_scenario(slice_immersion(W, 0.7, res=12), W, 3)
    assert rep.verdict == VERDICT_CONSISTENT
    assert "elliptic-point-exists" in _names(rep.hypothesis_checks, passed=True)
    assert "top-order-curvature-positive" in _names(rep.hypothesis_checks,
                                                    passed=True)


def test_estimate_on_random_graph_constant_speed():
    # exp profile: the speed is identically 1, so sup |H_1| >= 1
    W = make_product("exp", "flat-torus", 2, 0.0)
    for seed in (0, 1, 2):
        imm = random_immersion(W, seed=seed, t_center=0.0, amplitude=0.2)
        rep = curvature_estimate_scenario(imm, W, 1)
        assert rep.verdict == VERDICT_CONSISTENT
        assert rep.residuals["sup_curvature"] >= 1.0 - 1e-8


def test_nan_mean_curvature_fails_the_first_order_estimate(monkeypatch):
    # a NaN H_1 at one audited node makes sup |H_1| NaN; the estimate must
    # record its check and fail it rather than drop it and read consistent
    real = scenarios._audited_geometry

    def audited_geometry(*args, **kwargs):
        geom, flipped = real(*args, **kwargs)
        H = geom.H.copy()
        H[5, 5, 1] = np.nan
        return dataclasses.replace(geom, H=H), flipped

    monkeypatch.setattr(scenarios, "_audited_geometry", audited_geometry)
    W = make_product("cosh", "flat-torus", 2, 0.0)
    rep = curvature_estimate_scenario(random_immersion(W, seed=3, res=16),
                                      W, 1)
    assert math.isnan(rep.residuals["sup_curvature"])
    assert rep.verdict == VERDICT_CONCLUSION
    assert _names(rep.conclusion_checks, passed=False) == [
        "curvature-supremum-estimate"]


def test_estimate_validation():
    W = make_product("cosh", "flat-torus", 2, 0.0)
    imm = slice_immersion(W, 0.7, res=16)
    with pytest.raises(ValueError, match="outside"):
        curvature_estimate_scenario(imm, W, 0)
    with pytest.raises(ValueError, match="outside"):
        curvature_estimate_scenario(imm, W, 3)
    with pytest.raises(ValueError, match="ambient mismatch"):
        curvature_estimate_scenario(
            imm, make_product("cosh", "flat-torus", 2, 0.0), 1)


def test_runners_refuse_a_grid_with_no_audited_node():
    # 16 nodes along each of the sphere chart's non-periodic axes all sit
    # inside the order-4 stencil's 8-cell margin: the runners refuse the
    # grid with the CLI's wording instead of reducing over an empty audit
    # region
    W = make_product("cosh", "space-form", 2, 1.0)
    imm = slice_immersion(W, 0.7, res=16)
    for run in (lambda: curvature_estimate_scenario(imm, W, 1),
                lambda: elliptic_point_and_signs(imm),
                lambda: theorem_audit(imm, W, "compact-constant-h2")):
        with pytest.raises(ValueError, match=r"no node of the \(16, 16\) "
                                             r"grid is outside the 8-cell"):
            run()


def test_open_chart_is_flagged_not_failed_as_conclusion():
    W = make_product("cosh", "space-form", 2, 1.0)
    rep = curvature_estimate_scenario(slice_immersion(W, 0.7), W, 1)
    assert "compact-without-boundary" in _names(rep.hypothesis_checks,
                                                passed=False)
    assert rep.verdict == VERDICT_HYPOTHESIS


# ---------------------------------------------------------------------------
# parabolicity criterion
# ---------------------------------------------------------------------------

def test_parabolicity_flat_model_constant_curvature():
    rep = parabolicity_integral(builtin_model("flat"), 1.0, k=1)
    assert rep["sphere_area_constant"] == pytest.approx(2.0 * math.pi)
    assert rep["increment_ratio"] == pytest.approx(1.0, abs=1e-9)
    assert rep["parabolic_criterion"]


def test_parabolicity_hyperbolic_model_fails():
    rep = parabolicity_integral(builtin_model("hyperbolic"), 1.0, k=1)
    assert rep["increment_ratio"] < 0.5
    assert not rep["parabolic_criterion"]


def test_parabolicity_with_decaying_curvature_profile():
    # H ~ 1/area makes the integrand constant: increments double
    rep = parabolicity_integral(
        builtin_model("flat"), lambda t: 1.0 / (2.0 * math.pi * np.asarray(t)),
        k=2)
    assert rep["increment_ratio"] == pytest.approx(2.0, abs=1e-9)
    assert rep["parabolic_criterion"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name,params,parabolic", [
    ("flat", {"m": 2}, True),
    ("flat", {"m": 3}, True),    # increment ratio 1/2, on the boundary
    ("hyperbolic", {"R": 3.0}, False),
    ("hyperbolic", {"R": 100.0}, False),
    # T = 2R = 800 runs sinh past its overflow near t = 710
    ("hyperbolic", {"R": 400.0}, False),
])
def test_parabolicity_verdict_does_not_move_with_the_scale_of_h(
        name, params, parabolic):
    # 1/H scales both increments alike, so only their trend can decide
    model = builtin_model(name, **params)
    for H in (1e-20, 1.0, 1e20):
        rep = parabolicity_integral(model, H, k=2)
        assert rep["parabolic_criterion"] is parabolic, \
            (H, rep["increment_ratio"])


def test_parabolicity_validation():
    with pytest.raises(ValueError, match="at least 1"):
        parabolicity_integral(builtin_model("flat"), 1.0, k=0)
    with pytest.raises(ValueError, match="positive"):
        parabolicity_integral(builtin_model("flat"), -1.0, k=1)
    # sinh overflows all along [T/4, T/2]: the first increment is 0, and
    # no trend can be read from it
    with pytest.raises(ValueError, match="increment"):
        parabolicity_integral(builtin_model("hyperbolic"), 1.0, k=2,
                              t_max=3000.0)


# quad warns that a NaN integrand spoils its error estimate
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_parabolicity_refuses_a_nan_second_increment():
    # a NaN profile passes the sampled sign check; past T/2 it makes the
    # second increment NaN, which must not read as "not divergent"
    with pytest.raises(ValueError, match=r"increment over \[2, 4\] is nan"):
        parabolicity_integral(
            builtin_model("flat"),
            lambda t: np.where(np.asarray(t) > 3.0, np.nan, 1.0), k=1,
            t_max=4.0)
