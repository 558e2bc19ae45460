"""The acceptance checklist: every headline identity of the pipeline.

Each criterion and each surface step returns (passed, witness) through
`run_check`, which turns an exception into a failed check; tolerances are
pinned here.  Exact statements are checked exactly; the numeric ones carry
the stated residual bounds.  `run_all` powers both the test suite and the
CLI's reproduce-all subcommand.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

from . import bidouble, braids, groups, monodromy, quartic, surface
from .mpoly import MPoly, ring

TOL_CUSP_RESIDUAL = 1e-12
TOL_DOUBLE_ROOT = 1e-10
TOL_SURFACE_RESIDUAL = 1e-10
MAX_COSETS = 10 ** 4
GENERATOR_NAMES = ("a1", "a2", "b2", "b1")


@dataclass
class CheckResult:
    name: str
    passed: bool
    witness: dict
    seconds: float


def affine_complement_presentation():
    return groups.Presentation(GENERATOR_NAMES, (
        (1, 2, 1, -2, -1, -2),
        (4, 3, 4, -3, -4, -3),
        (2, 3, 2, -3, -2, -3),
        (3, 4, -3, -1),
    ))


def fixture_monodromy_factors():
    tangency = braids.halftwist_around_arc(braids.ArcSpec((1, 4), (1, -1)), 4)
    return [
        braids.halftwist_around_arc(braids.ArcSpec((1, 2)), 4) ** 3,
        braids.halftwist_around_arc(braids.ArcSpec((3, 4)), 4) ** 3,
        tangency,
        braids.halftwist_around_arc(braids.ArcSpec((2, 3)), 4) ** 3,
    ]


@lru_cache(maxsize=None)
def computed_factorization():
    return monodromy.monodromy_factorization()


def criterion_discriminant_identity():
    """4^4 det(M_zw - ab/4 I) = -16^2 P(u, v, a^2, b^2), exactly."""
    delta, p = bidouble.discriminant_norm()
    u, v, al, be = ring("u", "v", "alpha", "beta")
    expected_p = (-(u ** 2) * v ** 2 - Fraction(9, 8) * u * v * al * be
                  + be * v ** 3 + al * u ** 3 + Fraction(27, 256) * al ** 2 * be ** 2)
    back = expected_p.compose(
        {"u": MPoly.variable("u", bidouble.BASE_VARS),
         "v": MPoly.variable("v", bidouble.BASE_VARS),
         "alpha": MPoly.variable("a", bidouble.BASE_VARS) ** 2,
         "beta": MPoly.variable("b", bidouble.BASE_VARS) ** 2},
        bidouble.BASE_VARS)
    ok = (p == expected_p) and (delta == -256 * back)
    return ok, {"P": p.canonical_str(), "identity": "Delta = -256 P"}


def criterion_scaling_identity():
    """P(lam^4 u0, lam^2 v0, 1, lam^6) = lam^12 delta(u0, v0), exactly."""
    residual = bidouble.scaling_identity_residual()
    return residual.is_zero(), {"residual": residual.canonical_str()}


def criterion_cusp_locations(cusps=None):
    """Three cusps at (3/4 zeta^2, 3/4 zeta): exact plus float residuals.
    Checks ``cusps``, or those `bidouble.find_cusps` returns when it is None."""
    if cusps is None:
        cusps = bidouble.find_cusps()
    delta = bidouble.delta_normal_form()
    du, dv = delta.partial("u"), delta.partial("v")
    worst = 0.0
    points = []
    for c in cusps:
        uc, vc = c.as_complex()
        points.append([uc.real, uc.imag, vc.real, vc.imag])
        for f in (delta, du, dv):
            worst = max(worst, abs(f.evaluate({"u": uc, "v": vc})))
    real = [c for c in cusps if c.zeta_power == 0]
    ok = (len(cusps) == 3 and len(real) == 1
          and real[0].u == real[0].v == (Fraction(3, 4), 0)
          and worst < TOL_CUSP_RESIDUAL)
    return ok, {"count": len(cusps), "max_residual": worst, "points": points}


def criterion_curve_duality():
    """Implicitization reproduces the quartic; biduality lands back on D."""
    x, y = ring("x", "y")
    target = (x ** 2 + y ** 2) ** 2 + x ** 3 + 9 * x * y ** 2 + Fraction(27, 4) * y ** 2
    curve = quartic.cuspidal_quartic()
    same = curve.equation == target
    bidual = quartic.dual_of_dual()
    d_eq = quartic.nodal_cubic().equation
    assignments = {v: c for v, c in zip(("x", "y", "z"), bidual.components)}
    pullback_zero = d_eq.compose(assignments, ("t",)).is_zero()
    return same and pullback_zero, {
        "quartic": curve.equation.canonical_str(),
        "bidual_pullback_zero": pullback_zero,
    }


def criterion_real_fiber_table():
    """Fiber patterns at the five sample abscissae, doubles within 1e-10."""
    curve = quartic.cuspidal_quartic()
    expected = {
        0.5: quartic.FiberPattern.FOUR_IMAGINARY,
        -0.5: quartic.FiberPattern.TWO_REAL_TWO_IMAGINARY,
        -1.05: quartic.FiberPattern.FOUR_REAL,
        -9 / 8: quartic.FiberPattern.TWO_DOUBLE_REAL,
        -1.2: quartic.FiberPattern.COMPLEX_QUADRUPLE,
    }
    fibers = {x0: quartic.classify_real_fiber(curve, x0) for x0 in expected}
    got = {str(x0): fiber.pattern.value for x0, fiber in fibers.items()}
    double = fibers[-9 / 8].labels["B2"]
    ok = (all(fibers[x0].pattern is pattern for x0, pattern in expected.items())
          and abs(double - 3 * math.sqrt(3) / 8) < TOL_DOUBLE_ROOT)
    return ok, {"patterns": got, "double_root": double}


def criterion_theta_identities():
    """2 Theta' = 3(8x+9)^2, Theta = 32(x + 9/8)^3, disc orders (3, 1, 6)."""
    curve = quartic.cuspidal_quartic()
    th = quartic.theta(curve)
    (x,) = ring("x")
    ok_theta = th == 32 * (x + Fraction(9, 8)) ** 3
    ok_deriv = 2 * th.partial("x") == 3 * (8 * x + 9) ** 2
    vals = quartic.critical_values(curve)
    orders = {round(complex(v).real, 9): m for v, m in vals}
    ok_orders = orders == {0.0: 3, -1.0: 1, -1.125: 6}
    return ok_theta and ok_deriv and ok_orders, {
        "theta": th.canonical_str(), "orders": orders}


def criterion_braid_monodromy(result=None):
    """Four factors, one around each critical value: exponent sum and
    conjugate generator power equal to the value's exact discriminant order,
    3 at the three cusp values and 1 at the tangency (signs consistent),
    transposition permutations multiplying to a fixed-point-free double
    transposition.  Checks ``result``, or the default factorization when it
    is None."""
    if result is None:
        result = computed_factorization()
    sums = result.exponent_sums()
    targets = [loop.target.real for loop in result.loops]
    expected = [loop.multiplicity for loop in result.loops]
    order_ok = sorted(expected) == [1, 3, 3, 3]
    powers = []
    for f in result.factors:
        w = braids.conjugate_power_witness(f)
        powers.append(None if w is None else w[0])
    signs_ok = order_ok and powers in (expected, [-p for p in expected])
    perms = [braids.permutation_image(f) for f in result.factors]
    perms_ok = all(braids.is_transposition(p) for p in perms)
    prod = braids.compose_permutations(perms, 4)
    prod_ok = all(prod[i] != i and prod[prod[i]] == i for i in range(4))
    ok = (order_ok and sums == expected and signs_ok and perms_ok and prod_ok)
    return ok, {
        "exponent_sums": sums,
        "critical_values": targets,
        "conjugate_powers": powers,
        "permutations": [braids.cycle_notation(p) for p in perms],
        "product": braids.cycle_notation(prod),
    }


def criterion_sigma_action():
    """The tangency half-twist acts by the four displayed substitutions."""
    tw = braids.halftwist_around_arc(braids.ArcSpec((1, 4), (1, -1)), 4)
    expected = {
        1: (1, 3, 4, -3, -1),
        2: (1, 3, -4, -3, 2, 3, 4, -3, -1),
        3: (3,),
        4: (-3, 1, 3),
    }
    got = {i: braids.artin_action(tw, (i,)) for i in range(1, 5)}
    return got == expected, {
        "braid": list(tw.letters),
        "images": {str(k): list(v) for k, v in got.items()},
    }


def criterion_group_fingerprints():
    """Abelianization Z, then Z/4 and order 12 projectively, for both the
    fixture factorization and the numerically computed one.  The order is
    the size of a closed coset table on which every relator acts trivially;
    an enumeration beyond MAX_COSETS raises, so the check fails."""
    witness = {}
    ok = True
    for name, factors in (("fixture", fixture_monodromy_factors()),
                          ("computed", computed_factorization().factors)):
        p = groups.van_kampen(factors, 4, GENERATOR_NAMES)
        ab = groups.abelianization(p)
        proj = groups.add_projective_relation(p)
        ab_proj = groups.abelianization(proj)
        order, _ = groups.coset_action(proj, max_cosets=MAX_COSETS)
        witness[name] = {"abelianization": ab, "projective": ab_proj, "order": order}
        ok = ok and ab == [0] and ab_proj == [4] and order == 12
    return ok, witness


def criterion_s4_uniqueness(homs=None):
    """Exactly one transitive transposition class, the distinguished one.
    Checks ``homs`` = (classes, tuple_count), or the search into S_4 of the
    affine complement group when it is None."""
    if homs is None:
        homs = groups.enumerate_homs_to_sym(affine_complement_presentation(), 4)
    classes, tuple_count = homs
    mu = (braids.transposition(4, 1, 2), braids.transposition(4, 2, 3),
          braids.transposition(4, 2, 4), braids.transposition(4, 1, 4))
    ok = len(classes) == 1 and mu in groups.conjugates(next(iter(classes.values())), 4)
    return ok, {"classes": len(classes), "satisfying_tuples": tuple_count,
                "images": [braids.cycle_notation(g) for g in mu]}


def surface_steps(seed=0):
    """Run the twisted-cubic surface steps, each exact or below 1e-10:
    (CheckResults, Gauss ranks)."""
    rng = random.Random(seed)
    samples = [surface.random_symmetric_matrix(rng) for _ in range(5)]
    points = []
    for _ in range(5):
        s = Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
        h = Fraction(rng.randrange(1, 7), rng.randrange(1, 4))
        points.append(surface.tangent_point(s, h))
    ranks = []

    def gauss_rank_one():
        p_x = surface.p_in_x_coordinates()
        ranks.extend(surface.gauss_rank_at(p_x, pt) for pt in points)
        return all(r == 1 for r in ranks)

    steps = (
        ("det_conic_square", surface.net_determinant_identity),
        ("gradient_on_gamma", surface.gradient_vanishing_on_cuspidal_curve),
        ("dg_minors", surface.developable_map_checks),
        ("tangent_surface", surface.tangent_surface_identity),
        ("pinch_developable_zero", lambda: surface.pinch_discriminant(
            surface.express_p_in_quadrics()).is_zero()),
        ("pinch_square_zero", lambda: surface.pinch_discriminant(
            ((1, 0, 0), (0, 0, 0), (0, 0, 0))).is_zero()),
        ("pinch_random_simple", lambda: all(
            surface.pinch_roots_are_simple(f)
            == surface.dual_meets_veronese_transversally(f) for f in samples)),
        ("unique_conic", surface.unique_quartic_check),
        ("gauss_rank_one", gauss_rank_one),
        ("veronese_model", surface.veronese_bidouble_model_check),
        ("cone_vertices", surface.cone_vertex_check),
        ("conormal_zeros", surface.conormal_zero_property),
        ("tangency_vs_pinch", lambda: surface.tangency_matches_pinch_symbolically() != 0),
    )
    return [run_check(name, lambda step=step: (step(), {})) for name, step in steps], ranks


def criterion_surface_suite(seed=0):
    """Every surface step passes; the witness maps each step to its verdict,
    or to its exception witness when it raised."""
    steps, ranks = surface_steps(seed)
    return all(r.passed for r in steps), {
        "steps": {r.name: r.witness or r.passed for r in steps}, "gauss_ranks": ranks}


def criteria(seed=0):
    """The checklist as (name, thunk) pairs, the surface suite bound to seed."""
    return (
        ("discriminant_identity", criterion_discriminant_identity),
        ("scaling_identity", criterion_scaling_identity),
        ("cusp_locations", criterion_cusp_locations),
        ("curve_duality", criterion_curve_duality),
        ("real_fiber_table", criterion_real_fiber_table),
        ("theta_identities", criterion_theta_identities),
        ("braid_monodromy", criterion_braid_monodromy),
        ("sigma_action", criterion_sigma_action),
        ("group_fingerprints", criterion_group_fingerprints),
        ("s4_uniqueness", criterion_s4_uniqueness),
        ("surface_suite", partial(criterion_surface_suite, seed)),
    )


def exception_witness(exc):
    """The witness of a check that raised: exception type name and message."""
    return {"exception": type(exc).__name__, "message": str(exc)}


def run_check(name, thunk):
    """Call thunk() -> (passed, witness) and time it; an exception becomes a
    failed check whose witness is exception_witness(exc)."""
    start = time.perf_counter()
    try:
        passed, witness = thunk()
    except Exception as exc:
        passed, witness = False, exception_witness(exc)
    return CheckResult(name, bool(passed), witness, time.perf_counter() - start)


def run_all(seed=0):
    """Run the full checklist and return CheckResults in criterion order."""
    return [run_check(name, thunk) for name, thunk in criteria(seed)]
