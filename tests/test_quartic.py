import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

try:
    import mpmath
except ImportError:
    mpmath = None
needs_mpmath = pytest.mark.skipif(mpmath is None, reason="needs mpmath")

from cuspidal import exactpoly as xp
from cuspidal.mpoly import MPoly, determinant, ring
from cuspidal.quartic import (
    CurveError, FiberPattern, ParamCurve, PlaneCurve, _factor_roots, biquadratic_parts,
    classify_real_fiber, critical_values, cuspidal_quartic, discriminant_poly,
    dual_of_dual, dual_parametrization, fiber_solve, flexes_and_cusps, gradient,
    implicitize, nodal_cubic, nodal_cubic_param, sheared_curve, theta,
)
from cuspidal.roots import RootFindingError, disks_apart


def expected_quartic():
    x, y = ring("x", "y")
    return (x ** 2 + y ** 2) ** 2 + x ** 3 + 9 * x * y ** 2 + Fraction(27, 4) * y ** 2


def test_gradient_of_nodal_cubic():
    gx, gy, gz = gradient(nodal_cubic())
    x, y, z = ring("x", "y", "z")
    assert gx == -3 * x ** 2 + 2 * x * z
    assert gy == 2 * y * z
    assert gz == x ** 2 + y ** 2


def test_dual_parametrization_matches_printed_form():
    dual = dual_parametrization(nodal_cubic_param(), nodal_cubic())
    t = MPoly.variable("t", ("t",))
    assert dual.components[0] == -3 * t ** 2 - 1
    assert dual.components[1] == 2 * t
    assert dual.components[2] == (t ** 2 + 1) ** 2


def _point_at(param, t):
    """(X(t), Y(t), Z(t)) of a parametrized curve."""
    return tuple(c.evaluate({"t": t}) for c in param.components)


def test_dual_parametrization_sample_points():
    dual = dual_parametrization(nodal_cubic_param(), nodal_cubic())
    assert _point_at(dual, Fraction(0)) == (-1, 0, 1)
    # t = 1/sqrt(3): affine point (-9/8, 3 sqrt3 / 8)
    X, Y, Z = _point_at(dual, 1 / math.sqrt(3))
    assert abs(X / Z + 9 / 8) < 1e-12
    assert abs(Y / Z - 3 * math.sqrt(3) / 8) < 1e-12


def test_dual_parametrization_validates_curve_membership():
    t = MPoly.variable("t", ("t",))
    one = MPoly.constant(1, ("t",))
    bad = ParamCurve((t, t, one))
    with pytest.raises(CurveError):
        dual_parametrization(bad, nodal_cubic())


def test_implicitize_conic():
    t = MPoly.variable("t", ("t",))
    one = MPoly.constant(1, ("t",))
    conic = implicitize(ParamCurve((t, t ** 2, one)))
    x, y = ring("x", "y")
    assert conic.equation == x * x - y  # positive-leading-grevlex normalization


def test_implicitize_dual_is_the_expected_quartic():
    curve = cuspidal_quartic()
    assert curve.equation == expected_quartic()


def test_substituting_the_parametrization_into_c_gives_zero():
    dual = dual_parametrization(nodal_cubic_param(), nodal_cubic())
    c_proj = cuspidal_quartic().homogenized()
    assignments = {v: comp for v, comp in zip(("x", "y", "z"), dual.components)}
    assert c_proj.equation.compose(assignments, ("t",)).is_zero()


def test_biquadratic_parts_and_theta():
    curve = cuspidal_quartic()
    A, B = biquadratic_parts(curve)
    (x1,) = ring("x")
    assert A == 2 * x1 ** 2 + 9 * x1 + Fraction(27, 4)
    assert B == x1 ** 3 + x1 ** 4
    th = theta(curve)
    assert th == 32 * (x1 + Fraction(9, 8)) ** 3
    assert 2 * th.partial("x") == 3 * (8 * x1 + 9) ** 2
    # A(x) = 2((x + 9/4)^2 - 27/16)
    assert A == 2 * ((x1 + Fraction(9, 4)) ** 2 - Fraction(27, 16))


def test_a_sign_interval():
    curve = cuspidal_quartic()
    A, _ = biquadratic_parts(curve)
    lo = Fraction(3, 4) * (-3 - Fraction(17320508, 10 ** 7))  # just below 3/4(-3-sqrt3)
    inside = [Fraction(-3), Fraction(-2), Fraction(-1)]
    outside = [Fraction(-4), Fraction(-19, 20), Fraction(1)]
    for s in inside:
        assert A.evaluate({"x": s}) < 0
    for s in outside:
        assert A.evaluate({"x": s}) > 0


def test_fiber_solve_at_zero():
    roots = fiber_solve(cuspidal_quartic(), 0.0)
    assert [r.multiplicity for r in roots] == [1, 2, 1]
    assert any(r.multiplicity == 2 and abs(r.value) < 1e-14 for r in roots)
    imag = sorted(r.value.imag for r in roots if r.multiplicity == 1)
    assert abs(imag[1] - 3 * math.sqrt(3) / 2) < 1e-12


def test_fiber_solve_at_minus_nine_eighths():
    roots = fiber_solve(cuspidal_quartic(), -9 / 8)
    assert [r.multiplicity for r in roots] == [2, 2]
    target = 3 * math.sqrt(3) / 8
    values = sorted(r.value.real for r in roots)
    assert abs(values[0] + target) < 1e-10 and abs(values[1] - target) < 1e-10


def test_fiber_solve_at_minus_one():
    roots = fiber_solve(cuspidal_quartic(), -1.0)
    assert [r.multiplicity for r in roots] == [1, 2, 1]
    nonzero = sorted(r.value.real for r in roots if r.multiplicity == 1)
    assert abs(nonzero[0] + 0.5) < 1e-12 and abs(nonzero[1] - 0.5) < 1e-12


def test_fiber_solve_small_pair_near_a_zero_of_b():
    # B(1e-8) ~ 1e-24 against A ~ 27/4: -A + sqrt(Theta) cancels completely,
    # B over the larger z-root does not
    x = 1e-8
    roots = fiber_solve(cuspidal_quartic(), x)
    small = min(roots, key=lambda r: abs(r.value))
    expected = math.sqrt((x ** 4 + x ** 3) / (2 * x * x + 9 * x + 27 / 4))
    assert abs(abs(small.value) - expected) < 1e-9 * expected


@pytest.mark.parametrize("x", [1e-120, 1e-200])
def test_fiber_solve_small_pair_where_b_underflows(x):
    # B(x) ~ x^3 is below the smallest double, the small pair
    # +-i sqrt(B / -z_big) ~ +-0.385 x^1.5 i is not; z_big ~ -27/4 takes no
    # cancellation, so 50 digits give the pair exactly enough
    with localcontext() as ctx:
        ctx.prec = 50
        d = Decimal(x)
        a = 2 * d * d + 9 * d + Decimal(27) / 4
        b = d ** 4 + d ** 3
        y = (2 * b / (a + (a * a - 4 * b).sqrt())).sqrt()
        roots = fiber_solve(cuspidal_quartic(), x)
        small = sorted((r for r in roots if abs(r.value) < 1), key=lambda r: r.value.imag)
        assert [r.multiplicity for r in roots] == [1, 1, 1, 1]
        for r, expected in zip(small, (-y, y), strict=True):
            assert r.value.real == 0
            assert abs(Decimal(r.value.imag) - expected) <= Decimal(r.radius)
            assert abs(Decimal(r.value.imag) - expected) < Decimal(1e-15) * y


@needs_mpmath
@pytest.mark.parametrize("x0", [-0.999999, -1.0000001, -0.5, 0.3 + 0.2j, 1e-8, 1e15,
                                1e15j, 1e19, 1e20j, 1e30, -1e30, 1e30j])
def test_fiber_disks_contain_the_60_digit_roots(x0):
    # near x = -1, B = x^4 + x^3 cancels in floats; exact A, B and Theta at
    # the float x0, each rounded once, keep the small pair at full accuracy;
    # at large |x| the root pairs are only 2.8 / sqrt|x| apart relative to
    # their size, at 1e-8 the small pair is 7.7e-13 apart: each disk still
    # holds its own root
    A, B = biquadratic_parts(cuspidal_quartic())
    with mpmath.workdps(60):
        x = mpmath.mpc(complex(x0))

        def value(poly):
            return mpmath.polyval([mpmath.mpf(c.numerator) / c.denominator
                                   for c in reversed(poly.univariate_coeffs("x"))], x)

        exact = mpmath.polyroots([1, 0, value(A), 0, value(B)], maxsteps=200,
                                 extraprec=200)
        roots = fiber_solve(cuspidal_quartic(), x0)
        assert [r.multiplicity for r in roots] == [1, 1, 1, 1]
        for r in roots:
            nearest = min(exact, key=lambda t: abs(t - mpmath.mpc(r.value)))
            assert abs(nearest - mpmath.mpc(r.value)) <= r.radius
            assert abs(nearest - mpmath.mpc(r.value)) < 1e-15 * abs(nearest)
        matched = {min(range(4), key=lambda i: abs(exact[i] - mpmath.mpc(r.value)))
                   for r in roots}
        assert matched == {0, 1, 2, 3}


@pytest.mark.parametrize("x", [10 ** 10, 10 ** 15])
def test_fiber_solve_far_out_matches_a_50_digit_closed_form(x):
    # Theta ~ 32 x^3 sits far below the rounding of A^2 ~ 4 x^4; all four
    # roots are imaginary, y = +-i sqrt(-z) with z = (-A +- sqrt(Theta)) / 2
    with localcontext() as ctx:
        ctx.prec = 50
        a = Decimal(2 * x * x + 9 * x) + Decimal(27) / 4
        th = (32 * Decimal(x) + 108) * x * x + Decimal(243) / 2 * x + Decimal(729) / 16
        exact = sorted(float(s * ((a + t * th.sqrt()) / 2).sqrt())
                       for s in (1, -1) for t in (1, -1))
    roots = fiber_solve(cuspidal_quartic(), float(x))
    assert [r.multiplicity for r in roots] == [1, 1, 1, 1]
    for r, y in zip(sorted(roots, key=lambda r: r.value.imag), exact):
        assert r.value.real == 0 and abs(r.value.imag - y) < 1e-14 * abs(y)
        assert abs(r.value.imag - y) <= r.radius < 1e-6 * abs(y)


def _mp_fiber_roots(x0):
    """The four fiber roots over x0 from the closed form, at the current
    mpmath precision."""
    A, B = biquadratic_parts(cuspidal_quartic())
    x = mpmath.mpc(complex(x0))
    a, b = (mpmath.polyval([mpmath.mpf(c.numerator) / c.denominator
                            for c in reversed(p.univariate_coeffs("x"))], x)
            for p in (A, B))
    sq = mpmath.sqrt(a * a - 4 * b)
    return [s * mpmath.sqrt((-a + t * sq) / 2) for s in (1, -1) for t in (1, -1)]


# within about 1e-11 of -9/8 the two double-root pairs split by less than
# double precision resolves, and their disks rightly overlap
_signed = st.builds(lambda m, s: s * m, st.floats(1e-8, 1e19),
                    st.sampled_from([1, -1])).filter(lambda x: abs(x + 1.125) > 1e-9)


@needs_mpmath
@given(st.one_of(st.sampled_from([-1.0, -1.125, 0.0]), _signed,
                 st.builds(complex, st.just(0.0), _signed),
                 st.builds(complex, _signed, _signed)))
def test_fiber_solve_disks_are_disjoint_and_hold_the_60_digit_roots(x0):
    roots = fiber_solve(cuspidal_quartic(), x0)
    assert sum(r.multiplicity for r in roots) == 4
    assert all(disks_apart(r.value, r.radius, s.value, s.radius)
               for i, r in enumerate(roots) for s in roots[i + 1:])
    with mpmath.workdps(60):
        exact = _mp_fiber_roots(x0)
        for r in roots:
            assert min(abs(t - mpmath.mpc(r.value)) for t in exact) <= r.radius


def test_fiber_solve_rejects_a_curve_that_is_not_biquadratic():
    x, y = ring("x", "y")
    with pytest.raises(CurveError):
        fiber_solve(PlaneCurve(y ** 4 + y + x), 0.5)


def test_real_fiber_classification_table():
    curve = cuspidal_quartic()
    cases = [
        (0.5, FiberPattern.FOUR_IMAGINARY),
        (-0.5, FiberPattern.TWO_REAL_TWO_IMAGINARY),
        (-1.05, FiberPattern.FOUR_REAL),
        (-9 / 8, FiberPattern.TWO_DOUBLE_REAL),
        (-1.2, FiberPattern.COMPLEX_QUADRUPLE),
    ]
    for x0, expected in cases:
        assert classify_real_fiber(curve, x0).pattern is expected


def test_real_fiber_labels():
    curve = cuspidal_quartic()
    f = classify_real_fiber(curve, -0.5)
    assert f.labels["B2"] > 0 and f.labels["A2"] == -f.labels["B2"]
    assert f.labels["A1"].imag > 0 and f.labels["B1"] == f.labels["A1"].conjugate()
    g = classify_real_fiber(curve, -1.05)
    assert g.labels["B2"] > g.labels["B1"] > 0
    assert g.labels["A1"] == -g.labels["B1"] and g.labels["A2"] == -g.labels["B2"]
    h = classify_real_fiber(curve, -9 / 8)
    assert abs(h.labels["B2"] - 3 * math.sqrt(3) / 8) < 1e-10


@needs_mpmath
@pytest.mark.parametrize("x0", [-0.01, 0.1])
def test_real_fiber_labels_match_the_60_digit_roots(x0):
    # the smaller z-root is 1e-4 of A(x0) or less, so -A + sqrt(Theta) in
    # floats would lose that factor of relative accuracy
    labels = classify_real_fiber(cuspidal_quartic(), x0).labels
    with mpmath.workdps(60):
        exact = _mp_fiber_roots(x0)
        nearest = {name: min(exact, key=lambda t: abs(t - y)) for name, y in labels.items()}
        assert len(set(map(str, nearest.values()))) == 4
        for name, y in labels.items():
            assert abs(nearest[name] - y) <= 1e-15 * abs(nearest[name]), name


def test_critical_values_unsheared():
    vals = critical_values(cuspidal_quartic())
    as_dict = {complex(v).real: m for v, m in vals}
    assert {round(k, 9): v for k, v in as_dict.items()} == {-1.125: 6, -1.0: 1, 0.0: 3}


def test_discriminant_factorization_oracle():
    # Disc_y = 16 B (A^2 - 4B)^2 up to a rational factor, as polynomials in x
    curve = cuspidal_quartic()
    disc = discriminant_poly(curve)
    A, B = biquadratic_parts(curve)
    oracle = (16 * B * theta(curve) ** 2).primitive()
    assert disc == oracle


# -- Disc_y against a Sylvester/MPoly-Bareiss oracle ---------------------------

def _oracle_discriminant(eq):
    """Res_y(f, f_y) as the MPoly determinant of the Sylvester matrix of the
    formal y-degrees, primitive; the zero polynomial when it vanishes."""
    fc = eq.as_univariate("y")[::-1]
    gc = eq.partial("y").as_univariate("y")[::-1]
    m, n = len(fc) - 1, len(gc) - 1
    zero = MPoly.zero(("x",))
    rows = ([[zero] * i + fc + [zero] * (n - 1 - i) for i in range(n)]
            + [[zero] * i + gc + [zero] * (m - 1 - i) for i in range(m)])
    return determinant(rows).primitive()


COEFFICIENTS = st.fractions(-3, 3, max_denominator=5)


@st.composite
def plane_curves(draw):
    """f = sum_j c_j(x) y^j of y-degree 2 to 5: c_j of x-degree up to d - j
    (up to d - j + 1 now and then), the leading coefficient
    lead * (x - r)^e with r in -3..3, so at e > 0 it vanishes at a node;
    sometimes f is a square times a factor, with Disc_y = 0."""
    x, y = ring("x", "y")
    d = draw(st.integers(2, 5))
    f = draw(COEFFICIENTS.filter(bool)) * (x - draw(st.integers(-3, 3))) ** draw(
        st.integers(0, 2)) * y ** d
    for j in range(d):
        top = d - j + draw(st.integers(-1, 1))
        f = f + sum((draw(COEFFICIENTS) * x ** k for k in range(max(top, 0) + 1)),
                    MPoly.zero(("x", "y"))) * y ** j
    if draw(st.integers(0, 9)) == 0:
        g = y + draw(COEFFICIENTS) * x + draw(COEFFICIENTS)
        f = g * g * (y - draw(COEFFICIENTS))
    return PlaneCurve(f)


@settings(max_examples=50, deadline=None)
@given(plane_curves())
def test_discriminant_matches_the_sylvester_oracle(curve):
    oracle = _oracle_discriminant(curve.equation)
    if oracle.is_zero():
        with pytest.raises(CurveError):
            discriminant_poly(curve)
    else:
        disc = discriminant_poly(curve)
        assert disc == oracle and disc.variables == ("x",)


def test_discriminant_of_full_degree_equals_the_oracle():
    # Disc_y of a curve of total degree d reaches the degree bound d(d - 1)
    x, y = ring("x", "y")
    curve = PlaneCurve(y ** 3 - 2 * x ** 3 + x * y ** 2 - 3 * x ** 2 * y + 1)
    disc = discriminant_poly(curve)
    assert disc.degree() == 6
    assert disc == _oracle_discriminant(curve.equation)


def test_discriminant_with_a_leading_coefficient_vanishing_at_nodes():
    # the leading y-coefficient x(x - 1)(x + 1) vanishes at the first three
    # nodes; the formal degree keeps each evaluated matrix a specialization
    x, y = ring("x", "y")
    curve = PlaneCurve((x ** 3 - x) * y ** 2 + Fraction(1, 2) * y - x ** 2 + 3)
    assert discriminant_poly(curve) == _oracle_discriminant(curve.equation)
    # Res_y(a y^2 + b y + c, 2a y + b) = a (4ac - b^2)
    (X,) = ring("x")
    a = X ** 3 - X
    assert discriminant_poly(curve) == (a * (4 * a * (3 - X ** 2) - Fraction(1, 4))).primitive()


@pytest.mark.parametrize("make", [
    lambda x, y: (y - x) ** 2 * (y + 1),
    lambda x, y: x * y ** 2,
    lambda x, y: (y ** 2 - x) ** 2,
])
def test_identically_zero_discriminant_raises(make):
    with pytest.raises(CurveError):
        discriminant_poly(PlaneCurve(make(*ring("x", "y"))))


def test_discriminant_normalization_is_primitive_with_positive_lead():
    x, y = ring("x", "y")
    # Res_y(y^2 + c, 2y) = 4c = -(12/7) x: content 12/7 and the sign divide out
    curve = PlaneCurve(y ** 2 - Fraction(3, 7) * x)
    assert discriminant_poly(curve) == MPoly.variable("x", ("x",))


def test_critical_values_sheared():
    vals = critical_values(cuspidal_quartic(), Fraction(1, 100))
    assert sorted(m for _, m in vals) == [1, 3, 3, 3]
    reals = sorted(complex(v).real for v, _ in vals)
    assert abs(reals[0] + 9 / 8 - (-0.01 * 3 * math.sqrt(3) / 8)) < 1e-6
    assert abs(reals[1] + 9 / 8 + (-0.01 * 3 * math.sqrt(3) / 8)) < 1e-6
    assert abs(reals[2] + 1) < 0.01
    assert abs(reals[3]) < 1e-9
    near_cusp_pair = [v for v, _ in vals if abs(complex(v).real + 9 / 8) < 0.05]
    assert len(near_cusp_pair) == 2


@pytest.mark.parametrize("shear", [Fraction(1, 10), Fraction(1, 100), Fraction(-2, 7)])
def test_critical_values_of_the_sheared_curve_at_shear_0(shear):
    # what a factorization passes: the curve it has sheared once already
    assert (critical_values(sheared_curve(cuspidal_quartic(), shear))
            == critical_values(cuspidal_quartic(), shear))


def test_critical_values_keep_a_split_cusp_pair_closer_than_1e_6():
    # the split cusp values -9/8 -+ (3 sqrt 3 / 8) shear are 4.3e-7 apart:
    # two values of order 3, not one of order 6
    shear = Fraction(1, 3_000_000)
    vals = critical_values(cuspidal_quartic(), shear)
    assert [m for _, m in vals] == [3, 3, 1, 3]
    split = 3 * math.sqrt(3) / 8 * float(shear)
    assert abs(vals[0][0] - (-9 / 8 - split)) < 1e-9
    assert abs(vals[1][0] - (-9 / 8 + split)) < 1e-9


def test_critical_values_of_a_quintic_at_the_rounding_floor():
    # Disc_y is squarefree of degree 20; Aberth's relative steps stall near
    # 1e-12 there while every residual already sits at the Horner error bound
    terms = {(0, 0): 1, (0, 1): 1, (0, 3): 1, (0, 4): -1, (0, 5): 1, (1, 0): 1,
             (1, 1): 2, (1, 2): 1, (1, 3): 2, (1, 4): 2, (2, 0): -1, (2, 1): -2,
             (2, 2): -2, (2, 3): -2, (3, 0): -2, (3, 1): -2, (3, 2): 1,
             (4, 0): 2, (4, 1): 2}
    curve = PlaneCurve(MPoly(("x", "y"), {k: Fraction(c) for k, c in terms.items()}))
    vals = critical_values(curve)
    disc = discriminant_poly(curve).univariate_coeffs("x")
    assert [m for _, m in vals] == [1] * xp.degree(disc)
    real = [v.real for v, _ in vals if v.imag == 0]
    bound = xp.cauchy_bound(disc)
    assert len(real) == len(xp.isolate_roots(disc, -bound, bound))
    for v in real:  # an exact sign change of Disc_y brackets each real value
        h = Fraction(1e-9) * max(1, abs(Fraction(v)))
        assert xp.sign_at(disc, Fraction(v) - h) * xp.sign_at(disc, Fraction(v) + h) < 0
    for v, _ in vals:
        assert min(abs(v.conjugate() - w) for w, _ in vals) < 1e-9 * max(1.0, abs(v))


def test_critical_values_decide_a_near_real_conjugate_pair():
    # a random quintic whose Disc_y has a conjugate pair -2.297 +- 5.1e-7i:
    # its exact inclusion disk misses the real axis, so the pair is certified
    # as two distinct non-real roots
    terms = {(0, 2): -1, (0, 3): -2, (0, 4): 2, (0, 5): 1, (1, 0): -1, (1, 1): 1,
             (1, 3): -1, (1, 4): -2, (2, 0): -2, (2, 2): 1, (2, 3): 1, (3, 0): 1,
             (3, 1): 1, (3, 2): 2, (4, 0): 2, (4, 1): 2, (5, 0): -2}
    curve = PlaneCurve(MPoly(("x", "y"), {k: Fraction(c) for k, c in terms.items()}))
    vals = critical_values(curve)
    disc = discriminant_poly(curve).univariate_coeffs("x")
    assert [m for _, m in vals] == [1] * xp.degree(disc) == [1] * 20
    [low, high] = [v for v, _ in vals if abs(v + 2.297) < 1e-3]
    assert low == high.conjugate() and 4e-7 < high.imag < 6e-7
    assert xp.isolate_roots(disc, -3, -2) == []
    if mpmath is not None:  # the pair at 60 digits, within an ulp of the floats
        with mpmath.workdps(60):
            exact = mpmath.polyroots([mpmath.mpf(c.numerator) / c.denominator
                                      for c in reversed(disc)], maxsteps=400, extraprec=400)
            for v in (low, high):
                t = min(exact, key=lambda t: abs(t - mpmath.mpc(v)))
                assert abs(t.real - v.real) <= math.ulp(v.real)
                assert abs(t.imag - v.imag) <= math.ulp(v.imag)


def _half_ulp_neighbours(v):
    return [(Fraction(v) + Fraction(math.nextafter(v, s))) / 2 for s in (-math.inf, math.inf)]


@pytest.mark.parametrize("exponent", [2, 7, 11, 15])
def test_irrational_critical_values_are_correctly_rounded(exponent):
    # every order is odd here, so Disc_y itself changes sign at each value
    shear = Fraction(1, 10 ** exponent)
    vals = critical_values(cuspidal_quartic(), shear)
    assert [m for _, m in vals] == [3, 3, 1, 3]
    assert all(v.imag == 0 for v, _ in vals)
    disc = discriminant_poly(sheared_curve(cuspidal_quartic(), shear)).univariate_coeffs("x")
    for v, _ in vals:
        if xp.sign_at(disc, v.real) == 0:  # a rational value, exact
            continue
        below, above = _half_ulp_neighbours(v.real)
        assert xp.sign_at(disc, below) * xp.sign_at(disc, above) < 0
        assert len(xp.isolate_roots(disc, below, above)) == 1


@settings(max_examples=40, deadline=None)
@given(st.floats(1, 15))
def test_critical_values_match_exact_sturm_counts_at_every_shear(exponent):
    shear = Fraction(1, round(10 ** exponent))
    vals = critical_values(cuspidal_quartic(), shear)
    disc = discriminant_poly(sheared_curve(cuspidal_quartic(), shear)).univariate_coeffs("x")
    expected, got = {}, {}
    for factor, mult in xp.squarefree_decomposition(disc):
        b = xp.cauchy_bound(factor) + 1
        real = len(xp.isolate_roots(factor, -b, b))
        expected[mult, True] = expected.get((mult, True), 0) + real
        expected[mult, False] = expected.get((mult, False), 0) + xp.degree(factor) - real
    for v, mult in vals:
        got[mult, v.imag == 0] = got.get((mult, v.imag == 0), 0) + 1
    assert got == {k: n for k, n in expected.items() if n}


def test_a_critical_value_far_from_its_float_approximation_is_correctly_rounded():
    # a random quintic whose Disc_y has degree 20: its real root near 0.6055
    # is 0.60552886256408720 at 50 digits, and Aberth on the float-rounded
    # Disc_y lands about 1e5 ulps away from it
    terms = {(0, 0): 2, (0, 1): -2, (0, 2): 1, (0, 3): 2, (0, 4): 2, (0, 5): 1,
             (1, 0): -1, (1, 1): 2, (1, 2): -1, (1, 3): -2, (1, 4): 2, (2, 0): -2,
             (2, 1): 2, (2, 2): -1, (3, 0): -2, (3, 1): 1, (3, 2): 1, (4, 0): -1,
             (4, 1): -1, (5, 0): -1}
    curve = PlaneCurve(MPoly(("x", "y"), {k: Fraction(c) for k, c in terms.items()}))
    real = [v.real for v, _ in critical_values(curve) if v.imag == 0]
    assert real == [-1.6733807656149227, 0.6055288625640872]


def test_an_upper_disk_over_real_roots_is_no_pair():
    # the split cusp factor at shear 1e-15 times x^2 + 1e-20: in floats the
    # split pair is a double root, and Aberth puts a value at -1.125 + 2.6e-9i,
    # above the true pair +-1e-10i; its exact disk reaches the real axis over
    # the two real roots, so Sturm rejects it and +-1e-10i is the pair
    s = Fraction(1, 10 ** 15)
    split = [Fraction(81, 64) - Fraction(27, 64) * s * s, Fraction(9, 4), Fraction(1)]
    lo, hi, up, down = _factor_roots(xp.mul(split, [Fraction(1, 10 ** 20), 0, Fraction(1)]))
    assert lo.imag == hi.imag == 0 and lo.real < -1.125 < hi.real
    assert abs(up - 1e-10j) < 1e-20 and down == up.conjugate()


def test_overlapping_disks_do_not_count_as_two_pairs():
    # pairs 1 +- i and 1 + 1e-15 +- i: the two Aberth values about 1 + i are
    # 1e-8 apart and their exact disks overlap, so only one pair is certified
    e = Fraction(1, 10 ** 15)
    p = xp.mul([Fraction(2), Fraction(-2), Fraction(1)], [(1 + e) ** 2 + 1, -2 * (1 + e), 1])
    with pytest.raises(RootFindingError, match="only 1 certified non-real pairs"):
        _factor_roots(p)


def test_split_cusp_values_that_round_to_one_float_raise():
    with pytest.raises(RootFindingError, match="round to"):
        critical_values(cuspidal_quartic(), Fraction(1, 10 ** 20))


def test_sheared_curve_is_exact_substitution():
    curve = cuspidal_quartic()
    sheared = sheared_curve(curve, Fraction(1, 100))
    x, y = ring("x", "y")
    direct = curve.equation.compose({"x": x - Fraction(1, 100) * y}, ("x", "y"))
    assert sheared.equation == direct


def test_flexes_and_cusps():
    flex_params, cusps = flexes_and_cusps()
    finite = sorted(p for p in flex_params if math.isfinite(p))
    assert abs(finite[0] + 1 / math.sqrt(3)) < 1e-15
    assert abs(finite[1] - 1 / math.sqrt(3)) < 1e-15
    assert math.inf in flex_params
    assert (0.0, 0.0) in cusps
    ys = sorted(c[1] for c in cusps if c[0] != 0.0)
    assert abs(ys[0] + 3 * math.sqrt(3) / 8) < 1e-15
    assert abs(ys[1] - 3 * math.sqrt(3) / 8) < 1e-15


def test_biduality_lands_on_the_cubic():
    bidual = dual_of_dual()
    d_eq = nodal_cubic().equation
    assignments = {v: comp for v, comp in zip(("x", "y", "z"), bidual.components)}
    assert d_eq.compose(assignments, ("t",)).is_zero()


def test_pluecker_degree_of_dual_of_c_is_three():
    bidual = dual_of_dual()
    curve = implicitize(bidual)
    assert curve.degree == 3
    assert curve.equation == nodal_cubic().dehomogenized().equation.primitive() \
        or curve.equation == implicitize(nodal_cubic_param()).equation
