"""The nodal cubic, its dual 3-cuspidal quartic, fibers and critical values.

The cubic D: y^2 z = x^3 - x^2 z has an isolated real node and three real
flexes; dualizing its standard parametrization produces the quartic C with
three real cusps whose fiber over x is biquadratic in y.  Everything exact
stays exact: the quartic's equation, the discriminant of the projection,
and the vanishing orders at the critical values.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from . import exactpoly as xp
from .mpoly import MPoly, bareiss, determinant, resultant, ring, sylvester_matrix
from .roots import (ApproxRoot, RootFindingError, approximate_roots, disks_apart,
                    gaussian_horner, horner_radius, inclusion_radius)

PLANE_VARS = ("x", "y", "z")
AFFINE_VARS = ("x", "y")
NEWTON_REFINE_STEPS = 8  # exact Newton steps at most per non-real critical value


class CurveError(ValueError):
    pass


@dataclass(frozen=True)
class PlaneCurve:
    equation: MPoly

    @property
    def degree(self):
        return self.equation.degree()

    @property
    def projective(self):
        return len(self.equation.variables) == 3

    def homogenized(self):
        if self.projective:
            return self
        d = self.degree
        terms = {}
        for expo, coeff in self.equation.terms.items():
            terms[(expo[0], expo[1], d - sum(expo))] = coeff
        return PlaneCurve(MPoly(PLANE_VARS, terms))

    def dehomogenized(self):
        if not self.projective:
            return self
        eq = self.equation.compose({"z": Fraction(1)}, PLANE_VARS).dropped("z")
        return PlaneCurve(eq)


@dataclass(frozen=True)
class ParamCurve:
    """Projective rational curve (X(t) : Y(t) : Z(t)) with coprime components."""
    components: tuple

    def __post_init__(self):
        if len(self.components) != 3:
            raise CurveError("need three projective components")
        for c in self.components:
            if c.variables != ("t",):
                raise CurveError("components must be univariate in t")

    def coeff_lists(self):
        return [c.univariate_coeffs("t") for c in self.components]


def _from_coeffs(coeffs):
    return MPoly(("t",), {(i,): c for i, c in enumerate(coeffs)})


def _remove_common_factor(lists):
    g = functools.reduce(xp.gcd, lists)
    if xp.degree(g) < 1:
        return [xp.trim(c) for c in lists]
    out = []
    for c in lists:
        q, r = xp.divmod_exact(c, g)
        assert not r
        out.append(q)
    return out


# -- the two curves of interest ----------------------------------------------

def nodal_cubic():
    """D: y^2 z - x^3 + x^2 z = 0, nodal at the origin with an isolated point."""
    x, y, z = ring(*PLANE_VARS)
    return PlaneCurve(y ** 2 * z - x ** 3 + x ** 2 * z)


def nodal_cubic_param():
    """Standard parametrization (t^2 + 1, t(t^2 + 1), 1) of D."""
    t = MPoly.variable("t", ("t",))
    one = MPoly.constant(1, ("t",))
    return ParamCurve((t ** 2 + 1, t ** 3 + t, one))


def gradient(curve):
    eq = curve.homogenized().equation
    return tuple(eq.partial(v) for v in PLANE_VARS)


def dual_parametrization(cubic, gradient_of):
    """Parametrize the dual curve: the gradient along a parametrized curve.

    Validates that the parametrization actually lies on the curve, then
    removes the common factor of the three components.
    """
    curve = gradient_of.homogenized()
    assignments = {v: c for v, c in zip(PLANE_VARS, cubic.components)}
    pullback = curve.equation.compose(assignments, ("t",))
    if not pullback.is_zero():
        raise CurveError("parametrization does not lie on the curve")
    comps = []
    for g in gradient(curve):
        comps.append(g.compose(assignments, ("t",)).univariate_coeffs("t"))
    reduced = _remove_common_factor(comps)
    return ParamCurve(tuple(_from_coeffs(c) for c in reduced))


def implicitize(param):
    """Eliminate t by a resultant; output primitive with positive leading term."""
    lists = _remove_common_factor(param.coeff_lists())
    vars_ = ("x", "y", "t")
    x, y, t = ring(*vars_)
    X = _from_coeffs(lists[0]).extended(vars_)
    Y = _from_coeffs(lists[1]).extended(vars_)
    Z = _from_coeffs(lists[2]).extended(vars_)
    p = x * Z - X
    q = y * Z - Y
    if p.degree_in("t") < 1 or q.degree_in("t") < 1:
        raise CurveError("parametrization has no t-dependence to eliminate")
    res = resultant(p, q, "t")
    if res.is_zero():
        raise CurveError("degenerate elimination: resultant vanished identically")
    return PlaneCurve(res.primitive())


@functools.lru_cache(maxsize=None)
def cuspidal_quartic():
    """C: (x^2 + y^2)^2 + x^3 + 9 x y^2 + 27/4 y^2 = 0, computed from D's dual."""
    dual = dual_parametrization(nodal_cubic_param(), nodal_cubic())
    curve = implicitize(dual)
    coeffs = curve.equation.as_univariate("y")
    lead = coeffs[-1]
    c = lead.coefficient((0,) * len(lead.variables))
    if len(coeffs) != 5 or lead.degree() != 0 or c == 0:
        raise CurveError("dual curve is not monic-normalizable quartic in y")
    return PlaneCurve(curve.equation * (Fraction(1) / c))


def biquadratic_parts(curve):
    """(A, B) with fiber y^4 + A(x) y^2 + B(x); requires an even monic quartic."""
    coeffs = curve.equation.as_univariate("y")
    if len(coeffs) != 5 or not coeffs[1].is_zero() or not coeffs[3].is_zero():
        raise CurveError("curve is not even and quartic in y")
    if coeffs[4] != MPoly.constant(1, coeffs[4].variables):
        raise CurveError("fiber quartic is not monic in y")
    return coeffs[2], coeffs[0]


def theta(curve):
    """Discriminant Theta(x) = A^2 - 4B of the biquadratic fiber."""
    A, B = biquadratic_parts(curve)
    return A * A - 4 * B


# -- fibers -------------------------------------------------------------------

class FiberPattern(enum.Enum):
    FOUR_IMAGINARY = "FourImaginary"
    TWO_REAL_TWO_IMAGINARY = "TwoRealTwoImaginary"
    FOUR_REAL = "FourReal"
    TWO_DOUBLE_REAL = "TwoDoubleReal"
    COMPLEX_QUADRUPLE = "ComplexQuadruple"


@dataclass
class FiberStructure:
    x: float
    pattern: FiberPattern
    roots: list
    labels: dict = field(default_factory=dict)


def fiber_solve(curve, x0):
    """Fiber roots over x0, each with its exact multiplicity and a certified
    inclusion radius.

    With y^2 = z and z^2 + A z + B = 0: A(x0) and B(x0) are evaluated
    exactly over Q(i) at the float x0, whose parts are dyadic rationals, and
    Theta = A^2 - 4B is taken from those exact values.  Theta(x0) = 0
    doubles both root pairs, and B(x0) = 0 gives the root y = 0 with
    multiplicity 2.  The values come without cancellation: each exact value
    is rounded once, the larger z-root takes -A and -sqrt(Theta) in one half
    plane, and the smaller pair is +-sqrt(B / larger), with the exact B
    scaled by an even power of two (``_scaled_sqrt``), so that neither B
    nor the smaller z-root is rounded to a float where it would underflow.
    Each radius is the exact ``inclusion_radius`` of the fiber polynomial
    at the root.

    Raises CurveError for a curve whose fiber is not biquadratic, and
    OverflowError when A(x0), Theta(x0) or the roots leave double
    precision."""
    A, B = biquadratic_parts(curve)
    (ar, ai), (br, bi) = exact = [_gaussian_value(p, x0) for p in (A, B)]
    th_exact = (ar * ar - ai * ai - 4 * br, 2 * ar * ai - 4 * bi)
    double, zero = th_exact == (0, 0), (br, bi) == (0, 0)
    try:
        a, th = (complex(*map(float, v)) for v in (exact[0], th_exact))
        sq = cmath.sqrt(th)
        if (a.conjugate() * sq).real < 0:
            sq = -sq
        big = (-a - sq) / 2
        ys = [cmath.sqrt(big)]
        if not (double or zero):
            ys.append(_scaled_sqrt(exact[1], big))
    except OverflowError:
        raise OverflowError(
            f"fiber roots over x = {x0} overflow double precision") from None
    mult = 2 if double else 1
    values = [(s, mult) for r in ys for s in (r, -r)]
    values += [(0j, 2 * mult)] if zero else []
    if not all(cmath.isfinite(v) for v, _ in values):
        raise OverflowError(f"fiber roots over x = {x0} overflow double precision")
    fiber = [exact[1], (0, 0), exact[0], (0, 0), (1, 0)]  # y^4 + a y^2 + b
    out = [ApproxRoot(v, inclusion_radius(fiber, v), m) for v, m in values]
    out.sort(key=lambda r: (r.value.real, r.value.imag))
    return out


def _scaled_sqrt(b, w):
    """sqrt(b / w) for the exact nonzero Gaussian rational b = (re, im) and
    the nonzero complex float w.

    b is divided by 4^e, e chosen so that the quotient by w is near 1, and
    only then rounded to a float; the root is scaled back by 2^e.  Where
    float(b) and float(b) / w are normal doubles, this is bit for bit
    sqrt(float(b) / w), since power-of-two scaling commutes with rounding
    there.  Raises OverflowError when the root leaves double precision."""
    size = max(abs(b[0]), abs(b[1]))
    e = (size.numerator.bit_length() - size.denominator.bit_length()
         - math.frexp(abs(w))[1]) // 2
    scale = Fraction(4) ** -e
    root = cmath.sqrt(complex(float(b[0] * scale), float(b[1] * scale)) / w)
    return complex(math.ldexp(root.real, e), math.ldexp(root.imag, e))


def _gaussian_value(poly, x0):
    """Exact (real, imaginary) parts of the polynomial in x at the complex
    float x0."""
    (pr, pi), _, s = gaussian_horner(poly.univariate_coeffs("x"), complex(x0))
    return Fraction(pr, s), Fraction(pi, s)


def classify_real_fiber(curve, x0):
    """Real-root structure of the fiber over the real x0, decided by exact
    rational signs, with the A1/A2/B1/B2 labels on fiber_solve's roots.

    With y^2 = z and z^2 + A z + B = 0: the z-roots are real iff
    Theta = A^2 - 4B >= 0, both positive iff additionally B > 0 > A,
    both negative iff B > 0 < A.  Each pattern names the roots in
    fiber_solve's (real, imag) order by its row of _LABELS, a real root as
    a float; a double root carries two names.
    """
    A, B = biquadratic_parts(curve)
    (a, _), (b, _) = (_gaussian_value(p, x0) for p in (A, B))
    th = a * a - 4 * b
    if th < 0:
        pattern = FiberPattern.COMPLEX_QUADRUPLE
    elif th == 0:
        pattern = FiberPattern.TWO_DOUBLE_REAL
    elif b == 0:
        raise CurveError(f"x0 = {x0} is a critical value; patterns cover open strata")
    elif b < 0:
        pattern = FiberPattern.TWO_REAL_TWO_IMAGINARY
    elif a < 0:
        pattern = FiberPattern.FOUR_REAL
    else:
        pattern = FiberPattern.FOUR_IMAGINARY
    roots = fiber_solve(curve, float(x0))
    labels = {name: r.value if r.value.imag else r.value.real
              for r, names in zip(roots, _LABELS.get(pattern, ())) for name in names.split()}
    return FiberStructure(float(x0), pattern, roots, labels)


_LABELS = {
    FiberPattern.FOUR_REAL: ("A2", "A1", "B1", "B2"),
    FiberPattern.TWO_REAL_TWO_IMAGINARY: ("A2", "B1", "A1", "B2"),
    FiberPattern.FOUR_IMAGINARY: ("B1", "B2", "A2", "A1"),
    FiberPattern.TWO_DOUBLE_REAL: ("A2 A1", "B1 B2"),
}


# -- critical values -----------------------------------------------------------

def sheared_curve(curve, shear):
    """Exact substitution x -> x - shear*y: the fiber of x' = x + shear*y."""
    shear = Fraction(shear)
    x, y = ring(*AFFINE_VARS)
    eq = curve.dehomogenized().equation
    return PlaneCurve(eq.compose({"x": x - shear * y}, AFFINE_VARS))


def discriminant_poly(curve):
    """Disc_y = Res_y(f, f_y) as an exact univariate polynomial in x,
    normalized as ``MPoly.primitive()`` does: content 1, leading
    coefficient positive.

    Computed on integers by evaluation and interpolation: f is scaled to
    integer coefficients, the Sylvester matrix (formal y-degrees) is
    evaluated at D + 1 integer nodes, where D bounds the x-degree of its
    determinant, each integer determinant is taken by Bareiss, and the
    values are interpolated exactly (Collins 1967; Brown & Traub 1971)."""
    eq = curve.dehomogenized().equation
    matrix = sylvester_matrix(eq, eq.partial("y"), "y")
    distinct = list(dict.fromkeys(e for row in matrix for e in row))
    index = {e: i for i, e in enumerate(distinct)}
    rows = [[index[e] for e in row] for row in matrix]
    fracs = [xp.trim(e.univariate_coeffs("x")) for e in distinct]
    den = math.lcm(*(c.denominator for cs in fracs for c in cs))
    polys = [[int(c * den) for c in cs] for cs in fracs]
    # deg entry(r, c) <= a_r + c with a_r = max_c (deg entry(r, c) - c), so
    # every term of the determinant, and so the determinant, has x-degree
    # at most sum a_r + sum c
    bound = sum(max(len(polys[i]) - 1 - c for c, i in enumerate(row) if polys[i])
                for row in rows) + sum(range(len(rows)))
    nodes = [(k + 1) // 2 * (1 if k % 2 else -1) for k in range(bound + 1)]
    values = []
    for x in nodes:
        at = [xp.horner(cs, x) for cs in polys]
        values.append(bareiss([[at[i] for i in row] for row in rows], operator.floordiv))
    coeffs = xp.trim(_interpolate(nodes, values))
    if not coeffs:
        raise CurveError("discriminant vanished identically")
    g = math.gcd(*(c.numerator for c in coeffs))
    if coeffs[-1] < 0:
        g = -g
    return MPoly(("x",), {(i,): c / g for i, c in enumerate(coeffs) if c})


def _interpolate(nodes, values):
    """Ascending coefficients of the polynomial of degree < len(nodes) taking
    the integer values at the integer nodes, if it has integer coefficients:
    then every divided difference is an integer, so the Newton form is
    computed with exact integer division."""
    c = list(values)
    for k in range(1, len(nodes)):
        for i in range(len(nodes) - 1, k - 1, -1):
            c[i] = (c[i] - c[i - 1]) // (nodes[i] - nodes[i - k])
    poly = [c[-1]]
    for k in range(len(nodes) - 2, -1, -1):  # poly <- poly * (x - node_k) + c_k
        poly = [0] + poly
        for i in range(len(poly) - 1):
            poly[i] -= nodes[k] * poly[i + 1]
        poly[0] += c[k]
    return poly


def critical_values(curve, shear=Fraction(0)):
    """Critical values of the sheared projection, with multiplicities.

    The exact discriminant (``discriminant_poly``, on integers) is split by
    Yun's squarefree decomposition, so every order is exact, and each
    factor's roots come from ``_factor_roots``.  Roots of different Yun
    factors are distinct, and so are the roots of one squarefree factor, so
    every value is listed once with its own order, sorted by (real, imag).
    Two values that round to one float raise RootFindingError.  At shear 0
    the curve is taken as it is, so a caller that sheared it already passes
    the sheared curve.
    """
    disc = discriminant_poly(sheared_curve(curve, shear) if shear else curve)
    disc = disc.univariate_coeffs("x")
    out = sorted(((v, m) for f, m in xp.squarefree_decomposition(disc) for v in _factor_roots(f)),
                 key=lambda s: (s[0].real, s[0].imag))
    for (a, _), (b, _) in zip(out, out[1:]):
        if a == b:
            raise RootFindingError(f"two critical values round to {a}: they are "
                                   f"less than {math.ulp(a.real):.3g} apart")
    return out


def _factor_roots(factor):
    """The roots of an exact squarefree polynomial p of degree n.

    The real roots come from one Sturm isolation: a rational root exactly,
    an irrational one as its correctly rounded float (``nearest_float``,
    from the nearest Aberth value).  A non-real pair is an Aberth value z,
    Im z > 0, whose disk of radius r = n|p(z)|/|p'(z)|, exact and rounded
    up, holds a root that is not real: the disk misses the real axis, or
    Sturm counts no real root in [Re z - r, Re z + r].  Together with its
    conjugate the disk must miss every pair accepted before, so the pairs
    hold distinct roots.  The real roots and twice the pairs must add up to
    n, else RootFindingError is raised.  Each accepted z is then refined by
    exact Newton steps that stay in its disk (``_newton_refined``).
    """
    n = xp.degree(factor)
    rational, brackets = xp.rational_roots(factor)
    approx = approximate_roots([float(c) for c in factor]) if len(rational) < n else []
    values = [complex(q) for q in rational]
    for lo, hi in brackets:
        mid = float((lo + hi) / 2)
        guess = min(approx, key=lambda z: abs(z - mid)).real
        values.append(complex(xp.nearest_float(factor, lo, hi, guess)))
    pairs = []
    for z in sorted((z for z in approx if z.imag > 0), key=lambda z: -z.imag):
        if len(values) + 2 * len(pairs) == n:
            break
        horner = gaussian_horner(factor, z)
        r = horner_radius(n, horner)
        if not math.isfinite(r):
            continue
        lo, hi = Fraction(z.real) - Fraction(r), Fraction(z.real) + Fraction(r)
        if z.imag <= r and (xp.sign_at(factor, lo) == 0 or xp.isolate_roots(factor, lo, hi)):
            continue
        if all(disks_apart(z, r, u, s) for w, s, _ in pairs for u in (w, w.conjugate())):
            pairs.append((z, r, _newton_refined(factor, z, r, horner)))
    if len(values) + 2 * len(pairs) != n:
        raise RootFindingError(f"a squarefree factor of degree {n} has {len(values)} real "
                               f"roots and only {len(pairs)} certified non-real pairs")
    return values + [v for _, _, w in pairs for v in (w, w.conjugate())]


def _newton_refined(coeffs, z, r, horner):
    """Exact complex Newton steps w - p(w)/p'(w), each rounded once, from
    the accepted value z with ``horner`` its ``gaussian_horner`` values.
    A step is kept while it moves and its float stays above the real axis
    in the accepted disk of radius r about z, which holds the root."""
    w = z
    for _ in range(NEWTON_REFINE_STEPS):
        (pr, pi), (qr, qi), _ = horner
        q2 = qr * qr + qi * qi
        if not q2:
            break
        # w - P/Q = w - P conj(Q)/|Q|^2; int / int rounds correctly
        (a, b), (c, e) = w.real.as_integer_ratio(), w.imag.as_integer_ratio()
        step = complex((a * q2 - b * (pr * qr + pi * qi)) / (b * q2),
                       (c * q2 - e * (pi * qr - pr * qi)) / (e * q2))
        if step == w or step.imag <= 0 or disks_apart(step, 0.0, z, r):
            break
        w = step
        horner = gaussian_horner(coeffs, w)
    return w


# -- flexes and cusps -----------------------------------------------------------

def hessian_determinant(curve):
    eq = curve.homogenized().equation
    rows = [[eq.partial(v1).partial(v2) for v2 in PLANE_VARS] for v1 in PLANE_VARS]
    return determinant(rows)


def flexes_and_cusps():
    """Flex parameters of D and the cusps of its dual quartic C.

    The affine flexes sit at 3t^2 = 1 (x = 4/3); the third flex is the
    point at infinity t = infinity, whose dual point is the origin cusp
    of C.  Exactness: the Hessian pullback is a rational multiple of
    (3t^2 - 1)(t^2 + 1)^m, checked by exact division.
    """
    cubic = nodal_cubic_param()
    hess = hessian_determinant(nodal_cubic())
    assignments = {v: c for v, c in zip(PLANE_VARS, cubic.components)}
    pullback = hess.compose(assignments, ("t",)).univariate_coeffs("t")
    flex_factor = [Fraction(-1), Fraction(0), Fraction(3)]  # 3t^2 - 1
    q, r = xp.divmod_exact(pullback, flex_factor)
    if r:
        raise CurveError("Hessian pullback is not divisible by 3t^2 - 1")
    while xp.degree(q) >= 2:
        q2, r2 = xp.divmod_exact(q, [Fraction(1), Fraction(0), Fraction(1)])
        if r2:
            raise CurveError("unexpected factor in the Hessian pullback")
        q = q2
    if xp.degree(q) != 0:
        raise CurveError("Hessian pullback kept a stray linear factor")
    flex_params = (-1 / math.sqrt(3), 1 / math.sqrt(3), math.inf)

    dual = dual_parametrization(cubic, nodal_cubic())
    # cusp parameters of C: where the dual parametrization fails to immerse
    comp = dual.coeff_lists()
    dcomp = [xp.derivative(c) for c in comp]
    minors = []
    for i in range(3):
        for j in range(i + 1, 3):
            minors.append(xp.sub(xp.mul(comp[i], dcomp[j]), xp.mul(comp[j], dcomp[i])))
    g = functools.reduce(xp.gcd, minors)
    if xp.degree(g) != 2 or xp.monic(g) != xp.monic(flex_factor):
        raise CurveError("cusp parameters of the dual are not at 3t^2 - 1")
    s3 = math.sqrt(3)
    cusps = ((0.0, 0.0), (-9 / 8, 3 * s3 / 8), (-9 / 8, -3 * s3 / 8))
    # exact coordinates at 3t^2 = 1: x = -9/8, y^2 = 27/64
    xs, ysq = _dual_point_at_flex(dual)
    if xs != Fraction(-9, 8) or ysq != Fraction(27, 64):
        raise CurveError("dual flex points are not (-9/8, +-3 sqrt3/8)")
    return flex_params, cusps


def _dual_point_at_flex(dual):
    """Exact (x, y^2) of the dual curve at the parameters with 3t^2 = 1."""
    # each component's remainder modulo t^2 - 1/3: (constant, t-coefficient)
    (x0, x1), (y0, y1), (z0, z1) = (xp.remainder(c, [Fraction(-1, 3), 0, 1])
                                    for c in dual.coeff_lists())
    if x1 != 0 or z1 != 0 or y0 != 0:
        raise CurveError("unexpected parity structure at the flex parameters")
    xs = x0 / z0
    ysq = (y1 * y1 * Fraction(1, 3)) / (z0 * z0)  # (y1 t)^2 with t^2 = 1/3
    return xs, ysq


@functools.lru_cache(maxsize=None)
def dual_of_dual():
    """Gradient parametrization of C's dual: lands back on the cubic D."""
    param_of_c = dual_parametrization(nodal_cubic_param(), nodal_cubic())
    return dual_parametrization(param_of_c, cuspidal_quartic())
