import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cuspidal.roots import (
    RootFindingError, _eval_error_bound, conjugate_partners, disks_apart, inclusion_radius,
    roots_univariate,
)


def _from_roots(roots, lead):
    """Ascending coefficients of lead * prod (x - r)."""
    coeffs = [lead]
    for r in roots:
        coeffs = [0j] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= r * coeffs[i + 1]
    return coeffs


def test_simple_mode_rejects_double_roots():
    with pytest.raises(RootFindingError):
        roots_univariate([1, -2, 1])  # (y-1)^2


def test_leading_zero_rejected():
    with pytest.raises(ValueError):
        roots_univariate([1, 2, 0])


def test_random_polynomials_recover_their_roots():
    rng = random.Random(42)
    for _ in range(20):
        true = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(rng.randrange(2, 7))]
        got = roots_univariate(_from_roots(true, 1 + 0j))
        assert sum(r.multiplicity for r in got) == len(true)
        for r in true:
            assert min(abs(r - g.value) for g in got) < 1e-7


def test_conjugation_symmetry_real_coefficients():
    rng = random.Random(9)
    for _ in range(10):
        coeffs = [rng.uniform(-3, 3) for _ in range(5)] + [1.0]
        roots = roots_univariate(coeffs)
        vals = [r.value for r in roots for _ in range(r.multiplicity)]
        for v in vals:
            assert min(abs(v.conjugate() - w) for w in vals) < 1e-8


def test_eval_error_bound_of_normal_size_is_the_relative_term():
    rng = random.Random(5)
    for _ in range(200):
        coeffs = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) * 10.0 ** rng.randint(-20, 20)
                  for _ in range(rng.randrange(1, 8))]
        z = complex(rng.gauss(0, 1), rng.gauss(0, 1)) * 10.0 ** rng.uniform(-5, 5)
        s = 0.0
        for c in reversed(coeffs):
            s = s * abs(z) + abs(c)
        assert _eval_error_bound(coeffs, z) == 4.0 * len(coeffs) * 2.220446049250313e-16 * s


_small = st.integers(-9, 9)


def _polys(coeff, zero):
    """Ascending coefficient lists of degree 2 to 6."""
    return st.lists(coeff, min_size=3, max_size=7).filter(lambda c: c[-1] != zero)


_integer_or_gaussian = _polys(_small, 0) | _polys(st.tuples(_small, _small), (0, 0))
_float_points = st.complex_numbers(max_magnitude=20, allow_nan=False, allow_infinity=False)
_exact_points = st.tuples(*[st.fractions(-20, 20, max_denominator=64)] * 2)


def _mp(c):
    """c (int, Fraction, float or complex, or a (real, imaginary) pair) as an
    mpmath number, exact or at the working precision."""
    parts = c if isinstance(c, tuple) else (c.real, c.imag)
    return mpmath.mpc(*(mpmath.mpf(x.numerator) / x.denominator if isinstance(x, Fraction)
                        else mpmath.mpf(x) for x in parts))


@settings(max_examples=60, deadline=None)
@given(coeffs=_integer_or_gaussian, z=_float_points | _exact_points)
def test_the_inclusion_disk_holds_a_50_digit_root(coeffs, z):
    with mpmath.workdps(50):
        roots = mpmath.polyroots([_mp(c) for c in reversed(coeffs)], maxsteps=400, extraprec=200)
        # a multiple root is resolved only to a fraction of the digits
        assume(all(abs(a - b) > 1e-10 for i, a in enumerate(roots) for b in roots[i + 1:]))
        radius = inclusion_radius(coeffs, z)
        assert min(abs(_mp(z) - t) for t in roots) <= radius + mpmath.mpf(10) ** -30
    as_complex = [complex(*c) if isinstance(c, tuple) else c for c in coeffs]
    assert inclusion_radius(as_complex, z) == radius


@pytest.mark.parametrize("coeffs, radius", [
    ([-1e-200, 1], 1e-200),  # the squared radius underflows
    ([1e300, 1], 1e300),  # the squared radius overflows
    ([1e300, 1e-300], math.inf),  # the radius overflows
])
def test_the_inclusion_radius_outside_the_squared_float_range(coeffs, radius):
    assert inclusion_radius(coeffs, 0j) == radius


_gaussian_roots = st.lists(st.builds(complex, _small, _small), min_size=2, max_size=6)


@given(roots=_gaussian_roots, lead=st.builds(complex, _small, _small).filter(bool),
       exact=st.booleans())
def test_the_inclusion_radius_is_zero_at_a_root(roots, lead, exact):
    z = roots[0]
    assert inclusion_radius(_from_roots(roots, lead), (Fraction(z.real), Fraction(z.imag))
                            if exact else z) == 0.0


@given(a=st.builds(complex, _small, _small), c=st.builds(complex, _small, _small).filter(bool),
       rest=_gaussian_roots)
def test_the_inclusion_radius_is_infinite_where_the_derivative_vanishes(a, c, rest):
    # p = c + (x - a)^2 q has p(a) = c and p'(a) = 0
    p = _from_roots([a, a] + rest[:4], 1)
    p[0] += c
    assert inclusion_radius(p, a) == math.inf


def _real_quartic(quadratic, a, b):
    """Ascending exact coefficients of quadratic(y) (y - a)(y - b)."""
    linear = [a * b, -(a + b), 1]
    out = [Fraction(0)] * 5
    for i, c in enumerate(quadratic):
        for j, d in enumerate(linear):
            out[i + j] += Fraction(c) * Fraction(d)
    return out


def _in_the_undecided_band(z, r, w, s):
    """Neither of the float prefilter's tests settles these disks."""
    return (r + s) / 2 <= abs(z - w) <= 2 * (r + s)


@pytest.mark.parametrize("z, r, w, further, s", [
    (0j, 2.0, 3 + 4j, complex(3, math.nextafter(4, 5)), 3.0),  # |z - w| = 5
    (1 + 1j, 0.25, -2.5 + 1j, complex(math.nextafter(-2.5, -3), 1), 3.25),
])
def test_tangent_disks_are_not_apart_and_one_ulp_further_they_are(z, r, w, further, s):
    assert _in_the_undecided_band(z, r, w, s) and _in_the_undecided_band(z, r, further, s)
    assert not disks_apart(z, r, w, s) and not disks_apart(w, s, z, r)
    assert disks_apart(z, r, further, s) and disks_apart(further, s, z, r)


def test_disks_apart_adds_the_radii_exactly():
    # the float sum 0.1 + 0.2 rounds up to the distance 0.30000000000000004;
    # the exact sum of the two floats is smaller, so the disks are apart
    z, w = 0j, 0.30000000000000004 + 0j
    assert abs(z - w) == 0.1 + 0.2 and _in_the_undecided_band(z, 0.1, w, 0.2)
    assert disks_apart(z, 0.1, w, 0.2)


def test_conjugate_partners_decides_a_separated_real_fiber():
    # roots 0.7 +- 0.3i, -1.3 and 2.1
    coeffs = _real_quartic([Fraction(58, 100), Fraction(-14, 10), 1],
                           Fraction(-13, 10), Fraction(21, 10))
    values = [r.value for r in roots_univariate(coeffs)]
    radii = [inclusion_radius(coeffs, z) for z in values]
    partners = conjugate_partners(values, radii)
    by_value = dict(zip(values, partners))
    for z, j in by_value.items():
        if abs(z.imag) < 1e-9:
            assert values[j] == z  # real
        else:
            assert abs(values[j] - z.conjugate()) < 1e-12  # its conjugate
    assert sorted(partners) == [0, 1, 2, 3]


def test_conjugate_partners_refuses_a_near_real_cluster():
    # roots w +- 1e-12 i with w = 0.7, -1.3 and 2.1, with the coefficients
    # rounded to floats as a tracked fiber has them: there the cluster is
    # not resolved, its inclusion disks overlap, and it is neither merged
    # into one real root nor paired
    w, d = Fraction(7, 10), Fraction(1, 10 ** 12)
    coeffs = [float(c) for c in _real_quartic([w * w + d * d, -2 * w, 1],
                                              Fraction(-13, 10), Fraction(21, 10))]
    values = [complex(0.7, 1e-12), complex(0.7, -1e-12), -1.3 + 0j, 2.1 + 0j]
    radii = [inclusion_radius(coeffs, z) for z in values]
    assert radii[0] > 1e-6 and radii[1] > 1e-6
    assert conjugate_partners(values, radii) is None
    # trusted as disks of radius 1e-13, the same centers are a decided pair
    assert conjugate_partners(values, [1e-13] * 2 + radii[2:]) == [1, 0, 2, 3]
    # a disk that meets the axis and the conjugate of another is not decided
    assert conjugate_partners([0.5 + 1e-3j, 0.5 - 0.5j, 0.5 + 0.5j],
                              [2e-3, 0.1, 0.1]) == [0, 2, 1]
    assert conjugate_partners([0.5 + 0.4j, 0.5 - 0.5j, 0.5 + 0.6j],
                              [0.45, 0.01, 0.01]) is None
