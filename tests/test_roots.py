import random

import pytest

from cuspidal.roots import RootFindingError, _eval_error_bound, roots_univariate


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
        coeffs = [1 + 0j]
        for r in true:
            coeffs = [0j] + coeffs
            for i in range(len(coeffs) - 1):
                coeffs[i] -= r * coeffs[i + 1]
        got = roots_univariate(coeffs)
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
