"""Root isolation on integer signs against a Fraction-Sturm oracle, and the
integer-PRS gcd against Fraction Euclid.

The oracle below evaluates a Sturm chain built over Q at every bisection
point, as the module did before its signs moved to integers; isolating
intervals and refinements must come out identical.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cuspidal import exactpoly as xp

# -- the Fraction-Sturm oracle ------------------------------------------------


def _trim(p):
    p = [Fraction(c) for c in p]
    while p and p[-1] == 0:
        p.pop()
    return p


def _value(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _divmod(p, q):
    r, quot = list(p), [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    while len(r) >= len(q):
        k, f = len(r) - len(q), r[-1] / q[-1]
        quot[k] = f
        for i, c in enumerate(q):
            r[k + i] -= f * c
        r = _trim(r)
    return _trim(quot), r


def _derivative(p):
    return _trim([i * c for i, c in enumerate(p)][1:])


def _squarefree(p):
    a, b = p, _derivative(p)
    while b:
        a, b = b, _divmod(a, b)[1]
    return _divmod(p, a)[0]


def _oracle_gcd(p, q):
    """Monic gcd by Euclid over Q."""
    a, b = _trim(p), _trim(q)
    while b:
        a, b = b, _divmod(a, b)[1]
    return [c / a[-1] for c in a]


def _oracle_chain(p):
    chain = [_squarefree(_trim(p))]
    chain.append(_derivative(chain[0]))
    while chain[-1]:
        chain.append([-c for c in _divmod(chain[-2], chain[-1])[1]])
    return [c for c in chain if c]


def _oracle_var(chain, x):
    signs = [v > 0 for v in (_value(q, x) for q in chain) if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _oracle_count(p, a, b):
    chain = _oracle_chain(p)
    return _oracle_var(chain, a) - _oracle_var(chain, b)


def _oracle_isolate(p, a, b):
    chain = _oracle_chain(p)
    out = []

    def split(lo, hi, n):
        if n == 1:
            out.append((lo, hi))
        elif n > 1:
            mid = (lo + hi) / 2
            nl = _oracle_var(chain, lo) - _oracle_var(chain, mid)
            split(lo, mid, nl)
            split(mid, hi, n - nl)

    split(a, b, _oracle_var(chain, a) - _oracle_var(chain, b))
    return sorted(out)


def _oracle_refine(p, lo, hi, bound):
    chain = _oracle_chain(p)
    while hi - lo > bound:
        mid = (lo + hi) / 2
        if _oracle_var(chain, lo) - _oracle_var(chain, mid) == 1:
            hi = mid
        else:
            lo = mid
    return lo, hi


# -- polynomials with known roots ----------------------------------------------

# dyadic roots land exactly on bisection midpoints of (-b, b]
ROOTS = st.one_of(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(-1, 2),
                                   Fraction(1), Fraction(-3, 4), Fraction(5, 8)]),
                  st.fractions(-3, 3, max_denominator=64))


def _product(lead, factors):
    p = [Fraction(lead)]
    for f in factors:
        p = xp.mul(p, f)
    return p


@st.composite
def polynomials(draw, squarefree=False):
    """lead * prod (x - r)^m * (x^2 - c) with rational r and c not a square."""
    roots = draw(st.lists(ROOTS, min_size=0, max_size=5, unique=True))
    mults = [1 if squarefree else draw(st.integers(1, 3)) for _ in roots]
    factors = [[-r, Fraction(1)] for r, m in zip(roots, mults) for _ in range(m)]
    if draw(st.booleans()) or not factors:
        c = draw(st.sampled_from([Fraction(2), Fraction(3, 5), Fraction(-7)]))
        factors.append([-c, Fraction(0), Fraction(1)])
    lead = draw(st.fractions(-5, 5, max_denominator=7).filter(bool))
    return _product(lead, factors), sorted(roots)


INTERVAL_ENDS = st.one_of(ROOTS, st.fractions(-5, 5, max_denominator=1000))


@settings(max_examples=150, deadline=None)
@given(polynomials(), INTERVAL_ENDS, INTERVAL_ENDS)
def test_count_and_isolation_match_fraction_sturm(case, a, b):
    p, _ = case
    a, b = min(a, b), max(a, b)
    intervals = xp.isolate_roots(p, a, b)
    assert len(intervals) == _oracle_count(p, a, b)
    assert intervals == _oracle_isolate(p, a, b)
    assert all(_oracle_count(p, lo, hi) == 1 for lo, hi in intervals)


@settings(max_examples=60, deadline=None)
@given(polynomials(), st.sampled_from([Fraction(1, 10 ** 8), Fraction(1, 1000), Fraction(1, 3)]))
def test_refinement_matches_fraction_sturm(case, bound):
    p, roots = case
    b = xp.cauchy_bound(p) + 1
    for lo, hi in xp.isolate_roots(p, -b, b):
        assert xp.refine_root(p, lo, hi, bound) == _oracle_refine(p, lo, hi, bound)
    # a left end that is itself a root of another factor
    for lo, hi in zip(roots, roots[1:]):
        if _oracle_count(p, lo, hi) == 1:
            assert xp.refine_root(p, lo, hi, bound) == _oracle_refine(p, lo, hi, bound)


@settings(max_examples=100, deadline=None)
@given(polynomials(), INTERVAL_ENDS)
def test_sign_at_matches_exact_evaluation(case, x):
    p, _ = case
    v = _value(p, x)
    assert xp.sign_at(p, x) == (v > 0) - (v < 0)


@settings(max_examples=100, deadline=None)
@given(polynomials(squarefree=True))
def test_rational_roots_of_known_linear_factors(case):
    p, roots = case
    found, brackets = xp.rational_roots(p)
    assert found == roots
    b = xp.cauchy_bound(p) + 1
    assert len(found) + len(brackets) == _oracle_count(p, -b, b)
    for lo, hi in brackets:  # each holds one root of p, and it is irrational
        assert _oracle_count(p, lo, hi) == 1
        assert not any(lo < r <= hi for r in roots)


def test_rational_roots_keep_each_candidate_in_its_interval():
    # near 19/40 the denominator-8 candidate is 1/2, the other root
    p = xp.mul([Fraction(-19, 40), Fraction(1)], [Fraction(-1, 2), Fraction(1)])
    assert xp.rational_roots(p) == ([Fraction(19, 40), Fraction(1, 2)], [])


def test_rational_roots_find_a_denominator_above_a_million():
    # (1234567x - 1)(x^2 + 1): the root's denominator divides the leading
    # coefficient, so refining to the grid Z/1234567 decides it
    p = xp.mul([Fraction(-1), Fraction(1234567)], [Fraction(1), Fraction(0), Fraction(1)])
    assert xp.rational_roots(p) == ([Fraction(1, 1234567)], [])


def test_rational_roots_of_a_linear_polynomial():
    assert xp.rational_roots([Fraction(3), Fraction(2)]) == ([Fraction(-3, 2)], [])


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 10 ** 12).filter(lambda c: math.isqrt(c) ** 2 != c),
       st.one_of(st.floats(allow_nan=True), st.just(None)), st.booleans())
def test_nearest_float_is_the_correctly_rounded_root(c, guess, coarse):
    # sqrt(c) is irrational, and math.sqrt rounds it correctly for an
    # integer c; the guess may be anywhere, even NaN or infinite
    p = [Fraction(-c), Fraction(0), Fraction(1)]
    [(lo, hi)] = xp.isolate_roots(p, 0, c)
    if not coarse:
        lo, hi = xp.refine_root(p, lo, hi, Fraction(1, 10 ** 6))
    guess = float((lo + hi) / 2) if guess is None else guess
    assert xp.nearest_float(p, lo, hi, guess) == math.sqrt(c)


def test_rational_roots_bracket_the_irrational_roots_for_nearest_float():
    # (3x - 1)(x^2 - 2)(x^2 + 1): one rational root, two irrational ones
    p = _product(1, [[Fraction(-1), Fraction(3)], [Fraction(-2), Fraction(0), Fraction(1)],
                     [Fraction(1), Fraction(0), Fraction(1)]])
    found, brackets = xp.rational_roots(p)
    assert found == [Fraction(1, 3)]
    assert [xp.nearest_float(p, lo, hi, 0.0) for lo, hi in brackets] == [
        -math.sqrt(2), math.sqrt(2)]


@settings(max_examples=100, deadline=None)
@given(polynomials(), polynomials(), polynomials(), st.sampled_from([0, 1, 2]))
def test_gcd_matches_fraction_euclid(shared, left, right, power):
    # shared factors, repeated roots, and cofactors that may share more
    g = _product(1, [shared[0]] * power)
    p, q = xp.mul(g, left[0]), xp.mul(g, right[0])
    got = xp.gcd(p, q)
    assert got == _oracle_gcd(p, q)
    assert all(type(c) is Fraction for c in got)
    assert xp.divmod_exact(got, xp.monic(g))[1] == []


@given(polynomials())
def test_gcd_with_zero_is_the_monic_operand(case):
    p, _ = case
    assert xp.gcd(p, []) == xp.gcd([], p) == xp.monic(p)
    assert xp.gcd([], []) == []
