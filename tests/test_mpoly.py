import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspidal.mpoly import MPoly, VariableMismatchError, determinant, resultant, ring


def _random_poly(rng, variables, max_deg=3, nterms=4):
    terms = {}
    for _ in range(nterms):
        expo = tuple(rng.randrange(0, max_deg + 1) for _ in variables)
        terms[expo] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
    return MPoly(variables, terms)


def test_difference_of_squares():
    u, v = ring("u", "v")
    assert (u + v) * (u - v) == u * u - v * v


def test_additive_inverse_gives_zero():
    u, v = ring("u", "v")
    p = 3 * u ** 2 * v - Fraction(9, 8) * u * v + 27
    assert (p + (-1) * p).is_zero()


def test_mismatched_variables_raise():
    (u,) = ring("u")
    (w,) = ring("w")
    with pytest.raises(VariableMismatchError):
        u + w


def test_add_sub_roundtrip_random():
    rng = random.Random(7)
    for _ in range(25):
        p = _random_poly(rng, ("x", "y", "z"))
        q = _random_poly(rng, ("x", "y", "z"))
        assert (p + q) - q == p


def test_product_evaluation_matches():
    rng = random.Random(11)
    for _ in range(25):
        p = _random_poly(rng, ("x", "y"))
        q = _random_poly(rng, ("x", "y"))
        pt = {"x": Fraction(rng.randrange(-5, 6), 3), "y": Fraction(rng.randrange(-5, 6), 4)}
        assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)


def test_partial_derivative_linearity_and_leibniz():
    rng = random.Random(13)
    for _ in range(20):
        p = _random_poly(rng, ("x", "y"))
        q = _random_poly(rng, ("x", "y"))
        assert (p + q).partial("x") == p.partial("x") + q.partial("x")
        assert (p * q).partial("y") == p.partial("y") * q + p * q.partial("y")


def test_partial_of_constant_is_zero():
    u, v = ring("u", "v")
    c = MPoly.constant(Fraction(27, 256), ("u", "v"))
    assert c.partial("u").is_zero()
    assert c.partial("v").is_zero()


def test_unknown_variable_errors():
    u, v = ring("u", "v")
    with pytest.raises(VariableMismatchError):
        u.partial("t")


def test_determinant_2x2_different():
    z, w, a, b = ring("z", "w", "a", "b")
    two = MPoly.constant(2, z.variables)
    det = determinant([[two * z, -a], [-b, two * w]])
    assert det == 4 * z * w - a * b


def test_determinant_identity():
    vs = ("x",)
    one = MPoly.constant(1, vs)
    zero = MPoly.zero(vs)
    assert determinant([[one, zero], [zero, one]]) == one


def test_determinant_nonsquare_rejected():
    (x,) = ring("x")
    with pytest.raises(ValueError):
        determinant([[x, x]])


def test_determinant_matches_permutation_formula():
    rng = random.Random(3)
    vs = ("x", "y")
    m = [[_random_poly(rng, vs, max_deg=1, nterms=2) for _ in range(3)] for _ in range(3)]
    # cofactor expansion by hand along the first row
    def det2(a, b, c, d):
        return a * d - b * c
    expected = (m[0][0] * det2(m[1][1], m[1][2], m[2][1], m[2][2])
                - m[0][1] * det2(m[1][0], m[1][2], m[2][0], m[2][2])
                + m[0][2] * det2(m[1][0], m[1][1], m[2][0], m[2][1]))
    assert determinant(m) == expected


def _laplace(m):
    """Cofactor expansion along the first row: the determinant oracle."""
    if len(m) == 1:
        return m[0][0]
    acc = MPoly.zero(m[0][0].variables)
    for k, entry in enumerate(m[0]):
        if not entry.is_zero():
            minor = [row[:k] + row[k + 1:] for row in m[1:]]
            acc = acc + entry * _laplace(minor) * (-1) ** k
    return acc


ENTRIES = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 1)),
    st.fractions(-4, 4, max_denominator=3), max_size=3,
).map(lambda terms: MPoly(("x", "y", "z"), terms))


@st.composite
def matrices(draw):
    """Square matrices with many zero entries (zero pivots) and, sometimes,
    a row that is a combination of two others (singular)."""
    n = draw(st.integers(1, 5))
    zero = MPoly.zero(("x", "y", "z"))
    m = [[draw(st.one_of(st.just(zero), ENTRIES)) for _ in range(n)] for _ in range(n)]
    if n >= 3 and draw(st.booleans()):
        i, j, k = draw(st.permutations(range(n)))[:3]
        c = draw(ENTRIES)
        m[k] = [a + c * b for a, b in zip(m[i], m[j])]
    return m


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_determinant_matches_laplace_expansion(m):
    assert determinant(m) == _laplace(m)


def test_determinant_with_zero_pivots_and_a_zero_column():
    x, y = ring("x", "y")
    zero = MPoly.zero(x.variables)
    swapped = [[zero, x, y], [y, zero, x], [x, y, zero]]  # every pivot needs a swap
    assert determinant(swapped) == _laplace(swapped) == x ** 3 + y ** 3
    singular = [[zero, x, y], [zero, y, x], [zero, x + y, x * y]]
    assert determinant(singular).is_zero()


def test_resultant_substitution_cases():
    x, y = ring("x", "y")
    # Res_y(y^2 - x, y + 1) -> value of y^2 - x at y = -1
    (x1,) = ring("x")
    r = resultant(y * y - x, y + 1, "y")
    assert r == 1 - x1
    # Res_y(y - a, y - b) = a - b with p's coefficients in the top rows
    a, b, y2 = ring("a", "b", "y")
    r2 = resultant(y2 - a, y2 - b, "y")
    aa, bb = ring("a", "b")
    assert r2 == aa - bb


def test_resultant_specialization_random():
    rng = random.Random(5)
    x, y = ring("x", "y")
    for _ in range(10):
        p = _random_poly(rng, ("x", "y"), max_deg=2)
        q = _random_poly(rng, ("x", "y"), max_deg=2)
        if p.degree_in("y") < 1 or q.degree_in("y") < 1:
            continue
        res = resultant(p, q, "y")
        x0 = Fraction(rng.randrange(-4, 5), rng.randrange(1, 5))
        pu = [c.evaluate({"x": x0}) for c in p.as_univariate("y")]
        qu = [c.evaluate({"x": x0}) for c in q.as_univariate("y")]
        if pu[-1] == 0 or qu[-1] == 0:
            continue  # specialization dropped degree; Sylvester sizes differ
        punp = MPoly(("y",), {(i,): c for i, c in enumerate(pu)})
        qunp = MPoly(("y",), {(i,): c for i, c in enumerate(qu)})
        direct = resultant(punp, qunp, "y")
        val = direct.coefficient(())
        assert res.evaluate({"x": x0}) == val


def test_biquadratic_discriminant_oracle():
    # Disc_y(y^4 + A y^2 + B) = 16 B (A^2 - 4B)^2, as Res(p, dp/dy) for monic p
    y, A, B = ring("y", "A", "B")
    p = y ** 4 + A * y ** 2 + B
    res = resultant(p, p.partial("y"), "y")
    a, b = ring("A", "B")
    expected = 16 * b * (a * a - 4 * b) ** 2
    assert res == expected


def test_align_and_extend():
    (u,) = ring("u")
    (v,) = ring("v")
    pu, pv = u.extended(("u", "v")), v.extended(("u", "v"))
    assert pu.variables == pv.variables == ("u", "v")
    u2, v2 = ring("u", "v")
    assert pu + pv == u2 + v2


def test_compose_substitution():
    x, y = ring("x", "y")
    p = x * x + y
    q = p.compose({"x": y, "y": x * x}, ("x", "y"))
    assert q == y * y + x * x


def test_canonical_str_is_stable():
    u, v = ring("u", "v")
    delta = u ** 3 + v ** 3 - u ** 2 * v ** 2 - Fraction(9, 8) * u * v + Fraction(27, 256)
    s = delta.canonical_str()
    assert s == "-u^2*v^2 + u^3 + v^3 - 9/8*u*v + 27/256"
    assert MPoly.zero(("u",)).canonical_str() == "0"


def test_content_and_primitive():
    x, y = ring("x", "y")
    p = Fraction(4, 1) * x ** 2 + 8 * x * y + Fraction(27, 4) * y ** 2
    assert p.content() == Fraction(1, 4)
    prim = p.primitive()
    assert prim.content() == 1
    assert prim.leading_term()[1] > 0
