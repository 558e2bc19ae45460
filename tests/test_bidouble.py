import random
from fractions import Fraction

from cuspidal import exactpoly as xp
from cuspidal.bidouble import (
    BASE_VARS, PHI3, CuspPoint, delta_normal_form,
    different, discriminant_norm, find_cusps,
    multiplication_matrices, scaling_identity_residual,
)
from cuspidal.mpoly import MPoly, ring


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def mat_sub(a, b):
    return [[a[i][j] - b[i][j] for j in range(4)] for i in range(4)]


def mat_scale_identity(c, vars_):
    zero = MPoly.zero(vars_)
    return [[c if i == j else zero for j in range(4)] for i in range(4)]


def delta_c(c=None):
    """One-parameter normal form delta_c(U, V) with a = 1, b = c (a symbol
    when c is None): -U^2 V^2 - 9/8 U V c^2 + c^2 V^3 + U^3 + 27/256 c^4."""
    if c is None:
        u, v, c = ring("u", "v", "c")
    else:
        u, v = ring("u", "v")
        c = Fraction(c)
    return (-(u ** 2) * v ** 2 - Fraction(9, 8) * u * v * c ** 2
            + c ** 2 * v ** 3 + u ** 3 + Fraction(27, 256) * c ** 4)


def _expected_matrices():
    """The known multiplication matrices, columns = images of (1, z, w, zw)."""
    u, v, a, b = ring(*BASE_VARS)
    zero = MPoly.zero(BASE_VARS)
    one = MPoly.constant(1, BASE_VARS)
    m_z = [[zero, v, zero, a * u],
           [one, zero, zero, a * b],
           [zero, a, zero, v],
           [zero, zero, one, zero]]
    m_w = [[zero, zero, u, b * v],
           [zero, zero, b, u],
           [one, zero, zero, a * b],
           [zero, one, zero, zero]]
    m_zw = [[zero, a * u, b * v, u * v],
            [zero, a * b, u, b * v],
            [zero, v, a * b, a * u],
            [one, zero, zero, a * b]]
    return m_z, m_w, m_zw


def test_multiplication_matrices_match_expected_form():
    assert multiplication_matrices() == _expected_matrices()


def test_m_z_top_right_entry():
    m_z, m_w, m_zw = multiplication_matrices()
    u, v, a, b = ring(*BASE_VARS)
    assert m_z[0][3] == a * u


def test_mult_table_identities():
    m_z, m_w, m_zw = multiplication_matrices()
    u, v, a, b = ring(*BASE_VARS)
    zero = [[MPoly.zero(BASE_VARS)] * 4 for _ in range(4)]
    m_z2 = mat_mul(m_z, m_z)
    expected = mat_sub(mat_scale_identity(v, BASE_VARS),
                       [[-(a * e) for e in row] for row in m_w])
    assert m_z2 == expected  # M_z^2 = v I + a M_w
    m_w2 = mat_mul(m_w, m_w)
    expected_w = mat_sub(mat_scale_identity(u, BASE_VARS),
                         [[-(b * e) for e in row] for row in m_z])
    assert m_w2 == expected_w  # M_w^2 = u I + b M_z
    assert mat_sub(mat_mul(m_z, m_w), m_zw) == zero
    assert mat_sub(mat_mul(m_w, m_z), m_zw) == zero


def test_mult_table_identities_at_random_specializations():
    rng = random.Random(20)
    m_z, m_w, m_zw = multiplication_matrices()
    for _ in range(20):
        point = {n: Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
                 for n in BASE_VARS}

        def ev(m):
            return [[e.evaluate(point) for e in row] for row in m]

        mz = ev(m_z)
        mw = ev(m_w)
        mzw = ev(m_zw)
        prod = [[sum(mz[i][k] * mw[k][j] for k in range(4)) for j in range(4)]
                for i in range(4)]
        assert prod == mzw


def test_different_is_4zw_minus_ab():
    r = different()
    u, v, a, b, z, w = ring("u", "v", "a", "b", "z", "w")
    assert r == 4 * z * w - a * b
    # the undeformed cover a = b = 0
    assert r.compose({"a": 0, "b": 0}, r.variables) == 4 * z * w
    assert r.evaluate({"u": 0, "v": 0, "a": 1, "b": 1,
                       "z": Fraction(1, 2), "w": Fraction(1, 2)}) == 0


def test_discriminant_normal_form():
    delta, p = discriminant_norm()
    u, v, al, be = ring("u", "v", "alpha", "beta")
    expected = (-(u ** 2) * v ** 2 - Fraction(9, 8) * u * v * al * be
                + be * v ** 3 + al * u ** 3 + Fraction(27, 256) * al ** 2 * be ** 2)
    assert p == expected
    # Delta = 4^4 det(...) and -Delta/16^2 = P, so Delta = -256 P
    back = expected.compose(
        {"u": MPoly.variable("u", BASE_VARS), "v": MPoly.variable("v", BASE_VARS),
         "alpha": MPoly.variable("a", BASE_VARS) ** 2,
         "beta": MPoly.variable("b", BASE_VARS) ** 2}, BASE_VARS)
    assert delta == -256 * back


def test_p_symmetry_and_homogeneity():
    _, p = discriminant_norm()
    swapped = p.compose({"u": MPoly.variable("v", p.variables),
                         "v": MPoly.variable("u", p.variables),
                         "alpha": MPoly.variable("beta", p.variables),
                         "beta": MPoly.variable("alpha", p.variables)}, p.variables)
    assert p == swapped
    assert {sum(expo) for expo in p.terms} == {4}


def test_partial_derivative_identities():
    _, p = discriminant_norm()
    du = p.partial("u")
    u, v, al, be = ring("u", "v", "alpha", "beta")
    # dP/du = -2uv^2 - 9/8 (ab)^2 v + 3 a^2 u^2 with alpha = a^2, beta = b^2
    assert du == -2 * u * v ** 2 - Fraction(9, 8) * al * be * v + 3 * al * u ** 2
    lhs = u * du - v * p.partial("v")
    assert lhs == 3 * al * u ** 3 - 3 * be * v ** 3
    lhs2 = al * p.partial("alpha") - be * p.partial("beta")
    assert lhs2 == al * u ** 3 - be * v ** 3


def test_delta_c_and_delta():
    u, v = ring("u", "v")
    assert delta_c(1) == u ** 3 + v ** 3 - u ** 2 * v ** 2 - Fraction(9, 8) * u * v + Fraction(27, 256)
    assert delta_c(0) == u ** 3 - u ** 2 * v ** 2
    assert delta_normal_form() == delta_c(1)


def test_scaling_identity():
    assert scaling_identity_residual().is_zero()


def test_delta_c_from_substitution():
    # P(a^2 U, a^2 V, a^2, c^2 a^2) = a^8 delta_c(U, V)
    _, p = discriminant_norm()
    target = ("u", "v", "a", "c")
    u, v, a, c = ring(*target)
    subbed = p.compose({"u": a ** 2 * u, "v": a ** 2 * v,
                        "alpha": a ** 2, "beta": c ** 2 * a ** 2}, target)
    dc = delta_c().compose({"u": u, "v": v, "c": c}, target)
    assert subbed == a ** 8 * dc


def test_cusps_exact():
    cusps = find_cusps()
    assert len(cusps) == 3
    real = [c for c in cusps if c.zeta_power == 0][0]
    assert real.u == real.v == (Fraction(3, 4), 0)
    # zeta = (0, 1) and zeta^2 = -1 - zeta = (-1, -1)
    q = Fraction(3, 4)
    powers = [(q, 0), (0, q), (-q, -q)]
    for c in cusps:
        assert c.u == powers[2 * c.zeta_power % 3]
        assert c.v == powers[c.zeta_power]


def test_cusps_numeric_residuals():
    delta = delta_normal_form()
    du, dv = delta.partial("u"), delta.partial("v")
    for c in find_cusps():
        uc, vc = c.as_complex()
        for f in (delta, du, dv):
            assert abs(f.evaluate({"u": uc, "v": vc})) < 1e-12


def test_delta_residual_at_real_cusp_is_zero_exactly():
    delta = delta_normal_form()
    val = delta.evaluate({"u": Fraction(3, 4), "v": Fraction(3, 4)})
    assert val == 0


def test_norm_interpretation_of_generator_determinants():
    # det(M_z) = v^2 - a^2 u = Norm(z), det(M_w) = u^2 - b^2 v = Norm(w)
    from cuspidal.mpoly import determinant
    m_z, m_w, m_zw = multiplication_matrices()
    u, v, a, b = ring(*BASE_VARS)
    assert determinant(m_z) == v ** 2 - a ** 2 * u
    assert determinant(m_w) == u ** 2 - b ** 2 * v
    # they vanish exactly on the images of {z = 0} resp. {w = 0}
    rng = random.Random(77)
    for _ in range(20):
        w0 = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
        a0 = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
        b0 = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
        pt = {"u": w0 * w0, "v": -a0 * w0, "a": a0, "b": b0}
        assert determinant(m_z).evaluate(pt) == 0
        z0 = w0
        pt_w = {"u": -b0 * z0, "v": z0 * z0, "a": a0, "b": b0}
        assert determinant(m_w).evaluate(pt_w) == 0


def test_remainder_is_the_value_in_the_number_field():
    # zeta^3 = 1 and zeta + zeta^2 = -1 in Q[z]/(z^2 + z + 1)
    assert xp.remainder([0, 0, 0, 1], PHI3) == (1, 0)
    assert xp.remainder([0, 1, 1], PHI3) == (-1, 0)
    assert xp.remainder([], PHI3) == (0, 0)
    # t^2 = 1/3 in Q[t]/(t^2 - 1/3)
    assert xp.remainder([0, 0, 1], [Fraction(-1, 3), 0, 1]) == (Fraction(1, 3), 0)
    zeta = CuspPoint((0, 1), (-1, -1), 1).as_complex()
    assert abs(zeta[0] ** 3 - 1) < 1e-15 and abs(zeta[0] ** 2 - zeta[1]) < 1e-15
