import random
from fractions import Fraction

import pytest

from cuspidal.bidouble import StructureError
from cuspidal.linalg import rank
from cuspidal.mpoly import MPoly, determinant, ring
from cuspidal.surface import (
    L_VARS, NET, T_VARS, VERONESE, X_VARS, _conic_matrix, adjugate,
    cone_vertex_check, conormal_frame, conormal_sections, conormal_zero_property,
    developable_map_checks, dual_meets_veronese_transversally,
    express_p_in_quadrics, gamma_tilde, gauss_rank_at,
    gradient_vanishing_on_cuspidal_curve, net_determinant_identity, net_member,
    p_in_x_coordinates, pairing, pinch_discriminant, pinch_roots_are_simple,
    quadrics_through_twisted_cubic, random_symmetric_matrix,
    tangency_matches_pinch_symbolically, tangent_point,
    tangent_surface_identity, twisted_cubic, unique_conic_through,
    unique_quartic_check, v3_point, veronese_bidouble_model_check,
)


def proportional_matrices(m1, m2):
    flat1 = [e for row in m1 for e in row]
    flat2 = [e for row in m2 for e in row]
    pivot = next((k for k, e in enumerate(flat2) if e != 0), None)
    if pivot is None:
        return all(e == 0 for e in flat1)
    if flat1[pivot] == 0:
        return False
    c = flat1[pivot] / flat2[pivot]
    return all(a == c * b for a, b in zip(flat1, flat2))


def tangency_condition(f, t):
    """Discriminant of the conic C_F restricted to the line dual to
    gamma-tilde(t); zero iff the conic is tangent there."""
    m = _conic_matrix(f)
    lam = gamma_tilde(t)
    pivot = max(range(3), key=lambda i: abs(lam[i]))
    others = [i for i in range(3) if i != pivot]
    k1 = [Fraction(0)] * 3
    k1[others[0]] = lam[pivot]
    k1[pivot] = -lam[others[0]]
    k2 = [Fraction(0)] * 3
    k2[others[1]] = lam[pivot]
    k2[pivot] = -lam[others[1]]

    def pair(u, v):
        return sum(m[i][j] * u[i] * v[j] for i in range(3) for j in range(3))

    return pair(k1, k2) ** 2 - pair(k1, k1) * pair(k2, k2)


def test_the_net_holds_the_stated_quadrics():
    x0, x1, x2, x3 = ring(*X_VARS)
    assert quadrics_through_twisted_cubic() == (
        x1 * x3 - x2 ** 2, -x0 * x3 + x1 * x2, x0 * x2 - x1 ** 2)


def test_quadrics_vanish_on_cubic():
    # every Q in the net pulls back to zero on v3
    sub = dict(zip(X_VARS, twisted_cubic()))
    for q in quadrics_through_twisted_cubic():
        assert q.compose(sub, T_VARS).is_zero()


def _quadric_value(q, point):
    return pairing(point, q, point)


def test_q1_point_values():
    q0, q1, q2 = NET
    assert _quadric_value(q1, (1, 1, 1, 1)) == 0
    assert _quadric_value(q1, (1, 0, 0, 1)) == -1
    assert _quadric_value(q0, v3_point(Fraction(2, 3))) == 0


def test_catalecticant_rank_one_on_cubic():
    for t in (0, 1, -1, Fraction(2, 5), 3):
        p = v3_point(t)
        m = [[p[0], p[1], p[2]], [p[1], p[2], p[3]]]
        assert rank(m) == 1


def test_net_determinant_is_a_square():
    assert net_determinant_identity() is True
    # the squared conic is the one VERONESE holds
    ls = ring(*L_VARS)
    conic = sum((VERONESE[i][j] * ls[i] * ls[j] for i in range(3) for j in range(3)),
                MPoly.zero(L_VARS))
    assert determinant(net_member(ls)) == Fraction(1, 16) * conic ** 2


def test_determinant_values_on_axes():
    quartic = determinant(net_member(ring(*L_VARS)))
    assert quartic.evaluate({"l0": 1, "l1": 0, "l2": 0}) == 0  # Q0 is a cone
    assert quartic.evaluate({"l0": 0, "l1": 1, "l2": 0}) == Fraction(1, 16)


def test_gamma_tilde_vertex_family():
    # M(t0^2, t0 t1, t1^2) kills v3(t) identically
    t0, t1 = ring(*T_VARS)
    lam = dict(zip(L_VARS, (t0 * t0, t0 * t1, t1 * t1)))
    comps = twisted_cubic()
    for row in net_member(ring(*L_VARS)):
        acc = MPoly.zero(T_VARS)
        for entry, comp in zip(row, comps):
            acc = acc + entry.compose(lam, T_VARS) * comp
        assert acc.is_zero()
    assert cone_vertex_check()


def test_conormal_frame_and_sections_by_value():
    # E1 = (t1^2, -2 t0 t1, t0^2, 0) and E2 = (0, t1^2, -2 t0 t1, t0^2)
    assert conormal_frame() == (((0, 0, 1), (0, -2, 0), (1, 0, 0), (0, 0, 0)),
                                ((0, 0, 0), (0, 0, 1), (0, -2, 0), (1, 0, 0)))
    # M_k v3 = a_k E1 + b_k E2 with (a_k, b_k) = (0, t1/2), (-t1/2, -t0/2), (t0/2, 0)
    h = Fraction(1, 2)
    assert conormal_sections() == (((0, 0), (0, h)), ((0, -h), (-h, 0)), ((h, 0), (0, 0)))


def test_developable_map_checks():
    assert developable_map_checks() is True


def test_gradient_vanishes_on_gamma():
    assert gradient_vanishing_on_cuspidal_curve() is True


def test_p_is_tangent_surface():
    assert tangent_surface_identity()


def test_p_expressed_in_quadrics():
    conic = express_p_in_quadrics()
    # P = 432 (Q1^2 - 4 Q0 Q2) in the verified coordinates
    expected = ((0, 0, -864), (0, 432, 0), (-864, 0, 0))
    assert conic == tuple(tuple(map(Fraction, r)) for r in expected)
    assert proportional_matrices(conic, adjugate(VERONESE))


def test_pinch_discriminant_vanishes_for_squares():
    f = ((1, 0, 0), (0, 0, 0), (0, 0, 0))  # F = Q0^2
    assert pinch_discriminant(f).is_zero()


def test_pinch_discriminant_vanishes_for_the_developable():
    conic = express_p_in_quadrics()
    assert pinch_discriminant(conic).is_zero()


def test_pinch_discriminant_rejects_zero_matrix():
    with pytest.raises(ValueError):
        pinch_discriminant(((0, 0, 0), (0, 0, 0), (0, 0, 0)))


def test_random_surfaces_have_four_simple_pinch_points():
    rng = random.Random(2026)
    hits = 0
    for _ in range(5):
        f = random_symmetric_matrix(rng)
        if pinch_roots_are_simple(f):
            hits += 1
    assert hits == 5


def test_double_pinch_points_iff_the_dual_conic_is_tangent():
    # H = V + c l2^2 touches the Veronese conic V at (1, 0, 0) to order 4;
    # F = adj(H) has dual conic H, so Delta(F) has a multiple root
    for c in (1, -3, Fraction(2, 5)):
        h = tuple(tuple(VERONESE[i][j] + (c if i == j == 2 else 0) for j in range(3))
                  for i in range(3))
        f = adjugate(h)
        assert not pinch_roots_are_simple(f)
        assert not dual_meets_veronese_transversally(f)
    f = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert pinch_roots_are_simple(f) and dual_meets_veronese_transversally(f)


def test_conormal_zero_property():
    assert conormal_zero_property()


def test_tangency_condition_on_the_developable():
    conic = express_p_in_quadrics()
    for t in (0, 1, -1, Fraction(3, 7), 5):
        assert tangency_condition(conic, t) == 0


def test_tangency_condition_generic_nonzero():
    f = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    vals = [tangency_condition(f, t) for t in (0, 1, 2, Fraction(1, 3))]
    assert any(v != 0 for v in vals)


def test_tangency_matches_pinch():
    c = tangency_matches_pinch_symbolically()
    assert c == -4
    # spot check: vanishing loci agree at rational parameters
    rng = random.Random(7)
    for _ in range(5):
        f = random_symmetric_matrix(rng)
        delta = pinch_discriminant(f)
        for t in (1, -2, Fraction(2, 3)):
            dval = delta.evaluate({"t0": Fraction(1), "t1": Fraction(t)})
            tval = tangency_condition(f, t)
            assert (dval == 0) == (tval == 0)


def test_worked_pinch_determinant_corrects_the_factor():
    # the 2x2 pinch matrix of the worked coordinates: cones at t = (1:0),
    # (0:1), (1:1); at t1 = 0 the evaluated sections are (1, b0), (0, 0),
    # (1, b2).  Its determinant is (b0 - b2)^2 (l00 l22 - l02^2/4); the
    # printed form with l00^2 in the second factor does not match
    vars_ = ("b0", "b2", "l00", "l02", "l22")
    b0, b2, l00, l02, l22 = ring(*vars_)
    a = (MPoly.constant(1, vars_), MPoly.zero(vars_), MPoly.constant(1, vars_))
    b = (b0, MPoly.zero(vars_), b2)
    lam = {(0, 0): l00, (0, 2): l02, (2, 2): l22}
    m11 = m12 = m22 = MPoly.zero(vars_)
    for (i, j), l in lam.items():
        m11 = m11 + l * a[i] * a[j]
        m12 = m12 + l * (a[i] * b[j] + a[j] * b[i]) * Fraction(1, 2)
        m22 = m22 + l * b[i] * b[j]
    det = m11 * m22 - m12 * m12
    assert det == (b0 - b2) ** 2 * (l00 * l22 - Fraction(1, 4) * l02 ** 2)
    assert det != (b0 - b2) ** 2 * (l00 * l22 - 4 * l00 ** 2)


def test_unique_conic_through_five_points():
    assert unique_quartic_check()


def test_four_points_leave_a_pencil():
    dim, _ = unique_conic_through((0, 1, -1, 2))
    assert dim == 2


def test_duplicate_parameters_rejected():
    with pytest.raises(ValueError):
        unique_conic_through((0, 1, 1, 2, 3))


def test_gauss_rank_on_the_developable():
    p_x = p_in_x_coordinates()
    rng = random.Random(11)
    for _ in range(5):
        s = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
        h = Fraction(rng.randrange(1, 5), rng.randrange(1, 4))
        assert gauss_rank_at(p_x, tangent_point(s, h)) == 1


def test_gauss_rank_controls():
    x0, x1, x2, x3 = ring("x0", "x1", "x2", "x3")
    quadric = x0 * x3 - x1 * x2
    assert gauss_rank_at(quadric, (1, 1, 1, 1)) == 2
    plane = x0
    assert gauss_rank_at(plane, (0, 1, 0, 0)) == 0
    with pytest.raises(StructureError):
        gauss_rank_at(p_in_x_coordinates(), v3_point(2))  # on the cuspidal edge


def test_veronese_bidouble_model():
    assert veronese_bidouble_model_check()
