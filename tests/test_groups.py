import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspidal.braids import (
    ArcSpec, BraidWord, artin_action, braid_equal, free_reduce,
    halftwist_around_arc, permutation_image, transposition,
)
from cuspidal.groups import (
    OVERFLOW, Presentation, abelianization, add_projective_relation,
    coset_action, count_homs, enumerate_homs_to_sym, exponent_sums, map_onto_z,
    perm_word, same_relator, tietze_simplify, todd_coxeter, van_kampen,
)
from cuspidal import groups
from cuspidal.groups import _tc_run, _transitive

GEN_NAMES = ("a1", "a2", "b2", "b1")


def affine_presentation():
    """<a1,a2,b2,b1 | a1a2a1=a2a1a2, b1b2b1=b2b1b2, a2b2a2=b2a2b2, b2b1=a1b2>."""
    return Presentation(GEN_NAMES, (
        (1, 2, 1, -2, -1, -2),
        (4, 3, 4, -3, -4, -3),
        (2, 3, 2, -3, -2, -3),
        (3, 4, -3, -1),
    ))


def fixture_factors():
    """Monodromy fixture: cubes around (1,2), (3,4), (2,3) and the (1,4) twist."""
    tangency = halftwist_around_arc(ArcSpec((1, 4), (1, -1)), 4)
    return [
        halftwist_around_arc(ArcSpec((1, 2)), 4) ** 3,
        halftwist_around_arc(ArcSpec((3, 4)), 4) ** 3,
        tangency,
        halftwist_around_arc(ArcSpec((2, 3)), 4) ** 3,
    ]


def mu_images():
    return (transposition(4, 1, 2), transposition(4, 2, 3),
            transposition(4, 2, 4), transposition(4, 1, 4))


def fingerprint(p):
    """Isomorphism-invariant snapshot used to compare presentations:
    (abelianization, coset order or 'overflow', #homs to S3,
     #transposition-transitive classes into S4)."""
    classes, _ = enumerate_homs_to_sym(p, 4)
    return (tuple(abelianization(p)), todd_coxeter(p, max_cosets=20000),
            count_homs(p, 3), len(classes))


def test_van_kampen_empty_factors_is_free():
    p = van_kampen([], 4)
    assert p.relators == ()
    assert abelianization(p) == [0, 0, 0, 0]


def test_van_kampen_single_cube_gives_braid_relation():
    p = van_kampen([BraidWord(2, (1, 1, 1))], 2)
    braid_rel = (1, 2, 1, -2, -1, -2)
    assert all(same_relator(r, braid_rel) for r in p.relators)
    assert len(p.relators) >= 1


def test_van_kampen_fixture_contains_paper_relations():
    p = van_kampen(fixture_factors(), 4, GEN_NAMES)
    for target in affine_presentation().relators:
        assert any(same_relator(r, target) for r in p.relators), target


def test_fixture_presentation_fingerprint_matches_paper():
    p = van_kampen(fixture_factors(), 4, GEN_NAMES)
    assert fingerprint(p) == fingerprint(affine_presentation())


def test_abelianizations():
    aff = affine_presentation()
    assert abelianization(aff) == [0]
    proj = add_projective_relation(aff)
    assert abelianization(proj) == [4]
    assert abelianization(Presentation(("x",), ((1, 1),))) == [2]
    free_with_product = Presentation(GEN_NAMES, ((1, 2, 3, 4),))
    assert abelianization(free_with_product) == [0, 0, 0]


def test_todd_coxeter_cyclic5():
    assert todd_coxeter(Presentation(("x",), ((1, 1, 1, 1, 1),))) == 5


def test_todd_coxeter_symmetric3():
    # <s, t | s^2, t^2, (st)^3> = S3
    p = Presentation(("s", "t"), ((1, 1), (2, 2), (1, 2, 1, 2, 1, 2)))
    assert todd_coxeter(p) == 6


def test_todd_coxeter_projective_order_12():
    proj = add_projective_relation(affine_presentation())
    assert todd_coxeter(proj, max_cosets=10000) == 12


def test_todd_coxeter_affine_overflows():
    assert todd_coxeter(affine_presentation(), max_cosets=2000) == OVERFLOW


def test_a_free_abelianization_decides_overflow_without_enumerating(monkeypatch):
    def enumerate_nothing(p, max_cosets):
        raise AssertionError("an infinite group was enumerated")

    monkeypatch.setattr(groups, "_tc_run", enumerate_nothing)
    assert todd_coxeter(affine_presentation(), max_cosets=10 ** 7) == OVERFLOW
    with pytest.raises(RuntimeError, match=r"abelianization \[0\] has a free factor"):
        coset_action(affine_presentation(), max_cosets=10 ** 7)


def test_the_enumerator_itself_still_overflows_on_a_finite_abelianization():
    # <x | x^100>: abelianization [100], so the table is enumerated and runs out
    c100 = Presentation(("x",), ((1,) * 100,))
    assert abelianization(c100) == [100]
    assert todd_coxeter(c100, max_cosets=50) == OVERFLOW
    with pytest.raises(RuntimeError, match="coset enumeration overflowed at 50"):
        coset_action(c100, max_cosets=50)
    assert todd_coxeter(c100, max_cosets=100) == 100


@st.composite
def small_presentations(draw):
    g = draw(st.integers(1, 3))
    letter = st.integers(-g, g).filter(bool)
    relators = draw(st.lists(st.lists(letter, min_size=1, max_size=6),
                             min_size=1, max_size=3))
    return Presentation(tuple(f"g{k}" for k in range(1, g + 1)),
                        tuple(tuple(r) for r in relators))


@settings(max_examples=300, deadline=None)
@given(small_presentations())
def test_a_free_factor_means_the_enumeration_never_closes(p):
    raw = _tc_run(p, 500)
    images = map_onto_z(p)
    if 0 in abelianization(p):
        assert raw is None
        assert images is not None and math.gcd(*images) == 1
        assert all(sum(a * b for a, b in zip(row, images)) == 0
                   for row in exponent_sums(p))
    else:
        assert images is None
    order = OVERFLOW if raw is None else sum(1 for c, r in enumerate(raw[1]) if c == r)
    assert todd_coxeter(p, max_cosets=500) == order


# (presentation, group order); the relators are rewritten by relabeled()
KNOWN_ORDERS = {
    **{f"C{n}": (Presentation(("x",), ((1,) * n,)), n) for n in (1, 2, 5, 12)},
    **{f"D{n}": (Presentation(("r", "s"), ((1,) * n, (2, 2), (2, 1, 2, 1))), 2 * n)
       for n in (2, 3, 6, 9)},
    "S4 Coxeter": (Presentation(("a", "b", "c"), (
        (1, 1), (2, 2), (3, 3), (1, 2) * 3, (2, 3) * 3, (1, 3) * 2)), 24),
    "Q8": (Presentation(("a", "b"), ((1, 1, 1, 1), (1, 1, -2, -2), (-2, 1, 2, 1))), 8),
    "(2,3,7;4)": (Presentation(("a", "b"), (
        (1, 1), (2, 2, 2), (1, 2) * 7, (1, 2, -1, -2) * 4)), 168),
    "projective": (add_projective_relation(affine_presentation()), 12),
}


@st.composite
def relabeled(draw, p):
    """The same group: each relator rotated and perhaps inverted, then the
    relators reordered."""
    relators = []
    for r in p.relators:
        k = draw(st.integers(0, len(r) - 1))
        r = r[k:] + r[:k]
        if draw(st.booleans()):
            r = tuple(-g for g in reversed(r))
        relators.append(r)
    order = draw(st.permutations(range(len(relators))))
    return Presentation(p.generator_names, tuple(relators[i] for i in order))


@st.composite
def known_groups(draw):
    p, order = KNOWN_ORDERS[draw(st.sampled_from(sorted(KNOWN_ORDERS)))]
    return draw(relabeled(p)), order


@settings(max_examples=150, deadline=None)
@given(known_groups())
def test_todd_coxeter_known_orders_under_relabeling(case):
    p, order = case
    assert todd_coxeter(p) == order
    got, perms = coset_action(p)
    assert got == order
    for perm in perms:
        assert sorted(perm) == list(range(order))
    for r in p.relators:
        for pt in range(order):
            assert perm_word(r, perms, pt) == pt
    assert _transitive(perms, order)  # the regular action


@settings(max_examples=400, deadline=None)
@given(relabeled(KNOWN_ORDERS["projective"][0]))
def test_projective_relabelings_close_within_2000_cosets(p):
    assert todd_coxeter(p, max_cosets=2000) == 12


@pytest.mark.parametrize("name", sorted(KNOWN_ORDERS))
def test_todd_coxeter_overflows_at_exactly_max_cosets(name):
    p, order = KNOWN_ORDERS[name]
    _, parent = _tc_run(p, 10 ** 5)
    defined = len(parent)  # every coset the enumeration defined, dead ones too
    assert defined >= order
    assert todd_coxeter(p, max_cosets=defined) == order
    if defined > 1:
        assert todd_coxeter(p, max_cosets=defined - 1) == OVERFLOW


def test_todd_coxeter_defines_no_throwaway_cosets_on_a_cyclic_group():
    # inverse edges are set on definition, so x^5 closes on exactly 5 cosets
    c5 = Presentation(("x",), ((1, 1, 1, 1, 1),))
    assert todd_coxeter(c5, max_cosets=5) == 5
    assert todd_coxeter(c5, max_cosets=4) == OVERFLOW


def test_coset_action_is_closed():
    proj = add_projective_relation(affine_presentation())
    order, perms = coset_action(proj)
    assert order == 12
    for r in proj.relators:
        for pt in range(order):
            assert perm_word(r, perms, pt) == pt


def test_tangency_relators_die_in_the_two_quotients():
    tangency = fixture_factors()[2]
    relators = [free_reduce((-i,) + artin_action(tangency, (i,))) for i in range(1, 5)]
    relators = [r for r in relators if r]
    assert relators  # the tangency factor is not trivial
    proj = add_projective_relation(affine_presentation())
    order, perms = coset_action(proj)
    mu = mu_images()
    for r in relators:
        for pt in range(order):
            assert perm_word(r, perms, pt) == pt
        for pt in range(4):
            assert perm_word(r, mu, pt) == pt


def test_mu_satisfies_the_paper_presentation():
    mu = mu_images()
    for r in affine_presentation().relators:
        for pt in range(4):
            assert perm_word(r, mu, pt) == pt


def test_s4_uniqueness():
    classes, tuple_count = enumerate_homs_to_sym(affine_presentation(), 4)
    assert len(classes) == 1
    # the orbit of the single class is free: the image generates S4, whose
    # centralizer in S4 is trivial, so all 24 conjugates are distinct tuples
    assert tuple_count == 24
    rep = next(iter(classes.values()))
    from cuspidal.groups import _perm_inv, _perm_mul
    import itertools
    mu = mu_images()
    assert any(
        tuple(_perm_mul(_perm_mul(_perm_inv(s), g), s) for g in rep) == mu
        for s in itertools.permutations(range(4)))


def test_hom_searches_reject_large_symmetric_groups():
    # both index S_n with an n! x n! table
    p = Presentation(("x",), ())
    for search in (count_homs, enumerate_homs_to_sym):
        with pytest.raises(ValueError):
            search(p, 7)


def test_free_two_generators_onto_s2():
    p = Presentation(("x1", "x2"), ())
    classes, count = enumerate_homs_to_sym(p, 2)
    assert len(classes) == 1
    assert count == 1  # both generators must hit the unique transposition


def test_tietze_projective_two_generator_form():
    proj = add_projective_relation(affine_presentation())
    simplified, exhausted = tietze_simplify(proj)
    assert not exhausted
    assert simplified.n_generators == 2
    braid_rel = (1, 2, 1, -2, -1, -2)
    product_rel = (2, 1, 1, 2)
    assert len(simplified.relators) == 2
    assert any(same_relator(r, braid_rel) for r in simplified.relators)
    assert any(same_relator(r, product_rel) for r in simplified.relators)


def test_tietze_eliminates_defined_generator():
    p = Presentation(("g1", "g2", "g3"), ((3, -1, -2), (1, 1, 1)))
    simplified, _ = tietze_simplify(p)
    assert simplified.n_generators == 2
    assert any(same_relator(r, (1, 1, 1)) for r in simplified.relators)


def test_tietze_preserves_fingerprint():
    proj = add_projective_relation(affine_presentation())
    simplified, _ = tietze_simplify(proj)
    assert fingerprint(simplified) == fingerprint(proj)
    assert todd_coxeter(simplified) == 12


def test_van_kampen_invariant_under_braid_equal_replacement():
    factors = fixture_factors()
    replaced = list(factors)
    # replace the first cube by an equal braid word written differently
    w = BraidWord(4, (2, -2, 1, 1, 1))
    assert braid_equal(w, factors[0])
    replaced[0] = w
    p1 = van_kampen(factors, 4)
    p2 = van_kampen(replaced, 4)
    set1 = list(p1.relators)
    assert len(set1) == len(p2.relators)
    for r in p2.relators:
        assert any(same_relator(r, s) for s in set1)


def test_hurwitz_move_preserves_fingerprint():
    factors = fixture_factors()
    moved = list(factors)
    moved[1] = factors[1] * factors[2] * factors[1].inverse()
    moved[2] = factors[1]
    p1 = van_kampen(factors, 4)
    p2 = van_kampen(moved, 4)
    assert fingerprint(p1) == fingerprint(p2)
    assert fingerprint(add_projective_relation(p1)) == fingerprint(add_projective_relation(p2))


def test_projective_relation_requires_four_generators():
    with pytest.raises(ValueError):
        add_projective_relation(Presentation(("x",), ()))
