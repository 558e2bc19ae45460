import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cuspidal.braids import (
    ArcSpec, BraidWord, artin_action, braid_equal, compose_permutations,
    conjugate_power_witness, cycle_notation, cyclic_reduce, free_reduce,
    halftwist_around_arc, is_transposition, permutation_image, transposition,
)


def B(n, *letters):
    return BraidWord(n, tuple(letters))


def test_free_reduce():
    assert free_reduce((1, 2, -2, -1, 3)) == (3,)
    assert free_reduce(()) == ()
    assert free_reduce((1, -1)) == ()


def test_identity_braid_acts_trivially():
    for word in [(1,), (2, -3, 1), (-1, -1)]:
        assert artin_action(BraidWord.identity(4), word) == free_reduce(word)


def test_sigma1_on_x1():
    assert artin_action(B(2, 1), (1,)) == (1, 2, -1)
    assert artin_action(B(2, 1), (2,)) == (1,)


def test_action_is_right_action():
    rng = random.Random(4)
    for _ in range(30):
        n = 4
        b1 = B(n, *[rng.choice([1, 2, 3, -1, -2, -3]) for _ in range(rng.randrange(1, 6))])
        b2 = B(n, *[rng.choice([1, 2, 3, -1, -2, -3]) for _ in range(rng.randrange(1, 6))])
        word = tuple(rng.choice([1, 2, 3, 4, -1, -2, -3, -4]) for _ in range(4))
        both = artin_action(b1 * b2, word)
        stepwise = artin_action(b2, artin_action(b1, word))
        assert both == stepwise


def test_inverse_action_roundtrip():
    rng = random.Random(5)
    for _ in range(20):
        b = B(4, *[rng.choice([1, 2, 3, -1, -2, -3]) for _ in range(5)])
        word = tuple(rng.choice([1, 2, 3, 4, -2]) for _ in range(3))
        assert artin_action(b * b.inverse(), word) == free_reduce(word)


def test_braid_relation_equality():
    assert braid_equal(B(3, 1, 2, 1), B(3, 2, 1, 2))
    assert braid_equal(B(3, 1, -1), BraidWord.identity(3))
    assert not braid_equal(B(3, 1), B(3, 2))


def test_equality_refines_permutation():
    b1, b2 = B(3, 1, 2, 1), B(3, 2, 1, 2)
    assert permutation_image(b1) == permutation_image(b2)


def test_permutation_images():
    assert cycle_notation(permutation_image(B(4, 1))) == "(1,2)"
    assert cycle_notation(permutation_image(B(4, 1, 1, 1))) == "(1,2)"
    assert permutation_image(B(4, 1, 1)) == (0, 1, 2, 3)


def test_theorem_permutation_product():
    perms = [transposition(4, 1, 2), transposition(4, 2, 3),
             transposition(4, 2, 4), transposition(4, 1, 4)]
    prod = compose_permutations(perms, 4)
    assert cycle_notation(prod) == "(1,3)(2,4)"


def test_halftwist_adjacent_is_generator():
    tw = halftwist_around_arc(ArcSpec((1, 2)), 4)
    assert tw.letters == (1,)
    tw23 = halftwist_around_arc(ArcSpec((2, 3)), 4)
    assert tw23.letters == (2,)


def test_halftwist_band_generator():
    tw = halftwist_around_arc(ArcSpec((1, 3), (1,)), 4)
    assert tw.letters == (2, 1, -2)


def test_halftwist_permutation_is_endpoint_transposition():
    rng = random.Random(6)
    for _ in range(20):
        n = 5
        i = rng.randrange(1, n)
        j = rng.randrange(i + 1, n + 1)
        flags = tuple(rng.choice([1, -1]) for _ in range(j - i - 1))
        tw = halftwist_around_arc(ArcSpec((i, j), flags), n)
        assert cycle_notation(permutation_image(tw)) == f"({i},{j})"


def test_malformed_arcs_rejected():
    with pytest.raises(ValueError):
        ArcSpec((2, 2))
    with pytest.raises(ValueError):
        ArcSpec((1, 4), (1,))
    with pytest.raises(ValueError):
        ArcSpec((1, 3), (2,))


def test_tangency_halftwist_matches_sigma_action():
    # the half-twist exchanging the outer strands 1 and 4, passing strand 2
    # above and strand 3 below: the x = -1 tangency braid
    tw = halftwist_around_arc(ArcSpec((1, 4), (1, -1)), 4)
    assert tw.letters == (-3, 2, 1, -2, 3)
    assert artin_action(tw, (1,)) == (1, 3, 4, -3, -1)
    assert artin_action(tw, (2,)) == (1, 3, -4, -3, 2, 3, 4, -3, -1)
    assert artin_action(tw, (3,)) == (3,)
    assert artin_action(tw, (4,)) == (-3, 1, 3)


def test_cyclic_reduce():
    assert cyclic_reduce((-3, 2, 1, 1, 1, -2, 3)) == ((1, 1, 1), (-3, 2))
    assert cyclic_reduce((1, 2, -2, -1)) == ((), ())
    assert cyclic_reduce((1, 2, -1)) == ((2,), (1,))


@given(st.lists(st.sampled_from((1, -1, 2, -2, 3, -3)), max_size=16))
def test_cyclic_reduce_matches_end_stripping(letters):
    core, prefix = cyclic_reduce(letters)
    w = list(free_reduce(letters))
    stripped = []
    while len(w) >= 2 and w[0] == -w[-1]:  # strip one pair of ends at a time
        stripped.append(w[0])
        w = w[1:-1]
    assert (core, prefix) == (tuple(w), tuple(stripped))
    assert prefix + core + tuple(-g for g in reversed(prefix)) == free_reduce(letters)


def test_conjugate_power_witness():
    b = B(4, -3, 2, 1, 1, 1, -2, 3)
    k, w = conjugate_power_witness(b)
    assert k == 3
    cube = BraidWord.generator(4, 1) ** 3
    assert braid_equal(b, w * cube * w.inverse())
    k2, _ = conjugate_power_witness(B(4, 2, 2, 2))
    assert k2 == 3
    k3, _ = conjugate_power_witness(B(4, -2))
    assert k3 == -1
    assert conjugate_power_witness(B(4, 1, 2)) is None


def test_hurwitz_move_preserves_product():
    rng = random.Random(8)
    for _ in range(10):
        factors = [B(4, *[rng.choice([1, 2, 3, -1, -2, -3]) for _ in range(3)])
                   for _ in range(4)]
        i = rng.randrange(3)
        moved = list(factors)
        moved[i] = factors[i] * factors[i + 1] * factors[i].inverse()
        moved[i + 1] = factors[i]
        prod = BraidWord.identity(4)
        prod2 = BraidWord.identity(4)
        for f in factors:
            prod = prod * f
        for f in moved:
            prod2 = prod2 * f
        assert braid_equal(prod, prod2)


def test_is_transposition():
    assert is_transposition(transposition(4, 1, 3))
    assert not is_transposition((0, 1, 2, 3))
    assert not is_transposition(compose_permutations(
        [transposition(4, 1, 3), transposition(4, 2, 4)], 4))
