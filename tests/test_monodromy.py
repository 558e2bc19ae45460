import cmath
import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cuspidal import checks, monodromy
from cuspidal.braids import (
    BraidWord, braid_equal, compose_permutations, conjugate_power_witness,
    free_reduce, is_transposition, permutation_image,
)
from cuspidal.continuation import StrandPath, continue_roots
from cuspidal.groups import (
    abelianization, add_projective_relation, todd_coxeter, van_kampen,
)
from cuspidal.monodromy import (
    DEFAULT_SHEAR, MAX_ROTATIONS, SweepError, _Ambiguous, _decompose_adjacent_swaps,
    _start_roots, _symmetrized, braid_from_strand_paths, build_loops, default_basepoint,
    fiber_evaluator, monodromy_factorization, strand_paths_svg,
)
from cuspidal.mpoly import MPoly
from cuspidal.quartic import critical_values, cuspidal_quartic, sheared_curve
from cuspidal.roots import _eval_error_bound, inclusion_radius

import functools


@functools.lru_cache(maxsize=None)
def factorization():
    return monodromy_factorization(keep_paths=True)


def read_family(paths, first_rotation=0):
    """The whole-family reader: (word, k) for one loop's closed strand
    paths, swept in the fiber plane rotated by k pi/17 for the first
    k >= first_rotation at which every crossing is a clean transversal
    exchange of neighbors, at least 1e-11 times the family's largest |z|
    from a collision."""
    strands = [p.samples for p in paths]
    tol = 1e-11 * (max(abs(z) for s in strands for z in s) or 1.0)
    for k in range(first_rotation, MAX_ROTATIONS + 1):
        try:
            groups, gap = braid_from_strand_paths(strands, cmath.exp(1j * math.pi * k / 17))
        except _Ambiguous:
            continue
        if gap >= tol:
            return BraidWord(len(paths), free_reduce([a for g in groups for a in g])), k
    raise SweepError(f"sweep stayed ambiguous after {MAX_ROTATIONS} rotations")


def read_families_in_one_frame(families):
    """(words, k): every family read by ``read_family`` at the first
    rotation k >= 1 at which all of them sweep cleanly."""
    k, words = 1, {}
    while len(words) < len(families):
        i = next(j for j in range(len(families)) if j not in words)
        word, clean = read_family(families[i], k)
        if clean != k:  # rotations k .. clean - 1 are ambiguous for family i
            k, words = clean, {}
        words[i] = word
    return [words[i] for i in range(len(families))], k


def _synthetic_paths(fn_list, steps=64):
    times = [k / steps for k in range(steps + 1)]
    return [StrandPath(i, [fn(t) for t in times]) for i, fn in enumerate(fn_list)]


def test_sweep_constant_paths_is_empty():
    paths = _synthetic_paths([lambda t: -1 + 0j, lambda t: 1 + 0j])
    assert read_family(paths)[0].letters == ()


def test_sweep_counterclockwise_halfturn_is_positive_generator():
    paths = _synthetic_paths([
        lambda t: -cmath.exp(1j * math.pi * t),
        lambda t: cmath.exp(1j * math.pi * t),
    ])
    assert read_family(paths)[0].letters == (1,)


def test_sweep_clockwise_halfturn_is_negative_generator():
    paths = _synthetic_paths([
        lambda t: -cmath.exp(-1j * math.pi * t),
        lambda t: cmath.exp(-1j * math.pi * t),
    ])
    assert read_family(paths)[0].letters == (-1,)


def test_sweep_full_twist():
    paths = _synthetic_paths([
        lambda t: -cmath.exp(1j * 2 * math.pi * t),
        lambda t: cmath.exp(1j * 2 * math.pi * t),
    ], steps=128)
    assert read_family(paths)[0].letters == (1, 1)


def test_loop_order_and_multiplicities():
    crit = critical_values(cuspidal_quartic(), Fraction(1, 100))
    loops, radius = build_loops(crit, default_basepoint())
    targets = [loop.target.real for loop in loops]
    assert targets == sorted(targets[:3]) + [targets[3]]
    assert abs(targets[0] + 9 / 8 + 0.01 * 3 * math.sqrt(3) / 8) < 1e-6
    assert abs(targets[1] + 9 / 8 - 0.01 * 3 * math.sqrt(3) / 8) < 1e-6
    assert abs(targets[2] + 1) < 0.01
    assert abs(targets[3]) < 1e-12
    assert [loop.multiplicity for loop in loops] == [3, 3, 1, 3]


@pytest.mark.parametrize("basepoint", [default_basepoint(), -1.06, 0.5, -2.0])
def test_each_walk_continues_along_the_nearer_targets_half_circle(basepoint):
    steps = 32
    crit = critical_values(cuspidal_quartic(), DEFAULT_SHEAR)
    loops, _ = build_loops(crit, basepoint, steps)
    left = [loop for loop in loops if loop.target.real < basepoint][::-1]
    right = loops[len(left):]
    for loop in loops:  # each circle is its own mirror image in the real axis
        circle = loop.circle
        assert circle[0].imag == circle[steps // 2].imag == 0
        assert circle[-1] == circle[0]
        assert circle[steps // 2:] == [z.conjugate() for z in circle[steps // 2::-1]]
    for side, sign in ((left, 1), (right, -1)):
        if side:
            assert side[0].walk == [complex(basepoint), side[0].circle[0]]
        for near, far in zip(side, side[1:]):
            half = near.circle[1:steps // 2 + 1]
            assert far.walk == near.walk + half + [far.circle[0]]
            # counterclockwise: above the value going left, below going right
            assert all(sign * z.imag > 0 for z in half[:-1])
            assert sign * (near.target.real - half[-1].real) > 0  # ends past the value


@pytest.mark.parametrize("steps", [-2, 0, 2, 31])
def test_build_loops_rejects_circle_steps_without_a_half_circle_on_the_axis(steps):
    with pytest.raises(ValueError, match="circle_steps"):
        build_loops([(-1 + 0j, 1), (0j, 3)], -0.5, steps)


def test_build_loops_rejects_a_basepoint_on_a_critical_value():
    # the critical value has no side of the basepoint, and the circles
    # would have radius 0
    with pytest.raises(ValueError, match=r"basepoint -1\.0 is a critical value"):
        build_loops([(-1 + 0j, 1), (0j, 3)], -1.0)


def test_build_loops_rejects_any_nonzero_imaginary_part():
    crit = [(complex(-1.0, 1e-12), 1), (0j, 3)]
    with pytest.raises(SweepError, match="not real"):
        build_loops(crit, -0.5)


def test_factorization_exponent_sums():
    result = factorization()
    assert result.exponent_sums() == [3, 3, 1, 3]
    assert sum(result.exponent_sums()) == 10  # total discriminant order
    # the local braid exponent matches the discriminant order at each value
    assert result.exponent_sums() == [loop.multiplicity for loop in result.loops]


def test_factors_are_conjugates_of_generator_powers():
    result = factorization()
    powers = []
    for f in result.factors:
        witness = conjugate_power_witness(f)
        assert witness is not None, f.letters
        powers.append(witness[0])
    assert powers == [3, 3, 1, 3] or powers == [-3, -3, -1, -3]


def test_factor_permutations():
    result = factorization()
    perms = [permutation_image(f) for f in result.factors]
    for p in perms:
        assert is_transposition(p)
    prod = compose_permutations(perms, 4)
    # conjugate to (1,3)(2,4): a fixed-point-free double transposition
    assert sorted(prod) == [0, 1, 2, 3]
    assert all(prod[i] != i for i in range(4))
    assert all(prod[prod[i]] == i for i in range(4))


def test_strand_names_cover_the_four_labels():
    result = factorization()
    assert sorted(result.strand_names) == ["A1", "A2", "B1", "B2"]


def test_strand_names_follow_the_two_real_two_imaginary_table():
    # the default basepoint's fiber has two real roots and a conjugate pair;
    # the start roots in (real, imag) order are A2 < B1 < A1 < B2
    assert factorization().strand_names == ["A2", "B1", "A1", "B2"]


def test_braid_check_reads_the_powers_from_the_exact_orders():
    result = factorization()
    assert checks.criterion_braid_monodromy(result)[0]
    # the orders of the tangency and the origin cusp swapped: the factors no
    # longer have the exponent sums and powers of their loops' orders
    loops = list(result.loops)
    loops[2] = replace(loops[2], multiplicity=loops[3].multiplicity)
    loops[3] = replace(loops[3], multiplicity=result.loops[2].multiplicity)
    swapped = replace(result, loops=loops)
    assert [loop.multiplicity for loop in swapped.loops] == [3, 3, 3, 1]
    assert not checks.criterion_braid_monodromy(swapped)[0]


def test_first_two_factors_commute():
    result = factorization()
    f1, f2 = result.factors[0], result.factors[1]
    assert braid_equal(f1 * f2, f2 * f1)


def test_group_fingerprints_from_numeric_factorization():
    result = factorization()
    p = van_kampen(result.factors, 4)
    assert abelianization(p) == [0]
    proj = add_projective_relation(p)
    assert abelianization(proj) == [4]
    assert todd_coxeter(proj, max_cosets=10000) == 12


def connecting_braid(curve, from_basepoint, via):
    """Braid of dragging the basepoint along the waypoints via."""
    sheared = sheared_curve(curve, DEFAULT_SHEAR)
    start = _start_roots(sheared, from_basepoint)
    paths = continue_roots(fiber_evaluator(sheared, from_basepoint), via, initial=start)
    return read_family(paths)[0]


def test_basepoint_drag_conjugates_each_factor():
    result = factorization()
    new_bp = 0.3
    # drag to the right passing above x = 0 (the clockwise half-turn)
    r = 0.05
    upper = [r * cmath.exp(1j * math.pi * (1 - k / 8)) for k in range(9)]
    via = [result.basepoint, -r] + upper[1:] + [new_bp]
    drag = connecting_braid(cuspidal_quartic(), result.basepoint, via)
    moved = monodromy_factorization(basepoint=new_bp)
    assert moved.exponent_sums() == [3, 3, 1, 3]
    for f_old, f_new in zip(result.factors, moved.factors):
        cand = drag.inverse() * f_old * drag
        assert braid_equal(f_new, cand)


def test_svg_output():
    result = factorization()
    svg = strand_paths_svg(result.strand_paths[0])
    assert svg.startswith("<svg") and "polyline" in svg


def _exact_complex_value(coeffs, re, im):
    """Ascending Fraction coefficients evaluated exactly at re + i im."""
    acc_re, acc_im = Fraction(0), Fraction(0)
    for c in reversed(coeffs):
        acc_re, acc_im = acc_re * re - acc_im * im + c, acc_re * im + acc_im * re
    return acc_re, acc_im


@settings(max_examples=40, deadline=None)
@given(shear=st.fractions(Fraction(-1, 2), Fraction(1, 2), max_denominator=2000),
       center=st.floats(-2.0, 1.0), dx=st.floats(-1.0, 1.0),
       im=st.floats(-0.5, 0.5))
# the evaluation error is 2^-1074 from gradual underflow, while the
# relative error term of the bound underflows to 0
@example(shear=Fraction(1, 2), center=0.0, dx=1.2725128187230536e-158,
         im=1.2725128187230536e-158)
def test_fiber_evaluator_matches_exact_evaluation(shear, center, dx, im):
    re = center + dx
    sheared = sheared_curve(cuspidal_quartic(), shear)
    got = fiber_evaluator(sheared, center)(complex(re, im))
    x = MPoly.variable("x", ("x",))
    c = Fraction(center)
    t = complex(re, im) - center
    for value, poly in zip(got, sheared.equation.as_univariate("y")):
        exact = _exact_complex_value(poly.univariate_coeffs("x"), Fraction(re), Fraction(im))
        # Taylor coefficients at the center bound the Horner error in x - center
        taylor = [float(b) for b in poly.compose({"x": x + c}, ("x",)).univariate_coeffs("x")]
        error = abs(complex(Fraction(value.real) - exact[0], Fraction(value.imag) - exact[1]))
        assert error <= _eval_error_bound(taylor, abs(t))


@settings(max_examples=200, deadline=None)
@given(shear=st.fractions(Fraction(-1, 2), Fraction(1, 2), max_denominator=2000),
       center=st.floats(-2.0, 1.0), re=st.floats(-3.0, 2.0), im=st.floats(-1.0, 1.0))
def test_fiber_over_the_conjugate_is_the_exact_conjugate(shear, center, re, im):
    # the Taylor tables are real floats, so Horner in conj(x) - center
    # rounds every product and sum as the conjugate of the one in x - center
    fiber = fiber_evaluator(sheared_curve(cuspidal_quartic(), shear), center)
    x = complex(re, im)
    assert fiber(x.conjugate()) == [c.conjugate() for c in fiber(x)]


def test_continuation_along_the_conjugate_path_gives_the_conjugate_samples():
    # the mirror that _track_side reads a circle's second half from
    sheared = sheared_curve(cuspidal_quartic(), DEFAULT_SHEAR)
    start = _start_roots(sheared, default_basepoint())
    for loop in factorization().loops:
        fiber = fiber_evaluator(sheared, loop.target.real)
        path = loop.walk + loop.circle[1:len(loop.circle) // 2 + 1]
        tracked = continue_roots(fiber, path, start)
        mirrored = continue_roots(fiber, [x.conjugate() for x in path],
                                  [z.conjugate() for z in start])
        assert [[z.conjugate() for z in p.samples] for p in tracked] == [
            p.samples for p in mirrored]


@pytest.mark.parametrize("shear, basepoint", [
    (DEFAULT_SHEAR, default_basepoint()),  # two real roots and a pair
    (Fraction(1, 679), 0.34010940278577345),  # two pairs
    (Fraction(1, 10), -1.05),  # four real roots
    (Fraction(1, 10), -1.2225),  # left of every critical value
])
def test_start_roots_are_real_or_exact_conjugate_pairs(shear, basepoint):
    roots = _start_roots(sheared_curve(cuspidal_quartic(), shear), basepoint)
    for z in roots:
        assert z.imag == 0 or [w for w in roots if w == z.conjugate()] == [z.conjugate()]
    assert roots == sorted(roots, key=lambda z: (z.real, z.imag))


def test_an_undecided_fiber_is_refused():
    # the near-real cluster 0.7 +- 1e-12 i of a float quartic: its inclusion
    # disks overlap, so neither a real root nor a pair is made of it
    coeffs = [-1.3377, 3.43, -1.12, -2.2, 1.0]  # (y - 0.7)^2 (y + 1.3) (y - 2.1)
    values = [complex(0.7, 1e-12), complex(0.7, -1e-12), -1.3 + 1e-17j, 2.1 + 0j]
    radii = [inclusion_radius(coeffs, z) for z in values]
    with pytest.raises(SweepError, match=r"fiber over x = 0\.25 do not decide"):
        _symmetrized(values, radii, 0.25)


def test_start_roots_share_real_parts_within_conjugate_pairs():
    sheared = sheared_curve(cuspidal_quartic(), Fraction(1, 679))
    roots = _start_roots(sheared, 0.34010940278577345)
    assert all(abs(z.imag) > 0 for z in roots)  # two conjugate pairs
    for lower, upper in (roots[:2], roots[2:]):
        assert lower.real == upper.real
        assert lower.imag < 0 < upper.imag


# Inputs that an uncentred Horner evaluation without the rounding-floor
# Newton stop turned into ContinuationError; the words are the ones an
# exact-coefficient evaluation gives.
@pytest.mark.parametrize("shear, basepoint, steps", [
    (Fraction(1, 649), -1.024927601440149, 128),
    (Fraction(1, 619), -1.0816233187986433, 64),
])
def test_words_near_the_split_cusps_are_stable(shear, basepoint, steps):
    result = monodromy_factorization(basepoint=basepoint, shear=shear,
                                     circle_steps=steps)
    assert [list(f.letters) for f in result.factors] == [
        [3, 1, 3, 1, 1, -3, -3], [3, 3, 3], [2], [2, 1, 3, 2, 2, 2, -1, -3, -2]]


def _assert_one_sweep_frame(result):
    """Every factor is the word of its loop read at result.sweep_rotation,
    and no smaller rotation k >= 1 reads every loop cleanly."""
    k = result.sweep_rotation
    for factor, paths in zip(result.factors, result.strand_paths, strict=True):
        assert read_family(paths, k) == (factor, k)
    for j in range(1, k):
        assert any(read_family(paths, j)[1] != j for paths in result.strand_paths)


@st.composite
def factorization_inputs(draw):
    """(shear, basepoint, circle_steps): a shear from the benchmark's ladder
    1/10 .. 1/1000, a basepoint in the middle of one of the five intervals
    the critical values cut the axis into, and an even circle_steps."""
    shear = Fraction(1, draw(st.integers(10, 1000)))
    values = [v.real for v, _ in critical_values(cuspidal_quartic(), shear)]
    ends = [values[0] - 1] + values + [values[-1] + 1]
    i = draw(st.integers(0, len(ends) - 2))
    basepoint = ends[i] + draw(st.floats(0.2, 0.8)) * (ends[i + 1] - ends[i])
    return shear, basepoint, 2 * draw(st.integers(4, 32))


@settings(max_examples=20, deadline=None)
@given(factorization_inputs())
@example((Fraction(1, 15), -1.0496992563989496, 24))  # the mixed-frame input
def test_segment_words_match_the_whole_family_reader(inputs):
    shear, basepoint, steps = inputs
    result = monodromy_factorization(basepoint=basepoint, shear=shear,
                                     circle_steps=steps, keep_paths=True)
    _assert_one_sweep_frame(result)


@pytest.mark.parametrize("rotation", [1, 5, 12])
def test_a_segment_swept_backwards_reads_its_groups_inverted(rotation):
    # what the return leg of every loop is read by: the same swaps in each
    # sample interval, with opposite signs, in the reverse order of intervals
    turn = cmath.exp(1j * math.pi * rotation / 17)
    for paths in factorization().strand_paths:
        strands = [p.samples for p in paths]
        groups = braid_from_strand_paths(strands, turn)[0]
        back = braid_from_strand_paths([s[::-1] for s in strands], turn)[0]
        assert back == [tuple(-a for a in g) for g in reversed(groups)]


def test_default_factorization_is_read_in_one_sweep_frame():
    result = factorization()
    assert result.sweep_rotation == 1
    _assert_one_sweep_frame(result)


# At shear 1/15 with 24 circle steps, between the nearer split cusp value
# and the tangency, the loop around the nearer split cusp value swept
# cleanly at rotation 0 while its start pairs were conjugate only up to
# rounding, the others only at pi/17.  With exactly conjugate pairs over the
# axis the unrotated frame is degenerate for every loop, so the frame starts
# at pi/17, and all four are read there.
def test_mixed_frame_input_is_read_in_one_frame():
    result = monodromy_factorization(basepoint=-1.0496992563989496, shear=Fraction(1, 15),
                                     circle_steps=24, keep_paths=True)
    _assert_one_sweep_frame(result)
    assert result.sweep_rotation == 1
    assert all(read_family(paths)[1] > 0 for paths in result.strand_paths)
    assert [list(f.letters) for f in result.factors] == [
        [3, 3, 1, 1, 1, -3, -3], [3, 3, 3], [2], [2, 3, 1, 2, 2, 2, -1, -3, -2]]
    perms = [permutation_image(f) for f in result.factors]
    assert all(is_transposition(p) for p in perms)
    prod = compose_permutations(perms, 4)
    assert all(prod[i] != i and prod[prod[i]] == i for i in range(4))


def test_smallest_shear_completes():
    result = monodromy_factorization(basepoint=-0.3465, shear=Fraction(1, 1000),
                                     circle_steps=32)
    assert result.exponent_sums() == [3, 3, 1, 3]


@pytest.mark.parametrize("basepoint", [-1.2225, -2.0])
def test_complex_quadruple_fiber_gets_fallback_names(basepoint):
    result = monodromy_factorization(basepoint=basepoint, shear=Fraction(1, 10))
    assert result.strand_names == ["s1", "s2", "s3", "s4"]
    assert result.exponent_sums() == [3, 3, 1, 3]


def _factors_with_a_tracked_return(shear, basepoint, circle_steps):
    """(factors, rotation) from loops tracked out, around and back again."""
    curve = cuspidal_quartic()
    sheared = sheared_curve(curve, shear)
    loops, _ = build_loops(critical_values(curve, shear), basepoint, circle_steps)
    start = _start_roots(sheared, basepoint)
    families = [continue_roots(fiber_evaluator(sheared, loop.target.real),
                               loop.walk + loop.circle[1:] + loop.walk[::-1], start)
                for loop in loops]
    return read_families_in_one_frame(families)


@pytest.mark.parametrize("shear, basepoint, steps", [
    (DEFAULT_SHEAR, default_basepoint(), 32),
    (Fraction(1, 9), -50 / 101, 20),  # a conjugate pair over the basepoint
    (Fraction(1, 10), -1.09, 32),  # between -9/8 and the right split cusp value
    (Fraction(1, 679), 0.34010940278577345, 256),  # right of every critical value
    (Fraction(1, 1000), -0.3465, 32),
    (DEFAULT_SHEAR, -1.06, 32),  # between c1 and c2: the right walk passes -1 below
    # left of every critical value: every circle goes through its lower half
    # first, and its upper half is the mirrored one
    (Fraction(1, 10), -1.2225, 32),
    (DEFAULT_SHEAR, -1.2, 128),
    (Fraction(1, 15), -1.0496992563989496, 24),  # the mixed-frame input
])
def test_the_walk_reversed_reads_as_a_tracked_return(shear, basepoint, steps):
    result = monodromy_factorization(basepoint=basepoint, shear=shear,
                                     circle_steps=steps)
    factors, rotation = _factors_with_a_tracked_return(shear, basepoint, steps)
    assert [f.letters for f in result.factors] == [f.letters for f in factors]
    assert result.sweep_rotation == rotation


@pytest.mark.parametrize("basepoint", [default_basepoint(), -1.06, 0.5])
def test_no_waypoint_segment_is_tracked_twice(monkeypatch, basepoint):
    calls = []

    def counted(fiber, path, initial):
        calls.append(list(zip(path, path[1:])))
        return continue_roots(fiber, path, initial)

    monkeypatch.setattr(monodromy, "continue_roots", counted)
    result = monodromy_factorization(basepoint=basepoint)
    segments = [segment for call in calls for segment in call]
    assert len(segments) == len(set(segments))
    # one call for each loop's axis leg and for the first half of its circle
    assert len(calls) == 2 * len(result.loops)
    for loop in result.loops:
        second_half = loop.circle[len(loop.circle) // 2:]
        assert not set(zip(second_half, second_half[1:])) & set(segments)


def _half_circle(circle):
    return circle[:len(circle) // 2 + 1]


def _far_point_off_the_axis(circle):
    # the far point as v + r e^(i pi) puts it, an ulp-sized height above
    half = len(circle) // 2
    return circle[:half] + [circle[half] + 1e-19j] + circle[half + 1:]


def _second_half_moved(circle):
    half = len(circle) // 2
    return circle[:half + 1] + [circle[half + 1] * (1 + 1e-15)] + circle[half + 2:]


def _factorize_with_corrupted_circles(monkeypatch, corrupt):
    def corrupted(*args, **kwargs):
        loops, radius = build_loops(*args, **kwargs)
        for loop in loops:
            loop.circle = corrupt(loop.circle)
        return loops, radius

    monkeypatch.setattr(monodromy, "build_loops", corrupted)
    with pytest.raises(SweepError, match="not its own mirror"):
        monodromy_factorization()


def test_a_circle_that_does_not_close_on_the_walk_end_fails(monkeypatch):
    _factorize_with_corrupted_circles(monkeypatch, _half_circle)


@pytest.mark.parametrize("corrupt", [_far_point_off_the_axis, _second_half_moved])
def test_a_circle_that_is_not_its_own_mirror_fails(monkeypatch, corrupt):
    _factorize_with_corrupted_circles(monkeypatch, corrupt)



@pytest.mark.parametrize("shear", [Fraction(1, 10), Fraction(1, 37), DEFAULT_SHEAR,
                                   Fraction(1, 1000)])
def test_one_global_conjugator_gives_the_paper_factors(shear):
    # at the default basepoint W = s1^-1 s3^-1 conjugates every computed
    # factor onto the corresponding factor of the paper's factorization
    result = monodromy_factorization(shear=shear)
    w = BraidWord(4, (-1, -3))
    paper = checks.fixture_monodromy_factors()
    for computed, expected in zip(result.factors, paper, strict=True):
        assert braid_equal(w * computed * w.inverse(), expected)


def reference_braid_from_strand_paths(strands, rotation):
    """The sweep on whole rotated samples: each sample of each strand is
    multiplied by rotation, and the order is tested along every neighbor
    pair at every sample."""
    n = len(strands)
    steps = zip(*(map(rotation.__mul__, s) for s in strands))
    prev = next(steps)
    order = sorted(range(n), key=lambda k: (prev[k].real, prev[k].imag))
    neighbors = list(zip(order, order[1:]))
    groups, gap = [], math.inf
    for cur in steps:
        if not all(cur[a].real < cur[b].real for a, b in neighbors):
            keys = [(z.real, z.imag) for z in cur]
            new_order = sorted(range(n), key=keys.__getitem__)
            if new_order != order:
                group = []
                for i in _decompose_adjacent_swaps(order, new_order):
                    a, b = order[i], order[i + 1]
                    f0 = prev[b].real - prev[a].real
                    f1 = cur[b].real - cur[a].real
                    if f0 <= 0 or f1 >= 0:
                        raise _Ambiguous("non-transversal crossing")
                    t = f0 / (f0 - f1)
                    g = (1 - t) * (prev[b].imag - prev[a].imag) + t * (cur[b].imag - cur[a].imag)
                    gap = min(gap, abs(g))
                    group.append((i + 1) if g > 0 else -(i + 1))
                groups.append(tuple(group))
                order = new_order
                neighbors = list(zip(order, order[1:]))
        prev = cur
    return groups, gap


def _sweep_outcome(sweep, strands, rotation):
    try:
        return sweep(strands, rotation)
    except _Ambiguous as exc:
        return str(exc)


# coarse grid positions tie often, in real parts and in whole samples;
# floats cross transversally
_positions = st.one_of(
    st.builds(complex, st.integers(-3, 3).map(lambda a: a / 4),
              st.integers(-3, 3).map(lambda a: a / 4)),
    st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 5), samples=st.integers(1, 30), data=st.data(),
       k=st.integers(0, MAX_ROTATIONS))
def test_sweep_by_rotated_real_parts_matches_the_whole_sample_sweep(n, samples, data, k):
    strands = [data.draw(st.lists(_positions, min_size=samples, max_size=samples))
               for _ in range(n)]
    rotation = cmath.exp(1j * math.pi * k / 17)
    assert (_sweep_outcome(braid_from_strand_paths, strands, rotation)
            == _sweep_outcome(reference_braid_from_strand_paths, strands, rotation))


def test_tracked_segments_sweep_as_the_whole_sample_sweep():
    for paths in factorization().strand_paths:
        strands = [p.samples for p in paths]
        for k in range(MAX_ROTATIONS + 1):
            rotation = cmath.exp(1j * math.pi * k / 17)
            assert (_sweep_outcome(braid_from_strand_paths, strands, rotation)
                    == _sweep_outcome(reference_braid_from_strand_paths, strands, rotation))


def _tracked_loops(monkeypatch, **kwargs):
    """The ``_TrackedLoop``s that one factorization reads its words from."""
    seen = []

    def recorded(loops):
        seen.extend(loops)
        return one_frame(loops)

    one_frame = monodromy._one_frame
    monkeypatch.setattr(monodromy, "_one_frame", recorded)
    monodromy_factorization(**kwargs)
    return seen


@pytest.mark.parametrize("shear, basepoint", [
    (DEFAULT_SHEAR, default_basepoint()), (Fraction(1, 1000), 0.5), (Fraction(1, 10), -1.2225),
])
def test_a_mirrored_half_starts_on_the_first_halfs_last_sample(monkeypatch, shear, basepoint):
    for loop in _tracked_loops(monkeypatch, shear=shear, basepoint=basepoint):
        first, second = loop.circle
        far = [s[-1] for s in first.strands]
        assert [s[0] for s in second.strands] == far
        # the far fiber is exactly symmetric, and strand k goes on along the
        # conjugate of the strand whose far sample is its own conjugate
        mirror = [far.index(z.conjugate()) for z in far]
        for k, j in enumerate(mirror):
            assert far[j] == far[k].conjugate()
            assert second.strands[k][1] == first.strands[j][-2].conjugate()
        # the next leg of the walk tree starts on the same junction samples
        assert [s[-1] for s in loop.walk[-1].strands] == [s[0] for s in first.strands]


def test_a_factorization_shears_its_curve_once(monkeypatch):
    from cuspidal import quartic
    calls = []

    def counted(curve, shear):
        calls.append(shear)
        return sheared(curve, shear)

    sheared = quartic.sheared_curve
    monkeypatch.setattr(quartic, "sheared_curve", counted)
    monkeypatch.setattr(monodromy, "sheared_curve", counted)
    result = monodromy_factorization(shear=Fraction(1, 37))
    assert calls == [Fraction(1, 37)]
    assert [loop.target for loop in result.loops] == [
        v for v, _ in critical_values(cuspidal_quartic(), Fraction(1, 37))]
