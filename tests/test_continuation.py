import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspidal import continuation
from cuspidal.continuation import (
    HALVING_BUDGET, NEWTON_STEPS, NEWTON_TOL, ClearanceError, ContinuationError,
    StrandPath, _min_pairwise, check_clearance, continue_roots,
)
from cuspidal.monodromy import _start_roots, build_loops, fiber_evaluator
from cuspidal.quartic import critical_values, cuspidal_quartic, sheared_curve
from cuspidal.roots import _eval_error_bound, eval_poly, inclusion_radius, roots_univariate


def fiber_c(x):
    """Fiber quartic of the 3-cuspidal quartic: y^4 + A(x) y^2 + (x^3 + x^4)."""
    return [x ** 3 + x ** 4, 0.0, 2 * x ** 2 + 9 * x + 27 / 4, 0.0, 1.0]


def fiber_roots(x):
    return [r.value for r in roots_univariate(fiber_c(x))]


def circle(center, radius, start_angle=0.0, turns=1.0, steps=24):
    return [center + radius * cmath.exp(1j * (start_angle + 2 * math.pi * turns * k / steps))
            for k in range(steps + 1)]


def test_constant_path_is_constant():
    paths = continue_roots(fiber_c, [-0.5, -0.5, -0.5], initial=fiber_roots(-0.5))
    for p in paths:
        assert all(abs(z - p.samples[0]) < 1e-14 for z in p.samples)


def test_real_strands_become_real_past_tangency():
    # detour counterclockwise around the tangency at x = -1 (its critical value)
    detour = [-1 + 0.02 * cmath.exp(1j * t * math.pi / 8) for t in range(9)]
    path = [-0.5, -0.98] + detour + [-1.05]
    start = fiber_roots(-0.5)
    paths = continue_roots(fiber_c, path, initial=start)
    start_real = sorted(abs(z.imag) < 1e-12 for z in start)
    assert start_real == [False, False, True, True]
    for p in paths:
        assert abs(p.samples[-1].imag) < 1e-9  # four real roots at -1.05


def test_straight_path_through_critical_value_fails():
    with pytest.raises(ContinuationError):
        continue_roots(fiber_c, [-0.5, -1.05], initial=fiber_roots(-0.5))


def test_clearance_precondition():
    with pytest.raises(ClearanceError):
        check_clearance([-0.5, -1.05], [-1.0], 0.01)
    check_clearance([-0.5 + 0.5j, -1.05 + 0.5j], [-1.0], 0.01)


def end_permutation(paths, reference):
    """Match final strand positions against reference positions by nearest
    disk: perm[k] is the index of the reference position where strand k
    ends.  Raises ContinuationError if the matching is ambiguous or not a
    bijection.  The loops here start on fibers that are not made exactly
    symmetric, so their strands are matched by distance, not by the exact
    lookup of ``monodromy._track_side``."""
    perm = []
    for p in paths:
        z = p.samples[-1]
        dists = sorted((abs(z - w), i) for i, w in enumerate(reference))
        if len(dists) > 1 and dists[0][0] > 0.45 * dists[1][0]:
            raise ContinuationError(f"ambiguous end matching for strand {p.strand_id}")
        perm.append(dists[0][1])
    if sorted(perm) != list(range(len(reference))):
        raise ContinuationError("end fiber does not match reference positions")
    return perm


def test_loop_around_origin_swaps_colliding_strands():
    start = fiber_roots(-0.5)
    loop = circle(0.0, 0.5, start_angle=math.pi, steps=48)
    paths = continue_roots(fiber_c, loop, initial=start)
    perm = end_permutation(paths, start)
    real_idx = [i for i, z in enumerate(start) if abs(z.imag) < 1e-12]
    imag_idx = [i for i, z in enumerate(start) if abs(z.imag) >= 1e-12]
    assert sorted((real_idx[0], perm[real_idx[0]])) == sorted(real_idx)
    assert perm[real_idx[0]] == real_idx[1] and perm[real_idx[1]] == real_idx[0]
    for i in imag_idx:
        assert perm[i] == i


def test_loop_then_reverse_is_identity():
    start = fiber_roots(-0.5)
    loop = circle(0.0, 0.5, start_angle=math.pi, steps=48)
    both = loop + loop[::-1]
    paths = continue_roots(fiber_c, both, initial=start)
    perm = end_permutation(paths, start)
    assert perm == list(range(4))


def test_reversed_loop_inverts_permutation():
    start = fiber_roots(-0.5)
    loop = circle(0.0, 0.5, start_angle=math.pi, steps=48)
    perm_f = end_permutation(continue_roots(fiber_c, loop, initial=start), start)
    perm_b = end_permutation(continue_roots(fiber_c, loop[::-1], initial=start), start)
    composed = [perm_b[perm_f[i]] for i in range(4)]
    assert composed == list(range(4))


def test_fiber_symmetry_under_conjugation_and_negation():
    for x in (-0.5, 0.7, -1.06):
        roots = roots_univariate(fiber_c(x))
        vals = [r.value for r in roots for _ in range(r.multiplicity)]
        for v in vals:
            assert min(abs(v.conjugate() - w) for w in vals) < 1e-9
            assert min(abs(-v - w) for w in vals) < 1e-9


def _from_roots(roots):
    coeffs = [1 + 0j]
    for r in roots:
        nxt = [0j] * (len(coeffs) + 1)
        for i, a in enumerate(coeffs):
            nxt[i + 1] += a
            nxt[i] -= r * a
        coeffs = nxt
    return coeffs


def _newton_track(coeffs, z, sep):
    """The reference Newton run, returning (converged, new position).

    A run converges when a step falls below NEWTON_TOL * max(1, |z|).  Near a
    collision of strands p/p' can stay above that for rounding noise alone,
    so a run that never passes the step test still converges when it ends
    at the rounding floor: |p(z)| within the Horner error bound and the
    exact ``inclusion_radius`` of the fiber at z below sep/6.
    """
    tol = NEWTON_TOL * max(1.0, abs(z))
    descending = coeffs[::-1]
    for _ in range(NEWTON_STEPS):
        p = dp = 0j  # Horner for p and p' together, as roots.eval_poly_deriv
        for c in descending:
            dp = dp * z + p
            p = p * z + c
        if dp == 0:
            return False, z
        step = p / dp
        z = z - step
        if abs(step) < tol:
            return True, z
    at_floor = abs(eval_poly(coeffs, z)) <= _eval_error_bound(coeffs, z)
    return at_floor and inclusion_radius(coeffs, z) < sep / 6.0, z


def test_newton_track_stops_at_the_rounding_floor():
    # two roots 2e-5 apart: p/p' is rounding noise above the step test, so
    # only the rounding-floor stop can accept the run, and only while the
    # exact inclusion radius at its end stays below sep/6
    w, d = 0.7123 + 0.3071j, 1e-5
    coeffs = _from_roots([w + d, w - d, -1.3 + 0.2j, 0.4 - 1.1j])
    converged, z = _newton_track(coeffs, w + 1.01 * d, 2 * d)
    assert converged and abs(z - (w + d)) < 1e-9
    radius = inclusion_radius(coeffs, z)
    assert 1e-13 < radius < 1e-12
    assert not _newton_track(coeffs, w + 1.01 * d, 5 * radius)[0]


def test_newton_track_rejects_an_unresolved_cluster():
    w, d = 0.7123 + 0.3071j, 1e-10
    coeffs = _from_roots([w + d, w - d, -1.3 + 0.2j, 0.4 - 1.1j])
    assert not _newton_track(coeffs, w + 1.01 * d, 2 * d)[0]


def reference_continue_roots(fiber_coeffs, path, initial):
    """The plain halving tracker: every attempt evaluates its fiber and
    separation afresh and tries the strands in index order."""
    positions = [complex(z) for z in initial]
    n = len(positions)
    paths = [StrandPath(k, [positions[k]]) for k in range(n)]

    def advance(x_from, x_to, pos, depth):
        coeffs = fiber_coeffs(x_to)
        sep = _min_pairwise(pos)
        new = []
        for z in pos:
            conv, z2 = _newton_track(coeffs, z, sep)
            if not conv or abs(z2 - z) >= sep / 3.0:
                break
            new.append(z2)
        else:
            return [new]
        if depth >= HALVING_BUDGET:
            raise ContinuationError("halving budget exhausted")
        mid = (x_from + x_to) / 2
        first = advance(x_from, mid, pos, depth + 1)
        return first + advance(mid, x_to, first[-1], depth + 1)

    for xa, xb in zip(path, path[1:]):
        if xa == xb:
            continue
        accepted = advance(xa, xb, positions, 0)
        for pos in accepted:
            for k in range(n):
                paths[k].samples.append(pos[k])
        positions = accepted[-1]
    return paths


def _assert_same_samples(fiber, path, initial):
    got = continue_roots(fiber, path, initial)
    want = reference_continue_roots(fiber, path, initial)
    assert [p.samples for p in got] == [p.samples for p in want]
    return got


def test_split_cusp_walk_matches_the_halving_reference():
    shear, basepoint = Fraction(1, 679), 0.34010940278577345
    sheared = sheared_curve(cuspidal_quartic(), shear)
    loops, _ = build_loops(critical_values(cuspidal_quartic(), shear), basepoint)
    split = loops[0]  # the split cusp farthest left, past the two others
    start = _start_roots(sheared, basepoint)
    paths = _assert_same_samples(fiber_evaluator(sheared, split.target.real),
                                 split.walk + split.circle, start)
    assert len(paths[0].samples) > 1000


def test_halving_heavy_circle_matches_the_halving_reference():
    start = fiber_roots(-0.5)
    loop = circle(0.0, 0.5, start_angle=math.pi, steps=3)
    paths = _assert_same_samples(fiber_c, loop, start)
    assert len(paths[0].samples) > 10 * len(loop)


@settings(max_examples=8, deadline=None)
@given(basepoint=st.floats(0.05, 0.95), steps=st.integers(4, 16))
def test_origin_loops_match_the_halving_reference(basepoint, steps):
    start = fiber_roots(basepoint)
    loop = circle(0.0, basepoint, steps=steps)
    _assert_same_samples(fiber_c, loop, start)


@pytest.mark.parametrize("degree", [3, 4, 5])
def test_swapping_roots_match_the_halving_reference(degree):
    # degrees 3 and 5 take the general Horner loop, 4 the unrolled one; the
    # roots x and -x trade places as x goes half around 0
    fixed = [2.1 + 0.4j, -1.7 - 1.9j, 0.3 + 2.6j][:degree - 2]

    def fiber(x):
        return _from_roots([x, -x] + fixed)

    half_turn = circle(0.0, 0.8, steps=5, turns=0.5)
    paths = _assert_same_samples(fiber, half_turn, [0.8, -0.8] + fixed)
    assert abs(paths[0].samples[-1] + 0.8) < 1e-12
    assert len(paths[0].samples) > len(half_turn)  # some steps were halved


@pytest.mark.parametrize("degree", [4, 5])
def test_rounding_floor_path_matches_the_halving_reference(monkeypatch, degree):
    # a root pair 2e-5 apart moves along: p/p' is rounding noise above the
    # step test there, so its strands are accepted at the rounding floor
    w, d = 0.7123 + 0.3071j, 1e-5
    others = [-1.3 + 0.2j, 0.4 - 1.1j, 1.9 + 1.2j][:degree - 2]

    def fiber(x):
        return _from_roots([w + d + x, w - d + x] + others)

    at_floor, verdicts = continuation._at_rounding_floor, []

    def recorded(coeffs, z, sep):
        verdicts.append(at_floor(coeffs, z, sep))
        return verdicts[-1]

    monkeypatch.setattr(continuation, "_at_rounding_floor", recorded)
    _assert_same_samples(fiber, [0.0, 1e-6, 3e-6j, 4e-6 + 1e-6j], [w + d, w - d] + others)
    assert any(verdicts)


def _real_fiber(reals, pairs):
    """x -> ascending float coefficients of the real polynomial with real
    roots a + b x for (a, b) in reals and conjugate pairs c + d x ± i(e + f x)
    for (c, d, e, f) in pairs, multiplied out in float arithmetic."""
    def fiber(x):
        coeffs = [1.0]
        factors = ([[-(a + b * x), 1.0] for a, b in reals]
                   + [[(c + d * x) ** 2 + (e + f * x) ** 2, -2 * (c + d * x), 1.0]
                      for c, d, e, f in pairs])
        for factor in factors:
            out = [0.0] * (len(coeffs) + len(factor) - 1)
            for i, a in enumerate(coeffs):
                for j, b in enumerate(factor):
                    out[i + j] += a * b
            coeffs = out
        return coeffs
    return fiber


def _symmetric_start(reals, pairs, x):
    """The roots of ``_real_fiber(reals, pairs)`` over x, exactly symmetric:
    real roots as floats with imaginary part 0, pairs as exact conjugates."""
    start = [complex(a + b * x) for a, b in reals]
    for c, d, e, f in pairs:
        z = complex(c + d * x, e + f * x)
        start += [z, z.conjugate()]
    return start


@st.composite
def real_fibers(draw):
    """(reals, pairs, path): a real quartic or quintic fiber whose roots
    move linearly with x, stay simple over x in [-1, 1], and a real path
    there."""
    degree = draw(st.sampled_from([4, 5]))
    n_pairs = draw(st.integers(0, 2))
    drift = st.floats(-0.1, 0.1)
    reals = [(a, draw(drift)) for a in
             draw(st.lists(st.integers(-12, 12), min_size=degree - 2 * n_pairs,
                           max_size=degree - 2 * n_pairs, unique=True))]
    reals = [(a / 4, b) for a, b in reals]  # a quarter apart, drifting 0.1 at most
    pairs = [(c / 4, draw(drift), e, draw(drift)) for c, e in
             zip(draw(st.lists(st.integers(-12, 12), min_size=n_pairs, max_size=n_pairs,
                               unique=True)),
                 draw(st.lists(st.floats(0.3, 2.0), min_size=n_pairs, max_size=n_pairs)))]
    path = draw(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=5))
    return reals, pairs, path


@settings(max_examples=60, deadline=None)
@given(real_fibers())
def test_real_route_matches_the_halving_reference(inputs):
    reals, pairs, path = inputs
    fiber = _real_fiber(reals, pairs)
    start = _symmetric_start(reals, pairs, path[0])
    assert continuation._real_mates(path, start) is not None
    got = _assert_same_samples(fiber, path, start)
    # the real route's real strands are floats; each pair stays conjugate
    for p in got[:len(reals)]:
        assert all(isinstance(z, float) for z in p.samples)
    for k in range(len(reals), len(start), 2):
        assert got[k + 1].samples == [z.conjugate() for z in got[k].samples]


def test_a_start_that_is_not_exactly_symmetric_takes_the_general_route():
    reals, pairs = [(-0.5, 0.05), (0.75, -0.02)], [(0.25, 0.01, 0.8, 0.05)]
    fiber, path = _real_fiber(reals, pairs), [0.0, 0.6, -0.3]
    start = _symmetric_start(reals, pairs, 0.0)
    assert continuation._real_mates(path, start) == [0, 1, 3, 2]
    almost = [start[0] + 1e-300j] + start[1:]  # a real strand an ulp off the axis
    lopsided = start[:3] + [start[3] + 1e-16]  # a pair conjugate only up to rounding
    for initial in (almost, lopsided):
        assert continuation._real_mates(path, initial) is None
        got = _assert_same_samples(fiber, path, initial)
        assert all(isinstance(z, complex) for p in got for z in p.samples)
    # a waypoint off the axis, or a fiber with a non-real coefficient
    assert continuation._real_mates([0.0, 0.6 + 1e-9j], start) is None

    def tilted(x):
        return [c + (1e-12j if x > 0.3 else 0) for c in fiber(x)]

    got = _assert_same_samples(tilted, path, start)
    assert all(isinstance(z, complex) for p in got for z in p.samples)
