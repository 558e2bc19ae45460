"""Root continuation along paths in the base of a parametrized fiber polynomial.

The predictor is the previous position, the corrector a short Newton run on
the new fiber; a step is accepted only when every Newton run converges (see
``continue_roots``) and every corrected move stays below a third of the
current minimum pairwise strand separation.  This is a heuristic, not a
certificate: it does not exclude two strands crossing between samples.
Rejected steps are halved, HALVING_BUDGET times at most, then the failure
is reported loudly.

A halving reuses what the failed attempt computed: the first half starts
from the same positions, so it keeps their separation, and the second half
ends at the same x, so it keeps that fiber.  The strands are corrected one
at a time and the attempt stops at the first that fails; the strand that
failed last is tried first, since a failing step usually fails again on its
halves at the same strand.  Each strand's test depends only on its own
position, so neither reuse nor order changes which steps are accepted.

Each fiber's coefficients are reversed once, when it is evaluated, and the
Newton runs are inline in the correction loop: Horner for p and p' starts
from the leading coefficient, and is unrolled for a quartic, the degree of
every fiber of the 3-cuspidal quartic.  The values are those of the plain
Horner loop of ``roots.eval_poly_deriv``, operation for operation, without
its first pass, which only multiplies zeros.

Over a real path with real fibers and an exactly symmetric start, the real
route tracks half the work for the same samples: a real strand stays real,
so its Newton runs are in floats, and a conjugate pair's runs are exact
conjugates of each other, so only one is run.  CPython's complex product
and quotient are symmetric under conjugation, and on exactly real operands
they give the float result as the real part and 0 as the imaginary part,
so every sample is ``==`` to the general route's.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .roots import _eval_error_bound, eval_poly, inclusion_radius

HALVING_BUDGET = 40
NEWTON_STEPS = 24  # Newton iterations per corrector run
NEWTON_TOL = 5e-13  # relative step size at which a corrector run converges


class ContinuationError(RuntimeError):
    pass


class ClearanceError(ContinuationError):
    """The requested path runs too close to a critical value."""


def _segment_point_distance(a, b, p):
    if a == b:
        return abs(p - a)
    ab = b - a
    t = ((p - a) * ab.conjugate()).real / (abs(ab) ** 2)
    t = min(1.0, max(0.0, t))
    return abs(p - (a + t * ab))


def check_clearance(path, critical_values, clearance):
    for a, b in zip(path, path[1:]):
        for c in critical_values:
            d = _segment_point_distance(complex(a), complex(b), complex(c))
            if d < clearance:
                raise ClearanceError(
                    f"path segment {a:.6g} -> {b:.6g} passes within "
                    f"{d:.3g} of critical value {c:.6g} (clearance {clearance:.3g})")


@dataclass
class StrandPath:
    strand_id: int
    samples: list  # complex positions at the accepted steps, the start first


def _at_rounding_floor(coeffs, z, sep):
    """A Newton run that never passed the step test still converges at z
    when |p(z)| is within the Horner error bound and the exact
    ``inclusion_radius`` of the fiber at z is below sep/6."""
    return (abs(eval_poly(coeffs, z)) <= _eval_error_bound(coeffs, z)
            and inclusion_radius(coeffs, z) < sep / 6.0)


def _min_pairwise(points):
    if len(points) == 4:  # every fiber of the 3-cuspidal quartic
        a, b, c, d = points
        return min(abs(a - b), abs(a - c), abs(a - d), abs(b - c), abs(b - d), abs(c - d))
    return min([abs(a - b) for a, b in combinations(points, 2)], default=float("inf"))


def _newton_run(descending, z):
    """A Newton run from z on the polynomial with descending coefficients,
    for any degree: (converged, z).  converged is True when a step fell
    below NEWTON_TOL * max(1, |z|), False when p' vanished, and None when
    the NEWTON_STEPS iterations ran out.  ``continue_roots`` runs the same
    iteration inline, unrolled, on a quartic."""
    lead, rest = descending[0], descending[1:]
    size = abs(z)
    tol = NEWTON_TOL * (size if size > 1.0 else 1.0)
    for _ in range(NEWTON_STEPS):
        p, dp = lead, 0.0
        for c in rest:
            dp = dp * z + p
            p = p * z + c
        if dp == 0:
            return False, z
        step = p / dp
        z = z - step
        if abs(step) < tol:
            return True, z
    return None, z


class _NonRealFiber(Exception):
    """A fiber over a real x has a coefficient with an imaginary part."""


def _real_mates(path, positions):
    """mates[k] = k for a real strand and the index of its partner for a
    strand of a conjugate pair, when every waypoint is real and the start is
    exactly symmetric: each position has imaginary part 0, or exactly one
    other position equals its conjugate.  None otherwise."""
    if any(x.imag for x in path):
        return None
    mates = []
    for k, z in enumerate(positions):
        if not z.imag:
            mates.append(k)
            continue
        partners = [j for j, w in enumerate(positions) if w == z.conjugate()]
        if len(partners) != 1:
            return None
        mates.append(partners[0])
    return mates


def continue_roots(fiber_coeffs, path, initial):
    """Track all simple fiber roots along a piecewise-linear path of x values.

    fiber_coeffs(x) must return the ascending coefficient list of the fiber
    polynomial at x, and initial the positions of its roots over path[0].
    Returns one StrandPath per root; strand k starts at the k-th initial
    position, and every strand has one sample per accepted step.

    When every waypoint is real and the start is exactly symmetric (see
    ``_real_mates``), the real route runs: the fiber's coefficients are
    taken as floats, a real strand is corrected in float arithmetic, and
    of each conjugate pair one strand is corrected and the other set to its
    exact conjugate.  CPython's complex product and quotient are symmetric
    under conjugation and keep an exactly real value real with the same
    real part, so the samples are ``==`` to the general route's; a real
    strand's samples are floats.  A fiber with a non-real coefficient over
    the path sends the whole call to the general route.
    """
    if len(path) < 1:
        raise ValueError("empty path")
    positions = [complex(z) for z in initial]
    if not positions:
        raise ContinuationError("no roots to continue")
    mates = _real_mates(path, positions)
    if mates is not None:
        try:
            return _track(fiber_coeffs, path, positions, mates)
        except _NonRealFiber:
            pass
    return _track(fiber_coeffs, path, positions, None)


def _track(fiber_coeffs, path, positions, mates):
    """``continue_roots`` on the real route with the given mates, or on the
    general route for mates None."""
    n = len(positions)
    if mates is None:
        order = list(range(n))  # correction order: the strand that failed last leads
    else:
        positions = [z.real if k == j else z for k, (z, j) in enumerate(zip(positions, mates))]
        order = [k for k in range(n) if mates[k] >= k]  # each real strand, each pair's first
    paths = [StrandPath(k, [positions[k]]) for k in range(n)]
    samples = [p.samples for p in paths]

    def evaluate(x):
        """The fiber over x: its (ascending, descending) coefficients."""
        coeffs = fiber_coeffs(x)
        if mates is not None:
            if any(c.imag for c in coeffs):
                raise _NonRealFiber
            coeffs = [c.real for c in coeffs]
        return coeffs, coeffs[::-1]

    def correct(fiber, pos, sep):
        """Corrected positions over the fiber, or None on a failure.

        Each strand in the correction order gets a Newton run, inline and
        unrolled on a quartic (the degree is decided once per correction),
        else ``_newton_run``; on the real route its pair partner gets the
        conjugate of its result.  A run that ran out of iterations, since
        near a collision of strands rounding noise in p/p' can keep its
        steps above the test, converges at the rounding floor
        (``_at_rounding_floor``).
        """
        coeffs, descending = fiber
        new = [None] * n
        bound = sep / 3.0
        quartic = len(descending) == 5
        if quartic:
            c4, c3, c2, c1, c0 = descending
        for i, k in enumerate(order):
            z = start = pos[k]
            if quartic:
                size = abs(z)
                tol = NEWTON_TOL * (size if size > 1.0 else 1.0)  # max(1, |z|)
                converged = None
                for _ in range(NEWTON_STEPS):
                    t = c4 * z
                    p = t + c3
                    dp = t + p
                    p = p * z + c2
                    dp = dp * z + p
                    p = p * z + c1
                    dp = dp * z + p
                    p = p * z + c0
                    if dp == 0:
                        converged = False
                        break
                    step = p / dp
                    z = z - step
                    if abs(step) < tol:
                        converged = True
                        break
            else:
                converged, z = _newton_run(descending, start)
            if converged is None:
                converged = _at_rounding_floor(coeffs, z, sep)
            if not converged or abs(z - start) >= bound:
                if i:
                    order.insert(0, order.pop(i))
                return None
            new[k] = z
            if mates is not None and mates[k] != k:
                new[mates[k]] = z.conjugate()
        return new

    sep = _min_pairwise(positions)
    for xa, xb in zip(path, path[1:]):
        if xa == xb:
            continue
        # pending halves, the next one last: (x at its end, fiber there, depth)
        pending = [(xb, evaluate(xb), 0)]
        x_here = xa
        while pending:
            x_to, fiber, depth = pending[-1]
            new = correct(fiber, positions, sep)
            if new is None:
                if depth >= HALVING_BUDGET:
                    raise ContinuationError(
                        f"step from {x_here:.6g} to {x_to:.6g} kept failing after "
                        f"{HALVING_BUDGET} halvings")
                mid = (x_here + x_to) / 2
                pending[-1] = (x_to, fiber, depth + 1)
                pending.append((mid, evaluate(mid), depth + 1))
                continue
            pending.pop()
            x_here, positions = x_to, new
            sep = _min_pairwise(positions)
            for s, z in zip(samples, positions):
                s.append(z)
    return paths

