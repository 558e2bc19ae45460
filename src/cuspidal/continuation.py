"""Root continuation along paths in the base of a parametrized fiber polynomial.

The predictor is the previous position, the corrector a short Newton run on
the new fiber; a step is accepted only when every Newton run converges (see
``_newton_track``) and every corrected move stays below a third of the
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
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _newton_track(coeffs, z, sep):
    """Newton iteration returning (converged, new position).

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


def _min_pairwise(points):
    best = None
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            d = abs(points[i] - points[j])
            if best is None or d < best:
                best = d
    return best if best is not None else float("inf")


def continue_roots(fiber_coeffs, path, initial):
    """Track all simple fiber roots along a piecewise-linear path of x values.

    fiber_coeffs(x) must return the ascending coefficient list of the fiber
    polynomial at x, and initial the positions of its roots over path[0].
    Returns one StrandPath per root; strand k starts at the k-th initial
    position, and every strand has one sample per accepted step.
    """
    if len(path) < 1:
        raise ValueError("empty path")
    positions = [complex(z) for z in initial]
    n = len(positions)
    if n < 1:
        raise ContinuationError("no roots to continue")
    paths = [StrandPath(k, [positions[k]]) for k in range(n)]
    order = list(range(n))  # correction order: the strand that failed last leads

    def correct(coeffs, pos, sep):
        """Corrected positions over the fiber coeffs, or None on a failure."""
        new = [None] * n
        bound = sep / 3.0
        for i, k in enumerate(order):
            z = pos[k]
            conv, z2 = _newton_track(coeffs, z, sep)
            if not conv or abs(z2 - z) >= bound:
                if i:
                    order.insert(0, order.pop(i))
                return None
            new[k] = z2
        return new

    sep = _min_pairwise(positions)
    for xa, xb in zip(path, path[1:]):
        if xa == xb:
            continue
        # pending halves, the next one last: (x at its end, fiber there, depth)
        pending = [(xb, fiber_coeffs(xb), 0)]
        x_here = xa
        while pending:
            x_to, coeffs, depth = pending[-1]
            new = correct(coeffs, positions, sep)
            if new is None:
                if depth >= HALVING_BUDGET:
                    raise ContinuationError(
                        f"step from {x_here:.6g} to {x_to:.6g} kept failing after "
                        f"{HALVING_BUDGET} halvings")
                mid = (x_here + x_to) / 2
                pending[-1] = (x_to, coeffs, depth + 1)
                pending.append((mid, fiber_coeffs(mid), depth + 1))
                continue
            pending.pop()
            x_here, positions = x_to, new
            sep = _min_pairwise(positions)
            for k in range(n):
                paths[k].samples.append(positions[k])
    return paths


def end_permutation(paths, reference):
    """Match final strand positions against reference positions by nearest disk.

    Returns perm with perm[k] = index of the reference position where
    strand k ends.  Errors out if the matching is ambiguous or not a
    bijection.
    """
    perm = []
    for p in paths:
        z = p.samples[-1]
        dists = sorted((abs(z - w), i) for i, w in enumerate(reference))
        if len(dists) > 1 and dists[0][0] > 0.45 * dists[1][0]:
            raise ContinuationError(
                f"ambiguous end matching for strand {p.strand_id}")
        perm.append(dists[0][1])
    if sorted(perm) != list(range(len(reference))):
        raise ContinuationError("end fiber does not match reference positions")
    return perm
