"""Braid monodromy of a plane curve by continuation around critical values.

Loops run along the real axis from the basepoint to a circle about their
target, go once around it counterclockwise and come back the way they
went.  On each side of the basepoint the walks are prefixes of one path:
a walk passes each nearer critical value along the first half of that
value's own circle, a counterclockwise half-turn, above it going left and
below it going right.  Loops are emitted in the counterclockwise cyclic
order of their departure directions: targets left of the basepoint
farthest first, then targets to the right nearest first.  Each axis leg
and each first half circle of that tree is tracked once; a loop's walk is
the tree's samples up to its circle.  The curve is real and each circle
is its own mirror image in the real axis, so the second half of a circle
is not tracked: its strands are the first half's, conjugated and
reversed.  The circle ends on the walk's end fiber permuted, and each
strand comes back along the walk of the strand it ended on, reversed, so
the return leg sweeps to exactly the inverse of the walk's word.

The strand sweep orders the fiber by real part and emits one signed Artin
letter per transversal exchange of neighbors; a counterclockwise exchange,
the strand coming from the right passing above, is positive.  Ties and
tangencies are broken by rotating the fiber plane by k pi/17, and all the
factors of one factorization are read at one rotation: the basepoint fiber
is ordered by real part in that frame, so factors read in different frames
need not multiply to one factorization.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .braids import BraidWord, free_reduce
from .continuation import (StrandPath, check_clearance, continue_roots,
                           end_permutation)
from .quartic import (CurveError, classify_real_fiber, critical_values,
                      cuspidal_quartic, sheared_curve)
from .roots import roots_univariate

DEFAULT_SHEAR = Fraction(1, 100)
MAX_ROTATIONS = 16  # sweep retries, each rotating the fiber plane by pi/17


def default_basepoint():
    """x0 = 3/4 (sqrt 3 - 3), between the tangency and the origin cusp."""
    return 0.75 * (math.sqrt(3) - 3)


class SweepError(RuntimeError):
    pass


class _Ambiguous(Exception):
    pass


@dataclass
class LoopSpec:
    """Walk from the basepoint to the circle around target, and the circle,
    which starts at walk[-1] and goes once counterclockwise around target,
    ending exactly where it starts.  The circle is its own mirror image in
    the real axis: its second half is the first half conjugated and
    reversed, and is read off the first, not tracked.  The walk to the next
    farther target on the same side begins with this walk and the first
    half of this circle.  The loop returns along the walk reversed; that
    leg is not tracked either."""
    target: complex
    multiplicity: int
    walk: list
    circle: list


@dataclass
class MonodromyResult:
    n_strands: int
    factors: list
    loops: list
    basepoint: float
    shear: Fraction
    strand_names: list
    sweep_rotation: int  # every factor is read in the fiber plane rotated by k pi/17
    strand_paths: list = field(default_factory=list)

    def exponent_sums(self):
        return [f.exponent_sum() for f in self.factors]

    def to_json(self):
        return {
            "n": self.n_strands,
            "basepoint": self.basepoint,
            "shear": f"{self.shear.numerator}/{self.shear.denominator}",
            "critical_values": [[loop.target.real, loop.target.imag]
                                for loop in self.loops],
            "orders": [loop.multiplicity for loop in self.loops],
            "strand_names": list(self.strand_names),
            "factors": [f.to_json() for f in self.factors],
        }


def build_loops(criticals, basepoint, circle_steps=32):
    """Loops (walk and circle waypoints) in counterclockwise cyclic order:
    left targets farthest first, then right targets nearest first.

    Circles have a quarter of the smallest distance among critical values
    and basepoint as radius r, start on the axis at r from their target on
    the basepoint's side and turn counterclockwise.  Each circle is exactly
    its own mirror image in the real axis: its far point is the axis point
    at r beyond its target, its second half is the first half conjugated
    and reversed, and it ends on its start.  The walks on each side
    of the basepoint are prefixes of one path: the walk to the nearest
    target is the axis leg from the basepoint, and the walk to each farther
    one continues along the first half of the previous target's circle, the
    same waypoints, and an axis leg to the next circle's start.  So a walk
    passes each intermediate critical value by a counterclockwise half-turn,
    above it going left and below it going right.  The return leg of each
    loop is its walk reversed, so it has no waypoints of its own.

    Raises ValueError unless circle_steps is even and at least 4, so that
    the half circle ends on the axis and does not pass through its center.
    """
    if circle_steps < 4 or circle_steps % 2:
        raise ValueError(f"circle_steps must be an even number of at least 4, "
                         f"not {circle_steps}")
    reals = []
    for value, mult in criticals:
        value = complex(value)
        if value.imag != 0:
            raise SweepError(f"critical value {value} is not real; "
                             "loop construction expects the real configuration")
        reals.append((value.real, mult))
    values = [v for v, _ in reals]
    gaps = [abs(a - b) for i, a in enumerate(values) for b in values[i + 1:]]
    dmin = min(gaps + [min(abs(basepoint - v) for v in values)])
    r = dmin / 4

    half = circle_steps // 2

    def side(targets, sign):
        """Loops about targets, nearest first, on the side sign (+1 left)."""
        walk, loops = [complex(basepoint)], []
        start_angle = 0.0 if sign > 0 else math.pi
        for v, m in targets:
            walk = walk + [complex(v + sign * r)]
            first = (walk[-1:]
                     + [v + r * cmath.exp(1j * (start_angle + 2 * math.pi * k / circle_steps))
                        for k in range(1, half)]
                     + [complex(v - sign * r)])
            circle = first + [z.conjugate() for z in first[-2:0:-1]] + walk[-1:]
            loops.append(LoopSpec(complex(v), m, walk, circle))
            walk = walk + first[1:]
        return loops

    left = side(sorted(((v, m) for v, m in reals if v < basepoint), reverse=True), 1.0)
    right = side(sorted((v, m) for v, m in reals if v > basepoint), -1.0)
    return left[::-1] + right, r


def _decompose_adjacent_swaps(order, new_order):
    """Indices i where order swaps (i, i+1); raises if not disjoint swaps."""
    n = len(order)
    swaps = []
    i = 0
    while i < n:
        if new_order[i] == order[i]:
            i += 1
        elif (i + 1 < n and new_order[i] == order[i + 1]
              and new_order[i + 1] == order[i]):
            swaps.append(i)
            i += 2
        else:
            raise _Ambiguous("order change is not a product of disjoint adjacent swaps")
    return swaps


def _sweep(strands, rotation, tol):
    """Signed Artin letters of the strands (position lists at common samples)
    swept by real part in the fiber plane multiplied by rotation."""
    n = len(strands)
    steps = zip(*(map(rotation.__mul__, s) for s in strands))
    prev = next(steps)
    order = sorted(range(n), key=lambda k: (prev[k].real, prev[k].imag))
    neighbors = list(zip(order, order[1:]))
    letters = []
    for cur in steps:
        # strictly increasing real parts along the old order: sorting keeps it
        if not all(cur[a].real < cur[b].real for a, b in neighbors):
            keys = [(z.real, z.imag) for z in cur]
            new_order = sorted(range(n), key=keys.__getitem__)
            if new_order != order:
                for i in _decompose_adjacent_swaps(order, new_order):
                    a, b = order[i], order[i + 1]  # b on the right before the swap
                    f0 = prev[b].real - prev[a].real
                    f1 = cur[b].real - cur[a].real
                    if f0 <= 0 or f1 >= 0:
                        raise _Ambiguous("non-transversal crossing")
                    t = f0 / (f0 - f1)
                    g = (1 - t) * (prev[b].imag - prev[a].imag) + t * (cur[b].imag - cur[a].imag)
                    if abs(g) < tol:
                        raise _Ambiguous("crossing too close to a true collision")
                    letters.append((i + 1) if g > 0 else -(i + 1))
                order = new_order
                neighbors = list(zip(order, order[1:]))
        prev = cur
    return letters


def braid_from_strand_paths(paths, first_rotation=0):
    """Sweep a family of strand paths, sampled at common steps, into a
    braid word.

    The fiber plane is rotated by k pi/17 for k = first_rotation,
    first_rotation + 1, ... until every crossing is a clean transversal
    exchange of neighbors.  Returns the word and that k; ambiguity up to
    k = MAX_ROTATIONS is a hard error.
    """
    n = len(paths)
    if n < 2:
        raise SweepError("need at least two strands")
    if len({len(p.samples) for p in paths}) > 1:
        raise SweepError("strand paths do not have the same number of samples")
    strands = [p.samples for p in paths]
    tol = 1e-11 * (max(abs(z) for s in strands for z in s) or 1.0)
    last = None
    for k in range(first_rotation, MAX_ROTATIONS + 1):
        try:
            letters = _sweep(strands, cmath.exp(1j * math.pi * k / 17), tol)
            return BraidWord(n, free_reduce(tuple(letters))), k
        except _Ambiguous as exc:
            last = exc
    raise SweepError(f"sweep stayed ambiguous after {MAX_ROTATIONS} rotations: {last}")


def _one_frame(families):
    """(words, k): every family of strand paths read at the first rotation
    k pi/17 at which all of them sweep cleanly."""
    k, words = 0, {}
    while len(words) < len(families):
        i = next(j for j in range(len(families)) if j not in words)
        word, clean = braid_from_strand_paths(families[i], k)
        if clean != k:  # rotations k .. clean - 1 are ambiguous for family i
            k, words = clean, {}
        words[i] = word
    return [words[i] for i in range(len(families))], k


def fiber_evaluator(sheared, center):
    """x -> ascending y-coefficients of the sheared curve's fiber over x.

    Each coefficient polynomial in x is Taylor-shifted to the real
    ``center`` exactly over Q and rounded once to float; the returned
    function evaluates it by Horner in x - center.  Near the center, where
    a loop circles its critical value, the fiber is then accurate to a few
    ulps of the Taylor coefficients instead of carrying the cancellation of
    an expansion around 0.  Raises OverflowError, naming the center, when a
    Taylor coefficient leaves double precision.
    """
    c = Fraction(center)
    tables = []
    for poly in sheared.equation.as_univariate("y"):
        a = poly.univariate_coeffs("x")
        for i in range(len(a) - 1):  # repeated synthetic division by x - c
            for j in range(len(a) - 2, i - 1, -1):
                a[j] += c * a[j + 1]
        try:
            tables.append([float(b) for b in reversed(a)])
        except OverflowError:
            raise OverflowError(f"fiber Taylor coefficients at center x = {center} "
                                "overflow double precision") from None
    c = float(c)

    def fiber(x):
        t = x - c
        out = []
        for table in tables:
            acc = 0j
            for b in table:
                acc = acc * t + b
            out.append(acc)
        return out

    return fiber


def _start_roots(sheared, basepoint):
    """Simple fiber roots over the real basepoint, sorted by (real, imag).

    The radii certify the curve's own fiber at the exact basepoint, whose
    coefficients Aberth sees rounded once, as ``fiber_evaluator`` gives
    them there.  The fiber polynomial is real, so its non-real roots come
    in conjugate pairs; each pair gets one shared real part, so that within
    a pair the root with negative imaginary part always comes first instead
    of whichever one rounding put an ulp further left.  Raises
    OverflowError, naming the basepoint, when a coefficient leaves double
    precision.
    """
    x = {"x": Fraction(basepoint)}
    try:
        roots = roots_univariate([c.evaluate(x) for c in sheared.equation.as_univariate("y")])
    except OverflowError:
        raise OverflowError(f"fiber coefficients at x = {basepoint} "
                            "overflow double precision") from None
    values = [r.value for r in roots]
    out = []
    for r in roots:
        z = r.value
        partner = min(values, key=lambda w: abs(w - z.conjugate()))
        if partner != z:
            z = complex((z.real + partner.real) / 2, z.imag)
        out.append(replace(r, value=z))
    return sorted(out, key=lambda r: (r.value.real, r.value.imag))


def _check_mirror(circle):
    """Raise SweepError unless the circle starts and turns on the real axis,
    ends on its start, and its second half is the first half conjugated and
    reversed, which is what ``_track_side`` reads instead of tracking it."""
    half = len(circle) // 2
    if (len(circle) % 2 == 0 or circle[0].imag != 0 or circle[half].imag != 0
            or circle[-1] != circle[0]
            or any(circle[half + j] != circle[half - j].conjugate()
                   for j in range(1, half))):
        raise SweepError("loop circle is not its own mirror image in the real axis, "
                         "so its second half cannot be read off the first")


def _track_side(sheared, loops, start, targets, clearance):
    """Closed strand paths of the loops on one side of the basepoint, given
    nearest target first.

    Their walks are prefixes of one path (see ``build_loops``), and each
    segment of it is tracked once: a loop's walk adds an axis leg to the
    walk tracked so far, and the leg and the first half of the loop's
    circle are one ``continue_roots`` call each, with the fiber centred at
    the loop's target; the first half also continues the walk to the next
    target.  The second half is not tracked.  The curve is real, so the
    fiber over conj(x) is the conjugate of the fiber over x, exactly in
    floats too (``fiber_evaluator``'s tables are real): strand k goes on
    from the far point along the conjugate of the first half of strand j,
    reversed, where j is the strand whose conjugate ends where strand k
    does.  A circle that is not its own mirror image raises SweepError.
    Each leg and first half is checked for clearance once, against every
    critical value but the loop's target; the targets are real, so the
    mirror has the same clearance.  Strand k walks out, circles, and comes
    back along the walk of strand perm[k] reversed, where the circle
    brought it.
    """
    # the first `tracked` walk waypoints are tracked; walk[k] holds strand
    # k's samples along them
    tracked, walk, families = 1, [[z] for z in start], []
    for loop in loops:
        _check_mirror(loop.circle)
        leg = loop.walk[tracked - 1:]
        half = len(loop.circle) // 2
        check_clearance(leg + loop.circle[1:half + 1],
                        [t for t in targets if t != loop.target], clearance)
        fiber = fiber_evaluator(sheared, loop.target.real)
        for s, path in zip(walk, continue_roots(fiber, leg, [s[-1] for s in walk])):
            s += path.samples[1:]
        ends = [s[-1] for s in walk]
        out = continue_roots(fiber, loop.circle[:half + 1], ends)
        # the fiber over the real far point is its own conjugate: strand k
        # sits where strand j's conjugate ends, and goes on along it reversed
        mirror = end_permutation(out, [p.samples[-1].conjugate() for p in out])
        back = [StrandPath(k, [z.conjugate() for z in out[j].samples[::-1]])
                for k, j in enumerate(mirror)]
        # loudly validates that the circle closed on the walk's end fiber
        perm = end_permutation(back, ends)
        families.append([StrandPath(k, walk[k] + o.samples[1:] + b.samples[1:]
                                    + walk[perm[k]][::-1])
                         for k, (o, b) in enumerate(zip(out, back))])
        for s, path in zip(walk, out):
            s += path.samples[1:]
        tracked = len(loop.walk) + half
    return families


def _strand_names(curve, basepoint, start_roots):
    """Match the basepoint fiber against the unsheared curve's A/B labels."""
    fallback = [f"s{k + 1}" for k in range(len(start_roots))]
    try:
        labels = classify_real_fiber(curve, basepoint).labels
    except (CurveError, OverflowError):
        return fallback
    if not labels:  # complex quadruple: no real structure to name by
        return fallback
    names = []
    for r in start_roots:
        best = min(labels.items(), key=lambda kv: abs(kv[1] - r.value))
        names.append(best[0])
    return names if len(set(names)) == len(names) else fallback


def monodromy_factorization(curve=None, basepoint=None, shear=DEFAULT_SHEAR,
                            circle_steps=32, keep_paths=False):
    """The braid monodromy factorization of the curve, one factor per loop.

    Factors appear in the counterclockwise cyclic order starting with the
    loops farthest to the left of the basepoint; for the 3-cuspidal quartic
    with a small shear that is the two split cusp values near -9/8, then
    the tangency near -1, then the origin cusp.  All factors are read in one
    sweep frame, the fiber plane rotated by sweep_rotation * pi/17.
    """
    curve = curve or cuspidal_quartic()
    basepoint = default_basepoint() if basepoint is None else float(basepoint)
    shear = Fraction(shear)
    criticals = critical_values(curve, shear)
    loops, radius = build_loops(criticals, basepoint, circle_steps=circle_steps)
    sheared = sheared_curve(curve, shear)
    start_roots = _start_roots(sheared, basepoint)
    names = _strand_names(curve, basepoint, start_roots)
    start = [r.value for r in start_roots]
    targets = [loop.target for loop in loops]
    clearance = 0.9 * min(radius, 1.0)
    left = [loop for loop in loops if loop.target.real < basepoint]
    families = (_track_side(sheared, left[::-1], start, targets, clearance)[::-1]
                + _track_side(sheared, loops[len(left):], start, targets, clearance))
    factors, rotation = _one_frame(families)
    return MonodromyResult(
        n_strands=len(start_roots), factors=factors, loops=loops,
        basepoint=basepoint, shear=shear, strand_names=names, sweep_rotation=rotation,
        strand_paths=families if keep_paths else [])


def strand_paths_svg(paths):
    """Non-normative SVG plot of strand paths in the fiber plane."""
    width, height = 640, 480
    xs = [z.real for p in paths for z in p.samples]
    ys = [z.imag for p in paths for z in p.samples]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    pad = 0.05 * max(x1 - x0, y1 - y0, 1e-9)
    x0, x1, y0, y1 = x0 - pad, x1 + pad, y0 - pad, y1 + pad

    def to_px(z):
        px = (z.real - x0) / (x1 - x0) * width
        py = height - (z.imag - y0) / (y1 - y0) * height
        return f"{px:.2f},{py:.2f}"

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2"]
    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">']
    lines.append(f'<rect width="{width}" height="{height}" fill="white"/>')
    for k, p in enumerate(paths):
        pts = " ".join(to_px(z) for z in p.samples)
        color = colors[k % len(colors)]
        lines.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.2"/>')
        start = to_px(p.samples[0]).split(",")
        lines.append(f'<circle cx="{start[0]}" cy="{start[1]}" r="3" fill="{color}"/>')
    lines.append("</svg>")
    return "\n".join(lines)
