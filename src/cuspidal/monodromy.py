"""Braid monodromy of a plane curve by continuation around critical values.

Loops run along the real axis from the basepoint to a circle about their
target, go once around it counterclockwise and come back the way they
went.  On each side of the basepoint the walks are prefixes of one path:
a walk passes each nearer critical value along the first half of that
value's own circle, a counterclockwise half-turn, above it going left and
below it going right.  Loops are emitted with the targets left of the
basepoint farthest first, then the targets to the right nearest first.
That is the counterclockwise cyclic order of their departure directions
only while at most one target lies to the right: a right walk passes each
nearer value below it, so a farther right loop departs clockwise of a
nearer one (ROADMAP item 13).  The reorder waits on a benchmark change:
the benchmark's reference requires the orders [3, 3, 1, 3] in the order
the factors are emitted.  Each axis leg and each first half circle of that
tree is tracked once; a loop's walk is the tree's segments up to its
circle.  The curve is real and each circle is its own mirror image in the
real axis, so the second half of a circle is not tracked: its strands are
the first half's, conjugated and reversed.  The circle ends on the walk's
end fiber permuted, and each strand comes back along the walk of the
strand it ended on, reversed.

The fibers where axis legs start, over the basepoint and over each
circle's far point, are made exactly symmetric where inclusion disks
decide which roots are real and which are conjugate pairs
(``_symmetrized``), and a fiber they leave undecided is refused.  The legs
then stay symmetric and take ``continue_roots``' real route, the far
point's decision is the mirror's strand map, and the circle closes on the
exact conjugates of the walk's end fiber.

The strand sweep orders the fiber by real part and emits one signed Artin
letter per transversal exchange of neighbors; a counterclockwise exchange,
the strand coming from the right passing above, is positive.  Each segment
of the walk tree is swept once, into one group of letters per sample
interval, in ascending index order.  A loop's letters are its walk's
groups, then its circle's, then the walk's groups in reverse order with
every letter negated, freely reduced: the return runs through the walk's
samples backwards, which has the same swaps with opposite signs.  Ties and
tangencies are broken by rotating the fiber plane by k pi/17, k >= 1 (the
exact conjugate pairs over the axis share their real parts, so k = 0 is
degenerate), and all the factors of one factorization are read at one
rotation: the basepoint fiber is ordered by real part in that frame, so
factors read in different frames need not multiply to one factorization.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, count, islice
from operator import ge

from . import DEFAULT_SHEAR, default_basepoint
from .braids import BraidWord, free_reduce
from .continuation import StrandPath, check_clearance, continue_roots
from .quartic import (CurveError, classify_real_fiber, critical_values,
                      cuspidal_quartic, sheared_curve)
from .roots import conjugate_partners, inclusion_radius, roots_univariate

MAX_ROTATIONS = 16  # sweep retries, each rotating the fiber plane by pi/17


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
    sweep_rotation: int  # every factor is read in the fiber plane rotated by k pi/17, k >= 1
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
    """Loops (walk and circle waypoints): left targets farthest first, then
    right targets nearest first.  With two or more right targets this is
    not the counterclockwise cyclic order (see the module docstring).

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
    the half circle ends on the axis and does not pass through its center,
    and when the basepoint is a critical value, which no loop can circle.
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
        if value.real == basepoint:
            raise ValueError(f"the basepoint {basepoint!r} is a critical value, "
                             "which no loop can circle")
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


def braid_from_strand_paths(strands, rotation):
    """Sweep one segment: strands[k] holds strand k's positions at the
    segment's samples, read by real part in the fiber plane multiplied by
    rotation.

    Returns (groups, gap).  A group is the signed Artin letters of one
    sample interval, in ascending index order; intervals without a
    crossing have none.  gap is the smallest |imaginary gap| at a crossing
    (inf without one), for ``_loop_word`` to judge against its loop's
    tolerance.  A change of order that is not a transversal exchange of
    neighbors raises _Ambiguous.

    Each strand's rotated real parts rr Re z - ri Im z, the real parts of
    rotation * z to the bit, are computed once; the order along them is
    scanned for the first sample at which it stops increasing strictly
    (the real parts are finite), and rotated imaginary parts are computed
    only there, to break ties and read the crossings.
    """
    n, m = len(strands), len(strands[0])
    rr, ri = rotation.real, rotation.imag
    reals = [[rr * z.real - ri * z.imag for z in s] for s in strands]

    def keys(i):
        return [(r[i], rr * s[i].imag + ri * s[i].real) for r, s in zip(reals, strands)]

    order = sorted(range(n), key=keys(0).__getitem__)
    groups, gap = [], math.inf
    i = 1
    while i < m:
        # the first sample from i at which neighbors along order do not increase
        i = min((next(compress(count(i), map(ge, islice(reals[a], i, None),
                                             islice(reals[b], i, None))), m)
                 for a, b in zip(order, order[1:])), default=m)
        if i == m:
            break
        prev, cur = keys(i - 1), keys(i)
        new_order = sorted(range(n), key=cur.__getitem__)
        if new_order != order:
            group = []
            for j in _decompose_adjacent_swaps(order, new_order):
                a, b = order[j], order[j + 1]  # b on the right before the swap
                f0 = prev[b][0] - prev[a][0]
                f1 = cur[b][0] - cur[a][0]
                if f0 <= 0 or f1 >= 0:
                    raise _Ambiguous("non-transversal crossing")
                t = f0 / (f0 - f1)
                g = (1 - t) * (prev[b][1] - prev[a][1]) + t * (cur[b][1] - cur[a][1])
                gap = min(gap, abs(g))
                group.append((j + 1) if g > 0 else -(j + 1))
            groups.append(tuple(group))
            order = new_order
        i += 1
    return groups, gap


def _loop_word(loop, rotation, readings):
    """The word of a tracked loop swept in the fiber plane multiplied by
    rotation, each of its segments read once into ``readings``.

    The strands come back along the walk's samples reversed, and an
    interval swept backwards has the same swaps with the opposite signs:
    so the return is the walk's groups in reverse order, each letter
    negated, and each group still in ascending index order.  The loop is
    ambiguous when a crossing on any of its segments comes closer than
    1e-11 times the loop's largest |z|.
    """
    segments = loop.walk + loop.circle
    for s in segments:
        if s not in readings:
            readings[s] = braid_from_strand_paths(s.strands, rotation)
    tol = 1e-11 * (max(s.size for s in segments) or 1.0)
    if min(readings[s][1] for s in segments) < tol:
        raise _Ambiguous("crossing too close to a true collision")
    walk = [g for s in loop.walk for g in readings[s][0]]
    circle = [g for s in loop.circle for g in readings[s][0]]
    back = [tuple(-a for a in g) for g in reversed(walk)]
    return BraidWord(len(loop.perm), free_reduce([a for g in walk + circle + back for a in g]))


def _one_frame(loops):
    """(words, k): every tracked loop read at the first rotation k pi/17,
    k >= 1, at which all of them sweep cleanly.  k = 0 is never tried: the
    curve is real and each conjugate pair over the real axis shares its
    real part exactly, so the unrotated frame is degenerate.  At each k the
    loops are read in turn and the first ambiguous one moves on to k + 1;
    ambiguity up to k = MAX_ROTATIONS is a hard error."""
    last = None
    for k in range(1, MAX_ROTATIONS + 1):
        rotation, readings = cmath.exp(1j * math.pi * k / 17), {}
        try:
            return [_loop_word(loop, rotation, readings) for loop in loops], k
        except _Ambiguous as exc:
            last = exc
    raise SweepError(f"sweep stayed ambiguous after {MAX_ROTATIONS} rotations: {last}")


def fiber_evaluator(sheared, center):
    """x -> ascending y-coefficients of the sheared curve's fiber over x.

    Each coefficient polynomial in x is Taylor-shifted to the real
    ``center`` exactly over Q and rounded once to float; the returned
    function evaluates it by Horner in x - center.  Near the center, where
    a loop circles its critical value, the fiber is then accurate to a few
    ulps of the Taylor coefficients instead of carrying the cancellation of
    an expansion around 0.  Over a real float x the coefficients are
    floats, ``==`` to their values at complex(x) and cheaper.  Raises
    OverflowError, naming the center, when a Taylor coefficient leaves
    double precision.
    """
    c = Fraction(center)
    tables = []
    for poly in sheared.equation.as_univariate("y"):
        a = poly.univariate_coeffs("x")
        for i in range(len(a) - 1):  # repeated synthetic division by x - c
            for j in range(len(a) - 2, i - 1, -1):
                a[j] += c * a[j + 1]
        try:
            lead, *rest = (float(b) for b in reversed(a))
        except OverflowError:
            raise OverflowError(f"fiber Taylor coefficients at center x = {center} "
                                "overflow double precision") from None
        tables.append((lead, rest))  # Horner starts at the leading term
    c = float(c)

    def fiber(x):
        t = x - c
        out = []
        for acc, rest in tables:
            for b in rest:
                acc = acc * t + b
            out.append(acc)
        return out

    return fiber


def _start_roots(sheared, basepoint):
    """Simple fiber roots over the real basepoint, sorted by (real, imag),
    as exactly symmetric positions.

    The radii certify the curve's own fiber at the exact basepoint, whose
    coefficients Aberth sees rounded once, as ``fiber_evaluator`` gives
    them there.  The fiber polynomial is real, and ``_symmetrized`` makes
    the roots exactly symmetric where their disks decide which are real and
    which are conjugate pairs: then within a pair the root with negative
    imaginary part always comes first, and the axis legs from the
    basepoint take ``continue_roots``' real route.  Raises OverflowError,
    naming the basepoint, when a coefficient leaves double precision.
    """
    x = {"x": Fraction(basepoint)}
    try:
        roots = roots_univariate([c.evaluate(x) for c in sheared.equation.as_univariate("y")])
    except OverflowError:
        raise OverflowError(f"fiber coefficients at x = {basepoint} "
                            "overflow double precision") from None
    values = _symmetrized([r.value for r in roots], [r.radius for r in roots], basepoint)[0]
    return sorted(values, key=lambda z: (z.real, z.imag))


def _symmetrized(values, radii, x):
    """(positions, partners) for the roots of the real fiber over x at
    values with inclusion radii radii, where ``roots.conjugate_partners``
    decides the conjugation: each root moves to the mean of itself and its
    partner's conjugate, so a real root to its real part and a pair to
    exact conjugates.  An undecided fiber raises SweepError naming x."""
    partners = conjugate_partners(values, radii)
    if partners is None:
        raise SweepError(f"inclusion disks of the fiber over x = {x!r} do not decide "
                         "which roots are real and which are conjugate pairs")
    return [complex((z.real + values[j].real) / 2, (z.imag - values[j].imag) / 2)
            for z, j in zip(values, partners)], partners


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


class _Segment:
    """One tracked piece of a walk tree: strands[k] holds strand k's
    positions at its samples, and size is the largest |z| among them."""
    __slots__ = ("strands", "size")

    def __init__(self, strands):
        self.strands = strands
        self.size = max(max(map(abs, s)) for s in strands)


class _TrackedLoop:
    """A loop as segments of its side's walk tree.  walk runs from the
    basepoint to the circle's start; circle is the first half, then the
    mirrored second half ending on the walk's end fiber; strand k comes back
    along the walk of strand perm[k], reversed."""
    __slots__ = ("walk", "circle", "perm")

    def __init__(self, walk, circle, perm):
        self.walk, self.circle, self.perm = walk, circle, perm


def _joined(segments, k):
    """Strand k's samples along consecutive segments."""
    out = list(segments[0].strands[k])
    for s in segments[1:]:
        out += s.strands[k][1:]
    return out


def _closed_paths(loop):
    """The closed strand paths of a tracked loop: out along the walk, once
    around the circle and back along the walk of the strand it ended on."""
    walks = [_joined(loop.walk, k) for k in range(len(loop.perm))]
    return [StrandPath(k, walks[k] + _joined(loop.circle, k)[1:] + walks[j][-2::-1])
            for k, j in enumerate(loop.perm)]


def _track_side(sheared, loops, start, targets, clearance):
    """The loops on one side of the basepoint, given nearest target first,
    as segments of one walk tree (``_TrackedLoop``).

    Their walks are prefixes of one path (see ``build_loops``), and each
    segment of it is tracked once: a loop's walk adds an axis leg to the
    walk tracked so far, and the leg and the first half of the loop's
    circle are one ``continue_roots`` call each, with the fiber centred at
    the loop's target; the first half also continues the walk to the next
    target.  A leg is real, so it is evaluated in floats and, from an
    exactly symmetric start, takes ``continue_roots``' real route.  The
    second half is not tracked.  The curve is real, so the fiber over
    conj(x) is the conjugate of the fiber over x, exactly in floats too
    (``fiber_evaluator``'s tables are real): strand k goes on from the far
    point along the conjugate of the first half of strand j, reversed,
    where j is the strand whose conjugate ends where strand k does.  The
    first half's last samples are made exactly symmetric there
    (``_symmetrized``, with the inclusion radii of the fiber over the far
    point), and the decided partners are j; an undecided far fiber raises
    SweepError.  The symmetric samples end the first half and start both
    the second half and the next leg.  Every leg starts on such a decided
    fiber, over the basepoint or a far point, and the real route keeps it
    exactly symmetric, so the mirrored strand k ends exactly on the
    conjugate of the walk's end position of strand j, which is the walk's
    end position of strand perm[k]: found by exact lookup, and SweepError
    if it is missing.  A circle that is not its own mirror image raises
    SweepError.
    Each leg and first half is checked for clearance once, against every
    critical value but the loop's target; the targets are real, so the
    mirror has the same clearance.  Strand k walks out, circles, and comes
    back along the walk of strand perm[k] reversed, where the circle
    brought it: the second half's segment ends with one junction sample,
    the walk's end position of strand perm[k].
    """
    # the first `tracked` walk waypoints are tracked into the segments of walk
    tracked, walk, ends, out_loops = 1, [], list(start), []
    for loop in loops:
        _check_mirror(loop.circle)
        leg = loop.walk[tracked - 1:]
        half = len(loop.circle) // 2
        check_clearance(leg + loop.circle[1:half + 1],
                        [t for t in targets if t != loop.target], clearance)
        fiber = fiber_evaluator(sheared, loop.target.real)
        leg = [x.real for x in leg]  # a real path: the fiber in floats
        walk = walk + [_Segment([p.samples for p in continue_roots(fiber, leg, ends)])]
        ends = [s[-1] for s in walk[-1].strands]
        out = continue_roots(fiber, loop.circle[:half + 1], ends)
        # the fiber over the real far point is its own conjugate: strand k
        # sits where strand j's conjugate ends, and goes on along it reversed
        x = loop.circle[half].real
        far = [p.samples[-1] for p in out]
        coeffs = fiber(x)
        far, mirror = _symmetrized(far, [inclusion_radius(coeffs, z) for z in far], x)
        for p, z in zip(out, far):
            p.samples[-1] = z
        back = [[z.conjugate() for z in out[j].samples[::-1]] for j in mirror]
        # ends is exactly symmetric, so each mirrored strand ends on one of them
        try:
            perm = [ends.index(b[-1]) for b in back]
        except ValueError:
            raise SweepError(f"the circle about {loop.target.real!r} does not close "
                             "on the walk's end fiber") from None
        first = _Segment([p.samples for p in out])
        second = _Segment([o.samples[-1:] + b[1:] + [ends[j]]
                           for o, b, j in zip(out, back, perm)])
        out_loops.append(_TrackedLoop(walk, [first, second], perm))
        walk = walk + [first]
        ends = [s[-1] for s in first.strands]
        tracked = len(loop.walk) + half
    return out_loops


def _strand_names(curve, basepoint, start):
    """Match the basepoint fiber against the unsheared curve's A/B labels."""
    fallback = [f"s{k + 1}" for k in range(len(start))]
    try:
        labels = classify_real_fiber(curve, basepoint).labels
    except (CurveError, OverflowError):
        return fallback
    if not labels:  # complex quadruple: no real structure to name by
        return fallback
    names = []
    for z in start:
        best = min(labels.items(), key=lambda kv: abs(kv[1] - z))
        names.append(best[0])
    return names if len(set(names)) == len(names) else fallback


def monodromy_factorization(curve=None, basepoint=None, shear=DEFAULT_SHEAR,
                            circle_steps=32, keep_paths=False):
    """The braid monodromy factorization of the curve, one factor per loop.

    Factors appear in ``build_loops``' order: left targets farthest first,
    then right targets nearest first, which is counterclockwise only while
    at most one target lies right of the basepoint.  For the 3-cuspidal
    quartic with a small shear and the default basepoint that is the two
    split cusp values near -9/8, then the tangency near -1, then the origin
    cusp.  All factors are read in one sweep frame, the fiber plane rotated
    by sweep_rotation * pi/17: the smallest k >= 1 at which every loop
    reads cleanly.  The curve is sheared once, and its critical values are
    those of the sheared curve.
    """
    curve = curve or cuspidal_quartic()
    basepoint = default_basepoint() if basepoint is None else float(basepoint)
    shear = Fraction(shear)
    sheared = sheared_curve(curve, shear)
    criticals = critical_values(sheared)
    # a basepoint exactly on a critical value fails here, on its multiple root
    start = _start_roots(sheared, basepoint)
    loops, radius = build_loops(criticals, basepoint, circle_steps=circle_steps)
    names = _strand_names(curve, basepoint, start)
    targets = [loop.target for loop in loops]
    clearance = 0.9 * min(radius, 1.0)
    left = [loop for loop in loops if loop.target.real < basepoint]
    tracked = (_track_side(sheared, left[::-1], start, targets, clearance)[::-1]
               + _track_side(sheared, loops[len(left):], start, targets, clearance))
    factors, rotation = _one_frame(tracked)
    return MonodromyResult(
        n_strands=len(start), factors=factors, loops=loops,
        basepoint=basepoint, shear=shear, strand_names=names, sweep_rotation=rotation,
        strand_paths=[_closed_paths(t) for t in tracked] if keep_paths else [])


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
