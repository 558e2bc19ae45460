"""Exact zero counting inside rational squares via the argument principle.

The contour is an axis-aligned square with rational center and half-width,
so every quantity stays in Q: along each edge p(z(t)) splits into rational
polynomials u(t) + i w(t), and branch-cut crossings of the negative real
axis are counted exactly with Sturm sequences.  A downward crossing
(Im: + -> -) of the open ray (-inf, 0) contributes +1 to the winding.
"""

from __future__ import annotations

from fractions import Fraction

from . import exactpoly as xp


class DegenerateContourError(ValueError):
    """A zero of p lies on (or touches the branch ray at) the contour."""


def _to_pairs(coeffs):
    out = []
    for c in coeffs:
        if isinstance(c, tuple):
            out.append((Fraction(c[0]), Fraction(c[1])))
        elif isinstance(c, complex):
            raise TypeError("exact certification needs rational coefficients")
        else:
            out.append((Fraction(c), Fraction(0)))
    return out


def _compose_linear(pairs, za, zb):
    """p(za + t*(zb - za)) split as (Re, Im) in Q[t]."""
    dre, dim = zb[0] - za[0], zb[1] - za[1]
    # Horner over Q[i][t]; polynomials in t stored ascending as (re, im) pairs
    acc = [(Fraction(0), Fraction(0))]
    for cre, cim in reversed(pairs):
        # acc * (za + d t)
        new = [(Fraction(0), Fraction(0))] * (len(acc) + 1)
        for k, (are, aim) in enumerate(acc):
            r0 = are * za[0] - aim * za[1]
            i0 = are * za[1] + aim * za[0]
            new[k] = (new[k][0] + r0, new[k][1] + i0)
            r1 = are * dre - aim * dim
            i1 = are * dim + aim * dre
            new[k + 1] = (new[k + 1][0] + r1, new[k + 1][1] + i1)
        new[0] = (new[0][0] + cre, new[0][1] + cim)
        while len(new) > 1 and new[-1] == (Fraction(0), Fraction(0)):
            new.pop()
        acc = new
    u = xp.trim([c[0] for c in acc])
    w = xp.trim([c[1] for c in acc])
    return u, w


def _edge_crossings(u, w):
    """Signed crossings of the negative real axis for t in the open (0, 1)."""
    if xp.is_zero(w):
        if xp.count_roots(u, Fraction(-1, 100), Fraction(101, 100)) > 0 or xp.sign_at(u, 0) <= 0:
            raise DegenerateContourError("edge runs along the real axis near 0")
        return 0
    g = xp.gcd(u, w) if not xp.is_zero(u) else list(w)
    if xp.degree(g) >= 1 and xp.count_roots(g, Fraction(0), Fraction(1)) > 0:
        raise DegenerateContourError("zero of p on the contour edge")
    if xp.is_zero(u):
        return 0  # edge maps into the imaginary axis, no ray crossings
    wsf = xp.squarefree_part(w)
    total = 0
    for lo, hi in xp.isolate_roots(w, Fraction(0), Fraction(1)):
        if hi == 1 and xp.sign_at(w, 1) == 0:
            continue  # corner root; corner precondition forces u(1) > 0 there
        # shrink until u is sign-definite on [lo, hi]
        while xp.sign_at(u, lo) == 0 or xp.count_roots(u, lo, hi) > 0:
            lo, hi = xp.refine_root(w, lo, hi, (hi - lo) / 4)
        u_sign = xp.sign_at(u, lo)
        s_lo = xp.sign_at(w, lo)
        if s_lo == 0:
            lo2, hi = xp.refine_root(w, lo, hi, (hi - lo) / 4)
            if lo2 == lo:
                raise DegenerateContourError("could not separate crossing")
            lo = lo2
            s_lo = xp.sign_at(w, lo)
        s_hi = xp.sign_at(w, hi)
        if s_hi == 0:
            step = hi - lo
            probe = hi + step
            while xp.count_roots(wsf, hi, probe) > 0:
                step /= 2
                probe = hi + step
            s_hi = xp.sign_at(w, probe)
        if s_lo == s_hi or u_sign == 0:
            continue  # even-order touch, no branch crossing
        if u_sign < 0:
            total += 1 if s_lo > 0 else -1
    return total


def winding_number_square(coeffs, center, half):
    """Exact winding number of p over the ccw boundary of a rational square."""
    pairs = _to_pairs(coeffs)
    cx, cy = Fraction(center[0]), Fraction(center[1])
    h = Fraction(half)
    if h <= 0:
        raise ValueError("half-width must be positive")
    corners = [(cx - h, cy - h), (cx + h, cy - h), (cx + h, cy + h), (cx - h, cy + h)]
    for corner in corners:
        u0, w0 = _compose_linear(pairs, corner, corner)
        pr = u0[0] if u0 else Fraction(0)
        pi = w0[0] if w0 else Fraction(0)
        if pi == 0 and pr <= 0:
            raise DegenerateContourError("corner value on the branch ray")
    total = 0
    for a, b in zip(corners, corners[1:] + corners[:1]):
        u, w = _compose_linear(pairs, a, b)
        total += _edge_crossings(u, w)
    return total


def count_zeros_in_square(coeffs, center, half):
    """Winding number with small rational inflations on degenerate contours
    (eight tries: half-width times 1 + k/97)."""
    h = Fraction(half)
    for k in range(8):
        try:
            return winding_number_square(coeffs, center, h * (1 + Fraction(k, 97)))
        except DegenerateContourError:
            continue
    raise DegenerateContourError(
        f"no admissible square near center={center}, half={half}")
