"""Univariate complex root finding with a posteriori certification.

Simultaneous Aberth-Ehrlich iteration seeded on a perturbed circle,
followed by a Newton polish.  Each root carries the inclusion radius
deg * |p(z)/p'(z)| (the smallest root distance of p from z is bounded by
this, by the partial-fraction identity p'/p = sum 1/(z - r_i)), computed
exactly on Gaussian integers and rounded up (``inclusion_radius``): it is
the program's one root certificate.

Coefficient lists are ascending: p(z) = c[0] + c[1] z + ... + c[d] z^d.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

ABERTH_STEPS = 200
ABERTH_TOL = 1e-13  # relative step size at which Aberth stops


class RootFindingError(RuntimeError):
    """Iteration did not converge within its budget."""


@dataclass(frozen=True)
class ApproxRoot:
    value: complex
    radius: float
    multiplicity: int = 1


def eval_poly(coeffs, z):
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def eval_poly_deriv(coeffs, z):
    p = 0j
    dp = 0j
    for c in reversed(coeffs):
        dp = dp * z + p
        p = p * z + c
    return p, dp


def newton_polish(coeffs, z):
    for _ in range(5):
        p, dp = eval_poly_deriv(coeffs, z)
        if dp == 0:
            break
        step = p / dp
        z = z - step
        if abs(step) < 1e-16 * (1.0 + abs(z)):
            break
    return z


def _cauchy_radius(coeffs):
    lead = abs(coeffs[-1])
    return 1.0 + max(abs(c) for c in coeffs[:-1]) / lead if len(coeffs) > 1 else 1.0


def _aberth(coeffs):
    n = len(coeffs) - 1
    radius = _cauchy_radius(coeffs)
    z = [radius * cmath.exp(2j * math.pi * (k + 0.25) / n + 0.41j / n)
         for k in range(n)]
    scale = max(1.0, max(abs(c) for c in coeffs))
    for _ in range(ABERTH_STEPS):
        worst = 0.0
        for i in range(n):
            p, dp = eval_poly_deriv(coeffs, z[i])
            if p == 0:
                continue
            s = sum(1.0 / (z[i] - z[j]) for j in range(n) if j != i)
            denom = dp - p * s
            if denom == 0:
                z[i] += (0.01 + 0.007j) * (1.0 + abs(z[i]))
                worst = math.inf
                continue
            step = p / denom
            z[i] -= step
            worst = max(worst, abs(step) / (1.0 + abs(z[i])))
        if worst < ABERTH_TOL:
            return z
    # near multiple roots the simultaneous iteration stalls at cluster size,
    # and on large degrees it stalls at the rounding floor; accept if every
    # residual is tiny or within the evaluation error, otherwise fail loudly
    if all(abs(eval_poly(coeffs, zi)) <= max(1e-8 * scale, _eval_error_bound(coeffs, zi))
           for zi in z):
        return z
    raise RootFindingError(f"Aberth iteration did not converge in {ABERTH_STEPS} steps")


def _eval_error_bound(coeffs, z):
    """First-order bound on the Horner evaluation error of p at z.

    The relative rounding term is 4 n eps sum |c_i| |z|^i.  Gradual
    underflow adds an absolute error of at most 2^-1075 per product, below
    2 * 2^-1074 per complex Horner step; 4 * 2^-1074 per step is carried
    through the later steps like a coefficient.  It only shows where the
    relative term is itself near the underflow range.
    """
    az = abs(z)
    s = 0.0
    under = 0.0
    for c in reversed(coeffs):
        s = s * az + abs(c)
        under = under * az + 4 * 5e-324
    return 4.0 * len(coeffs) * 2.220446049250313e-16 * s + under


def approximate_roots(coeffs):
    """All complex roots of an ascending coefficient list, as floats, in no
    particular order: Aberth values polished by Newton, without radii.
    Exact zero roots are peeled off symbolically first."""
    coeffs = [complex(c) for c in coeffs]
    if not coeffs or coeffs[-1] == 0:
        raise ValueError("leading coefficient must be nonzero")
    if len(coeffs) == 1:
        raise ValueError("degree must be at least 1")
    zero_mult = 0
    while coeffs[0] == 0:
        zero_mult += 1
        coeffs = coeffs[1:]
    if zero_mult > 1:
        raise RootFindingError("multiple root at 0")
    found = []
    if len(coeffs) > 1:
        if len(coeffs) == 2:
            approx = [-coeffs[0] / coeffs[1]]
        else:
            approx = _aberth(coeffs)
        found = [newton_polish(coeffs, z) for z in approx]
    return found + [0j] * zero_mult


def roots_univariate(coeffs):
    """All complex roots of an ascending coefficient list, each with its
    ``inclusion_radius``.

    The coefficients may be exact: Aberth runs on their rounded floats, and
    the radii certify the exact polynomial.  The roots must be simple:
    inclusion disks that overlap (a multiple root or an unresolved cluster)
    raise RootFindingError.  Exact zero roots are peeled off symbolically
    first.
    """
    found = [ApproxRoot(z, inclusion_radius(coeffs, z)) for z in approximate_roots(coeffs)]
    for i, a in enumerate(found):
        for b in found[i + 1:]:
            if not disks_apart(a.value, a.radius, b.value, b.radius):
                raise RootFindingError(
                    f"roots {a.value:.6g} and {b.value:.6g} have overlapping certificates")
    return sorted(found, key=lambda r: (r.value.real, r.value.imag))


def _ratios(c):
    """((a, b), (e, f)) with c = a/b + i e/f exactly, for an int, Fraction,
    float or complex c, or a (real, imaginary) pair of them: every float is
    a dyadic rational."""
    if isinstance(c, complex):
        c = c.real, c.imag
    re, im = c if isinstance(c, tuple) else (c, 0)
    return re.as_integer_ratio(), im.as_integer_ratio()


def gaussian_horner(coeffs, z):
    """(P, Q, s) with p(z) = P/s and p'(z) = Q/s exactly, P and Q Gaussian
    integers (re, im) and s > 0, for ascending Gaussian rational
    coefficients of p and a Gaussian rational z, each in a form ``_ratios``
    takes: Horner on Python ints."""
    parts = [_ratios(c) for c in coeffs]
    den = math.lcm(*(b for pair in parts for _, b in pair))
    (u, du), (v, dv) = _ratios(z)
    d = math.lcm(du, dv)  # z = (u + iv)/d
    u, v = u * (d // du), v * (d // dv)
    pr = pi = qr = qi = 0
    dk = den
    for (a, b), (e, f) in reversed(parts):  # p <- p z + c and p' <- p' z + p, times powers of d
        qr, qi = qr * u - qi * v + pr, qr * v + qi * u + pi
        pr, pi = pr * u - pi * v + a * (dk // b), pr * v + pi * u + e * (dk // f)
        dk *= d
    return (pr, pi), (qr * d, qi * d), dk // d


def inclusion_radius(coeffs, z):
    """n|p(z)|/|p'(z)| for p of degree n = len(coeffs) - 1, with coefficients
    and z as in ``gaussian_horner``: exact, and rounded up to a float.  The
    disk about z holds a root of p, since p'/p = sum 1/(z - r_i) (Rump, Ten
    methods to bound multiple roots of polynomials, 2003).  0 if p(z) = 0,
    inf if p'(z) = 0 or the radius leaves double precision."""
    return horner_radius(len(coeffs) - 1, gaussian_horner(coeffs, z))


def horner_radius(n, horner):
    """``inclusion_radius`` of a degree n polynomial from its
    ``gaussian_horner`` values at the center."""
    (pr, pi), (qr, qi), _ = horner
    num, den = n ** 2 * (pr * pr + pi * pi), qr * qr + qi * qi
    if not (num and den):
        return math.inf if num else 0.0
    # the squared radius num/den may leave the float range where the radius
    # does not: take the root of num/den scaled by an even power of two
    shift = max(0, 128 - num.bit_length() + den.bit_length()) & ~1
    try:
        radius = math.ldexp(math.isqrt((num << shift) // den) + 1, -shift // 2)
    except OverflowError:
        return math.inf
    while (r := radius.as_integer_ratio())[0] ** 2 * den < num * r[1] ** 2:
        radius = math.nextafter(radius, math.inf)
    return radius


def disks_apart(z, r, w, s):
    """|z - w| > r + s, decided exactly: the disks about z and w with radii
    r and s are disjoint.  The float distance settles all but near-tangent
    disks; those are decided in rationals, since every float is one."""
    if abs(z - w) > 2 * (r + s):
        return True
    if abs(z - w) < (r + s) / 2:
        return False
    dx, dy = Fraction(z.real) - Fraction(w.real), Fraction(z.imag) - Fraction(w.imag)
    return dx * dx + dy * dy > (Fraction(r) + Fraction(s)) ** 2


def conjugate_partners(values, radii):
    """How conjugation permutes the simple roots of a real polynomial of
    degree len(values), decided by their inclusion disks D_k about
    values[k] with radius radii[k]: partners[k] = k for a real root and the
    index of its conjugate otherwise, or None when this is not decided.

    The disks must be pairwise disjoint (``disks_apart``), so each holds
    exactly one root.  conj(D_k) holds the conjugate of D_k's root, so it
    meets the disk holding that conjugate; when it meets one disk D_j only,
    root k is the conjugate of root j.  For j = k the root is real; for
    j != k conj(D_k) misses D_k, so D_k misses the axis.
    """
    disks = list(zip(values, radii))
    if any(not disks_apart(z, r, w, s) for i, (z, r) in enumerate(disks) for w, s in disks[i + 1:]):
        return None
    partners = []
    for z, r in disks:
        meets = [j for j, (w, s) in enumerate(disks) if not disks_apart(z.conjugate(), r, w, s)]
        if len(meets) != 1:
            return None
        partners.append(meets[0])
    return partners
