"""Exact univariate polynomials over Q: Euclid, Sturm chains, root isolation.

Signs, gcds, Sturm chains and bisection run on integer polynomials (see
the integer-sign section below); the isolating intervals are the Sturm ones.

A polynomial is a list of Fractions, ascending degree, normalized so the
last entry is nonzero (the zero polynomial is the empty list).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest


def trim(p):
    p = [Fraction(c) for c in p]
    while p and p[-1] == 0:
        p.pop()
    return p


def degree(p):
    return len(p) - 1


def sub(p, q):
    return trim([a - b for a, b in zip_longest(p, q, fillvalue=0)])


def mul(p, q):
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def divmod_exact(p, q):
    """Polynomial division with remainder over Q."""
    if not q:
        raise ZeroDivisionError("division by the zero polynomial")
    r = trim(p)
    quot = [Fraction(0)] * max(len(r) - len(q) + 1, 0)
    while len(r) >= len(q):
        k, f = len(r) - len(q), r[-1] / q[-1]
        quot[k] = f
        for i, b in enumerate(q):
            r[k + i] -= f * b
        while r and r[-1] == 0:
            r.pop()
    return trim(quot), r


def remainder(p, m):
    """p mod m as the deg m coefficients of 1, t, ..., padded with zeros:
    the value of p in Q[t]/(m)."""
    r = divmod_exact(p, m)[1]
    return tuple(r + [Fraction(0)] * (degree(m) - len(r)))


def derivative(p):
    return trim([c * i for i, c in enumerate(p)][1:])


def monic(p):
    return trim([c / Fraction(p[-1]) for c in p]) if p else p


def gcd(p, q):
    """Monic gcd over Q, by a primitive pseudo-remainder sequence on the
    integer forms (see the integer-sign section below)."""
    a, b = _integer_form(trim(p)), _integer_form(trim(q))
    while b:
        a, b = b, _neg_prem(a, b)
    return monic([Fraction(c) for c in a])


def squarefree_part(p):
    if degree(p) < 1:
        return monic(p)
    return monic(divmod_exact(p, gcd(p, derivative(p)))[0])


def squarefree_decomposition(p):
    """Yun's algorithm: [(monic squarefree factor, multiplicity)], exact."""
    p = monic(trim(p))
    if degree(p) < 1:
        return []
    dp = derivative(p)
    g = gcd(p, dp)
    if degree(g) == 0:
        return [(p, 1)]
    w, _ = divmod_exact(p, g)
    y, _ = divmod_exact(dp, g)
    z = sub(y, derivative(w))
    out = []
    i = 1
    while degree(w) > 0:
        a = gcd(w, z)
        if degree(a) > 0:
            out.append((monic(a), i))
        w, _ = divmod_exact(w, a)
        yq, _ = divmod_exact(z, a)
        z = sub(yq, derivative(w))
        i += 1
    return out


def cauchy_bound(p):
    """All complex roots of p lie in |x| <= this rational bound."""
    p = trim(p)
    if degree(p) < 1:
        return Fraction(1)
    lead = abs(p[-1])
    return 1 + max(abs(c) for c in p[:-1]) / lead


def rational_roots(p):
    """All real roots of a nonzero squarefree p from one Sturm isolation,
    ascending: the rational ones, and an interval (lo, hi) about each
    irrational one.  A root k/q of the primitive integer form of p has q
    dividing its leading coefficient lead, so it lies on the grid Z/lead:
    each Sturm interval is refined until (lo, hi] holds at most one grid
    point, which is tested by its exact sign."""
    p = trim(p)
    q = _chain(p)[0]
    lead = abs(q[-1])
    b = cauchy_bound(p) + 1
    found, brackets = [], []
    for lo, hi in isolate_roots(p, -b, b):
        lo, hi = refine_root(p, lo, hi, Fraction(1, lead))
        cand = Fraction(hi.numerator * lead // hi.denominator, lead)
        if cand > lo and _sign_int(q, cand) == 0:
            found.append(cand)
        else:
            brackets.append((lo, hi))
    return found, brackets


def nearest_float(p, lo, hi, guess):
    """The float nearest to the irrational root of p in (lo, hi), its only
    root in (lo, hi]: the sign of p's squarefree part q changes between the
    float's half-ulp neighbours.  Each candidate is an exact Newton step
    from the last (from the guess at first) when that lies in (lo, hi),
    else the midpoint; a failed one narrows (lo, hi) past its half-ulp
    neighbour.  After two Newton steps only midpoints are taken."""
    q, dq = _chain(p)[:2]
    s_hi = _sign_int(q, hi)  # q(x) has this sign exactly when the root < x < hi
    f, newton = guess, 2
    while True:
        x = (lo + hi) / 2
        if newton and math.isfinite(f):
            newton -= 1
            n, d = f.as_integer_ratio()
            slope = horner(dq, n, d)  # d^(deg - 1) q'(f)
            step = Fraction(n * slope - horner(q, n, d), d * slope) if slope else x
            x = step if lo < step < hi else x
        f = float(x)
        below, beyond = ((Fraction(f) + Fraction(math.nextafter(f, s))) / 2
                         for s in (-math.inf, math.inf))
        if lo < below and _sign_int(q, below) == s_hi:
            hi = below
        elif beyond < hi and _sign_int(q, beyond) != s_hi:
            lo = beyond
        else:
            return f


# -- integer signs ---------------------------------------------------------------
#
# Sign questions are answered on integer polynomials: p scaled by a positive
# integer, so every sign is p's own, and evaluated at n/d homogeneously.

def _integer_form(p):
    """p times the positive rational that makes it a primitive integer tuple."""
    if not p:
        return ()
    den = math.lcm(*(c.denominator for c in p))
    ints = [c.numerator * (den // c.denominator) for c in p]
    g = math.gcd(*ints)
    return tuple(c // g for c in ints)


def horner(q, n, d=1):
    """d^deg q(n/d) = sum q_i n^i d^(deg - i) for the integer polynomial q."""
    acc, dk = 0, 1
    for c in reversed(q):
        acc = acc * n + c * dk
        dk *= d
    return acc


def _sign_int(q, x):
    """Sign of the integer polynomial q at the rational x = n/d (d > 0)."""
    acc = horner(q, x.numerator, x.denominator)
    return (acc > 0) - (acc < 0)


def sign_at(p, x):
    """Sign (-1, 0 or 1) of the rational polynomial p at the rational x."""
    return _sign_int(_integer_form(trim(p)), Fraction(x))


def _neg_prem(a, b):
    """-(c a mod b) for a positive integer c, primitive: the next Sturm term."""
    r = list(a)
    lc = b[-1]
    s, sg = abs(lc), (1 if lc > 0 else -1)
    while len(r) >= len(b):
        k = len(r) - len(b)
        t = sg * r[-1]
        r = [s * c for c in r]
        for i, c in enumerate(b):
            r[k + i] -= t * c
        while r and r[-1] == 0:
            r.pop()
    g = math.gcd(*r)
    return tuple(-c // g for c in r)


@lru_cache(maxsize=256)
def _sturm(q):
    """Integer Sturm chain of the squarefree part of the integer polynomial q,
    that part first."""
    chain = [_integer_form(squarefree_part([Fraction(c) for c in q]))]
    if len(chain[0]) > 1:
        chain.append(tuple(i * c for i, c in enumerate(chain[0]))[1:])
    while len(chain[-1]) > 1:
        chain.append(_neg_prem(chain[-2], chain[-1]))
    return tuple(chain)


def _chain(p):
    return _sturm(_integer_form(trim(p)))


def _variations(chain, x):
    count, prev = 0, 0
    for q in chain:
        s = _sign_int(q, x)
        if s:
            if prev and s != prev:
                count += 1
            prev = s
    return count


def isolate_roots(p, a, b):
    """Disjoint rational intervals (lo, hi], one per distinct root of p in (a, b]."""
    chain = _chain(p)
    memo = {}

    def var(x):
        got = memo.get(x)
        if got is None:
            got = memo[x] = _variations(chain, x)
        return got

    out = []

    def split(lo, hi, n):
        if n == 0:
            return
        if n == 1:
            out.append((lo, hi))
            return
        mid = (lo + hi) / 2
        nl = var(lo) - var(mid)
        split(lo, mid, nl)
        split(mid, hi, n - nl)

    a, b = Fraction(a), Fraction(b)
    split(a, b, var(a) - var(b))
    out.sort()
    return out


def refine_root(p, lo, hi, bound):
    """Shrink an interval isolating one root of p in (lo, hi] until hi - lo <= bound.

    Bisection by the sign of the squarefree part q alone: the root is <= mid
    exactly when q(mid) = 0 or q(mid) has the sign of q(hi), which is the
    Sturm count's decision, so the intervals are the Sturm ones."""
    chain = _chain(p)
    lo, hi, bound = Fraction(lo), Fraction(hi), Fraction(bound)
    q = chain[0]
    s_hi = _sign_int(q, hi)
    while hi - lo > bound:
        mid = (lo + hi) / 2
        s = _sign_int(q, mid)
        if s == 0 or s == s_hi:
            hi, s_hi = mid, s
        else:
            lo = mid
    return lo, hi
