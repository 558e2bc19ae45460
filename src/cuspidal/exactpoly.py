"""Exact univariate polynomials over Q: Euclid, Sturm chains, root isolation.

A polynomial is a list of Fractions, ascending degree, normalized so the
last entry is nonzero (the zero polynomial is the empty list).
"""

from __future__ import annotations

from fractions import Fraction


def trim(p):
    p = [Fraction(c) for c in p]
    while p and p[-1] == 0:
        p.pop()
    return p


def degree(p):
    return len(p) - 1


def is_zero(p):
    return not p


def add(p, q):
    n = max(len(p), len(q))
    out = [Fraction(0)] * n
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return trim(out)


def neg(p):
    return [-c for c in p]


def sub(p, q):
    return add(p, neg(q))


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


def scale(p, c):
    c = Fraction(c)
    return trim([a * c for a in p])


def divmod_exact(p, q):
    """Polynomial division with remainder over Q."""
    if not q:
        raise ZeroDivisionError("division by the zero polynomial")
    r = list(p)
    quot = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    dq = len(q) - 1
    lc = q[-1]
    while len(r) - 1 >= dq and trim(r):
        r = trim(r)
        if len(r) - 1 < dq:
            break
        k = len(r) - 1 - dq
        f = r[-1] / lc
        quot[k] = f
        for i, b in enumerate(q):
            r[k + i] -= f * b
        r.pop()
    return trim(quot), trim(r)


def derivative(p):
    return trim([c * i for i, c in enumerate(p)][1:])


def evaluate(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def monic(p):
    if not p:
        return p
    return scale(p, Fraction(1) / p[-1])


def gcd(p, q):
    """Monic gcd over Q."""
    a, b = trim(p), trim(q)
    while b:
        _, r = divmod_exact(a, b)
        a, b = b, r
    return monic(a)


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
    """All rational roots of a squarefree p (denominators up to 10^6),
    found by Sturm isolation plus bounded-denominator reconstruction.
    Returns (roots, cofactor with those roots divided out)."""
    p = trim(p)
    found = []
    if degree(p) < 1:
        return found, p
    if degree(p) == 1:
        return [-p[0] / p[1]], [Fraction(1)]
    b = cauchy_bound(p) + 1
    for lo, hi in isolate_roots(p, -b, b):
        lo2, hi2 = refine_root(p, lo, hi, Fraction(1, 10 ** 8))
        mid = (lo2 + hi2) / 2
        for max_den in (8, 64, 4096, 10 ** 6):
            cand = mid.limit_denominator(max_den)
            if evaluate(p, cand) == 0:
                found.append(cand)
                p, r = divmod_exact(p, [-cand, Fraction(1)])
                assert not r
                break
    return found, p


def sturm_chain(p):
    chain = [trim(p), derivative(p)]
    while chain[-1]:
        _, r = divmod_exact(chain[-2], chain[-1])
        if not r:
            break
        chain.append(neg(r))
    return [c for c in chain if c]


def _variations(chain, x):
    signs = []
    for p in chain:
        v = evaluate(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    count = 0
    for a, b in zip(signs, signs[1:]):
        if a != b:
            count += 1
    return count


def count_roots(p, a, b):
    """Number of distinct real roots in (a, b] (Sturm; p need not be squarefree)."""
    sf = squarefree_part(p)
    if degree(sf) < 1:
        return 0
    chain = sturm_chain(sf)
    a, b = Fraction(a), Fraction(b)
    return _variations(chain, a) - _variations(chain, b)


def isolate_roots(p, a, b):
    """Disjoint rational intervals (lo, hi], one per distinct root of p in (a, b]."""
    sf = squarefree_part(p)
    a, b = Fraction(a), Fraction(b)
    chain = sturm_chain(sf)

    def var(x):
        return _variations(chain, x)

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

    split(a, b, var(a) - var(b))
    out.sort()
    return out


def refine_root(p, lo, hi, bound):
    """Shrink an interval isolating one root of p in (lo, hi] until hi - lo <= bound."""
    sf = squarefree_part(p)
    chain = sturm_chain(sf)
    lo, hi, bound = Fraction(lo), Fraction(hi), Fraction(bound)
    while hi - lo > bound:
        mid = (lo + hi) / 2
        if _variations(chain, lo) - _variations(chain, mid) == 1:
            hi = mid
        else:
            lo = mid
    return lo, hi
