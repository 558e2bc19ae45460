"""Independent references for checking benchmark outputs.

Critical values come from sympy (resultant, squarefree factorization,
rational roots by factoring over Q, numerical roots of the rest); hom
counts from an exhaustive search written here; braid invariants from the
letters alone.  Nothing here imports ``cuspidal``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

import sympy as sp

X, Y = sp.symbols("x y")

CLUSTER_TOL = 1e-6  # critical_values merges centers closer than this
RATIONAL_TOL = 1e-12
NUMERIC_TOL = 1e-7

# The 3-cuspidal quartic (x^2 + y^2)^2 + x^3 + 9 x y^2 + 27/4 y^2 as
# {(i, j): coefficient of x^i y^j}.
QUARTIC_TERMS = {(4, 0): 1, (2, 2): 2, (0, 4): 1, (3, 0): 1, (1, 2): 9,
                 (0, 2): Fraction(27, 4)}


# -- critical values -------------------------------------------------------------

def _expr(terms):
    return sum(sp.Rational(str(c)) * X ** i * Y ** j for (i, j), c in terms.items())


def _discriminant(terms, shear):
    """Disc_y of the curve after the shear x -> x - shear*y, as a Poly in x."""
    f = sp.expand(_expr(terms).subs(X, X - sp.Rational(str(shear)) * Y))
    return sp.Poly(sp.resultant(f, sp.diff(f, Y), Y), X)


def discriminant_profile(terms):
    """(degree, largest multiplicity, number of distinct real roots)."""
    disc = _discriminant(terms, 0)
    factors = disc.sqf_list()[1]
    real = sum(g.count_roots() for g, _ in factors)
    return disc.degree(), max(m for _, m in factors), real


def _merge(values):
    merged = []
    for value, mult, exact in sorted(values, key=lambda s: (s[0].real, s[0].imag)):
        if merged and abs(merged[-1][0] - value) < CLUSTER_TOL:
            prev = merged.pop()
            merged.append(((prev[0] * prev[1] + value * mult) / (prev[1] + mult),
                           prev[1] + mult, None))
        else:
            merged.append((value, mult, exact))
    return merged


def critical_values(terms, shear):
    """[(value, order, exact rational or None)] sorted like the program's
    output, with clusters closer than CLUSTER_TOL merged the same way."""
    out = []
    for g, mult in _discriminant(terms, shear).sqf_list()[1]:
        rest = g
        for root, _ in g.ground_roots().items():
            q = Fraction(int(root.p), int(root.q))
            out.append((complex(q), mult, q))
            rest = sp.Poly(sp.quo(rest, sp.Poly(X - root, X)), X)
        if rest.degree() >= 1:
            for z in rest.nroots(n=30):
                out.append((complex(z), mult, None))
    return _merge(out)


@lru_cache(maxsize=None)
def quartic_critical_values(shear):
    return [(v, m) for v, m, _ in critical_values(QUARTIC_TERMS, shear)]


def compare_critical_values(got, ref):
    """None when ``got`` ([(complex, order)]) matches ``ref``, else a reason."""
    if len(got) != len(ref):
        return f"{len(got)} critical values, reference has {len(ref)}"
    free = list(got)
    for value, order, exact in ref:
        tol = (RATIONAL_TOL if exact is not None else NUMERIC_TOL) * max(1.0, abs(value))
        best = min(free, key=lambda g: abs(g[0] - value))
        if abs(best[0] - value) > tol:
            return f"no value within {tol:.1e} of {value:.12g}"
        if best[1] != order:
            return f"order {best[1]} at {value:.12g}, reference {order}"
        if exact is not None and best[0].imag != 0:
            return f"rational critical value {exact} came out non-real"
        free.remove(best)
    return None


# -- groups ----------------------------------------------------------------------

def _mul(p, q):
    return tuple(q[p[i]] for i in range(len(p)))


def _inv(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def _transitive(images, n):
    seen, frontier = {0}, [0]
    while frontier:
        x = frontier.pop()
        for p in images:
            for y in (p[x], _inv(p)[x]):
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
    return len(seen) == n


def _transpositions(n):
    out = []
    for a, b in itertools.combinations(range(n), 2):
        q = list(range(n))
        q[a], q[b] = q[b], q[a]
        out.append(tuple(q))
    return out


def homs_to_sym(n_generators, relators, n, transpositions=False, transitive=False):
    """Every generator-image tuple into S_n that kills every relator.

    Generators are assigned in order; a relator is tested as soon as all
    of its generators have images.
    """
    pool = _transpositions(n) if transpositions else list(itertools.permutations(range(n)))
    ident = tuple(range(n))
    due = [[] for _ in range(n_generators)]
    for r in relators:
        due[max(abs(g) for g in r) - 1].append(r)

    def kills(word, images):
        acc = ident
        for g in word:
            image = images[abs(g) - 1]
            acc = _mul(acc, image if g > 0 else _inv(image))
        return acc == ident

    found = []

    def assign(images):
        if len(images) == n_generators:
            if not transitive or _transitive(images, n):
                found.append(tuple(images))
            return
        for cand in pool:
            images.append(cand)
            if all(kills(r, images) for r in due[len(images) - 1]):
                assign(images)
            images.pop()

    assign([])
    return found


def conjugacy_classes(tuples, n):
    sym = list(itertools.permutations(range(n)))
    return {min(tuple(_mul(_mul(_inv(s), g), s) for g in t) for s in sym)
            for t in tuples}


# -- braids ----------------------------------------------------------------------

def permutation(letters, n):
    """p[i] = end position of strand i."""
    at = list(range(n))
    for g in letters:
        k = abs(g) - 1
        at[k], at[k + 1] = at[k + 1], at[k]
    perm = [0] * n
    for pos, strand in enumerate(at):
        perm[strand] = pos
    return perm


def factorization_problem(n, orders, factors):
    """None when the factorization of the 3-cuspidal quartic has the
    expected invariants, else a reason."""
    if n != 4:
        return f"{n} strands"
    if orders != [3, 3, 1, 3]:
        return f"critical value orders {orders}"
    sums = [sum(1 if g > 0 else -1 for g in f) for f in factors]
    if sums != [3, 3, 1, 3]:
        return f"exponent sums {sums}"
    for f in factors:
        moved = [i for i, j in enumerate(permutation(f, n)) if i != j]
        if len(moved) != 2:
            return f"factor {f} does not permute as a transposition"
    total = permutation([g for f in factors for g in f], n)
    if any(total[i] == i or total[total[i]] != i for i in range(n)):
        return f"product permutation {total} is not a fixed-point-free involution"
    return None
