"""Finite presentations: van Kampen, Tietze moves, abelianization,
Todd-Coxeter coset enumeration, and brute-force homomorphism counts.

Words are tuples of nonzero signed generator indices, as in braids.py.
Presentation identity is never decided syntactically; groups are compared
through finite-quotient fingerprints (abelianization, coset order,
homomorphism counts into small symmetric groups).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .braids import artin_action, cyclic_reduce, free_reduce, transposition, word_inverse
from .linalg import invariant_factors, nullspace

OVERFLOW = "overflow"
TIETZE_STEPS = 200


@dataclass(frozen=True)
class Presentation:
    generator_names: tuple
    relators: tuple

    def __post_init__(self):
        object.__setattr__(self, "generator_names", tuple(self.generator_names))
        rels = []
        for r in self.relators:
            r = free_reduce(r)
            if not r:
                continue
            for g in r:
                if g == 0 or abs(g) > len(self.generator_names):
                    raise ValueError(f"relator letter {g} out of range")
            rels.append(tuple(r))
        object.__setattr__(self, "relators", tuple(rels))

    @property
    def n_generators(self):
        return len(self.generator_names)

    def to_json(self):
        return {"generators": list(self.generator_names),
                "relators": [list(r) for r in self.relators]}


def _cyclic_variants(word):
    variants = set()
    for w in (tuple(word), word_inverse(word)):
        for k in range(max(len(w), 1)):
            variants.add(w[k:] + w[:k])
    return variants


def same_relator(r1, r2):
    """Equality of relators up to cyclic rotation and inversion."""
    return tuple(r2) in _cyclic_variants(tuple(r1))


def _dedupe_relators(relators):
    out = []
    for r in relators:
        r, _ = cyclic_reduce(r)
        if not r:
            continue
        if any(same_relator(r, s) for s in out):
            continue
        out.append(r)
    return out


# -- van Kampen ----------------------------------------------------------------

def van_kampen(factors, n, generator_names=None):
    """Presentation of the complement group from a braid monodromy factorization.

    One generator per strand; for every factor beta and generator x the
    relator x^-1 * beta(x), freely reduced, trivial ones dropped.
    """
    names = tuple(generator_names) if generator_names else tuple(
        f"x{i}" for i in range(1, n + 1))
    if len(names) != n:
        raise ValueError("need one generator name per strand")
    relators = []
    for factor in factors:
        if factor.n_strands != n:
            raise ValueError("factor strand count differs from n")
        for i in range(1, n + 1):
            image = artin_action(factor, (i,))
            relators.append(free_reduce((-i,) + image))
    return Presentation(names, tuple(_dedupe_relators(relators)))


def add_projective_relation(p):
    """Append the product of all generators (the boundary relation)."""
    if p.n_generators != 4:
        raise ValueError("the projective relation expects the 4-generator setup")
    word = tuple(range(1, p.n_generators + 1))
    return Presentation(p.generator_names, p.relators + (word,))


# -- abelianization --------------------------------------------------------------

def exponent_sums(p):
    """One row per relator: the exponent sum of each generator in it."""
    rows = []
    for r in p.relators:
        row = [0] * p.n_generators
        for g in r:
            row[abs(g) - 1] += 1 if g > 0 else -1
        rows.append(row)
    return rows


def abelianization(p):
    """Invariant factors of the abelianized group; 0 marks a free factor."""
    return invariant_factors(exponent_sums(p), p.n_generators)


def map_onto_z(p):
    """Images of the generators under a homomorphism onto Z, or None.

    A rational kernel vector of the exponent-sum matrix, scaled to a
    primitive integer vector: every relator then has image 0, and the
    images have gcd 1.  It exists exactly when the abelianization has a
    free factor.
    """
    kernel = nullspace(exponent_sums(p) or [[0] * p.n_generators])
    if not kernel:
        return None
    den = math.lcm(*(x.denominator for x in kernel[0]))
    ints = [int(x * den) for x in kernel[0]]
    g = math.gcd(*ints)
    return [x // g for x in ints]


# -- Todd-Coxeter -----------------------------------------------------------------

def _tc_alphabet(p):
    """Relators in the 2g letter alphabet d with inv(d) = d ^ 1."""
    return [tuple(2 * (abs(g) - 1) + (g < 0) for g in r) for r in p.relators]


def _tc_run(p, max_cosets):
    """Coset enumeration of the trivial subgroup: HLT with scan-and-fill.

    The coset table is one flat list: row c is table[c*w : (c+1)*w] for
    w = 2g columns, -1 marks an undefined entry, and defining c.d = n also
    sets n.d^-1 = c.  parent is the union-find of coincidences; live cosets
    are its fixed points, and live rows point only to live cosets.
    Returns (table, parent), or None when max_cosets cosets have been
    defined (dead ones included) and another is needed.
    """
    w = 2 * p.n_generators
    rels = _tc_alphabet(p)
    blank = [-1] * w
    table = list(blank)
    parent = [0]

    def find(c):
        while parent[c] != c:
            parent[c] = c = parent[parent[c]]
        return c

    def coincidence(a, b):
        # merge a and b and every pair this forces; a dead coset's edges
        # move onto its representative, merging wherever one is taken
        queue = []

        def merge(x, y):
            x, y = find(x), find(y)
            if x != y:
                if x > y:
                    x, y = y, x
                parent[y] = x
                queue.append(y)

        merge(a, b)
        for dead in queue:
            row = dead * w
            for d in range(w):
                e = table[row + d]
                if e < 0:
                    continue
                di = d ^ 1
                table[e * w + di] = -1
                mu, nu = find(dead), find(e)
                m = table[mu * w + d]
                if m >= 0:
                    merge(nu, m)
                    continue
                n = table[nu * w + di]
                if n >= 0:
                    merge(mu, n)
                else:
                    table[mu * w + d] = nu
                    table[nu * w + di] = mu

    c = 0
    while c < len(parent):
        if parent[c] != c:
            c += 1
            continue
        for rel in rels:
            f, i, b, j = c, 0, c, len(rel) - 1
            while True:
                while i <= j:
                    nxt = table[f * w + rel[i]]
                    if nxt < 0:
                        break
                    f, i = nxt, i + 1
                if i > j:
                    if f != b:
                        coincidence(f, b)
                    break
                while j >= i:
                    nxt = table[b * w + (rel[j] ^ 1)]
                    if nxt < 0:
                        break
                    b, j = nxt, j - 1
                if j < i:
                    if f != b:
                        coincidence(f, b)
                    break
                d = rel[i]
                if i == j:  # a deduction closes the gap
                    table[f * w + d] = b
                    table[b * w + (d ^ 1)] = f
                    break
                n = len(parent)
                if n >= max_cosets:
                    return None
                parent.append(n)
                table += blank
                table[f * w + d] = n
                table[n * w + (d ^ 1)] = f
            if parent[c] != c:
                break
        else:
            row = c * w
            for d in range(w):
                if table[row + d] < 0:
                    n = len(parent)
                    if n >= max_cosets:
                        return None
                    parent.append(n)
                    table += blank
                    table[row + d] = n
                    table[n * w + (d ^ 1)] = c
        c += 1
    return table, parent


def _enumerate(p, max_cosets):
    """(_tc_run's result, the abelianization), deciding infinite groups first.

    A free factor in the abelianization maps the group onto Z, so the group
    is infinite and no coset table of the trivial subgroup closes, whatever
    the bound (Holt, Eick & O'Brien, *Handbook of Computational Group
    Theory*, §5 and §9).  Such a presentation gets None, the result the
    enumeration gives at every bound, without a table being built; every
    other presentation is enumerated.
    """
    ab = abelianization(p)
    return (None if 0 in ab else _tc_run(p, max_cosets)), ab


def todd_coxeter(p, max_cosets=100000):
    """Group order by coset enumeration, or the string 'overflow'.

    'overflow' means either that max_cosets cosets were defined and another
    was needed, or, decided at once without enumerating, that the
    abelianization has a free factor, so the group is infinite.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be at least 1")
    result, _ = _enumerate(p, max_cosets)
    if result is None:
        return OVERFLOW
    _, parent = result
    return sum(1 for c, r in enumerate(parent) if c == r)


def coset_action(p, max_cosets=100000):
    """Permutation action of the generators on the cosets (the regular action).

    Returns (order, perms) with perms[k] the 0-based permutation tuple of
    generator k+1.  Raises at once when the abelianization has a free
    factor (the group is infinite), naming it, and otherwise on overflow.
    The completed table is verified: every relator acts trivially.
    """
    result, ab = _enumerate(p, max_cosets)
    if result is None:
        if 0 in ab:
            raise RuntimeError(f"the group is infinite: its abelianization {ab} "
                               "has a free factor")
        raise RuntimeError(f"coset enumeration overflowed at {max_cosets}")
    table, parent = result
    w = 2 * p.n_generators
    live = [c for c, r in enumerate(parent) if c == r]
    index = {c: i for i, c in enumerate(live)}
    perms = []
    for col in range(0, w, 2):
        perm = []
        for c in live:
            target = index.get(table[c * w + col])
            if target is None:
                raise RuntimeError("incomplete coset table")
            perm.append(target)
        perms.append(tuple(perm))
    for r in p.relators:
        for start in range(len(live)):
            if perm_word(r, perms, start) != start:
                raise RuntimeError("coset table is not closed under a relator")
    return len(live), perms


def perm_word(word, perms, point):
    """Apply a word in permutation images to a point."""
    here = point
    for g in word:
        p = perms[abs(g) - 1]
        here = p[here] if g > 0 else p.index(here)
    return here


# -- homomorphism enumeration ------------------------------------------------------

def _perm_mul(p, q):
    return tuple(q[p[i]] for i in range(len(p)))


def _perm_inv(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


@functools.lru_cache(maxsize=8)
def _sym_index(n):
    """S_n in itertools order, so index 0 is the identity, with its
    multiplication table (mul[i][j] indexes _perm_mul(perms[i], perms[j]))
    and inverse table."""
    perms = tuple(itertools.permutations(range(n)))
    index = {s: i for i, s in enumerate(perms)}
    mul = tuple(tuple(index[_perm_mul(s, t)] for t in perms) for s in perms)
    inv = tuple(index[_perm_inv(s)] for s in perms)
    return perms, index, mul, inv


def _transitive(images, n):
    seen = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for p in images:
            for y in (p[x], p.index(x)):
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
    return len(seen) == n


def count_homs(p, n):
    """Number of homomorphisms into S_n (backtracking with relator pruning)."""
    if n > 6:
        raise ValueError("brute force is meant for n <= 6")
    return sum(1 for _ in _search_homs(p, n, range(math.factorial(n))))


def _search_homs(p, n, pool):
    """Homomorphisms into S_n with every image in pool (S_n indices), as
    index tuples in pool order; a relator is checked once its highest
    generator has an image."""
    _, _, mul, inv = _sym_index(n)
    g = p.n_generators
    by_support = [[] for _ in range(g + 1)]
    for r in p.relators:
        # letter 2k reads the image of generator k + 1, letter 2k + 1 its inverse
        by_support[max(abs(x) for x in r)].append(
            tuple(2 * (abs(x) - 1) + (x < 0) for x in r))
    values = [0] * (2 * g)

    def recurse(depth):
        if depth == g:
            yield tuple(values[0::2])
            return
        words = by_support[depth + 1]
        for cand in pool:
            values[2 * depth] = cand
            values[2 * depth + 1] = inv[cand]
            for word in words:
                acc = 0
                for letter in word:
                    acc = mul[acc][values[letter]]
                if acc:
                    break
            else:
                yield from recurse(depth + 1)

    yield from recurse(0)


def conjugates(images, n):
    """The tuple conjugated by each s in S_n, in a fixed order of S_n."""
    return [tuple(_perm_mul(_perm_mul(_perm_inv(s), g), s) for g in images)
            for s in itertools.permutations(range(n))]


def enumerate_homs_to_sym(p, n):
    """Homomorphism classes into S_n under simultaneous conjugation.

    The images must all be transpositions and generate a transitive
    subgroup.  Returns (classes, tuple_count) where classes maps a canonical
    image tuple to its representative and tuple_count is the raw number of
    satisfying tuples before conjugacy reduction.
    """
    if n > 6:
        raise ValueError("brute force is meant for n <= 6")
    perms, index, _, _ = _sym_index(n)
    pool = [index[transposition(n, a, b)]
            for a, b in itertools.combinations(range(1, n + 1), 2)]
    found = []
    for hom in _search_homs(p, n, pool):
        images = tuple(perms[i] for i in hom)
        if _transitive(images, n):
            found.append(images)
    classes = {}
    for images in found:
        classes.setdefault(min(conjugates(images, n)), images)
    return classes, len(found)


def centralizer_order(images, n):
    """Number of s in S_n that fix the tuple under simultaneous conjugation."""
    return conjugates(images, n).count(tuple(images))


# -- Tietze simplification -----------------------------------------------------------

def _substitute(word, gen, expression):
    out = []
    for g in word:
        if abs(g) == gen:
            out.extend(expression if g > 0 else word_inverse(expression))
        else:
            out.append(g)
    return free_reduce(out)


def _try_shorten(r, s):
    """Shorten relator r using relator s (subword longer than half of s)."""
    L = len(s)
    if L < 2:
        return None
    best = None
    doubled = {}
    for variant in (tuple(s), word_inverse(s)):
        doubled[variant] = variant + variant
    for k in range(len(r)):
        rot = r[k:] + r[:k]
        for variant, dd in doubled.items():
            for wlen in range(L, L // 2, -1):
                for start in range(L):
                    w = dd[start:start + wlen]
                    idx = _find_subword(rot, w)
                    if idx < 0:
                        continue
                    tail = dd[start + wlen:start + L]
                    cand, _ = cyclic_reduce(
                        rot[:idx] + word_inverse(tail) + rot[idx + wlen:])
                    if len(cand) < len(r) and (best is None or len(cand) < len(best)):
                        best = cand
    return best


def _find_subword(word, sub):
    if not sub or len(sub) > len(word):
        return -1
    for i in range(len(word) - len(sub) + 1):
        if word[i:i + len(sub)] == sub:
            return i
    return -1


def tietze_simplify(p):
    """Eliminate redundant generators and shorten relators.

    Generators defined by a relator in which they occur exactly once are
    substituted away; relators are shortened against each other by
    replacing long shared subwords.  Deterministic order, never increases
    the generator count.  Returns (presentation, budget_exhausted), the
    budget being TIETZE_STEPS rounds.
    """
    names = list(p.generator_names)
    relators = _dedupe_relators(p.relators)
    steps = 0
    while steps < TIETZE_STEPS:
        steps += 1
        changed = False
        # generator elimination, smallest defining relator first; when a
        # relator defines several generators, drop the highest-numbered one
        for r in sorted(relators, key=len):
            target = None
            for gen in range(len(names), 0, -1):
                occurrences = sum(1 for g in r if abs(g) == gen)
                if occurrences == 1:
                    target = gen
                    break
            if target is None:
                continue
            k = next(i for i, g in enumerate(r) if abs(g) == target)
            rot = r[k:] + r[:k]
            expr = word_inverse(rot[1:]) if rot[0] > 0 else tuple(rot[1:])
            new_relators = []
            for other in relators:
                if other is r:
                    continue
                new_relators.append(_substitute(other, target, expr))
            relators = _dedupe_relators(
                [_renumber_word(w, target) for w in new_relators])
            names = names[:target - 1] + names[target:]
            changed = True
            break
        if changed:
            continue
        # relator-against-relator shortening
        for i, r in enumerate(relators):
            for j, s in enumerate(relators):
                if i == j or len(s) > len(r):
                    continue
                shorter = _try_shorten(r, s)
                if shorter is not None:
                    relators = _dedupe_relators(
                        relators[:i] + [shorter] + relators[i + 1:])
                    changed = True
                    break
            if changed:
                break
        if not changed:
            return Presentation(tuple(names), tuple(relators)), False
    return Presentation(tuple(names), tuple(relators)), True


def _renumber_word(word, gen):
    out = []
    for g in word:
        a = abs(g)
        if a == gen:
            raise ValueError("eliminated generator survived substitution")
        if a > gen:
            a -= 1
        out.append(a if g > 0 else -a)
    return tuple(out)
