"""Braid words in B_n, the Artin action on free words, band half-twists.

Free-group words are tuples of nonzero integers (sign = inverse, absolute
value = generator index, 1-based).  Braid letters use the same encoding for
the Artin generators.  The braid acts on the free group on the right: the
word picks up the letters of the braid left to right, each positive letter
i substituting x_i -> x_i x_{i+1} x_i^-1, x_{i+1} -> x_i.  Positive letters
are counterclockwise exchanges of adjacent strands.
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_STATES = 20000  # words the conjugacy search visits at most


def free_reduce(letters):
    out = []
    for g in letters:
        if out and out[-1] == -g:
            out.pop()
        else:
            out.append(g)
    return tuple(out)


def word_inverse(letters):
    return tuple(-g for g in reversed(letters))


def cyclic_reduce(letters):
    """(core, prefix) with free_reduce(letters) == prefix + core + prefix^-1
    and core cyclically reduced (its ends are not mutually inverse)."""
    w = free_reduce(letters)
    n = len(w)
    k = 0
    while 2 * k + 1 < n and w[k] == -w[n - 1 - k]:
        k += 1
    return w[k:n - k], w[:k]


@dataclass(frozen=True)
class BraidWord:
    n_strands: int
    letters: tuple

    def __post_init__(self):
        if self.n_strands < 2:
            raise ValueError("need at least two strands")
        object.__setattr__(self, "letters", tuple(self.letters))
        for g in self.letters:
            if g == 0 or abs(g) >= self.n_strands:
                raise ValueError(f"letter {g} out of range for B_{self.n_strands}")

    def __mul__(self, other):
        if self.n_strands != other.n_strands:
            raise ValueError("strand counts differ")
        return BraidWord(self.n_strands, self.letters + other.letters)

    def inverse(self):
        return BraidWord(self.n_strands, word_inverse(self.letters))

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        return BraidWord(self.n_strands, self.letters * k)

    def exponent_sum(self):
        return sum(1 if g > 0 else -1 for g in self.letters)

    def to_json(self):
        return {"n": self.n_strands, "letters": list(self.letters)}

    @classmethod
    def identity(cls, n):
        return cls(n, ())

    @classmethod
    def generator(cls, n, i):
        return cls(n, (i,))


def _letter_action(letter, word):
    """Right action of one Artin letter on a free word."""
    i = abs(letter)
    out = []
    if letter > 0:
        images = {i: (i, i + 1, -i), i + 1: (i,)}
    else:
        images = {i: (i + 1,), i + 1: (-(i + 1), i, i + 1)}
    for g in word:
        base = abs(g)
        img = images.get(base)
        if img is None:
            out.append(g)
        elif g > 0:
            out.extend(img)
        else:
            out.extend(-h for h in reversed(img))
    return free_reduce(out)


def artin_action(braid, word):
    """Image of a free word under the braid automorphism (right action)."""
    w = free_reduce(word)
    for letter in braid.letters:
        if abs(letter) >= braid.n_strands:
            raise ValueError(f"letter {letter} out of range")
        w = _letter_action(letter, w)
    return w


def braid_equal(b1, b2):
    """Word problem via the faithful action on the free group."""
    if b1.n_strands != b2.n_strands:
        return False
    for i in range(1, b1.n_strands + 1):
        if artin_action(b1, (i,)) != artin_action(b2, (i,)):
            return False
    return True


def permutation_image(braid):
    """Underlying permutation: tuple p with p[i] = end position of strand i."""
    n = braid.n_strands
    at = list(range(n))  # at[pos] = strand currently there
    for letter in braid.letters:
        k = abs(letter) - 1
        at[k], at[k + 1] = at[k + 1], at[k]
    perm = [0] * n
    for pos, strand in enumerate(at):
        perm[strand] = pos
    return tuple(perm)


def compose_permutations(perms, n):
    """Left-to-right composition of permutations given as 0-based tuples."""
    out = list(range(n))
    for p in perms:
        out = [p[out[i]] for i in range(n)]
    return tuple(out)


def transposition(n, a, b):
    """Transposition (a, b) on n points, 1-based input, 0-based tuple output."""
    p = list(range(n))
    p[a - 1], p[b - 1] = p[b - 1], p[a - 1]
    return tuple(p)


def cycle_notation(perm):
    """1-based disjoint-cycle string, fixed points omitted; 'id' if trivial."""
    n = len(perm)
    seen = [False] * n
    parts = []
    for i in range(n):
        if seen[i] or perm[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = perm[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = perm[j]
        parts.append("(" + ",".join(str(k + 1) for k in cyc) + ")")
    return "".join(parts) if parts else "id"


def is_transposition(perm):
    moved = [i for i, j in enumerate(perm) if i != j]
    return len(moved) == 2 and perm[moved[0]] == moved[1]


@dataclass(frozen=True)
class ArcSpec:
    """An arc between two strands, passing each intermediate strand on the
    positive (+1, above) or negative (-1, below) side."""
    endpoints: tuple
    over_under: tuple = ()

    def __post_init__(self):
        i, j = self.endpoints
        if i == j:
            raise ValueError("arc endpoints must differ")
        if i > j:
            object.__setattr__(self, "endpoints", (j, i))
            object.__setattr__(self, "over_under", tuple(reversed(self.over_under)))
        i, j = self.endpoints
        if len(self.over_under) != j - i - 1:
            raise ValueError(
                f"need {j - i - 1} over/under flags for strands strictly between "
                f"{i} and {j}")
        if any(s not in (-1, 1) for s in self.over_under):
            raise ValueError("over/under flags must be +1 or -1")


def halftwist_around_arc(arc, n):
    """Positive half-twist around an arc, as a band generator.

    The conjugator drags strand j next to strand i, crossing each
    intermediate strand on its prescribed side; with no intermediates this
    is sigma_i itself.
    """
    i, j = arc.endpoints
    if not (1 <= i < j <= n):
        raise ValueError(f"endpoints {arc.endpoints} out of range for {n} strands")
    conj = []
    for k in range(j - 1, i, -1):
        eps = arc.over_under[k - i - 1]
        conj.append(eps * k)
    letters = tuple(conj) + (i,) + word_inverse(tuple(conj))
    return BraidWord(n, free_reduce(letters))


def _shift_conjugator(n, j):
    """U with sigma_j = U sigma_1 U^-1 (U = V_j V_{j-1} ... V_2, V_k = s_{k-1} s_k)."""
    letters = []
    for k in range(j, 1, -1):
        letters.extend([k - 1, k])
    return BraidWord(n, tuple(letters))


def conjugate_power_witness(braid):
    """If braid is a conjugate W sigma_1^k W^-1, return (k, W); else None.

    Searches the commutation-and-cyclic-rotation orbit of the word for a
    power of a single Artin letter; the returned witness is always
    verified through braid_equal, so a hit is a proof.
    """
    from collections import deque

    n = braid.n_strands
    start = cyclic_reduce(braid.letters)
    seen = {start[0]}
    queue = deque([start])
    while queue:
        core, prefix = queue.popleft()
        if not core:
            if braid_equal(braid, BraidWord.identity(n)):
                return 0, BraidWord.identity(n)
            continue
        if all(g == core[0] for g in core):
            j = abs(core[0])
            k = len(core) * (1 if core[0] > 0 else -1)
            witness = BraidWord(n, prefix) * _shift_conjugator(n, j)
            candidate = witness * (BraidWord.generator(n, 1) ** k) * witness.inverse()
            if braid_equal(braid, candidate):
                return k, witness
        moves = [(core[1:] + core[:1], prefix + (core[0],))]
        for i in range(len(core) - 1):
            if abs(abs(core[i]) - abs(core[i + 1])) >= 2:
                moves.append((core[:i] + (core[i + 1], core[i]) + core[i + 2:], prefix))
        for nc, np in moves:
            nc, more = cyclic_reduce(nc)
            if nc not in seen and len(seen) < MAX_STATES:
                seen.add(nc)
                queue.append((nc, np + more))
    return None
