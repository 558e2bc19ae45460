"""Small exact linear algebra over Fraction: RREF, rank, solve, nullspace, SNF."""

from __future__ import annotations

from fractions import Fraction


def _frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def rref(rows):
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    m = _frac_matrix(rows)
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows):
    return len(rref(rows)[1])


def nullspace(rows):
    """Basis of the right kernel, one vector per free column."""
    if not rows:
        return []
    m, pivots = rref(rows)
    ncols = len(rows[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -m[r][f]
        basis.append(v)
    return basis


def solve(rows, rhs):
    """One exact solution of A x = b, or None when inconsistent."""
    aug = [list(map(Fraction, row)) + [Fraction(b)] for row, b in zip(rows, rhs)]
    m, pivots = rref(aug)
    ncols = len(rows[0]) if rows else 0
    for r in range(len(m)):
        if all(m[r][c] == 0 for c in range(ncols)) and m[r][ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        if c == ncols:
            return None
        x[c] = m[r][ncols]
    return x


def smith_normal_form(rows):
    """Diagonal entries of the Smith normal form of an integer matrix."""
    m = [[int(x) for x in row] for row in rows]
    if not m or not m[0]:
        return []
    nr, nc = len(m), len(m[0])
    diag = []
    top = 0

    def find_pivot():
        best = None
        for i in range(top, nr):
            for j in range(top, nc):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        return best

    while top < min(nr, nc):
        pos = find_pivot()
        if pos is None:
            break
        i, j = pos
        m[top], m[i] = m[i], m[top]
        for row in m:
            row[top], row[j] = row[j], row[top]
        # clear row and column; restart if a division is inexact
        dirty = False
        for i in range(top + 1, nr):
            if m[i][top]:
                q = m[i][top] // m[top][top]
                m[i] = [a - q * b for a, b in zip(m[i], m[top])]
                if m[i][top]:
                    dirty = True
        for j in range(top + 1, nc):
            if m[top][j]:
                q = m[top][j] // m[top][top]
                for row in m:
                    row[j] -= q * row[top]
                if m[top][j]:
                    dirty = True
        if dirty:
            continue
        # enforce divisibility of the remaining block
        p = abs(m[top][top])
        fixed = True
        for i in range(top + 1, nr):
            for j in range(top + 1, nc):
                if m[i][j] % p:
                    m[top] = [a + b for a, b in zip(m[top], m[i])]
                    fixed = False
                    break
            if not fixed:
                break
        if not fixed:
            continue
        diag.append(p)
        top += 1
    return diag


def invariant_factors(rows, ncols):
    """Abelian group invariants for Z^ncols / rowspace: nontrivial torsion then zeros."""
    diag = smith_normal_form(rows) if rows else []
    torsion = [d for d in diag if d not in (0, 1)]
    rank_used = len([d for d in diag if d != 0])
    free = ncols - rank_used
    return torsion + [0] * free
