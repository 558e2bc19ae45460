"""Sparse multivariate polynomials over exact rationals.

Coefficients are ``fractions.Fraction`` (always reduced, positive
denominator), monomials are exponent tuples keyed against an ordered
variable list.  All arithmetic is exact.  Term order for printing and
for leading-term queries is graded reverse lexicographic (grevlex),
largest term first.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational as _Rational


class VariableMismatchError(ValueError):
    """Operands live in different polynomial rings."""


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, _Rational)):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def _grevlex_key(expo):
    # grevlex: compare total degree, then reversed exponents with sign flipped.
    return (sum(expo), tuple(-e for e in reversed(expo)))


class MPoly:
    """Immutable sparse polynomial with Fraction coefficients."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms):
        variables = tuple(variables)
        clean = {}
        nvars = len(variables)
        for expo, coeff in terms.items():
            coeff = _as_fraction(coeff)
            if coeff == 0:
                continue
            expo = tuple(expo)
            if len(expo) != nvars or any(e < 0 for e in expo):
                raise ValueError(f"bad exponent vector {expo} for {variables}")
            clean[expo] = coeff
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables):
        return cls(variables, {})

    @classmethod
    def constant(cls, value, variables):
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): _as_fraction(value)})

    @classmethod
    def variable(cls, name, variables):
        variables = tuple(variables)
        if name not in variables:
            raise VariableMismatchError(f"unknown variable {name!r} in {variables}")
        expo = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, {expo: Fraction(1)})

    # -- ring plumbing -------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MPoly):
            if other.variables != self.variables:
                raise VariableMismatchError(
                    f"variable lists differ: {self.variables} vs {other.variables}")
            return other
        if isinstance(other, (int, _Rational)):
            return MPoly.constant(other, self.variables)
        return None

    def extended(self, variables):
        """Embed into a ring whose variable list contains this one's."""
        variables = tuple(variables)
        pos = []
        for v in self.variables:
            if v not in variables:
                raise VariableMismatchError(f"target ring lacks {v!r}")
            pos.append(variables.index(v))
        terms = {}
        for expo, coeff in self.terms.items():
            new = [0] * len(variables)
            for p, e in zip(pos, expo):
                new[p] = e
            terms[tuple(new)] = coeff
        return MPoly(variables, terms)

    def dropped(self, name):
        """Remove an unused variable from the ring."""
        if self.degree_in(name) > 0:
            raise VariableMismatchError(f"{name!r} still occurs")
        i = self.variables.index(name)
        variables = self.variables[:i] + self.variables[i + 1:]
        terms = {expo[:i] + expo[i + 1:]: c for expo, c in self.terms.items()}
        return MPoly(variables, terms)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for expo, coeff in other.terms.items():
            s = terms.get(expo, Fraction(0)) + coeff
            if s == 0:
                terms.pop(expo, None)
            else:
                terms[expo] = s
        return MPoly(self.variables, terms)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, _Rational)) and not isinstance(other, MPoly):
            c = _as_fraction(other)
            if c == 0:
                return MPoly.zero(self.variables)
            return MPoly(self.variables, {e: c * v for e, v in self.terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(expo, Fraction(0)) + c1 * c2
                if s == 0:
                    terms.pop(expo, None)
                else:
                    terms[expo] = s
        return MPoly(self.variables, terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = MPoly.constant(1, self.variables)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __truediv__(self, other):
        if isinstance(other, (int, _Rational)) and not isinstance(other, MPoly):
            return self * (Fraction(1) / _as_fraction(other))
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, _Rational)) and not isinstance(other, MPoly):
            other = MPoly.constant(other, self.variables)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    # -- queries -------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, name):
        if name not in self.variables:
            raise VariableMismatchError(f"unknown variable {name!r}")
        i = self.variables.index(name)
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def coefficient(self, expo):
        return self.terms.get(tuple(expo), Fraction(0))

    def leading_term(self):
        """(exponent, coefficient) of the grevlex-largest term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        expo = max(self.terms, key=_grevlex_key)
        return expo, self.terms[expo]

    def content(self):
        """gcd of numerators over lcm of denominators (positive), 0 for 0."""
        if not self.terms:
            return Fraction(0)
        num = 0
        den = 1
        for c in self.terms.values():
            num = math.gcd(num, abs(c.numerator))
            den = den * c.denominator // math.gcd(den, c.denominator)
        return Fraction(num, den)

    def primitive(self):
        """Divide by content and fix the grevlex leading coefficient positive."""
        if not self.terms:
            return self
        c = self.content()
        p = self * (Fraction(1) / c)
        if p.leading_term()[1] < 0:
            p = -p
        return p

    # -- calculus and substitution --------------------------------------

    def partial(self, name):
        """Formal partial derivative."""
        if name not in self.variables:
            raise VariableMismatchError(f"unknown variable {name!r}")
        i = self.variables.index(name)
        terms = {}
        for expo, coeff in self.terms.items():
            if expo[i] == 0:
                continue
            new = list(expo)
            new[i] -= 1
            terms[tuple(new)] = coeff * expo[i]
        return MPoly(self.variables, terms)

    def compose(self, assignments, result_variables):
        """Substitute each variable by an MPoly (or rational) over result_variables."""
        result_variables = tuple(result_variables)
        images = []
        for v in self.variables:
            img = assignments.get(v)
            if img is None:
                img = MPoly.variable(v, result_variables)
            elif not isinstance(img, MPoly):
                img = MPoly.constant(img, result_variables)
            elif img.variables != result_variables:
                raise VariableMismatchError(
                    f"image of {v!r} not over {result_variables}")
            images.append(img)
        acc = MPoly.zero(result_variables)
        powers = [{0: MPoly.constant(1, result_variables)} for _ in images]
        for expo, coeff in self.terms.items():
            t = MPoly.constant(coeff, result_variables)
            for i, e in enumerate(expo):
                cache = powers[i]
                if e not in cache:
                    p = max(cache)
                    best = cache[p]
                    while p < e:
                        best = best * images[i]
                        p += 1
                        cache[p] = best
                t = t * cache[e]
            acc = acc + t
        return acc

    def evaluate(self, values):
        """Evaluate at a point given as dict name -> value.

        Exact for Fraction-like values; floats/complex values switch the
        computation to hardware arithmetic.
        """
        missing = [v for v in self.variables if v not in values]
        if missing:
            raise VariableMismatchError(f"no value for {missing}")
        inexact = any(isinstance(values[v], (float, complex)) for v in self.variables)
        total = None
        for expo, coeff in self.terms.items():
            t = complex(coeff) if inexact else coeff
            for v, e in zip(self.variables, expo):
                if e:
                    t = t * values[v] ** e
            total = t if total is None else total + t
        if total is None:
            return 0j if inexact else Fraction(0)
        return total

    def as_univariate(self, name):
        """Ascending coefficient list in ``name``, over the remaining variables."""
        if name not in self.variables:
            raise VariableMismatchError(f"unknown variable {name!r}")
        i = self.variables.index(name)
        rest = self.variables[:i] + self.variables[i + 1:]
        deg = self.degree_in(name)
        buckets = [dict() for _ in range(max(deg, 0) + 1)]
        for expo, coeff in self.terms.items():
            buckets[expo[i]][expo[:i] + expo[i + 1:]] = coeff
        return [MPoly(rest, b) for b in buckets]

    def univariate_coeffs(self, name):
        """Ascending Fraction coefficients; requires all other variables absent."""
        coeffs = []
        for c in self.as_univariate(name):
            if c.degree() > 0:
                raise VariableMismatchError("polynomial is not univariate")
            coeffs.append(c.coefficient((0,) * len(c.variables)))
        return coeffs

    # -- printing --------------------------------------------------------

    def canonical_str(self):
        """Deterministic text form: variables sorted, grevlex order, largest first."""
        order = tuple(sorted(self.variables))
        perm = [self.variables.index(v) for v in order]
        items = []
        for expo, coeff in self.terms.items():
            items.append((tuple(expo[p] for p in perm), coeff))
        items.sort(key=lambda t: _grevlex_key(t[0]), reverse=True)
        if not items:
            return "0"
        parts = []
        for k, (expo, coeff) in enumerate(items):
            mono = "*".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(order, expo) if e)
            mag = abs(coeff)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if k == 0:
                parts.append(body if coeff > 0 else "-" + body)
            else:
                parts.append(("+ " if coeff > 0 else "- ") + body)
        return " ".join(parts)

    def __str__(self):
        return self.canonical_str()

    def __repr__(self):
        return f"MPoly({self.canonical_str()!r})"


def ring(*names):
    """Generators of Q[names]: ``u, v = ring('u', 'v')``."""
    if len(names) == 1 and "," in names[0]:
        names = tuple(s.strip() for s in names[0].split(","))
    return tuple(MPoly.variable(n, names) for n in names)


def _divide_exact(a, b):
    """a / b when b divides a, by division by grevlex leading terms.

    Raises ArithmeticError if a remainder is left."""
    lead, lc = b.leading_term()
    rest = [(e, c) for e, c in b.terms.items() if e != lead]
    r = dict(a.terms)
    q = {}
    while r:
        top = max(r, key=_grevlex_key)
        shift = tuple(x - y for x, y in zip(top, lead))
        if any(s < 0 for s in shift):
            raise ArithmeticError(f"{b} does not divide {a}")
        c = r.pop(top) / lc
        q[shift] = c
        for e, ce in rest:
            t = tuple(x + y for x, y in zip(shift, e))
            v = r.get(t, 0) - c * ce
            if v:
                r[t] = v
            else:
                r.pop(t, None)
    return MPoly(a.variables, q)


def bareiss(m, divide):
    """Determinant of the square matrix m (a list of row lists, overwritten)
    by fraction-free Bareiss elimination; a zero pivot is replaced by a row
    swap.  ``divide(a, b)`` is the entries' exact division: ``//`` on ints,
    ``_divide_exact`` on MPoly."""
    n = len(m)
    negate = False
    prev = None  # the previous pivot, which divides every update exactly
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return m[k][k]  # zero, in the entries' ring
            m[k], m[swap] = m[swap], m[k]
            negate = not negate
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                entry = m[i][j] * pivot - m[i][k] * m[k][j]
                m[i][j] = entry if prev is None else divide(entry, prev)
        prev = pivot
    return -m[n - 1][n - 1] if negate else m[n - 1][n - 1]


def determinant(rows):
    """Exact determinant of a square MPoly matrix (Bareiss elimination)."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    if n == 0:
        raise ValueError("empty matrix")
    variables = rows[0][0].variables
    for r in rows:
        for entry in r:
            if entry.variables != variables:
                raise VariableMismatchError("matrix entries in different rings")
    return bareiss([list(r) for r in rows], _divide_exact)


def sylvester_matrix(p, q, name):
    """Sylvester matrix of p and q in ``name``, entries MPoly over the other
    variables: deg q rows of p's coefficients on top, then deg p rows of
    q's, highest power first.  The degrees are the formal ones, so the
    matrix evaluated at a point is the Sylvester matrix of the same
    degrees even where a leading coefficient vanishes."""
    if p.is_zero() or q.is_zero():
        raise ValueError("resultant of a zero polynomial")
    pc = p.as_univariate(name)
    qc = q.as_univariate(name)
    m, n = len(pc) - 1, len(qc) - 1
    if m < 1 or n < 1:
        raise ValueError(f"both operands need positive degree in {name!r}")
    zero = MPoly.zero(pc[0].variables)
    size = m + n
    rows = []
    for coeffs, count in ((pc, n), (qc, m)):
        for i in range(count):
            row = [zero] * size
            for j, c in enumerate(reversed(coeffs)):
                row[i + j] = c
            rows.append(row)
    return rows


def resultant(p, q, name):
    """Sylvester resultant eliminating ``name``; p's coefficient rows on top."""
    return determinant(sylvester_matrix(p, q, name))
