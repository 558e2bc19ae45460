"""Deformed bidouble covers: multiplication table, different, discriminant.

The cover is the rank-4 extension generated by z, w with z^2 = v + a w and
w^2 = u + b z over the base ring Q[u, v, a, b]; elements are written on the
module basis (1, z, w, zw).  The multiplication table is the triple of
matrices (M_z, M_w, M_zw): M_z and M_w are read off the two relations, and
M_zw is their product.  The discriminant comes out as the norm of the
different R = 4zw - ab, and its normal form delta with the
three cusps at (3/4 zeta^2, 3/4 zeta) are verified exactly in Q(zeta),
computed as Q[z] modulo zeta's minimal polynomial z^2 + z + 1: a
polynomial in z stands for its value at zeta, and its remainder (x, y)
modulo z^2 + z + 1 is the element x + y zeta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import exactpoly as xp
from .mpoly import MPoly, determinant, ring

BASE_VARS = ("u", "v", "a", "b")
COVER_VARS = ("u", "v", "a", "b", "z", "w")
PHI3 = (1, 1, 1)  # z^2 + z + 1, ascending: the minimal polynomial of zeta


class StructureError(RuntimeError):
    """An identity the geometry guarantees failed to hold."""


# -- the multiplication table -------------------------------------------------

def multiplication_matrices():
    """(M_z, M_w, M_zw): multiplication by z, w and zw on the basis
    (1, z, w, zw), over Q[u, v, a, b].

    Column j holds the coordinates of generator * basis_j.  M_z and M_w are
    read off z^2 = v + a w and w^2 = u + b z; zw acts as z after w, so
    M_zw = M_z M_w.
    """
    u, v, a, b = ring(*BASE_VARS)
    zero, one = MPoly.zero(BASE_VARS), MPoly.constant(1, BASE_VARS)
    # z*zw = (v + a w) w = a u + a b z + v w
    m_z = [[zero, v, zero, a * u],
           [one, zero, zero, a * b],
           [zero, a, zero, v],
           [zero, zero, one, zero]]
    # w*zw = z (u + b z) = b v + u z + a b w
    m_w = [[zero, zero, u, b * v],
           [zero, zero, b, u],
           [one, zero, zero, a * b],
           [zero, one, zero, zero]]
    m_zw = [[sum(x * y for x, y in zip(row, col)) for col in zip(*m_w)] for row in m_z]
    return m_z, m_w, m_zw


def different():
    """Ramification determinant det [[2z, -a], [-b, 2w]] = 4zw - ab."""
    u, v, a, b, z, w = ring(*COVER_VARS)
    return determinant([[2 * z, -a], [-b, 2 * w]])


@lru_cache(maxsize=None)
def discriminant_norm():
    """Discriminant Delta = 4^4 det(M_zw - ab/4 I) and its normal form P.

    P(u, v, alpha, beta) = -Delta/16^2 rewritten through alpha = a^2 and
    beta = b^2; a structure error is raised if Delta ever saw an odd power
    of a or b, which would contradict the norm computation.
    """
    _, _, m_zw = multiplication_matrices()
    _, _, a, b = ring(*BASE_VARS)
    shift = a * b * Fraction(1, 4)
    delta = determinant([[x - shift if i == j else x for j, x in enumerate(row)]
                         for i, row in enumerate(m_zw)]) * 256
    p = _reexpress_even(delta * Fraction(-1, 256), BASE_VARS)
    return delta, p


def _reexpress_even(poly, vars_):
    """Rewrite even powers of a, b as alpha, beta (errors on odd powers)."""
    ia, ib = vars_.index("a"), vars_.index("b")
    iu, iv = vars_.index("u"), vars_.index("v")
    new_vars = ("u", "v", "alpha", "beta")
    terms = {}
    for expo, coeff in poly.terms.items():
        if expo[ia] % 2 or expo[ib] % 2:
            raise StructureError(
                f"odd power of a or b in the discriminant: exponent {expo}")
        key = (expo[iu], expo[iv], expo[ia] // 2, expo[ib] // 2)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return MPoly(new_vars, terms)


# -- normal forms of the discriminant curve ----------------------------------

@lru_cache(maxsize=None)
def delta_normal_form():
    """delta(u, v) = P(u, v, 1, 1)."""
    _, p = discriminant_norm()
    return p.compose({"alpha": Fraction(1), "beta": Fraction(1)},
                     ("u", "v", "alpha", "beta")).dropped("alpha").dropped("beta")


def scaling_identity_residual():
    """P(lam^4 u0, lam^2 v0, 1, lam^6) - lam^12 delta(u0, v0), exactly."""
    _, p = discriminant_norm()
    target = ("u0", "v0", "lam")
    u0, v0, lam = ring(*target)
    lhs = p.compose({"u": lam ** 4 * u0, "v": lam ** 2 * v0,
                     "alpha": Fraction(1), "beta": lam ** 6}, target)
    delta = delta_normal_form()
    rhs = lam ** 12 * delta.compose({"u": u0, "v": v0}, target)
    return lhs - rhs


@dataclass(frozen=True)
class CuspPoint:
    """A cusp (u, v) with coordinates x + y zeta given as pairs (x, y)."""
    u: tuple
    v: tuple
    zeta_power: int

    def as_complex(self):
        zeta = complex(-0.5, math.sqrt(3) / 2)
        return tuple(float(x) + float(y) * zeta for x, y in (self.u, self.v))


def find_cusps():
    """The three cusps of delta, certified exactly in Q(zeta) = Q[z]/(PHI3).

    Follows the elimination u (d/du) - v (d/dv) = 3(u^3 - v^3); at each
    candidate (3/4 z^(2k), 3/4 z^k) delta and its partials reduce to zero
    modulo PHI3, and d(delta)/du at u = z^k v reduces to
    -2 z^k v (v - 3/4 z^k)^2, the double root that makes the point a cusp.
    """
    delta = delta_normal_form()
    du = delta.partial("u")
    dv = delta.partial("v")
    u, v = (MPoly.variable(n, delta.variables) for n in ("u", "v"))
    elim = u * du - v * dv
    if elim != 3 * (u ** 3 - v ** 3):
        raise StructureError("elimination identity u d_u - v d_v = 3(u^3 - v^3) failed")
    if delta.evaluate({"u": Fraction(0), "v": Fraction(0)}) == 0:
        raise StructureError("origin unexpectedly lies on the curve")
    (z,) = ring("z")
    vs, zs = ring("v", "z")
    cusps = []
    for k in range(3):
        uc, vc = Fraction(3, 4) * z ** (2 * k), Fraction(3, 4) * z ** k
        point = {"u": uc, "v": vc}
        if any(_in_q_zeta(f.compose(point, ("z",))) != (0, 0) for f in (delta, du, dv)):
            raise StructureError(f"cusp candidate zeta^{k} has nonzero residuals")
        zk = zs ** k
        quad = (du.compose({"u": zk * vs, "v": vs}, ("v", "z"))
                + 2 * zk * vs * (vs - Fraction(3, 4) * zk) ** 2)
        if any(_in_q_zeta(c) != (0, 0) for c in quad.as_univariate("v")):
            raise StructureError(f"quadratic for zeta^{k} is not -2 zeta (v - 3/4 zeta)^2")
        cusps.append(CuspPoint(_in_q_zeta(uc), _in_q_zeta(vc), k))
    return cusps


def _in_q_zeta(poly):
    """The value (x, y) = x + y zeta of a polynomial in z at z = zeta."""
    return xp.remainder(poly.univariate_coeffs("z"), PHI3)
