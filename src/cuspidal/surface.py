"""The twisted cubic, its net of quadrics, and the tangential developable.

Everything here is exact.  The cubic is the Veronese image
v3(t0, t1) = (t0^3, t0^2 t1, t0 t1^2, t1^3); the net of quadrics through it
is spanned by Q0 = x1 x3 - x2^2, Q1 = -x0 x3 + x1 x2, Q2 = x0 x2 - x1^2,
held once as NET, the tuple of their symmetric 4x4 matrices.  Every
quadratic or bilinear form here, over the rationals or over a polynomial
ring, is the one pairing u^T M v: Q_k(x) pairs NET[k] with x on both sides,
and the pinch form, the tangency test and the Gauss map's Gram matrix pair
their own matrices.  Every "unknown c_k multiplies these polynomials"
system is matched coefficient by coefficient by coefficient_rows.
The determinant of the net is the Veronese conic squared, over 16; quartics
with the cubic as double curve are quadratic expressions in the net, and
pinch points are counted by a degree-4 discriminant built from the
conormal data.  The quartic P(u, v, alpha, beta) of the deformed cover
matches the classical discriminant of binary cubics under an explicit
diagonal coordinate change, computed here and verified rather than assumed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce

from . import exactpoly as xp
from .bidouble import StructureError, discriminant_norm
from .linalg import nullspace, rank, solve
from .mpoly import MPoly, determinant, ring

X_VARS = ("x0", "x1", "x2", "x3")
T_VARS = ("t0", "t1")
L_VARS = ("l0", "l1", "l2")
# the Veronese conic l0 l2 - l1^2, traced by gamma-tilde(t) = (1, t, t^2)
VERONESE = ((0, 0, Fraction(1, 2)), (0, -1, 0), (Fraction(1, 2), 0, 0))
SAMPLE_PARAMS = (0, 1, -1, 2, Fraction(1, 2))  # cone parameters t the checks sample
NET_DETERMINANT = "det(l.Q) = (1/16)(l0 l2 - l1^2)^2"


def _symmetric_matrix(matrix, n):
    """matrix as an n x n tuple of Fractions; ValueError unless symmetric."""
    m = tuple(tuple(Fraction(e) for e in row) for row in matrix)
    if len(m) != n or any(len(r) != n for r in m):
        raise ValueError(f"need a symmetric {n}x{n} matrix")
    for i in range(n):
        for j in range(i):
            if m[i][j] != m[j][i]:
                raise ValueError("matrix is not symmetric")
    return m


_H = Fraction(1, 2)
# the minors of the catalecticant, vanishing on the cubic: (Q0, Q1, Q2)
NET = tuple(_symmetric_matrix(m, 4) for m in (
    ((0, 0, 0, 0), (0, 0, 0, _H), (0, 0, -1, 0), (0, _H, 0, 0)),
    ((0, 0, 0, -_H), (0, 0, _H, 0), (0, _H, 0, 0), (-_H, 0, 0, 0)),
    ((0, 0, _H, 0), (0, -1, 0, 0), (_H, 0, 0, 0), (0, 0, 0, 0)),
))


def pairing(u, m, v):
    """u^T M v, for entries that are rationals or polynomials over one ring."""
    return sum(u[i] * m[i][j] * v[j] for i in range(len(u)) for j in range(len(v)))


def coefficient_rows(columns, rhs=None):
    """The linear system sum_k c_k columns[k] = rhs, coefficient by coefficient.

    columns[k] is the tuple of polynomials that the unknown c_k multiplies,
    one per identity, and rhs the tuple the sums must equal (zero when
    omitted).  Returns (rows, right-hand sides), one row per identity and
    monomial; the unknowns keep the order of columns.
    """
    rows, values = [], []
    for e in range(len(columns[0])):
        target = rhs[e] if rhs else MPoly.zero(columns[0][e].variables)
        for expo in sorted({x for col in columns for x in col[e].terms} | set(target.terms)):
            rows.append([col[e].coefficient(expo) for col in columns])
            values.append(target.coefficient(expo))
    return rows, values


def twisted_cubic():
    """Components of v3 as polynomials in (t0, t1)."""
    t0, t1 = ring(*T_VARS)
    return (t0 ** 3, t0 ** 2 * t1, t0 * t1 ** 2, t1 ** 3)


def v3_point(t):
    t = Fraction(t)
    return (Fraction(1), t, t * t, t ** 3)


def quadrics_through_twisted_cubic():
    """(Q0, Q1, Q2) as quadratic forms in (x0, x1, x2, x3)."""
    xs = ring(*X_VARS)
    return tuple(pairing(xs, q, xs) for q in NET)


def net_member(lam):
    """lambda . Q = sum_k lam_k NET[k], a 4x4 matrix over lam's ring."""
    return [[sum(lam[k] * NET[k][i][j] for k in range(3)) for j in range(4)]
            for i in range(4)]


def net_determinant_identity():
    """Exact: the net's determinant is the Veronese conic squared, over 16."""
    ls = ring(*L_VARS)
    l0, l1, l2 = ls
    if determinant(net_member(ls)) != Fraction(1, 16) * (l0 * l2 - l1 ** 2) ** 2:
        raise StructureError(f"the net fails {NET_DETERMINANT}")
    return True


def gamma_tilde(t):
    """The cone with vertex v3(t), in net coordinates: (1, t, t^2) affinely."""
    return v3_point(t)[:3]


def cone_vertex_check():
    """The rank-3 members of the net have their vertex on the cubic."""
    for t in SAMPLE_PARAMS:
        kernel = nullspace(net_member(gamma_tilde(t)))
        if len(kernel) != 1:
            raise StructureError(f"cone at t={t} does not have a 1-dim vertex")
        v = v3_point(t)
        if rank([kernel[0], list(v)]) != 1:
            raise StructureError(f"cone vertex at t={t} is off the cubic")
    return True


# -- conormal data -----------------------------------------------------------

def _section_polys(section):
    """The components sum_k S[c][k] m_k of a frame section, over Q[t0, t1]."""
    t0, t1 = ring(*T_VARS)
    monos = (t0 * t0, t0 * t1, t1 * t1)
    return [sum(s * m for s, m in zip(row, monos)) for row in section]


@lru_cache(maxsize=None)
def conormal_frame():
    """Two sections framing the twisted conormal bundle, exact.

    Sections are 4x3 rational matrices: component i is the quadratic
    sum_k S[i][k] m_k over m = (t0^2, t0 t1, t1^2); they annihilate both
    partial derivative vectors of v3 and stay independent for every t.
    """
    t0, t1 = ring(*T_VARS)
    d0, d1 = ([f.partial(v) for f in twisted_cubic()] for v in T_VARS)
    # the unknown S[c][k] is column 3c + k: it multiplies m_k d[c] in both
    # sum_c E_c d0[c] = 0 and sum_c E_c d1[c] = 0
    rows, _ = coefficient_rows([(m * d0[c], m * d1[c]) for c in range(4)
                                for m in (t0 * t0, t0 * t1, t1 * t1)])
    basis = nullspace(rows)
    if len(basis) != 2:
        # quadratic-component conormal fields are H^0 of a trivial rank-2
        # bundle; any other dimension contradicts the splitting lemma
        raise StructureError(f"conormal solution space has dimension {len(basis)}")
    sections = [tuple(tuple(v[3 * c + k] for k in range(3)) for c in range(4))
                for v in basis]
    if not _frame_everywhere_independent(sections[0], sections[1]):
        raise StructureError("conormal basis degenerates at some parameter")
    return sections[0], sections[1]


def _frame_everywhere_independent(e1, e2):
    p1, p2 = _section_polys(e1), _section_polys(e2)
    # the 2x2 minors as binary quartics, ascending in t1 at t0 = 1
    minors = [xp.trim([(p1[a] * p2[b] - p1[b] * p2[a]).coefficient((4 - k, k))
                       for k in range(5)])
              for a in range(4) for b in range(a + 1, 4)]
    if not any(minors):
        return False
    if xp.degree(reduce(xp.gcd, minors)) > 0:
        return False
    # shared root at t0 = 0 means every minor misses the t1^4 coefficient
    if all(len(m) < 5 or m[4] == 0 for m in minors):
        return False
    return True


@lru_cache(maxsize=None)
def conormal_sections():
    """(a_i, b_i) linear forms with M_i v3 = a_i E1 + b_i E2, per net quadric.

    Linear forms are coefficient pairs against (t0, t1).
    """
    t0, t1 = ring(*T_VARS)
    # unknowns (a0, a1, b0, b1) multiply t0 E1, t1 E1, t0 E2, t1 E2
    columns = [[t * p[c] for c in range(4)]
               for p in map(_section_polys, conormal_frame()) for t in (t0, t1)]
    cubic = twisted_cubic()
    out = []
    for q in NET:
        g = [sum(q[c][d] * cubic[d] for d in range(4)) for c in range(4)]
        sol = solve(*coefficient_rows(columns, g))
        if sol is None:
            raise StructureError("conormal section is not linear in the frame")
        out.append(((sol[0], sol[1]), (sol[2], sol[3])))
    return tuple(out)


def _conic_matrix(f):
    """F as a symmetric 3x3 Fraction matrix, rejecting the zero matrix."""
    m = _symmetric_matrix(f, 3)
    if all(e == 0 for row in m for e in row):
        raise ValueError("degenerate F: the zero matrix")
    return m


def _pinch_form(f, variables):
    """4 A B - C^2 over Q[variables] (which include t0, t1), where A = a.Fa,
    B = b.Fb and C = a.Fb + b.Fa = 2 a.Fb pair the conormal sections a, b
    with the symmetric 3x3 matrix F, of rationals or polynomials."""
    t0, t1 = (MPoly.variable(v, variables) for v in T_VARS)
    a, b = ([s[k][0] * t0 + s[k][1] * t1 for s in conormal_sections()] for k in (0, 1))
    return 4 * pairing(a, f, a) * pairing(b, f, b) - (2 * pairing(a, f, b)) ** 2


def pinch_discriminant(f):
    """Delta(F) = 4 (a.Fa)(b.Fb) - (a.Fb + b.Fa)^2 as a binary quartic.

    F is a symmetric 3x3 matrix over the net basis, both orders counted
    (F_ij Q_i Q_j summed over all i, j).  Zero iff the parameter is a
    pinch point of the quartic surface sum F_ij Q_i Q_j.
    """
    return _pinch_form(_conic_matrix(f), T_VARS)


def pinch_roots_are_simple(f):
    """Exact: the binary quartic Delta(F) has four simple projective roots.

    Dehomogenized at t0 = 1, the quartic must keep degree >= 3 (at most a
    simple root at infinity) and be squarefree.
    """
    delta = pinch_discriminant(f)
    if delta.is_zero():
        return False
    d = xp.trim([delta.coefficient((4 - k, k)) for k in range(5)])
    if xp.degree(d) < 3:
        return False  # root at infinity of multiplicity >= 2
    return xp.degree(xp.gcd(d, xp.derivative(d))) == 0


def dual_meets_veronese_transversally(f):
    """Exact: the dual conic adj(F) meets the Veronese conic in four
    distinct points, i.e. det(adj F + t V) is a squarefree cubic in t.

    Delta(F) is proportional to gamma-tilde(t)^T adj(F) gamma-tilde(t)
    (see tangency_matches_pinch_symbolically), so this holds exactly when
    pinch_roots_are_simple(F) does.
    """
    adj = adjugate(_conic_matrix(f))
    (t,) = ring("t")
    cubic = determinant([[adj[i][j] + VERONESE[i][j] * t for j in range(3)]
                         for i in range(3)]).univariate_coeffs("t")
    return xp.degree(xp.gcd(cubic, xp.derivative(cubic))) == 0


@lru_cache(maxsize=None)
def tangency_matches_pinch_symbolically():
    """Exact identity: restriction discriminant = const * t1^2 * Delta(F).

    Both sides live in Q[t0, t1, l00..l22] with a generic symmetric F;
    returns the nonzero constant.
    """
    lvars = ("l00", "l01", "l02", "l11", "l12", "l22")
    big = T_VARS + lvars
    gens = dict(zip(big, ring(*big)))
    lam = [[gens[f"l{min(i, j)}{max(i, j)}"] for j in range(3)] for i in range(3)]
    delta = _pinch_form(lam, big)

    # restriction to the dual line of (t0^2, t0 t1, t1^2), basis valid off t1=0
    zero = MPoly.zero(big)
    k1 = (gens["t1"] ** 2, zero, -(gens["t0"] ** 2))
    k2 = (zero, gens["t1"], -gens["t0"])
    tang = pairing(k1, lam, k2) ** 2 - pairing(k1, lam, k1) * pairing(k2, lam, k2)
    target = gens["t1"] ** 2 * delta
    if tang.is_zero() or target.is_zero():
        raise StructureError("degenerate tangency comparison")
    lt_t, lc_t = tang.leading_term()
    ratio = lc_t / target.coefficient(lt_t) if target.coefficient(lt_t) else None
    if ratio is None or tang != target * ratio:
        raise StructureError("tangency discriminant is not t1^2 * Delta up to scale")
    return ratio


# -- P in the net --------------------------------------------------------------

@lru_cache(maxsize=None)
def p_in_x_coordinates():
    """P(u, v, alpha, beta) moved to the cubic's coordinates.

    The diagonal identification alpha = x0, v = 3 x1, u = 12 x2,
    beta = 64 x3 matches the cuspidal-curve parametrizations
    (1, 64 s^3, 12 s^2, 3 s) and (1, s, s^2, s^3); it is verified here.
    """
    _, p = discriminant_norm()
    xs = ring(*X_VARS)
    p_x = p.compose({"u": 12 * xs[2], "v": 3 * xs[1],
                     "alpha": xs[0], "beta": 64 * xs[3]}, X_VARS)
    (s,) = ring("s")
    one = MPoly.constant(1, ("s",))
    gamma = {"x0": one, "x1": s, "x2": s * s, "x3": s ** 3}
    target = {"alpha": one, "beta": 64 * s ** 3, "u": 12 * s * s, "v": 3 * s}
    for x_name, uv_name, scale in (("x0", "alpha", 1), ("x1", "v", 3),
                                   ("x2", "u", 12), ("x3", "beta", 64)):
        if scale * gamma[x_name] != target[uv_name]:
            raise StructureError("coordinate identification failed")
    return p_x


@lru_cache(maxsize=None)
def express_p_in_quadrics():
    """Solve P = sum c_ij Q_i Q_j exactly; returns the symmetric 3x3 matrix.

    The solution is 432 (Q1^2 - 4 Q0 Q2); its conic is proportional to the
    dual conic of gamma-tilde, so Delta vanishes identically on it.
    """
    p_x = p_in_x_coordinates()
    qs = quadrics_through_twisted_cubic()
    keys = [(i, j) for i in range(3) for j in range(i, 3)]
    sol = solve(*coefficient_rows([(qs[i] * qs[j],) for i, j in keys], (p_x,)))
    if sol is None:
        raise StructureError("P is not a quadratic expression in the net")
    m = [[Fraction(0)] * 3 for _ in range(3)]
    for c, (i, j) in zip(sol, keys):
        m[i][j] = m[j][i] = c if i == j else c / 2
    m = tuple(tuple(r) for r in m)
    if pairing(qs, m, qs) != p_x:
        raise StructureError("net expression for P failed verification")
    return m


def adjugate(g):
    """Adjugate of a 3x3 matrix, as a tuple of tuples."""
    adj = [[Fraction(0)] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            rows = [r for r in range(3) if r != i]
            cols = [c for c in range(3) if c != j]
            minor = (g[rows[0]][cols[0]] * g[rows[1]][cols[1]]
                     - g[rows[0]][cols[1]] * g[rows[1]][cols[0]])
            adj[j][i] = minor * (-1) ** (i + j)
    return tuple(tuple(r) for r in adj)


# -- the developable map in cover coordinates -----------------------------------

def developable_map_checks():
    """G(s, w) = (16 s w^2, w^2 - 4 s w, s - w) lands on P; its rank-1 locus
    is w + 2s = 0 and maps onto (64 s^3, 12 s^2, 3 s)."""
    sw = ("s", "w")
    s, w = ring(*sw)
    beta = 16 * s * w * w
    u = w * w - 4 * s * w
    v = s - w
    _, p = discriminant_norm()
    pulled = p.compose({"u": u, "v": v, "alpha": Fraction(1), "beta": beta}, sw)
    if not pulled.is_zero():
        raise StructureError("G does not land on the quartic P")
    dg = [[16 * w * w, 32 * s * w],
          [-4 * w, 2 * w - 4 * s],
          [MPoly.constant(1, sw), MPoly.constant(-1, sw)]]
    minors = [dg[i][0] * dg[j][1] - dg[j][0] * dg[i][1]
              for i in range(3) for j in range(i + 1, 3)]
    (s1,) = ring("s")
    on_line = {"s": s1, "w": -2 * s1}
    for mn in minors:
        if not mn.compose(on_line, ("s",)).is_zero():
            raise StructureError("a DG minor survives on w + 2s = 0")
    off = {"s": Fraction(1), "w": Fraction(1)}
    if all(mn.evaluate(off) == 0 for mn in minors):
        raise StructureError("DG minors all vanish off the line")
    image = {name: f.compose(on_line, ("s",))
             for name, f in (("beta", beta), ("u", u), ("v", v))}
    if image["beta"] != 64 * s1 ** 3 or image["u"] != 12 * s1 * s1 or image["v"] != 3 * s1:
        raise StructureError("rank-drop image is not (64 s^3, 12 s^2, 3 s)")
    return True


def gradient_vanishing_on_cuspidal_curve():
    """All four partials of P vanish identically along Gamma."""
    _, p = discriminant_norm()
    (s,) = ring("s")
    gamma = {"u": 12 * s * s, "v": 3 * s, "alpha": MPoly.constant(1, ("s",)),
             "beta": 64 * s ** 3}
    for name in ("u", "v", "alpha", "beta"):
        if not p.partial(name).compose(gamma, ("s",)).is_zero():
            raise StructureError(f"dP/d{name} does not vanish on Gamma")
    if not p.compose(gamma, ("s",)).is_zero():
        raise StructureError("Gamma is not on P")
    return True


def tangent_surface_identity():
    """P vanishes identically on the tangent lines of the cubic (exact)."""
    sh = ("s", "h")
    point = dict(zip(X_VARS, tangent_point(*ring(*sh))))
    if not p_in_x_coordinates().compose(point, sh).is_zero():
        raise StructureError("P is not the tangent surface of the cubic")
    return True


def tangent_point(s, h):
    """Point v3(s) + h v3'(s) of the developable, over the ring of s and h."""
    return (Fraction(1), s + h, s * s + 2 * s * h, s ** 3 + 3 * s * s * h)


def gauss_rank_at(surface_poly, point):
    """Rank of the projective second fundamental form at a smooth point.

    The Hessian restricted to the gradient's kernel descends modulo the
    Euler direction; its rank is the rank of the Gauss map differential.
    Errors out on singular points.
    """
    point = [Fraction(c) for c in point]
    values = {name: c for name, c in zip(surface_poly.variables, point)}
    grad = [surface_poly.partial(v).evaluate(values) for v in surface_poly.variables]
    if all(g == 0 for g in grad):
        raise StructureError("point is singular (gradient vanishes)")
    if surface_poly.evaluate(values) != 0:
        raise StructureError("point is not on the surface")
    hess = [[surface_poly.partial(v1).partial(v2).evaluate(values)
             for v2 in surface_poly.variables] for v1 in surface_poly.variables]
    kernel = nullspace([grad])
    gram = [[pairing(w1, hess, w2) for w2 in kernel] for w1 in kernel]
    return rank(gram)


def veronese_bidouble_model_check():
    """The squared-coordinates parametrization satisfies all rank-1 minors."""
    ys = ("y1", "y2", "y3")
    y1, y2, y3 = ring(*ys)
    entries = {
        (0, 0): y1 * y1, (1, 1): y2 * y2, (2, 2): y3 * y3,
        (0, 1): y1 * y2, (1, 0): y1 * y2,
        (0, 2): y1 * y3, (2, 0): y1 * y3,
        (1, 2): y2 * y3, (2, 1): y2 * y3,
    }
    for i1 in range(3):
        for i2 in range(i1 + 1, 3):
            for j1 in range(3):
                for j2 in range(j1 + 1, 3):
                    minor = (entries[(i1, j1)] * entries[(i2, j2)]
                             - entries[(i1, j2)] * entries[(i2, j1)])
                    if not minor.is_zero():
                        raise StructureError("a Veronese minor fails to vanish")
    for sample in ((1, 2, 3), (1, 1, 1), (2, -1, 3), (5, 1, -2), (1, -4, 2)):
        vals = {"y1": Fraction(sample[0]), "y2": Fraction(sample[1]),
                "y3": Fraction(sample[2])}
        m = [[entries[(i, j)].evaluate(vals) for j in range(3)] for i in range(3)]
        if rank(m) != 1:
            raise StructureError(f"Veronese matrix rank not 1 at {sample}")
    return True


def unique_conic_through(params):
    """Conics through gamma-tilde(t) for the given t's: (dimension, basis).

    Coefficient order (c00, c01, c02, c11, c12, c22) against l_i l_j,
    each unordered pair once.
    """
    params = [Fraction(t) for t in params]
    if len(set(params)) != len(params):
        raise ValueError("parameters must be distinct")
    rows = []
    for t in params:
        lam = gamma_tilde(t)
        row = []
        for i in range(3):
            for j in range(i, 3):
                row.append(lam[i] * lam[j])
        rows.append(row)
    kernel = nullspace(rows)
    return len(kernel), kernel


def unique_quartic_check():
    """Five distinct cone points force the conic: dimension 1, spanned by
    the Veronese conic l0 l2 - l1^2."""
    dim, kernel = unique_conic_through(SAMPLE_PARAMS)
    if dim != 1:
        raise StructureError(f"conics through the five points form a {dim}-dim family")
    veronese = [Fraction(0), Fraction(0), Fraction(1), Fraction(-1), Fraction(0), Fraction(0)]
    if rank([kernel[0], veronese]) != 1:
        raise StructureError("the unique conic is not gamma-tilde")
    return True


def random_symmetric_matrix(rng):
    m = [[Fraction(0)] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            m[i][j] = m[j][i] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
    return tuple(tuple(r) for r in m)


def conormal_zero_property():
    """The cone at t* induces a conormal section vanishing simply at t*.

    Components are linear forms, so once the section vanishes at t* and is
    not identically zero, t* is its only zero and it is simple (each
    nonzero component is a scalar multiple of the linear form cutting t*).
    """
    sections = conormal_sections()
    for t in SAMPLE_PARAMS:
        lam = gamma_tilde(t)
        a = [sum(lam[i] * sections[i][0][k] for i in range(3)) for k in range(2)]
        b = [sum(lam[i] * sections[i][1][k] for i in range(3)) for k in range(2)]
        t = Fraction(t)
        if a == [0, 0] and b == [0, 0]:
            raise StructureError(f"cone section vanishes identically at t={t}")
        for name, lin in (("a", a), ("b", b)):
            if lin[0] * 1 + lin[1] * t != 0:
                raise StructureError(f"component {name} misses its zero at t={t}")
    return True
