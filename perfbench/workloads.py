"""Seeded inputs for the three benchmark workloads.

Every generator is a pure function of the seed.  The program under test
only ever sees the generated inputs; nothing here imports ``cuspidal``.

* ``paper``: the README session, one call per documented subcommand.
* ``shear-ladder``: braid monodromy factorizations of the 3-cuspidal
  quartic over a stratified (shear, basepoint interval, circle steps) grid.
* ``algebra``: exact critical values, coset enumeration, hom counts and
  Tietze simplification, with no continuation.
"""

from __future__ import annotations

import random
from fractions import Fraction

import reference

CIRCLE_STEPS = (32, 64, 128, 256)

# Complement group of the quartic: four generators a1, a2, b2, b1 and the
# relators read off the braid monodromy factorization.
AFFINE_RELATORS = ((1, 2, 1, -2, -1, -2), (4, 3, 4, -3, -4, -3),
                   (2, 3, 2, -3, -2, -3), (3, 4, -3, -1))
PROJECTIVE_RELATOR = (1, 2, 3, 4)

UNSHEARED_CUSP = Fraction(-9, 8)


def _rng(seed, workload):
    return random.Random(f"{workload}:{seed}")


def _frac(q):
    return f"{q.numerator}/{q.denominator}"


# -- paper ---------------------------------------------------------------------

def paper_inputs(seed):
    """The README session; the seed feeds the two seeded subcommands."""
    session = [
        ("discriminant", ["discriminant"]),
        ("cusps", ["cusps"]),
        ("curve-checks", ["curve-checks"]),
        ("fiber", ["fiber", "--x=-0.5"]),
        ("critical-values", ["critical-values", "--shear", "1/100"]),
        ("monodromy", ["monodromy", "--shear", "1/100"]),
        ("monodromy-svg", ["monodromy", "--out", "svg"]),
        ("vankampen", ["vankampen", "--projective"]),
        ("enumerate-homs", ["enumerate-homs", "--target", "s4"]),
        ("coset-order", ["coset-order", "--presentation", "projective"]),
        ("surface-checks", ["surface-checks", "--seed", str(seed)]),
        ("reproduce-all", ["reproduce-all", "--seed", str(seed)]),
    ]
    return [{"label": label, "argv": argv} for label, argv in session]


# -- shear-ladder --------------------------------------------------------------

def _log_shear(exponent):
    """1/d with d the nearest integer to 10**exponent."""
    return Fraction(1, round(10 ** exponent))


def _inside(rng, lo, hi, a=0.2, b=0.8):
    """A point in the middle part [a, b] of the interval (lo, hi)."""
    return lo + rng.uniform(a, b) * (hi - lo)


def shear_ladder_inputs(seed):
    """Stratified grid of 25 factorization inputs.

    Shear levels: 1/10 and five levels, one from the middle fifth of each of
    five equal bins of log10(1/shear) in (1, 3).  At each level one
    basepoint from each of (c1, c2) and (c2, 0), where c0 < c1 < c2 < 0 are
    the critical values, and one from (0, 1]; the smallest level, where
    factorizations cost most, takes three from (0, 1].  The split cusp
    interval (-9/8, c1) takes two basepoints at 1/10 and one at the next
    level.  Basepoints stay at least a fifth of an interval width (three
    tenths in the split interval) from its ends.

    Three inputs hit known defects: shear 1/1000 (continuation gives up
    after 40 halvings), a basepoint left of -9/8 (the unsheared fiber there
    is a complex quadruple) and shear 1/10 with 64 circle steps at the
    midpoint of (c2, 0), where the loop around the origin cusp comes back
    with a wrong braid.  The same defects also strike other inputs of the
    grid now and then.  Circle steps are spread evenly over the other
    inputs.
    """
    critical_values = reference.quartic_critical_values
    rng = _rng(seed, "shear-ladder")
    levels = [Fraction(1, 10)] + [_log_shear(1 + 0.4 * (k + rng.uniform(0.4, 0.6)))
                                  for k in range(5)]
    cells = []
    for index, shear in enumerate(levels):
        c0, c1, c2, c3 = (v.real for v, _ in critical_values(shear))
        cells.append((shear, _inside(rng, c1, c2), "between"))
        if index:
            cells.append((shear, _inside(rng, c2, c3), "between"))
        else:
            wrong_braid = (shear, (c2 + c3) / 2, "wrong-braid")
        for _ in range(3 if index == len(levels) - 1 else 1):
            cells.append((shear, rng.uniform(0.05, 1.0), "right"))
        for _ in range((2, 1, 0, 0, 0, 0)[index]):
            cells.append((shear, _inside(rng, float(UNSHEARED_CUSP), c1, 0.3, 0.7),
                          "split"))
    small = Fraction(1, 1000)
    _, _, c2, c3 = (v.real for v, _ in critical_values(small))
    cells.append((small, _inside(rng, c2, c3), "smallest-shear"))
    left_shear = levels[rng.randrange(2)]
    c0 = critical_values(left_shear)[0][0].real
    cells.append((left_shear, rng.uniform(c0 - 0.3, float(UNSHEARED_CUSP) - 0.002),
                  "left"))
    steps = [CIRCLE_STEPS[k % len(CIRCLE_STEPS)] for k in range(len(cells))]
    rng.shuffle(steps)
    ops = [(shear, bp, cs, stratum) for (shear, bp, stratum), cs in zip(cells, steps)]
    ops.append(wrong_braid[:2] + (64,) + wrong_braid[2:])
    rng.shuffle(ops)
    return [{"kind": "factorize", "shear": _frac(shear), "basepoint": bp,
             "circle_steps": cs, "stratum": stratum} for shear, bp, cs, stratum in ops]


# -- algebra -------------------------------------------------------------------

def _random_curve(rng, degree, bound=2):
    """Monic in y of the given degree, other coefficients in [-bound, bound]."""
    terms = {(0, degree): 1}
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            if j == degree:
                continue
            c = rng.randint(-bound, bound)
            if c:
                terms[(i, j)] = c
    return terms


def _stratified_curve(rng, degree, real_count):
    """First random curve whose discriminant has full degree, no repeated
    factor and exactly ``real_count`` real roots; the cost of exact
    critical values grows with that count."""
    full = degree * (degree - 1)
    for _ in range(500):
        terms = _random_curve(rng, degree)
        disc = reference.discriminant_profile(terms)
        if disc == (full, 1, real_count):
            return terms
    raise RuntimeError(f"no degree-{degree} curve with {real_count} real "
                       "critical values in 500 draws")


def _relabel(rng, relators):
    """Same group, different input: rotate, possibly invert and reorder the
    relators.  Generators keep their order, which sets how early the hom
    search can prune, so the cost stays comparable across seeds."""
    out = []
    for word in relators:
        word = list(word)
        k = rng.randrange(len(word))
        word = word[k:] + word[:k]
        if rng.random() < 0.5:
            word = [-g for g in reversed(word)]
        out.append(word)
    rng.shuffle(out)
    return out


def _presentation(relators):
    return {"generators": ["a1", "a2", "b2", "b1"], "relators": relators}


def _terms_json(terms):
    return [[i, j, str(c)] for (i, j), c in sorted(terms.items())]


def algebra_inputs(seed):
    """One pass: critical values of the quartic at fifteen shears and of
    thirteen random curves (four quartics, Sylvester size 7, and nine
    quintics, size 9), the projective and affine coset enumerations, hom
    counts into S4 and Tietze simplification.

    The mix is chosen so that the median operation falls among the
    quartic's critical values and the 80th percentile among the quintics,
    each a cluster of similar costs, not at the edge between two clusters.
    """
    rng = _rng(seed, "algebra")
    ops = []
    for k in range(15):
        e = 1 + 2 * (k + rng.uniform(0.2, 0.8)) / 15
        ops.append({"kind": "critical_values", "curve": "quartic",
                    "shear": _frac(_log_shear(e))})
    for degree, real_counts in ((4, (2, 2, 4, 4)), (5, (2, 2, 2, 2, 2, 4, 4, 4, 4))):
        for real_count in real_counts:
            terms = _stratified_curve(rng, degree, real_count)
            ops.append({"kind": "critical_values", "curve": _terms_json(terms),
                        "shear": "0/1"})
    affine = _presentation(_relabel(rng, AFFINE_RELATORS))
    projective = _presentation(_relabel(rng, AFFINE_RELATORS + (PROJECTIVE_RELATOR,)))
    ops.append({"kind": "todd_coxeter", "presentation": projective,
                "max_cosets": 10 ** 4, "expect": 12})
    for limit in (10 ** 4 - rng.randrange(500), 10 ** 5 - rng.randrange(5000), 10 ** 6):
        ops.append({"kind": "todd_coxeter", "presentation": affine,
                    "max_cosets": limit, "expect": "overflow"})
    for p in (affine, projective):
        ops.append({"kind": "count_homs", "presentation": p, "n": 4})
        ops.append({"kind": "enumerate_homs", "presentation": p, "n": 4})
        ops.append({"kind": "tietze", "presentation": p})
    rng.shuffle(ops)
    return ops


def generate(workload, seed):
    if workload == "paper":
        return paper_inputs(seed)
    if workload == "shear-ladder":
        return shear_ladder_inputs(seed)
    if workload == "algebra":
        return algebra_inputs(seed)
    raise ValueError(f"unknown workload {workload!r}")

