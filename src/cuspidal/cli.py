"""Command-line front end: every pipeline as a subcommand with JSON output.

Exit codes: 0 when every check in the report passes, 1 when one fails,
2 on usage errors.  JSON is deterministic for a fixed argv and seed:
rationals are printed as "p/q" strings, floats with 15 significant digits.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from fractions import Fraction

from . import bidouble, braids, checks, groups, monodromy, quartic
from .continuation import ContinuationError
from .roots import RootFindingError


def _round15(x):
    x = float(x)  # the +0.0 kills -0.0; strict JSON has no inf, so it prints as "inf"
    return float(format(x, ".15g")) + 0.0 if math.isfinite(x) else str(x)


def _jsonify(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, complex):
        return [_round15(value.real), _round15(value.imag)]
    if isinstance(value, float):
        return _round15(value)
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    return str(value)


def _fraction_arg(text):
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _finite(kind):
    """Argument type: kind(text) (float or complex), rejecting nan and inf."""
    def parse(text):
        try:
            value = kind(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
        if not cmath.isfinite(value):
            raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
        return value
    return parse


def _positive_int(text):
    value = int(text)  # argparse reports a ValueError as a usage error too
    if value < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return value


def _report(command, inputs, results, check_list):
    return {
        "command": command,
        "inputs": _jsonify(inputs),
        "results": _jsonify(results),
        "checks": [{"name": n, "pass": bool(p), "witness": _jsonify(w)}
                   for n, p, w in check_list],
    }


def _emit(report, out):
    if out == "json":
        print(json.dumps(report, indent=2))
    else:
        print(f"== {report['command']}")
        for key, value in report["results"].items():
            print(f"{key}: {json.dumps(value)}")
        for check in report["checks"]:
            status = "PASS" if check["pass"] else "FAIL"
            print(f"[{status}] {check['name']}")
    return 0 if all(c["pass"] for c in report["checks"]) else 1


# -- subcommand handlers -------------------------------------------------------

def cmd_discriminant(args):
    passed, witness = checks.criterion_discriminant_identity()
    delta, p = bidouble.discriminant_norm()
    results = {
        "P": p.canonical_str(),
        "delta_relation": "Delta = -256 * P(u, v, a^2, b^2)",
        "different": bidouble.different().canonical_str(),
    }
    return _report("discriminant", {}, results,
                   [("discriminant_identity", passed, witness)])


def cmd_cusps(args):
    passed, witness = checks.criterion_cusp_locations()
    cusps = bidouble.find_cusps()
    results = {"cusps": [
        {"zeta_power": c.zeta_power,
         "u": {"rational_part": c.u.x, "zeta_part": c.u.y},
         "v": {"rational_part": c.v.x, "zeta_part": c.v.y},
         "u_complex": complex(c.as_complex()[0]),
         "v_complex": complex(c.as_complex()[1])}
        for c in cusps]}
    return _report("cusps", {}, results, [("cusp_locations", passed, witness)])


def cmd_curve_checks(args):
    c4, w4 = checks.criterion_curve_duality()
    c6, w6 = checks.criterion_theta_identities()
    flexes, cusps = quartic.flexes_and_cusps()
    results = {
        "quartic": quartic.cuspidal_quartic().equation.canonical_str(),
        "flex_parameters": [p if math.isfinite(p) else "infinity" for p in flexes],
        "cusps_of_C": [list(c) for c in cusps],
        "dual_degree": quartic.implicitize(quartic.dual_of_dual()).degree,
    }
    return _report("curve-checks", {}, results,
                   [("curve_duality", c4, w4), ("theta_identities", c6, w6)])


def cmd_fiber(args):
    curve = quartic.cuspidal_quartic()
    inputs = {"x": args.x}
    try:
        roots = quartic.fiber_solve(curve, args.x)
    except (OverflowError, quartic.CurveError) as exc:
        return _report("fiber", inputs, {"x": args.x},
                       [("root_count", False, checks.exception_witness(exc))])
    results = {"x": args.x, "roots": [
        {"value": r.value, "radius": r.radius, "multiplicity": r.multiplicity}
        for r in roots]}
    check_list = []
    total = sum(r.multiplicity for r in roots)
    count = {"total_multiplicity": total}
    count_ok = total == 4
    if args.x.imag == 0:
        vals = [r.value for r in roots for _ in range(r.multiplicity)]
        tol = 1e-9 * max(1.0, max(abs(v) for v in vals))  # relative to the root size
        conj = all(min(abs(v.conjugate() - w) for w in vals) < tol for v in vals)
        neg = all(min(abs(-v - w) for w in vals) < tol for v in vals)
        check_list.append(("fiber_symmetry", conj and neg,
                           {"conjugation": conj, "negation": neg}))
        try:
            pattern = quartic.classify_real_fiber(curve, args.x.real).pattern.value
        except quartic.CurveError:
            pattern = "critical"
        results["pattern"] = pattern
    if any(r.overlaps(s) for i, r in enumerate(roots) for s in roots[i + 1:]):
        count_ok = False
        count.update(overlapping_disks=True)
    check_list.append(("root_count", count_ok, count))
    return _report("fiber", inputs, results, check_list)


def cmd_critical_values(args):
    curve = quartic.cuspidal_quartic()
    vals = quartic.critical_values(curve, args.shear)
    total = sum(m for _, m in vals)
    results = {"shear": args.shear,
               "critical_values": [{"value": complex(v), "order": m} for v, m in vals]}
    return _report("critical-values", {"shear": args.shear}, results,
                   [("total_order_ten", total == 10, {"total": total})])


def cmd_monodromy(args):
    basepoint = (monodromy.default_basepoint() if args.basepoint is None
                 else args.basepoint)
    inputs = {"shear": args.shear, "basepoint": basepoint}
    try:
        result = monodromy.monodromy_factorization(
            basepoint=basepoint, shear=args.shear, keep_paths=args.out == "svg")
    except (ContinuationError, RootFindingError, monodromy.SweepError) as exc:
        return _report("monodromy", inputs, {},
                       [("braid_monodromy", False, checks.exception_witness(exc))])
    if args.out == "svg":
        merged = [p for family in result.strand_paths for p in family]
        print(monodromy.strand_paths_svg(merged))
        return 0
    passed, witness = checks.criterion_braid_monodromy(result)
    return _report("monodromy", inputs, result.to_json(),
                   [("braid_monodromy", passed, witness)])


def cmd_vankampen(args):
    if args.source == "fixture":
        factors = checks.fixture_monodromy_factors()
    else:
        factors = checks.computed_factorization().factors
    p = groups.van_kampen(factors, 4, checks.GENERATOR_NAMES)
    if args.projective:
        p = groups.add_projective_relation(p)
    ab = groups.abelianization(p)
    results = {"presentation": p.to_json(), "abelianization": ab}
    check_list = []
    if args.projective:
        order = groups.todd_coxeter(p, max_cosets=checks.MAX_COSETS)
        results["order"] = order
        check_list.append(("projective_fingerprint", ab == [4] and order == 12,
                           {"abelianization": ab, "order": order}))
        simplified, exhausted = groups.tietze_simplify(p)
        results["simplified"] = simplified.to_json()
        check_list.append(("tietze_two_generators",
                           simplified.n_generators == 2 and not exhausted,
                           {"generators": simplified.n_generators}))
    else:
        check_list.append(("affine_abelianization", ab == [0], {"abelianization": ab}))
    return _report("vankampen", {"source": args.source, "projective": args.projective},
                   results, check_list)


def cmd_enumerate_homs(args):
    n = {"s3": 3, "s4": 4}[args.target]
    p = checks.affine_complement_presentation()
    classes, tuple_count = groups.enumerate_homs_to_sym(p, n)
    reps = [[braids.cycle_notation(g) for g in rep] for rep in classes.values()]
    results = {"class_count": len(classes), "satisfying_tuples": tuple_count,
               "representatives": reps}
    if args.target == "s4":
        passed, witness = checks.criterion_s4_uniqueness()
        check = ("s4_uniqueness", passed, witness)
    else:  # the classes are the conjugation orbits of the tuples
        orbits = sum(math.factorial(n) // groups.centralizer_order(rep, n)
                     for rep in classes.values())
        check = ("orbit_count", orbits == tuple_count,
                 {"satisfying_tuples": tuple_count, "orbit_sizes_sum": orbits})
    return _report("enumerate-homs", {"target": args.target}, results, [check])


def cmd_coset_order(args):
    p = checks.affine_complement_presentation()
    if args.presentation == "projective":
        p = groups.add_projective_relation(p)
    order = groups.todd_coxeter(p, max_cosets=args.max_cosets)
    ab = groups.abelianization(p)
    consistent = (order == groups.OVERFLOW) if 0 in ab else (
        order != groups.OVERFLOW and all(order % t == 0 for t in ab if t))
    results = {"presentation": args.presentation, "order": order,
               "abelianization": ab}
    return _report("coset-order",
                   {"presentation": args.presentation, "max_cosets": args.max_cosets},
                   results,
                   [("consistent_with_abelianization", consistent,
                     {"order": order, "abelianization": ab})])


def cmd_surface_checks(args):
    steps, ranks = checks.surface_steps(args.seed)
    check_list = [(r.name, r.passed, r.witness) for r in steps]
    results = {"gauss_ranks": ranks,
               "determinant_conic": "det(l.Q) = (1/16)(l0 l2 - l1^2)^2"}
    return _report("surface-checks", {"seed": args.seed}, results, check_list)


def cmd_reproduce_all(args):
    results = checks.run_all(seed=args.seed)
    check_list = [(r.name, r.passed, r.witness) for r in results]
    summary = {"criteria": len(results),
               "passed": sum(1 for r in results if r.passed)}
    return _report("reproduce-all", {"seed": args.seed}, summary, check_list)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cuspidal",
        description="Discriminant geometry and braid monodromy of the "
                    "3-cuspidal quartic and deformed degree-4 covers.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        p.add_argument("--out", choices=("json", "text", "svg"), default="json")
        p.add_argument("--seed", type=int, default=0)
        return p

    add("discriminant", cmd_discriminant, help="cover discriminant identities")
    add("cusps", cmd_cusps, help="cusps of the normalized discriminant curve")
    add("curve-checks", cmd_curve_checks, help="duality and Theta identities")

    p_fiber = add("fiber", cmd_fiber, help="fiber roots over a given x")
    p_fiber.add_argument("--x", type=_finite(complex), required=True)

    p_crit = add("critical-values", cmd_critical_values,
                 help="critical values of the sheared projection")
    p_crit.add_argument("--shear", type=_fraction_arg, default=Fraction(0))

    p_mono = add("monodromy", cmd_monodromy, help="braid monodromy factorization")
    p_mono.add_argument("--shear", type=_fraction_arg, default=monodromy.DEFAULT_SHEAR)
    p_mono.add_argument("--basepoint", type=_finite(float), default=None)

    p_vk = add("vankampen", cmd_vankampen, help="complement group presentation")
    p_vk.add_argument("--source", choices=("fixture", "computed"), default="fixture")
    p_vk.add_argument("--projective", action="store_true")

    p_homs = add("enumerate-homs", cmd_enumerate_homs,
                 help="homomorphisms to symmetric groups")
    p_homs.add_argument("--target", choices=("s3", "s4"), default="s4")

    p_coset = add("coset-order", cmd_coset_order, help="Todd-Coxeter group order")
    p_coset.add_argument("--presentation", choices=("affine", "projective"),
                         default="projective")
    p_coset.add_argument("--max-cosets", type=_positive_int, default=10 ** 5)

    add("surface-checks", cmd_surface_checks, help="twisted-cubic surface suite")
    add("reproduce-all", cmd_reproduce_all, help="run the full acceptance checklist")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    report_or_code = args.handler(args)
    if isinstance(report_or_code, int):
        return report_or_code
    return _emit(report_or_code, args.out)


if __name__ == "__main__":
    sys.exit(main())
