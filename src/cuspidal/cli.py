"""Command-line front end: every pipeline as a subcommand with JSON output.

Each subcommand is declared once, in `build_parser`, with its options and
the check that a breakdown fails.  A handler returns (results, checks) and
`main` alone builds the report: the options' values are its inputs, and an
exception the handler raises is a failed check whose witness is
`checks.exception_witness`.

Exit codes: 0 when every check in the report passes, 1 when one fails,
2 on usage errors.  JSON is deterministic for a fixed argv and seed:
rationals are printed as "p/q" strings, floats with 15 significant digits.

Start-up: importing this module binds every other layer of the package
lazily, and a layer's code runs on its first attribute access.  So each
subcommand loads only the layers it runs: `vankampen`, `enumerate-homs`
and `coset-order` load `groups`, `braids` and `linalg`; `monodromy` loads
the braid chain down to `roots` and `exactpoly`; `reproduce-all` loads
all of them (README, "CLI", lists each subcommand's layers).  Under
PYTHONDONTWRITEBYTECODE=1 each start compiles what it loads.  Importing a
layer directly, or `cuspidal` itself, stays eager.
"""

from __future__ import annotations

import argparse
import cmath
import importlib.util
import json
import math
import sys
from fractions import Fraction

from . import DEFAULT_SHEAR, default_basepoint

# Every layer, not only those this module names: whatever patches a layer's
# functions after importing this module finds them all in sys.modules.
_LAYERS = ("bidouble", "braids", "checks", "continuation", "exactpoly", "groups",
           "linalg", "monodromy", "mpoly", "quartic", "roots", "surface")


def _bind_lazily(names):
    """Put each layer not yet imported in sys.modules and on the package as
    a module whose code runs on its first attribute access."""
    package = sys.modules[__package__]
    for name in names:
        qualified = f"{__package__}.{name}"
        if qualified in sys.modules:
            continue
        spec = importlib.util.find_spec(qualified)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[qualified] = module
        setattr(package, name, module)
        spec.loader.exec_module(module)


_bind_lazily(_LAYERS)  # before the import below, which then binds the lazy modules

from . import bidouble, braids, checks, groups, monodromy, quartic, roots, surface


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


def _emit(report, out):
    if out == "svg" and "svg" in report["results"]:  # a breakdown has none: JSON
        print(report["results"]["svg"])
    elif out == "text":
        print(f"== {report['command']}")
        for key, value in report["results"].items():
            print(f"{key}: {json.dumps(value)}")
        for check in report["checks"]:
            if check["pass"]:
                print(f"[PASS] {check['name']}")
            else:
                print(f"[FAIL] {check['name']} {json.dumps(check['witness'])}")
    else:
        print(json.dumps(report, indent=2))
    return 0 if all(c["pass"] for c in report["checks"]) else 1


# -- subcommand handlers: each returns (results, [(name, passed, witness)]) ----

def cmd_discriminant(args):
    passed, witness = checks.criterion_discriminant_identity()
    delta, p = bidouble.discriminant_norm()
    results = {
        "P": p.canonical_str(),
        "delta_relation": "Delta = -256 * P(u, v, a^2, b^2)",
        "different": bidouble.different().canonical_str(),
    }
    return results, [("discriminant_identity", passed, witness)]


def cmd_cusps(args):
    cusps = bidouble.find_cusps()
    passed, witness = checks.criterion_cusp_locations(cusps)
    results = {"cusps": [
        {"zeta_power": c.zeta_power,
         "u": {"rational_part": c.u[0], "zeta_part": c.u[1]},
         "v": {"rational_part": c.v[0], "zeta_part": c.v[1]},
         "u_complex": complex(c.as_complex()[0]),
         "v_complex": complex(c.as_complex()[1])}
        for c in cusps]}
    return results, [("cusp_locations", passed, witness)]


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
    return results, [("curve_duality", c4, w4), ("theta_identities", c6, w6)]


def cmd_fiber(args):
    curve = quartic.cuspidal_quartic()
    found = pattern = None
    if args.x.imag == 0:
        try:  # the pattern's exact signs and the roots, from one solve
            fiber = quartic.classify_real_fiber(curve, args.x.real)
            found, pattern = fiber.roots, fiber.pattern.value
        except quartic.CurveError:  # x is a critical value
            pattern = "critical"
    if found is None:
        found = quartic.fiber_solve(curve, args.x)
    results = {"x": args.x, "roots": [
        {"value": r.value, "radius": r.radius, "multiplicity": r.multiplicity}
        for r in found]}
    check_list = []
    total = sum(r.multiplicity for r in found)
    count = {"total_multiplicity": total}
    count_ok = total == 4
    if pattern is not None:
        vals = [r.value for r in found for _ in range(r.multiplicity)]
        tol = 1e-9 * max(1.0, max(abs(v) for v in vals))  # relative to the root size
        conj = all(min(abs(v.conjugate() - w) for w in vals) < tol for v in vals)
        neg = all(min(abs(-v - w) for w in vals) < tol for v in vals)
        check_list.append(("fiber_symmetry", conj and neg,
                           {"conjugation": conj, "negation": neg}))
        results["pattern"] = pattern
    if any(not roots.disks_apart(r.value, r.radius, s.value, s.radius)
           for i, r in enumerate(found) for s in found[i + 1:]):
        count_ok = False
        count.update(overlapping_disks=True)
    check_list.append(("root_count", count_ok, count))
    return results, check_list


def cmd_critical_values(args):
    curve = quartic.cuspidal_quartic()
    vals = quartic.critical_values(curve, args.shear)
    total = sum(m for _, m in vals)
    results = {"shear": args.shear,
               "critical_values": [{"value": complex(v), "order": m} for v, m in vals]}
    return results, [("total_order_ten", total == 10, {"total": total})]


def cmd_monodromy(args):
    svg = args.out == "svg"
    result = monodromy.monodromy_factorization(
        basepoint=args.basepoint, shear=args.shear, keep_paths=svg)
    check = ("braid_monodromy", *checks.criterion_braid_monodromy(result))
    if svg:
        merged = [p for family in result.strand_paths for p in family]
        return {"svg": monodromy.strand_paths_svg(merged)}, [check]
    return result.to_json(), [check]


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
    return results, check_list


def cmd_enumerate_homs(args):
    n = {"s3": 3, "s4": 4}[args.target]
    p = checks.affine_complement_presentation()
    homs = groups.enumerate_homs_to_sym(p, n)
    classes, tuple_count = homs
    reps = [[braids.cycle_notation(g) for g in rep] for rep in classes.values()]
    results = {"class_count": len(classes), "satisfying_tuples": tuple_count,
               "representatives": reps}
    if args.target == "s4":
        check = ("s4_uniqueness", *checks.criterion_s4_uniqueness(homs))
    else:  # the classes are the conjugation orbits of the tuples
        orbits = sum(math.factorial(n) // groups.centralizer_order(rep, n)
                     for rep in classes.values())
        check = ("orbit_count", orbits == tuple_count,
                 {"satisfying_tuples": tuple_count, "orbit_sizes_sum": orbits})
    return results, [check]


def cmd_coset_order(args):
    p = checks.affine_complement_presentation()
    if args.presentation == "projective":
        p = groups.add_projective_relation(p)
    order = groups.todd_coxeter(p, max_cosets=args.max_cosets)
    ab = groups.abelianization(p)
    witness = {"order": order, "abelianization": ab}
    if 0 in ab:
        # todd_coxeter decided 'overflow' from the free rank without
        # enumerating; the witness is a map onto Z, checked on every relator
        images = groups.map_onto_z(p)
        consistent = (order == groups.OVERFLOW and images is not None
                      and math.gcd(*images) == 1
                      and not any(sum(a * b for a, b in zip(row, images))
                                  for row in groups.exponent_sums(p)))
        witness.update(decided_by="free_rank", map_onto_z=images)
    else:  # enumerated: the order is a multiple of every invariant factor
        consistent = order != groups.OVERFLOW and all(order % t == 0 for t in ab if t)
    results = {"presentation": args.presentation, "order": order,
               "abelianization": ab}
    return results, [("consistent_with_abelianization", consistent, witness)]


def cmd_surface_checks(args):
    steps, ranks = checks.surface_steps(args.seed)
    results = {"gauss_ranks": ranks, "determinant_conic": surface.NET_DETERMINANT}
    return results, [(r.name, r.passed, r.witness) for r in steps]


def cmd_reproduce_all(args):
    results = checks.run_all(seed=args.seed)
    summary = {"criteria": len(results),
               "passed": sum(1 for r in results if r.passed)}
    return summary, [(r.name, r.passed, r.witness) for r in results]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cuspidal",
        description="Discriminant geometry and braid monodromy of the "
                    "3-cuspidal quartic and deformed degree-4 covers.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, check, summary, *options, out=("json", "text")):
        """Declare a subcommand once: its (flag, keywords) options, whose
        values are the report's inputs, and the check that fails when the
        handler raises."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("--out", choices=out, default="json")
        inputs = [p.add_argument(flag, **kwargs).dest for flag, kwargs in options]
        p.set_defaults(handler=handler, check=check, inputs=inputs)

    seed = ("--seed", {"type": int, "default": 0})
    add("discriminant", cmd_discriminant, "discriminant_identity",
        "cover discriminant identities")
    add("cusps", cmd_cusps, "cusp_locations",
        "cusps of the normalized discriminant curve")
    add("curve-checks", cmd_curve_checks, "curve_duality",
        "duality and Theta identities")
    add("fiber", cmd_fiber, "root_count", "fiber roots over a given x",
        ("--x", {"type": _finite(complex), "required": True}))
    add("critical-values", cmd_critical_values, "total_order_ten",
        "critical values of the sheared projection",
        ("--shear", {"type": _fraction_arg, "default": Fraction(0)}))
    add("monodromy", cmd_monodromy, "braid_monodromy", "braid monodromy factorization",
        ("--shear", {"type": _fraction_arg, "default": DEFAULT_SHEAR}),
        ("--basepoint", {"type": _finite(float), "default": default_basepoint()}),
        out=("json", "text", "svg"))
    add("vankampen", cmd_vankampen, "affine_abelianization",
        "complement group presentation",
        ("--source", {"choices": ("fixture", "computed"), "default": "fixture"}),
        ("--projective", {"action": "store_true"}))
    add("enumerate-homs", cmd_enumerate_homs, "s4_uniqueness",
        "homomorphisms to symmetric groups",
        ("--target", {"choices": ("s3", "s4"), "default": "s4"}))
    add("coset-order", cmd_coset_order, "consistent_with_abelianization",
        "Todd-Coxeter group order",
        ("--presentation", {"choices": ("affine", "projective"),
                            "default": "projective"}),
        ("--max-cosets", {"type": _positive_int, "default": 10 ** 5}))
    add("surface-checks", cmd_surface_checks, "surface_suite",
        "twisted-cubic surface suite", seed)
    add("reproduce-all", cmd_reproduce_all, "reproduce_all",
        "run the full acceptance checklist", seed)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        results, check_list = args.handler(args)
    except Exception as exc:  # a breakdown is a failed check, not a traceback
        results, check_list = {}, [(args.check, False, checks.exception_witness(exc))]
    report = {
        "command": args.command,
        "inputs": _jsonify({name: getattr(args, name) for name in args.inputs}),
        "results": _jsonify(results),
        "checks": [{"name": n, "pass": bool(p), "witness": _jsonify(w)}
                   for n, p, w in check_list],
    }
    return _emit(report, args.out)


if __name__ == "__main__":
    sys.exit(main())
