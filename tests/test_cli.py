import json
import pathlib
from fractions import Fraction

import pytest

from cuspidal import bidouble, checks, cli, groups, monodromy, quartic, surface
from cuspidal.bidouble import StructureError
from cuspidal.cli import main
from cuspidal.mpoly import ring

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "v1"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cusps_matches_golden(capsys):
    code, out = run_cli(capsys, "cusps")
    assert code == 0
    assert out == (FIXTURES / "cusps.json").read_text()


def test_vankampen_matches_golden(capsys):
    code, out = run_cli(capsys, "vankampen", "--projective")
    assert code == 0
    assert out == (FIXTURES / "vankampen_projective.json").read_text()


def test_critical_values_matches_golden(capsys):
    code, out = run_cli(capsys, "critical-values", "--shear", "1/100")
    assert code == 0
    assert out == (FIXTURES / "critical_values_sheared.json").read_text()


def test_monodromy_matches_golden(capsys):
    code, out = run_cli(capsys, "monodromy", "--shear", "1/100")
    assert code == 0
    assert out == (FIXTURES / "monodromy_sheared.json").read_text()


def test_monodromy_right_of_every_critical_value_matches_golden(capsys):
    # four loops on the left whose walks share three half circles
    code, out = run_cli(capsys, "monodromy", "--shear", "1/1000", "--basepoint", "0.5")
    assert code == 0
    assert out == (FIXTURES / "monodromy_right_of_all.json").read_text()


def test_monodromy_left_of_every_critical_value_matches_golden(capsys):
    # the first leg has two conjugate pairs over it, and every circle goes
    # through its lower half first, its upper half read as the mirror image
    code, out = run_cli(capsys, "monodromy", "--shear", "1/10", "--basepoint", "-1.2225")
    assert code == 0
    assert out == (FIXTURES / "monodromy_left_of_all.json").read_text()


def test_discriminant_matches_golden(capsys):
    code, out = run_cli(capsys, "discriminant")
    assert code == 0
    assert out == (FIXTURES / "discriminant.json").read_text()


def test_surface_checks_match_golden(capsys):
    code, out = run_cli(capsys, "surface-checks", "--seed", "0")
    assert code == 0
    assert out == (FIXTURES / "surface_checks.json").read_text()


def test_curve_checks_match_golden(capsys):
    code, out = run_cli(capsys, "curve-checks")
    assert code == 0
    assert out == (FIXTURES / "curve_checks.json").read_text()


def test_reproduce_all_matches_golden(capsys):
    code, out = run_cli(capsys, "reproduce-all", "--seed", "0")
    assert code == 0
    assert out == (FIXTURES / "reproduce_all.json").read_text()


@pytest.mark.parametrize("target", ["s4", "s3"])
def test_enumerate_homs_matches_golden(capsys, target):
    code, out = run_cli(capsys, "enumerate-homs", "--target", target)
    assert code == 0
    assert out == (FIXTURES / f"enumerate_homs_{target}.json").read_text()


@pytest.mark.parametrize("constructor", [
    quartic.cuspidal_quartic, quartic.dual_of_dual,
    bidouble.discriminant_norm, bidouble.delta_normal_form,
], ids=lambda f: f.__name__)
def test_each_exact_constructor_is_computed_once_per_process(constructor):
    assert constructor() is constructor()


@pytest.mark.parametrize("argv, module, name", [
    (("cusps",), bidouble, "find_cusps"),
    (("enumerate-homs", "--target", "s4"), groups, "enumerate_homs_to_sym"),
], ids=["cusps", "enumerate-homs"])
def test_a_subcommand_searches_once(capsys, monkeypatch, argv, module, name):
    calls = []
    search = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(module, name, counted)
    code, _ = run_cli(capsys, *argv)
    assert code == 0
    assert len(calls) == 1


def test_critical_values_separate_split_cusp_values_at_a_tiny_shear(capsys):
    code, out = run_cli(capsys, "critical-values", "--shear", "1/100000000000")
    assert code == 0
    values = json.loads(out)["results"]["critical_values"]
    assert [v["order"] for v in values] == [3, 3, 1, 3]
    assert values[0]["value"][0] < -1.125 < values[1]["value"][0]


def test_determinism_same_argv_same_bytes(capsys):
    _, out1 = run_cli(capsys, "surface-checks", "--seed", "3")
    _, out2 = run_cli(capsys, "surface-checks", "--seed", "3")
    assert out1 == out2
    _, out3 = run_cli(capsys, "surface-checks", "--seed", "4")
    assert json.loads(out3)["checks"]  # a different seed still verifies


def test_fiber_json_schema(capsys):
    code, out = run_cli(capsys, "fiber", "--x", "-0.5")
    assert code == 0
    data = json.loads(out)
    assert data["command"] == "fiber"
    assert data["results"]["pattern"] == "TwoRealTwoImaginary"
    assert sum(r["multiplicity"] for r in data["results"]["roots"]) == 4
    assert all(c["pass"] for c in data["checks"])


def test_monodromy_json(capsys):
    code, out = run_cli(capsys, "monodromy")
    assert code == 0
    data = json.loads(out)
    factors = data["results"]["factors"]
    assert len(factors) == 4
    sums = [sum(1 if l > 0 else -1 for l in f["letters"]) for f in factors]
    assert sums == [3, 3, 1, 3]
    assert data["results"]["shear"] == "1/100"


def test_monodromy_svg(capsys):
    code, out = run_cli(capsys, "monodromy", "--out", "svg")
    assert code == 0
    assert out.startswith("<svg") and "polyline" in out


def test_enumerate_homs(capsys):
    code, out = run_cli(capsys, "enumerate-homs", "--target", "s4")
    assert code == 0
    data = json.loads(out)
    assert data["results"]["class_count"] == 1
    assert data["results"]["satisfying_tuples"] == 24
    # into S3: four classes of trivial centralizer, 4 * 3! = 24 tuples
    code, out = run_cli(capsys, "enumerate-homs", "--target", "s3")
    assert code == 0
    data = json.loads(out)
    assert data["inputs"] == {"target": "s3"}
    assert data["results"]["class_count"] == 4
    assert data["checks"] == [{"name": "orbit_count", "pass": True, "witness": {
        "satisfying_tuples": 24, "orbit_sizes_sum": 24}}]


def test_coset_order_affine_overflow(capsys):
    code, out = run_cli(capsys, "coset-order", "--presentation", "affine",
                        "--max-cosets", "2000")
    assert code == 0
    data = json.loads(out)
    assert data["results"]["order"] == "overflow"
    # decided from the free rank, not enumerated; the map onto Z is the witness
    assert data["checks"] == [{"name": "consistent_with_abelianization", "pass": True,
                               "witness": {"order": "overflow", "abelianization": [0],
                                           "decided_by": "free_rank",
                                           "map_onto_z": [1, 1, 1, 1]}}]


def test_coset_order_checks_the_map_onto_z_on_every_relator(capsys, monkeypatch):
    # a1 -> 1, the rest -> 0 does not kill b2 b1 b2^-1 a1^-1
    monkeypatch.setattr(groups, "map_onto_z", lambda p: [1, 0, 0, 0])
    code, out = run_cli(capsys, "coset-order", "--presentation", "affine")
    assert code == 1
    assert json.loads(out)["checks"][0]["pass"] is False


@pytest.mark.parametrize("limit", ["0", "-5"])
def test_coset_order_rejects_a_limit_below_one(limit):
    with pytest.raises(SystemExit) as err:
        main(["coset-order", f"--max-cosets={limit}"])
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["discriminant", "--seed", "3"],  # only surface-checks and reproduce-all are seeded
    ["fiber", "--x=-0.5", "--out", "svg"],  # only monodromy draws
])
def test_options_a_subcommand_does_not_read_are_usage_errors(argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2


DEFAULT_INPUTS = {
    "discriminant": {},
    "cusps": {},
    "curve-checks": {},
    "fiber": {"x": [-0.5, 0.0]},  # --x is required
    "critical-values": {"shear": "0/1"},
    "monodromy": {"shear": "1/100", "basepoint": -0.950961894323342},
    "vankampen": {"source": "fixture", "projective": False},
    "enumerate-homs": {"target": "s4"},
    "coset-order": {"presentation": "projective", "max_cosets": 100000},
    "surface-checks": {"seed": 0},
    "reproduce-all": {"seed": 0},
}


@pytest.mark.parametrize("command", sorted(DEFAULT_INPUTS))
def test_inputs_at_the_defaults_are_the_declared_options(capsys, monkeypatch, command):
    for name in dir(cli):
        if name.startswith("cmd_"):
            monkeypatch.setattr(cli, name, lambda args: ({}, []))
    argv = [command] + (["--x=-0.5"] if command == "fiber" else [])
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["inputs"] == DEFAULT_INPUTS[command]
    [sub] = [a for a in cli.build_parser()._actions if a.dest == "command"]
    flags = {f for a in sub.choices[command]._actions for f in a.option_strings}
    declared = {"--" + k.replace("_", "-") for k in DEFAULT_INPUTS[command]}
    assert flags == declared | {"-h", "--help", "--out"}


@pytest.mark.parametrize("argv, check, exception", [
    (["critical-values", "--shear", "1/100000000000000000000"], "total_order_ten",
     "RootFindingError"),
    (["monodromy", "--basepoint=1e300"], "braid_monodromy", "OverflowError"),
])
def test_a_breakdown_is_a_failed_check_not_a_traceback(capsys, argv, check, exception):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    data = _strict_json(captured.out)
    assert data["results"] == {}
    [failed] = data["checks"]
    assert failed["name"] == check and failed["pass"] is False
    assert failed["witness"]["exception"] == exception and failed["witness"]["message"]


def test_a_breakdown_under_out_svg_prints_its_report(capsys):
    code, out = run_cli(capsys, "monodromy", "--basepoint=0", "--out", "svg")
    assert code == 1
    [check] = _strict_json(out)["checks"]
    assert check["name"] == "braid_monodromy"
    assert check["witness"]["exception"] == "RootFindingError"


def test_text_mode_prints_the_witness_of_a_failed_check(capsys):
    code, out = run_cli(capsys, "critical-values", "--shear", "1/100000000000000000000",
                        "--out", "text")
    assert code == 1
    assert out.splitlines()[0] == "== critical-values"
    prefix = "[FAIL] total_order_ten "
    [line] = [l for l in out.splitlines() if l.startswith("[")]
    assert line.startswith(prefix)
    witness = json.loads(line[len(prefix):])
    assert witness["exception"] == "RootFindingError" and witness["message"]
    code, out = run_cli(capsys, "critical-values", "--shear", "1/100", "--out", "text")
    assert code == 0
    assert out.splitlines()[-1] == "[PASS] total_order_ten"


def test_an_overflowing_fiber_table_names_its_stage_and_center(capsys):
    code, out = run_cli(capsys, "monodromy", "--basepoint=1e300")
    assert code == 1
    [check] = _strict_json(out)["checks"]
    assert check["witness"] == {
        "exception": "OverflowError",
        "message": "fiber coefficients at x = 1e+300 overflow double precision"}


def test_a_real_fiber_is_solved_once(capsys, monkeypatch):
    calls = []
    solve = quartic.fiber_solve

    def counted(curve, x0):
        calls.append(x0)
        return solve(curve, x0)

    monkeypatch.setattr(quartic, "fiber_solve", counted)
    code, out = run_cli(capsys, "fiber", "--x=-0.5")
    assert code == 0
    assert calls == [-0.5]
    assert json.loads(out)["results"]["pattern"] == "TwoRealTwoImaginary"


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["fiber", "--nonsense"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err2:
        main(["no-such-command"])
    assert err2.value.code == 2
    with pytest.raises(SystemExit) as err3:  # fiber has no --mode option
        main(["fiber", "--x=-1", "--mode", "simple"])
    assert err3.value.code == 2


def test_reproduce_all_passes(capsys):
    code, out = run_cli(capsys, "reproduce-all")
    assert code == 0
    data = json.loads(out)
    assert data["results"]["criteria"] == 11
    assert data["results"]["passed"] == 11
    assert all(c["pass"] for c in data["checks"])


def test_monodromy_checks_the_computed_factorization(capsys):
    # shear 0 leaves the two cusps over -9/8 on one critical value: three
    # factors, which the check must reject
    code, out = run_cli(capsys, "monodromy", "--shear", "0")
    assert code == 1
    data = json.loads(out)
    assert len(data["results"]["factors"]) == 3
    assert not data["checks"][0]["pass"]


def test_monodromy_on_a_complex_quadruple_basepoint_fiber(capsys):
    code, out = run_cli(capsys, "monodromy", "--basepoint=-2")
    assert code == 0
    data = json.loads(out)
    assert data["results"]["strand_names"] == ["s1", "s2", "s3", "s4"]


@pytest.mark.parametrize("argv, exception", [
    (["--basepoint=0"], "RootFindingError"),
    (["--shear", "1/1000000"], "ContinuationError"),
])
def test_monodromy_numerical_failure_is_a_structured_fail(capsys, argv, exception):
    code, out = run_cli(capsys, "monodromy", *argv)
    assert code == 1
    data = json.loads(out)
    [check] = data["checks"]
    assert check["name"] == "braid_monodromy" and not check["pass"]
    assert check["witness"]["exception"] == exception
    assert check["witness"]["message"]


@pytest.mark.parametrize("basepoint, exception, message", [
    # the tangency value at shear 1/100, rounded to a float: no loop circles it
    ("-0.9999000099990001", "ValueError", "basepoint -0.9999000099990001 is a critical value"),
    # its fiber's inclusion disks decide no conjugation
    ("-1.1314963220235736", "SweepError", "fiber over x = -1.1314963220235736 do not decide"),
])
def test_monodromy_refuses_a_basepoint_before_tracking(capsys, monkeypatch, basepoint,
                                                       exception, message):
    def untracked(*args):
        raise AssertionError("tracked a loop from a refused basepoint")

    monkeypatch.setattr(monodromy, "continue_roots", untracked)
    code, out = run_cli(capsys, "monodromy", "--shear", "1/100", f"--basepoint={basepoint}")
    assert code == 1
    [check] = json.loads(out)["checks"]
    assert check["name"] == "braid_monodromy" and not check["pass"]
    assert check["witness"]["exception"] == exception
    assert message in check["witness"]["message"]


@pytest.mark.parametrize("value", ["nan", "inf", "x"])
def test_monodromy_rejects_a_non_finite_basepoint(value):
    with pytest.raises(SystemExit) as err:
        main(["monodromy", f"--basepoint={value}"])
    assert err.value.code == 2


def test_surface_checks_pass_for_a_sample_with_a_double_pinch_point(capsys):
    # seed 107 draws an F whose Delta(F) has a double root; the dual conic
    # is then tangent to the Veronese conic, so the pinch-point iff holds
    code, out = run_cli(capsys, "surface-checks", "--seed", "107")
    assert code == 0
    assert all(c["pass"] for c in json.loads(out)["checks"])


def test_a_coset_overflow_fails_group_fingerprints(capsys, monkeypatch):
    # the projective presentation from the computed factorization closes
    # only after 143 defined cosets, the fixture's after 72
    monkeypatch.setattr(checks, "MAX_COSETS", 78)
    code, out = run_cli(capsys, "reproduce-all")
    assert code == 1
    data = json.loads(out)
    assert data["results"] == {"criteria": 11, "passed": 10}
    [failed] = [c for c in data["checks"] if not c["pass"]]
    assert failed["name"] == "group_fingerprints"
    assert failed["witness"] == {"exception": "RuntimeError",
                                 "message": "coset enumeration overflowed at 78"}


def test_a_raising_surface_step_is_a_failed_check(capsys, monkeypatch):
    def broken():
        raise StructureError("P is not the tangent surface of the cubic")

    monkeypatch.setattr(surface, "tangent_surface_identity", broken)
    witness = {"exception": "StructureError",
               "message": "P is not the tangent surface of the cubic"}
    code, out = run_cli(capsys, "reproduce-all")
    assert code == 1
    data = json.loads(out)
    assert data["results"] == {"criteria": 11, "passed": 10}
    [suite] = [c for c in data["checks"] if not c["pass"]]
    assert suite["name"] == "surface_suite"
    assert suite["witness"]["steps"]["tangent_surface"] == witness
    code, out = run_cli(capsys, "surface-checks")
    assert code == 1
    [step] = [c for c in json.loads(out)["checks"] if not c["pass"]]
    assert step == {"name": "tangent_surface", "pass": False, "witness": witness}


def test_a_perturbed_discriminant_fails_the_cusp_locations(capsys, monkeypatch):
    normal_form = bidouble.delta_normal_form
    u, v = ring("u", "v")
    monkeypatch.setattr(bidouble, "delta_normal_form",
                        lambda: normal_form() + u ** 2 * v ** 2 * Fraction(1, 1000))
    with pytest.raises(StructureError, match=r"zeta\^0 has nonzero residuals"):
        bidouble.find_cusps()
    code, out = run_cli(capsys, "cusps")
    assert code == 1
    [check] = json.loads(out)["checks"]
    assert check == {"name": "cusp_locations", "pass": False, "witness": {
        "exception": "StructureError",
        "message": "cusp candidate zeta^0 has nonzero residuals"}}


def test_a_doubled_net_fails_the_determinant_identity(capsys, monkeypatch):
    # det(2 l.Q) = (l0 l2 - l1^2)^2 is still a square, but not the printed identity
    member = surface.net_member
    monkeypatch.setattr(surface, "net_member",
                        lambda lam: [[2 * e for e in row] for row in member(lam)])
    code, out = run_cli(capsys, "surface-checks")
    assert code == 1
    [step] = [c for c in json.loads(out)["checks"] if not c["pass"]]
    assert step["name"] == "det_conic_square"
    assert step["witness"] == {
        "exception": "StructureError",
        "message": "the net fails det(l.Q) = (1/16)(l0 l2 - l1^2)^2"}


@pytest.mark.parametrize("value", ["nan", "inf", "-infj", "x"])
def test_fiber_rejects_a_non_finite_x(value):
    with pytest.raises(SystemExit) as err:
        main(["fiber", f"--x={value}"])
    assert err.value.code == 2


def test_fiber_overflow_is_a_structured_fail(capsys):
    code, out = run_cli(capsys, "fiber", "--x=1e200")
    assert code == 1
    [check] = json.loads(out)["checks"]
    assert check["name"] == "root_count" and not check["pass"]
    assert check["witness"]["exception"] == "OverflowError"
    assert check["witness"]["message"].endswith("overflow double precision")


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_fiber_with_non_finite_roots_is_a_structured_fail(capsys):
    # x is finite, but the two root pairs, 6.3e38 apart, are closer than
    # double precision resolves roots of size 1e77: the residual radii,
    # 1.4e39, overlap
    code, out = run_cli(capsys, "fiber", "--x=1e77j")
    assert code == 1
    data = _strict_json(out)
    [check] = data["checks"]
    assert check["name"] == "root_count" and not check["pass"]
    assert check["witness"] == {"total_multiplicity": 4, "overlapping_disks": True}
    roots = [(complex(*r["value"]), r["radius"]) for r in data["results"]["roots"]]
    gap = min(abs(v - w) for i, (v, _) in enumerate(roots) for w, _ in roots[i + 1:])
    assert gap == pytest.approx(6.3e38, rel=0.01)
    assert all(r == pytest.approx(1.4e39, rel=0.02) for _, r in roots)


def test_fiber_with_an_underflowing_root_pair_is_a_structured_fail(capsys):
    # the small pair, +-4e-451, rounds to 0, where p' vanishes: radius inf,
    # printed as the string "inf" so that the report stays strict JSON
    code, out = run_cli(capsys, "fiber", "--x=1e-300")
    assert code == 1
    data = _strict_json(out)
    assert [r["radius"] for r in data["results"]["roots"]][1:3] == ["inf", "inf"]
    [count] = [c for c in data["checks"] if c["name"] == "root_count"]
    assert count == {"name": "root_count", "pass": False,
                     "witness": {"total_multiplicity": 4, "overlapping_disks": True}}


@pytest.mark.parametrize("x", ["600", "-1000", "1e4"])
def test_fiber_far_from_the_cusps_has_four_simple_symmetric_roots(capsys, x):
    code, out = run_cli(capsys, "fiber", f"--x={x}")
    assert code == 0
    data = _strict_json(out)
    assert [r["multiplicity"] for r in data["results"]["roots"]] == [1, 1, 1, 1]
    assert all(c["pass"] for c in data["checks"])


@pytest.mark.parametrize("x, pattern, distinct", [
    ("-1", "critical", 3), ("0", "critical", 3), ("-1.125", "TwoDoubleReal", 2),
])
def test_fiber_distinct_roots_match_the_exact_pattern(capsys, x, pattern, distinct):
    code, out = run_cli(capsys, "fiber", f"--x={x}")
    assert code == 0
    data = _strict_json(out)
    assert data["results"]["pattern"] == pattern
    assert len(data["results"]["roots"]) == distinct
    assert all(c["pass"] for c in data["checks"])


@pytest.mark.parametrize("x", ["1e30", "-1e30", "1e30j", "1e20j", "1e19", "1e-8", "1e-100",
                               "1e-120", "1e-200"])
def test_fiber_with_merged_simple_roots_fails_root_count(capsys, x):
    # roots that a relative merge tolerance of 1e-9 would merge: at large |x|
    # the two root pairs are 2.8 / sqrt|x| apart relative to their size, at
    # 1e-8 the small pair is 7.7e-13 apart; exact multiplicities and residual
    # radii keep them four simple roots in disjoint disks, so root_count passes;
    # at 1e-100 the small pair's squared radius underflows double precision,
    # at 1e-120 and 1e-200 B itself does, while the pair, +-3.8e-181i and
    # +-3.8e-301i, are normal doubles
    code, out = run_cli(capsys, "fiber", f"--x={x}")
    assert code == 0
    data = _strict_json(out)
    assert [r["multiplicity"] for r in data["results"]["roots"]] == [1, 1, 1, 1]
    [count] = [c for c in data["checks"] if c["name"] == "root_count"]
    assert count == {"name": "root_count", "pass": True,
                     "witness": {"total_multiplicity": 4}}
    assert all(c["pass"] for c in data["checks"])

