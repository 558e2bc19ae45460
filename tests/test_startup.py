"""Start-up: `cuspidal.cli` binds the package's layers lazily, so each
subcommand loads only the layers it runs.

Each test runs in a fresh interpreter, since this process has loaded every
layer already.  A lazily bound layer is a module of a subclass of
`types.ModuleType` until its first attribute access; `type()` does not
trigger the load.
"""

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
LAYERS = {p.stem for p in (ROOT / "src" / "cuspidal").glob("*.py")} - {"__init__"}


def _fresh(script, *argv):
    """The JSON that script prints as its last line in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(script), *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


LOADED = """
    import contextlib, io, json, sys, types
    from cuspidal import cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(sys.argv[1:])
    print(json.dumps({"code": code, "loaded": sorted(
        name for name, module in sys.modules.items()
        if name.startswith("cuspidal.") and type(module) is types.ModuleType)}))
"""

# Which layers each subcommand runs, leaving out cli, and mpoly and checks,
# which every handler that reads checks loads.
GROUPS = {"groups", "braids", "linalg"}
CURVE = {"quartic", "exactpoly", "roots"}


RUNS = [
    (["discriminant"], {"bidouble"}),
    (["cusps"], {"bidouble", "exactpoly"}),
    (["curve-checks"], CURVE),
    (["fiber", "--x=-0.5"], CURVE),
    (["critical-values"], CURVE),
    (["monodromy"], CURVE | {"monodromy", "continuation", "braids"}),
    (["vankampen"], GROUPS),
    (["enumerate-homs"], GROUPS),
    (["coset-order"], GROUPS),
    (["surface-checks"], {"surface", "bidouble", "exactpoly", "linalg"}),
    (["reproduce-all"], LAYERS - {"cli", "mpoly", "checks"}),
]


@pytest.mark.parametrize("argv, layers", RUNS, ids=[argv[0] for argv, _ in RUNS])
def test_a_subcommand_loads_only_the_layers_it_runs(argv, layers):
    run = _fresh(LOADED, *argv)
    assert run["code"] == 0
    assert {name.split(".")[1] for name in run["loaded"]} - {"cli", "mpoly", "checks"} \
        == layers


def test_every_layer_is_in_sys_modules_and_a_patch_on_a_lazy_one_takes_effect():
    # the benchmark's tracer wraps functions in the modules that importing
    # cuspidal.cli puts in sys.modules, and tests patch layers the same way
    run = _fresh("""
        import contextlib, io, json, sys, types
        from fractions import Fraction
        import pytest
        import cuspidal.cli
        from cuspidal import bidouble, cli
        from cuspidal.mpoly import ring
        present = sorted(n for n in sys.modules if n.split(".")[0] == "cuspidal")
        lazy = type(bidouble) is not types.ModuleType
        u, v = ring("u", "v")
        with pytest.MonkeyPatch.context() as patch:
            normal_form = bidouble.delta_normal_form
            patch.setattr(bidouble, "delta_normal_form",
                          lambda: normal_form() + u ** 2 * v ** 2 * Fraction(1, 1000))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["cusps"])
        print(json.dumps({"present": present, "lazy": lazy, "code": code,
                          "checks": json.loads(out.getvalue())["checks"]}))
    """)
    assert run["present"] == sorted({"cuspidal"} | {f"cuspidal.{n}" for n in LAYERS})
    assert run["lazy"]
    assert run["code"] == 1
    assert run["checks"] == [{"name": "cusp_locations", "pass": False, "witness": {
        "exception": "StructureError",
        "message": "cusp candidate zeta^0 has nonzero residuals"}}]


def test_importing_the_package_or_a_layer_stays_eager():
    run = _fresh("""
        import json, sys, types
        import cuspidal
        from cuspidal import groups
        layers = {n: type(m) is types.ModuleType
                  for n, m in sys.modules.items() if n.startswith("cuspidal.")}
        print(json.dumps(layers))
    """)
    assert run == {f"cuspidal.{n}": True for n in ("groups", "braids", "linalg")}
