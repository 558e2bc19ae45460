"""Timed passes over the inputs of an in-process workload.

Run from the checkout root with ``src`` on PYTHONPATH:

    python3 perfbench/worker.py JOB.json

The job holds the workload inputs and whether to trace.  The worker makes
one pass, calling the program once per input; arguments are built before
the pass and outputs serialized after it, both outside the timed region.
The pass (wall time, per-operation seconds, errors and outputs), the
worker's peak RSS and, when traced, the span summary go to stdout as JSON;
spans are appended to the job's spans file.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from fractions import Fraction

import tracer as tracing
from cuspidal import groups, monodromy, quartic
from cuspidal.mpoly import MPoly


def _fraction(text):
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def _presentation(data):
    return groups.Presentation(tuple(data["generators"]),
                               tuple(tuple(r) for r in data["relators"]))


def _curve(terms):
    return quartic.PlaneCurve(MPoly(("x", "y"), {(i, j): Fraction(c) for i, j, c in terms}))


def prepare(op, the_quartic):
    """(call, serialize) for one input.  Calls look the program's functions
    up at call time, so the tracer's wrappers are seen."""
    kind = op["kind"]
    if kind == "factorize":
        shear, basepoint, steps = _fraction(op["shear"]), op["basepoint"], op["circle_steps"]
        return (lambda: monodromy.monodromy_factorization(
                    the_quartic, basepoint=basepoint, shear=shear, circle_steps=steps),
                lambda r: {"n": r.n_strands,
                           "orders": [loop.multiplicity for loop in r.loops],
                           "factors": [list(f.letters) for f in r.factors]})
    if kind == "critical_values":
        curve = the_quartic if op["curve"] == "quartic" else _curve(op["curve"])
        shear = _fraction(op["shear"])
        return (lambda: quartic.critical_values(curve, shear),
                lambda r: [[complex(v).real, complex(v).imag, m] for v, m in r])
    p = _presentation(op["presentation"])
    if kind == "todd_coxeter":
        limit = op["max_cosets"]
        return lambda: groups.todd_coxeter(p, max_cosets=limit), lambda r: r
    if kind == "count_homs":
        return lambda: groups.count_homs(p, op["n"]), lambda r: r
    if kind == "enumerate_homs":
        return (lambda: groups.enumerate_homs_to_sym(p, op["n"]),
                lambda r: [len(r[0]), r[1]])
    if kind == "tietze":
        return (lambda: groups.tietze_simplify(p),
                lambda r: {"presentation": r[0].to_json(), "exhausted": r[1]})
    raise ValueError(f"unknown operation {kind!r}")


def run_pass(ops, tracer, first_trace_id):
    outcomes = []
    began = time.perf_counter()
    for index, (op, (call, _)) in enumerate(ops):
        start = time.perf_counter()
        try:
            if tracer is None:
                result = call()
            else:
                tracer.trace_id = first_trace_id + index
                result = tracer.span(f"op.{op['kind']}", call)
            error = None
        except Exception as exc:  # a failed operation is a measured outcome
            result, error = None, f"{type(exc).__name__}: {exc}"
        outcomes.append((time.perf_counter() - start, result, error))
    wall = time.perf_counter() - began
    records = []
    for (op, (_, serialize)), (seconds, result, error) in zip(ops, outcomes):
        record = {"seconds": seconds, "error": error}
        if error is None:
            record["output"] = serialize(result)
        records.append(record)
    return {"wall": wall, "ops": records}


def run(job):
    the_quartic = quartic.cuspidal_quartic()
    ops = [(op, prepare(op, the_quartic)) for op in job["inputs"]]
    tracer = tracing.Tracer() if job["trace"] else None
    if tracer:
        tracer.install()
    report = run_pass(ops, tracer, job["first_trace_id"])
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        report["trace"] = tracer.summary()
        tracer.write_spans(job["spans_path"])
    return report


def main():
    with open(sys.argv[1]) as f:
        job = json.load(f)
    json.dump(run(job), sys.stdout)


if __name__ == "__main__":
    main()
