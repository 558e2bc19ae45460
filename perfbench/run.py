"""The cuspidal benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload {paper,shear-ladder,algebra} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports the program from ``src``.
Inputs come from the seed (see ``workloads.py``), outputs are checked
against independent references (``reference.py``) outside the timed
region, and every metric is printed as ``name = value unit``.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.

``--trace 1`` alternates untraced and traced passes over the same inputs.
The per-layer numbers come from the traced passes (spans recorded by
``tracer.py`` around calls into the program) and are given per pass; the
untraced passes give the tracing overhead.  Inputs, spans and a copy of
the result are written to ``.perfbench/`` in the checkout.

Exit code 0 when every output matched its reference, 1 when one did not,
2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

SETUP_SAMPLES = 12
MIN_PASSES = 2
SETUP_CODE = "import cuspidal.cli; from cuspidal import quartic; quartic.cuspidal_quartic()"
CLI_CODE = "import sys; from cuspidal.cli import main; sys.exit(main())"
TAIL = 0.8            # op_tail_s percentile; ten samples lie beyond it from 50 on
MIN_SAMPLES = 50
DEADLINE_S = 170      # every child is stopped by then
FIXTURES = {"cusps": "cusps.json", "vankampen": "vankampen_projective.json",
            "critical-values": "critical_values_sheared.json"}


class BenchError(RuntimeError):
    """The benchmark itself could not run."""


# -- children --------------------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("CUSPIDAL_THREADS", None)  # the program's default
    return env


class Children:
    """Runs one child at a time and reaps it with os.wait4 for its rusage."""

    def __init__(self, started):
        self.env = child_env()
        self.deadline = started + DEADLINE_S
        self.stderr_path = OUT / "child-stderr.txt"

    def run(self, argv):
        """(exit code, stdout bytes, wall seconds, peak RSS in KiB)."""
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise BenchError("out of time before starting " + " ".join(argv[:4]))
        with open(self.stderr_path, "wb") as err:
            began = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.PIPE, stderr=err)
            killed = threading.Event()

            def kill():
                killed.set()
                proc.kill()

            killer = threading.Timer(timeout, kill)
            killer.start()
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - began
            finally:
                killer.cancel()
                proc.stdout.close()
            proc.returncode = os.waitstatus_to_exitcode(status)
        if killed.is_set():
            raise BenchError(f"killed after {timeout:.0f} s: {' '.join(argv[:6])}")
        return proc.returncode, out, wall, usage.ru_maxrss

    def stderr_tail(self):
        return self.stderr_path.read_text(errors="replace")[-2000:]


def setup_once(children):
    """Wall time of import plus cuspidal_quartic() in a fresh interpreter."""
    code, _, wall, _ = children.run([sys.executable, "-c", SETUP_CODE])
    if code != 0:
        raise BenchError("importing cuspidal failed:\n" + children.stderr_tail())
    return wall


# -- passes ----------------------------------------------------------------------

def paper_pass(children, inputs, traced, first_trace_id, spans_path, summary):
    """The README session, each call in a fresh interpreter."""
    record = OUT / "traced-call.json"
    ops = []
    began = time.perf_counter()
    for index, call in enumerate(inputs):
        argv = ([sys.executable, str(HERE / "traced_cli.py"), str(record), str(spans_path),
                 str(first_trace_id + index)] if traced
                else [sys.executable, "-c", CLI_CODE]) + call["argv"]
        code, out, wall, rss = children.run(argv)
        ops.append({"seconds": wall, "exit": code, "stdout": out, "rss_kb": rss,
                    "error": None if code == 0 else
                    f"exit code {code}: " + children.stderr_tail()[-300:]})
        if traced:
            _merge_call_trace(summary, call["label"], record, wall)
    return {"wall": time.perf_counter() - began, "ops": ops,
            "maxrss_kb": max(op["rss_kb"] for op in ops)}


def _merge_call_trace(summary, label, record, wall):
    data = json.loads(record.read_text())
    _merge_summary(summary, data["summary"])
    summary["counts"][f"cli.{label}.s"] += data["main_s"]
    summary["counts"]["cli.startup.s"] += wall - data["main_s"]


def _merge_summary(summary, part):
    for key in ("self_s", "calls", "counts"):
        for name, value in part[key].items():
            summary[key][name] += value


def worker_pass(children, inputs, traced, first_trace_id, spans_path, summary):
    """One pass in a fresh worker interpreter; see worker.py."""
    job_path = OUT / "job.json"
    job_path.write_text(json.dumps({"inputs": inputs, "trace": traced,
                                    "first_trace_id": first_trace_id,
                                    "spans_path": str(spans_path)}))
    code, out, _, _ = children.run([sys.executable, str(HERE / "worker.py"), str(job_path)])
    if code != 0:
        raise BenchError(f"worker exited with {code}:\n" + children.stderr_tail())
    one = json.loads(out)
    if traced:
        _merge_summary(summary, one.pop("trace"))
    return one


def run_passes(children, workload, inputs, seconds, trace, spans_path):
    """Passes over the same inputs until one more would overrun ``seconds``,
    at least MIN_PASSES and MIN_SAMPLES operations (two with tracing,
    alternating untraced and traced).  Set-up measurements precede each
    pass, at least SETUP_SAMPLES in all, so that they spread over the run."""
    run_pass = paper_pass if workload == "paper" else worker_pass
    summary = {"self_s": defaultdict(float), "calls": defaultdict(float),
               "counts": defaultdict(float)}
    if trace:
        spans_path.write_text("")
    min_passes = 2 if trace else max(MIN_PASSES, math.ceil(MIN_SAMPLES / len(inputs)))
    setups_per_pass = math.ceil(SETUP_SAMPLES / min_passes)
    setup_once(children)  # caches bytecode; not measured
    passes, setup_walls = [], []
    start = time.perf_counter()
    while True:
        setup_walls.extend(setup_once(children) for _ in range(setups_per_pass))
        traced = trace and len(passes) % 2 == 1
        one = run_pass(children, inputs, traced, len(passes) * len(inputs), spans_path,
                       summary)
        one["traced"] = traced
        passes.append(one)
        if (len(passes) >= min_passes
                and time.perf_counter() - start + one["wall"] > seconds):
            break
    report = {"passes": passes, "setup_walls": setup_walls,
              "maxrss_kb": max(p["maxrss_kb"] for p in passes if not p["traced"])}
    if trace:
        report["trace"] = summary
    return report


# -- reference checks ------------------------------------------------------------

def check_paper(inputs, report):
    """Reasons per (pass, op) where a call that exited 0 printed an output
    that disagrees with its reference."""
    fixtures = {label: (ROOT / "fixtures" / "v1" / name).read_bytes()
                for label, name in FIXTURES.items()}
    problems = {}
    for p, one in enumerate(report["passes"]):
        for i, (call, op) in enumerate(zip(inputs, one["ops"])):
            if op["exit"] != 0:
                continue  # already a failed operation, with its exit code
            label, out = call["label"], op["stdout"]
            reason = None
            if label in fixtures and out != fixtures[label]:
                reason = f"output differs from fixtures/v1/{FIXTURES[label]}"
            elif label == "monodromy-svg" and not out.startswith(b"<svg"):
                reason = "no SVG document on stdout"
            elif label == "reproduce-all":
                summary = json.loads(out)["results"]
                if summary != {"criteria": 11, "passed": 11}:
                    reason = f"reproduce-all summary {summary}, expected 11/11"
            if reason:
                problems[(p, i)] = reason
    return problems


def check_shear_ladder(inputs, report):
    import reference

    problems = {}
    for p, one in enumerate(report["passes"]):
        for i, op in enumerate(one["ops"]):
            if op["error"] is None:
                out = op["output"]
                reason = reference.factorization_problem(out["n"], out["orders"],
                                                         out["factors"])
                if reason:
                    problems[(p, i)] = reason
    return problems


def check_algebra(inputs, report):
    """Each reference is computed once per input, then every pass is compared."""
    import reference
    from fractions import Fraction

    expected = []
    for op in inputs:
        kind = op["kind"]
        if kind == "critical_values":
            terms = (reference.QUARTIC_TERMS if op["curve"] == "quartic"
                     else {(i, j): Fraction(c) for i, j, c in op["curve"]})
            expected.append(reference.critical_values(terms, Fraction(op["shear"])))
        elif kind == "todd_coxeter":
            expected.append(op["expect"])
        else:
            rels = [tuple(r) for r in op["presentation"]["relators"]]
            if kind == "count_homs":
                expected.append(len(reference.homs_to_sym(4, rels, op["n"])))
            elif kind == "enumerate_homs":
                found = reference.homs_to_sym(4, rels, op["n"], transpositions=True,
                                              transitive=True)
                expected.append([len(reference.conjugacy_classes(found, op["n"])),
                                 len(found)])
            else:
                expected.append(len(reference.homs_to_sym(4, rels, 4)))
    problems = {}
    for p, one in enumerate(report["passes"]):
        for i, (op, ref, rec) in enumerate(zip(inputs, expected, one["ops"])):
            if rec["error"] is not None:
                continue
            out, kind = rec["output"], op["kind"]
            if kind == "critical_values":
                got = [(complex(re, im), m) for re, im, m in out]
                reason = reference.compare_critical_values(got, ref)
            elif kind == "tietze":
                simplified = out["presentation"]
                count = len(reference.homs_to_sym(
                    len(simplified["generators"]),
                    [tuple(r) for r in simplified["relators"]], 4))
                reason = (None if count == ref else
                          f"simplified presentation has {count} homs to S4, input {ref}")
            else:
                reason = None if out == ref else f"{kind} gave {out}, reference {ref}"
            if reason:
                problems[(p, i)] = reason
    return problems


CHECKS = {"paper": check_paper, "shear-ladder": check_shear_ladder,
          "algebra": check_algebra}


# -- metrics ---------------------------------------------------------------------

def nearest_rank(sorted_values, q):
    """(value, 1-based rank) of the q-quantile by the nearest-rank rule."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], rank


def end_to_end(workload, inputs, report, failed_ops, setup_s):
    untraced = [p for p in report["passes"] if not p["traced"]]
    samples = sorted(math.inf if (p, i) in failed_ops else op["seconds"]
                     for p, one in enumerate(report["passes"]) if not one["traced"]
                     for i, op in enumerate(one["ops"]))
    p50, p50_rank = nearest_rank(samples, 0.5)
    tail, tail_rank = nearest_rank(samples, TAIL)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(p["wall"] for p in untraced), "s"),
        "op_p50_s": (p50, "s"),
        "op_tail_s": (tail, "s"),
        "peak_rss_mb": (report["maxrss_kb"] / 1024, "MB"),
    }
    notes = {
        "wall_s": f"median of {len(untraced)} passes of {len(inputs)} operations",
        "op_p50_s": f"rank {p50_rank} of {len(samples)}",
        "op_tail_s": (f"p{round(TAIL * 100)}, rank {tail_rank} of {len(samples)}, "
                      f"{len(samples) - tail_rank} beyond"),
    }
    if workload == "paper":
        verdicts = [one["ops"][i]["seconds"] for one in untraced
                    for i, call in enumerate(inputs) if call["label"] == "reproduce-all"]
        notes["verdict_s"] = (statistics.median(verdicts), "s")
    return metrics, notes


def per_layer(spec_names, report):
    traced = [p for p in report["passes"] if p["traced"]]
    untraced = [p for p in report["passes"] if not p["traced"]]
    n = len(traced)
    trace = report["trace"]
    values = defaultdict(float)
    for name, seconds in trace["self_s"].items():
        values[f"{name}.s"] = seconds / n
    for name, calls in trace["calls"].items():
        values[f"{name}.calls"] = calls / n
    for name, count in trace["counts"].items():
        values[name] = count / n
    steps = values["continuation.accepted_steps"]
    values["continuation.us_per_step"] = (
        1e6 * values["continuation.continue_roots.total_s"] / steps if steps else 0.0)
    cosets = values["groups.todd_coxeter.overflow_cosets"]
    values["groups.todd_coxeter.cosets_per_s"] = (
        cosets / values["groups.todd_coxeter.overflow_s"] if cosets else 0.0)
    values["trace.untraced_wall_s"] = statistics.median(p["wall"] for p in untraced)
    values["trace.traced_wall_s"] = statistics.median(p["wall"] for p in traced)
    values["trace.overhead_ratio"] = (values["trace.traced_wall_s"]
                                      / values["trace.untraced_wall_s"])
    return {name: values[name] for name in spec_names}


# -- main ------------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper", "shear-ladder", "algebra"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def preflight():
    missing = [p for p in ("src/cuspidal/cli.py", "fixtures/v1", "BENCHMARK.json")
               if not (ROOT / p).exists()]
    if missing:
        raise BenchError("not a cuspidal checkout, missing: " + ", ".join(missing))
    OUT.mkdir(exist_ok=True)
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(args):
    started = time.perf_counter()
    spec = preflight()
    sys.path.insert(0, str(HERE))
    import workloads

    tag = f"{args.workload}-{args.seed}"
    inputs = workloads.generate(args.workload, args.seed)
    (OUT / f"inputs-{tag}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "inputs": inputs}, indent=1))
    print(f"workload {args.workload}, seed {args.seed}, {len(inputs)} operations per pass, "
          f"inputs in .perfbench/inputs-{tag}.json")

    children = Children(started)
    spans_path = OUT / f"spans-{tag}.jsonl"
    trace = bool(args.trace)
    report = run_passes(children, args.workload, inputs, args.seconds, trace, spans_path)
    setup_walls = report["setup_walls"]
    setup_s = statistics.median(setup_walls)

    problems = CHECKS[args.workload](inputs, report)
    (OUT / f"passes-{tag}-trace{args.trace}.json").write_text(json.dumps(
        {"setup_walls": report["setup_walls"],
         "passes": [{"traced": one["traced"], "wall": one["wall"],
                     "ops": [{"seconds": op["seconds"], "error": op["error"]}
                             for op in one["ops"]]}
                    for one in report["passes"]]}))
    failed_ops = {(p, i) for p, one in enumerate(report["passes"])
                  for i, op in enumerate(one["ops"]) if op["error"] is not None}
    failed_ops |= set(problems)
    attempted = sum(len(one["ops"]) for one in report["passes"])

    reasons = {}
    for p, one in enumerate(report["passes"]):
        for i, op in enumerate(one["ops"]):
            reason = problems.get((p, i), op["error"])
            if reason is not None:
                reasons.setdefault(i, ("wrong output: " if (p, i) in problems else "")
                                   + reason[:200])
    for i, reason in sorted(reasons.items()):
        print(f"failed op {i} {json.dumps(inputs[i])}: {reason}")
    print(f"failed_share = {len(failed_ops) / attempted!r} ({len(failed_ops)} of "
          f"{attempted} operations)")

    metrics, notes = end_to_end(args.workload, inputs, report, failed_ops, setup_s)
    print(f"setup_s runs = {setup_walls!r}")
    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = per_layer(names, report)
        chosen = {name: (values[name], units[name]) for name in names}
        print(f"traced passes: {sum(p['traced'] for p in report['passes'])}, "
              f"spans in .perfbench/spans-{tag}.jsonl")
    else:
        chosen = {}
        for m in spec["end_to_end"]:
            if m["name"] not in metrics:
                raise BenchError(f"BENCHMARK.json names unknown metric {m['name']}")
            chosen[m["name"]] = metrics[m["name"]]
    for name, (value, unit) in chosen.items():
        note = notes.get(name) if not trace else None
        print(f"{name} = {value!r} {unit}" + (f" ({note})" if note else ""))
    if not trace and "verdict_s" in notes:
        print(f"verdict_s = {notes['verdict_s'][0]!r} s (reproduce-all, median of passes)")

    # On shear-ladder a wrong braid word is the measured failure mode of the
    # uncertified path tracker: it counts as a failed operation.  Anywhere
    # else a wrong output means the program is broken.
    correct = not problems or args.workload == "shear-ladder"
    result = {"correct": correct, "attempted": attempted, "failed": len(failed_ops),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in chosen.items()}}
    line = json.dumps(result)
    (OUT / f"result-{tag}-trace{args.trace}.json").write_text(line + "\n")
    if not correct:
        print(f"benchmark: {len(problems)} outputs disagree with their references",
              file=sys.stderr)
    print(line)
    return 0 if correct else 1


def main(argv=None):
    args = parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
