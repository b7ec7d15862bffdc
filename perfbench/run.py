#!/usr/bin/env python3
"""Benchmark of `gaudin verify`, run in-process on generated instances.

    python3 perfbench/run.py --workload search --seed 0 --seconds 30 --trace 0

One client, one process, one thread, closed loop: the instances of the
workload are verified one after another with `run_pipeline(stage="verify")`.
With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics; with `--trace 1` it holds the per-layer metrics of a
traced pass (see README.md).  The lines before it are a readable table.
Run records go to perfbench/results/.
"""

import time

PROCESS_START = time.perf_counter()

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import oracle
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 120
# Seconds that `calibrate()` takes at the reference CPU speed: the faster of
# the two speeds the 2-vCPU machine the benchmark was built on alternates
# between.  Times are reported at this speed (see README.md).
REF_CAL_S = 0.011

# metric -> unit; README.md defines each metric
END_TO_END = {
    "wall_s": "s",
    "verify_s_p50": "s",
    "verify_s_tail": "s",
    "check_pass_frac": "frac",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# per-layer metrics that are not a timed layer's self time, calls or errors
LAYER_EXTRA = {
    "master.extra_orbits": "count",
    "master.useful_start_frac": "frac",
    "kernels.converged_frac": "frac",
    "weight_function.terms": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def per_layer_units():
    units = {}
    for name in spans.timed_metric_names():
        units[name] = "s" if name.endswith("_s") else "count"
    units.update(LAYER_EXTRA)
    return units


def import_package():
    """Import gaudin from this checkout's src/, never from elsewhere."""
    if not (SRC / "gaudin" / "__init__.py").is_file():
        raise SystemExit(f"no gaudin sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from gaudin import harness_cli, kernels
    if Path(harness_cli.__file__).resolve().parent != SRC / "gaudin":
        raise SystemExit(f"gaudin imported from {harness_cli.__file__}")
    return harness_cli, kernels


def calibrate():
    """Seconds for a fixed pure-Python loop.

    The machine's speed changes by up to 1.5x for seconds at a time; this
    loop's time tracks it (correlation 0.83 with the time of an `algebra`
    instance run right after it), so scaling a time by REF_CAL_S / calibrate()
    removes most of that change.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def code_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "gaudin").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def report_digest(report):
    return hashlib.sha256(
        json.dumps(report, sort_keys=True).encode()).hexdigest()


class Pass:
    """One verification of every instance.

    raw[k] is instance k's measured `run_pipeline` seconds, scale[k] the
    factor to the reference speed from the calibrations just before and just
    after it, reports[k] its report (None if it raised) and errors[k] the
    exception type or None.
    """

    def __init__(self, hc, loaded, tracer=None):
        self.raw, self.scale, self.reports, self.errors = [], [], [], []
        before = calibrate()
        t0 = time.perf_counter()
        for k, (problem, config, options) in enumerate(loaded):
            if tracer is not None:
                tracer.instance = k
            report, err = None, None
            t = time.perf_counter()
            try:
                report = hc.run_pipeline(
                    problem, config, j_max=options.get("j_max"),
                    d_cap=options.get("d_cap"),
                    max_terms=options.get("max_terms", 10 ** 7),
                    stage="verify")
            except Exception as e:  # a crash is a failed operation; go on
                err = type(e).__name__
            self.raw.append(time.perf_counter() - t)
            after = calibrate()
            self.scale.append(2 * REF_CAL_S / (before + after))
            before = after
            self.reports.append(report)
            self.errors.append(err)
        self.wall_raw = time.perf_counter() - t0

    def seconds(self):
        """Per-instance seconds at the reference speed."""
        return [t * s for t, s in zip(self.raw, self.scale)]

    def digests(self):
        return [None if r is None else report_digest(r) for r in self.reports]


def tail_of(samples):
    """Highest percentile with at least ten samples beyond it, or the max."""
    s = sorted(samples)
    n = len(s)
    if n < 11:
        return s[-1], "max"
    return s[n - 11], f"p{100 * (n - 10) / n:.3g}"


# ------------------------------------------------------------ correctness

def check_report(problem_dict, report):
    """Problems with one report that do not depend on pass/fail verdicts."""
    errors = []
    status = [c["status"] for c in report["checks"]]
    s = report["summary"]
    if (s["checks"], s["passed"], s["failed"], s["skipped"]) != (
            len(status), status.count("PASS"), status.count("FAIL"),
            status.count("SKIPPED")) or s["all_pass"] != (s["failed"] == 0):
        errors.append("summary does not count the checks")
    if report["problem"]["partitions"] != problem_dict["partitions"]:
        errors.append("report echoes other partitions")
    d = report["derived"]
    mu = oracle.infinity_weight(problem_dict["partitions"], problem_dict["l"])
    want = oracle.dimensions(problem_dict["partitions"], mu)
    got = (d["module_dimension"], d["weight_dimension"],
           d["singular_dimension"])
    if got != want or tuple(d["infinity_weight"]) != mu:
        errors.append(f"dimensions {got} at {d['infinity_weight']}, "
                      f"characters give {want} at {list(mu)}")
    L, n = sum(problem_dict["l"]), len(problem_dict["z"])
    if d["term_count"] != math.factorial(L) * math.comb(L + n - 1, n - 1):
        errors.append(f"term_count {d['term_count']}")
    return errors


def previous_digests(workload, seed, code, problems):
    """[(record name, digests)] from earlier runs of the same workload, seed
    and code; None where that run had another problem or no report."""
    out = []
    for path in sorted(RESULTS.glob(f"{workload}-seed{seed}-trace*.json")):
        try:
            rec = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if rec["context"]["code_sha256"] != code:
            continue
        digests = [i["digest"] if k < len(problems)
                   and i["problem"] == problems[k] else None
                   for k, i in enumerate(rec["instances"])]
        out.append((f"results/{path.name}", digests))
    return out


def correctness(args, code, problems, passes, traced):
    """Well-formed reports with the oracle's dimensions, and one digest per
    instance across passes, the traced pass and earlier runs."""
    found = []
    for k, report in enumerate(passes[0].reports):
        if report is not None:
            found += [f"instance {k}: {e}"
                      for e in check_report(problems[k], report)]
    digests = passes[0].digests()
    others = [(f"pass {n + 2}", p.digests()) for n, p in enumerate(passes[1:])]
    if traced is not None:
        others.append(("the traced pass", traced.digests()))
    others += previous_digests(args.workload, args.seed, code, problems)
    for name, ds in others:
        for k, (a, b) in enumerate(zip(digests, ds)):
            if b is not None and a != b:
                found.append(f"instance {k}: digest differs in {name}")
    return found


# -------------------------------------------------------------------- main

def setup(args):
    """Import, generate, load and warm up; returns the loaded state."""
    hc, kernels = import_package()
    problems = workloads.generate(args.workload, args.seed)
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        loaded = []
        for k, p in enumerate(problems):
            if tracer is not None:
                tracer.instance = f"load{k}"
            loaded.append(hc.load_problem(p))
    finally:
        if tracer is not None:
            tracer.restore()
    warm = hc.load_problem(dict(hc.SELFTEST_PROBLEM))
    hc.run_pipeline(*warm[:2])
    return hc, kernels, problems, loaded, tracer


def context(args, kernels, code):
    import numpy
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "backend": kernels.backend_name(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "code_sha256": code,
    }


def probe_setup(args):
    """Set-up seconds, at the reference speed, of fresh processes doing the
    same set-up."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "1", "--trace", "0", "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    hc, kernels, problems, loaded, tracer = setup(args)
    setup_raw = time.perf_counter() - PROCESS_START
    setup_scale = REF_CAL_S / statistics.median(calibrate() for _ in range(3))
    setup_s = setup_raw * setup_scale
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    passes = []
    t_first = time.perf_counter()
    while True:
        passes.append(Pass(hc, loaded))
        if args.trace or (time.perf_counter() - t_first + passes[-1].wall_raw
                          > args.seconds):
            break
    traced = None
    if tracer is not None:
        with tracer:
            traced = Pass(hc, loaded, tracer)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    code = code_digest()
    times = [statistics.median(col) for col in
             zip(*(p.seconds() for p in passes))]
    instances = instance_records(problems, passes[0], times)
    problems_found = correctness(args, code, problems, passes, traced)
    ran = passes + ([traced] if traced else [])
    ctx = context(args, kernels, code)
    if args.trace:
        metrics = layer_metrics(tracer, traced, passes[0], setup_scale,
                                instances)
        units = per_layer_units()
    else:
        setups = [setup_s] + probe_setup(args)
        metrics = end_to_end(passes, times, setups, rss_mb)
        units = END_TO_END

    record = {"context": ctx, "instances": instances, "metrics": metrics,
              "setup_raw_s": setup_raw,
              "passes": [{"wall_raw_s": p.wall_raw, "raw_s": p.raw,
                          "scale": p.scale} for p in ran],
              "correctness_problems": problems_found}
    if tracer is not None:
        record["counters"] = dict(tracer.counters)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.dump(RESULTS / f"{stem}-spans.jsonl")

    print_table(ctx, instances, passes, metrics, units, problems_found)
    print(json.dumps({
        "correct": not problems_found,
        "attempted": sum(len(p.errors) for p in ran),
        "failed": sum(e is not None for p in ran for e in p.errors),
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }))
    return 0


def instance_records(problems, first, times):
    """Problem, shape, time, verdict and digest of every instance."""
    out = []
    for k, (report, digest) in enumerate(zip(first.reports, first.digests())):
        rec = {"index": k, "problem": problems[k], "seconds": times[k],
               "error": first.errors[k], "digest": digest}
        if report is not None:
            d = report["derived"]
            rec["shape"] = {"partitions": problems[k]["partitions"],
                            "weight": d["infinity_weight"],
                            "singular_dimension": d["singular_dimension"],
                            "module_dimension": d["module_dimension"],
                            "n_vars": sum(problems[k]["l"]),
                            "term_count": d["term_count"],
                            "mode": report["problem"]["mode"]}
            rec["all_pass"] = report["summary"]["all_pass"]
            rec["checks"] = len(report["checks"])
            rec["failing_checks"] = [c["name"] for c in report["checks"]
                                     if c["status"] != "PASS"]
        out.append(rec)
    return out


def end_to_end(passes, times, setups, rss_mb):
    checks = [c["status"] for r in passes[0].reports if r is not None
              for c in r["checks"]]
    tail, _ = tail_of(times)
    return {
        "wall_s": statistics.median(sum(p.seconds()) for p in passes),
        "verify_s_p50": statistics.median(times),
        "verify_s_tail": tail,
        "check_pass_frac": checks.count("PASS") / max(len(checks), 1),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
    }


def layer_metrics(tracer, traced, untraced, setup_scale, instances):
    out = {}
    scales = dict(enumerate(traced.scale))
    scales.update((f"load{k}", setup_scale) for k in range(len(instances)))
    for layer, (calls, errors, self_s) in tracer.layer_totals(scales).items():
        out[f"{spans.METRIC_STEM.get(layer, layer)}_s"] = self_s
        out[f"{layer}_calls"] = calls
        out[f"{layer}_errors"] = errors
    c = tracer.counters
    newton = out["kernels.newton_calls"]
    out["master.extra_orbits"] = (c["master.orbits_found"]
                                  - c["master.orbits_expected"])
    out["master.useful_start_frac"] = (c["master.orbits_found"] / newton
                                       if newton else 0.0)
    out["kernels.converged_frac"] = (c["kernels.newton_converged"] / newton
                                     if newton else 0.0)
    out["weight_function.terms"] = sum(i["shape"]["term_count"]
                                       for i in instances if "shape" in i)
    out["trace.wall_s"] = sum(traced.seconds())
    out["trace.overhead_s"] = sum(traced.seconds()) - sum(untraced.seconds())
    return out


def print_table(ctx, instances, passes, metrics, units, problems_found):
    print(f"# workload {ctx['workload']} seed {ctx['seed']}: "
          f"{len(instances)} instances x {len(passes)} untraced pass(es), "
          f"backend {ctx['backend']}, numba importable "
          f"{ctx['numba_importable']}, python {ctx['python']}, "
          f"numpy {ctx['numpy']}, nproc {ctx['nproc']}")
    print("# times in seconds at the reference CPU speed; measured "
          f"wall time of the first pass {passes[0].wall_raw:.4f} s")
    if ctx["trace"]:
        for name, value in metrics.items():
            print(f"{name:40s} {value:.6g} {units[name]}")
    else:
        n = len(instances)
        _, label = tail_of([i["seconds"] for i in instances])
        raised = sum(1 for i in instances if i["error"])
        bad = [i for i in instances if i["error"] or not i["all_pass"]]
        checks = sum(i.get("checks", 0) for i in instances)
        not_pass = sum(len(i.get("failing_checks", ())) for i in instances)
        rows = [
            ("wall_s", f"{metrics['wall_s']:.4f} s"),
            ("verify_s_p50", f"{metrics['verify_s_p50']:.4f} s "
                             f"({n} samples)"),
            ("verify_s_tail", f"{metrics['verify_s_tail']:.4f} s "
                              f"({label} of {n} samples)"),
            ("fail_frac", f"{len(bad) / n:.4f} frac ({len(bad)} of {n} "
                          f"instances, {raised} raised)"),
            ("check_fail_frac", f"{not_pass / max(checks, 1):.4f} frac "
                                f"(FAIL + SKIPPED: {not_pass} of {checks})"),
            ("setup_s", f"{metrics['setup_s']:.4f} s"),
            ("peak_rss_mb", f"{metrics['peak_rss_mb']:.2f} MB"),
        ]
        for name, text in rows:
            print(f"{name:16s} {text}")
        for i in bad:
            print(f"#   instance {i['index']}: "
                  f"{i['error'] or ', '.join(i['failing_checks'])}")
    for p in problems_found:
        print(f"# INCORRECT {p}")


if __name__ == "__main__":
    sys.exit(main())
