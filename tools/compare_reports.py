"""Write the verification reports of benchmark instances in short, and diff two
such records check by check.

    python tools/compare_reports.py write OUT.json --workloads search numeric \
        --seeds 0 5 10-19 [--instances 0 1] [--problem FILE ...]
    python tools/compare_reports.py diff OLD.json NEW.json

`write` runs `run_pipeline` (stage "verify") on every instance that
`perfbench/workloads.py` generates for the given workloads and seeds, and on
every given problem file, with the `gaudin` package of this checkout's
`src`.  Per instance it records the sha256 of the report as sorted JSON, the
sha256 of the report with every check residual blanked, and the status and
residual of every check.  It edits nothing under `perfbench/`.
`--problem tools/problems/*.json` adds the two Gaussian-rational instances
kept there: the defect-9 problem (0.3 s) and a 6-site spin-1/2 chain with
two sites off the real line (about 4 s).  `--problem
tools/problems/ladder/*.json` adds the seven rungs of the instance ladder
in ROADMAP.md, each with solver seed 0: spin-1/2 chains of 4, 6 and 8
sites at 0, 1, ..., the adjoint gl3 module squared at 0, 1, and gl3 chains
of five and six vector sites, the latter at 0..5 and at generic rational
sites.  They take about 50 s together, most of it on the 8-site chain and
the two 729-dimensional gl3 chains.

`diff` pairs the instances of two records by name.  It prints the instances
whose reports differ beyond residuals and every status that moved, and, per
check name with its orbit tag dropped, how many residuals differ and the
largest of each side.  Its exit status is 1 when anything but residuals
differs, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import re
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _digest(report):
    return hashlib.sha256(
        json.dumps(report, sort_keys=True).encode()).hexdigest()


def summarize(report):
    """The record of one report: its digests and its checks."""
    blank = dict(report, checks=[dict(c, residual=None)
                                 for c in report["checks"]])
    return {"sha256": _digest(report),
            "sha256_without_residuals": _digest(blank),
            "checks": [[c["name"], c["status"], c["residual"]]
                       for c in report["checks"]]}


def _import(directory, name):
    """Module `name` from `directory` of this checkout."""
    if str(ROOT / directory) not in sys.path:
        sys.path.insert(0, str(ROOT / directory))
    return importlib.import_module(name)


def _seeds(words):
    out = []
    for w in words:
        lo, _, hi = w.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def instances(workloads, seeds, indices=None, problems=()):
    """[(name, problem dict)] of the workloads at the seeds, restricted to
    the given instance indices, then of the problem files."""
    generators = _import("perfbench", "workloads")
    out = []
    for w in workloads:
        for seed in seeds:
            for k, p in enumerate(generators.generate(w, seed)):
                if indices is None or k in indices:
                    out.append((f"{w}/seed{seed}/{k}", p))
    for path in problems:
        out.append((str(path), json.loads(Path(path).read_text())))
    return out


def write(named_problems):
    """{name: record} of every (name, problem dict)."""
    hc = _import("src", "gaudin.harness_cli")
    out = {}
    for name, source in named_problems:
        problem, config, options = hc.load_problem(source)
        report = hc.run_pipeline(
            problem, config, j_max=options.get("j_max"),
            d_cap=options.get("d_cap"),
            max_terms=options.get("max_terms", 10 ** 7), stage="verify")
        out[name] = summarize(report)
    return out


def diff(old, new):
    """(lines, clean): a check-by-check account of two records; clean when
    they differ in residuals at most."""
    lines, clean = [], True
    for name in sorted(old.keys() ^ new.keys()):
        lines.append(f"only in {'old' if name in old else 'new'}: {name}")
        clean = False
    residuals = defaultdict(lambda: [0, 0, 0.0, 0.0])
    identical = 0
    for name in sorted(old.keys() & new.keys()):
        a, b = old[name], new[name]
        if a["sha256"] == b["sha256"]:
            identical += 1
            continue
        if a["sha256_without_residuals"] != b["sha256_without_residuals"]:
            lines.append(f"{name}: differs beyond residuals")
            clean = False
        for (ca, sa, ra), (cb, sb, rb) in zip(a["checks"], b["checks"]):
            if ca != cb:
                lines.append(f"{name}: check {ca} -> {cb}")
            elif sa != sb:
                lines.append(f"{name}: {ca} {sa} -> {sb}")
            key = re.sub(r"^orbit\d+\.", "", cb)
            row = residuals[key]
            row[0] += 1
            row[1] += ra != rb
            row[2] = max(row[2], ra or 0.0)
            row[3] = max(row[3], rb or 0.0)
    lines.append(f"{identical} of {len(old.keys() & new.keys())} reports "
                 f"identical")
    for key, (n, moved, worst_a, worst_b) in sorted(residuals.items()):
        if moved:
            lines.append(f"{key}: {moved} of {n} residuals differ, largest "
                         f"{worst_a:.3g} -> {worst_b:.3g}")
    return lines, clean


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    w = sub.add_parser("write")
    w.add_argument("out")
    w.add_argument("--workloads", nargs="*", default=[])
    w.add_argument("--seeds", nargs="*", default=["0"])
    w.add_argument("--instances", nargs="*", type=int)
    w.add_argument("--problem", nargs="*", default=[])
    d = sub.add_parser("diff")
    d.add_argument("old")
    d.add_argument("new")
    args = parser.parse_args(argv)
    if args.command == "write":
        records = write(instances(args.workloads, _seeds(args.seeds),
                                  args.instances, args.problem))
        Path(args.out).write_text(json.dumps(records, sort_keys=True,
                                             indent=1))
        return 0
    lines, clean = diff(json.loads(Path(args.old).read_text()),
                        json.loads(Path(args.new).read_text()))
    print("\n".join(lines))
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
