"""Summarise benchmark results and compare them with a baseline.

    python3 perfbench/stats.py perfbench/out
    python3 perfbench/stats.py perfbench/out --against perfbench/baseline.json
    python3 perfbench/stats.py perfbench/out --write perfbench/baseline.json

Reads the ``result-*.json`` records that ``run.py`` writes.  For every
workload and metric it prints the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median.  An end-to-end spread of a third of
its bound or more is flagged as unsteady.  ``--against`` prints each median
as a ratio of the baseline's and flags a metric worse by more than its bound.
Records whose mpmath backend or working precision differ are never compared:
the script refuses and exits 2.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMPARABLE = ("mpmath_backend", "precision_bits")


def load(directory: Path) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(directory.glob("result-*.json"))]


def comparable_env(records) -> dict:
    """The environment fields every record shares; refuses a mixed set."""
    seen = {tuple(r["env"][k] for k in COMPARABLE) for r in records}
    if len(seen) > 1:
        raise SystemExit(f"refusing to compare runs with different {COMPARABLE}: {sorted(seen)}")
    return dict(zip(COMPARABLE, seen.pop())) if seen else {}


def summarise(records) -> dict:
    """{workload: {metric: {median, q1, q3, spread, runs, unit}}}."""
    values: dict = {}
    for r in records:
        for name, m in r["metrics"].items():
            values.setdefault(r["workload"], {}).setdefault(name, (m["unit"], []))[1].append(m["value"])
    out: dict = {}
    for workload, metrics in sorted(values.items()):
        for name, (unit, vals) in metrics.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            out.setdefault(workload, {})[name] = {
                "median": med, "q1": q1, "q3": q3, "runs": len(vals), "unit": unit,
                "spread": (q3 - q1) / med if med else 0.0,
            }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("results", type=Path, help="directory of result-*.json records")
    ap.add_argument("--against", type=Path, help="baseline written by --write")
    ap.add_argument("--write", type=Path, help="save the summary as a baseline")
    args = ap.parse_args(argv)

    records = load(args.results)
    if not records:
        print(f"no result-*.json in {args.results}", file=sys.stderr)
        return 2
    env = comparable_env(records)
    summary = summarise(records)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base = None
    if args.against:
        base = json.loads(args.against.read_text())
        if {k: base["env"][k] for k in COMPARABLE} != env:
            print(f"refusing to compare: baseline {base['env']} vs {env}", file=sys.stderr)
            return 2

    for workload, metrics in summary.items():
        print(workload)
        for name, s in metrics.items():
            line = (f"  {name:<44} median {s['median']:<12.6g} {s['unit']:<6} "
                    f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.4f} "
                    f"({s['runs']} runs)")
            bound = bounds.get(name, {}).get("bound")
            if bound is not None and s["spread"] >= bound / 3:
                line += f"  UNSTEADY: bound {bound}"
            old = (base or {}).get("workloads", {}).get(workload, {}).get(name)
            if old and old["median"]:
                ratio = s["median"] / old["median"]
                line += f"  x{ratio:.4f} of baseline"
                if bound is not None:
                    worse = ratio - 1 if bounds[name]["better"] == "lower" else 1 - ratio
                    if worse > bound:
                        line += "  WORSE than bound"
            print(line)

    if args.write:
        envs = [r["env"] for r in records]
        doc = {"env": envs[0], "commits": sorted({str(e["commit"]) for e in envs}),
               "seconds": sorted({r["seconds"] for r in records}),
               "seeds": sorted({r["seed"] for r in records}), "workloads": summary}
        args.write.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
