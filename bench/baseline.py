"""Measure every workload on several seeds and write the baseline file.

    python3 bench/baseline.py --seeds 10 --label "<commit>"

For every workload of ``BENCHMARK.json`` it runs ``bench/run.py`` for
``run_seconds`` once per seed (seeds 1..N) and once traced (seed 1).  It
writes to ``bench/baseline.json`` the median of every metric, its
quartiles and the run-to-run spread (interquartile range over median, as
``statistics.quantiles(values, n=4)`` gives the quartiles), next to each
workload's description, its reason from ``BENCHMARK.json`` and the input
shares of its first run.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS                          # noqa: E402


def run(workload, seed, seconds, trace) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((BENCH / "out" /
                         f"result-{workload}-{seed}-{trace}.json").read_text())
    return final, detail


def summarise(values) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": len(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--label", default="")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    gated = [m["name"] for m in spec["end_to_end"]]
    out = {"label": args.label, "seconds": seconds, "workloads": {}}
    for w in spec["workloads"]:
        workload = w["name"]
        rows = [run(workload, seed, seconds, 0)
                for seed in range(1, args.seeds + 1)]
        if not all(final["correct"] for final, _ in rows):
            raise SystemExit(f"{workload}: a run reported wrong results")
        values = {}
        for final, detail in rows:
            merged = {**detail["metrics"], **final["metrics"]}
            for name, m in merged.items():
                values.setdefault(name, (m["unit"], []))[1].append(
                    m["value"])
        traced, traced_detail = run(workload, 1, seconds, 1)
        out["env"] = rows[0][1]["env"]
        out["workloads"][workload] = {
            "description": " ".join(WORKLOADS[workload].__doc__.split()),
            "why": w["why"],
            "attempted": sum(final["attempted"] for final, _ in rows),
            "failed": sum(final["failed"] for final, _ in rows),
            "shares": rows[0][1]["shares"],
            "end_to_end": {name: dict(summarise(vals), unit=unit,
                                      gated=name in gated)
                           for name, (unit, vals) in values.items()},
            "per_layer": {name: m["value"]
                          for name, m in traced["metrics"].items()},
            "layers": traced_detail["layers"],
        }
        for name, s in out["workloads"][workload]["end_to_end"].items():
            print(f"{workload:<16} {name:<16} median {s['median']:<12.5g} "
                  f"spread {s['spread']:.3f}", flush=True)
    (BENCH / "baseline.json").write_text(
        json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
