"""Job-level benchmark for twistalg.

Run from the repository root:

    python3 bench/run.py --workload cyclic_scalar --seed 1 --seconds 20 \
        --trace 0

With ``--trace 0`` it measures set-up time (fresh interpreters importing
``twistalg.cli``) and then runs the workload in a fresh worker process;
with ``--trace 1`` the worker makes a plain, a traced and a memory pass and
reports per-layer numbers.  Set-up and job times of ``--trace 0`` are
scaled to nominal machine speed (see speed.py).  BLAS is pinned to one
thread.  Readable lines go to standard output, and the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("cyclic_scalar", "clifford_blocks", "laurent_torus")
SETUP_RUNS = 15             # fresh interpreters per set-up measurement
DEADLINE_S = 170            # the whole run, including set-up
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# metrics in the final JSON line with --trace 0
END_TO_END = ("setup_s", "jobs_per_s", "job_tail_s", "peak_rss_mb",
              "validate_p50_s")

# the import's time is scaled to nominal machine speed like every job's
# time (see speed.py)
IMPORT_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
import speed
with speed.Meter() as meter:
    t0 = time.perf_counter()
    import twistalg.cli
    wall = time.perf_counter() - t0 - meter.spent
print(wall * meter.scale())
"""


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def import_seconds(env, deadline, runs) -> list:
    """Import times of twistalg.cli in fresh interpreters."""
    times = []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE,
                               str(BENCH)], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()),
                              check=True)
        times.append(float(proc.stdout.strip()))
    return times


def describe(name, m) -> str:
    extra = ""
    if "percentile" in m:
        extra = f" (p{m['percentile']}, {m['beyond']} beyond)"
    samples = f", n={m['samples']}" if "samples" in m else ""
    return f"  {name:<34} {m['value']:.6g} {m['unit']}{samples}{extra}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="twistalg job benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "twistalg" / "cli.py").is_file():
        sys.stderr.write(f"no twistalg sources under {SRC}; run from the "
                         "root of a twistalg checkout\n")
        return 2

    env = child_env()
    metrics = {}
    if not args.trace:
        # the first interpreter compiles bytecode and is dropped; the rest
        # run half before and half after the workload, so one slow spell
        # on the machine cannot cover them all
        setup = import_seconds(env, deadline, SETUP_RUNS // 2 + 1)[1:]

    OUT.mkdir(exist_ok=True)
    result_path = OUT / f"result-{args.workload}-{args.seed}-{args.trace}.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--result", str(result_path)]
    try:
        subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                       timeout=max(1.0, deadline - time.monotonic()))
    except (subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"worker failed: {exc}\n")
        return 1
    result = json.loads(result_path.read_text())
    if not args.trace:
        setup += import_seconds(env, deadline, SETUP_RUNS - len(setup))
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s",
                              "samples": len(setup)}
    metrics.update(result["metrics"])

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  passes {result['passes']}")
    print("environment " + json.dumps(result["env"], sort_keys=True))
    print("input shares " + json.dumps(result["shares"], sort_keys=True))
    for name, m in metrics.items():
        print(describe(name, m))
    for line in result["failures"]:
        print(f"  FAILED {line}")
    if args.trace:
        print(f"  {'layer':<28}{'calls':>12}{'self_s':>12}{'peak_mb':>10}")
        for name, layer in result["layers"].items():
            print(f"  {name:<28}{layer['calls']:>12}"
                  f"{layer.get('self_s', float('nan')):>12.4f}"
                  f"{layer.get('peak_mb', float('nan')):>10.2f}")

    names = [m for m in metrics if "." in m] if args.trace else END_TO_END
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name]["value"],
                           "unit": metrics[name]["unit"]}
                    for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
