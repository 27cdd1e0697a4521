"""Run one workload in a fresh process and write its measurements as JSON.

Closed loop, one client: each job is one in-process ``twistalg.cli.main``
call (or one library call) on a generated config, timed from entry to
return (and scaled to nominal machine speed, see speed.py), and checked
against its oracle before the next job starts.  Config writing, report
parsing and oracle checks stay outside the clock.

    python3 bench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --result PATH
"""
from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import numpy as np                                       # noqa: E402

import twistalg.cli                                      # noqa: E402
import twistalg.isolab                                   # noqa: E402
import speed                                             # noqa: E402
from tracer import Tracer                                # noqa: E402
from workloads import WORKLOADS, make_pass               # noqa: E402

# job_tail_s is the highest of these percentiles that leaves at least ten
# samples beyond it in MIN_PASSES passes; fixing it per workload keeps it
# comparable when a faster program fits more passes into a run
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
MIN_PASSES = 2

WARM_UP_PASS = 1 << 30

# per-layer metrics: a layer's calls, self time or peak memory
LAYER_METRICS = (
    ("cli.main", "calls"), ("cli.main", "self_s"),
    ("serialize.parse_cocycle", "self_s"),
    ("groups.GroupTable", "self_s"), ("groups.GroupTable", "peak_mb"),
    ("groups.lookups", "calls"),
    ("rings.ring_ops", "calls"), ("rings.descriptor_eq", "calls"),
    ("cocycle.make_f_alpha", "self_s"),
    ("cocycle.validate", "calls"), ("cocycle.validate", "self_s"),
    ("cocycle.validate", "peak_mb"),
    ("algebra.alg_mul", "calls"), ("algebra.alg_mul", "self_s"),
    ("algebra.alg_star", "self_s"), ("algebra.regular_matrix", "self_s"),
    ("isolab.verify_morphism", "calls"), ("isolab.model_ops", "calls"),
)


class JobRunner:
    """Runs jobs in this process; configs and reports live in a scratch
    directory that ``close`` removes.  With ``meter`` each job's time is
    scaled to nominal machine speed (see speed.py); without it the time is
    the plain wall time."""

    def __init__(self, scratch_root: Path, meter: bool = True):
        self.meter = meter
        scratch_root.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(dir=scratch_root))
        self.config = self.dir / "config.json"
        self.out = self.dir / "report.json"

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def run(self, job) -> dict:
        if job.call is None:
            self.config.write_text(json.dumps(job.config))
            self.out.unlink(missing_ok=True)
            argv = [job.command, "--config", str(self.config),
                    "--out", str(self.out), *job.flags]
        gc.collect()
        error = None
        with speed.Meter(self.meter) as meter:
            t0 = time.perf_counter()
            try:
                if job.call is None:
                    result = twistalg.cli.main(argv)
                else:
                    result = job.call(twistalg)
            except Exception as exc:      # a raising job is a failed job
                error = f"raised {exc!r}"
            wall = time.perf_counter() - t0 - meter.spent
        if error is None:
            try:
                if job.call is None:
                    report = (json.loads(self.out.read_text())
                              if self.out.exists() else None)
                    job.check(report, result)
                else:
                    job.check(result, None)
            except Exception as exc:  # a malformed report fails the job
                error = f"{type(exc).__name__}: {exc}"
        return {"command": job.command, "latency": wall * meter.scale(),
                "wall": wall, "error": error, "props": job.props}

    def run_pass(self, jobs) -> list:
        return [dict(self.run(job), slot=job.slot) for job in jobs]


def warm_up(runner: JobRunner, workload: str, seed: int):
    """The smallest job of each subcommand, drawn from a pass index no
    measured pass uses, so lazy imports and BLAS start-up are done before
    the clock runs; their results are discarded."""
    smallest = {}
    for job in make_pass(workload, seed, WARM_UP_PASS):
        best = smallest.get(job.command)
        if best is None or job.props["order"] < best.props["order"]:
            smallest[job.command] = job
    for job in smallest.values():
        runner.run(job)


# -- statistics --------------------------------------------------------------

def order_stat(latencies, p) -> float:
    """The p-th percentile as one observed sample (no interpolation), so
    it never averages two different job shapes."""
    return float(np.percentile(latencies, p, method="inverted_cdf"))


def tail(latencies, pass_size):
    """(percentile, value, samples beyond) for job_tail_s."""
    floor = pass_size * MIN_PASSES
    p = max((q for q in TAIL_LADDER if floor * (1 - q / 100) >= 10),
            default=TAIL_LADDER[0])
    value = order_stat(latencies, p)
    return p, value, sum(x > value for x in latencies)


def shares(records) -> dict:
    """Input-property shares of the jobs in this run."""
    def share(key, value, pool):
        pool = [r for r in pool if key in r["props"]]
        return (sum(r["props"][key] == value for r in pool) / len(pool)
                if pool else None)
    cocycle_jobs = [r for r in records
                    if r["props"]["form"] in ("f_alpha", "table")]
    orders = {}
    for r in records:
        orders[r["props"]["order"]] = orders.get(r["props"]["order"], 0) + 1
    return {
        "f_alpha_vs_table": share("form", "f_alpha", cocycle_jobs),
        "dense_vs_sparse": share("density", "dense", records),
        "monomial_ring": share("monomial", True, records),
        "order_histogram": {str(k): v for k, v in sorted(orders.items())},
    }


def environment() -> dict:
    cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            get = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        threads = get()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{cfg.get('name')} {cfg.get('version')}",
            "blas_threads": threads,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": os.cpu_count(), "machine": platform.machine()}


def typical_pass(records, key="latency") -> dict:
    """Each job shape at its median time over the passes, so a slow spell
    on the machine during one pass does not move the throughput or reorder
    the tail."""
    return {slot: order_stat([r[key] for r in records if r["slot"] == slot],
                             50)
            for slot in {r["slot"] for r in records}}


def end_to_end(records, pass_size) -> dict:
    ok = [r for r in records if r["error"] is None]
    typical = typical_pass(records)
    wall = typical_pass(records, "wall")
    p, value, beyond = tail([typical[r["slot"]] for r in records], pass_size)
    metrics = {
        "jobs_per_s": {"value": len(typical) * len(ok) / len(records)
                       / sum(typical.values()),
                       "unit": "jobs/s", "samples": len(records)},
        # the same throughput in unscaled wall time, for reading only
        "wall_jobs_per_s": {"value": len(wall) * len(ok) / len(records)
                            / sum(wall.values()),
                            "unit": "jobs/s", "samples": len(records)},
        "job_tail_s": {"value": value, "unit": "s", "samples": len(records),
                       "percentile": p, "beyond": beyond},
        "failed_frac": {"value": (len(records) - len(ok)) / len(records),
                        "unit": "ratio", "samples": len(records)},
        "peak_rss_mb": {"value": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "unit": "MB",
            "samples": 1},
    }
    for command in sorted({r["command"] for r in records}):
        sel = [r["latency"] for r in records if r["command"] == command]
        metrics[f"{command}_p50_s"] = {"value": order_stat(sel, 50),
                                       "unit": "s", "samples": len(sel)}
    return metrics


def per_layer(layers, untraced_s, traced_s) -> dict:
    metrics = {}
    for layer, stat in LAYER_METRICS:
        unit = {"calls": "count", "self_s": "s", "peak_mb": "MB"}[stat]
        metrics[f"{layer}.{stat}"] = {"value": layers[layer][stat],
                                      "unit": unit}
    metrics["trace.overhead_ratio"] = {"value": traced_s / untraced_s,
                                       "unit": "ratio"}
    return metrics


# -- modes -------------------------------------------------------------------

def measure(runner, workload, seed, seconds) -> tuple:
    """At least MIN_PASSES whole passes, then more while another fits in
    the time budget."""
    records, pass_s = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        jobs = make_pass(workload, seed, len(pass_s))
        records += runner.run_pass(jobs)
        pass_s.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if (len(pass_s) >= MIN_PASSES
                and elapsed + np.mean(pass_s) > seconds):
            return records, {"passes": len(pass_s), "pass_size": len(jobs)}


def trace(runner, workload, seed, out_dir) -> tuple:
    """One plain pass, one traced pass, one memory pass; each draws its
    own parameters, so nothing is shared between them."""
    plain = runner.run_pass(make_pass(workload, seed, 0))
    tracer = Tracer()
    tracer.install()
    try:
        traced = runner.run_pass(make_pass(workload, seed, 1))
    finally:
        tracer.uninstall()
    mem = Tracer(memory=True)
    tracemalloc.start()
    mem.install()
    try:
        mem_records = runner.run_pass(make_pass(workload, seed, 2))
    finally:
        mem.uninstall()
        tracemalloc.stop()
    tracer.save(out_dir / f"spans-{workload}-{seed}.npz")
    layers = tracer.summary()
    for name, value in mem.summary().items():
        layers[name].update(value)
    wall = lambda recs: sum(r["latency"] for r in recs)
    metrics = per_layer(layers, wall(plain), wall(traced))
    return plain + traced + mem_records, {"layers": layers,
                                          "passes": 3}, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    out_dir = BENCH / "out"
    runner = JobRunner(out_dir, meter=not args.trace)
    try:
        warm_up(runner, args.workload, args.seed)
        if args.trace:
            records, detail, metrics = trace(runner, args.workload,
                                             args.seed, out_dir)
        else:
            records, detail = measure(runner, args.workload, args.seed,
                                      args.seconds)
            metrics = end_to_end(records, detail["pass_size"])
    finally:
        runner.close()
    failures = [f"{r['command']} {r['props']}: {r['error']}"
                for r in records if r["error"] is not None]
    jobs = [[r["command"], r["props"]["order"], r["props"]["form"],
             r["props"]["ring"], r["latency"]] for r in records]
    result = {"attempted": len(records), "failed": len(failures),
              "metrics": metrics, "failures": failures[:20],
              "shares": shares(records), "env": environment(),
              "jobs": jobs, **detail}
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
