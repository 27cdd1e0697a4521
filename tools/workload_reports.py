"""Print one line per benchmark job: what the program reported, not how fast.

Run from the root of a source tree:

    python3 tools/workload_reports.py > reports.txt

It runs passes 0-2 of every workload of ``bench/workloads.py`` at seeds 1
and 2, in this process, on that tree's ``src/``, with BLAS pinned to one
thread.  Each line is the repr of one job: for a CLI job its subcommand,
exit code, report file, standard output and standard error; for a library
job the returned object.  Two trees give byte-identical output exactly
when they give the same results on these jobs, so a change that should
not move any result is checked by diffing its output with its parent's,
each run from its own checkout.
"""
from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"          # before numpy loads BLAS

ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import json                                              # noqa: E402

import twistalg                                          # noqa: E402
import twistalg.cli                                      # noqa: E402
from workloads import WORKLOADS, make_pass               # noqa: E402

SEEDS = (1, 2)
PASSES = (0, 1, 2)


def run(job, config: Path, out: Path):
    """The repr-able result of one job."""
    if job.call is not None:
        return job.call(twistalg)
    config.write_text(json.dumps(job.config))
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(
            stderr):
        rc = twistalg.cli.main([job.command, "--config", str(config),
                                "--out", str(out), *job.flags])
    report = out.read_text() if out.exists() else None
    return job.command, rc, report, stdout.getvalue(), stderr.getvalue()


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "config.json", Path(tmp) / "report.json"
        for workload in WORKLOADS:
            for seed in SEEDS:
                for index in PASSES:
                    for job in make_pass(workload, seed, index):
                        print(repr((workload, seed, index, job.slot,
                                    run(job, config, out))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
