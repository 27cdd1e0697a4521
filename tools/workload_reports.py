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

import sys

from cli_runner import ROOT, cli_runner    # first: BLAS pinned, src/ on path

sys.path.insert(1, str(ROOT / "bench"))

import twistalg                                          # noqa: E402
from workloads import WORKLOADS, make_pass               # noqa: E402

SEEDS = (1, 2)
PASSES = (0, 1, 2)


def main() -> int:
    with cli_runner() as run:
        for workload in WORKLOADS:
            for seed in SEEDS:
                for index in PASSES:
                    for job in make_pass(workload, seed, index):
                        result = (job.call(twistalg) if job.call is not None
                                  else run(job.command, job.config,
                                           job.flags))
                        print(repr((workload, seed, index, job.slot,
                                    result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
