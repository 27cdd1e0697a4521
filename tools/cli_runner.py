"""The in-process CLI run that the report tools share.

Importing this module pins BLAS to one thread (before numpy loads it) and
puts the working directory's ``src/`` first on ``sys.path``, so the tools
that import it run from the root of a source tree on that tree's code.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"          # before numpy loads BLAS

ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src")]

import twistalg.cli                                      # noqa: E402


@contextlib.contextmanager
def cli_runner():
    """run(command, config, flags=()): writes config to a file in a
    temporary directory, calls ``twistalg.cli.main`` on it with ``--out``
    and standard output and error captured, and returns (command, exit
    code, report file or None, standard output, standard error)."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "report.json"

        def run(command: str, config: dict, flags=()):
            path.write_text(json.dumps(config))
            out.unlink(missing_ok=True)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                rc = twistalg.cli.main([command, "--config", str(path),
                                        "--out", str(out), *flags])
            report = out.read_text() if out.exists() else None
            return command, rc, report, stdout.getvalue(), stderr.getvalue()

        yield run
