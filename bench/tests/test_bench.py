"""Tests of the benchmark itself: its oracles against twistalg on small
cases, rejection of perturbed reports, and a smoke pass of every workload.

    python3 -m pytest bench/tests -q
"""
from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import oracles as o                                       # noqa: E402
import speed                                              # noqa: E402
import worker                                             # noqa: E402
import twistalg                                           # noqa: E402
from twistalg import (COMPLEX, CliffordSpec, RingValue, alg_mul,  # noqa: E402
                      alg_norm, alg_star, clifford_cocycle, laurent,
                      make_f_alpha, z2n_torus_rewrite)
from twistalg.algebra import AlgebraElement                # noqa: E402
from twistalg.cli import main as cli_main                  # noqa: E402
from twistalg.rings import REAL                            # noqa: E402
from workloads import WORKLOADS, make_pass                 # noqa: E402

RNG = np.random.default_rng(7)


def phases(k):
    return np.exp(2j * np.pi * RNG.random(k))


def scalars(values, d=COMPLEX):
    return [RingValue.scalar(d, complex(v)) for v in values]


def as_array(values):
    return np.array([complex(v.payload) for v in values])


# -- oracles agree with twistalg ---------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 8, 13])
def test_f_alpha_table_matches_make_f_alpha(n):
    a = phases(n - 1)
    f = make_f_alpha(n, scalars(a))
    prog = np.array([as_array(row) for row in f.values])
    assert np.allclose(prog, o.f_alpha_table(a), atol=1e-12)


def test_coboundary_is_a_cocycle_and_corruption_is_not():
    lam = phases(12)
    lam[0] = 1
    table = o.coboundary_table(lam)
    assert o.cyclic_cocycle_defect(table, chunk=5) < 1e-12
    table[3, 5] *= 1j
    assert o.cyclic_cocycle_defect(table, chunk=5) > 0.5


@pytest.mark.parametrize("n", [5, 9])
def test_mul_star_norm_match_twistalg(n):
    a = phases(n - 1)
    f = make_f_alpha(n, scalars(a))
    table = o.f_alpha_table(a)
    x = RNG.normal(size=n) + 1j * RNG.normal(size=n)
    y = RNG.normal(size=n) + 1j * RNG.normal(size=n)
    ex, ey = AlgebraElement(f, scalars(x)), AlgebraElement(f, scalars(y))
    assert np.allclose(as_array(alg_mul(ex, ey).coeffs),
                       o.twisted_mul(table, x, y), atol=1e-10)
    assert np.allclose(as_array(alg_star(ex).coeffs),
                       o.twisted_star(table, x), atol=1e-12)
    assert alg_norm(ex) == pytest.approx(o.regular_norm(table, x), rel=1e-10)


def test_real_ring_norm_matches_twistalg():
    a = RNG.choice([-1.0, 1.0], size=6)
    f = make_f_alpha(7, scalars(a, REAL), REAL)
    x = RNG.normal(size=7)
    assert alg_norm(AlgebraElement(f, scalars(x, REAL))) == pytest.approx(
        o.regular_norm(o.f_alpha_table(a), x), rel=1e-10)


def test_laurent_values_match_pointwise_evaluation():
    n, m = 6, 2
    d = laurent(m)
    w = RNG.integers(-2, 3, size=(n - 1, m))
    c = phases(n - 1)
    f = make_f_alpha(n, [RingValue.monomial(d, cj, tuple(int(e) for e in wj))
                         for wj, cj in zip(w, c)])
    points = np.exp(2j * np.pi * RNG.random((4, m)))
    want = o.laurent_f_alpha_at([[(list(wj), cj)] for wj, cj in zip(w, c)],
                                points)
    for k, z in enumerate(points):
        prog = np.array([[v.eval_at(tuple(z)) for v in row]
                         for row in f.values])
        assert np.allclose(prog, want[k], atol=1e-12)


def test_laurent_grid_norm_matches_twistalg():
    n, m, grid = 4, 1, 16
    d = laurent(m)
    w = RNG.integers(-2, 3, size=(n - 1, m))
    c = phases(n - 1)
    f = make_f_alpha(n, [RingValue.monomial(d, cj, (int(wj[0]),))
                         for wj, cj in zip(w, c)])
    xs = {"0": [([1], 2.0)], "2": [([-1], 1j)]}
    x = AlgebraElement.zero(f)
    for label, terms in xs.items():
        x.coeffs[int(label)] = RingValue.poly(
            d, {tuple(e): complex(v) for e, v in terms})
    points = o.torus_grid(grid, m)
    mats = o.regular_matrices(
        o.laurent_f_alpha_at([[(list(wj), cj)] for wj, cj in zip(w, c)],
                             points), o.element_at(xs, n, points))
    want = np.max(np.linalg.norm(mats, ord=2, axis=(-2, -1)))
    assert alg_norm(x, grid=grid) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("k", [1, 3, 5])
def test_clifford_table_matches_clifford_cocycle(k):
    rho = phases(k)
    f = clifford_cocycle(CliffordSpec(list(range(1, k + 1)), scalars(rho),
                                      COMPLEX))
    prog = np.array([as_array(row) for row in f.values])
    assert np.allclose(prog, o.clifford_table(rho), atol=1e-12)


def test_rewrite_oracle_accepts_twistalg_and_rejects_a_short_check():
    rep = z2n_torus_rewrite(1, degree=2)
    o.check_rewrite(rep, (2 * 5) ** 2)
    with pytest.raises(o.OracleError):
        o.check_rewrite(rep, (2 * 5) ** 2 + 1)


# -- every generated job passes on twistalg; perturbed reports fail ----------

def run_job(tmp_path, job):
    """(report, exit code) of a CLI job; (returned object, None) of a
    library job."""
    if job.call is not None:
        return job.call(twistalg), None
    cfg, out = tmp_path / "cfg.json", tmp_path / "out.json"
    cfg.write_text(json.dumps(job.config))
    rc = cli_main([job.command, "--config", str(cfg), "--out", str(out),
                   *job.flags])
    return json.loads(out.read_text()), rc


def small_jobs(workload):
    """Every job of order <= 16, plus the smallest job of each subcommand
    and ring that has none, so every kind of oracle is exercised.  The
    rewrite check has a test of its own."""
    jobs = [j for j in make_pass(workload, 11, 0) if j.command != "rewrite"]
    kind = lambda j: (j.command, j.props["ring"])
    small = [j for j in jobs if j.props["order"] <= 16]
    for k in {kind(j) for j in jobs} - {kind(j) for j in small}:
        small.append(min((j for j in jobs if kind(j) == k),
                         key=lambda j: j.props["order"]))
    return small


def shift(value):
    """A printed scalar, or a Laurent term list, moved by 0.25."""
    if isinstance(value, list):
        return [[value[0][0], shift(value[0][1])]] + value[1:]
    return o.fmt_complex(o.parse_scalar(value) + 0.25)


def first_coeff(coeffs):
    key = next(iter(coeffs))
    coeffs[key] = shift(coeffs[key])


# wrong versions of a report, per subcommand; each must be rejected
PERTURBATIONS = {
    "validate": [lambda r: r.update(valid=not r["valid"])],
    "mul": [lambda r: first_coeff(r["result"]["coeffs"])],
    "star": [lambda r: first_coeff(r["result"]["coeffs"])],
    "norm": [lambda r: r.update(norm=repr(float(r["norm"]) * 1.01))],
    "classify": [lambda r: r.update(class_count=r["class_count"] + 1),
                 lambda r: r["classes"][0]["members"].pop()],
    "iso": [lambda r: r.update(verified=not r["verified"])],
    "clifford": [
        lambda r: r["cocycle"]["table"][1].__setitem__(
            1, shift(r["cocycle"]["table"][1][1])),
        lambda r: r["relations"].update(residual="1e-3"),
        lambda r: r["periodicity"]["report"].update(
            image_rank=r["periodicity"]["report"]["image_rank"] - 1),
        lambda r: r["periodicity"]["report"].update(mult_residual="1e-6"),
    ],
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_oracles_accept_twistalg_and_reject_perturbed_reports(tmp_path,
                                                              workload):
    checked = set()
    for job in small_jobs(workload):
        report, rc = run_job(tmp_path, job)
        job.check(report, rc)
        for mutate in PERTURBATIONS[job.command]:
            bad = copy.deepcopy(report)
            mutate(bad)
            with pytest.raises(o.OracleError):
                job.check(bad, rc)
        if rc is not None:
            with pytest.raises(o.OracleError):
                job.check(report, 2)
        checked.add(job.command)
    assert checked == {j.command for j in make_pass(workload, 11, 0)} - {
        "rewrite"}


def test_corrupted_table_must_be_reported_invalid(tmp_path):
    job = next(j for j in make_pass("cyclic_scalar", 3, 0)
               if j.command == "validate" and j.props["order"] == 64
               and j.config["cocycle"].get("table")
               and j.check.keywords.get("valid") is False)
    report, rc = run_job(tmp_path, job)
    job.check(report, rc)
    with pytest.raises(o.OracleError):
        job.check({"valid": True, "violations": []}, 0)


# -- smoke passes and the command's output contract -------------------------

@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_pass_has_no_failures(tmp_path, workload):
    runner = worker.JobRunner(tmp_path)
    try:
        records = runner.run_pass(make_pass(workload, 5, 0))
    finally:
        runner.close()
    assert [r["error"] for r in records if r["error"]] == []
    assert worker.end_to_end(records, len(records))["failed_frac"][
        "value"] == 0


def test_a_wrong_result_counts_as_a_failed_job(tmp_path):
    """The program is handed a different element than the oracle expects,
    so its (correct) answer is wrong for the job."""
    job = next(j for j in make_pass("cyclic_scalar", 5, 0)
               if j.command == "star")
    coeffs = job.config["x"]["coeffs"]
    label = next(iter(coeffs))
    coeffs[label] = shift(coeffs[label])
    runner = worker.JobRunner(tmp_path)
    try:
        records = runner.run_pass([job])
    finally:
        runner.close()
    assert "OracleError" in records[0]["error"]
    assert worker.end_to_end(records, 1)["failed_frac"]["value"] == 1.0


def test_meter_takes_its_handler_time_out_of_a_call():
    with speed.Meter() as meter:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass
    # edge timings before and after, and some from the handler during it
    assert len(meter.samples) > 2 * speed.EDGE_SAMPLES
    assert 0 < meter.spent < 0.2
    assert meter.scale() > 0
    with speed.Meter(active=False) as off:
        pass
    assert (off.samples, off.spent, off.scale()) == ([], 0.0, 1.0)


def test_command_prints_the_result_line_last():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload",
         "laurent_torus", "--seed", "5", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert "failed_frac" in proc.stdout


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "laurent_torus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
