"""Self-tests of the benchmark: its checks, its tracer and its input generator.

Run from the root of a checkout with

    python3 -m pytest perfbench/selftest.py -q

The file name keeps it out of the repository's default test collection.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

import inputs
import run
from spherecomb import cli
from tracing import Tracer


def _exact_job(n_max: int = 9) -> inputs.Job:
    x = [Fraction(123457, 1000003), Fraction(654321, 999983)]
    argv = ["equidist", "--preset", "free2_sanov", "--basepoint", "123457/1000003,654321/999983",
            "--k=2,-1", "--n-max", str(n_max), "--mode", "exact"]
    return inputs.Job("exact", "exact", tuple(argv), {"preset": "free2_sanov", "x": x,
                                                      "n_max": n_max, "k": (2, -1)})


def _mc_job() -> inputs.Job:
    x = [Fraction(1, 1000003), Fraction(2, 999983), Fraction(3, 1000033)]
    argv = ["equidist", "--preset", "dinf_involutions", "--basepoint",
            "1/1000003,2/999983,3/1000033", "--k=1,-2,3", "--n-max", "5", "--mode", "mc",
            "--samples", "200", "--seed", "9"]
    return inputs.Job("mc", "mc", tuple(argv), {"preset": "dinf_involutions", "x": x,
                                                "n_max": 5, "k": (1, -2, 3), "samples": 200})


def _rewrite_csv(text: str, edit) -> str:
    rows = list(csv.DictReader(io.StringIO(text)))
    for row in rows:
        edit(row)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _perturbed(text: str, n: int, delta: float) -> str:
    """Shift the spherical average at n, and the Cesaro means with it, so
    that only a comparison with an oracle can notice."""
    def edit(row):
        m = int(row["n"])
        if m == n:
            row["spherical_re"] = repr(float(row["spherical_re"]) + delta)
        if m >= n:
            row["cesaro_re"] = repr(float(row["cesaro_re"]) + delta / m)
    return _rewrite_csv(text, edit)


def _failed(result: run.Result) -> int:
    return run.check_results([result], None)[0]


@pytest.fixture(scope="module")
def exact_result() -> run.Result:
    result = run.run_job(_exact_job())
    assert result.error is None
    return result


def test_correct_report_passes(exact_result):
    assert run.check_results([exact_result], None) == (0, [])


@pytest.mark.parametrize("n", [3, 9])  # 3 is in reach of the brute-force oracle, 9 is not
def test_perturbed_value_fails(exact_result, n):
    r = run.Result(exact_result.job, 0.0, _perturbed(exact_result.text, n, 1e-9), {}, None)
    failed, problems = run.check_results([r], None)
    assert failed == 1 and "oracle" in problems[0]


def test_wrong_path_count_fails(exact_result):
    def edit(row):
        if row["n"] == "5":
            row["path_count"] = str(int(row["path_count"]) + 1)
    wrong = _rewrite_csv(exact_result.text, edit)
    assert _failed(run.Result(exact_result.job, 0.0, wrong, {}, None)) == 1


def test_repeat_with_other_bytes_fails(exact_result):
    changed = run.Result(exact_result.job, 0.0, exact_result.text + "\n", {}, None)
    failed, problems = run.check_results([exact_result, changed], None)
    assert failed == 1 and "differs from the job's first run" in problems[0]


def test_traced_and_untraced_reports_are_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    jobs = [_exact_job(6), _mc_job()]
    untraced = [run.run_job(job) for job in jobs]
    main = cli.main
    tracer = Tracer()
    traced = run.run_traced(jobs, tracer)
    assert cli.main is main  # wrappers are gone again
    assert [r.text for r in traced] == [r.text for r in untraced]
    assert run.check_results(untraced + traced, None) == (0, [])
    metrics = tracer.layer_metrics()
    assert metrics["cli.calls"] >= len(jobs)
    assert metrics["equidist.orbit_nodes_per_s"] > 0
    assert metrics["markov.suffix_samples_per_s"] > 0
    assert metrics["algebra.matmul_calls"] > 0  # the traced preset rebuild
    assert all(metrics[f"{layer}.errors"] == 0 for layer in ("cli", "equidist", "markov"))


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_generator_is_deterministic(tmp_path, monkeypatch, workload):
    monkeypatch.chdir(tmp_path)

    def snapshot(seed):
        jobs = inputs.generate(workload, seed, Path("work"))
        files = {p.name: p.read_bytes() for p in sorted(Path("work").iterdir())}
        return jobs, files

    first = snapshot(5)
    assert snapshot(5) == first
    assert snapshot(6)[0] != first[0]


def test_work_units_follow_the_inputs():
    job = _exact_job(3)
    assert run.checks.work_units(job) == 1 + 4 + 12 + 36
    mc = _mc_job()
    assert run.checks.work_units(mc) == 5 * 200


def test_analyze_check_recomputes_residuals(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    job = next(j for j in inputs.generate("automata", 2, Path("work")) if j.name == "analyze-200")
    result = run.run_job(job)
    assert run.check_results([result], None) == (0, [])
    report = json.loads(result.text)
    assert report["results"]["p_star"] == 2
    report["results"]["lam"] *= 1 + 1e-9
    bad = run.Result(job, 0.0, json.dumps(report), {}, None)
    assert _failed(bad) == 1


def _installed_metrics() -> dict[str, float]:
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    return tracer.layer_metrics()


def test_declared_metrics_are_the_computed_ones():
    spec = json.loads(run.SPEC.read_text())
    assert set(_installed_metrics()) | {"trace.overhead_frac"} == {
        m["name"] for m in spec["per_layer"]}
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "run_s", "peak_rss_mb", "work_per_s"}


def test_metric_of_a_removed_function_is_left_out(monkeypatch):
    from spherecomb import equidist
    monkeypatch.delattr(equidist.TestFunction, "evaluate")
    metrics = _installed_metrics()
    assert "equidist.evaluate_calls" not in metrics
    assert metrics["equidist.orbit_nodes_per_s"] == 0  # exists, did no work
    assert "equidist.evaluate_calls" not in run.declared("per_layer", metrics)


def test_setup_probes_are_spread_over_the_run(monkeypatch):
    times = iter(range(1, 100))
    monkeypatch.setattr(run, "time_cold_start", lambda: float(next(times)))
    results, setups = run.run_cycles([_exact_job(3)], 0.5, probes=4)
    assert setups == [1.0, 2.0, 3.0, 4.0]
    assert len(results) >= 1 and all(r.error is None for r in results)
