"""Benchmark of the spherecomb command line and library.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sphere-deep --seed 1 --seconds 28 --trace 0

Each workload is a closed loop: one client in this process calls
``spherecomb.cli.main(argv)`` (or, for the Markov walk, the library) and
sends the next job when the previous one returns.  No worker count is
passed, so the CLI default is measured.  Inputs come from ``--seed`` (see
``inputs.py``); every output is checked (see ``checks.py``).

With ``--trace 0`` the job list is run in cycles until ``--seconds`` have
passed (at least once), with cold-start probes spread evenly between the
jobs, and the last line printed is a JSON object with the end-to-end
metrics:

    setup_s      median cold start of a fresh interpreter (setup_probe.py)
    run_s        wall time of the job list: the sum over jobs of the median
                 time of each job
    peak_rss_mb  peak RSS of this process or its children, during the jobs
    work_per_s   work units of the workload's counted jobs over the sum of
                 their median times: orbit nodes (sphere-deep), orbit rows x
                 characters (sphere-wide), levels x samples of Monte Carlo
                 jobs (stochastic), Cayley-ball elements (automata)

With ``--trace 1`` the list runs once untraced and once under the tracer of
``tracing.py`` (after a traced rebuild of the presets), and the metrics are
the per-layer ones.  Spans are saved to .perfbench_work/trace-<workload>.npz.

``--record-reference`` reruns every workload at the default seed and stores
the digests of the reports in reference.json; later runs at that seed on
the same platform must reproduce them byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = Path(".perfbench_work")
REFERENCE = HERE / "reference.json"
SPEC = ROOT / "BENCHMARK.json"
DEFAULT_SEED = 1
SETUP_PROBES = 9


def _load_program():
    if not (SRC / "spherecomb" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'spherecomb'}; run from a full checkout")
    sys.path.insert(0, str(SRC))


_load_program()

import numpy as np  # noqa: E402

from spherecomb import cli, markov, presets, spectral  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from setup_probe import cold_start  # noqa: E402
from tracing import Tracer  # noqa: E402


# ---------------------------------------------------------------------------
# running jobs


def _walk(params: dict) -> str:
    """The Markov walk job: sample_vertex_walk plus return_times per letter vertex."""
    graph = presets.preset(params["preset"]).graph
    model = markov.build_markov(graph, spectral.perron_data(spectral.transition_matrix(graph)))
    length = params["length"]
    walk = markov.sample_vertex_walk(model, graph.initial, length, params["seed"])
    visits = {
        str(j): markov.return_times(walk, j).t(length)
        for j in range(graph.n_vertices) if j != graph.initial
    }
    return json.dumps({"length": length, "visits": visits}, sort_keys=True) + "\n"


@dataclass
class Result:
    """One execution of a job: its time, its output, or what went wrong."""

    job: inputs.Job
    seconds: float
    text: str
    files: dict[str, str]
    error: str | None

    def digest(self) -> str:
        h = hashlib.sha256(self.text.encode())
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name].encode())
        return h.hexdigest()


def run_job(job: inputs.Job) -> Result:
    """One job, timed after a full garbage collection, so that it starts from
    the collector state of a fresh CLI process."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    gc.collect()
    t0 = perf_counter()
    try:
        if job.argv is None:
            out.write(_walk(job.params))
        else:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(job.argv))
            if rc != 0:
                error = f"exit code {rc}: {err.getvalue().strip()}"
    except (Exception, SystemExit):  # the loop goes on; the job counts as failed
        error = traceback.format_exc()
    seconds = perf_counter() - t0
    files = {}
    for name in job.outputs:
        try:
            files[name] = Path(name).read_text()
        except OSError as exc:
            error = error or f"output file {name}: {exc}"
    return Result(job, seconds, out.getvalue(), files, error)


def run_cycles(jobs: list[inputs.Job], seconds: float,
               probes: int = 0) -> tuple[list[Result], list[float | str]]:
    """The whole list once, then further jobs in order while each is expected
    (from its first time) to end within ``seconds``.

    ``probes`` cold starts run between jobs, the k-th once k/probes of
    ``seconds`` have passed, so that a slow spell of the machine cannot
    catch all of them; any left at the end run after the last job.
    """
    t0 = perf_counter()
    deadline = t0 + seconds
    results: list[Result] = []
    setups: list[float | str] = []
    i = 0
    while i < len(jobs) or perf_counter() + results[i % len(jobs)].seconds <= deadline:
        if len(setups) < probes and perf_counter() >= t0 + seconds * len(setups) / probes:
            setups.append(time_cold_start())
        results.append(run_job(jobs[i % len(jobs)]))
        i += 1
    setups += [time_cold_start() for _ in range(probes - len(setups))]
    return results, setups


def run_traced(jobs: list[inputs.Job], tracer: Tracer) -> list[Result]:
    """A traced warm-up with the preset cache emptied (job 0), then each job
    once (jobs 1..), so that the jobs find the same presets built as in the
    untraced run."""
    clear = getattr(presets.preset, "cache_clear", None)
    tracer.install()
    try:
        if clear is not None:
            clear()
        warm_up(jobs)
        results = []
        for i, job in enumerate(jobs, start=1):
            tracer.job_id = i
            results.append(run_job(job))
    finally:
        tracer.uninstall()
    return results


def warm_up(jobs: list[inputs.Job]) -> None:
    """Build every preset the jobs name, as a CLI call would before its work.

    This loads the ``user:`` automaton files too, so run_s leaves out
    reading them, in the traced run as in the untraced one.
    """
    cold_start()
    for job in jobs:
        if job.argv is not None and "--preset" in job.argv:
            presets.preset(job.argv[job.argv.index("--preset") + 1])


# ---------------------------------------------------------------------------
# checking


def platform_fingerprint() -> dict:
    """What the report bytes may depend on besides the program and its inputs."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
        simd = sorted(k for k, v in features.items() if v)
    except ImportError:
        simd = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "simd": simd,
    }


def _reference_digests(workload: str, seed: int) -> dict | None:
    if seed != DEFAULT_SEED or not REFERENCE.is_file():
        return None
    ref = json.loads(REFERENCE.read_text())
    if ref["platform"] != platform_fingerprint():
        return None
    return ref["digests"][workload]


def check_results(results: list[Result], reference: dict | None) -> tuple[int, list[str]]:
    """Failed executions and their problems.

    The first output of a job is checked in full; later ones must repeat it
    byte for byte and share its verdict.
    """
    failed, problems = 0, []
    verdicts: dict[str, tuple[str, list[str]]] = {}
    for r in results:
        name = r.job.name
        if r.error is not None:
            found = [r.error]
        elif name in verdicts:
            digest, first = verdicts[name]
            found = first if r.digest() == digest else ["output differs from the job's first run"]
        else:
            found = checks.check(r.job, r.text, r.files)
            if reference is not None and reference.get(name) != r.digest():
                found.append("report differs from the reference recorded at the default seed")
            verdicts[name] = (r.digest(), found)
        if found:
            failed += 1
            problems.extend(f"{name}: {p}" for p in found)
    return failed, problems


# ---------------------------------------------------------------------------
# measurements


def time_cold_start() -> float | str:
    """Seconds of one cold start in a fresh interpreter, or what went wrong."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), str(SRC)]
    proc = subprocess.run(probe, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        return f"setup probe failed: {proc.stderr.strip()[-500:]}"
    return float(proc.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def median_seconds(results: list[Result]) -> list[tuple[inputs.Job, float]]:
    per_job: dict[str, list[Result]] = {}
    for r in results:
        per_job.setdefault(r.job.name, []).append(r)
    return [(rs[0].job, statistics.median(r.seconds for r in rs)) for rs in per_job.values()]


def list_seconds(results: list[Result]) -> float:
    return sum(t for _, t in median_seconds(results))


def work_rate(workload: str, results: list[Result]) -> float:
    """Work of the counted jobs over the sum of their median times."""
    counted = [(job, t) for job, t in median_seconds(results)
               if job.kind in checks.WORK_KINDS[workload]]
    return sum(checks.work_units(job) for job, _ in counted) / sum(t for _, t in counted)


def environment(seed: int) -> dict:
    blas = None
    with contextlib.suppress(OSError, AttributeError, IndexError):
        import ctypes
        libdir = Path(np.__file__).parent.parent / "numpy.libs"
        lib = ctypes.CDLL(str(sorted(libdir.glob("*openblas*"))[0]))
        getter = lib.scipy_openblas_get_num_threads64_
        getter.restype, getter.argtypes = ctypes.c_int, []
        blas = getter()
    return {
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas,
        "commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository (git
    does not look above the checkout for one)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def declared(kind: str, values: dict[str, float]) -> dict:
    """The metrics BENCHMARK.json declares under ``kind``, with its units.

    A declared metric the run has no value for is left out: a per-layer
    metric of wrapped functions that a later change removed.
    """
    spec = json.loads(SPEC.read_text())[kind]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec if m["name"] in values}


# ---------------------------------------------------------------------------
# entry points


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    jobs = inputs.generate(workload, seed, WORKDIR)
    warm_up(jobs)
    detail: dict = {"env": environment(seed)}
    if not trace:
        results, probed = run_cycles(jobs, seconds, SETUP_PROBES)
        rss = peak_rss_mb()
        failed, problems = check_results(results, _reference_digests(workload, seed))
        setups = [t for t in probed if isinstance(t, float)]
        setup_problems = [t for t in probed if isinstance(t, str)]
        failed += len(setup_problems)
        problems += setup_problems
        attempted = len(results) + SETUP_PROBES
        metrics = declared("end_to_end", {
            "setup_s": statistics.median(setups) if setups else 0.0,
            "run_s": list_seconds(results),
            "peak_rss_mb": rss,
            "work_per_s": work_rate(workload, results),
        })
    else:
        untraced, _ = run_cycles(jobs, 0.0)
        tracer = Tracer()
        traced = run_traced(jobs, tracer)
        tracer.save(WORKDIR / f"trace-{workload}.npz", ["setup"] + [j.name for j in jobs])
        results = untraced + traced
        failed, problems = check_results(results, _reference_digests(workload, seed))
        attempted = len(results)
        base = list_seconds(untraced)
        layers = tracer.layer_metrics()
        layers["trace.overhead_frac"] = (list_seconds(traced) - base) / base
        if layers.get("spectral.residual_max", 0.0) > checks.RESIDUAL_TOL:
            failed += 1
            problems.append(f"perron_data: eigen-residual {layers['spectral.residual_max']}"
                            f" exceeds {checks.RESIDUAL_TOL}")
        metrics = declared("per_layer", layers)
    detail["jobs"] = {j.name: [round(r.seconds, 4) for r in results if r.job is j] for j in jobs}
    if not trace:
        detail["setup_s"] = [round(t, 4) for t in setups]
    detail["problems"] = problems
    print(json.dumps({"detail": detail}))
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def record_reference() -> None:
    digests = {}
    for workload in inputs.WORKLOADS:
        jobs = inputs.generate(workload, DEFAULT_SEED, WORKDIR)
        results = [run_job(job) for job in jobs]
        _, problems = check_results(results, None)
        if problems:
            sys.exit("perfbench: not recording a reference that fails its checks:\n"
                     + "\n".join(problems))
        digests[workload] = {r.job.name: r.digest() for r in results}
    REFERENCE.write_text(json.dumps(
        {"seed": DEFAULT_SEED, "platform": platform_fingerprint(), "digests": digests},
        indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    print(json.dumps(measure(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
