"""Seeded inputs for the benchmark workloads.

Everything the program sees comes from here: CLI argument lists and the
automaton files they name.  The same seed gives the same jobs and the same
file bytes.  Sizes (depths, sample counts, automaton sizes) are fixed per
workload so that timings compare across seeds; the seed only moves values:
basepoints, frequencies, coefficients, sampler seeds and graph structure.

Jobs are sized to about a second each, so that a run repeats every job
several times and a job's median time shrugs off a slow spell of a shared
machine.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("sphere-deep", "sphere-wide", "stochastic", "automata")

# Free groups for build-combing: <[[1,m],[0,1]], [[1,0],[m,1]]> is free for m >= 2.
FREE_GROUP_MS = (2, 3, 4)
# Random strongly connected automata for analyze; the 200-vertex one is bipartite.
AUTOMATON_SIZES = ((100, False), (200, True), (300, False))


@dataclass(frozen=True)
class Job:
    """One call into the program and what its output checks need to know.

    ``argv`` is a ``spherecomb`` command line, or None for the Markov walk,
    which has no subcommand and goes through the library.  ``outputs`` lists
    files the job writes, which belong to its output.
    """

    name: str
    kind: str
    argv: tuple[str, ...] | None
    params: dict
    outputs: tuple[str, ...] = ()


def _prime_at_least(n: int) -> int:
    while True:
        if n > 1 and all(n % p for p in range(2, int(n**0.5) + 1)):
            return n
        n += 1


def _basepoint(rng: random.Random, dim: int) -> list[Fraction]:
    """Fractions with distinct large prime denominators, one per coordinate."""
    out = []
    for _ in range(dim):
        q = _prime_at_least(rng.randrange(10**6, 10**7))
        out.append(Fraction(rng.randrange(1, q), q))
    return out


def _character(rng: random.Random, dim: int, bound: int) -> tuple[int, ...]:
    while True:
        k = tuple(rng.randint(-bound, bound) for _ in range(dim))
        if any(k):
            return k


def _terms(rng: random.Random, count: int, bound: int) -> list:
    return [
        [[rng.randint(-bound, bound), rng.randint(-bound, bound)],
         [round(rng.uniform(-1, 1), 6), round(rng.uniform(-1, 1), 6)]]
        for _ in range(count)
    ]


def _x_arg(x: list[Fraction]) -> str:
    return ",".join(f"{f.numerator}/{f.denominator}" for f in x)


def _k_arg(k: tuple[int, ...]) -> str:
    # passed as --k=..., since a value starting with "-" would read as a flag
    return ",".join(str(v) for v in k)


def _cli_job(name, kind, argv, outputs=(), **params) -> Job:
    return Job(name, kind, tuple(str(a) for a in argv), params, tuple(outputs))


def _orbit_job(name, kind, command, preset, x, n_max, extra=(), **params) -> Job:
    """A job whose report is an orbit average; k or terms go in ``params``."""
    if "terms" in params:
        f_args = ["--function", json.dumps(params["terms"])]
    else:
        f_args = [f"--k={_k_arg(params['k'])}"]
    argv = [command, "--preset", preset, "--basepoint", _x_arg(x), *f_args,
            "--n-max", n_max, *extra]
    return _cli_job(name, kind, argv, preset=preset, x=x, n_max=n_max, **params)


def free_group_file(m: int) -> dict:
    """Automaton file of the free group on [[1,m],[0,1]], [[1,0],[m,1]].

    The automaton is the no-backtracking one of the free basis, so its
    spheres have 4 * 3**(n-1) elements.
    """
    gens = [("a", "A", [[1, m], [0, 1]]), ("A", "a", [[1, -m], [0, 1]]),
            ("b", "B", [[1, 0], [m, 1]]), ("B", "b", [[1, 0], [-m, 1]])]
    labels = [g[0] for g in gens]
    inverse = {g[0]: g[1] for g in gens}
    edges = [[0, 1 + i, s] for i, s in enumerate(labels)]
    for i, s in enumerate(labels):
        for j, t in enumerate(labels):
            if t != inverse[s]:
                edges.append([1 + i, 1 + j, t])
    return {
        "dim": 2,
        "generators": [{"label": s, "inverse": t, "matrix": mat} for s, t, mat in gens],
        "vertices": 5,
        "initial": 0,
        "edges": edges,
    }


def random_automaton(rng: random.Random, n: int, bipartite: bool) -> list[tuple[int, int]]:
    """Edge list of a random strongly connected digraph on n vertices.

    A random Hamiltonian cycle makes it strongly connected and 2n random
    edges are added.  A bipartite graph gets a 2-cycle, so its period is
    exactly 2; otherwise a self-loop makes it aperiodic.
    """
    order = list(range(n))
    rng.shuffle(order)
    if bipartite:
        half = n // 2
        left, right = order[:half], order[half:]
        cycle = [v for pair in zip(left, right) for v in pair]
        extra = []
        for _ in range(2 * n):
            if rng.random() < 0.5:
                extra.append((rng.choice(left), rng.choice(right)))
            else:
                extra.append((rng.choice(right), rng.choice(left)))
        extra += [(left[0], right[-1]), (right[-1], left[0])]
    else:
        cycle = order
        extra = [(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)]
        extra.append((order[0], order[0]))
    edges = {(cycle[i], cycle[(i + 1) % n]) for i in range(n)} | set(extra)
    return sorted(edges)


def _automaton_file(edges: list[tuple[int, int]], n: int) -> dict:
    return {
        "dim": 1,
        "generators": [{"label": "a", "inverse": "A", "matrix": [[1]]},
                       {"label": "A", "inverse": "a", "matrix": [[1]]}],
        "vertices": n,
        "initial": 0,
        "edges": [[u, v, "a"] for u, v in edges],
    }


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, indent=1) + "\n")


def _sphere_deep(rng: random.Random, workdir: Path) -> list[Job]:
    start, end = rng.randint(1, 4), rng.randint(1, 4)
    return [
        _orbit_job("equidist-sanov-n11", "exact", "equidist", "free2_sanov",
                   _basepoint(rng, 2), 11, ["--mode", "exact"], k=_character(rng, 2, 3)),
        _orbit_job("equidist-symbolic-n11", "exact", "equidist", "free2_symbolic",
                   _basepoint(rng, 2), 11, ["--mode", "exact"], k=_character(rng, 2, 3)),
        _orbit_job("kappa-all-starts-n9", "kappa", "kappa", "free2_sanov",
                   _basepoint(rng, 2), 9, k=_character(rng, 2, 3)),
        _orbit_job("markov-cesaro-n11", "markov-cesaro", "markov-cesaro", "free2_sanov",
                   _basepoint(rng, 2), 11, ["--start", start, "--end", end],
                   k=_character(rng, 2, 3), start=start, end=end),
        _orbit_job("equidist-forward-n10", "exact", "equidist", "free2_sanov",
                   _basepoint(rng, 2), 10, ["--mode", "exact", "--forward"],
                   k=_character(rng, 2, 3), forward=True),
        _orbit_job("equidist-parabolic-n12", "exact", "equidist", "z_parabolic",
                   _basepoint(rng, 2), 12, ["--mode", "exact"], k=_character(rng, 2, 3)),
        _orbit_job("equidist-dinf-n12", "exact", "equidist", "dinf_involutions",
                   _basepoint(rng, 3), 12, ["--mode", "exact"], k=_character(rng, 3, 3)),
    ]


def _sphere_wide(rng: random.Random, workdir: Path) -> list[Job]:
    return [
        _orbit_job(f"equidist-128-terms-{fmt}", "exact", "equidist", "free2_sanov",
                   _basepoint(rng, 2), 10, ["--mode", "exact", *extra],
                   terms=_terms(rng, 128, 8), json_report=bool(extra))
        for fmt, extra in (("csv", []), ("json", ["--json"]))
    ]


def _stochastic(rng: random.Random, workdir: Path) -> list[Job]:
    samples = 1000
    mc = ["--mode", "mc", "--samples", samples]
    return [
        _orbit_job("mc-sanov-n12", "mc", "equidist", "free2_sanov", _basepoint(rng, 2), 12,
                   [*mc, "--seed", rng.randrange(2**31)], k=_character(rng, 2, 3),
                   samples=samples),
        _orbit_job("mc-dinf-n12", "mc", "equidist", "dinf_involutions", _basepoint(rng, 3), 12,
                   [*mc, "--seed", rng.randrange(2**31)], k=_character(rng, 3, 3),
                   samples=samples),
        _cli_job("sample-geodesic-100k", "ray",
                 ["sample-geodesic", "--preset", "free2_sanov", "--basepoint",
                  _x_arg(_basepoint(rng, 2)), f"--k={_k_arg(_character(rng, 2, 3))}",
                  "--length", 100_000, "--seed", rng.randrange(2**31)],
                 preset="free2_sanov", length=100_000),
        Job("vertex-walk-1m", "walk", None,
            {"preset": "free2_sanov", "length": 1_000_000, "seed": rng.randrange(2**31)}),
        _cli_job("tv-dinf-n14", "tv", ["tv", "--preset", "dinf_involutions", "--n-max", 14],
                 n_max=14),
    ]


def _automata(rng: random.Random, workdir: Path) -> list[Job]:
    jobs = []
    for m in FREE_GROUP_MS:
        src = workdir / f"free_m{m}.json"
        _write_json(src, free_group_file(m))
        out = workdir / f"combed_m{m}.json"
        jobs.append(_cli_job(
            f"build-combing-m{m}", "build",
            ["build-combing", "--preset", f"user:{src}", "--radius", 8, "--lookahead", 2,
             "--verify-radius", 6, "--output", out],
            outputs=[str(out)], m=m, radius=8, verify_radius=6))
    for m in FREE_GROUP_MS:
        jobs.append(_cli_job(
            f"spheres-cross-check-m{m}", "spheres",
            ["spheres", "--preset", f"user:{workdir / f'free_m{m}.json'}", "--n-max", 8,
             "--cross-check"], n_max=8))
    for n, bipartite in AUTOMATON_SIZES:
        edges = random_automaton(rng, n, bipartite)
        path = workdir / f"automaton_{n}.json"
        _write_json(path, _automaton_file(edges, n))
        jobs.append(_cli_job(f"analyze-{n}", "analyze",
                             ["analyze", "--preset", f"user:{path}"],
                             n=n, edges=edges, bipartite=bipartite))
    # A few milliseconds of orbit work on a user: file: it keeps the equidist
    # layer's traced self time from reading 0 on every run of this workload.
    m = rng.choice(FREE_GROUP_MS)
    jobs.append(_orbit_job(f"equidist-user-m{m}-n6", "exact", "equidist",
                           f"user:{workdir / f'free_m{m}.json'}", _basepoint(rng, 2), 6,
                           ["--mode", "exact"], k=_character(rng, 2, 3)))
    return jobs


_GENERATORS = {
    "sphere-deep": _sphere_deep,
    "sphere-wide": _sphere_wide,
    "stochastic": _stochastic,
    "automata": _automata,
}


def generate(workload: str, seed: int, workdir: Path) -> list[Job]:
    """The workload's job list for a seed; automaton files go to ``workdir``.

    ``workdir`` should be relative to the directory the jobs run in, because
    file names appear in the reports, which must not depend on where the
    checkout lives.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"), workdir)
