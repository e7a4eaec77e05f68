"""Output checks and work counts for the benchmark jobs.

Every check recomputes the expected values without the code path under
test.  Exact orbit averages are compared with two oracles: a brute-force one
(``enumerate_paths`` + ``word_act`` per path, levels n <= 7) and a
level-by-level numpy enumeration written here (all levels, inverse action).
Spectral results are compared with a dense eigensolve and with residuals
computed from the generated automaton.  A check returns a list of problems;
an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

import numpy as np

from spherecomb import algebra, combing, presets

MASK = (1 << 64) - 1
BRUTE_FORCE_MAX_N = 7
EXACT_TOL = 1e-10
MC_STDERRS = 5.0
FLOAT_SLACK = 1e-12
RAY_BOUND = 0.05
RETURN_FREQ_TOL = 0.01
RESIDUAL_TOL = 1e-10
PQ_TOL = 1e-12


# ---------------------------------------------------------------------------
# independent arithmetic


def fix64(x: list[Fraction]) -> list[int]:
    """Fractions rounded to the nearest k / 2**64, as the CLI documents."""
    return [round(f * (1 << 64)) & MASK for f in x]


def terms_of(params: dict) -> list[tuple[tuple[int, ...], complex]]:
    if "terms" in params:
        return [(tuple(k), complex(c[0], c[1])) for k, c in params["terms"]]
    return [(tuple(params["k"]), 1.0 + 0.0j)]


def function_sum(points: np.ndarray, terms) -> complex:
    """Sum of f over the rows of a (count, d) uint64 array of torus points."""
    if points.shape[0] == 0:
        return 0.0 + 0.0j
    k = np.array([[v & MASK for v in kk] for kk, _ in terms], dtype=np.uint64)
    coeffs = np.array([c for _, c in terms], dtype=np.complex128)
    phases = points @ k.T  # uint64 arithmetic wraps, i.e. is exact mod 2**64
    values = np.exp(1j * (phases.astype(np.float64) * (2.0 * math.pi / 2.0**64)))
    return complex((values @ coeffs).sum())


def brute_force_levels(graph, x: list[int], terms, n_max: int, inverse: bool):
    """(count, sum of f) per length n <= n_max, one word_act per enumerated path."""
    out = []
    d = graph.system.dim
    for n in range(n_max + 1):
        pts = [
            algebra.word_act(graph.path_word(p), algebra.TorusPoint(x), graph.system,
                             inverse=inverse).coords
            for p in combing.enumerate_paths(graph, graph.initial, n)
        ]
        arr = np.array(pts, dtype=np.uint64).reshape(-1, d)
        out.append((arr.shape[0], function_sum(arr, terms)))
    return out


def _int_matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _edge_inverse_mod(system, word) -> np.ndarray:
    """(s_1 ... s_k)^-1 = s_k^-1 ... s_1^-1, entries reduced mod 2**64."""
    m = [[int(i == j) for j in range(system.dim)] for i in range(system.dim)]
    for s in reversed(word):
        m = _int_matmul(m, system.matrix_of(system.inverse_of(s)).rows)
    return np.array([[v & MASK for v in row] for row in m], dtype=np.uint64)


def level_sums(graph, x: list[int], terms, n_max: int, starts, end=None):
    """(count, sum of f) per length over paths w from ``starts``, at w^-1 . x.

    Paths are extended one level at a time for the whole frontier; only
    paths ending at ``end`` (when given) contribute.
    """
    acts = [_edge_inverse_mod(graph.system, e.word) for e in graph.edges]
    pts = np.array([x] * len(starts), dtype=np.uint64)
    verts = np.array(starts, dtype=np.int64)
    out = []
    for n in range(n_max + 1):
        if n:
            new_pts, new_verts = [], []
            for e, act in zip(graph.edges, acts):
                sel = verts == e.src
                if sel.any():
                    new_pts.append(pts[sel] @ act.T)
                    new_verts.append(np.full(int(sel.sum()), e.dst, dtype=np.int64))
            pts = np.concatenate(new_pts) if new_pts else pts[:0]
            verts = np.concatenate(new_verts) if new_verts else verts[:0]
        keep = pts if end is None else pts[verts == end]
        out.append((keep.shape[0], function_sum(keep, terms)))
    return out


def path_counts(n_vertices: int, edges, start: int, n_max: int) -> list[int]:
    """Number of length-n paths from ``start``, n = 0..n_max, by forward counting."""
    cur = [0] * n_vertices
    cur[start] = 1
    out = [1]
    for _ in range(n_max):
        nxt = [0] * n_vertices
        for u, v in edges:
            nxt[v] += cur[u]
        cur = nxt
        out.append(sum(cur))
    return out


def orbit_nodes(graph, starts, n_max: int) -> int:
    """Enumeration-tree nodes of an exact orbit: paths of length 0..n_max
    from each start vertex."""
    edges = [(e.src, e.dst) for e in graph.edges]
    return sum(sum(path_counts(graph.n_vertices, edges, v, n_max)) for v in starts)


def free_sphere(n: int) -> int:
    """Sphere size in a free group of rank 2."""
    return 1 if n == 0 else 4 * 3 ** (n - 1)


def free_ball(r: int) -> int:
    return sum(free_sphere(n) for n in range(r + 1))


def perron(a: np.ndarray):
    """Perron root with right and left eigenvectors, by a dense eigensolve."""
    w, vr = np.linalg.eig(a)
    i = int(np.argmax(w.real))
    wl, vl = np.linalg.eig(a.T)
    j = int(np.argmax(wl.real))
    return float(w[i].real), np.abs(vr[:, i].real), np.abs(vl[:, j].real)


def period(n: int, edges) -> int:
    """Period of a strongly connected digraph: gcd of level differences along edges."""
    out_adj = [[] for _ in range(n)]
    for u, v in edges:
        out_adj[u].append(v)
    level = [-1] * n
    level[0] = 0
    todo = [0]
    for u in todo:
        for v in out_adj[u]:
            if level[v] < 0:
                level[v] = level[u] + 1
                todo.append(v)
    g = 0
    for u, v in edges:
        g = math.gcd(g, level[u] + 1 - level[v])
    return g


def residuals(a: np.ndarray, lam: float, p: np.ndarray, q: np.ndarray) -> float:
    """max(|Ap - lam p| / (lam |p|_inf), |qA - lam q| / (lam |q|_inf))."""
    right = float(np.max(np.abs(a @ p - lam * p))) / (lam * float(np.max(np.abs(p))))
    left = float(np.max(np.abs(q @ a - lam * q))) / (lam * float(np.max(np.abs(q))))
    return max(right, left)


# ---------------------------------------------------------------------------
# report parsing


def _complex(pair) -> complex:
    return complex(pair[0], pair[1])


def parse_series(text: str) -> dict:
    """Rows of an equidist report, CSV or JSON, as plain Python values."""
    if text.startswith("{"):
        obj = json.loads(text)
        res = obj["results"]
        return {
            "mode": obj["config"]["mode"],
            "basepoint": res["basepoint_fix64"],
            "n": res["n"],
            "count": res["path_count"],
            "sph": [_complex(v) for v in res["spherical"]],
            "ces": [_complex(v) for v in res["cesaro"]],
            "stderr": res["stderr"],
        }
    rows = list(csv.DictReader(io.StringIO(text)))
    return {
        "mode": rows[0]["mode"] if rows else None,
        "basepoint": None,
        "n": [int(r["n"]) for r in rows],
        "count": [int(r["path_count"]) for r in rows],
        "sph": [complex(float(r["spherical_re"]), float(r["spherical_im"])) for r in rows],
        "ces": [complex(float(r["cesaro_re"]), float(r["cesaro_im"])) for r in rows],
        "stderr": [float(r["stderr"]) if r["stderr"] else None for r in rows],
    }


def _close(a: complex, b: complex, tol: float) -> bool:
    return abs(a - b) <= tol


# ---------------------------------------------------------------------------
# checks per job kind


def _series_common(job, s: dict, mode: str) -> list[str]:
    p = job.params
    n_max = p["n_max"]
    graph = presets.preset(p["preset"]).graph
    problems = []
    if s["n"] != list(range(1, n_max + 1)):
        return [f"levels {s['n']} are not 1..{n_max}"]
    if s["mode"] != mode:
        problems.append(f"mode {s['mode']!r}, expected {mode!r}")
    want = [combing.count_paths(graph, graph.initial, n) for n in range(1, n_max + 1)]
    if s["count"] != want:
        problems.append(f"path counts {s['count']} != count_paths {want}")
    if s["basepoint"] is not None and s["basepoint"] != fix64(p["x"]):
        problems.append("basepoint echo differs from the requested fractions")
    acc = 0.0 + 0.0j
    for i, (sph, ces) in enumerate(zip(s["sph"], s["ces"]), start=1):
        acc += sph
        if not _close(ces, acc / i, FLOAT_SLACK):
            problems.append(f"cesaro at n={i} is not the running mean of the spherical averages")
            break
    return problems


def check_exact(job, text: str) -> list[str]:
    p = job.params
    s = parse_series(text)
    problems = _series_common(job, s, "exact")
    if problems:
        return problems
    if any(e is not None for e in s["stderr"]):
        problems.append("exact report carries standard errors")
    graph = presets.preset(p["preset"]).graph
    x, terms = fix64(p["x"]), terms_of(p)
    inverse = not p.get("forward", False)
    n_brute = min(p["n_max"], BRUTE_FORCE_MAX_N)
    for n, (cnt, total) in enumerate(brute_force_levels(graph, x, terms, n_brute, inverse)):
        if n and not _close(s["sph"][n - 1], total / cnt, EXACT_TOL):
            problems.append(f"spherical average at n={n} differs from the brute-force oracle")
    if inverse and len(terms) == 1:
        levels = level_sums(graph, x, terms, p["n_max"], [graph.initial])
        for n, (cnt, total) in enumerate(levels):
            if n and not _close(s["sph"][n - 1], total / cnt, EXACT_TOL):
                problems.append(f"spherical average at n={n} differs from the level oracle")
    return problems


def check_mc(job, text: str) -> list[str]:
    p = job.params
    s = parse_series(text)
    problems = _series_common(job, s, "mc")
    if problems:
        return problems
    graph = presets.preset(p["preset"]).graph
    levels = level_sums(graph, fix64(p["x"]), terms_of(p), p["n_max"], [graph.initial])
    for n, (cnt, total) in enumerate(levels):
        if not n:
            continue
        err = s["stderr"][n - 1]
        if err is None or not _close(s["sph"][n - 1], total / cnt, MC_STDERRS * err + FLOAT_SLACK):
            problems.append(f"MC estimate at n={n} is more than {MC_STDERRS} stderr from exact")
    return problems


def _weighted_value(job, text: str, expected: complex) -> list[str]:
    res = json.loads(text)["results"]
    problems = []
    if res["basepoint_fix64"] != fix64(job.params["x"]):
        problems.append("basepoint echo differs from the requested fractions")
    if not _close(_complex(res["value"]), expected, EXACT_TOL):
        problems.append(f"value {res['value']} differs from the oracle {expected}")
    # a nonzero character has Haar integral 0, so every predicted limit is 0
    if not _close(_complex(res["predicted_limit"]), 0.0, FLOAT_SLACK):
        problems.append(f"predicted limit {res['predicted_limit']} is not 0")
    return problems


def check_kappa(job, text: str) -> list[str]:
    p = job.params
    graph = presets.preset(p["preset"]).graph
    n_max = p["n_max"]
    starts = list(range(graph.n_vertices))
    levels = level_sums(graph, fix64(p["x"]), terms_of(p), n_max, starts)
    expected = sum(total / cnt for cnt, total in levels[1:]) / n_max
    return _weighted_value(job, text, expected)


def check_markov_cesaro(job, text: str) -> list[str]:
    p = job.params
    graph = presets.preset(p["preset"]).graph
    n_max, i, j = p["n_max"], p["start"], p["end"]
    a = np.zeros((graph.n_vertices, graph.n_vertices))
    for e in graph.edges:
        a[e.src, e.dst] += 1
    lam, right, left = perron(a)
    weight = left[i] * right[j] / float(left @ right)
    levels = level_sums(graph, fix64(p["x"]), terms_of(p), n_max, [i], end=j)
    expected = sum(weight / lam**n * total for n, (_, total) in enumerate(levels) if n) / n_max
    return _weighted_value(job, text, expected)


def check_ray(job, text: str) -> list[str]:
    res = json.loads(text)["results"]
    problems = []
    value = _complex(res["ray_average"])
    if abs(value) > RAY_BOUND:
        problems.append(f"|ray average| = {abs(value)} exceeds {RAY_BOUND}")
    if not _close(abs(value), res["ray_average_abs"], FLOAT_SLACK):
        problems.append("ray_average_abs is not |ray_average|")
    word = res["word_prefix"]
    inverse = {"a": "A", "A": "a", "b": "B", "B": "b"}
    if len(word) != 40 or any(s not in inverse for s in word):
        problems.append(f"word prefix {word!r} is not 40 generator letters")
    elif any(inverse[s] == t for s, t in zip(word, word[1:])):
        problems.append(f"word prefix {word!r} is not freely reduced, so not geodesic")
    return problems


def check_walk(job, text: str) -> list[str]:
    res = json.loads(text)
    length = job.params["length"]
    problems = []
    if sorted(res["visits"]) != ["1", "2", "3", "4"]:
        return [f"visit counts for vertices {sorted(res['visits'])}, expected 1..4"]
    for j, t in res["visits"].items():
        if abs(t / length - 0.25) > RETURN_FREQ_TOL:
            problems.append(f"T_{j}(N)/N = {t / length} is not within {RETURN_FREQ_TOL} of 1/4")
    return problems


def check_tv(job, text: str) -> list[str]:
    rows = list(csv.DictReader(io.StringIO(text)))
    n_max = job.params["n_max"]
    if [int(r["n"]) for r in rows] != list(range(1, n_max + 1)):
        return ["tv report does not list n = 1..n_max"]
    tv = [float(r["tv"]) for r in rows]
    problems = []
    if any(not 0.0 <= v <= 1.0 for v in tv):
        problems.append("a total variation distance lies outside [0, 1]")
    if tv[11] > 0.01:
        problems.append(f"tv at n=12 is {tv[11]} > 0.01")
    if any(b > a + 1e-15 for a, b in zip(tv[3:], tv[4:])):
        problems.append("tv increases after n=4")
    return problems


def check_build(job, text: str, files: dict[str, str]) -> list[str]:
    p = job.params
    res = json.loads(text)["results"]
    problems = []
    want = [free_sphere(n) for n in range(p["verify_radius"] + 1)]
    if res["sphere_counts"] != want or res["verified_to_radius"] != p["verify_radius"]:
        problems.append(f"summary sphere counts {res['sphere_counts']} != {want}")
    saved = json.loads(files[job.outputs[0]])
    gens = {g["label"]: g["matrix"] for g in saved["generators"]}
    m = p["m"]
    if gens != {"a": [[1, m], [0, 1]], "A": [[1, -m], [0, 1]],
                "b": [[1, 0], [m, 1]], "B": [[1, 0], [-m, 1]]}:
        problems.append("saved generators differ from the input group")
    edges = [(u, v) for u, v, _ in saved["edges"]]
    if (res["n_vertices"], res["n_edges"]) != (saved["vertices"], len(edges)):
        problems.append("summary size differs from the saved automaton")
    depth = p["radius"] + 3
    got = path_counts(saved["vertices"], edges, saved["initial"], depth)
    if got != [free_sphere(n) for n in range(depth + 1)]:
        problems.append(f"saved automaton sphere counts {got} are not 4*3^(n-1)")
    return problems


def check_spheres(job, text: str) -> list[str]:
    rows = list(csv.DictReader(io.StringIO(text)))
    n_max = job.params["n_max"]
    if [int(r["n"]) for r in rows] != list(range(n_max + 1)):
        return ["spheres report does not list n = 0..n_max"]
    problems = []
    for r in rows:
        want = free_sphere(int(r["n"]))
        if (int(r["path_count"]), int(r["cayley_count"]), r["match"]) != (want, want, "true"):
            problems.append(f"row {r} does not show {want} matching elements")
    return problems


def check_analyze(job, text: str) -> list[str]:
    p = job.params
    res = json.loads(text)["results"]
    n, edges = p["n"], p["edges"]
    problems = []
    if (res["n_vertices"], res["n_edges"]) != (n, len(edges)):
        problems.append("reported size differs from the generated automaton")
    h = period(n, edges)
    if res["p_star"] != h or res["primitive"] != (h == 1):
        problems.append(f"p* = {res['p_star']}, primitive = {res['primitive']}; period is {h}")
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] += 1
    pv, qv = np.array(res["p"]), np.array(res["q"])
    r = residuals(a, res["lam"], pv, qv)
    if not r <= RESIDUAL_TOL:
        problems.append(f"eigen-residual {r} exceeds {RESIDUAL_TOL}")
    if not abs(float(pv @ qv) - 1.0) <= PQ_TOL:
        problems.append(f"sum p_i q_i = {float(pv @ qv)!r}, not 1")
    return problems


CHECKS = {
    "exact": check_exact,
    "mc": check_mc,
    "kappa": check_kappa,
    "markov-cesaro": check_markov_cesaro,
    "ray": check_ray,
    "walk": check_walk,
    "tv": check_tv,
    "spheres": check_spheres,
    "analyze": check_analyze,
}


def check(job, text: str, files: dict[str, str]) -> list[str]:
    """Problems with one job's output; malformed output is a problem too."""
    try:
        if job.kind == "build":
            return check_build(job, text, files)
        return CHECKS[job.kind](job, text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]


# ---------------------------------------------------------------------------
# work counts (independent of the implementation, so rates compare across PRs)


# The job kinds whose work makes up each workload's ``work_per_s``; the
# other jobs count only in run_s.
WORK_KINDS = {
    "sphere-deep": ("exact", "kappa", "markov-cesaro"),  # orbit nodes
    "sphere-wide": ("exact",),  # orbit rows x characters
    "stochastic": ("mc",),  # levels x samples
    "automata": ("build", "spheres"),  # Cayley-ball elements
}


def work_units(job) -> int:
    """Work of one execution: orbit nodes for exact enumeration, orbit rows x
    characters for many-term functions, levels x samples for Monte Carlo,
    Cayley-ball elements for combing builds and cross-checks."""
    p = job.params
    if job.kind in ("exact", "kappa", "markov-cesaro"):
        graph = presets.preset(p["preset"]).graph
        if job.kind == "kappa":
            starts = range(graph.n_vertices)
        else:
            starts = [p.get("start", graph.initial)]
        nodes = orbit_nodes(graph, starts, p["n_max"])
        return nodes * len(p["terms"]) if "terms" in p else nodes
    if job.kind == "mc":
        return p["n_max"] * p["samples"]
    if job.kind == "build":
        return free_ball(p["radius"]) + free_ball(p["verify_radius"])
    if job.kind == "spheres":
        return free_ball(p["n_max"])
    return 0
