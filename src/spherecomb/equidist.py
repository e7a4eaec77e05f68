"""Averaging operators for group orbits on the torus.

Spherical averages push a basepoint around by the inverses of all group
elements of one length (enumerated as combing paths) and average a test
function; Cesaro, counting-weighted and Markov-weighted variants follow.
All exact-mode enumeration shares one kernel that records the orbit
coordinates per path length as unsigned 64-bit arrays, so a whole family of
characters can be averaged from a single pass.  Rows, and so sums, are in
path-lexicographic edge order.  Every walk moves one state: a path's row
(w^-1.x)^T, or the matrix w in forward mode, which an edge e right-multiplies
by R_e from one edge-action table, in path order.  The kernel splits a path
as w = p s at half the depth.  It grows the prefixes p level by level, builds
once, per automaton vertex, a table of the suffixes s that leave it (their
matrices s^-1, or their points s.x in forward mode), and forms each level by
one matrix product per vertex, of the states of the prefixes that end there
with that vertex's table; each prefix's rows fill one contiguous range.  An
end filter seeds the suffix tables at the end vertex only, and the counting
average over all start vertices shares one set of suffix tables.  Character
sums are reduced block by block: each block of rows is evaluated and summed
pairwise on its own, with compensated accumulation across blocks, and a
frequency that several terms of a test function share is summed once.  A
block is evaluated for a chunk of up to ``_CHUNK`` distinct frequencies at
once: one uint64 product gives all their exact phases, and ``exp`` runs in
place on a preallocated buffer, so the Python work of a block is shared by
the whole chunk.  The chunks are
summed on a pool of threads sized from the CPUs the process may run on, and
the terms are then combined in order, so no sum depends on the CPU count or
on the chunks.

Monte Carlo counterparts draw paths from the prefix-then-uniform measure or
follow a single Markov ray; both are deterministic given a seed.  Monte Carlo
draws each level's paths by one ``LambdaPrime.sample_array`` call, a ray its
edges as one array of the chain walk that ``sample_path`` takes.  Both then
right-multiply the same uint64 states on whole arrays, from one edge-action
table per call: Monte Carlo advances every sample one edge position at a
time, and a ray takes the prefix products of its R_e by a two-pass scan in
chunks, O(1) products per step.
One helper evaluates the test function on an array of points, each
distinct frequency by the same phase-and-``exp`` step as the exact sums,
bit for bit as :meth:`TestFunction.evaluate` does on each point.
"""

from __future__ import annotations

import cmath
import functools
import os
from dataclasses import dataclass
from math import isqrt
from typing import Sequence

import numpy as np

from . import markov as markov_mod
from . import spectral
from .algebra import MASK, SCALE, TorusPoint, phase64
from .combing import GraphStructure, _backward_counts, sphere_counts
from .errors import BudgetExceededError, DimensionMismatchError, SpherecombError, check_integer

DEFAULT_BUDGET = 10**7

_TWO_PI_OVER_SCALE = 2.0 * np.pi / SCALE
_BLOCK = 4096  # rows (or ray steps) summed pairwise before the compensated sum across blocks
_CHUNK = 8  # distinct frequencies evaluated together on each block of rows


def _frequency_entry(v) -> int:
    """An integer (``check_integer``) or, unlike a size, an integral float, as an int."""
    if not (isinstance(v, float) and v.is_integer()):
        check_integer(v, "frequency entry", None)
    return int(v)


@dataclass(frozen=True)
class TestFunction:
    """Trigonometric polynomial on the torus: sum of coeff * chi_k.

    chi_k(x) = exp(2 pi i <k, x>); the pairing <k, x> is computed exactly
    mod 1 in 64-bit fixed point before any float enters.  A frequency entry
    that is not an integer or an integral float raises ``ValueError``.
    """

    __test__ = False  # keep pytest from collecting this as a test class

    terms: tuple[tuple[tuple[int, ...], complex], ...]

    def __post_init__(self):
        terms = tuple((tuple(map(_frequency_entry, k)), complex(c)) for k, c in self.terms)
        if terms:
            d = len(terms[0][0])
            for k, _ in terms:
                if len(k) != d:
                    raise DimensionMismatchError(f"mixed frequency dimensions in {terms!r}")
        object.__setattr__(self, "terms", terms)

    @classmethod
    def character(cls, k: Sequence[int]) -> "TestFunction":
        return cls(((tuple(k), 1.0 + 0.0j),))

    @property
    def dim(self) -> int | None:
        return len(self.terms[0][0]) if self.terms else None

    @property
    def haar(self) -> complex:
        """Integral against Haar measure: the coefficient of the trivial character."""
        return sum((c for k, c in self.terms if not any(k)), 0.0 + 0.0j)

    def evaluate(self, x: TorusPoint) -> complex:
        out = 0.0 + 0.0j
        for k, c in self.terms:
            t = phase64(k, x)
            out += c * cmath.exp(2j * cmath.pi * (t / SCALE))
        return out


# ---------------------------------------------------------------------------
# exact enumeration engine


def _neumaier(values) -> float:
    s = 0.0
    comp = 0.0
    for x in values:
        t = s + x
        if abs(s) >= abs(x):
            comp += (s - t) + x
        else:
            comp += (x - t) + s
        s = t
    return s + comp


def _across_blocks(block_sums: list[complex]) -> complex:
    """Compensated sum of per-block sums, real and imaginary parts apart."""
    return complex(
        _neumaier(z.real for z in block_sums), _neumaier(z.imag for z in block_sums)
    )


def _edge_actions(graph: GraphStructure, inverse: bool) -> np.ndarray:
    """Per edge e, the (d, d) uint64 matrix R_e with state(w e) = state(w) R_e (mod 2**64).

    R_e is the transpose of the matrix of e's inverse word s_k^-1 ... s_1^-1
    (the generator system pairs the labels, so no matrix is inverted), or in
    forward mode e's word matrix.
    """
    system = graph.system
    acts = []
    for e in graph.edges:
        if inverse:
            rows = zip(*system.word_matrix([system.inverse_of(s) for s in reversed(e.word)]).rows)
        else:
            rows = system.word_matrix(e.word).rows
        acts.append([[v & MASK for v in row] for row in rows])
    return np.array(acts, dtype=np.uint64).reshape(-1, system.dim, system.dim)


def _walk_start(x: TorusPoint, d: int, inverse: bool) -> tuple[np.ndarray, np.ndarray]:
    """The basepoint as a uint64 vector, and the empty path's state: the row x^T, or I."""
    if x.dim != d:
        raise DimensionMismatchError(f"basepoint dim {x.dim} vs system dim {d}")
    x_col = np.array(x.coords, dtype=np.uint64)
    return x_col, (x_col.reshape(1, d) if inverse else np.eye(d, dtype=np.uint64))


def _points(states: np.ndarray, x_col: np.ndarray, inverse: bool) -> np.ndarray:
    """The (N, d) orbit points of N path states, stacked in any shape: w^-1.x, or w.x."""
    rows = states.reshape(-1, len(x_col))
    return rows if inverse else (rows @ x_col).reshape(-1, len(x_col))


def _spread(tables: list[np.ndarray], per: int, states: np.ndarray, verts: np.ndarray, groups):
    """For each prefix p in order, tables[u] @ states[p] cut into items of ``per`` rows.

    ``states`` is (P, d, c), ``verts`` gives each prefix's end vertex, and
    ``groups`` pairs each vertex u that ends a prefix with those prefixes.
    One matmul per vertex forms all its prefixes' products, and one scatter
    of fixed-size items moves them into each prefix's contiguous range,
    whose offset is the running sum of the earlier prefixes' counts.
    """
    widths = np.array([len(t) // per for t in tables], dtype=np.intp)
    counts = widths[verts]
    first = np.cumsum(counts) - counts
    item = np.dtype((np.void, 8 * per * states.shape[2]))
    out = np.empty(int(counts.sum()), dtype=item)
    for u, group in groups:
        if widths[u]:
            at = (first[group, None] + np.arange(widths[u])).reshape(-1)
            out[at] = np.matmul(tables[u], states[group]).reshape(-1).view(item)
    return out.view(np.uint64)


def _orbits(graph, x, n_max, starts, end, inverse, budget, split=None):
    """The orbit tables of each start in turn (see :func:`orbit_tables`), from
    one set of suffix tables; the prefixes end at length ``split``, by
    default ceil(n_max / 2)."""
    d, nv = graph.system.dim, graph.n_vertices
    x_col, state = _walk_start(x, d, inverse)
    counts = _backward_counts(graph, n_max)  # every node from every start, whatever the end
    need = sum(counts[m][v] for v in starts for m in range(n_max + 1))
    if need > budget:
        raise BudgetExceededError(need, budget)
    split = min(-(-n_max // 2) if split is None else split, n_max)
    left = _edge_actions(graph, inverse).transpose(0, 2, 1)
    src = np.array([e.src for e in graph.edges], dtype=np.intp)
    dst = np.array([e.dst for e in graph.edges], dtype=np.intp)
    # reach[j, v]: some start has a path of length j to v.  T_m[v] is built
    # only if v is reached at a depth from split to n_max - m, so each of its
    # suffixes ends a path that the budget counted.
    reach = np.zeros((n_max + 1, nv), dtype=bool)
    reach[0, starts] = True
    for j in range(n_max):
        reach[j + 1, dst[reach[j, src]]] = True
    seed = _points(np.eye(d, dtype=np.uint64), x_col, inverse)  # T_0 @ state(p) = p's rows
    used = reach[split:].any(axis=0)
    level = [seed if used[u] and end in (None, u) else seed[:0] for u in range(nv)]
    suffixes = [level]
    for m in range(1, n_max - split + 1):
        used = reach[split : n_max - m + 1].any(axis=0)
        level = [
            np.concatenate([level[dst[e]] @ left[e] for e in out] or [seed[:0]])
            if used[u]
            else seed[:0]
            for u, out in enumerate(graph.out_edges)
        ]
        suffixes.append(level)
    steps = [left[list(out)].reshape(-1, d) for out in graph.out_edges]
    heads = np.full((nv, max(map(len, graph.out_edges))), -1, dtype=np.intp)
    for u, out in enumerate(graph.out_edges):
        heads[u, : len(out)] = dst[list(out)]
    c = state.shape[0]

    def tables_from(start: int) -> list[np.ndarray]:
        states = np.ascontiguousarray(state.T).reshape(1, d, c)
        verts = np.array([start], dtype=np.intp)
        tables = []
        for m in range(n_max + 1):
            if m <= split:
                if m:
                    states = _spread(steps, d, states, verts, groups).reshape(-1, d, c)
                    verts = heads[verts]
                    verts = verts[verts >= 0]
                groups = [(u, g) for u in range(nv) if len(g := (verts == u).nonzero()[0])]
                kept = states if end is None else states[verts == end]
                rows = _points(kept.swapaxes(1, 2), x_col, inverse)
            else:
                rows = _spread(suffixes[m - split], len(seed), states, verts, groups)
            tables.append(rows.reshape(-1, d))
        return tables

    return map(tables_from, starts)


def orbit_tables(
    graph: GraphStructure,
    x: TorusPoint,
    n_max: int,
    *,
    start: int | None = None,
    end: int | None = None,
    inverse: bool = True,
    budget: int = DEFAULT_BUDGET,
) -> list[np.ndarray]:
    """Orbit coordinates w^-1.x (or w.x) for every path w from start, by length.

    Returns one (count_n, d) uint64 array per length n = 0..n_max, rows in
    path-lexicographic edge order (paths ending at ``end`` only, if given).
    Every step is an exact matrix product in uint64 wraparound arithmetic,
    i.e. mod 2**64, so regrouping the products changes no point.

    A path is split as w = p s, with the prefix p of length min(n, L) for
    L = ceil(n_max / 2).  The kernel holds a path's state transposed: the
    column w^-1.x, or the matrix w^T in forward mode, which an edge e
    left-multiplies by R_e^T from :func:`_edge_actions`.  The prefixes are
    grown one level at a time from ``start``.  Each suffix s from vertex u
    has rows in u's table T[u]: the matrix s^-1, as (p s)^-1.x =
    s^-1 (p^-1.x), or in forward mode the row (s.x)^T, as ((p s).x)^T =
    (s.x)^T p^T.  So T_{m+1}[u] stacks T_m[dst e] R_e^T over u's out-edges e
    in edge order, and T_0 is seeded at ``end`` only: a filtered-out path is
    never built.  T_m[u] is built only if ``start`` reaches u at a depth from
    L to n_max - m, so every suffix ends a path that ``budget`` counts.
    Path-lexicographic order is by prefix, then by suffix: the
    rows of a prefix p that ends at u are T[u] @ state(p), one contiguous
    range of the level, and one matmul per vertex forms them for all its
    prefixes.
    """
    check_integer(n_max, "length")
    if start is None:
        start = graph.initial
    graph.check_vertex(start, "start")
    if end is not None:
        graph.check_vertex(end, "end")
    return next(_orbits(graph, x, n_max, [start], end, inverse, budget))


def _frequency_rows(freqs: Sequence[Sequence[int]]) -> np.ndarray:
    """The frequencies as an (F, d) uint64 array of their entries mod 2**64."""
    rows = [[_frequency_entry(v) & MASK for v in k] for k in freqs]
    return np.array(rows, dtype=np.uint64)


def _characters(ks: np.ndarray, pts: np.ndarray, phases: np.ndarray, z: np.ndarray) -> np.ndarray:
    """chi_k at each row of pts for each row k of ks, written into z and returned.

    ``ks`` is (F, d) and ``pts`` (n, d), both uint64; ``phases`` (F, n) uint64
    and ``z`` (F, n) complex128 are overwritten.  The phases <k, x> are one
    uint64 product, exact mod 2**64; z = exp(i * phase * 2 pi / 2**64) is then
    formed in place, bit for bit as exp(1j * (phases.astype(float64) * 2 pi /
    2**64)) is.
    """
    np.matmul(ks, pts.T, out=phases)
    z.real = 0.0
    np.multiply(phases, _TWO_PI_OVER_SCALE, out=z.imag, casting="unsafe")
    return np.exp(z, out=z)


def _frequency_sums(tables: list[np.ndarray], ks: np.ndarray) -> list[list[complex]]:
    """Sum of chi_k over each table for every row k of ks: one list of sums per frequency.

    Each table is evaluated one block of ``_BLOCK`` rows at a time for all F
    frequencies at once, in two (F, _BLOCK) buffers made once per call.  Each
    row of a block is summed pairwise (numpy's), and a frequency's block sums
    are added by the compensated ``_across_blocks``.
    """
    phases = np.empty((len(ks), _BLOCK), dtype=np.uint64)
    z = np.empty((len(ks), _BLOCK), dtype=np.complex128)
    sums: list[list[complex]] = [[] for _ in ks]
    for arr in tables:
        per_block = np.empty((len(ks), -(-arr.shape[0] // _BLOCK)), dtype=np.complex128)
        for b, i in enumerate(range(0, arr.shape[0], _BLOCK)):
            pts = arr[i : i + _BLOCK]
            n = pts.shape[0]
            per_block[:, b] = _characters(ks, pts, phases[:, :n], z[:, :n]).sum(axis=1)
        for f_sums, block_sums in zip(sums, per_block.tolist()):
            f_sums.append(_across_blocks(block_sums))
    return sums


def _check_frequency(tables: list[np.ndarray], k: Sequence[int]) -> None:
    for arr in tables:
        if len(k) != arr.shape[1]:
            raise DimensionMismatchError(
                f"frequency has {len(k)} entries, torus has dimension {arr.shape[1]}"
            )


def character_sums(tables: list[np.ndarray], k: Sequence[int]) -> list[complex]:
    """Sum of chi_k over each table, phases computed exactly mod 2**64.

    This is the one-frequency call of the kernel that :func:`_function_sums`
    runs on chunks of frequencies: each table is evaluated and summed one
    block of ``_BLOCK`` rows at a time, so the block's temporaries stay small;
    the block sums are pairwise (numpy's) and are added by the compensated
    ``_across_blocks``.
    """
    _check_frequency(tables, k)
    return _frequency_sums(tables, _frequency_rows([k]))[0]


def _function_sums(tables: list[np.ndarray], f: TestFunction) -> list[complex]:
    """Sum of f over each table: per-character sums combined by coefficients.

    A frequency that occurs in several terms is summed once.  The distinct
    frequencies are summed in chunks of up to ``_CHUNK``, each block of rows
    evaluated for the whole chunk at once, on a pool of threads: one per
    usable CPU but no more than there are frequencies, with chunks small
    enough that every worker gets one (numpy releases the GIL in a block's
    phase product, ``exp`` and sums); with one worker no pool is made.  The
    terms are then added in order, so the sums do not depend on the CPU
    count or the chunk size.  Every frequency is checked against the tables
    first, so an error is the one the first failing frequency raises.
    """
    freqs = list(dict.fromkeys(k for k, _ in f.terms))
    for k in freqs:
        _check_frequency(tables, k)
    if not freqs:
        return [0.0 + 0.0j] * len(tables)
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(cpus, len(freqs))
    size = min(_CHUNK, -(-len(freqs) // workers))
    ks = _frequency_rows(freqs)
    chunks = [ks[i : i + size] for i in range(0, len(freqs), size)]
    sums_of = functools.partial(_frequency_sums, tables)
    if workers > 1:
        # imported here: at module level it adds about 8 ms to every cold start
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            chunk_sums = list(pool.map(sums_of, chunks))
    else:
        chunk_sums = list(map(sums_of, chunks))
    by_freq = dict(zip(freqs, (s for sums in chunk_sums for s in sums)))
    totals = [0.0 + 0.0j] * len(tables)
    for k, coeff in f.terms:
        totals = [t + coeff * s for t, s in zip(totals, by_freq[k])]
    return totals


# ---------------------------------------------------------------------------
# averaging operators, exact mode


@dataclass(frozen=True)
class AveragingReport:
    """Spherical and Cesaro averages for n = 1..N, with their path counts.

    Only a Monte Carlo report (``mode="mc"``) sets stderr, samples and seed.
    """

    mode: str
    inverse: bool
    basepoint: TorusPoint
    function: TestFunction
    ns: tuple[int, ...]
    path_counts: tuple[int, ...]
    spherical: tuple[complex, ...]
    cesaro: tuple[complex, ...]
    stderr: tuple[float, ...] | None = None
    samples: int | None = None
    seed: int | None = None

    def spherical_at(self, n: int) -> complex:
        return self.spherical[self.ns.index(n)]

    def cesaro_at(self, n: int) -> complex:
        return self.cesaro[self.ns.index(n)]


def sphere_series(
    graph: GraphStructure,
    x: TorusPoint,
    f: TestFunction,
    n_max: int,
    *,
    inverse: bool = True,
    budget: int = DEFAULT_BUDGET,
) -> AveragingReport:
    """Exact spherical averages for every n = 1..n_max plus running Cesaro means.

    One level-synchronous pass serves all lengths: the average over paths of
    length n sums the level-n table, rows in path-lexicographic edge order.
    """
    check_integer(n_max, "N", 1)
    tables = orbit_tables(graph, x, n_max, inverse=inverse, budget=budget)
    sums = _function_sums(tables, f)
    counts = [t.shape[0] for t in tables]
    sph = []
    for n in range(1, n_max + 1):
        if counts[n] == 0:
            raise SpherecombError(f"no paths of length {n} from the start vertex")
        sph.append(sums[n] / counts[n])
    return AveragingReport(
        mode="exact",
        inverse=inverse,
        basepoint=x,
        function=f,
        ns=tuple(range(1, n_max + 1)),
        path_counts=tuple(counts[1:]),
        spherical=tuple(sph),
        cesaro=_running_means(sph),
    )


def _running_means(values: Sequence[complex]) -> tuple[complex, ...]:
    """Cesaro means (1/n) sum_{m=1..n} values[m-1] for n = 1..len(values).

    Every Cesaro mean of the package is taken here, adding left to right from
    0j: the builtin ``sum`` compensates float sums from Python 3.12 on.
    """
    out = []
    acc = 0.0 + 0.0j
    for n, v in enumerate(values, start=1):
        acc += v
        out.append(acc / n)
    return tuple(out)


def spherical_average(
    graph: GraphStructure,
    x: TorusPoint,
    f: TestFunction,
    n: int,
    *,
    inverse: bool = True,
    budget: int = DEFAULT_BUDGET,
) -> complex:
    """Average of f over the n-sphere: (1/#S_n) sum over |w| = n of f(w^-1 x).

    The sphere is the level-n table of the level-synchronous enumeration,
    summed in path-lexicographic edge order.
    """
    check_integer(n, "length")
    if n == 0:
        _walk_start(x, graph.system.dim, inverse)
        return f.evaluate(x)
    report = sphere_series(graph, x, f, n, inverse=inverse, budget=budget)
    return report.spherical_at(n)


def cesaro_average(
    graph: GraphStructure,
    x: TorusPoint,
    f: TestFunction,
    n_max: int,
    *,
    inverse: bool = True,
    budget: int = DEFAULT_BUDGET,
) -> complex:
    """Cesaro mean (1/N) sum_{n=1..N} of the spherical averages; n = 0 is excluded."""
    report = sphere_series(graph, x, f, n_max, inverse=inverse, budget=budget)
    return report.cesaro_at(n_max)


@dataclass(frozen=True)
class WeightedAverageResult:
    """A finite-N weighted average together with its predicted limit."""

    value: complex
    predicted_limit: complex
    n_max: int
    start: int | None
    end: int | None


def kappa_average(
    graph: GraphStructure,
    x: TorusPoint,
    f: TestFunction,
    n_max: int,
    *,
    data: spectral.SpectralData | None = None,
    start: int | None = None,
    end: int | None = None,
    inverse: bool = True,
    budget: int = DEFAULT_BUDGET,
) -> WeightedAverageResult:
    """Counting average: (1/N) sum_n (1 / #Omega^n) sum over paths of f(w^-1 x).

    Paths of every starting vertex contribute to the normalizer #Omega^n;
    ``start``/``end`` restrict which paths contribute to the numerator (the
    per-block average kappa^{i,j}).  The predicted limit in the primitive case
    is q_i p_j / c times the Haar integral; unrestricted it is the Haar
    integral itself.  All starts share one set of suffix tables, and each
    start's sums are added in turn, in vertex order; the budget bounds the
    nodes of all their trees together.  The mean over n is taken by
    :func:`_running_means`.
    """
    check_integer(n_max, "N", 1)
    for v, role in ((start, "start"), (end, "end")):
        if v is not None:
            graph.check_vertex(v, role)
    if data is None:
        data = spectral.perron_data(spectral.transition_matrix(graph))
    starts = range(graph.n_vertices) if start is None else [start]
    sums = [0.0 + 0.0j] * (n_max + 1)
    for tables in _orbits(graph, x, n_max, starts, end, inverse, budget):
        for m, s in enumerate(_function_sums(tables, f)):
            sums[m] += s
    omega = [sum(counts) for counts in _backward_counts(graph, n_max)]
    if 0 in omega:
        raise SpherecombError(f"no paths of length {omega.index(0)} at all")
    value = _running_means([sums[n] / omega[n] for n in range(1, n_max + 1)])[-1]
    if data.c is None:
        predicted = complex(float("nan"), float("nan"))
    else:
        qi = float(data.q[start]) if start is not None else float(np.sum(data.q))
        pj = float(data.p[end]) if end is not None else float(np.sum(data.p))
        predicted = (qi * pj / data.c) * f.haar
    return WeightedAverageResult(
        value=value, predicted_limit=predicted, n_max=n_max, start=start, end=end
    )


def markov_cesaro(
    model: markov_mod.MarkovModel,
    x: TorusPoint,
    f: TestFunction,
    n_max: int,
    start: int,
    end: int,
    *,
    inverse: bool = True,
    budget: int = DEFAULT_BUDGET,
) -> WeightedAverageResult:
    """Markov-weighted Cesaro average over paths from one vertex to another.

    Each length-n path from i to j carries weight q_i p_j / lambda^n; the
    predicted limit is pi_i pi_j times the Haar integral.  The mean over n
    is taken by :func:`_running_means`.
    """
    check_integer(n_max, "N", 1)
    graph = model.graph
    graph.check_vertex(start, "start")
    graph.check_vertex(end, "end")
    tables = orbit_tables(
        graph, x, n_max, start=start, end=end, inverse=inverse, budget=budget
    )
    sums = _function_sums(tables, f)
    weight = model.q[start] * model.p[end]
    value = _running_means([weight / model.lam**n * sums[n] for n in range(1, n_max + 1)])[-1]
    predicted = (model.pi[start] * model.pi[end]) * f.haar
    return WeightedAverageResult(
        value=value, predicted_limit=predicted, n_max=n_max, start=start, end=end
    )


# ---------------------------------------------------------------------------
# Monte Carlo mode


def _f_values(f: TestFunction, pts: np.ndarray) -> np.ndarray:
    """f at each row of an (N, d) uint64 array of torus points, as complex128.

    Equal bit for bit to :meth:`TestFunction.evaluate` on every row: the terms
    are added in order to a +0.0 start, and each c * e is written out in
    float64 as Python multiplies two complex numbers (numpy's complex128
    multiply may round differently).  A frequency that occurs in several
    terms is evaluated once, by the character sums' ``_characters``, and its
    values are kept only until its last term.
    """
    if f.dim is not None and f.dim != pts.shape[1]:
        raise DimensionMismatchError(f"frequency dim {f.dim} vs point dim {pts.shape[1]}")
    n = pts.shape[0]
    out = np.zeros(n, dtype=np.complex128)
    phases = np.empty((1, n), dtype=np.uint64)
    last = {k: i for i, (k, _) in enumerate(f.terms)}
    kept: dict[tuple[int, ...], np.ndarray] = {}
    for i, (k, c) in enumerate(f.terms):
        if k in kept:
            e = kept.pop(k)
        else:
            z = np.empty((1, n), dtype=np.complex128)
            e = _characters(_frequency_rows([k]), pts, phases, z)[0]
        if last[k] > i:
            kept[k] = e
        out.real += c.real * e.real - c.imag * e.imag
        out.imag += c.real * e.imag + c.imag * e.real
    return out


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error."""

    value: complex
    stderr: float
    samples: int


def mc_spherical(
    graph: GraphStructure,
    data: spectral.SpectralData,
    x: TorusPoint,
    f: TestFunction,
    n: int,
    samples: int,
    seed,
    *,
    inverse: bool = True,
) -> McEstimate:
    """Monte Carlo spherical average at length n under the prefix-then-uniform measure.

    For p* = 1 the sampling measure is exactly uniform counting measure, so
    this estimates the exact spherical average without bias.  The paths are
    drawn as one (samples, n) array by ``sample_array`` (the paths of
    ``samples`` calls of ``sample``); then all samples advance together, one
    edge position at a time in path order, each state right-multiplied by
    its edge's R_e as one batched uint64 product.
    """
    check_integer(samples, "samples", 1)
    x_col, state = _walk_start(x, graph.system.dim, inverse)
    acts = _edge_actions(graph, inverse)
    return _mc_level(graph, data, x_col, state, acts, f, n, samples, seed, inverse)


def _mc_level(graph, data, x_col, state, acts, f, n, samples, seed, inverse) -> McEstimate:
    """:func:`mc_spherical` from its checked basepoint, start state and edge actions."""
    paths = markov_mod.lambda_prime(graph, data, n).sample_array(seed, samples)
    states = np.tile(state, (samples, 1, 1))
    for i in range(n):
        states = states @ acts[paths[:, i]]
    values = _f_values(f, _points(states, x_col, inverse))
    mean = complex(values.mean())
    if samples > 1:
        var = float(np.var(values.real, ddof=1) + np.var(values.imag, ddof=1))
        err = (var / samples) ** 0.5
    else:
        err = float("inf")
    return McEstimate(value=mean, stderr=err, samples=samples)


def mc_series(
    graph: GraphStructure,
    data: spectral.SpectralData,
    x: TorusPoint,
    f: TestFunction,
    n_max: int,
    samples: int,
    seed: int,
    *,
    inverse: bool = True,
) -> AveragingReport:
    """Monte Carlo counterpart of :func:`sphere_series`: one estimate per n = 1..n_max.

    Level n samples with the n-th child of ``SeedSequence(seed).spawn(n_max)``;
    the edge actions are built once for all levels.
    """
    check_integer(n_max, "N", 1)
    children = np.random.SeedSequence(markov_mod._seed(seed)).spawn(n_max)
    check_integer(samples, "samples", 1)
    x_col, state = _walk_start(x, graph.system.dim, inverse)
    acts = _edge_actions(graph, inverse)
    ests = [
        _mc_level(graph, data, x_col, state, acts, f, n, samples, child, inverse)
        for n, child in enumerate(children, start=1)
    ]
    sph = [est.value for est in ests]
    return AveragingReport(
        mode="mc",
        inverse=inverse,
        basepoint=x,
        function=f,
        ns=tuple(range(1, n_max + 1)),
        path_counts=sphere_counts(graph, n_max)[1:],
        spherical=tuple(sph),
        cesaro=_running_means(sph),
        stderr=tuple(est.stderr for est in ests),
        samples=samples,
        seed=seed,
    )


def random_geodesic_average(
    model: markov_mod.MarkovModel,
    x: TorusPoint,
    f: TestFunction,
    n_max: int,
    seed,
    *,
    start: int | str | None = None,
    inverse: bool = True,
) -> complex:
    """Time average (1/N) sum_{n=1..N} f(gamma(n)^-1 x) along one sampled ray.

    The ray is a Markov trajectory from the start vertex (the graph's initial
    vertex by default).  The states of all its prefixes are the start state
    times the prefix products R_1 ... R_m, formed in uint64 by a two-pass
    scan (``_ray_states``) over each chunk of 2 ``_BLOCK`` steps; the
    chunk's last state carries into the next, so the working arrays stay
    small.  Each block of ``_BLOCK`` states is evaluated and summed on its
    own.
    """
    check_integer(n_max, "N", 1)
    graph = model.graph
    d = graph.system.dim
    x_col, carry = _walk_start(x, d, inverse)
    if start is None:
        start = graph.initial
    _, edges = markov_mod._walk_edges(model, start, n_max, seed)
    # the last action, which edge index -1 picks, is the identity
    acts = np.concatenate([_edge_actions(graph, inverse), np.eye(d, dtype=np.uint64)[None]])
    block_sums = []
    chunk = 2 * _BLOCK  # 4 blocks scan 15% faster, but raised a benchmark's peak RSS up to 0.5 MB
    for lo in range(0, n_max, chunk):
        states = _ray_states(acts, carry, edges[lo : lo + chunk])
        carry = states[-1]
        for i in range(0, len(states), _BLOCK):
            pts = _points(states[i : i + _BLOCK], x_col, inverse)
            block_sums.append(complex(_f_values(f, pts).sum()))
    return _across_blocks(block_sums) / n_max


def _ray_states(acts: np.ndarray, carry: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """carry times every prefix product of ``acts[edges]``, by a two-pass scan.

    The n steps are cut into B sub-blocks of L = isqrt(n) steps, the last
    padded by the identity action (edge -1).  Pass 1 forms every
    sub-block's product at once, in L batched products; the products are
    then chained from carry in Python, which gives each sub-block its start
    state; pass 2 replays all sub-blocks from their starts, in L more.  A
    product mod 2**64 is associative, so the states are those of the
    step-by-step products (Blelloch, "Prefix sums and their applications",
    1990): O(n) work, against O(n log n) for a doubling scan.
    """
    n = len(edges)
    span = max(1, isqrt(n))
    count = -(-n // span)
    padded = np.full(count * span, -1, dtype=np.intp)
    padded[:n] = edges
    steps = acts[padded.reshape(count, span).T]  # steps[t]: step t of every sub-block
    prods = steps[0]
    for step in steps[1:]:
        prods = prods @ step
    starts = np.empty((count, *carry.shape), dtype=np.uint64)
    for b in range(count):
        starts[b] = carry
        carry = carry @ prods[b]
    states = np.empty((count, span, *carry.shape), dtype=np.uint64)
    cur = starts
    for t, step in enumerate(steps):
        cur = np.matmul(cur, step, out=states[:, t])
    return states.reshape(count * span, *carry.shape)[:n]
