"""Averaging operators for group orbits on the torus.

Spherical averages push a basepoint around by the inverses of all group
elements of one length (enumerated as combing paths) and average a test
function; Cesaro, counting-weighted and Markov-weighted variants follow.
All exact-mode enumeration shares one level-synchronous kernel that records
the orbit coordinates per path length as unsigned 64-bit arrays, so a whole
family of characters can be averaged from a single pass.  Rows, and so sums,
are in path-lexicographic edge order; sums are taken block-wise, with
compensated accumulation across blocks.

Monte Carlo counterparts draw paths from the prefix-then-uniform measure or
follow a single Markov ray; both are deterministic given a seed.  They draw
their paths one at a time, then move the basepoint with the kernel's uint64
edge actions on whole arrays: Monte Carlo advances every sample one edge
position at a time, and a ray takes the prefix products of its edge actions
by a doubling scan.  One helper evaluates the test function on an array of
points, bit for bit as :meth:`TestFunction.evaluate` does on each point.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import markov as markov_mod
from . import spectral
from .algebra import MASK, SCALE, TorusPoint, phase64
from .combing import GraphStructure, _backward_counts
from .errors import BudgetExceededError, DimensionMismatchError, SpherecombError

DEFAULT_BUDGET = 10**7

_TWO_PI_OVER_SCALE = 2.0 * np.pi / SCALE
_BLOCK = 4096  # rows summed pairwise before the compensated sum across blocks
_RAY_BLOCK = 4096  # ray steps per prefix-product scan


@dataclass(frozen=True)
class TestFunction:
    """Trigonometric polynomial on the torus: sum of coeff * chi_k.

    chi_k(x) = exp(2 pi i <k, x>); the pairing <k, x> is computed exactly
    mod 1 in 64-bit fixed point before any float enters.
    """

    __test__ = False  # keep pytest from collecting this as a test class

    terms: tuple[tuple[tuple[int, ...], complex], ...]

    def __post_init__(self):
        terms = tuple((tuple(int(v) for v in k), complex(c)) for k, c in self.terms)
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


def _block_sum(vals: np.ndarray) -> complex:
    """Deterministic sum: pairwise inside blocks, compensated across blocks."""
    n = len(vals)
    if n == 0:
        return 0.0 + 0.0j
    res = [complex(vals[i : i + _BLOCK].sum()) for i in range(0, n, _BLOCK)]
    return complex(_neumaier(z.real for z in res), _neumaier(z.imag for z in res))


def _edge_actions(graph: GraphStructure, inverse: bool) -> np.ndarray:
    """Per edge, the (d, d) matrix applied to the running state, as uint64 (mod 2**64)."""
    system = graph.system
    acts = []
    for e in graph.edges:
        if inverse:
            m = system.word_matrix(e.word).inverse()
        else:
            m = system.word_matrix(e.word)
        acts.append(tuple(tuple(v & MASK for v in row) for row in m.rows))
    return np.array(acts, dtype=np.uint64).reshape(-1, system.dim, system.dim)


def _check_length(n_max: int) -> None:
    if n_max < 1:
        raise ValueError(f"N must be at least 1, not {n_max}")


def _check_vertices(graph: GraphStructure, **vertices: int | None) -> None:
    """Reject a start or end vertex outside 0 .. n_vertices - 1."""
    for name, v in vertices.items():
        if v is not None and not 0 <= v < graph.n_vertices:
            raise ValueError(f"{name} vertex {v} out of range for {graph.n_vertices} vertices")


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
    The paths are enumerated level-synchronously: each level's frontier is
    expanded parent by parent, out-edges in edge order, with every step an
    exact matrix product in uint64 wraparound arithmetic, i.e. mod 2**64.
    """
    if x.dim != graph.system.dim:
        raise DimensionMismatchError(f"basepoint dim {x.dim} vs system dim {graph.system.dim}")
    if start is None:
        start = graph.initial
    _check_vertices(graph, start=start, end=end)
    counts_any = _backward_counts(graph, n_max)
    total_nodes = sum(counts_any[m][start] for m in range(n_max + 1))
    if total_nodes > budget:
        raise BudgetExceededError(total_nodes, budget)
    d = graph.system.dim
    # Per node the state is w^-1.x as a (d, 1) column, or in forward mode the
    # transpose of w, which a child's edge action A_e updates as A_e^T . state.
    acts = _edge_actions(graph, inverse)
    if inverse:
        state = np.array(x.coords, dtype=np.uint64).reshape(1, d, 1)
    else:
        acts = acts.transpose(0, 2, 1)
        state = np.eye(d, dtype=np.uint64).reshape(1, d, d)
        x_col = np.array(x.coords, dtype=np.uint64)
    out = graph.out_edges
    dst = np.array([e.dst for e in graph.edges], dtype=np.intp)
    degree = np.array([len(o) for o in out], dtype=np.intp)
    verts = np.array([start], dtype=np.intp)

    def record(state, verts) -> np.ndarray:
        if end is not None:
            state = state[verts == end]
        return state.reshape(-1, d) if inverse else state.transpose(0, 2, 1) @ x_col

    tables = [record(state, verts)]
    for _ in range(n_max):
        # child slot of parent p via its k-th out-edge: first[p] + k
        fan_out = degree[verts]
        first = np.cumsum(fan_out) - fan_out
        by_vertex = np.argsort(verts, kind="stable")
        bounds = np.cumsum(np.bincount(verts, minlength=graph.n_vertices))
        children = np.empty((int(fan_out.sum()),) + state.shape[1:], dtype=np.uint64)
        child_verts = np.empty(len(children), dtype=np.intp)
        for v, group in enumerate(np.split(by_vertex, bounds[:-1])):
            if group.size == 0:
                continue
            parents = state[group]
            slots = first[group]
            for k, ei in enumerate(out[v]):
                children[slots + k] = acts[ei] @ parents
                child_verts[slots + k] = dst[ei]
        state, verts = children, child_verts
        tables.append(record(state, verts))
    return tables


def character_sums(tables: list[np.ndarray], k: Sequence[int]) -> list[complex]:
    """Sum of chi_k over each table, phases computed exactly mod 2**64."""
    out = []
    for arr in tables:
        if arr.shape[0] == 0:
            out.append(0.0 + 0.0j)
            continue
        if len(k) != arr.shape[1]:
            raise DimensionMismatchError(
                f"frequency has {len(k)} entries, torus has dimension {arr.shape[1]}"
            )
        phases = np.zeros(arr.shape[0], dtype=np.uint64)
        for i, ki in enumerate(k):
            phases += arr[:, i] * np.uint64(int(ki) & MASK)
        values = np.exp(1j * (phases.astype(np.float64) * _TWO_PI_OVER_SCALE))
        out.append(_block_sum(values))
    return out


def _function_sums(tables: list[np.ndarray], f: TestFunction) -> list[complex]:
    """Sum of f over each table: per-character sums combined by coefficients."""
    totals = [0.0 + 0.0j] * len(tables)
    for k, coeff in f.terms:
        sums = character_sums(tables, k)
        totals = [t + coeff * s for t, s in zip(totals, sums)]
    return totals


# ---------------------------------------------------------------------------
# averaging operators, exact mode


@dataclass(frozen=True)
class AveragingReport:
    """Spherical and Cesaro averages for n = 1..N, with their path counts."""

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
    tables = orbit_tables(graph, x, n_max, inverse=inverse, budget=budget)
    sums = _function_sums(tables, f)
    counts = [t.shape[0] for t in tables]
    sph = []
    for n in range(1, n_max + 1):
        if counts[n] == 0:
            raise SpherecombError(f"no paths of length {n} from the start vertex")
        sph.append(sums[n] / counts[n])
    ces = []
    acc = 0.0 + 0.0j
    for n, v in enumerate(sph, start=1):
        acc += v
        ces.append(acc / n)
    return AveragingReport(
        mode="exact",
        inverse=inverse,
        basepoint=x,
        function=f,
        ns=tuple(range(1, n_max + 1)),
        path_counts=tuple(counts[1:]),
        spherical=tuple(sph),
        cesaro=tuple(ces),
    )


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
    if n == 0:
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
    integral itself.
    """
    _check_length(n_max)
    _check_vertices(graph, start=start, end=end)
    if data is None:
        data = spectral.perron_data(spectral.transition_matrix(graph))
    starts = list(range(graph.n_vertices)) if start is None else [start]
    counts_any = _backward_counts(graph, n_max)
    omega = [sum(counts_any[m]) for m in range(n_max + 1)]
    need = sum(counts_any[m][v] for v in starts for m in range(n_max + 1))
    if need > budget:
        raise BudgetExceededError(need, budget)
    sums = [0.0 + 0.0j] * (n_max + 1)
    for v in starts:
        tables = orbit_tables(
            graph, x, n_max, start=v, end=end, inverse=inverse, budget=budget
        )
        for m, s in enumerate(_function_sums(tables, f)):
            sums[m] += s
    acc = 0.0 + 0.0j
    for n in range(1, n_max + 1):
        if omega[n] == 0:
            raise SpherecombError(f"no paths of length {n} at all")
        acc += sums[n] / omega[n]
    value = acc / n_max
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
    predicted limit is pi_i pi_j times the Haar integral.
    """
    _check_length(n_max)
    graph = model.graph
    tables = orbit_tables(
        graph, x, n_max, start=start, end=end, inverse=inverse, budget=budget
    )
    sums = _function_sums(tables, f)
    weight = model.q[start] * model.p[end]
    acc = 0.0 + 0.0j
    for n in range(1, n_max + 1):
        acc += weight / model.lam**n * sums[n]
    value = acc / n_max
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
    multiply may round differently).
    """
    if f.dim is not None and f.dim != pts.shape[1]:
        raise DimensionMismatchError(f"frequency dim {f.dim} vs point dim {pts.shape[1]}")
    out = np.zeros(pts.shape[0], dtype=np.complex128)
    for k, c in f.terms:
        phases = np.zeros(pts.shape[0], dtype=np.uint64)
        for i, ki in enumerate(k):
            phases += pts[:, i] * np.uint64(ki & MASK)
        e = np.exp(1j * (phases.astype(np.float64) * _TWO_PI_OVER_SCALE))
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
    drawn one by one; then all samples advance together, one level (edge
    position) at a time, as batched uint64 products.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    d = graph.system.dim
    if x.dim != d:
        raise DimensionMismatchError(f"basepoint dim {x.dim} vs system dim {d}")
    lp = markov_mod.lambda_prime(graph, data, n)
    rng = markov_mod._as_rng(seed)
    paths = np.array([lp.sample(rng) for _ in range(samples)], dtype=np.intp)
    paths = paths.reshape(samples, n)
    acts = _edge_actions(graph, inverse)
    # w^-1.x applies the edges' inverses first to last; w.x applies them last to first
    state = np.tile(np.array(x.coords, dtype=np.uint64).reshape(1, d, 1), (samples, 1, 1))
    for i in range(n) if inverse else reversed(range(n)):
        state = acts[paths[:, i]] @ state
    values = _f_values(f, state.reshape(samples, d))
    mean = complex(values.mean())
    if samples > 1:
        var = float(np.var(values.real, ddof=1) + np.var(values.imag, ddof=1))
        err = (var / samples) ** 0.5
    else:
        err = float("inf")
    return McEstimate(value=mean, stderr=err, samples=samples)


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
    vertex by default).  The orbit points of all its prefixes come from the
    prefix products of the edge actions, formed in uint64 by a doubling scan
    (log2 of the block length in batched matrix products per block of steps)
    instead of N scalar steps.
    """
    _check_length(n_max)
    graph = model.graph
    d = graph.system.dim
    if x.dim != d:
        raise DimensionMismatchError(f"basepoint dim {x.dim} vs system dim {d}")
    if start is None:
        start = graph.initial
    path = markov_mod.sample_path(model, start, n_max, seed)
    # prefix m of w^-1.x is A_m ... A_1 x; of w.x it is W_1 ... W_m x, whose
    # transpose is the same left-to-right product over the transposes W_i^T.
    # Each block of steps is scanned on its own and then carries on from the
    # product so far, so the working arrays stay small on long rays.
    acts = _edge_actions(graph, inverse)
    if not inverse:
        acts = acts.transpose(0, 2, 1)
    edges = np.array(path.edges, dtype=np.intp)
    x_col = np.array(x.coords, dtype=np.uint64)
    carry = np.eye(d, dtype=np.uint64)
    values = np.empty(n_max, dtype=np.complex128)
    for lo in range(0, n_max, _RAY_BLOCK):
        prods = acts[edges[lo : lo + _RAY_BLOCK]]
        shift = 1
        while shift < len(prods):
            prods[shift:] = prods[shift:] @ prods[:-shift]
            shift *= 2
        prods = prods @ carry
        carry = prods[-1]
        if not inverse:
            prods = prods.transpose(0, 2, 1)
        values[lo : lo + len(prods)] = _f_values(f, prods @ x_col)
    return _block_sum(values) / n_max
