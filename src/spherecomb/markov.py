"""Markov chains adapted to path graphs and the measures they induce on paths.

The chain moves along edges of a graph structure whose vertices all have
large growth: an edge i -> j is taken with probability p_j / (lambda p_i),
where p is the canonical right eigenvector.  Parallel edges split the i -> j
mass equally.  The induced weight of a finite path w from i to j is
q_i p_j / lambda^n, and pi_i = p_i q_i is the stationary distribution.

Also here: the length-r prefix distribution harvested from A_inf, the
prefix-then-uniform path measure it induces (an explicit approximation to
uniform counting measure), and total variation distances between path
distributions.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import spectral
from .combing import GraphStructure, _backward_counts, enumerate_paths
from .errors import NormalizationError, SmallGrowthVertexError, SpherecombError

_ROW_SUM_TOL = 1e-12
_TV_NORM_TOL = 1e-9


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class MarkovModel:
    """Edge-level Markov chain on a graph structure, with its eigendata."""

    graph: GraphStructure
    lam: float
    p: tuple[float, ...]
    q: tuple[float, ...]
    pi: tuple[float, ...]
    edge_prob: tuple[float, ...]

    @cached_property
    def _edge_dst(self) -> tuple[tuple[int, ...], ...]:
        g = self.graph
        return tuple(
            tuple(g.edges[ei].dst for ei in g.out_edges[v]) for v in range(g.n_vertices)
        )

    @cached_property
    def _cum_prob(self) -> tuple[tuple[float, ...], ...]:
        g = self.graph
        out = []
        for v in range(g.n_vertices):
            acc = 0.0
            row = []
            for ei in g.out_edges[v]:
                acc += self.edge_prob[ei]
                row.append(acc)
            out.append(tuple(row))
        return tuple(out)

    def start_vertex(self, start: int | str, rng: np.random.Generator) -> int:
        if start == "stationary":
            return int(rng.choice(self.graph.n_vertices, p=np.array(self.pi)))
        v = int(start)
        if not 0 <= v < self.graph.n_vertices:
            raise ValueError(f"start vertex {v} out of range")
        return v


def build_markov(graph: GraphStructure, data: spectral.SpectralData | None = None) -> MarkovModel:
    """Markov chain of a graph structure whose vertices all have large growth.

    Raises SmallGrowthVertexError if any vertex fails to reach a maximal
    component (restrict the graph first, e.g. with prune_small_growth).
    """
    if data is None:
        data = spectral.perron_data(spectral.transition_matrix(graph))
    small = [v for v, big in enumerate(data.classification.large_growth) if not big]
    if small:
        raise SmallGrowthVertexError(
            f"small-growth vertex present: {small}; prune before building the chain"
        )
    lam = data.lam
    p = tuple(float(v) for v in data.p)
    probs = []
    for e in graph.edges:
        probs.append(p[e.dst] / (lam * p[e.src]))
    model = MarkovModel(
        graph=graph,
        lam=lam,
        p=p,
        q=tuple(float(v) for v in data.q),
        pi=tuple(float(v) for v in data.pi),
        edge_prob=tuple(probs),
    )
    for v in range(graph.n_vertices):
        row = sum(model.edge_prob[ei] for ei in graph.out_edges[v])
        if abs(row - 1.0) > _ROW_SUM_TOL * max(1.0, abs(row)):
            raise SpherecombError(
                f"chain row {v} sums to {row!r}, not 1: inconsistent spectral data"
            )
    return model


@dataclass(frozen=True)
class SampledPath:
    """A finite chain trajectory: a start vertex and the edges taken."""

    graph: GraphStructure
    start: int
    edges: tuple[int, ...]

    @cached_property
    def vertices(self) -> tuple[int, ...]:
        return self.graph.path_vertices(self.start, self.edges)

    @cached_property
    def word(self) -> tuple[str, ...]:
        return self.graph.path_word(self.edges)

    def __len__(self) -> int:
        return len(self.edges)


def path_weight(model: MarkovModel, path: Sequence[int], start: int | None = None) -> float:
    """Cylinder mass q_i p_j / lambda^n of a path from i to j with n edges.

    The empty path needs an explicit ``start``; its weight is pi_start.
    """
    if len(path) == 0:
        if start is None:
            raise ValueError("empty path: pass the start vertex explicitly")
        return model.pi[start]
    edges = model.graph.edges
    i = edges[path[0]].src
    if start is not None and start != i:
        raise ValueError(f"path starts at {i}, not {start}")
    j = edges[path[-1]].dst
    return model.q[i] * model.p[j] / model.lam ** len(path)


def sample_path(model: MarkovModel, start: int | str, length: int, seed) -> SampledPath:
    """One chain trajectory; deterministic given the seed (or Generator) passed."""
    rng = _as_rng(seed)
    v = model.start_vertex(start, rng)
    start_vertex = v
    cum = model._cum_prob
    out = model.graph.out_edges
    taken: list[int] = []
    us = rng.random(length)
    for n in range(length):
        row = cum[v]
        if not row:
            raise SpherecombError(f"vertex {v} has no outgoing edge; chain is stuck")
        k = bisect_right(row, us[n])
        if k >= len(row):  # guard against u == 1.0 rounding
            k = len(row) - 1
        ei = out[v][k]
        taken.append(ei)
        v = model.graph.edges[ei].dst
    return SampledPath(model.graph, start_vertex, tuple(taken))


def sample_vertex_walk(
    model: MarkovModel, start: int | str, length: int, seed
) -> np.ndarray:
    """Vertex sequence of a chain trajectory (length+1 entries), loop kept lean."""
    rng = _as_rng(seed)
    v = model.start_vertex(start, rng)
    walk = np.empty(length + 1, dtype=np.int32)
    walk[0] = v
    cum = model._cum_prob
    dst = model._edge_dst
    pos = 1
    block = 1 << 16
    remaining = length
    while remaining > 0:
        us = rng.random(min(block, remaining))
        for u in us:
            row = cum[v]
            k = bisect_right(row, u)
            if k >= len(row):
                k = len(row) - 1
            v = dst[v][k]
            walk[pos] = v
            pos += 1
        remaining -= len(us)
    return walk


@dataclass(frozen=True)
class ReturnTimeRecord:
    """Visit times R(1) < R(2) < ... of a chain trajectory to one vertex."""

    target: int
    length: int
    returns: tuple[int, ...]

    def t(self, n: int) -> int:
        """T_j(N): how many visits happen by time N inclusive."""
        if n > self.length:
            raise ValueError(f"trajectory has length {self.length} < {n}")
        return bisect_right(self.returns, n)


def return_times(walk: SampledPath | np.ndarray | Sequence[int], target: int) -> ReturnTimeRecord:
    """Times n >= 1 at which the trajectory sits at the target vertex.

    Accepts a SampledPath or a raw vertex sequence (position 0 = start, which
    never counts as a return).
    """
    verts = walk.vertices if isinstance(walk, SampledPath) else np.asarray(walk)
    arr = np.asarray(verts)
    # Python ints via tolist(); the index array is freed before the tuple is
    # built, which keeps the peak memory of long walks down
    hits = (np.nonzero(arr[1:] == target)[0] + 1).tolist()
    return ReturnTimeRecord(target=target, length=len(arr) - 1, returns=tuple(hits))


@dataclass(frozen=True)
class ExcursionDecomposition:
    """Split of a trajectory at its visits to one vertex: prefix, loops, tail."""

    target: int
    prefix: tuple[int, ...]
    loops: tuple[tuple[int, ...], ...]
    tail: tuple[int, ...]

    def recompose(self) -> tuple[int, ...]:
        out = list(self.prefix)
        for loop in self.loops:
            out.extend(loop)
        out.extend(self.tail)
        return tuple(out)


def excursion_decompose(path: SampledPath, target: int) -> ExcursionDecomposition:
    """Cut a trajectory at every visit to the target vertex.

    The prefix ends at the first visit (empty when the path starts there),
    each loop is one excursion from the vertex back to itself, and the tail is
    whatever follows the last visit.  Concatenation reproduces the edge
    sequence exactly.  Raises ValueError when the vertex is never visited.
    """
    visits = [n for n, v in enumerate(path.vertices) if v == target]
    if not visits:
        raise ValueError(f"trajectory never visits vertex {target}")
    prefix = path.edges[: visits[0]]
    loops = tuple(
        path.edges[a:b] for a, b in zip(visits, visits[1:])
    )
    tail = path.edges[visits[-1] :]
    return ExcursionDecomposition(target=target, prefix=prefix, loops=loops, tail=tail)


# ---------------------------------------------------------------------------
# prefix distribution and the prefix-then-uniform path measure


@dataclass(frozen=True)
class PrefixDistribution:
    """Distribution over length-r paths from the start, harvested from A_inf.

    The mass of a prefix depends only on its end vertex: proportional to the
    end vertex's row sum of A_inf (zero exactly on small-growth vertices).
    """

    r: int
    paths: tuple[tuple[int, ...], ...]
    probs: tuple[float, ...]

    @cached_property
    def _index(self) -> dict[tuple[int, ...], int]:
        return {p: i for i, p in enumerate(self.paths)}

    def prob(self, path: tuple[int, ...]) -> float:
        i = self._index.get(path)
        return 0.0 if i is None else self.probs[i]

    def sample(self, rng: np.random.Generator) -> tuple[int, ...]:
        u = rng.random()
        acc = 0.0
        for path, pr in zip(self.paths, self.probs):
            acc += pr
            if u < acc:
                return path
        return self.paths[-1]


def prefix_distribution(
    graph: GraphStructure, data: spectral.SpectralData, r: int
) -> PrefixDistribution:
    """Length-r prefix masses e_i A_inf 1 / (e_0 A^r A_inf 1), i the end vertex."""
    if not 0 <= r:
        raise ValueError("prefix length must be nonnegative")
    right = data.a_inf @ np.ones(graph.n_vertices)
    large = data.classification.large_growth
    right = np.array([x if big else 0.0 for x, big in zip(right, large)])
    paths = []
    weights = []
    for path in enumerate_paths(graph, graph.initial, r):
        end = graph.edges[path[-1]].dst if path else graph.initial
        paths.append(path)
        weights.append(float(right[end]))
    denom = sum(weights)
    if denom <= 0:
        raise SpherecombError("prefix distribution has zero total mass")
    return PrefixDistribution(
        r=r, paths=tuple(paths), probs=tuple(w / denom for w in weights)
    )


def _uniform_suffix_sample(
    graph: GraphStructure,
    counts: list[list[int]],
    start: int,
    length: int,
    rng: np.random.Generator,
) -> tuple[int, ...]:
    """Uniform draw from the length-n paths out of a vertex, by count weighting."""
    total = counts[length][start]
    if total == 0:
        raise SpherecombError(f"no paths of length {length} from vertex {start}")
    taken: list[int] = []
    v = start
    for rem in range(length, 0, -1):
        t = int(rng.integers(counts[rem][v]))
        for ei in graph.out_edges[v]:
            w = counts[rem - 1][graph.edges[ei].dst]
            if t < w:
                taken.append(ei)
                v = graph.edges[ei].dst
                break
            t -= w
        else:
            raise SpherecombError("count bookkeeping failed during uniform sampling")
    return tuple(taken)


@dataclass(frozen=True)
class LambdaPrime:
    """Prefix-then-uniform measure on length-n paths from the start.

    A path splits as a length-r prefix (r = n mod p*) followed by a length-p*m
    suffix; the prefix is drawn from the A_inf prefix distribution and the
    suffix uniformly among continuations.  As n grows this converges to the
    uniform counting measure in total variation.
    """

    graph: GraphStructure
    n: int
    r: int
    prefix: PrefixDistribution

    @cached_property
    def _counts(self) -> list[list[int]]:
        return _backward_counts(self.graph, self.n)

    def prob(self, path: tuple[int, ...]) -> float:
        g0 = path[: self.r]
        pre = self.prefix.prob(g0)
        if pre == 0.0:
            return 0.0
        end = self.graph.edges[g0[-1]].dst if g0 else self.graph.initial
        # verify the suffix really continues from the prefix end
        verts = self.graph.path_vertices(end, path[self.r :])
        del verts
        return pre / self._counts[self.n - self.r][end]

    def sample(self, seed) -> tuple[int, ...]:
        rng = _as_rng(seed)
        g0 = self.prefix.sample(rng)
        end = self.graph.edges[g0[-1]].dst if g0 else self.graph.initial
        return g0 + _uniform_suffix_sample(
            self.graph, self._counts, end, self.n - self.r, rng
        )

    def as_dict(self) -> dict[tuple[int, ...], float]:
        """Explicit path -> mass table (enumerates all length-n paths)."""
        out = {}
        for path in enumerate_paths(self.graph, self.graph.initial, self.n):
            out[path] = self.prob(path)
        return out

    def tv_to_counting(self) -> float:
        """Exact tv distance to uniform counting measure on length-n paths.

        Both measures give every continuation of a fixed prefix equal mass, so
        the distance reduces to a sum over length-r prefixes; no enumeration
        of full paths is needed.
        """
        counts = self._counts
        n0 = counts[self.n][self.graph.initial]
        if n0 == 0:
            raise SpherecombError(f"no paths of length {self.n} from the start vertex")
        acc = 0.0
        for g0, pre in zip(self.prefix.paths, self.prefix.probs):
            end = self.graph.edges[g0[-1]].dst if g0 else self.graph.initial
            m = counts[self.n - self.r][end]
            if m == 0:
                continue
            acc += abs(pre - m / n0)
        return 0.5 * acc


def lambda_prime(graph: GraphStructure, data: spectral.SpectralData, n: int) -> LambdaPrime:
    """The prefix-then-uniform measure on length-n paths from the start vertex."""
    if n < 0:
        raise ValueError("path length must be nonnegative")
    r = n % data.p_star
    return LambdaPrime(
        graph=graph, n=n, r=r, prefix=prefix_distribution(graph, data, r)
    )


def counting_distribution(graph: GraphStructure, n: int) -> dict[tuple[int, ...], float]:
    """Uniform distribution on the length-n paths from the start vertex."""
    paths = list(enumerate_paths(graph, graph.initial, n))
    if not paths:
        raise SpherecombError(f"no paths of length {n} from the start vertex")
    mass = 1.0 / len(paths)
    return {p: mass for p in paths}


def tv_distance(
    dist1: Mapping[object, float], dist2: Mapping[object, float]
) -> float:
    """Total variation distance, half the L1 difference over the union of supports.

    Each distribution must sum to 1 within 1e-9.
    """
    for name, d in (("first", dist1), ("second", dist2)):
        total = sum(d.values())
        if abs(total - 1.0) > _TV_NORM_TOL:
            raise NormalizationError(f"{name} distribution sums to {total!r}, not 1")
    keys = set(dist1) | set(dist2)
    return 0.5 * sum(abs(dist1.get(k, 0.0) - dist2.get(k, 0.0)) for k in keys)
