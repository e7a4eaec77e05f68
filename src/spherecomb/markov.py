"""Markov chains adapted to path graphs and the measures they induce on paths.

The chain moves along edges of a graph structure whose vertices all have
large growth: an edge i -> j is taken with probability p_j / (lambda p_i),
where p is the canonical right eigenvector.  Parallel edges split the i -> j
mass equally.  The induced weight of a finite path w from i to j is
q_i p_j / lambda^n, and pi_i = p_i q_i is the stationary distribution.
Both samplers run one step loop (``_edge_blocks``) over blocks of uniform
draws: ``sample_path`` keeps the edges, ``sample_vertex_walk`` only the
vertices, and the same seed gives the same trajectory.

Also here: the length-r prefix distribution harvested from A_inf, and the
prefix-then-uniform path measure it induces (an explicit approximation to
uniform counting measure) with its exact total variation distance to
counting measure.  Every sampler draws one way: one ``bisect_right`` over
cached running totals (``itertools.accumulate``) of edge probabilities,
prefix masses, or the exact path counts of a uniform suffix's continuations.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterator, Sequence

import numpy as np

from . import spectral
from .combing import GraphStructure, _backward_counts, enumerate_paths
from .errors import SmallGrowthVertexError, SpherecombError

_ROW_SUM_TOL = 1e-12
_WALK_BLOCK = 1 << 12  # chain steps per block; keeps each block's list of draws small
_MAX_DRAW = 2**63  # the largest count ``rng.integers`` draws below (its default int64)


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
    def _cum_prob(self) -> tuple[tuple[float, ...], ...]:
        """Per vertex, the running totals of its out-edges' probabilities."""
        prob = self.edge_prob
        return tuple(tuple(accumulate(prob[ei] for ei in out)) for out in self.graph.out_edges)

    def start_vertex(self, start: int | str, rng: np.random.Generator) -> int:
        if start == "stationary":
            return int(rng.choice(self.graph.n_vertices, p=np.array(self.pi)))
        v = int(start)
        self.graph.check_vertex(v, "start")
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
    model.graph.check_vertex(start, "start")
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


def _edge_blocks(
    model: MarkovModel, v: int, length: int, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """The chain step: edges of a trajectory from v, in int32 blocks of _WALK_BLOCK.

    Each block takes one ``rng.random`` call, so the uniforms are the stream
    that a single ``rng.random(length)`` would give.
    """
    cum = model._cum_prob
    out = model.graph.out_edges
    dst = [e.dst for e in model.graph.edges]
    for lo in range(0, length, _WALK_BLOCK):
        taken: list[int] = []
        for u in rng.random(min(_WALK_BLOCK, length - lo)).tolist():
            row = cum[v]
            k = bisect_right(row, u)
            if k >= len(row):  # u == 1.0 rounding, or an empty row
                if not row:
                    raise SpherecombError(f"vertex {v} has no outgoing edge; chain is stuck")
                k = len(row) - 1
            ei = out[v][k]
            taken.append(ei)
            v = dst[ei]
        yield np.array(taken, dtype=np.int32)


def sample_path(model: MarkovModel, start: int | str, length: int, seed) -> SampledPath:
    """One chain trajectory; deterministic given the seed (or Generator) passed.

    Its vertices are what sample_vertex_walk gives for the same seed.
    """
    if length < 0:
        raise ValueError("walk length must be nonnegative")
    rng = _as_rng(seed)
    v = model.start_vertex(start, rng)
    taken: list[int] = []
    for block in _edge_blocks(model, v, length, rng):
        taken += block.tolist()
    return SampledPath(model.graph, v, tuple(taken))


def sample_vertex_walk(
    model: MarkovModel, start: int | str, length: int, seed
) -> np.ndarray:
    """Vertex sequence (length+1 int32 entries) of the trajectory sample_path takes.

    The walk is filled one block of edges at a time, gathering their end
    vertices, so no edge array for the whole trajectory is built.
    """
    if length < 0:
        raise ValueError("walk length must be nonnegative")
    rng = _as_rng(seed)
    v = model.start_vertex(start, rng)
    walk = np.empty(length + 1, dtype=np.int32)
    walk[0] = v
    dst = np.array([e.dst for e in model.graph.edges], dtype=np.int32)
    pos = 1
    for block in _edge_blocks(model, v, length, rng):
        walk[pos : pos + len(block)] = dst[block]
        pos += len(block)
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

    @cached_property
    def _cum(self) -> tuple[float, ...]:
        return tuple(accumulate(self.probs))

    def prob(self, path: tuple[int, ...]) -> float:
        i = self._index.get(path)
        return 0.0 if i is None else self.probs[i]

    def sample(self, rng: np.random.Generator) -> tuple[int, ...]:
        """The first prefix whose running total exceeds one uniform draw (the last if none does)."""
        k = bisect_right(self._cum, rng.random())
        return self.paths[min(k, len(self.paths) - 1)]


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

    @cached_property
    def _cum_counts(self) -> list[tuple[tuple[int, ...], ...]]:
        """[rem][v]: running totals, over v's out-edges, of the rem-edge paths from each head."""
        heads = [[self.graph.edges[ei].dst for ei in out] for out in self.graph.out_edges]
        return [
            tuple(tuple(accumulate(c[h] for h in hs)) for hs in heads)
            for c in self._counts[: self.n - self.r]
        ]

    def prob(self, path: tuple[int, ...]) -> float:
        """Mass of a path; 0.0 for a length other than n or a prefix of zero mass.

        Raises ValueError when the suffix does not continue the prefix.
        """
        if len(path) != self.n:
            return 0.0
        g0 = path[: self.r]
        pre = self.prefix.prob(g0)
        if pre == 0.0:
            return 0.0
        end = self.graph.edges[g0[-1]].dst if g0 else self.graph.initial
        self.graph.path_vertices(end, path[self.r :])  # the suffix must continue the prefix
        return pre / self._counts[self.n - self.r][end]

    def sample(self, seed) -> tuple[int, ...]:
        """A prefix, then a uniform suffix: per edge one ``rng.integers`` and one bisect.

        Raises ``SpherecombError`` before the suffix draws when the suffix
        has more than 2**63 continuations, which ``rng.integers`` cannot draw.
        """
        rng = _as_rng(seed)
        path = list(self.prefix.sample(rng))
        edges = self.graph.edges
        v = edges[path[-1]].dst if path else self.graph.initial
        total = self._counts[self.n - self.r][v]
        if total == 0:
            raise SpherecombError(f"no paths of length {self.n - self.r} from vertex {v}")
        if total > _MAX_DRAW:  # every later draw is bounded by this first one
            raise SpherecombError(
                f"length {self.n} is past the sampling limit: {total} paths of length "
                f"{self.n - self.r} from vertex {v}, and a uniform draw takes at most 2**63"
            )
        out = self.graph.out_edges
        for cum in reversed(self._cum_counts):
            row = cum[v]
            ei = out[v][bisect_right(row, int(rng.integers(row[-1])))]
            path.append(ei)
            v = edges[ei].dst
        return tuple(path)

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
