"""Markov chains adapted to path graphs and the measures they induce on paths.

The chain moves along edges of a graph structure whose vertices all have
large growth: an edge i -> j is taken with probability p_j / (lambda p_i),
where p is the canonical right eigenvector.  Parallel edges split the i -> j
mass equally.  The induced weight of a finite path w from i to j is
q_i p_j / lambda^n, and pi_i = p_i q_i is the stationary distribution.
Both samplers walk the chain one way (``_edge_blocks``): ``sample_path``
keeps the edges, ``sample_vertex_walk`` only the vertices, and the same seed
gives the same trajectory.  Each block of 16,384 uniforms is one
``rng.random`` call.  Merging every vertex's running totals of edge
probabilities into one sorted list of cuts makes each draw one interval id,
whose step is a table lookup for every vertex at once, so a block is walked
by an exact two-pass scan over step maps: it takes the edge that a
``bisect_right`` per step takes.  The ids come from a guide table over 2**k
equal buckets of [0, 1) (at least 4,096, and 16 per cut), which holds the id
of every bucket that no cut splits; only the draws in the few split buckets
(6 of 4,096 on free2_sanov) are searched.  The scan costs O(V) per step;
measured on random 3-out chains it beats a bisect per step up to about
V = 50 vertices, and every preset has V <= 5.  ``sample_path`` and
``random_geodesic_average`` take their edges from ``_walk_edges``, as one
int32 array.

Also here: the length-r prefix distribution harvested from A_inf, and the
prefix-then-uniform path measure it induces (an explicit approximation to
uniform counting measure) with its exact total variation distance to
counting measure.  A sample takes one ``random()`` draw for its prefix and
one ``integers`` draw per suffix edge, below the exact path count of the
continuations; ``LambdaPrime.sample_many`` and ``sample_array`` give the
paths, and leave the generator state, of one numpy call per draw.  Where the
bit generator buffers half a word (PCG64, the default, and its kin) and
every sample draws at the same edge positions with fewer than 2**32
continuations, batches of at least 7 samples (the measured break-even) are
drawn together, one edge position at a time: one ``random_raw`` call gives
every word of a batch, and numpy's reduction of words to bounded integers
(Lemire, ACM TOMACS 2019) runs on whole columns of them.  Everything else is
drawn by a per-sample loop of numpy's own calls, which bisects cached
running totals (``itertools.accumulate``) of prefix masses and of path
counts: a sample with a draw numpy would reject, MT19937, 2**32 or more
continuations, mixed draw schedules, small counts and samples that raise.
"""

from __future__ import annotations

import numbers
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from math import isqrt
from typing import Iterator, Sequence

import numpy as np

from . import spectral
from .combing import GraphStructure, _backward_counts, enumerate_paths
from .errors import SmallGrowthVertexError, SpherecombError, check_integer

_ROW_SUM_TOL = 1e-12
_WALK_BLOCK = 1 << 14  # chain steps per block of uniforms, walked by one block scan
_MIN_BUCKETS = 1 << 12  # the fewest buckets of a chain's guide table
_MAX_DRAW = 2**63  # the largest count ``rng.integers`` draws below (its default int64)
_MIN_BATCH = 7  # the fewest samples per batch of suffix draws; fewer are drawn by the loop


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

    @cached_property
    def _step_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The chain step by interval of the uniform draw: cuts, guide, edges taken, vertices reached.

        The cuts are every vertex's running totals, merged and sorted.  Edge
        probabilities are nonnegative, so each vertex's totals are sorted too,
        and between two consecutive cuts ``bisect_right(_cum_prob[w], u)`` is
        the same for every vertex w: u picks one interval,
        ``searchsorted(cuts, u, "right")``, which ``_interval_rows`` finds
        through the guide of ``_guide``.  Row i of the two flat
        (cuts + 2) x (V + 1) tables holds the edge taken and the vertex
        reached from each vertex in interval i, a draw past the last total
        clamped to the last edge.  A vertex with no
        outgoing edge takes edge -1 to the sink V, which stays there; the last
        row is the identity step.
        """
        nv = self.graph.n_vertices
        cuts = np.array(sorted({c for row in self._cum_prob for c in row}), dtype=np.float64)
        edge_of = np.full((len(cuts) + 2, nv + 1), -1, dtype=np.int32)
        for w, (row, out) in enumerate(zip(self._cum_prob, self.graph.out_edges)):
            if row:
                k = np.searchsorted(np.array(row), cuts, side="right")
                edge_of[1:-1, w] = np.array(out)[np.minimum(k, len(row) - 1)]
                edge_of[0, w] = out[0]
        dst = np.array([e.dst for e in self.graph.edges] + [nv], dtype=np.intp)
        next_of = dst[edge_of]  # edge -1 reads the sink
        next_of[-1] = np.arange(nv + 1)
        return cuts, _guide(cuts, nv + 1), edge_of.ravel(), next_of.ravel()

    def start_vertex(self, start: int | str, rng: np.random.Generator) -> int:
        if start == "stationary":
            return int(rng.choice(self.graph.n_vertices, p=np.array(self.pi)))
        self.graph.check_vertex(start, "start")
        return int(start)


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

    The empty path needs an explicit ``start``; its weight is pi_start.  A
    path is walked from ``start`` (its first edge's tail by default) by
    ``GraphStructure.path_vertices``, which rejects a bad or discontinuous edge.
    """
    graph = model.graph
    if len(path) == 0:
        if start is None:
            raise ValueError("empty path: pass the start vertex explicitly")
        graph.check_vertex(start, "start")
        return model.pi[start]
    if start is None:  # for an index that is no edge, any vertex: path_vertices rejects it
        first = path[0]
        start = graph.edges[int(first)].src if first in range(len(graph.edges)) else graph.initial
    j = graph.path_vertices(start, path)[-1]
    return model.q[start] * model.p[j] / model.lam ** len(path)


def _guide(cuts: np.ndarray, lanes: int) -> np.ndarray:
    """Per bucket [j/m, (j+1)/m) of [0, 1), the row offset of its interval, or -1.

    A guide table (Chen and Asau, AIIE Transactions 1974).  m is a power of
    two, at least ``_MIN_BUCKETS`` and at least 16 buckets per cut, so j/m is
    exact.  A bucket with no cut strictly inside lies in one interval i of
    ``searchsorted(cuts, u, "right")`` and stores i * lanes; a bucket with a
    cut strictly inside stores -1.
    """
    m = max(_MIN_BUCKETS, 1 << (16 * len(cuts) - 1).bit_length())
    bounds = np.arange(m + 1) / m
    lo = np.searchsorted(cuts, bounds[:-1], side="right")
    hi = np.searchsorted(cuts, bounds[1:], side="left")  # the cuts below the next bucket
    return np.where(lo == hi, lo * lanes, -1)


def _interval_rows(cuts: np.ndarray, guide: np.ndarray, lanes: int, u: np.ndarray, out=None):
    """``searchsorted(cuts, u, "right") * lanes`` for uniforms u in [0, 1), by the guide.

    u * m is exact (m a power of two), so its integer part is u's bucket;
    only the u in buckets that a cut splits are searched.
    """
    rows = np.take(guide, (u * len(guide)).astype(np.intp), out=out)
    split = np.flatnonzero(rows < 0)
    if len(split):
        rows[split] = np.searchsorted(cuts, u[split], side="right") * lanes
    return rows


def _edge_blocks(
    model: MarkovModel, v: int, length: int, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """The chain step: edges of a trajectory from v, in int32 blocks of at most _WALK_BLOCK.

    Each block takes one ``rng.random`` call, so the uniforms are the stream
    that a single ``rng.random(length)`` would give; ``_interval_rows`` turns
    them into rows of the step tables.  A block of n draws is
    walked by an exact two-pass scan over the step maps of ``_step_tables``
    (Blelloch, "Prefix sums and their applications", 1990).  It is cut into
    B sub-blocks of L ~ sqrt(n) / 4 steps, the last padded by identity steps.
    Pass 1 composes every sub-block's map of the V + 1 lanes at once, in L
    ``take`` calls; the maps are then chained from v in Python, which gives
    each sub-block its true start; pass 2 replays all sub-blocks from their
    starts, in L more ``take`` calls, keeping each step's table index, and
    one ``take`` of those indices gives the block's edges.  A stuck chain
    falls into the sink, so it is found once per block, and the first edge
    -1 is the step that raises.
    """
    cuts, guide, edge_of, next_of = model._step_tables
    lanes = model.graph.n_vertices + 1
    sink = lanes - 1
    pad = (len(cuts) + 1) * lanes  # the identity step's row
    for lo in range(0, length, _WALK_BLOCK):
        n = min(_WALK_BLOCK, length - lo)
        span = max(1, isqrt(n) // 4)
        count = -(-n // span)
        rows = np.full(count * span, pad, dtype=np.intp)
        _interval_rows(cuts, guide, lanes, rng.random(n), out=rows[:n])
        rows = rows.reshape(count, span).T.copy()  # row t: step t of every sub-block
        # every index below is a row plus a vertex, in range by construction, so
        # "clip" never clips; it spares ``take`` the buffered copy of "raise"
        maps = np.tile(np.arange(lanes, dtype=np.intp), (count, 1))
        at = np.empty_like(maps)
        for row in rows:
            np.add(row[:, None], maps, out=at)
            np.take(next_of, at, out=maps, mode="clip")
        start = v
        firsts = []
        for b in range(count):
            firsts.append(v)
            v = maps.item(b, v)
        cur = np.array(firsts, dtype=np.intp)
        at = np.empty((span, count), dtype=np.intp)
        for row, here in zip(rows, at):
            np.add(row, cur, out=here)
            np.take(next_of, here, out=cur, mode="clip")
        taken = np.take(edge_of, at.T, mode="clip").ravel()[:n]
        if v == sink:  # a step left a vertex with no outgoing edge
            k = int(np.argmax(taken < 0))
            stuck = start if k == 0 else model.graph.edges[taken[k - 1]].dst
            raise SpherecombError(f"vertex {stuck} has no outgoing edge; chain is stuck")
        yield taken


def _seed(seed):
    """The seed, after ``check_integer`` where it is an integer; anything else is numpy's."""
    if isinstance(seed, numbers.Integral):
        check_integer(seed, "seed")
    return seed


def _walk_edges(model: MarkovModel, start: int | str, length: int, seed) -> tuple[int, np.ndarray]:
    """The start vertex and the int32 edges of the trajectory that ``sample_path`` takes."""
    check_integer(length, "walk length")
    rng = np.random.default_rng(_seed(seed))
    v = model.start_vertex(start, rng)
    taken = np.empty(length, dtype=np.int32)
    pos = 0
    for block in _edge_blocks(model, v, length, rng):
        taken[pos : pos + len(block)] = block
        pos += len(block)
    return v, taken


def sample_path(model: MarkovModel, start: int | str, length: int, seed) -> SampledPath:
    """One chain trajectory; deterministic given the seed (or Generator) passed.

    Its vertices are what sample_vertex_walk gives for the same seed.
    """
    v, taken = _walk_edges(model, start, length, seed)
    return SampledPath(model.graph, v, tuple(taken.tolist()))


def sample_vertex_walk(
    model: MarkovModel, start: int | str, length: int, seed
) -> np.ndarray:
    """Vertex sequence (length+1 int32 entries) of the trajectory sample_path takes.

    The walk is filled one block of edges at a time, gathering their end
    vertices, so no edge array for the whole trajectory is built.
    """
    check_integer(length, "walk length")
    rng = np.random.default_rng(_seed(seed))
    v = model.start_vertex(start, rng)
    walk = np.empty(length + 1, dtype=np.int32)
    walk[0] = v
    dst = np.array([e.dst for e in model.graph.edges], dtype=np.int32)
    pos = 1
    for block in _edge_blocks(model, v, length, rng):
        walk[pos : pos + len(block)] = dst[block]
        pos += len(block)
    return walk


@dataclass(frozen=True, eq=False)
class ReturnTimeRecord:
    """Visit times R(1) < R(2) < ... of a chain trajectory to one vertex.

    ``hits`` holds them as an index array; ``returns`` gives them as a tuple
    of Python ints, built when first read.  Records are equal when their
    targets, lengths and visit times are.
    """

    target: int
    length: int
    hits: np.ndarray

    @cached_property
    def returns(self) -> tuple[int, ...]:
        return tuple(self.hits.tolist())

    def t(self, n: int) -> int:
        """T_j(N): how many visits happen by time N inclusive."""
        check_integer(n, "time")
        if n > self.length:
            raise ValueError(f"trajectory has length {self.length} < {n}")
        return int(np.searchsorted(self.hits, n, side="right"))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReturnTimeRecord):
            return NotImplemented
        return (self.target, self.length) == (other.target, other.length) and np.array_equal(
            self.hits, other.hits
        )

    def __hash__(self) -> int:
        return hash((self.target, self.length, len(self.hits)))


def return_times(walk: SampledPath | np.ndarray | Sequence[int], target: int) -> ReturnTimeRecord:
    """Times n >= 1 at which the trajectory sits at the target vertex.

    Accepts a SampledPath or a raw vertex sequence (position 0 = start, which
    never counts as a return).  The target is range-checked against a
    SampledPath's graph; a raw walk carries no graph, so there only a
    target that is no integer or is negative is rejected.
    """
    if isinstance(walk, SampledPath):
        walk.graph.check_vertex(target, "target")
        walk = walk.vertices
    else:
        check_integer(target, "target vertex", None)
        if target < 0:
            raise ValueError(f"target vertex {target} is negative")
    arr = np.asarray(walk)
    hits = np.flatnonzero(arr[1:] == target)
    hits += 1
    return ReturnTimeRecord(target=target, length=len(arr) - 1, hits=hits)


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

    def __post_init__(self):
        if not self.paths:
            raise ValueError("prefix distribution needs at least one path")
        if len(self.probs) != len(self.paths):
            raise ValueError(f"{len(self.probs)} masses for {len(self.paths)} prefixes")
        for path in self.paths:
            if len(path) != self.r:
                raise ValueError(f"prefix {path} does not have length r = {self.r}")

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
        """The prefix that one uniform draw picks (see ``_path_at``)."""
        return self._path_at(rng.random())

    def _path_at(self, u: float) -> tuple[int, ...]:
        """The first prefix whose running total exceeds u (the last if none does)."""
        k = bisect_right(self._cum, u)
        return self.paths[min(k, len(self.paths) - 1)]


def prefix_distribution(
    graph: GraphStructure, data: spectral.SpectralData, r: int
) -> PrefixDistribution:
    """Length-r prefix masses e_i A_inf 1 / (e_0 A^r A_inf 1), i the end vertex."""
    check_integer(r, "prefix length")
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
class _Batch:
    """Tables of the batched suffix draw: every sample of a batch advances together.

    ``steps`` holds one entry per suffix edge position.  A drawing step is
    (total, limit, keys, edges): per vertex its continuation count and
    numpy's rejection limit (2**32 - total) % total; then, vertex by vertex,
    v * 2**32 plus each running total of v's out-edges, and those edges.
    The keys are sorted, so the number of keys <= v * 2**32 + rank is the
    position of the edge whose running total first exceeds the rank.  At a
    step where every vertex has one continuation the entry is
    (None, None, None, edge): per vertex the edge taken with no draw.
    ``cap`` is the largest batch whose expected number of rejections is at
    most one.
    """

    cum: np.ndarray  # the prefixes' running masses
    prefixes: np.ndarray  # (P, r) edges of each prefix
    ends: np.ndarray  # the vertex each prefix ends at
    dst: np.ndarray
    steps: tuple
    draws: int  # 32-bit draws per sample
    cap: int


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

    def __post_init__(self):
        if self.r != self.prefix.r:
            raise ValueError(f"prefix length r = {self.r}, but the prefixes have r = {self.prefix.r}")
        if self.r > self.n:
            raise ValueError(f"prefix length r = {self.r} exceeds the path length n = {self.n}")

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

    @cached_property
    def _batch(self) -> _Batch | None:
        """The batch tables, or None where samples could take different numbers of draws.

        Every prefix end needs 1 .. 2**32 - 1 continuations (so no sample
        raises, and each draw takes one 32-bit word unless rejected), and at
        each step the vertices a sample can reach (forward from the prefix
        ends, through heads with continuations) must all draw (total >= 2)
        or all not (total 1).
        """
        graph = self.graph
        counts = self._counts
        length = self.n - self.r
        ends = [graph.edges[p[-1]].dst if p else graph.initial for p in self.prefix.paths]
        if not all(0 < counts[length][v] < 1 << 32 for v in ends):
            return None
        nv = graph.n_vertices
        out = graph.out_edges
        dst = [e.dst for e in graph.edges]
        reach = set(ends)
        steps = []
        spread = 0  # the largest rejection limit at each step, summed over the steps
        for rem in range(length, 0, -1):
            cum = self._cum_counts[rem - 1]
            drawing = {cum[v][-1] > 1 for v in reach}
            if len(drawing) > 1:
                return None
            if drawing == {True}:
                total = np.ones(nv, dtype=np.uint64)
                limit = np.zeros(nv, dtype=np.uint64)
                keys, edges = [], []
                for v in sorted(reach):
                    total[v] = cum[v][-1]
                    limit[v] = ((1 << 32) - cum[v][-1]) % cum[v][-1]
                    keys += [(v << 32) + c for c in cum[v]]
                    edges += out[v]
                spread += int(limit.max())
                steps.append((total, limit, np.array(keys, dtype=np.uint64),
                              np.array(edges, dtype=np.intp)))
            else:
                edge = np.zeros(nv, dtype=np.intp)
                for v in reach:
                    edge[v] = out[v][bisect_right(cum[v], 0)]
                steps.append((None, None, None, edge))
            reach = {dst[ei] for v in reach for ei in out[v] if counts[rem - 1][dst[ei]]}
        return _Batch(
            cum=np.array(self.prefix._cum, dtype=np.float64),
            prefixes=np.array(self.prefix.paths, dtype=np.intp).reshape(len(ends), self.r),
            ends=np.array(ends, dtype=np.intp),
            dst=np.array(dst, dtype=np.intp),
            steps=tuple(steps),
            draws=sum(step[0] is not None for step in steps),
            cap=(1 << 32) // spread if spread else 1 << 62,
        )

    def _batch_size(self, state: dict, count: int) -> int:
        """Samples per batch, or 0 where the per-sample loop draws instead.

        The batch needs a bit generator that buffers half a word, tables
        (``_batch``), and at least ``_MIN_BATCH`` samples per batch.
        """
        if count < _MIN_BATCH or "has_uint32" not in state or self._batch is None:
            return 0
        size = min(count, self._batch.cap)
        return size if size >= _MIN_BATCH else 0

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
        """One path, ``sample_many(seed, 1)[0]``: a prefix, then a uniform suffix."""
        return self.sample_many(seed, 1)[0]

    def sample_many(self, seed, count: int) -> list[tuple[int, ...]]:
        """``count`` paths drawn in turn, each a prefix and then a uniform suffix.

        The prefix takes one ``rng.random()`` draw; each suffix edge takes one
        ``rng.integers`` draw below its vertex's continuation count.  The
        paths, and the state a Generator passed in is left in, are those of
        one numpy call per draw, also when a sample raises.

        Where the bit generator buffers half a word (PCG64, the default,
        PCG64DXSM, SFC64, Philox) and every sample draws at the same steps
        (``_batch``), batches of at least ``_MIN_BATCH`` samples are drawn
        together, one edge position at a time, from one ``random_raw`` call
        each; a sample whose draw numpy would reject, and redraw, is drawn
        again by the loop, and the batch resumes after it.  Otherwise (MT19937,
        2**32 or more continuations, mixed draw schedules, small counts or a
        sample that raises) the per-sample loop draws: numpy's own calls, and
        a bisect per edge.

        Raises ``SpherecombError`` after a sample's prefix draw, before its
        suffix draws, when the suffix has no continuation or more than 2**63
        of them, which ``rng.integers`` cannot draw.
        """
        check_integer(count, "sample count")
        paths: list[tuple[int, ...]] = []
        for part in self._draw(np.random.default_rng(_seed(seed)), count):
            paths += part if isinstance(part, list) else map(tuple, part.tolist())
        return paths

    def sample_array(self, seed, count: int) -> np.ndarray:
        """The paths of ``sample_many(seed, count)`` as a (count, n) intp array."""
        check_integer(count, "sample count")
        paths = np.empty((count, self.n), dtype=np.intp)
        done = 0
        for part in self._draw(np.random.default_rng(_seed(seed)), count):
            paths[done : done + len(part)] = np.reshape(part, (len(part), self.n))
            done += len(part)
        return paths

    def _draw(self, rng: np.random.Generator, count: int) -> Iterator[list | np.ndarray]:
        """The paths of ``count`` samples in order: lists of loop-drawn tuples and batch arrays.

        A batch of b samples, each making one ``random()`` and s 32-bit
        draws, takes b + ceil((b s - h) / 2) words, h the buffered-half flag:
        sample i's ``random()`` word is word i + ceil((i s - h) / 2), and the
        q-th word split into halves (low half first) is word
        q + (2 q + h) // s + 1, after the buffered half if h.  Where numpy
        would reject a draw of sample k, the bit generator is rewound to
        where sample k starts, its half-word buffer (``has_uint32``,
        ``uinteger``) is written into its state, and ``_loop`` draws that one
        sample by numpy's calls.  Fewer than ``_MIN_BATCH`` samples, or no
        batch tables, go to ``_loop`` whole.
        """
        bg = rng.bit_generator
        state = bg.state
        size = self._batch_size(state, count)
        if not size:
            yield self._loop(rng, count)
            return
        batch = self._batch
        s = batch.draws
        h, half = state["has_uint32"], state["uinteger"]
        done = 0
        while done < count:
            b = min(size, count - done)
            nh = (b * s - h + 1) // 2  # words split into halves
            raw = bg.random_raw(b + nh)
            i = np.arange(b)
            uniforms = (raw[i + (i * s - h + 1) // 2] >> 11) * 2.0**-53
            q = np.arange(nh)
            split = raw[q + (2 * q + h) // s + 1] if nh else raw[:0]
            halves = np.empty(h + 2 * nh, dtype=np.uint64)
            halves[:h] = half
            halves[h::2] = split & 0xFFFFFFFF
            halves[h + 1 :: 2] = split >> 32
            rows, rejected = self._batch_rows(batch, uniforms, halves[: b * s].reshape(b, s))
            if not rejected.any():
                yield rows
                done += b
                h, half = (b * s - h) % 2, int(split[-1] >> 32) if nh else half
                state = bg.state
                continue
            k = int(np.argmax(rejected))  # the first sample numpy would redraw
            if k:
                yield rows[:k]
            nk = (k * s - h + 1) // 2
            state["has_uint32"] = (k * s - h) % 2  # ``random_raw`` keeps the buffer
            state["uinteger"] = int(split[nk - 1] >> 32) if nk else half
            bg.state = state
            bg.random_raw(k + nk)  # back to where sample k starts
            yield self._loop(rng, 1)
            done += k + 1
            state = bg.state
            h, half = state["has_uint32"], state["uinteger"]
        state["has_uint32"], state["uinteger"] = h, half
        bg.state = state

    def _batch_rows(
        self, batch: _Batch, uniforms: np.ndarray, halves: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Each sample's path, and whether numpy would reject one of its draws.

        A draw below total is m = half * total (exact in uint64, both factors
        below 2**32): its rank is m >> 32, and it is rejected when the low
        half of m is below the limit.
        """
        pick = np.minimum(np.searchsorted(batch.cum, uniforms, side="right"), len(batch.ends) - 1)
        rows = np.empty((self.n, len(uniforms)), dtype=np.intp)  # row t: edge t of every sample
        rows[: self.r] = batch.prefixes[pick].T
        v = batch.ends[pick]
        rejected = np.zeros(len(uniforms), dtype=bool)
        j = 0
        for t, (total, limit, keys, edges) in enumerate(batch.steps, start=self.r):
            if total is None:
                e = edges[v]
            else:
                m = halves[:, j] * total[v]
                j += 1
                rejected |= (m & 0xFFFFFFFF) < limit[v]
                e = edges[np.searchsorted(keys, (m >> 32) | (v.astype(np.uint64) << 32), side="right")]
            rows[t] = e
            v = batch.dst[e]
        return rows.T, rejected

    def _loop(self, rng: np.random.Generator, count: int) -> list[tuple[int, ...]]:
        """``count`` paths drawn in turn by numpy's own calls, one bisect per suffix edge."""
        length = self.n - self.r
        counts = self._counts[length]
        cum_counts = self._cum_counts[::-1]
        out = self.graph.out_edges
        dst = [e.dst for e in self.graph.edges]
        uniform, integers = rng.random, rng.integers
        paths = []
        for _ in range(count):
            path = list(self.prefix._path_at(uniform()))
            v = dst[path[-1]] if path else self.graph.initial
            total = counts[v]
            if total == 0:
                raise SpherecombError(f"no paths of length {length} from vertex {v}")
            if total > _MAX_DRAW:  # every later draw is bounded by this first one
                raise SpherecombError(
                    f"length {self.n} is past the sampling limit: {total} paths of length "
                    f"{length} from vertex {v}, and a uniform draw takes at most 2**63"
                )
            for cum in cum_counts:
                row = cum[v]
                ei = out[v][bisect_right(row, int(integers(row[-1])))]
                path.append(ei)
                v = dst[ei]
            paths.append(tuple(path))
        return paths

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
    check_integer(n, "path length")
    r = n % data.p_star
    return LambdaPrime(
        graph=graph, n=n, r=r, prefix=prefix_distribution(graph, data, r)
    )
