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
``bisect_right`` per step takes.  The scan costs O(V) per step; measured on
random 3-out chains it beats a bisect per step up to about V = 50 vertices,
and every preset has V <= 5.

Also here: the length-r prefix distribution harvested from A_inf, and the
prefix-then-uniform path measure it induces (an explicit approximation to
uniform counting measure) with its exact total variation distance to
counting measure.  Those samplers draw by one ``bisect_right`` over cached
running totals (``itertools.accumulate``) of prefix masses, or of the exact
path counts of a uniform suffix's continuations.
``LambdaPrime.sample_many`` draws a batch of such paths in one loop.  Where
the bit generator buffers half a word (PCG64, the default, and its kin), it
runs numpy's reduction of bit-generator words to ``random()`` and
``integers`` draws itself, on words read in blocks; MT19937 and other
unbuffered generators draw by numpy's own calls.  Either way it gives the
paths and leaves the generator state of one numpy call per draw.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from math import isqrt
from typing import Iterator, Sequence

import numpy as np

from . import spectral
from .combing import GraphStructure, _backward_counts, enumerate_paths
from .errors import SmallGrowthVertexError, SpherecombError

_ROW_SUM_TOL = 1e-12
_WALK_BLOCK = 1 << 14  # chain steps per block of uniforms, walked by one block scan
_WORD_BLOCK = 1 << 12  # suffix-draw words per block; keeps each block small
_MAX_DRAW = 2**63  # the largest count ``rng.integers`` draws below (its default int64)


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
    def _step_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The chain step by interval of the uniform draw: cuts, edges taken, vertices reached.

        The cuts are every vertex's running totals, merged and sorted.  Edge
        probabilities are nonnegative, so each vertex's totals are sorted too,
        and between two consecutive cuts ``bisect_right(_cum_prob[w], u)`` is
        the same for every vertex w: u picks one interval,
        ``searchsorted(cuts, u, "right")``.  Row i of the two flat
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
        return cuts, edge_of.ravel(), next_of.ravel()

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

    The empty path needs an explicit ``start``; its weight is pi_start.  The
    path is walked by ``GraphStructure.path_vertices``, which rejects an edge
    index out of range or an edge that does not continue the path.
    """
    graph = model.graph
    graph.check_vertex(start, "start")
    if len(path) == 0:
        if start is None:
            raise ValueError("empty path: pass the start vertex explicitly")
        return model.pi[start]
    first = path[0]
    # an edge index out of range leaves i at start, and path_vertices rejects it
    i = graph.edges[first].src if 0 <= first < len(graph.edges) else start
    if start is not None and start != i:
        raise ValueError(f"path starts at {i}, not {start}")
    j = graph.path_vertices(i, path)[-1]
    return model.q[i] * model.p[j] / model.lam ** len(path)


def _edge_blocks(
    model: MarkovModel, v: int, length: int, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """The chain step: edges of a trajectory from v, in int32 blocks of at most _WALK_BLOCK.

    Each block takes one ``rng.random`` call, so the uniforms are the stream
    that a single ``rng.random(length)`` would give.  A block of n draws is
    walked by an exact two-pass scan over the step maps of ``_step_tables``
    (Blelloch, "Prefix sums and their applications", 1990).  It is cut into
    B sub-blocks of L ~ sqrt(n) / 4 steps, the last padded by identity steps.
    Pass 1 composes every sub-block's map of the V + 1 lanes at once, in L
    ``take`` calls; the maps are then chained from v in Python, which gives
    each sub-block its true start; pass 2 replays all sub-blocks from their
    starts, in L more ``take`` calls, and keeps the edges.  A stuck chain
    falls into the sink, so it is found once per block, and the first edge
    -1 is the step that raises.
    """
    cuts, edge_of, next_of = model._step_tables
    lanes = model.graph.n_vertices + 1
    sink = lanes - 1
    pad = (len(cuts) + 1) * lanes  # the identity step's row
    for lo in range(0, length, _WALK_BLOCK):
        n = min(_WALK_BLOCK, length - lo)
        span = max(1, isqrt(n) // 4)
        count = -(-n // span)
        rows = np.full(count * span, pad, dtype=np.intp)
        np.multiply(np.searchsorted(cuts, rng.random(n), side="right"), lanes, out=rows[:n])
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
        taken = np.empty((span, count), dtype=np.int32)
        at = np.empty_like(cur)
        for row, out in zip(rows, taken):
            np.add(row, cur, out=at)
            np.take(edge_of, at, out=out, mode="clip")
            np.take(next_of, at, out=cur, mode="clip")
        taken = taken.T.ravel()[:n]
        if v == sink:  # a step left a vertex with no outgoing edge
            k = int(np.argmax(taken < 0))
            stuck = start if k == 0 else model.graph.edges[taken[k - 1]].dst
            raise SpherecombError(f"vertex {stuck} has no outgoing edge; chain is stuck")
        yield taken


def sample_path(model: MarkovModel, start: int | str, length: int, seed) -> SampledPath:
    """One chain trajectory; deterministic given the seed (or Generator) passed.

    Its vertices are what sample_vertex_walk gives for the same seed.
    """
    if length < 0:
        raise ValueError("walk length must be nonnegative")
    rng = np.random.default_rng(seed)
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
    rng = np.random.default_rng(seed)
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
    never counts as a return).  The target is range-checked against a
    SampledPath's graph; a raw walk carries no graph, so there only a
    negative target is rejected.
    """
    if isinstance(walk, SampledPath):
        walk.graph.check_vertex(target, "target")
        walk = walk.vertices
    elif target < 0:
        raise ValueError(f"target vertex {target} is negative")
    arr = np.asarray(walk)
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


class _Words:
    """``Generator.random()`` and ``int(Generator.integers(total))``, by numpy's own calls.

    For bit generators with no half-word buffer (MT19937, or any other):
    each draw is one numpy call, so the generator is always where the
    per-call draws leave it.
    """

    __slots__ = ("uniform", "_integers")

    def __init__(self, rng: np.random.Generator):
        self.uniform = rng.random
        self._integers = rng.integers

    def below(self, total: int) -> int:
        return int(self._integers(total))

    def close(self) -> None:
        """Nothing to put back: every draw was a numpy call."""


class _BlockWords:
    """The same draws from blocks of 64-bit words read by ``bit_generator.random_raw``.

    For the bit generators that buffer half a word (``has_uint32`` in their
    state: PCG64, PCG64DXSM, SFC64, Philox).  Their ``random()`` is
    (u64 >> 11) * 2**-53, and a 32-bit draw takes a word's low half and
    buffers its high half for the next one.  ``below`` runs numpy's reduction
    of words to a bounded integer (Lemire, "Fast random integer generation in
    an interval", ACM TOMACS 2019) for 1 <= total <= 2**63.  Total 1 takes no
    word and 2**32 one raw 32-bit word.  Otherwise a 32-bit word (below
    2**32) or a 64-bit word (above) is multiplied by the total, drawn again
    while the low half of the product is below (2**bits - total) % total,
    and the high half is the draw.  ``close`` puts the generator back at the
    state saved before the last block, advances it by the words used from
    that block and writes the half-word buffer back, so it stands where the
    per-call draws would have left it.
    """

    __slots__ = ("_bg", "_has", "_half", "_size", "_block", "_pos", "_saved")

    def __init__(self, bg: np.random.BitGenerator, state: dict, size: int):
        self._bg = bg
        self._has, self._half = state["has_uint32"], state["uinteger"]
        self._size = size
        self._block: list[int] = []
        self._pos = 0
        self._saved: dict | None = None

    def _word64(self) -> int:
        pos = self._pos
        if pos == len(self._block):
            self._saved = self._bg.state
            self._block = self._bg.random_raw(self._size).tolist()
            pos = 0
        self._pos = pos + 1
        return self._block[pos]

    def _word32(self) -> int:
        if self._has:
            self._has = 0
            return self._half
        w = self._word64()
        self._has, self._half = 1, w >> 32
        return w & 0xFFFFFFFF

    def uniform(self) -> float:
        return (self._word64() >> 11) * 2.0**-53

    def below(self, total: int) -> int:
        """The reduction, with its hot case inline: a 32-bit word (``_word32``) not rejected."""
        if not 1 < total < 1 << 32:
            if total == 1:
                return 0
            if total == 1 << 32:
                return self._word32()
            return self._reduce(self._word64() * total, total, 64)
        if self._has:
            self._has = 0
            m = self._half * total
        else:
            w = self._word64()
            self._has, self._half = 1, w >> 32
            m = (w & 0xFFFFFFFF) * total
        if m & 0xFFFFFFFF >= total:
            return m >> 32
        return self._reduce(m, total, 32)

    def _reduce(self, m: int, total: int, bits: int) -> int:
        """The draw from m = word * total: the high part, once the low part is not rejected."""
        low = (1 << bits) - 1
        if m & low < total:  # a larger low part is never rejected
            word = self._word32 if bits == 32 else self._word64
            limit = ((1 << bits) - total) % total
            while m & low < limit:
                m = word() * total
        return m >> bits

    def close(self) -> None:
        bg = self._bg
        if self._saved is not None:
            bg.state = self._saved
            bg.random_raw(self._pos)
        state = bg.state
        state["has_uint32"], state["uinteger"] = self._has, self._half
        bg.state = state


def _words(rng: np.random.Generator, size: int) -> _Words | _BlockWords:
    """Words in blocks of ``size`` where the bit generator buffers half a word, else per call."""
    state = rng.bit_generator.state
    if "has_uint32" in state:
        return _BlockWords(rng.bit_generator, state, size)
    return _Words(rng)


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
        """One path, ``sample_many(seed, 1)[0]``: a prefix, then a uniform suffix."""
        return self.sample_many(seed, 1)[0]

    def sample_many(self, seed, count: int) -> list[tuple[int, ...]]:
        """``count`` paths drawn in turn, each a prefix and then a uniform suffix.

        The prefix takes one ``rng.random()`` draw; each suffix edge takes one
        ``rng.integers`` draw below its vertex's continuation count, and one
        bisect.  Where the bit generator buffers half a word, the draws run
        numpy's own reduction on its words, read in blocks of at most
        _WORD_BLOCK; MT19937 and other unbuffered generators draw by numpy's
        own calls (``_words``).  So the paths, and the state a Generator
        passed in is left in, are those of one numpy call per draw, also when
        a sample raises.

        Raises ``SpherecombError`` after a sample's prefix draw, before its
        suffix draws, when the suffix has no continuation or more than 2**63
        of them, which ``rng.integers`` cannot draw.
        """
        if count < 0:
            raise ValueError("sample count must be nonnegative")
        rng = np.random.default_rng(seed)
        length = self.n - self.r
        counts = self._counts[length]
        cum_counts = self._cum_counts[::-1]
        out = self.graph.out_edges
        dst = [e.dst for e in self.graph.edges]
        words = _words(rng, min(_WORD_BLOCK, count * (length + 1)))
        below = words.below
        paths = []
        try:
            for _ in range(count):
                path = list(self.prefix._path_at(words.uniform()))
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
                    ei = out[v][bisect_right(row, below(row[-1]))]
                    path.append(ei)
                    v = dst[ei]
                paths.append(tuple(path))
        finally:
            words.close()
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
    if n < 0:
        raise ValueError("path length must be nonnegative")
    r = n % data.p_star
    return LambdaPrime(
        graph=graph, n=n, r=r, prefix=prefix_distribution(graph, data, r)
    )
