"""Markov chain weights, sampling, return times, prefix and tv machinery."""

import copy
import gc
import hashlib
import tracemalloc
from bisect import bisect_right
from dataclasses import dataclass
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherecomb import (
    Edge,
    GraphStructure,
    MarkovModel,
    build_markov,
    enumerate_paths,
    lambda_prime,
    path_weight,
    perron_data,
    prefix_distribution,
    preset,
    return_times,
    sample_path,
    sample_vertex_walk,
    transition_matrix,
)
from spherecomb.combing import _backward_counts
from spherecomb.errors import SmallGrowthVertexError, SpherecombError
from spherecomb.markov import (
    _MIN_BATCH,
    _MIN_BUCKETS,
    _WALK_BLOCK,
    LambdaPrime,
    PrefixDistribution,
    SampledPath,
    _guide,
    _interval_rows,
)
from conftest import sanov_system


# Oracles: plain enumerations that the package itself does not need.


def counting_distribution(graph, n: int) -> dict:
    """Uniform distribution on the length-n paths from the start vertex."""
    paths = list(enumerate_paths(graph, graph.initial, n))
    if not paths:
        raise SpherecombError(f"no paths of length {n} from the start vertex")
    return {p: 1.0 / len(paths) for p in paths}


def tv_distance(dist1: dict, dist2: dict) -> float:
    """Half the L1 difference over the union of supports; each must sum to 1 within 1e-9."""
    for name, d in (("first", dist1), ("second", dist2)):
        total = sum(d.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"{name} distribution sums to {total!r}, not 1")
    keys = set(dist1) | set(dist2)
    return 0.5 * sum(abs(dist1.get(k, 0.0) - dist2.get(k, 0.0)) for k in keys)


def lambda_prime_masses(lp: LambdaPrime) -> dict:
    """Path -> mass under lp, for every length-n path from the start vertex."""
    return {path: lp.prob(path) for path in enumerate_paths(lp.graph, lp.graph.initial, lp.n)}


@dataclass(frozen=True)
class ExcursionDecomposition:
    """Split of a trajectory at its visits to one vertex: prefix, loops, tail."""

    prefix: tuple
    loops: tuple
    tail: tuple

    def recompose(self) -> tuple:
        return self.prefix + sum(self.loops, ()) + self.tail


def excursion_decompose(path, target: int) -> ExcursionDecomposition:
    """Cut a trajectory's edges at every visit to the target; ValueError if it never visits."""
    visits = [n for n, v in enumerate(path.vertices) if v == target]
    if not visits:
        raise ValueError(f"trajectory never visits vertex {target}")
    loops = tuple(path.edges[a:b] for a, b in zip(visits, visits[1:]))
    return ExcursionDecomposition(path.edges[: visits[0]], loops, path.edges[visits[-1] :])


@pytest.fixture(scope="module")
def free2_model(free2_graph, free2_data):
    return build_markov(free2_graph, free2_data)


def period2_decay_graph():
    """Period-2 structure whose sampling measure differs from counting at odd n.

    One maximal component {u, v} with three parallel edges u -> v, plus a
    growth-rate-1 detour through t.  Odd lengths force a prefix choice where
    counting and the limit weights disagree.
    """
    system = sanov_system()
    s, t, u, v = 0, 1, 2, 3
    edges = (
        Edge(s, t, ("b",)),
        Edge(s, u, ("a",)),
        Edge(t, t, ("a",)),
        Edge(t, u, ("b",)),
        Edge(u, v, ("a",)),
        Edge(u, v, ("b",)),
        Edge(u, v, ("A",)),
        Edge(v, u, ("b",)),
    )
    return GraphStructure(system, 4, s, edges)


def test_edge_probabilities_pinned(free2_model, free2_graph):
    g = free2_graph
    for ei in g.out_edges[g.initial]:
        assert abs(free2_model.edge_prob[ei] - 0.25) <= 1e-12
    for v in range(g.n_vertices):
        if v == g.initial:
            continue
        for ei in g.out_edges[v]:
            assert abs(free2_model.edge_prob[ei] - 1.0 / 3.0) <= 1e-12


def test_row_sums_exactly_one(free2_model, free2_graph):
    g = free2_graph
    for v in range(g.n_vertices):
        row = sum(free2_model.edge_prob[ei] for ei in g.out_edges[v])
        assert abs(row - 1.0) <= 1e-12


def test_stationarity_of_pi(free2_model, free2_graph):
    g = free2_graph
    n = g.n_vertices
    p_mat = np.zeros((n, n))
    for ei, e in enumerate(g.edges):
        p_mat[e.src, e.dst] += free2_model.edge_prob[ei]
    pi = np.asarray(free2_model.pi)
    assert np.max(np.abs(pi @ p_mat - pi)) <= 1e-12


def test_build_markov_rejects_small_growth_vertices():
    system = sanov_system()
    g = GraphStructure(
        system, 3, 0, (Edge(0, 1, ("a",)), Edge(1, 1, ("a",)), Edge(0, 2, ("b",)))
    )
    with pytest.raises(SmallGrowthVertexError) as exc:
        build_markov(g)
    assert "2" in str(exc.value)


def test_cylinder_masses_sum_to_pi(free2_model, free2_graph):
    g = free2_graph
    for n in (1, 3, 5):
        for i in range(g.n_vertices):
            total = sum(
                path_weight(free2_model, path, start=i)
                for path in enumerate_paths(g, i, n)
            )
            assert abs(total - free2_model.pi[i]) <= 1e-10, (i, n)


def test_path_weight_pinned_value(free2_model, free2_graph):
    g = free2_graph
    path = (g.out_edges[1][0],)
    j = g.edges[path[0]].dst
    expect = free2_model.q[1] * free2_model.p[j] / free2_model.lam
    assert abs(path_weight(free2_model, path, start=1) - expect) <= 1e-15
    # empty path mass is the stationary weight
    assert path_weight(free2_model, (), start=2) == free2_model.pi[2]


def test_path_weight_walks_only_paths(free2_model, free2_graph):
    g = free2_graph
    assert (g.edges[4][:2], g.edges[12][:2]) == ((1, 1), (3, 3))
    with pytest.raises(ValueError, match="^edge 12 does not continue the path at vertex 1$"):
        path_weight(free2_model, (4, 12))
    for bad in (-1, len(g.edges)):
        message = f"^edge {bad} out of range for {len(g.edges)} edges$"
        with pytest.raises(ValueError, match=message):
            path_weight(free2_model, (bad,))
        with pytest.raises(ValueError, match=message):
            path_weight(free2_model, (4, bad), start=1)


def test_sample_path_deterministic(free2_model):
    p1 = sample_path(free2_model, 1, 64, seed=123)
    p2 = sample_path(free2_model, 1, 64, seed=123)
    p3 = sample_path(free2_model, 1, 64, seed=124)
    assert p1.edges == p2.edges
    assert p1.edges != p3.edges
    assert len(p1) == 64
    assert p1.vertices[0] == 1


def test_sample_path_word_is_reduced(free2_model, sanov):
    path = sample_path(free2_model, "stationary", 300, seed=5)
    word = path.word
    for a, b in zip(word, word[1:]):
        assert sanov.inverse_of(a) != b


def test_stationary_start_avoids_zero_mass_vertex(free2_model, free2_graph):
    rng = np.random.default_rng(17)
    for _ in range(50):
        v = free2_model.start_vertex("stationary", rng)
        assert v != free2_graph.initial


def test_empirical_edge_frequencies(free2_model, free2_graph):
    g = free2_graph
    walk = sample_vertex_walk(free2_model, "stationary", 200_000, seed=11)
    counts = np.bincount(np.asarray(walk), minlength=g.n_vertices)
    freq = counts / len(walk)
    for v in range(g.n_vertices):
        assert abs(freq[v] - free2_model.pi[v]) <= 0.01


def test_return_times_deterministic_cycle():
    # dinf alternates between its two letter vertices: returns every 2 steps
    ps = preset("dinf_involutions")
    model = build_markov(ps.graph)
    walk = sample_vertex_walk(model, 1, 100, seed=0)
    rec = return_times(walk, 1)
    assert list(rec.returns) == list(range(2, 101, 2))
    # counting function: visits by time n inclusive
    assert rec.t(1) == 0
    assert rec.t(2) == 1
    assert rec.t(100) == 50


def test_return_times_frequency(free2_model):
    walk = sample_vertex_walk(free2_model, 1, 100_000, seed=9)
    rec = return_times(walk, 1)
    assert abs(len(rec.returns) / 100_000 - 0.25) <= 0.01


def test_return_times_never_counts_position_zero(free2_model):
    walk = sample_vertex_walk(free2_model, 1, 50, seed=2)
    rec = return_times(walk, 1)
    assert 0 not in rec.returns


def test_return_times_checks_its_target(free2_model):
    path = sample_path(free2_model, 1, 20, seed=1)
    for target in (99, 5, -1):
        with pytest.raises(ValueError, match=f"target vertex {target} out of range for 5 vertices"):
            return_times(path, target)
    # a raw walk carries no graph: only a negative target is known to be wrong
    for walk in ([0, 1, 2, 1], np.array(path.vertices, np.int32)):
        with pytest.raises(ValueError, match="target vertex -1 is negative"):
            return_times(walk, -1)
    assert return_times(path, 1) == return_times(np.array(path.vertices, np.int32), 1)


def test_excursion_recomposition(free2_model):
    path = sample_path(free2_model, 1, 200, seed=21)
    dec = excursion_decompose(path, 1)
    assert dec.recompose() == path.edges
    g = free2_model.graph
    for loop in dec.loops:
        verts = g.path_vertices(1, loop)
        assert verts[0] == 1 and verts[-1] == 1
        assert all(v != 1 for v in verts[1:-1])


def test_excursion_requires_visit(free2_model):
    path = sample_path(free2_model, 1, 3, seed=4)
    missing = set(range(free2_model.graph.n_vertices)) - set(path.vertices)
    if missing:
        with pytest.raises(ValueError):
            excursion_decompose(path, missing.pop())


def test_prefix_distribution_trivial_at_r_zero(free2_graph, free2_data):
    dist = prefix_distribution(free2_graph, free2_data, 0)
    assert dist.paths == ((),)
    assert dist.probs == (1.0,)


def test_prefix_distribution_dinf_pinned():
    ps = preset("dinf_involutions")
    data = perron_data(transition_matrix(ps.graph))
    dist = prefix_distribution(ps.graph, data, 1)
    assert len(dist.paths) == 2
    assert all(abs(p - 0.5) <= 1e-12 for p in dist.probs)


def test_lambda_prime_is_probability_measure(free2_graph, free2_data):
    lp = lambda_prime(free2_graph, free2_data, 4)
    masses = lambda_prime_masses(lp)
    assert abs(sum(masses.values()) - 1.0) <= 1e-12
    assert all(m >= 0 for m in masses.values())


def test_lambda_prime_equals_counting_when_aperiodic(free2_graph, free2_data):
    for n in (1, 3, 6, 10):
        lp = lambda_prime(free2_graph, free2_data, n)
        assert lp.tv_to_counting() == 0.0


def test_tv_dual_route(free2_graph, free2_data):
    # factorized tv must equal the brute-force tv over full path enumerations
    ps = preset("dinf_involutions")
    data = perron_data(transition_matrix(ps.graph))
    for graph, d in ((free2_graph, free2_data), (ps.graph, data)):
        for n in (1, 2, 3, 5):
            lp = lambda_prime(graph, d, n)
            brute = tv_distance(lambda_prime_masses(lp), counting_distribution(graph, n))
            assert abs(lp.tv_to_counting() - brute) <= 1e-12


def test_period2_decay_graph_tv_profile():
    g = period2_decay_graph()
    data = perron_data(transition_matrix(g))
    assert data.p_star == 2
    tvs = {}
    for n in range(2, 14):
        tvs[n] = lambda_prime(g, data, n).tv_to_counting()
    # even lengths (r = 0) are exact
    for n in range(2, 14, 2):
        assert tvs[n] == 0.0
    # odd lengths carry real mass differences that shrink geometrically
    odd = [tvs[n] for n in range(3, 14, 2)]
    assert odd[0] > 0.01
    assert all(a > b for a, b in zip(odd, odd[1:]))
    assert odd[-1] < 0.01
    for n in range(3, 14, 2):
        brute = tv_distance(
            lambda_prime_masses(lambda_prime(g, data, n)), counting_distribution(g, n)
        )
        assert abs(tvs[n] - brute) <= 1e-12


def test_lambda_prime_sampling_matches_probabilities(free2_graph, free2_data):
    lp = lambda_prime(free2_graph, free2_data, 3)
    masses = lambda_prime_masses(lp)
    rng = np.random.default_rng(33)
    hits = {}
    trials = 20_000
    for _ in range(trials):
        path = lp.sample(rng)
        hits[path] = hits.get(path, 0) + 1
    for path, m in masses.items():
        assert abs(hits.get(path, 0) / trials - m) <= 0.01


def test_uniform_suffix_draws_stop_past_two_to_the_63():
    # one vertex with two loops has 2**n paths of length n; rng.integers
    # draws below 2**63 at most, and a longer length raises after the
    # prefix draw, before any suffix draw
    g = GraphStructure(sanov_system(), 1, 0, (Edge(0, 0, ("a",)), Edge(0, 0, ("b",))))
    data = perron_data(transition_matrix(g))
    rng = np.random.default_rng(5)
    assert len(lambda_prime(g, data, 63).sample(rng)) == 63
    twin = copy.deepcopy(rng)
    message = f"^length 64 is past the sampling limit: {2**64} paths "
    with pytest.raises(SpherecombError, match=message):
        lambda_prime(g, data, 64).sample(rng)
    twin.random()
    assert rng.bit_generator.state == twin.bit_generator.state


def test_tv_distance_basics():
    assert tv_distance({"a": 1.0}, {"a": 0.5, "b": 0.5}) == pytest.approx(0.5)
    assert tv_distance({"a": 1.0}, {"b": 1.0}) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="sums to 0.7, not 1"):
        tv_distance({"a": 0.7}, {"a": 1.0})


_WALK_LENGTHS = (0, 1, 65535, 65536, 65537)

# (preset, start) -> sha256 of the repr of sample_path's edges and of the bytes
# of sample_vertex_walk, each fed the lengths above in order with seed 7;
# recorded when the two samplers had separate step loops
_WALK_PINNED = {
    ("dinf_involutions", 1): (
        "53bc228035faf8498ba8746c9df184d92169a0111e9ba1ad970371d7601f0a0f",
        "205e3be0706acb50eece9d732e4c587417219b9eda11623d86023e8e4201643a",
    ),
    ("dinf_involutions", "initial"): (
        "6bd51dc53a23a40290b6bdb8b89c109fc49496c1033e01204758ec645e853c18",
        "e484ad916bec72707947ef8edeac3a201096beed8a108ce1b4c5af1117fbfca1",
    ),
    ("dinf_involutions", "stationary"): (
        "42b203d20560bad21a66a1a2e0497d6cd5cac19a1bd782043f0a26fb4d32d97a",
        "8f4cfe6903de6309db04750e19c1c869a1c6937236195e48ebdaebfde174d9a1",
    ),
    ("free2_sanov", 1): (
        "2a345751469fee30255eb72113a368b74b399155e096d783f35284b4c010bf8c",
        "68af37fb2b39e832018db25fa5fe6aef8a5d52475268bcbcaf3a5b2d72dff2bd",
    ),
    ("free2_sanov", "initial"): (
        "4050b82d406d6b50e4838e576fcb6bfdcce4eb2e7ede44646e0888bfcf8f31a0",
        "8f2042a4332d27046acc9a30a57b5b9185859469b2fa5ddb8a252390913f12c9",
    ),
    ("free2_sanov", "stationary"): (
        "67a5f0aba34e956b0c8985d0c1a554c344301de3e77180bd98894dfc6d6c22bd",
        "8ed6e5010e9105cee668a6c51d66d68c0e04064b16bfd3898177acec831e943b",
    ),
}


@pytest.mark.parametrize(
    "case", sorted(_WALK_PINNED, key=repr), ids=lambda c: f"{c[0]}-{c[1]}"
)
def test_samplers_walk_the_same_chain(case):
    name, start = case
    model = build_markov(preset(name).graph)
    if start == "initial":
        start = model.graph.initial
    path_hash, walk_hash = hashlib.sha256(), hashlib.sha256()
    for length in _WALK_LENGTHS:
        path = sample_path(model, start, length, seed=7)
        walk = sample_vertex_walk(model, start, length, seed=7)
        assert walk.dtype == np.int32 and walk.shape == (length + 1,)
        assert np.array_equal(np.array(path.vertices, np.int32), walk)
        path_hash.update(repr(path.edges).encode())
        walk_hash.update(walk.tobytes())
    assert (path_hash.hexdigest(), walk_hash.hexdigest()) == _WALK_PINNED[case]


def test_samplers_continue_one_generator_stream(free2_model):
    # a Generator passed in is advanced by exactly the draws of the walk
    rng = np.random.default_rng(3)
    first = sample_path(free2_model, 1, 70_000, rng)
    second = sample_vertex_walk(free2_model, first.vertices[-1], 5, rng)
    whole = sample_vertex_walk(free2_model, 1, 70_005, np.random.default_rng(3))
    assert np.array_equal(whole[:70_001], np.array(first.vertices, np.int32))
    assert np.array_equal(whole[70_000:], second)


@pytest.mark.parametrize("start, length", [(0, 2), (0, 70_000), (1, 1)])
def test_stuck_chain_raises_from_both_samplers(start, length):
    # the single edge 0 -> 1 leaves vertex 1 without an outgoing edge
    graph = GraphStructure(sanov_system(), 2, 0, (Edge(0, 1, ("a",)),))
    model = MarkovModel(
        graph=graph, lam=1.0, p=(1.0, 1.0), q=(0.0, 1.0), pi=(0.0, 1.0), edge_prob=(1.0,)
    )
    for sampler in (sample_path, sample_vertex_walk):
        with pytest.raises(SpherecombError, match="vertex 1 has no outgoing edge"):
            sampler(model, start, length, 0)


@pytest.mark.parametrize("length", [-1, -2])
@pytest.mark.parametrize("start", [1, "stationary"])
def test_negative_walk_length_raises_before_any_draw(free2_model, start, length):
    for sampler in (sample_path, sample_vertex_walk):
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="walk length must be nonnegative"):
            sampler(free2_model, start, length, rng)
        assert rng.bit_generator.state == state


@pytest.mark.parametrize("name", ["free2_sanov", "dinf_involutions"])
def test_lambda_prime_has_no_mass_off_length_n(name):
    graph = preset(name).graph
    lp = lambda_prime(graph, perron_data(transition_matrix(graph)), 3)
    for length in (1, 2, 4, 5):
        for path in enumerate_paths(graph, graph.initial, length):
            assert lp.prob(path) == 0.0, path
    assert abs(sum(lambda_prime_masses(lp).values()) - 1.0) <= 1e-12
    # a length-3 path whose last edge leaves another vertex than the one reached
    path = next(enumerate_paths(graph, graph.initial, 3))
    end = graph.edges[path[1]].dst
    stray = next(i for i, e in enumerate(graph.edges) if e.src != end)
    with pytest.raises(ValueError, match="does not continue the path"):
        lp.prob(path[:2] + (stray,))


# ---------------------------------------------------------------------------
# the samplers' bisects against the linear scans they replaced


def _scan_cum_prob(model):
    """The chain's running totals as the loop before ``itertools.accumulate`` formed them."""
    out = []
    for v in range(model.graph.n_vertices):
        acc = 0.0
        row = []
        for ei in model.graph.out_edges[v]:
            acc += model.edge_prob[ei]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _reference_edge_blocks(model, v, length, rng):
    """One bisect per step, in blocks of 4,096 draws: the chain step the block scan replaced."""
    cum = model._cum_prob
    out = model.graph.out_edges
    dst = [e.dst for e in model.graph.edges]
    for lo in range(0, length, 4096):
        taken = []
        for u in rng.random(min(4096, length - lo)).tolist():
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


def _reference_edges(model, v, length, rng):
    return [ei for block in _reference_edge_blocks(model, v, length, rng) for ei in block.tolist()]


def _scan_prefix_sample(prefix, rng):
    """A prefix by a linear scan of its masses: the first whose running total exceeds u."""
    u = rng.random()
    acc = 0.0
    for path, pr in zip(prefix.paths, prefix.probs):
        acc += pr
        if u < acc:
            return path
    return prefix.paths[-1]


def _uniform_suffix_sample(graph, counts, start, length, rng):
    """Uniform draw from the length-n paths out of a vertex, by count weighting."""
    total = counts[length][start]
    if total == 0:
        raise SpherecombError(f"no paths of length {length} from vertex {start}")
    taken = []
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
            raise AssertionError("count bookkeeping failed during uniform sampling")
    return tuple(taken)


def _scan_lambda_prime_sample(lp, rng):
    g0 = _scan_prefix_sample(lp.prefix, rng)
    end = lp.graph.edges[g0[-1]].dst if g0 else lp.graph.initial
    counts = _backward_counts(lp.graph, lp.n)
    return g0 + _uniform_suffix_sample(lp.graph, counts, end, lp.n - lp.r, rng)


def _draws(sample, lp, seed, count):
    """``count`` draws (or the error that stops them), then the generator's next uniform."""
    rng = np.random.default_rng(seed)
    out = []
    try:
        for _ in range(count):
            out.append(sample(lp, rng))
    except SpherecombError as exc:
        out.append(str(exc))
    return out, rng.random()


@st.composite
def _sampled_measures(draw):
    """A LambdaPrime on a random multigraph, built directly from its parts.

    The graphs have parallel edges, dead ends and edges into vertices with no
    continuation of the length left; the prefix masses are arbitrary
    nonnegative floats, zeros included, and need not sum to 1.
    """
    nv = draw(st.integers(1, 5))
    pairs = draw(st.lists(st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1)), max_size=12))
    labels = draw(st.lists(st.sampled_from("aAbB"), min_size=len(pairs), max_size=len(pairs)))
    edges = tuple(Edge(u, v, (s,)) for (u, v), s in zip(pairs, labels))
    graph = GraphStructure(sanov_system(), nv, draw(st.integers(0, nv - 1)), edges)
    n = draw(st.integers(0, 9))
    r = draw(st.integers(0, min(n, 3)))
    paths = tuple(enumerate_paths(graph, graph.initial, r))
    if not paths:  # no prefix of length r: the empty prefix
        r, paths = 0, ((),)
    probs = draw(st.lists(st.floats(0.0, 1.0), min_size=len(paths), max_size=len(paths)))
    prefix = PrefixDistribution(r=r, paths=paths, probs=tuple(probs))
    edge_prob = tuple(draw(st.lists(st.floats(0.0, 1.0), min_size=len(edges), max_size=len(edges))))
    model = MarkovModel(
        graph=graph, lam=1.0, p=(1.0,) * nv, q=(1.0,) * nv, pi=(1.0 / nv,) * nv, edge_prob=edge_prob
    )
    return LambdaPrime(graph=graph, n=n, r=r, prefix=prefix), model


@settings(max_examples=200)
@given(_sampled_measures(), st.integers(0, 2**32 - 1))
def test_bisect_samplers_equal_the_linear_scans(case, seed):
    lp, model = case
    got = _draws(LambdaPrime.sample, lp, seed, 40)
    assert got == _draws(_scan_lambda_prime_sample, lp, seed, 40)
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    assert [lp.prefix.sample(rng) for _ in range(40)] == [
        _scan_prefix_sample(lp.prefix, ref) for _ in range(40)
    ]
    assert rng.random() == ref.random()
    assert repr(model._cum_prob) == repr(_scan_cum_prob(model))


@pytest.mark.parametrize("name", ["free2_sanov", "z_parabolic", "dinf_involutions"])
def test_preset_samplers_equal_the_linear_scans(name):
    graph = preset(name).graph
    data = perron_data(transition_matrix(graph))
    model = build_markov(graph, data)
    assert repr(model._cum_prob) == repr(_scan_cum_prob(model))
    for n in (1, 2, 5, 12):
        lp = lambda_prime(graph, data, n)
        assert lp.r == n % data.p_star
        got = _draws(LambdaPrime.sample, lp, n, 1000)
        assert got == _draws(_scan_lambda_prime_sample, lp, n, 1000)
        assert len(got[0]) == 1000


# ---------------------------------------------------------------------------
# the batched draws against numpy's own per-call draws


_BIT_GENERATORS = (
    np.random.PCG64, np.random.PCG64DXSM, np.random.SFC64, np.random.Philox, np.random.MT19937
)


def _odd_buffer_rng(bit_generator, seed):
    """A Generator whose bit generator holds a buffered half word (if it buffers any)."""
    rng = np.random.Generator(bit_generator(seed))
    rng.integers(0, 2**32, dtype=np.uint32)
    return rng


def _assert_same_place(rng, twin):
    assert repr(rng.bit_generator.state) == repr(twin.bit_generator.state)
    assert rng.random() == twin.random()


def _scan_batch(lp, rng, count):
    """``count`` linear-scan samples in turn, or the error that stops them."""
    out = []
    try:
        for _ in range(count):
            out.append(_scan_lambda_prime_sample(lp, rng))
    except SpherecombError as exc:
        return str(exc)
    return out


def _batch(lp, rng, count):
    try:
        return lp.sample_many(rng, count)
    except SpherecombError as exc:
        return str(exc)


@settings(max_examples=200)
@given(
    _sampled_measures(),
    st.integers(0, 2**32 - 1),
    st.sampled_from(_BIT_GENERATORS),
    st.integers(0, 40),
)
def test_sample_many_equals_the_linear_scans_in_turn(case, seed, bit_generator, count):
    lp, _ = case
    rng = _odd_buffer_rng(bit_generator, seed)
    twin = copy.deepcopy(rng)
    assert _batch(lp, rng, count) == _scan_batch(lp, twin, count)
    _assert_same_place(rng, twin)


@pytest.mark.parametrize("n", [64, 65])
@pytest.mark.parametrize("bit_generator", _BIT_GENERATORS)
def test_sample_many_stops_at_the_two_to_the_63_limit_in_place(bit_generator, n):
    # after one edge, vertex 1 has 2**(n-1) suffixes and vertex 2 just one:
    # at n = 64 every draw from vertex 1 is below 2**63, at n = 65 the first
    # sample that reaches vertex 1 raises just after its prefix draw
    edges = (
        Edge(0, 1, ("a",)), Edge(0, 2, ("b",)),
        Edge(1, 1, ("a",)), Edge(1, 1, ("b",)), Edge(2, 2, ("b",)),
    )
    g = GraphStructure(sanov_system(), 3, 0, edges)
    prefix = PrefixDistribution(r=1, paths=((0,), (1,)), probs=(0.25, 0.75))
    lp = LambdaPrime(graph=g, n=n, r=1, prefix=prefix)
    rng = _odd_buffer_rng(bit_generator, n)
    twin = copy.deepcopy(rng)
    got = _batch(lp, rng, 30)
    if n == 64:
        assert got == _scan_batch(lp, twin, 30)
    else:
        assert got.startswith(f"length 65 is past the sampling limit: {2**64} paths ")
        # numpy refuses the same draw before it takes a word
        with pytest.raises(ValueError, match="high is out of bounds for int64"):
            _scan_batch(lp, twin, 30)
    _assert_same_place(rng, twin)


# ---------------------------------------------------------------------------
# the batched suffix draw against the linear scans


def _loop_counter(monkeypatch):
    """Counts the samples that ``LambdaPrime._loop`` draws, in a list of one entry."""
    drawn = [0]
    loop = LambdaPrime._loop

    def counted(self, words, count):
        drawn[0] += count
        return loop(self, words, count)

    monkeypatch.setattr(LambdaPrime, "_loop", counted)
    return drawn


def _dead_end_measure():
    # vertex 2 has no continuation; vertex 0 draws below 2**(n-1) at its first step
    edges = (Edge(0, 1, ("a",)), Edge(0, 2, ("b",)), Edge(1, 1, ("a",)), Edge(1, 1, ("b",)))
    g = GraphStructure(sanov_system(), 3, 0, edges)
    prefix = PrefixDistribution(r=0, paths=((),), probs=(1.0,))
    return LambdaPrime(graph=g, n=6, r=0, prefix=prefix)


def _preset_measure(name, n):
    graph = preset(name).graph
    return lambda_prime(graph, perron_data(transition_matrix(graph)), n)


# (measure, count, rejected): every preset level to n = 12 draws its 1,000
# samples as batches; at n = 15, 16 and 17 on free2_sanov numpy rejects some
# draws, and those samples go to the loop
_BATCH_CASES = [
    *[(name, n, 1000, False) for name in ("free2_sanov", "z_parabolic", "dinf_involutions")
      for n in (1, 2, 5, 12)],
    ("free2_sanov", 15, 2000, True),
    ("free2_sanov", 16, 2500, True),
    ("free2_sanov", 17, 1000, True),
    ("dead-end", 6, 200, False),
]


@pytest.mark.parametrize(
    "bit_generator", [np.random.PCG64, np.random.PCG64DXSM, np.random.SFC64, np.random.Philox]
)
@pytest.mark.parametrize("name, n, count, rejected", _BATCH_CASES)
def test_batched_levels_equal_the_linear_scans(monkeypatch, name, n, count, rejected,
                                               bit_generator):
    lp = _dead_end_measure() if name == "dead-end" else _preset_measure(name, n)
    rng = _odd_buffer_rng(bit_generator, n)
    assert lp._batch_size(rng.bit_generator.state, count) >= _MIN_BATCH
    assert lp._batch_size(np.random.Generator(np.random.MT19937(0)).bit_generator.state, count) == 0
    twin, array_rng = copy.deepcopy(rng), copy.deepcopy(rng)
    drawn = _loop_counter(monkeypatch)
    paths = lp.sample_many(rng, count)
    after = copy.deepcopy(rng)
    assert paths == _scan_batch(lp, twin, count)
    _assert_same_place(rng, twin)
    looped = drawn[0]
    if rejected:  # some samples went to the loop, one each, and the batch drew the rest
        assert 1 <= looped < count // 10
    else:
        assert looped <= count // 100
    array = lp.sample_array(array_rng, count)
    assert array.dtype == np.intp and array.shape == (count, n)
    assert array.tolist() == [list(p) for p in paths]
    _assert_same_place(array_rng, after)
    assert lp.sample_array(0, 0).shape == (0, n)


@settings(max_examples=150)
@given(
    _sampled_measures(),
    st.integers(0, 2**32 - 1),
    st.sampled_from(_BIT_GENERATORS),
    st.integers(_MIN_BATCH, 3 * _MIN_BATCH),
    st.booleans(),
)
def test_sample_many_equals_the_linear_scans_at_batch_counts(case, seed, bit_generator, count,
                                                              odd):
    lp, _ = case
    rng = _odd_buffer_rng(bit_generator, seed) if odd else np.random.Generator(bit_generator(seed))
    twin, array_rng = copy.deepcopy(rng), copy.deepcopy(rng)
    expected = _scan_batch(lp, twin, count)
    after = copy.deepcopy(twin)
    assert _batch(lp, rng, count) == expected
    _assert_same_place(rng, twin)
    try:
        array = lp.sample_array(array_rng, count).tolist()
    except SpherecombError as exc:
        array = str(exc)
    assert array == (expected if isinstance(expected, str) else [list(p) for p in expected])
    _assert_same_place(array_rng, after)


def test_prefix_distribution_and_lambda_prime_check_their_parts():
    g = GraphStructure(sanov_system(), 1, 0, (Edge(0, 0, ("a",)), Edge(0, 0, ("b",))))
    prefix = PrefixDistribution(r=1, paths=((0,), (1,)), probs=(0.5, 0.5))
    bad = [
        ("^prefix distribution needs at least one path$",
         lambda: PrefixDistribution(r=0, paths=(), probs=())),
        ("^1 masses for 2 prefixes$",
         lambda: PrefixDistribution(r=1, paths=((0,), (1,)), probs=(1.0,))),
        (r"^prefix \(0, 1\) does not have length r = 1$",
         lambda: PrefixDistribution(r=1, paths=((0,), (0, 1)), probs=(0.5, 0.5))),
        ("^prefix length r = 0, but the prefixes have r = 1$",
         lambda: LambdaPrime(graph=g, n=3, r=0, prefix=prefix)),
        ("^prefix length r = 1 exceeds the path length n = 0$",
         lambda: LambdaPrime(graph=g, n=0, r=1, prefix=prefix)),
    ]
    for message, build in bad:
        with pytest.raises(ValueError, match=message):
            build()
    assert LambdaPrime(graph=g, n=1, r=1, prefix=prefix).sample_many(0, 2) in (
        [(a,), (b,)] for a in (0, 1) for b in (0, 1)
    )


# ---------------------------------------------------------------------------
# the block scan of the chain against the per-step loop it replaced


@st.composite
def _chain_models(draw):
    """A MarkovModel on a random multigraph, built directly from its parts.

    One to eight vertices, parallel edges, and edge probabilities that are
    often one of a few shared values, zero included, so running totals repeat
    within and across vertices.  Rows may total below 1 (the clamp to the
    last edge) or above, and one vertex may have no outgoing edge.
    """
    nv = draw(st.integers(1, 8))
    stuck = draw(st.none() | st.integers(0, nv - 1))
    edges = [
        Edge(v, w, ("a",))
        for v in range(nv) if v != stuck
        for w in draw(st.lists(st.integers(0, nv - 1), min_size=1, max_size=4))
    ]
    edges = draw(st.permutations(edges))
    prob = st.sampled_from((0.0, 0.125, 0.25, 1 / 3, 0.5)) | st.floats(0.0, 1.0)
    edge_prob = draw(st.lists(prob, min_size=len(edges), max_size=len(edges)))
    graph = GraphStructure(sanov_system(), nv, 0, tuple(edges))
    return MarkovModel(
        graph=graph, lam=1.0, p=(1.0,) * nv, q=(1.0,) * nv, pi=(1.0 / nv,) * nv,
        edge_prob=tuple(edge_prob),
    )


_SPAN = isqrt(_WALK_BLOCK) // 4  # the sub-block length of a full block
_SCAN_LENGTHS = (
    0, 1, _SPAN - 1, _SPAN, _SPAN + 1,
    _WALK_BLOCK - 1, _WALK_BLOCK, _WALK_BLOCK + 1, 2 * _WALK_BLOCK + 3,
)


def _walk_outcome(sampler, model, start, length, seed):
    """(vertices, edges or None, generator state) of one walk, or the message of its error."""
    rng = np.random.default_rng(seed)
    try:
        got = sampler(model, start, length, rng)
    except SpherecombError as exc:
        return str(exc)
    if isinstance(got, SampledPath):
        return list(got.vertices), got.edges, repr(rng.bit_generator.state)
    assert got.dtype == np.int32
    return got.tolist(), None, repr(rng.bit_generator.state)


def _reference_outcome(model, start, length, seed):
    rng = np.random.default_rng(seed)
    try:
        v = model.start_vertex(start, rng)
        edges = tuple(_reference_edges(model, v, length, rng))
    except SpherecombError as exc:
        return str(exc)
    return list(model.graph.path_vertices(v, edges)), edges, repr(rng.bit_generator.state)


@settings(max_examples=150)
@given(_chain_models(), st.sampled_from(_SCAN_LENGTHS), st.integers(0, 2**32 - 1), st.data())
def test_block_scan_equals_the_per_step_loop(model, length, seed, data):
    start = data.draw(st.integers(0, model.graph.n_vertices - 1) | st.just("stationary"))
    expect = _reference_outcome(model, start, length, seed)
    assert _walk_outcome(sample_path, model, start, length, seed) == expect
    walk = _walk_outcome(sample_vertex_walk, model, start, length, seed)
    if isinstance(expect, str):
        assert walk == expect
    else:
        assert walk == (expect[0], None, expect[2])


def _assert_guide_gives_searchsorted(cuts: np.ndarray, lanes: int):
    """The guide's rows equal ``searchsorted * lanes`` at every uniform where an id can change.

    The uniforms are 0, the largest double below 1, every cut and its two
    neighbouring doubles, and every bucket bound j/m with the double below
    it, all kept to [0, 1).
    """
    guide = _guide(cuts, lanes)
    m = len(guide)
    assert m >= max(_MIN_BUCKETS, 16 * len(cuts)) and m & (m - 1) == 0
    bounds = np.arange(m + 1) / m
    u = np.concatenate([
        [0.0, 1.0 - 2.0**-53],
        cuts, np.nextafter(cuts, -np.inf), np.nextafter(cuts, np.inf),
        bounds, np.nextafter(bounds, -np.inf),
    ])
    u = u[(u >= 0.0) & (u < 1.0)]
    expect = np.searchsorted(cuts, u, side="right") * lanes
    assert np.array_equal(_interval_rows(cuts, guide, lanes, u), expect)
    out = np.empty(len(u), dtype=np.intp)
    assert _interval_rows(cuts, guide, lanes, u, out=out) is out
    assert np.array_equal(out, expect)


@settings(max_examples=100)
@given(_chain_models())
def test_guide_table_gives_the_searchsorted_interval(model):
    cuts, guide, _, _ = model._step_tables
    lanes = model.graph.n_vertices + 1
    assert np.array_equal(guide, _guide(cuts, lanes))
    _assert_guide_gives_searchsorted(cuts, lanes)


def test_guide_table_on_chosen_cuts(free2_model):
    cuts = free2_model._step_tables[0]
    # free2_sanov's cuts hold near-equal triples at 1/3, 2/3 and 1
    assert np.sum(np.abs(cuts - 1 / 3) < 1e-15) == 3 and np.sum(np.abs(cuts - 2 / 3) < 1e-15) == 3
    assert np.sum(free2_model._step_tables[1] < 0) == 6  # buckets that a cut splits
    rng = np.random.default_rng(5)
    chosen = [
        cuts,
        np.array([]),
        np.array([0.0]),
        np.array([0.0, 0.5, 1.0]),
        np.array([1 / 4096, 2 / 4096, 2 / 4096 + 2.0**-52, 0.75, 1.0 - 2.0**-53]),
        np.array([2.0**-60, 1e-300, 0.5 - 2.0**-54, 0.5, 0.5 + 2.0**-53]),
        np.array([0.25, 0.25 + 2.0**-54, 1.5, 2.0]),
        np.sort(rng.random(300)),  # 300 cuts: 8,192 buckets
        np.sort(np.concatenate([rng.random(50), rng.integers(0, 4096, 50) / 4096])),
    ]
    for cuts in chosen:
        for lanes in (1, 6):
            _assert_guide_gives_searchsorted(np.unique(cuts), lanes)


@pytest.mark.parametrize("bit_generator", _BIT_GENERATORS)
def test_samplers_continue_one_stream_of_every_bit_generator(free2_model, bit_generator):
    # two walks on one Generator are one long walk, and leave it where the
    # per-step loop leaves it; the lengths cut the scan's blocks unevenly
    rng = _odd_buffer_rng(bit_generator, 8)
    ref = copy.deepcopy(rng)
    whole = sample_vertex_walk(free2_model, 1, 37_000, copy.deepcopy(rng))
    first = sample_path(free2_model, 1, 20_000, rng)
    second = sample_vertex_walk(free2_model, first.vertices[-1], 17_000, rng)
    assert whole.tolist() == list(first.vertices) + second.tolist()[1:]
    assert whole.tolist() == list(free2_model.graph.path_vertices(
        1, _reference_edges(free2_model, 1, 37_000, ref)
    ))
    _assert_same_place(rng, ref)


def test_stuck_vertex_reached_late_raises_from_both_samplers():
    # vertex 0 loops with probability 1 - 2**-15, else steps to vertex 1,
    # which has no outgoing edge; with seed 11 the first such step is late,
    # inside the second block of the scan
    eps = 2.0**-15
    graph = GraphStructure(sanov_system(), 2, 0, (Edge(0, 0, ("a",)), Edge(0, 1, ("b",))))
    model = MarkovModel(
        graph=graph, lam=1.0, p=(1.0, 1.0), q=(1.0, 0.0), pi=(1.0, 0.0), edge_prob=(1 - eps, eps)
    )
    k = int(np.argmax(np.random.default_rng(11).random(4 * _WALK_BLOCK) >= 1 - eps))
    assert 20_000 < k < 2 * _WALK_BLOCK
    # the walk that ends on vertex 1 takes no step from it, and does not raise
    assert sample_path(model, 0, k + 1, 11).vertices[-2:] == (0, 1)
    assert sample_vertex_walk(model, 0, k + 1, 11)[-2:].tolist() == [0, 1]
    stuck = "^vertex 1 has no outgoing edge; chain is stuck$"
    for length in (k + 2, 4 * _WALK_BLOCK):
        with pytest.raises(SpherecombError, match=stuck):
            _reference_edges(model, 0, length, np.random.default_rng(11))
        for sampler in (sample_path, sample_vertex_walk):
            with pytest.raises(SpherecombError, match=stuck):
                sampler(model, 0, length, 11)


def test_vertex_walk_memory_is_bounded(free2_model):
    # a 10**6-step walk is 3.8 MiB of int32 vertices; the scan's blocks add
    # well under 2 MiB on top
    sample_vertex_walk(free2_model, 1, 1, 0)  # the model's step tables
    gc.collect()
    tracemalloc.start()
    try:
        walk = sample_vertex_walk(free2_model, 1, 10**6, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert walk.shape == (10**6 + 1,)
    assert peak <= 6 * 2**20


def test_path_weight_needs_a_start_that_the_path_leaves_from(free2_model, free2_graph):
    with pytest.raises(ValueError, match="^empty path: pass the start vertex explicitly$"):
        path_weight(free2_model, ())
    assert free2_graph.edges[4].src == 1
    with pytest.raises(ValueError, match="^edge 4 does not continue the path at vertex 2$"):
        path_weight(free2_model, (4,), start=2)


def test_return_time_count_past_the_walk_raises():
    record = return_times([0, 1, 2, 1], 1)
    assert record.t(3) == 2
    with pytest.raises(ValueError, match="^trajectory has length 3 < 4$"):
        record.t(4)


def test_a_prefix_of_zero_mass_has_zero_probability():
    # {0, 1} is the maximal component (radius 2, period 2); vertex 2 has small growth
    edges = [Edge(0, 1, (s,)) for s in "ab"] + [Edge(1, 0, (s,)) for s in "ab"]
    edges += [Edge(0, 2, ("B",)), Edge(2, 2, ("b",))]
    graph = GraphStructure(sanov_system(), 3, 0, tuple(edges))
    data = perron_data(transition_matrix(graph))
    lp = lambda_prime(graph, data, 1)
    assert (data.p_star, lp.r) == (2, 1)
    assert lp.prob((4,)) == 0.0
    assert lp.prob((0,)) == lp.prob((1,)) == 0.5


def test_tv_to_counting_needs_a_path_of_length_n():
    # built directly: lambda_prime finds no prefix mass on a graph with no cycle
    graph = GraphStructure(sanov_system(), 2, 0, (Edge(0, 1, ("a",)),))
    prefix = PrefixDistribution(r=0, paths=((),), probs=(1.0,))
    lp = LambdaPrime(graph=graph, n=2, r=0, prefix=prefix)
    with pytest.raises(SpherecombError, match="^no paths of length 2 from the start vertex$"):
        lp.tv_to_counting()
