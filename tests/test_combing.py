"""Graph structures, combing construction, path counting, verification, io."""

import gc
import hashlib
import itertools
import json
import re
import tracemalloc
from operator import mul

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spherecomb import (
    Edge,
    GraphStructure,
    GroupMatrix,
    build_cone_type_combing,
    build_free_group_combing,
    cayley_sphere_counts,
    classify,
    count_paths,
    enumerate_paths,
    load_automaton,
    p_step,
    preset,
    preset_names,
    prune_small_growth,
    restrict,
    save_automaton,
    sphere_counts,
    transition_matrix,
    verify_geodesic,
)
from spherecomb.errors import (
    AutomatonFormatError,
    InconsistentAutomatonError,
    NotAlmostSemisimpleError,
    RadiusExhaustedError,
)
from spherecomb import algebra, combing
from spherecomb.algebra import GeneratorSystem
from spherecomb.combing import cayley_ball
from conftest import reduced_words, sanov_system


def free_system(m: int) -> GeneratorSystem:
    """<[[1,m],[0,1]], [[1,0],[m,1]]>, a free group of rank 2 for m >= 2."""
    return GeneratorSystem.from_pairs(
        [("a", "A", ((1, m), (0, 1))), ("b", "B", ((1, 0), (m, 1)))]
    )


def small_growth_graph():
    system = sanov_system()
    return GraphStructure(
        system, 3, 0, (Edge(0, 1, ("a",)), Edge(1, 1, ("a",)), Edge(0, 2, ("b",)))
    )


def test_free_group_combing_shape(symbolic_graph):
    assert symbolic_graph.n_vertices == 5
    assert len(symbolic_graph.edges) == 16
    assert symbolic_graph.initial == 0


def test_free_group_combing_rejects_involutions():
    z2 = GeneratorSystem.from_pairs([("a", "a", ((-1, 0), (0, -1)))])
    with pytest.raises(Exception):
        build_free_group_combing(z2)


def test_sphere_counts_free_formula(symbolic_graph):
    # 4 * 3^(n-1) reduced words of length n in a rank-2 free group
    counts = sphere_counts(symbolic_graph, 7)
    assert counts == (1, 4, 12, 36, 108, 324, 972, 2916)


def test_sphere_counts_match_matrix_powers(symbolic_graph, free2_graph):
    for g in (symbolic_graph, free2_graph):
        a = np.zeros((g.n_vertices, g.n_vertices), dtype=object)
        for e in g.edges:
            a[e.src, e.dst] += 1
        counts = sphere_counts(g, 8)
        vec = np.zeros(g.n_vertices, dtype=object)
        vec[g.initial] = 1
        for n in range(9):
            assert counts[n] == int(vec.sum())
            vec = vec @ a


def test_cayley_counts_match_reduced_word_count(sanov):
    counts = cayley_sphere_counts(sanov, 5)
    brute = [sum(1 for _ in reduced_words(sanov, n)) for n in range(6)]
    assert list(counts) == brute


def word_ball(system: GeneratorSystem, radius: int) -> list[list[GroupMatrix]]:
    """Elements by word length, each listed once at its shortlex-least word.

    Brute force: every word of length n <= radius, in lexicographic label
    order, evaluated with ``GroupMatrix`` products.
    """
    seen: set[GroupMatrix] = set()
    levels = []
    for n in range(radius + 1):
        level = []
        for word in itertools.product(system.labels, repeat=n):
            g = system.word_matrix(word)
            if g not in seen:
                seen.add(g)
                level.append(g)
        levels.append(level)
    return levels


def nested_ball(system: GeneratorSystem, radius: int):
    """Word length of each element of the Cayley ball, and the ball by spheres.

    Elements are the ball's flat keys re-nested into row tuples
    (``GroupMatrix.rows``), in breadth-first order.
    """
    elements, depth, _, b = cayley_ball(system, radius)
    rows = [tuple(zip(*[iter(g)] * system.dim)) for g in elements]
    return dict(zip(rows, depth)), [rows[b[n] : b[n + 1]] for n in range(len(b) - 1)]


BALL_SYSTEMS = [free_system(m) for m in (2, 3, 4, 5)] + [
    preset(name).system for name in preset_names()
] + [GeneratorSystem.from_pairs([("a", "a", ((-1, 0), (0, -1)))])]


@settings(max_examples=40)
@given(st.sampled_from(BALL_SYSTEMS), st.integers(0, 5))
def test_cayley_ball_matches_word_oracle(system, radius):
    dist, spheres = nested_ball(system, radius)
    want = word_ball(system, radius)
    assert dist == {g.rows: n for n, level in enumerate(want) for g in level}
    padded = spheres + [[]] * (radius + 1 - len(spheres))
    assert padded == [[g.rows for g in level] for level in want]
    assert cayley_sphere_counts(system, radius) == tuple(len(level) for level in want)


def product_loop_ball(system: GeneratorSystem, radius: int):
    """(elements, depth, nbrs, bounds) of the Cayley ball, one row-tuple product at a time.

    The breadth-first search as it was written before spheres were
    multiplied by numpy: elements are nested row tuples, and each product
    is a Python sum over a row and a column.
    """
    cols = [tuple(zip(*m.rows)) for m in system.matrices]
    ident = GroupMatrix.identity(system.dim).rows
    elements, depth, nbrs, bounds = [ident], [0], [], [0, 1]
    index = {ident: 0}
    for n in range(1, radius + 1):
        for g in elements[bounds[n - 1] : bounds[n]]:
            row = []
            for c in cols:
                h = tuple(tuple(sum(map(mul, r, col)) for col in c) for r in g)
                i = index.get(h)
                if i is None:
                    i = index[h] = len(elements)
                    elements.append(h)
                    depth.append(n)
                row.append(i)
            nbrs.append(tuple(row))
        bounds.append(len(elements))
        if bounds[n + 1] == bounds[n]:
            break
    return elements, depth, nbrs, bounds


# Shears far past int64, the d=3 involutions, finite cyclic groups of order
# 4 and 6 (the ball stops early) and a d=1 system.
PRODUCT_LOOP_SYSTEMS = [free_system(m) for m in (2, 3, 2**31, 2**63, 2**70)] + [
    preset("dinf_involutions").system,
    GeneratorSystem.from_pairs([("r", "R", ((0, -1), (1, 0)))]),
    GeneratorSystem.from_pairs([("r", "R", ((0, -1), (1, 1)))]),
    GeneratorSystem.from_pairs([("a", "A", ((1,),))]),
]


@settings(max_examples=100)
@given(st.sampled_from(PRODUCT_LOOP_SYSTEMS), st.integers(0, 7))
def test_cayley_ball_equals_the_product_loop(system, radius):
    elements, depth, nbrs, bounds = product_loop_ball(system, radius)
    ball = cayley_ball(system, radius)
    assert (ball.depth, ball.nbrs, ball.bounds) == (depth, nbrs, bounds)
    spheres = [elements[bounds[n] : bounds[n + 1]] for n in range(len(bounds) - 1)]
    assert repr(nested_ball(system, radius)) == repr((dict(zip(elements, depth)), spheres))
    padded = [len(s) for s in spheres] + [0] * (radius + 1 - len(spheres))
    assert cayley_sphere_counts(system, radius) == tuple(padded)
    # the geodesic check reads the same sphere sizes, zeros past a ball that stops
    loops = GraphStructure(system, 1, 0, tuple(Edge(0, 0, (s,)) for s in system.labels))
    assert verify_geodesic(loops, radius).bfs_counts == tuple(padded)


def test_cayley_ball_memory_is_bounded():
    # The ball of free2_sanov at radius 8 (13,121 elements) as flat entry
    # tuples: at most 3.0 MiB kept once it returns, 4.5 MiB at the peak.
    system = preset("free2_sanov").system
    gc.collect()
    tracemalloc.start()
    try:
        ball = cayley_ball(system, 8)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ball.bounds[-1] == 13121
    assert kept <= 3.0 * 2**20
    assert peak <= 4.5 * 2**20


def test_enumerated_words_are_exactly_reduced_words(symbolic_graph, sanov):
    # path enumeration in edge order reproduces the brute-force recursion
    for n in (0, 1, 2, 4):
        from_graph = [
            symbolic_graph.path_word(p)
            for p in enumerate_paths(symbolic_graph, symbolic_graph.initial, n)
        ]
        assert from_graph == list(reduced_words(sanov, n))


def test_count_paths_agrees_with_enumeration(free2_graph):
    g = free2_graph
    for v in range(g.n_vertices):
        for n in (0, 1, 3):
            assert count_paths(g, v, n) == sum(1 for _ in enumerate_paths(g, v, n))
            for t in range(g.n_vertices):
                got = count_paths(g, v, n, target=t)
                want = sum(1 for _ in enumerate_paths(g, v, n, target=t))
                assert got == want


def test_count_paths_from_every_vertex(free2_graph):
    g = free2_graph
    for n in (0, 1, 4):
        for t in (None, *range(g.n_vertices)):
            want = sum(
                1 for v in range(g.n_vertices) for _ in enumerate_paths(g, v, n, target=t)
            )
            assert count_paths(g, None, n, target=t) == want


def _dense_backward_counts(n_vertices, pairs, n_max, target):
    """Oracle for combing._backward_counts: powers of the dense multiplicity
    matrix applied to the end-vertex indicator, all in Python ints."""
    a = [[0] * n_vertices for _ in range(n_vertices)]
    for u, v in pairs:
        a[u][v] += 1
    cur = [1 if target is None or v == target else 0 for v in range(n_vertices)]
    table = [cur]
    for _ in range(n_max):
        cur = [sum(a[i][j] * cur[j] for j in range(n_vertices)) for i in range(n_vertices)]
        table.append(cur)
    return table


@st.composite
def multigraphs(draw):
    n = draw(st.integers(1, 6))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=4 * n))
    target = draw(st.none() | vertex)
    return n, pairs, target, draw(st.integers(0, 12))


def _check_backward_counts(n, pairs, target, n_max):
    graph = GraphStructure(sanov_system(), n, 0, tuple(Edge(u, v, ("a",)) for u, v in pairs))
    table = combing._backward_counts(graph, n_max, target)
    assert table == _dense_backward_counts(n, pairs, n_max, target)
    assert all(type(c) is int for row in table for c in row)
    assert count_paths(graph, None, n_max, target) == sum(table[n_max])
    return table


@settings(max_examples=150)
@example((2, [(0, 1), (0, 1), (1, 1), (1, 0), (1, 1)], 1, 30))
@given(multigraphs())
def test_backward_counts_match_the_dense_oracle(case):
    _check_backward_counts(*case)


def test_backward_counts_past_int64():
    # three parallel loops and a loop-free edge into them: 3**45 paths
    table = _check_backward_counts(2, [(1, 1), (0, 1), (1, 1), (1, 1)], None, 45)
    assert table[45] == [3**44, 3**45]
    assert 3**45 > 2**63


def test_path_counts_stay_exact_past_int64(free2_graph):
    # 4 * 3**49 is far beyond int64: the counting rows must be Python ints
    assert count_paths(free2_graph, free2_graph.initial, 50) == 4 * 3**49
    assert sphere_counts(free2_graph, 60)[60] == 4 * 3**59


def test_cone_type_construction_matches_symbolic(sanov, free2_graph, symbolic_graph):
    assert free2_graph.n_vertices == symbolic_graph.n_vertices
    assert sphere_counts(free2_graph, 8) == sphere_counts(symbolic_graph, 8)


def test_free_group_combing_equals_the_cone_type_combing(sanov):
    # the cone-type build names states in order of first appearance, which
    # for the Sanov generators is the free-group automaton's own numbering
    assert build_free_group_combing(sanov) == build_cone_type_combing(sanov, 8, 2)


def test_cone_type_radius_too_small_for_lookahead(sanov):
    with pytest.raises(RadiusExhaustedError):
        build_cone_type_combing(sanov, 2, 2)


def test_cone_type_finite_group_exhausts_radius():
    z2 = GeneratorSystem.from_pairs([("a", "a", ((-1, 0), (0, -1)))])
    with pytest.raises(RadiusExhaustedError) as exc:
        build_cone_type_combing(z2, 6, 1)
    assert "sphere" in str(exc.value)


def test_cone_type_insufficient_depth_is_inconsistent(sanov):
    with pytest.raises(InconsistentAutomatonError):
        build_cone_type_combing(sanov, 4, 3)


def test_cone_type_self_check_misses_a_relation_past_its_depth():
    # A known hole, pinned as it stands: the build compares path counts with
    # the Cayley spheres only up to radius - lookahead.  This SL3(Z) pair has
    # a relation that first shows at sphere 9, so radius 8 accepts a free
    # group automaton with 36 more paths of length 9 than sphere 9 has elements.
    system = GeneratorSystem.from_pairs([
        ("a", "A", ((2, 1, 0), (1, 1, 0), (0, 0, 1))),
        ("b", "B", ((1, 0, 0), (0, 2, 1), (0, 1, 1))),
    ])
    graph = build_cone_type_combing(system, 8, 2)
    assert (graph.n_vertices, len(graph.edges)) == (5, 16)
    assert sphere_counts(graph, 9)[9] == 26244
    assert cayley_sphere_counts(system, 9)[9] == 26208
    rep = verify_geodesic(graph, 9)
    assert rep.length_preserving and not rep.injective and not rep.passed
    assert rep.witness == "words aBAbbaBAb and AbaBAAbaB evaluate equally"


@pytest.mark.parametrize(
    "system, digest",
    [
        (sanov_system(), "5e88b461f9c8f73db77ddeaeeeb457f5bf7b240b349ec4368ee846a9284b2ab7"),
        (free_system(2), "5e88b461f9c8f73db77ddeaeeeb457f5bf7b240b349ec4368ee846a9284b2ab7"),
        (free_system(3), "3f51ce402ade0fe0d8a10df96e66f6fdd9840bd6ac7950059a10c92974fa06f3"),
        (free_system(4), "c5f296023a538f8bbd79ab90250d04f328e7d68a6e40f075f05dd5c3102a7d92"),
    ],
    ids=["sanov", "m2", "m3", "m4"],
)
def test_cone_type_automaton_files_match_pinned_digests(tmp_path, system, digest):
    # sha256 of the saved automaton at radius 8, lookahead 2, recorded when
    # the build still multiplied GroupMatrix objects and recomputed cone types
    path = tmp_path / "auto.json"
    save_automaton(build_cone_type_combing(system, 8, 2), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_ball_build_and_check_make_no_group_matrix_products(monkeypatch, sanov):
    calls = []
    product = GroupMatrix.__matmul__

    def counted(self, other):
        calls.append(1)
        return product(self, other)

    monkeypatch.setattr(GroupMatrix, "__matmul__", counted)
    graph = build_cone_type_combing(sanov, 8, 2)
    cayley_sphere_counts(sanov, 6)
    verify_geodesic(graph, 5)
    assert calls == []
    sanov.word_matrix(("a", "b"))  # the boundary still multiplies GroupMatrix
    assert len(calls) == 2


@pytest.mark.parametrize("step, radius", [(1, 6), (2, 3)], ids=["unit", "composite"])
def test_verify_geodesic_multiplies_only_in_the_ball(monkeypatch, step, radius):
    # the check builds one Cayley ball and reads its neighbour table;
    # composite labels run past it, and nothing else is multiplied
    system = free_system(2)
    graph = p_step(build_free_group_combing(system), step)
    calls = []
    ball = combing.cayley_ball

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return ball(*args, **kwargs)

    def forbidden(*args):
        raise AssertionError("a product outside the Cayley ball")

    monkeypatch.setattr(combing, "cayley_ball", counted)
    monkeypatch.setattr(algebra, "_mul", forbidden)
    monkeypatch.setattr(GroupMatrix, "__matmul__", forbidden)
    rep = verify_geodesic(graph, radius)
    assert calls == [((system, radius), {})]
    assert rep.passed == (step == 1)


def test_verify_geodesic_passes_on_presets():
    for name in ("free2_sanov", "free2_symbolic", "z_parabolic", "dinf_involutions"):
        rep = verify_geodesic(preset(name).graph, 5)
        assert rep.passed, (name, rep.witness)
        assert rep.injective and rep.length_preserving and rep.counts_match


def test_verify_geodesic_catches_unreduced_edge(symbolic_graph, sanov):
    # adding a -> A creates the word "aA", which evaluates to the identity
    bad = GraphStructure(
        sanov,
        symbolic_graph.n_vertices,
        symbolic_graph.initial,
        symbolic_graph.edges + (Edge(1, 2, ("A",)),),
    )
    rep = verify_geodesic(bad, 3)
    assert not rep.passed
    assert not rep.length_preserving
    assert "aA" in rep.witness


def test_verify_geodesic_catches_undercounting(sanov, symbolic_graph):
    # dropping an edge keeps words geodesic but misses elements
    pruned = GraphStructure(
        sanov,
        symbolic_graph.n_vertices,
        symbolic_graph.initial,
        symbolic_graph.edges[:-1],
    )
    rep = verify_geodesic(pruned, 3)
    assert not rep.passed
    assert not rep.counts_match


_LETTERS = ("a", "A", "b", "B")


def _brute_force_geodesic_check(graph, radius):
    """(injective, length_preserving, automaton_counts, bfs_counts), path by path.

    A path that spells more letters than it has edges fails length
    preservation and takes no part in the injectivity check.
    """
    dist, spheres = nested_ball(graph.system, radius)
    counts, seen = [], set()
    injective = length_preserving = True
    for n in range(radius + 1):
        paths = list(enumerate_paths(graph, graph.initial, n))
        counts.append(len(paths))
        for path in paths if n else ():
            if len(graph.path_word(path)) != n:
                length_preserving = False
                continue
            g = graph.path_matrix(path).rows
            length_preserving = length_preserving and dist.get(g) == n
            injective = injective and g not in seen
            seen.add(g)
    bfs = [len(sp) for sp in spheres] + [0] * (radius + 1 - len(spheres))
    return injective, length_preserving, tuple(counts), tuple(bfs)


@st.composite
def _sanov_automata(draw):
    """1-5 vertices, up to 8 edges (parallel ones allowed) of one- or two-letter words."""
    n = draw(st.integers(1, 5))
    vertex = st.integers(0, n - 1)
    word = st.lists(st.sampled_from(_LETTERS), min_size=1, max_size=2).map(tuple)
    edges = draw(st.lists(st.builds(Edge, vertex, vertex, word), max_size=8))
    return GraphStructure(sanov_system(), n, draw(vertex), tuple(edges))


@settings(max_examples=150)
@given(_sanov_automata(), st.integers(0, 5))
def test_verify_geodesic_matches_brute_force(graph, radius):
    assume(sum(sphere_counts(graph, radius)) <= 3000)
    rep = verify_geodesic(graph, radius)
    got = (rep.injective, rep.length_preserving, rep.automaton_counts, rep.bfs_counts)
    assert got == _brute_force_geodesic_check(graph, radius)
    assert rep.radius == radius
    assert (rep.witness is None) == (rep.injective and rep.length_preserving)


def _seeded_automata(seed: int, count: int):
    """A fixed list of (automaton, radius) over the Sanov system."""
    rng = np.random.default_rng(seed)
    system = sanov_system()
    out = []
    for _ in range(count):
        n = int(rng.integers(1, 6))
        edges = tuple(
            Edge(
                int(rng.integers(n)),
                int(rng.integers(n)),
                tuple(rng.choice(_LETTERS, size=1 + int(rng.random() < 0.2)).tolist()),
            )
            for _ in range(int(rng.integers(0, 9)))
        )
        graph = GraphStructure(system, n, int(rng.integers(n)), edges)
        out.append((graph, int(rng.integers(0, 6))))
    return out


# sha256 of the reports' reprs, witnesses included, of the presets at radius 5
# and of 120 seeded random automata; recorded with the depth-first check
_GEODESIC_REPORTS_PINNED = (
    "f1cf585a90bd54a7671d966dbfd123a4523b4c6bda271eb18309f08ec1f8c195"
)


def test_verify_geodesic_reports_match_pinned_digest():
    cases = [(preset(name).graph, 5) for name in preset_names()]
    cases += _seeded_automata(11, 120)
    reports = [verify_geodesic(graph, radius) for graph, radius in cases]
    witnesses = [rep.witness or "" for rep in reports]
    # every kind of failure, and passing reports, are among the pinned ones
    assert any(w.startswith("path ") for w in witnesses)
    assert any(w.startswith("word ") for w in witnesses)
    assert any(w.startswith("words ") for w in witnesses)
    assert sum(rep.passed for rep in reports) > len(preset_names())
    digest = hashlib.sha256(repr(reports).encode()).hexdigest()
    assert digest == _GEODESIC_REPORTS_PINNED


def test_path_word_and_matrix_consistency(free2_graph):
    g = free2_graph
    system = g.system
    for path in enumerate_paths(g, g.initial, 3):
        word = g.path_word(path)
        m = GroupMatrix.identity(system.dim)
        for s in word:
            m = m @ system.matrix_of(s)
        assert g.path_matrix(path) == m


def test_restrict_renumbers_and_keeps_edges(free2_graph):
    g = free2_graph
    keep = [v for v in range(g.n_vertices) if v != g.initial]
    sub = restrict(g, keep, new_initial=keep[0])
    assert sub.n_vertices == 4
    # all 12 letter-to-letter edges survive
    assert len(sub.edges) == 12
    assert sphere_counts(sub, 3) == (1, 3, 9, 27)


@pytest.mark.parametrize("length", [-1, -3])
def test_negative_lengths_raise_in_every_path_count(free2_graph, sanov, length):
    g = free2_graph
    for count in (
        lambda: sphere_counts(g, length),
        lambda: count_paths(g, g.initial, length),
        lambda: count_paths(g, None, length, target=1),
        lambda: next(enumerate_paths(g, g.initial, length)),
    ):
        with pytest.raises(ValueError, match="length must be nonnegative"):
            count()
    with pytest.raises(ValueError, match="radius must be nonnegative"):
        cayley_sphere_counts(sanov, length)


def test_restrict_requires_surviving_initial(free2_graph):
    with pytest.raises(ValueError):
        restrict(free2_graph, [1, 2], new_initial=0)


def test_p_step_counts_are_double_length_counts(symbolic_graph):
    g2 = p_step(symbolic_graph, 2)
    for v in range(symbolic_graph.n_vertices):
        for m in (1, 2, 3):
            assert count_paths(g2, v, m) == count_paths(symbolic_graph, v, 2 * m)


def test_p_step_words_have_length_p(symbolic_graph):
    g3 = p_step(symbolic_graph, 3)
    assert all(len(e.word) == 3 for e in g3.edges)


def test_loop_paths_start_and_end_at_vertex(free2_graph):
    # the loop semigroup of a vertex: the paths from it that end at it
    g = free2_graph
    for path in enumerate_paths(g, 1, 3, target=1):
        verts = g.path_vertices(1, path)
        assert verts[0] == 1 and verts[-1] == 1


def test_path_vertices_range_checks_its_start(free2_graph):
    g = free2_graph
    assert g.path_vertices(3, ()) == (3,)
    for v in (-1, g.n_vertices, 99):
        message = f"^start vertex {v} out of range for {g.n_vertices} vertices$"
        with pytest.raises(ValueError, match=message):
            g.path_vertices(v, ())


def test_path_vertices_range_checks_its_edges(free2_graph):
    g = free2_graph
    n_edges = len(g.edges)
    for bad in (-1, n_edges, 99):
        message = f"^edge {bad} out of range for {n_edges} edges$"
        with pytest.raises(ValueError, match=message):
            g.path_vertices(4, (bad,))
        with pytest.raises(ValueError, match=message):
            g.path_vertices(1, (4, bad))


def test_components_and_prune_small_growth():
    g = small_growth_graph()
    large = classify(transition_matrix(g)).large_growth
    assert {v for v, big in enumerate(large) if big} == {0, 1}
    pruned = prune_small_growth(g)
    assert pruned.n_vertices == 2
    assert sphere_counts(pruned, 3) == (1, 1, 1, 1)


def test_prune_small_growth_rejects_joined_maximal_components():
    # two loops of spectral radius 1, the first one feeding the second
    g = GraphStructure(
        sanov_system(), 2, 0, (Edge(0, 0, ("a",)), Edge(0, 1, ("b",)), Edge(1, 1, ("b",)))
    )
    with pytest.raises(NotAlmostSemisimpleError):
        prune_small_growth(g)


def test_save_load_round_trip(tmp_path, free2_graph):
    path = tmp_path / "auto.json"
    save_automaton(free2_graph, path)
    g = load_automaton(path)
    assert g.n_vertices == free2_graph.n_vertices
    assert g.initial == free2_graph.initial
    assert g.edges == free2_graph.edges
    assert g.system.labels == free2_graph.system.labels
    assert g.system.matrices == free2_graph.system.matrices
    # and the file itself is stable under a second save
    path2 = tmp_path / "auto2.json"
    save_automaton(g, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_save_rejects_composite_words(tmp_path, symbolic_graph):
    g2 = p_step(symbolic_graph, 2)
    with pytest.raises(AutomatonFormatError):
        save_automaton(g2, tmp_path / "bad.json")


def test_load_rejects_malformed_files(tmp_path, free2_graph):
    path = tmp_path / "auto.json"
    save_automaton(free2_graph, path)
    doc = json.loads(path.read_text())

    broken = dict(doc)
    del broken["edges"]
    p1 = tmp_path / "missing.json"
    p1.write_text(json.dumps(broken))
    with pytest.raises(AutomatonFormatError):
        load_automaton(p1)

    broken = json.loads(path.read_text())
    broken["edges"][0] = [0, 99, "a"]
    p2 = tmp_path / "range.json"
    p2.write_text(json.dumps(broken))
    with pytest.raises(AutomatonFormatError) as exc:
        load_automaton(p2)
    assert "edge" in str(exc.value)

    broken = json.loads(path.read_text())
    broken["edges"][0] = [0, 1, "zz"]
    p3 = tmp_path / "label.json"
    p3.write_text(json.dumps(broken))
    with pytest.raises(AutomatonFormatError):
        load_automaton(p3)

    # GraphStructure's own checks surface as format errors too
    for key, value, message in (
        ("initial", 7, "initial vertex 7 out of range"),
        ("vertices", 0, "graph needs at least one vertex"),
    ):
        broken = json.loads(path.read_text())
        broken[key] = value
        broken["edges"] = []
        p4 = tmp_path / f"{key}.json"
        p4.write_text(json.dumps(broken))
        with pytest.raises(AutomatonFormatError, match=f"invalid automaton file: {message}"):
            load_automaton(p4)

    # malformed entries are format errors, not TypeError or a bare ValueError
    def set_edge(value):
        return lambda d: d["edges"].__setitem__(0, value)

    def set_generator(**fields):
        return lambda d: d["generators"][0].update(fields)

    for name, edit, message in (
        ("edge-int", set_edge(5), "edge 0 must be"),
        ("edge-short", set_edge([0, 1]), "edge 0 must be"),
        ("edge-list-label", set_edge([0, 1, ["a"]]), "edge 0 must be"),
        ("edge-str-end", set_edge(["x", 1, "a"]), "edge 0 must be"),
        ("edge-float-end", set_edge([0, 1.0, "a"]), "edge 0 must be"),
        ("edge-bool-end", set_edge([True, 1, "a"]), "edge 0 must be"),
        ("generator-list", lambda d: d["generators"].__setitem__(0, ["a", "A", [[1]]]),
         "generator 0 must be an object"),
        ("label-int", set_generator(label=1), "generator 0 needs string labels"),
        ("matrix-nested", set_generator(matrix=[[[1], 2], [0, 1]]), "generator 0 needs"),
        ("matrix-str", set_generator(matrix=[[1, "2"], [0, 1]]), "generator 0 needs"),
        ("matrix-row-int", set_generator(matrix=[1, 2]), "generator 0 needs"),
        ("edges-int", lambda d: d.__setitem__("edges", 5), "'edges' must be a JSON list"),
        ("generators-dict", lambda d: d.__setitem__("generators", {}),
         "'generators' must be a JSON list"),
        ("vertices-list", lambda d: d.__setitem__("vertices", [5]), "'vertices' must be a JSON int"),
        ("initial-str", lambda d: d.__setitem__("initial", "0"), "'initial' must be a JSON int"),
        ("dim-bool", lambda d: d.__setitem__("dim", True), "'dim' must be a JSON int"),
        # generators that are well-typed but invalid, checked by the matrix and the system
        ("matrix-ragged", set_generator(matrix=[[1, 1], [0]]),
         "invalid automaton file: matrix is not square: 2 rows, row of length 1"),
        ("matrix-det-2", set_generator(matrix=[[2, 0], [0, 1]]),
         "invalid automaton file: generator 'a' has determinant 2, need 1"),
        ("matrix-not-inverse", set_generator(matrix=[[1, 3], [0, 1]]),
         "invalid automaton file: matrix of 'A' is not the inverse of matrix of 'a'"),
        ("generators-empty", lambda d: d.update(generators=[], edges=[]),
         "invalid automaton file: a generator system needs at least one generator"),
    ):
        broken = json.loads(path.read_text())
        edit(broken)
        p5 = tmp_path / f"{name}.json"
        p5.write_text(json.dumps(broken))
        with pytest.raises(AutomatonFormatError, match=re.escape(message)):
            load_automaton(p5)
    p6 = tmp_path / "not-an-object.json"
    p6.write_text("5")
    with pytest.raises(AutomatonFormatError, match="JSON object"):
        load_automaton(p6)


def test_graph_structure_validation(sanov):
    with pytest.raises(Exception):
        GraphStructure(sanov, 2, 0, (Edge(0, 5, ("a",)),))
    with pytest.raises(Exception):
        GraphStructure(sanov, 2, 0, (Edge(0, 1, ()),))
    with pytest.raises(Exception):
        GraphStructure(sanov, 2, 0, (Edge(0, 1, ("nope",)),))


def test_restrict_to_no_vertex_raises(free2_graph):
    with pytest.raises(ValueError, match="^restriction to an empty vertex set$"):
        restrict(free2_graph, [])


@pytest.mark.parametrize(
    "edit, message",
    [
        (None, "not valid JSON: "),
        (lambda gen: gen.pop("matrix"), "generator 0 is missing 'matrix'"),
        (lambda gen: gen.update(matrix=[[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
         "generator 'a' has dimension 3, file says 2"),
    ],
    ids=["not-json", "no-matrix", "matrix-size"],
)
def test_load_rejects_broken_json_and_generators(tmp_path, free2_graph, edit, message):
    path = tmp_path / "auto.json"
    save_automaton(free2_graph, path)
    if edit is None:
        path.write_text("{")
    else:
        doc = json.loads(path.read_text())
        edit(doc["generators"][0])
        path.write_text(json.dumps(doc))
    with pytest.raises(AutomatonFormatError, match="^" + re.escape(message)):
        load_automaton(path)
