"""Graph structures, combing construction, path counting, verification, io."""

import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
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
    loop_paths,
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


BALL_SYSTEMS = [free_system(m) for m in (2, 3, 4, 5)] + [
    preset(name).system for name in preset_names()
] + [GeneratorSystem.from_pairs([("a", "a", ((-1, 0), (0, -1)))])]


@settings(max_examples=40)
@given(st.sampled_from(BALL_SYSTEMS), st.integers(0, 5))
def test_cayley_ball_matches_word_oracle(system, radius):
    dist, spheres = cayley_ball(system, radius)
    want = word_ball(system, radius)
    assert dist == {g.rows: n for n, level in enumerate(want) for g in level}
    padded = spheres + [[]] * (radius + 1 - len(spheres))
    assert padded == [[g.rows for g in level] for level in want]
    assert cayley_sphere_counts(system, radius) == tuple(len(level) for level in want)


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


def test_cone_type_construction_matches_symbolic(sanov, free2_graph, symbolic_graph):
    assert free2_graph.n_vertices == symbolic_graph.n_vertices
    assert sphere_counts(free2_graph, 8) == sphere_counts(symbolic_graph, 8)


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
    g = free2_graph
    for path in loop_paths(g, 1, 3):
        verts = g.path_vertices(1, path)
        assert verts[0] == 1 and verts[-1] == 1


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


def test_graph_structure_validation(sanov):
    with pytest.raises(Exception):
        GraphStructure(sanov, 2, 0, (Edge(0, 5, ("a",)),))
    with pytest.raises(Exception):
        GraphStructure(sanov, 2, 0, (Edge(0, 1, ()),))
    with pytest.raises(Exception):
        GraphStructure(sanov, 2, 0, (Edge(0, 1, ("nope",)),))
