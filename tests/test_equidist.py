"""Averaging operators: exact engines, oracles, Monte Carlo estimators."""

import cmath
import gc
import hashlib
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spherecomb import (
    Edge,
    GeneratorSystem,
    GraphStructure,
    TestFunction,
    TorusPoint,
    build_markov,
    cesaro_average,
    character_sums,
    count_paths,
    enumerate_paths,
    kappa_average,
    lambda_prime,
    markov_cesaro,
    mc_spherical,
    orbit_tables,
    p_step,
    perron_data,
    preset,
    preset_names,
    random_geodesic_average,
    restrict,
    sample_path,
    sphere_counts,
    sphere_series,
    spherical_average,
    transition_matrix,
    word_act,
)
from spherecomb.algebra import MASK
from spherecomb import equidist
from spherecomb.errors import BudgetExceededError, DimensionMismatchError, SpherecombError
from conftest import dyadic_orbit_counts, reduced_words


@pytest.fixture(scope="module")
def x2(free2):
    return free2.basepoint


def test_character_evaluation_matches_cmath():
    f = TestFunction.character((1, 0))
    x = TorusPoint.from_fractions([Fraction(1, 4), Fraction(0)])
    assert abs(f.evaluate(x) - 1j) <= 1e-15
    g = TestFunction.character((0, 2))
    y = TorusPoint.from_fractions([Fraction(0), Fraction(1, 4)])
    assert abs(g.evaluate(y) - (-1.0)) <= 1e-15


def test_conjugate_frequency_conjugates_value(x2):
    f = TestFunction.character((2, -1))
    g = TestFunction.character((-2, 1))
    assert abs(f.evaluate(x2) - g.evaluate(x2).conjugate()) <= 1e-15


def test_haar_integral_reads_trivial_coefficient():
    f = TestFunction(
        (((0, 0), 2.5 + 1j), ((1, 0), 3.0 + 0j), ((0, 0), 0.5 + 0j))
    )
    assert f.haar == 3.0 + 1j
    assert TestFunction.character((1, 2)).haar == 0


def test_test_function_rejects_mixed_dimensions():
    with pytest.raises(DimensionMismatchError):
        TestFunction((((1, 0), 1.0 + 0j), ((1, 0, 0), 1.0 + 0j)))


@pytest.mark.parametrize(
    "entry", [1.5, True, np.bool_(True), "1", None], ids=["float", "bool", "numpy-bool", "string", "none"]
)
def test_test_function_rejects_non_integer_frequencies(entry):
    message = f"frequency entry {entry!r} is not an integer"
    with pytest.raises(ValueError, match=re.escape(message)):
        TestFunction((((entry, 0), 1.0 + 0j),))
    with pytest.raises(ValueError, match=re.escape(message)):
        TestFunction.character((0, entry))


def test_test_function_accepts_integral_frequency_entries():
    for entry in (np.int64(2), 2.0, np.uint8(2), 2):
        f = TestFunction.character((entry, -1))
        assert f.terms == (((2, -1), 1.0 + 0j),)
        assert all(type(v) is int for v in f.terms[0][0])
        assert TestFunction((((entry, 0), 0.5),)).terms == (((2, 0), 0.5 + 0j),)


def test_orbit_tables_sizes_match_sphere_counts(free2_graph, x2):
    tables = orbit_tables(free2_graph, x2, 6)
    counts = sphere_counts(free2_graph, 6)
    assert [t.shape[0] for t in tables] == list(counts)


def test_orbit_tables_match_brute_force_words(symbolic_graph, sanov, x2):
    # independent enumeration: recursive reduced words, same label order
    for n in (1, 2, 4):
        tables = orbit_tables(symbolic_graph, x2, n)
        brute = [
            word_act(w, x2, sanov, inverse=True).coords
            for w in reduced_words(sanov, n)
        ]
        got = [tuple(int(v) for v in row) for row in tables[n]]
        assert got == brute


def test_orbit_tables_forward_mode(symbolic_graph, sanov, x2):
    tables = orbit_tables(symbolic_graph, x2, 3, inverse=False)
    brute = [
        word_act(w, x2, sanov, inverse=False).coords
        for w in reduced_words(sanov, 3)
    ]
    got = [tuple(int(v) for v in row) for row in tables[3]]
    assert got == brute


def test_orbit_tables_end_filter(free2_graph, x2):
    from spherecomb import count_paths

    end = 2
    tables = orbit_tables(free2_graph, x2, 5, end=end)
    for n in range(6):
        assert tables[n].shape[0] == count_paths(
            free2_graph, free2_graph.initial, n, target=end
        )


@settings(max_examples=100)
@given(st.data())
def test_orbit_tables_rows_follow_path_order(data):
    ps = preset(data.draw(st.sampled_from(preset_names())))
    graph, system = ps.graph, ps.system
    vertices = st.integers(0, graph.n_vertices - 1)
    start = data.draw(vertices)
    end = data.draw(st.none() | vertices)
    inverse = data.draw(st.booleans())
    n = data.draw(st.integers(0, 6))
    x = TorusPoint(tuple(data.draw(st.integers(0, MASK)) for _ in range(system.dim)))
    got = orbit_tables(graph, x, n, start=start, end=end, inverse=inverse)[n]
    want = [
        word_act(graph.path_word(p), x, system, inverse=inverse).coords
        for p in enumerate_paths(graph, start, n, target=end)
    ]
    assert got.shape == (len(want), system.dim)
    assert [tuple(int(v) for v in row) for row in got] == want


def test_orbit_tables_match_pinned_digests(free2_graph, x2):
    # sha256 of the little-endian tables at n = 10, recorded with the
    # depth-first engine that the level-synchronous kernel replaced
    pinned = [
        ({}, "4617bfb39509748d2f83e49ca5f8b314750ac5fbecc5e5edd205f809ee53fcf9"),
        ({"inverse": False}, "d55280abd647da0fec46179a6bf4b20980643eecdafc87febf28289a0b9a4388"),
        ({"start": 1, "end": 3}, "f4fc8dfd6a31629082db9a19a9fc5b8c68b02e38e6ea4cc354478c6df85039cc"),
    ]
    for kwargs, digest in pinned:
        h = hashlib.sha256()
        for table in orbit_tables(free2_graph, x2, 10, **kwargs):
            h.update(table.astype("<u8").tobytes())
        assert h.hexdigest() == digest, kwargs


def _word_matrices(graph, inverse):
    """Per edge, its word matrix A_e, or the inverse A_e^-1, as uint64 (mod 2**64)."""
    mats = []
    for e in graph.edges:
        m = graph.system.word_matrix(e.word)
        m = m.inverse() if inverse else m
        mats.append([[v & MASK for v in row] for row in m.rows])
    return np.array(mats, dtype=np.uint64).reshape(-1, graph.system.dim, graph.system.dim)


def _vertex_grouped_tables(graph, x, n_max, start, end, inverse):
    """The orbit kernel that grouped each level's nodes by vertex with a stable
    argsort: per node a (d, 1) column w^-1.x, which a child's edge updates as
    A_e^-1 . state, or in forward mode w^T, updated as A_e^T . state.  The
    matrices come from ``word_matrix`` and ``GroupMatrix.inverse``, not from
    the package's edge actions."""
    d = graph.system.dim
    x_col = np.array(x.coords, dtype=np.uint64)
    acts = _word_matrices(graph, inverse)
    if inverse:
        state = x_col.reshape(1, d, 1)
    else:
        acts = acts.transpose(0, 2, 1)
        state = np.eye(d, dtype=np.uint64).reshape(1, d, d)
    out = graph.out_edges
    dst = np.array([e.dst for e in graph.edges], dtype=np.intp)
    degree = np.array([len(o) for o in out], dtype=np.intp)
    verts = np.array([start], dtype=np.intp)

    def record(state, verts):
        if end is not None:
            state = state[verts == end]
        return state.reshape(-1, d) if inverse else state.transpose(0, 2, 1) @ x_col

    tables = [record(state, verts)]
    for _ in range(n_max):
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


def _split_tables(graph, x, n_max, start, end, inverse, split):
    """orbit_tables with its prefixes ending at length ``split`` in place of ceil(n_max / 2)."""
    budget = equidist.DEFAULT_BUDGET
    return next(equidist._orbits(graph, x, n_max, [start], end, inverse, budget, split))


# generator systems of dimension 1, 2 and 3; -I in SL2(Z) is an involution
_SYSTEMS = (
    GeneratorSystem.from_pairs([("a", "A", ((1,),))]),
    GeneratorSystem.from_pairs(
        [("a", "A", ((1, 2), (0, 1))), ("b", "B", ((1, 0), (2, 1))), ("t", "t", ((-1, 0), (0, -1)))]
    ),
    GeneratorSystem.from_pairs(
        [
            ("a", "A", ((1, 1, 0), (0, 1, 0), (0, 0, 1))),
            ("b", "B", ((1, 0, 0), (0, 1, 1), (0, 0, 1))),
            ("c", "C", ((1, 0, 0), (0, 1, 0), (5, 0, 1))),
        ]
    ),
)


@settings(max_examples=120)
@given(st.data())
def test_orbit_tables_on_random_graph_structures(data):
    # any multigraph: dead ends, parallel edges, one- or two-letter words,
    # and the two-letter labels of p_step; every start, end and mode
    system = data.draw(st.sampled_from(_SYSTEMS))
    n = data.draw(st.integers(1, 5))
    vertex = st.integers(0, n - 1)
    word = st.lists(st.sampled_from(system.labels), min_size=1, max_size=2).map(tuple)
    edges = data.draw(st.lists(st.builds(Edge, vertex, vertex, word), max_size=9))
    graph = GraphStructure(system, n, data.draw(vertex), tuple(edges))
    if data.draw(st.booleans()):
        graph = p_step(graph, 2)
    n_max = data.draw(st.integers(0, 5))
    assume(sum(sum(count_paths(graph, v, m) for v in range(n)) for m in range(n_max + 1)) <= 1500)
    x = TorusPoint(tuple(data.draw(st.integers(0, MASK)) for _ in range(system.dim)))
    for start in range(n):
        for inverse in (True, False):
            paths = [list(enumerate_paths(graph, start, m)) for m in range(n_max + 1)]
            points = [
                [word_act(graph.path_word(p), x, system, inverse=inverse).coords for p in level]
                for level in paths
            ]
            for end in (None, *range(n)):
                got = orbit_tables(graph, x, n_max, start=start, end=end, inverse=inverse)
                old = _vertex_grouped_tables(graph, x, n_max, start, end, inverse)
                assert len(got) == n_max + 1
                for m, (table, ref) in enumerate(zip(got, old)):
                    want = [
                        pt
                        for p, pt in zip(paths[m], points[m])
                        if end is None or graph.path_vertices(start, p)[-1] == end
                    ]
                    assert table.dtype == np.uint64
                    assert table.shape == (len(want), system.dim)
                    assert table.flags.c_contiguous
                    assert [tuple(int(v) for v in row) for row in table] == want
                    assert np.array_equal(table, ref)
                # the same tables with the prefixes split off at any depth
                for split in (0, 1, 3, n_max):
                    tables = _split_tables(graph, x, n_max, start, end, inverse, split)
                    assert len(tables) == n_max + 1
                    for table, ref in zip(tables, got):
                        assert table.dtype == np.uint64 and table.flags.c_contiguous
                        assert table.shape == ref.shape and np.array_equal(table, ref)


def test_orbit_tables_memory_is_bounded(free2):
    # Peaks of the free2_sanov orbit: 10.5 MiB inverse at n = 11, 5.7 MiB
    # forward at n = 10 and 7.8 MiB end-filtered (start 1, end 2, the
    # markov-cesaro path) at n = 11 with the kernel that sorted each level's
    # parents by vertex; 9.6, 5.5 and 7.1 MiB with the one that carried the
    # vertex groups between levels, and 86.5 MiB inverse at n = 13.  The
    # split kernel peaks at 6.9, 2.3, 1.4 and 61.2 MiB: the returned tables
    # (5.4, 1.8, 1.0 and 48.6 MiB) plus one vertex's products and their
    # scatter index; its suffix tables are seeded at the end vertex only.
    # A kernel that gathers one action per child (acts[edges] @
    # state[parents]) peaks near 22.8 and 10.8 MiB on the first two and
    # fails, and so does the split kernel with no prefixes in forward mode
    # (9.0 MiB: every level's suffix points are kept).
    graph = free2.graph
    cases = (
        (11, {"inverse": True}, 13.0),
        (10, {"inverse": False}, 7.0),
        (11, {"start": 1, "end": 2}, 9.6),
        (13, {"inverse": True}, 72.0),
    )
    for n, kwargs, bound in cases:
        gc.collect()
        tracemalloc.start()
        try:
            tables = orbit_tables(graph, free2.basepoint, n, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        start = kwargs.get("start", graph.initial)
        assert len(tables[n]) == count_paths(graph, start, n, target=kwargs.get("end"))
        assert peak <= bound * 2**20, (n, kwargs, peak / 2**20)


def test_budget_exceeded(free2_graph, x2):
    f = TestFunction.character((1, 0))
    with pytest.raises(BudgetExceededError) as exc:
        spherical_average(free2_graph, x2, f, 14, budget=1000)
    assert "Monte Carlo" in str(exc.value)
    assert exc.value.required > 1000


def test_suffix_tables_stop_at_the_vertices_the_start_reaches():
    # Vertex 0 has 2**m paths of length m; the dead-end start 1 never reaches
    # it, so its orbit is one point and fits a budget of n + 1 nodes.  A
    # kernel that built every vertex's suffix tables would make 2**20
    # suffixes at n = 40 here (2**30, 8 GiB, at n = 60).
    system = _SYSTEMS[0]
    graph = GraphStructure(system, 2, 0, (Edge(0, 0, ("a",)), Edge(0, 0, ("A",))))
    x = TorusPoint((12345,))
    n = 40
    gc.collect()
    tracemalloc.start()
    try:
        for inverse in (True, False):
            tables = orbit_tables(graph, x, n, start=1, inverse=inverse, budget=n + 1)
            assert [len(t) for t in tables] == [1] + [0] * n
            assert tables[0].tolist() == [[12345]]
        f = TestFunction.character((1,))
        result = kappa_average(graph, x, f, n, start=1, budget=n + 1)
        assert result.value == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20, peak / 2**20


@pytest.mark.parametrize("inverse", [True, False])
def test_edge_actions_equal_the_word_matrices_or_their_inverses(inverse):
    """R_e is the transpose of A_e^-1 in inverse mode and A_e in forward mode,
    so a state right-multiplied by R_e moves as the word matrices say."""
    graphs = [preset(name).graph for name in preset_names()]
    graphs += [p_step(graphs[0], 2), p_step(preset("dinf_involutions").graph, 2)]
    assert all(len(e.word) == 2 for e in graphs[-1].edges)
    for graph in graphs:
        want = _word_matrices(graph, inverse)
        got = equidist._edge_actions(graph, inverse)
        assert got.dtype == np.uint64
        assert got.flags.c_contiguous
        assert np.array_equal(got, want.transpose(0, 2, 1) if inverse else want)


def test_kappa_budget_counts_the_nodes_of_every_start(free2_graph, free2_data, x2):
    f = TestFunction.character((1, 0))
    n = 4
    nodes = [
        sum(count_paths(free2_graph, v, m) for m in range(n + 1))
        for v in range(free2_graph.n_vertices)
    ]
    budget = max(nodes)
    for v in range(free2_graph.n_vertices):  # each start alone fits the budget
        kappa_average(free2_graph, x2, f, n, data=free2_data, start=v, budget=budget)
    with pytest.raises(BudgetExceededError) as exc:
        kappa_average(free2_graph, x2, f, n, data=free2_data, budget=budget)
    assert exc.value.required == sum(nodes) > budget


def test_kappa_predicted_limit_is_nan_off_period_one():
    ps = preset("dinf_involutions")
    assert perron_data(transition_matrix(ps.graph)).p_star == 2
    res = kappa_average(ps.graph, ps.basepoint, TestFunction.character((1, 0, 0)), 6)
    assert cmath.isnan(res.predicted_limit.real) and cmath.isnan(res.predicted_limit.imag)
    assert cmath.isfinite(res.value)


def test_character_sums_match_direct_evaluation(free2_graph, x2):
    k = (2, -3)
    tables = orbit_tables(free2_graph, x2, 4)
    sums = character_sums(tables, k)
    f = TestFunction.character(k)
    for n in range(5):
        direct = sum(
            f.evaluate(TorusPoint(tuple(int(v) for v in row))) for row in tables[n]
        )
        assert abs(sums[n] - direct) <= 1e-10


def test_character_sums_check_the_dimension_of_empty_tables(free2_graph, x2):
    with pytest.raises(DimensionMismatchError):
        character_sums([np.zeros((0, 2), dtype=np.uint64)], (1, 2, 3))
    # an end filter can leave a level empty
    tables = orbit_tables(free2_graph, x2, 3, start=1, end=3)
    assert tables[0].shape == (0, 2)
    with pytest.raises(DimensionMismatchError):
        character_sums(tables, (1,))
    assert character_sums(tables, (1, 2))[0] == 0.0 + 0.0j


@pytest.mark.parametrize("entry", [1.5, True], ids=["float", "bool"])
def test_character_sums_reject_non_integer_frequencies(free2_graph, x2, entry):
    tables = orbit_tables(free2_graph, x2, 2)
    with pytest.raises(ValueError, match=re.escape(f"frequency entry {entry!r} is not an integer")):
        character_sums(tables, (entry, 0))
    assert character_sums(tables, (1.0, 0)) == character_sums(tables, (1, 0))


@pytest.mark.parametrize("n_max", [-1, -3])
def test_orbit_tables_reject_a_negative_length(free2_graph, x2, n_max):
    for inverse in (True, False):
        with pytest.raises(ValueError, match="length must be nonnegative"):
            orbit_tables(free2_graph, x2, n_max, inverse=inverse)


def test_spherical_average_trivial_character_is_exactly_one(free2_graph, x2):
    f0 = TestFunction.character((0, 0))
    for n in (1, 3, 7):
        assert spherical_average(free2_graph, x2, f0, n) == 1.0 + 0.0j


def test_spherical_average_at_zero_length(free2_graph, x2):
    f = TestFunction.character((1, 1))
    assert spherical_average(free2_graph, x2, f, 0) == f.evaluate(x2)
    # a point of another torus is refused at every length, n = 0 included
    x3 = TorusPoint.from_fractions([Fraction(1, 3)] * 3)
    f3 = TestFunction.character((1, 1, 1))
    for n in (0, 1):
        with pytest.raises(DimensionMismatchError, match="^basepoint dim 3 vs system dim 2$"):
            spherical_average(free2_graph, x3, f3, n)


def test_spherical_average_is_linear(free2_graph, x2):
    fa = TestFunction.character((1, 0))
    fb = TestFunction.character((0, 1))
    combo = TestFunction((((1, 0), 2.0 + 0j), ((0, 1), -0.5j)))
    va = spherical_average(free2_graph, x2, fa, 5)
    vb = spherical_average(free2_graph, x2, fb, 5)
    vc = spherical_average(free2_graph, x2, combo, 5)
    assert abs(vc - (2.0 * va - 0.5j * vb)) <= 1e-12


def test_sphere_series_cesaro_is_running_mean(free2_graph, x2):
    f = TestFunction.character((1, -1))
    rep = sphere_series(free2_graph, x2, f, 6)
    acc = 0.0 + 0.0j
    for i, n in enumerate(rep.ns):
        acc += rep.spherical[i]
        assert abs(rep.cesaro[i] - acc / n) <= 1e-15
    assert cesaro_average(free2_graph, x2, f, 6) == rep.cesaro[-1]


def test_sphere_series_rejects_lengths_below_one(free2_graph, x2):
    f = TestFunction.character((1, -1))
    with pytest.raises(ValueError, match="at least 1"):
        cesaro_average(free2_graph, x2, f, 0)
    with pytest.raises(ValueError, match="at least 1"):
        sphere_series(free2_graph, x2, f, -1)


def test_averages_decay_on_free_group(free2_graph, x2):
    f = TestFunction.character((1, 0))
    rep = sphere_series(free2_graph, x2, f, 10)
    assert abs(rep.spherical_at(10)) < 0.05
    assert abs(rep.cesaro_at(10)) < 0.05


def test_negative_control_parabolic_fixes_basepoint():
    ps = preset("z_parabolic")
    f = TestFunction.character((1, 0))
    # second coordinate zero: x is fixed by the whole group
    v0 = f.evaluate(ps.basepoint)
    for n in (1, 5, 12):
        v = spherical_average(ps.graph, ps.basepoint, f, n)
        assert abs(v - v0) <= 1e-12
        assert abs(abs(v) - 1.0) <= 1e-12


def test_kappa_unrestricted_trivial_character_is_one(free2_graph, free2_data, x2):
    f0 = TestFunction.character((0, 0))
    res = kappa_average(free2_graph, x2, f0, 8, data=free2_data)
    assert res.value == 1.0 + 0.0j
    assert abs(res.predicted_limit - 1.0) <= 1e-12


def test_kappa_restricted_approaches_sixteenth(free2_graph, x2):
    sub = restrict(free2_graph, [1, 2, 3, 4], new_initial=1)
    f0 = TestFunction.character((0, 0))
    res = kappa_average(sub, x2, f0, 10, start=0, end=0)
    assert abs(res.predicted_limit - 1.0 / 16.0) <= 1e-9
    assert abs(res.value - 1.0 / 16.0) <= 0.02


def test_markov_cesaro_matches_count_oracle(free2_graph, free2_data, x2):
    # chi_0 makes the numerator a pure path count: check against count_paths
    from spherecomb import count_paths

    model = build_markov(free2_graph, free2_data)
    f0 = TestFunction.character((0, 0))
    n_max, i, j = 6, 1, 2
    res = markov_cesaro(model, x2, f0, n_max, i, j)
    acc = 0.0
    for n in range(1, n_max + 1):
        cnt = count_paths(free2_graph, i, n, target=j)
        acc += model.q[i] * model.p[j] / model.lam**n * cnt
    assert abs(res.value - acc / n_max) <= 1e-12
    assert abs(res.predicted_limit - 1.0 / 16.0) <= 1e-9


def test_mc_trivial_character_exact(free2_graph, free2_data, x2):
    f0 = TestFunction.character((0, 0))
    est = mc_spherical(free2_graph, free2_data, x2, f0, 9, samples=64, seed=1)
    assert est.value == 1.0 + 0.0j
    assert est.stderr == 0.0


def test_mc_deterministic_and_near_exact(free2_graph, free2_data, x2):
    f = TestFunction.character((1, 0))
    e1 = mc_spherical(free2_graph, free2_data, x2, f, 6, samples=400, seed=7)
    e2 = mc_spherical(free2_graph, free2_data, x2, f, 6, samples=400, seed=7)
    assert e1.value == e2.value and e1.stderr == e2.stderr
    exact = spherical_average(free2_graph, x2, f, 6)
    assert abs(e1.value - exact) <= 4.0 * e1.stderr + 1e-12


def test_random_geodesic_average_deterministic(free2_graph, free2_data, x2):
    model = build_markov(free2_graph, free2_data)
    f = TestFunction.character((1, 0))
    v1 = random_geodesic_average(model, x2, f, 500, seed=3)
    v2 = random_geodesic_average(model, x2, f, 500, seed=3)
    assert v1 == v2


def test_random_geodesic_average_on_fixed_point():
    ps = preset("z_parabolic")
    model = build_markov(ps.graph)
    f = TestFunction.character((1, 0))
    v = random_geodesic_average(model, ps.basepoint, f, 200, seed=0)
    assert abs(v - f.evaluate(ps.basepoint)) <= 1e-12


def test_random_geodesic_matches_explicit_walk(free2_graph, free2_data, x2):
    # same seed, same start: recompute the average through word_act directly
    from spherecomb import sample_path

    model = build_markov(free2_graph, free2_data)
    f = TestFunction.character((2, 1))
    n = 40
    path = sample_path(model, free2_graph.initial, n, seed=12)
    acc = 0.0 + 0.0j
    for m in range(1, n + 1):
        word = free2_graph.path_word(path.edges[:m])
        acc += f.evaluate(word_act(word, x2, free2_graph.system, inverse=True))
    want = acc / n
    got = random_geodesic_average(model, x2, f, n, seed=12)
    assert abs(got - want) <= 1e-12


def test_mc_estimator_three_stderr_coverage(free2_graph, free2_data, x2):
    # 100 seeded trials at n = 8 with 1e4 samples each; the estimate must
    # land within 3 standard errors of the exact value at least 95 times
    f = TestFunction.character((1, 0))
    exact = spherical_average(free2_graph, x2, f, 8)
    hits = 0
    for seed in np.random.SeedSequence(20260816).spawn(100):
        est = mc_spherical(free2_graph, free2_data, x2, f, 8, 10_000, seed)
        if abs(est.value - exact) <= 3 * est.stderr:
            hits += 1
    assert hits >= 95


def test_half_integer_basepoint_gives_finite_value_set(free2_graph):
    # coordinates with denominator 2: the generator matrices have even
    # off-diagonal entries, so the orbit stays inside the four half-integer
    # points and every average lies in the finite set of f-values there
    half = 1 << 63
    f = TestFunction((((1, 0), 1 + 0j), ((1, 1), 0.5 - 0.25j)))
    value_set = [
        f.evaluate(TorusPoint((a, b))) for a in (0, half) for b in (0, half)
    ]
    for coords in ((half, half), (half, 0), (0, half)):
        x = TorusPoint(coords)
        tables = orbit_tables(free2_graph, x, 8)
        for table in tables:
            assert set(np.unique(table)) <= {0, half}
        for n in range(9):
            v = spherical_average(free2_graph, x, f, n)
            assert min(abs(v - w) for w in value_set) <= 1e-12
        c = cesaro_average(free2_graph, x, f, 8)
        assert min(abs(c - w) for w in value_set) <= 1e-12


def test_conjugate_frequency_conjugates_averages(free2_graph, free2_data, x2):
    for k in ((1, 0), (2, -1), (3, 3)):
        fk = TestFunction.character(k)
        fmk = TestFunction.character(tuple(-c for c in k))
        for n in (1, 4, 7):
            a = spherical_average(free2_graph, x2, fk, n)
            b = spherical_average(free2_graph, x2, fmk, n)
            assert abs(b - a.conjugate()) <= 1e-12
        ca = cesaro_average(free2_graph, x2, fk, 7)
        cb = cesaro_average(free2_graph, x2, fmk, 7)
        assert abs(cb - ca.conjugate()) <= 1e-12
    # same seed draws the same words, so the estimates conjugate exactly
    ea = mc_spherical(free2_graph, free2_data, x2, TestFunction.character((1, 2)), 6, 2000, 5)
    eb = mc_spherical(free2_graph, free2_data, x2, TestFunction.character((-1, -2)), 6, 2000, 5)
    assert abs(eb.value - ea.value.conjugate()) <= 1e-12


def _pinned_function(dim: int, n_terms: int) -> TestFunction:
    """A fixed n-term trigonometric polynomial with unequal complex coefficients."""
    return TestFunction(
        tuple(
            (
                tuple((3 * i + 2 * j + 1) % 7 - 3 for j in range(dim)),
                complex(1.0 / (i + 1), (-1) ** i * 0.3 * i),
            )
            for i in range(n_terms)
        )
    )


# (preset, n, samples, seed, terms, inverse) -> sha256 of repr((value, stderr)),
# recorded with the per-sample word_act loop that the batched layer replaced
_MC_PINNED = {
    ("free2_sanov", 1, 300, 0, 1, True): (
        "d7b7aa7ab8ecb47f872628c8adb4306a4c2540df5595b392d874b697e50f60ff"
    ),
    ("free2_sanov", 5, 300, 1, 16, True): (
        "c2527b64af5780d9b5eac13837bd21afbe9e71936e880739cb622f825689ff22"
    ),
    ("free2_sanov", 12, 300, 2, 1, False): (
        "1980b16999d8781feee3459acd622b868b874841eadff56bb44b3b159c0e21dc"
    ),
    ("free2_sanov", 12, 300, 3, 16, False): (
        "9f0a064d02d942b36c7dd441336d121954596ae730d56711f518bd078ba01d95"
    ),
    ("free2_sanov", 7, 1, 4, 3, True): (
        "84c7129165b0bc7f342cd75286da81a01d4c2be4241262a7ef328e3461808eef"
    ),
    ("dinf_involutions", 5, 300, 5, 1, True): (
        "fe7139ab4a9af9eb333ac0097e3931c40d624b9628df3423d5c149fb7e9d4f3d"
    ),
    ("dinf_involutions", 12, 300, 6, 8, False): (
        "06641b2c82e076173b4dd565d65398d0054ea1b5391fca6e2382fb26e88c2a43"
    ),
    ("dinf_involutions", 9, 300, 7, 8, True): (
        "41fb02f89b81d5085ced41884fef34573fc0d674e743e8e6c49a7006f80bbaa8"
    ),
    ("z_parabolic", 7, 300, 8, 4, True): (
        "3a84894902404bb4214399c497ad8e0771ff3d2d347aa71da2f440ad9abc1e9a"
    ),
    ("z_parabolic", 10, 300, 9, 1, False): (
        "827640eceff1a1ce8245c7f77fd739968f4b6a181b43264cf03f82c54671b059"
    ),
    # deep free2_sanov levels, recorded with the suffix draws read from blocks
    # of raw words: n = 17 admits batches of at most 20 samples, n = 19 first
    # draws below 4 * 3**18 (28% of 32-bit words rejected), and n = 24 takes
    # a 64-bit word for its first suffix draw
    ("free2_sanov", 17, 200, 10, 2, True): (
        "4ccc1e7ba57a3fbd856b0d1d2f4a4358b04e9291a569703875c3df5f65941bb9"
    ),
    ("free2_sanov", 17, 200, 11, 1, False): (
        "fc72f8a0f21b5550701abad7ee4f408e7d3cbf9152392e80bfeab6c7c346e977"
    ),
    ("free2_sanov", 19, 200, 12, 3, True): (
        "f7de54b47ed06e3bde76cc0143185c121ffc685351ae9fff12bf4ac6d3edd536"
    ),
    ("free2_sanov", 19, 200, 13, 1, False): (
        "94ca2836f85e39482a4035dac063064994890ba611c1c2b31e1369ca94b55ccc"
    ),
    ("free2_sanov", 24, 200, 14, 1, True): (
        "3ea91cc1fd4c2dc72731a5915d59228b9d85c571e244ea6cec21603e9063a8f7"
    ),
    ("free2_sanov", 24, 200, 15, 4, False): (
        "408733ae4c2f61e862087311c32e0bddd718bc5bae8fd37c50d7720be601e4ec"
    ),
}


@pytest.mark.parametrize("case", sorted(_MC_PINNED), ids=str)
def test_mc_spherical_matches_pinned_digests(case):
    name, n, samples, seed, n_terms, inverse = case
    ps = preset(name)
    data = perron_data(transition_matrix(ps.graph))
    f = _pinned_function(ps.system.dim, n_terms)
    est = mc_spherical(ps.graph, data, ps.basepoint, f, n, samples, seed, inverse=inverse)
    digest = hashlib.sha256(repr((est.value, est.stderr)).encode()).hexdigest()
    assert digest == _MC_PINNED[case]


# (preset, length, seed, terms, inverse, start) -> sha256 of repr(value), recorded
# with the step-by-step tuple products that the prefix-product scan replaced
_RAY_PINNED = {
    ("free2_sanov", 3000, 0, 1, True, None): (
        "74ef8a7ec5ae9d9bd5354062de05566ffc85c6f21a82b83c3b8a9bc4804c25f4"
    ),
    ("free2_sanov", 3000, 1, 8, True, None): (
        "222101b939c5245ebbb3d65820c9b3028b7d4f766a34f3b1e2a83ac2b0e3f6ea"
    ),
    ("free2_sanov", 3000, 2, 1, False, None): (
        "e95cae5e75c3f05a1a2f9cfc52c67c6af90ece80225c44fe7a159ad2e763003f"
    ),
    ("free2_sanov", 3000, 3, 8, False, "stationary"): (
        "d9bee74c324d4b4fdc475c5558ad61943ada0ce310a0f0cf1b16a2e655a53dc2"
    ),
    ("free2_sanov", 1, 4, 3, False, None): (
        "c72397f6554b8d7de7685b246a6a6ef28df1c53055def04ad764b0b3f01927b9"
    ),
    ("dinf_involutions", 2000, 5, 1, True, None): (
        "20c29457edb7bf41453c0fc7366fca11a7af0c637679d8f856822c408eddfa8d"
    ),
    ("dinf_involutions", 2000, 6, 8, False, 1): (
        "a401e12547c3105c102fce5975dfd36bb7855c5cbdb217e519b4781bb404ad34"
    ),
    ("z_parabolic", 1000, 7, 4, True, None): (
        "65fded893fc7d3667240c97915937b53b5226d5538c3ca0f66245b18e42180d6"
    ),
    ("z_parabolic", 1000, 8, 1, False, None): (
        "bf41a33856ba41678ea7f2f7a2f8b48d9f7e5b9ce9aaf74f588cd4a885b180e7"
    ),
    # longer than one block of the prefix-product scan
    ("free2_sanov", 10000, 9, 2, True, None): (
        "4e4d5c8e29da0f78a152abbf82cf4885851db78197fb66b82b8d7f11a96bc156"
    ),
    ("dinf_involutions", 9000, 10, 3, False, None): (
        "719dba9a2d2393957401ffe1decd2251c8e1cbbf185bc26e8d3b168b616f9f8e"
    ),
    # several chunks of the ray scan, or one step past a multiple of 4 blocks,
    # recorded with the doubling scan over blocks of 4,096 steps
    ("free2_sanov", 40_000, 11, 2, True, None): (
        "d6edc1a6434781a6365fb1a65db279b4813bc4bc0e04c30f918213a1b4d1378c"
    ),
    ("dinf_involutions", 33_001, 12, 3, False, "stationary"): (
        "f4b7ee9536e9ea0c78b69e4d1d293206f69c54159132d66eab2f18359af324dc"
    ),
    ("z_parabolic", 20_000, 13, 1, False, None): (
        "4f967c526cbea1f1c92975e6311a919f32f28a5d90570dcdeac10f26b2c2379d"
    ),
    ("free2_sanov", 16_385, 14, 1, False, 2): (
        "53fb049459205a59261c9f4390af2f650e673b20b03cd9992bcf3284c1c9b79b"
    ),
}


@pytest.mark.parametrize("case", sorted(_RAY_PINNED, key=repr), ids=str)
def test_random_geodesic_average_matches_pinned_digests(case):
    name, length, seed, n_terms, inverse, start = case
    ps = preset(name)
    model = build_markov(ps.graph)
    f = _pinned_function(ps.system.dim, n_terms)
    value = random_geodesic_average(
        model, ps.basepoint, f, length, seed, start=start, inverse=inverse
    )
    digest = hashlib.sha256(repr(value).encode()).hexdigest()
    assert digest == _RAY_PINNED[case]


def _draw_orbit_inputs(data):
    """A shipped preset, a mode, a torus point and a 1- to 4-term test function."""
    ps = preset(data.draw(st.sampled_from(preset_names())))
    dim = ps.system.dim
    x = TorusPoint(tuple(data.draw(st.integers(0, MASK)) for _ in range(dim)))
    coeffs = st.floats(-4.0, 4.0)
    terms = data.draw(
        st.lists(
            st.tuples(
                st.tuples(*[st.integers(-5, 5)] * dim),
                st.builds(complex, coeffs, coeffs),
            ),
            min_size=1,
            max_size=4,
        )
    )
    return ps, data.draw(st.booleans()), x, TestFunction(tuple(terms))


@settings(max_examples=60)
@given(st.data())
def test_batched_mc_equals_per_sample_oracle(data):
    # the oracle draws each path with lp.sample, moves x by word_act one
    # generator at a time and evaluates f in Python, on a re-seeded generator
    ps, inverse, x, f = _draw_orbit_inputs(data)
    graph = ps.graph
    spectral_data = perron_data(transition_matrix(graph))
    n = data.draw(st.integers(0, 9))
    samples = data.draw(st.just(1) | st.integers(2, 30))
    seed = data.draw(st.integers(0, 2**32 - 1))
    got = mc_spherical(graph, spectral_data, x, f, n, samples, seed, inverse=inverse)
    lp = lambda_prime(graph, spectral_data, n)
    rng = np.random.default_rng(seed)
    values = np.array(
        [
            f.evaluate(word_act(graph.path_word(lp.sample(rng)), x, ps.system, inverse=inverse))
            for _ in range(samples)
        ],
        dtype=np.complex128,
    )
    if samples > 1:
        var = float(np.var(values.real, ddof=1) + np.var(values.imag, ddof=1))
        err = (var / samples) ** 0.5
    else:
        err = float("inf")
    assert repr((got.value, got.stderr)) == repr((complex(values.mean()), err))
    assert got.samples == samples


def _character_values(pts: np.ndarray, k) -> np.ndarray:
    """chi_k at each row of an (N, d) uint64 array, one coordinate at a time.

    The single-frequency evaluation that the block kernel's one uint64
    product and in-place exp replaced, kept as its reference.
    """
    phases = np.zeros(pts.shape[0], dtype=np.uint64)
    for i, ki in enumerate(k):
        phases += pts[:, i] * np.uint64(int(ki) & MASK)
    return np.exp(1j * (phases.astype(np.float64) * equidist._TWO_PI_OVER_SCALE))


def _block_sum(vals: np.ndarray, block: int) -> complex:
    """Deterministic sum of a whole array: pairwise inside blocks, compensated across them."""
    return equidist._across_blocks(
        [complex(vals[i : i + block].sum()) for i in range(0, len(vals), block)]
    )


@settings(max_examples=60)
@given(st.data())
def test_batched_ray_equals_word_act_on_every_prefix(data):
    ps, inverse, x, f = _draw_orbit_inputs(data)
    graph = ps.graph
    model = build_markov(graph)
    length = data.draw(st.integers(1, 120))
    seed = data.draw(st.integers(0, 2**32 - 1))
    start = data.draw(st.sampled_from([None, "stationary", *range(graph.n_vertices)]))
    # short scan blocks make the running product carry across blocks and
    # chunks of 2 blocks, whose last sub-block is padded
    block = data.draw(st.sampled_from([1, 3, 8, equidist._BLOCK]))
    with mock.patch.object(equidist, "_BLOCK", block):
        got = random_geodesic_average(model, x, f, length, seed, start=start, inverse=inverse)
    path = sample_path(model, graph.initial if start is None else start, length, seed)
    values = np.array(
        [
            f.evaluate(word_act(graph.path_word(path.edges[:m]), x, ps.system, inverse=inverse))
            for m in range(1, length + 1)
        ],
        dtype=np.complex128,
    )
    assert repr(got) == repr(_block_sum(values, block) / length)


# sha256 of repr of exact results with a 16-term function on free2 (seven
# distinct frequencies, most of them repeated), recorded before the character
# sums were reduced block by block and evaluated once per distinct frequency
_EXACT_PINNED = {
    "sphere_series": "0bf7a985a5d7e69830cc549c31a053930f3f138ff93f983e2ecd5866bf01b5dc",
    "sphere_series_forward": (
        "db0d1af73a33b621804de7b334f49e9f80d355c24d06a7e23ee9c6c54b21fc0f"
    ),
    "kappa_all_starts": "6a78faf3dc6d8f3f1ccce8147b971a3bdae839ee670705ef433ad8afe1175e04",
    "markov_cesaro": "d36dafb3af03481c9da7e9675e5ae601d29b6670232fd691a0f897a0c3bad3b0",
}


def test_exact_averages_match_pinned_digests(free2_graph, free2_data, x2):
    f = _pinned_function(2, 16)
    assert len({k for k, _ in f.terms}) == 7
    got = {}
    for key, inverse in (("sphere_series", True), ("sphere_series_forward", False)):
        rep = sphere_series(free2_graph, x2, f, 10, inverse=inverse)
        got[key] = (rep.path_counts, rep.spherical, rep.cesaro)
    res = kappa_average(free2_graph, x2, f, 8, data=free2_data)
    got["kappa_all_starts"] = (res.value, res.predicted_limit)
    res = markov_cesaro(build_markov(free2_graph, free2_data), x2, f, 10, 1, 2)
    got["markov_cesaro"] = (res.value, res.predicted_limit)
    digests = {key: hashlib.sha256(repr(v).encode()).hexdigest() for key, v in got.items()}
    assert digests == _EXACT_PINNED


def test_f_values_evaluate_each_distinct_frequency_once(free2_graph, free2_data, x2):
    f = _pinned_function(2, 16)
    assert len({k for k, _ in f.terms}) == 7
    with mock.patch.object(equidist, "_characters", wraps=equidist._characters) as spy:
        mc_spherical(free2_graph, free2_data, x2, f, 5, 300, 1)
    assert spy.call_count == 7
    # the values are still TestFunction.evaluate's, bit for bit
    rng = np.random.default_rng(4)
    pts = rng.integers(0, 2**64, size=(500, 2), dtype=np.uint64)
    got = equidist._f_values(f, pts)
    assert [complex(v) for v in got] == [f.evaluate(TorusPoint(tuple(p))) for p in pts]


def _uint64_tables(data, dim: int, block: int) -> list[np.ndarray]:
    """Random (N, dim) uint64 tables, N on both sides of multiples of ``block``."""
    sizes = st.integers(0, 3).flatmap(
        lambda m: st.sampled_from(sorted({max(m * block + d, 0) for d in (-1, 0, 1)}))
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    return [
        rng.integers(0, MASK, size=(n, dim), dtype=np.uint64, endpoint=True)
        for n in data.draw(st.lists(sizes, min_size=1, max_size=4))
    ]


@settings(max_examples=80)
@given(st.data())
def test_character_sums_equal_the_unfused_block_sum(data):
    block = data.draw(st.sampled_from([1, 3, 8, equidist._BLOCK]))
    dim = data.draw(st.integers(1, 3))
    tables = _uint64_tables(data, dim, block)
    k = data.draw(st.tuples(*[st.integers(-(2**70), 2**70)] * dim))
    with mock.patch.object(equidist, "_BLOCK", block):
        got = character_sums(tables, k)
        want = [_block_sum(_character_values(arr, k), block) for arr in tables]
    assert repr(got) == repr(want)


def _cpu_set(n: int):
    """Make the process look as if it may run on n CPUs."""
    return mock.patch.object(os, "sched_getaffinity", return_value=set(range(n)), create=True)


@settings(max_examples=60)
@given(st.data())
def test_function_sums_with_repeated_frequencies_equal_the_per_term_loop(data):
    dim = data.draw(st.integers(1, 3))
    tables = _uint64_tables(data, dim, equidist._BLOCK)
    freqs = data.draw(
        st.lists(st.tuples(*[st.integers(-5, 5)] * dim), min_size=1, max_size=6)
    )
    coeffs = st.builds(complex, st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))
    terms = data.draw(st.lists(st.tuples(st.sampled_from(freqs), coeffs), min_size=1, max_size=12))
    f = TestFunction(tuple(terms))
    cpus = data.draw(st.sampled_from([1, 2, 3, 8]))
    want = [0.0 + 0.0j] * len(tables)
    for k, coeff in f.terms:
        want = [t + coeff * s for t, s in zip(want, character_sums(tables, k))]
    pools = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    with _cpu_set(cpus), mock.patch("concurrent.futures.ThreadPoolExecutor", RecordingPool):
        got = equidist._function_sums(tables, f)
    workers = min(cpus, len({k for k, _ in f.terms}))
    assert pools == ([workers] if workers > 1 else [])
    assert repr(got) == repr(want)


@settings(max_examples=60)
@given(st.data())
def test_frequency_chunks_equal_the_single_frequency_block_sums(data):
    # every frequency of a chunk summed block by block as if it were alone,
    # and the totals the same whatever the chunks and the pool
    block = data.draw(st.sampled_from([1, 3, 8, equidist._BLOCK]))
    dim = data.draw(st.integers(1, 3))
    tables = _uint64_tables(data, dim, block)
    freqs = data.draw(
        st.lists(
            st.tuples(*[st.integers(-(2**70), 2**70)] * dim), min_size=1, max_size=20, unique=True
        )
    )
    coeffs = st.builds(complex, st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))
    f = TestFunction(tuple((k, data.draw(coeffs)) for k in freqs))
    cpus = data.draw(st.sampled_from([1, 2, 3, 8]))
    with mock.patch.object(equidist, "_BLOCK", block):
        got = equidist._frequency_sums(tables, equidist._frequency_rows(freqs))
        want = [[_block_sum(_character_values(arr, k), block) for arr in tables] for k in freqs]
        assert repr(got) == repr(want)
        totals = [0.0 + 0.0j] * len(tables)
        for (_, coeff), sums in zip(f.terms, want):
            totals = [t + coeff * s for t, s in zip(totals, sums)]
        for chunk in (1, equidist._CHUNK, 64):
            with _cpu_set(cpus), mock.patch.object(equidist, "_CHUNK", chunk):
                assert repr(equidist._function_sums(tables, f)) == repr(totals), chunk


def test_character_reduction_memory_is_bounded(free2):
    # Peaks with the kernel that evaluates up to eight frequencies per block:
    # 2.1 MiB for this 128-term function (104 distinct frequencies) at n = 10
    # on two workers and 0.13 MiB for one character at n = 11; 0.65 and
    # 0.19 MiB when each frequency was evaluated alone.
    graph, x = free2.graph, free2.basepoint
    rng = np.random.default_rng(5)
    f = TestFunction(
        tuple(
            (tuple(int(v) for v in rng.integers(-8, 9, size=2)), complex(*rng.uniform(-1, 1, 2)))
            for _ in range(128)
        )
    )
    assert len({k for k, _ in f.terms}) > 2 * equidist._CHUNK  # a full chunk for each worker
    cases = (
        (10, lambda tables: equidist._function_sums(tables, f), 2.5),
        (11, lambda tables: character_sums(tables, (2, -3)), 0.25),
    )
    for n, reduce, bound in cases:
        tables = orbit_tables(graph, x, n)
        gc.collect()
        with _cpu_set(2):
            tracemalloc.start()
            try:
                sums = reduce(tables)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert len(sums) == n + 1
        assert peak <= bound * 2**20, (n, peak / 2**20)


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_function_sums_raise_the_serial_loops_first_error(free2_graph, x2, cpus):
    tables = orbit_tables(free2_graph, x2, 6)
    terms = (((1, 0), 1.0), ((0, 1), 2.0), ((1, 2, 3), 1.0), ((2, 1), 0.5), ((4,), 1.0))
    with pytest.raises(DimensionMismatchError) as serial:
        for k, _ in terms:
            character_sums(tables, k)
    # TestFunction itself rejects mixed dimensions; _function_sums reads only .terms
    f = SimpleNamespace(terms=terms)
    with _cpu_set(cpus), pytest.raises(DimensionMismatchError) as pooled:
        equidist._function_sums(tables, f)
    assert str(pooled.value) == str(serial.value) == (
        "frequency has 3 entries, torus has dimension 2"
    )


def test_sphere_series_leaves_no_thread_behind(free2_graph, x2):
    f = TestFunction(tuple(((k, 1), 1.0) for k in range(20)))
    before = threading.active_count()
    with _cpu_set(4):
        sphere_series(free2_graph, x2, f, 6)
    assert threading.active_count() == before


def test_import_leaves_concurrent_futures_unloaded():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = "import sys, spherecomb, spherecomb.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert (proc.returncode, proc.stdout.strip()) == (0, "False"), proc.stderr


@settings(max_examples=80)
@given(st.data())
def test_orbits_at_dyadic_points_match_the_transfer_operator(data):
    graph = preset(data.draw(st.sampled_from(preset_names()))).graph
    d = graph.system.dim
    m = data.draw(st.integers(1, min(8, 16 // d)))
    q = 1 << m
    nums = data.draw(st.lists(st.integers(0, q - 1), min_size=d, max_size=d))
    n_max = data.draw(st.integers(1, 10))
    inverse = data.draw(st.booleans())
    freqs = data.draw(st.lists(st.tuples(*[st.integers(-9, 9)] * d), min_size=1, max_size=4))
    coeffs = st.builds(complex, st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))
    terms = data.draw(st.lists(st.tuples(st.sampled_from(freqs), coeffs), min_size=1, max_size=6))
    f = TestFunction(tuple(terms))

    x = TorusPoint.from_fractions([Fraction(a, q) for a in nums])
    tables = orbit_tables(graph, x, n_max, inverse=inverse)
    counts = dyadic_orbit_counts(graph, nums, m, n_max, inverse=inverse)
    shift = np.uint64(64 - m)
    for table, want in zip(tables, counts):
        assert not (table - ((table >> shift) << shift)).any()
        cells = np.ravel_multi_index(tuple((table >> shift).astype(np.intp).T), (q,) * d)
        assert np.array_equal(np.bincount(cells, minlength=q**d), want)

    grid = np.indices((q,) * d).reshape(d, -1).T
    chi = {
        k: np.exp(2j * np.pi * (grid @ np.array([v % q for v in k]) % q) / q) for k in freqs
    }
    with _cpu_set(3):
        got = equidist._function_sums(tables, f)
    scale = sum(abs(c) for _, c in f.terms)
    for g, level in zip(got, counts):
        want = sum((c * complex(level @ chi[k]) for k, c in f.terms), 0j)
        assert abs(g - want) <= 1e-9 * scale * max(1, int(level.sum()))


@settings(max_examples=60)
@given(st.data())
def test_end_filtered_orbits_and_kappa_match_the_transfer_operator(data):
    # per-vertex counts from every start vertex, none of them from the kernel
    graph = preset(data.draw(st.sampled_from(preset_names()))).graph
    d, nv = graph.system.dim, graph.n_vertices
    m = data.draw(st.integers(1, min(6, 12 // d)))
    q = 1 << m
    nums = data.draw(st.lists(st.integers(0, q - 1), min_size=d, max_size=d))
    n_max = data.draw(st.integers(1, 9))
    vertices = st.integers(0, nv - 1)
    start, end = data.draw(vertices), data.draw(vertices)
    x = TorusPoint.from_fractions([Fraction(a, q) for a in nums])
    counts = [
        dyadic_orbit_counts(graph, nums, m, n_max, start=v, per_vertex=True) for v in range(nv)
    ]

    shift = np.uint64(64 - m)
    tables = orbit_tables(graph, x, n_max, start=start, end=end)
    for table, level in zip(tables, counts[start]):
        cells = np.ravel_multi_index(tuple((table >> shift).astype(np.intp).T), (q,) * d)
        assert np.array_equal(np.bincount(cells, minlength=q**d), level[end])

    k = data.draw(st.tuples(*[st.integers(-9, 9)] * d))
    grid = np.indices((q,) * d).reshape(d, -1).T
    chi = np.exp(2j * np.pi * (grid @ np.array([v % q for v in k]) % q) / q)
    kappa_end = data.draw(st.none() | vertices)
    per_start = []
    function_sums = equidist._function_sums

    def recorded(tables, f):
        per_start.append(sums := function_sums(tables, f))
        return sums

    with mock.patch.object(equidist, "_function_sums", recorded):
        res = kappa_average(graph, x, TestFunction.character(k), n_max, end=kappa_end)
    assert len(per_start) == nv  # one start after the other
    acc = 0.0 + 0.0j
    omega = [sum(int(level.sum()) for level in levels) for levels in zip(*counts)]
    for n in range(n_max + 1):
        rows = [c[n].sum(axis=0) if kappa_end is None else c[n][kappa_end] for c in counts]
        for got, row in zip((sums[n] for sums in per_start), rows):
            assert abs(got - complex(row @ chi)) <= 1e-9 * max(1, int(row.sum()))
        if n:
            acc += sum(complex(row @ chi) for row in rows) / omega[n]
    assert abs(res.value - acc / n_max) <= 1e-9


@settings(max_examples=60)
@given(st.data())
def test_kappa_shared_suffix_pass_equals_per_start_orbit_tables(data):
    # the sums of each start's own orbit_tables, added start by start
    ps = preset(data.draw(st.sampled_from(preset_names())))
    graph, d = ps.graph, ps.system.dim
    vertices = st.integers(0, graph.n_vertices - 1)
    start = data.draw(st.none() | vertices)
    end = data.draw(st.none() | vertices)
    inverse = data.draw(st.booleans())
    n_max = data.draw(st.integers(1, 7))
    x = TorusPoint(tuple(data.draw(st.integers(0, MASK)) for _ in range(d)))
    freqs = st.tuples(*[st.integers(-9, 9)] * d)
    coeffs = st.builds(complex, st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))
    f = TestFunction(tuple(data.draw(st.lists(st.tuples(freqs, coeffs), min_size=1, max_size=4))))
    res = kappa_average(graph, x, f, n_max, start=start, end=end, inverse=inverse)

    sums = [0.0 + 0.0j] * (n_max + 1)
    for v in range(graph.n_vertices) if start is None else [start]:
        tables = orbit_tables(graph, x, n_max, start=v, end=end, inverse=inverse)
        for m, s in enumerate(equidist._function_sums(tables, f)):
            sums[m] += s
    acc = 0.0 + 0.0j
    for n in range(1, n_max + 1):
        acc += sums[n] / sum(count_paths(graph, v, n) for v in range(graph.n_vertices))
    assert repr(res.value) == repr(acc / n_max)


def test_averages_need_a_path_of_every_length(free2_data, x2):
    # one edge 0 -> 1 and no cycle: no path has length 2
    graph = GraphStructure(preset("free2_sanov").system, 2, 0, (Edge(0, 1, ("a",)),))
    f = TestFunction.character((1, 0))
    with pytest.raises(SpherecombError, match="^no paths of length 2 from the start vertex$"):
        sphere_series(graph, x2, f, 2)
    # spectral data of another graph: the walk stops before it is read
    with pytest.raises(SpherecombError, match="^no paths of length 2 at all$"):
        kappa_average(graph, x2, f, 2, data=free2_data)


def test_sphere_series_of_the_empty_function_is_zero(free2_graph, x2):
    rep = sphere_series(free2_graph, x2, TestFunction(()), 4)
    assert rep.spherical == rep.cesaro == (0j,) * 4
