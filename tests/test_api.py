"""The package's public surface: its export list and the integer rule of every entry."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spherecomb
from spherecomb import (
    Edge,
    GraphStructure,
    MarkovModel,
    TestFunction,
    TorusPoint,
    a_infinity,
    build_cone_type_combing,
    build_markov,
    cesaro_average,
    count_paths,
    enumerate_paths,
    kappa_average,
    lambda_prime,
    markov_cesaro,
    mc_series,
    mc_spherical,
    orbit_tables,
    p_step,
    path_weight,
    prefix_distribution,
    random_geodesic_average,
    restrict,
    return_times,
    sample_path,
    sample_vertex_walk,
    sphere_counts,
    sphere_series,
    spherical_average,
    sqrt_fix64,
    transition_matrix,
    verify_geodesic,
)
from spherecomb.combing import cayley_ball
from conftest import sanov_system


def test_all_is_sorted_and_equals_the_imported_public_names():
    exported = spherecomb.__all__
    assert exported == sorted(set(exported))
    tree = ast.parse(Path(spherecomb.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert set(exported) == {name for name in imported if not name.startswith("_")}
    for name in exported:
        getattr(spherecomb, name)


@st.composite
def _multigraphs(draw):
    """A graph structure on 1-5 vertices with random (parallel, looping, dead-end) edges."""
    nv = draw(st.integers(1, 5))
    vertex = st.integers(0, nv - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=12))
    edges = tuple(Edge(u, v, (draw(st.sampled_from("aAbB")),)) for u, v in pairs)
    return GraphStructure(sanov_system(), nv, draw(vertex), edges)


@settings(max_examples=40)
@given(_multigraphs())
def test_every_vertex_argument_is_range_checked_one_way(graph):
    nv = graph.n_vertices
    x = TorusPoint.zero(2)
    f = TestFunction.character((1, 0))
    model = MarkovModel(
        graph=graph, lam=1.0, p=(1.0,) * nv, q=(1.0,) * nv, pi=(1.0 / nv,) * nv,
        edge_prob=(1.0,) * len(graph.edges),
    )
    calls = [
        ("initial", lambda v: GraphStructure(graph.system, nv, v, graph.edges)),
        ("start", lambda v: orbit_tables(graph, x, 2, start=v)),
        ("end", lambda v: orbit_tables(graph, x, 2, end=v)),
        ("start", lambda v: kappa_average(graph, x, f, 2, start=v)),
        ("end", lambda v: kappa_average(graph, x, f, 2, end=v)),
        ("source", lambda v: count_paths(graph, v, 2)),
        ("target", lambda v: count_paths(graph, None, 2, target=v)),
        ("source", lambda v: list(enumerate_paths(graph, v, 2))),
        ("target", lambda v: list(enumerate_paths(graph, 0, 2, target=v))),
        ("source", lambda v: enumerate_paths(graph, v, 2)),
        ("target", lambda v: enumerate_paths(graph, 0, 2, target=v)),
        ("kept", lambda v: restrict(graph, [graph.initial, v])),
        ("start", lambda v: sample_path(model, v, 2, 0)),
        ("start", lambda v: path_weight(model, (), start=v)),
    ]
    for v in (-1, nv):
        for role, call in calls:
            message = f"^{role} vertex {v} out of range for {nv} vertices$"
            with pytest.raises(ValueError, match=message):
                call(v)
    for v in (1.5, 2.0, "1", True):
        for role, call in calls:
            message = f"^{role} vertex {re.escape(repr(v))} is not an integer$"
            with pytest.raises(ValueError, match=message):
                call(v)
    with pytest.raises(ValueError, match="^graph needs a start vertex$"):
        GraphStructure(graph.system, nv, None, graph.edges)


_NOT_INTEGERS = (1.5, 2.0, "1", True)


def _not_an_integer(role, v):
    return f"^{role} {re.escape(repr(v))} is not an integer$"


def test_every_size_argument_is_checked_by_the_one_integer_rule(free2, free2_data):
    g, data, x = free2.graph, free2_data, free2.basepoint
    f = TestFunction.character((1, 0))
    model = build_markov(g, data)
    lp = lambda_prime(g, data, 3)
    record = return_times([0, 1, 2, 1], 1)
    # (role, least, call): the smallest size the call takes, and its range message is the owner's
    sizes = [
        ("radicand", 0, sqrt_fix64),
        ("radius", 0, lambda v: cayley_ball(g.system, v)),
        ("radius", 0, lambda v: verify_geodesic(g, v)),
        ("lookahead", 1, lambda v: build_cone_type_combing(g.system, 5, v)),
        ("length", 0, lambda v: count_paths(g, 0, v)),
        ("length", 0, lambda v: sphere_counts(g, v)),
        ("length", 0, lambda v: next(enumerate_paths(g, 0, v))),
        ("length", 0, lambda v: enumerate_paths(g, 0, v)),
        ("p", 1, lambda v: p_step(g, v)),
        ("p_star", 1, lambda v: a_infinity(transition_matrix(g), v, data.lam)),
        ("length", 0, lambda v: orbit_tables(g, x, v)),
        ("length", 0, lambda v: spherical_average(g, x, f, v)),
        ("N", 1, lambda v: sphere_series(g, x, f, v)),
        ("N", 1, lambda v: cesaro_average(g, x, f, v)),
        ("N", 1, lambda v: kappa_average(g, x, f, v)),
        ("N", 1, lambda v: markov_cesaro(model, x, f, v, 1, 1)),
        ("N", 1, lambda v: mc_series(g, data, x, f, v, 10, 0)),
        ("N", 1, lambda v: random_geodesic_average(model, x, f, v, 0)),
        ("samples", 1, lambda v: mc_spherical(g, data, x, f, 2, v, 0)),
        ("samples", 1, lambda v: mc_series(g, data, x, f, 2, v, 0)),
        ("walk length", 0, lambda v: sample_path(model, 1, v, 0)),
        ("walk length", 0, lambda v: sample_vertex_walk(model, 1, v, 0)),
        ("prefix length", 0, lambda v: prefix_distribution(g, data, v)),
        ("path length", 0, lambda v: lambda_prime(g, data, v)),
        ("sample count", 0, lambda v: lp.sample_many(0, v)),
        ("sample count", 0, lambda v: lp.sample_array(0, v)),
        ("time", 0, record.t),
    ]
    for role, least, call in sizes:
        bound = "nonnegative" if least == 0 else f"at least {least}"
        with pytest.raises(ValueError, match=f"^{role} must be {bound}$"):
            call(least - 1)
        for v in _NOT_INTEGERS:
            with pytest.raises(ValueError, match=_not_an_integer(role, v)):
                call(v)
    # two sizes keep the range message that their callers know; the type check is the owner's
    pinned = [
        ("vertex count", 0, "graph needs at least one vertex",
         lambda v: GraphStructure(g.system, v, 0, ())),
        ("target vertex", -1, "target vertex -1 is negative", lambda v: return_times([0, 1], v)),
    ]
    for role, below, message, call in pinned:
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(below)
        for v in _NOT_INTEGERS:
            with pytest.raises(ValueError, match=_not_an_integer(role, v)):
                call(v)
    # a vertex that must be given refuses None by the same rule
    required = [
        ("start", lambda: model.start_vertex(None, np.random.default_rng(0))),
        ("start", lambda: sample_path(model, None, 2, 0)),
        ("start", lambda: markov_cesaro(model, x, f, 2, None, 1)),
        ("end", lambda: markov_cesaro(model, x, f, 2, 1, None)),
        ("source", lambda: next(enumerate_paths(g, None, 2))),
        ("source", lambda: enumerate_paths(g, None, 2)),
        ("start", lambda: g.path_vertices(None, ())),
    ]
    for role, call in required:
        with pytest.raises(ValueError, match=f"^{role} vertex None is not an integer$"):
            call()
    for v in _NOT_INTEGERS:  # True is no vertex 1, which the kept set holds
        with pytest.raises(ValueError, match=_not_an_integer("initial vertex", v)):
            restrict(g, [0, 1], new_initial=v)
    for call in (lambda: g.path_vertices(1, (4.0,)), lambda: path_weight(model, (4.0,))):
        with pytest.raises(ValueError, match=_not_an_integer("edge", 4.0)):
            call()
    # a fractional length used to send the depth-first search down until memory ran out
    with pytest.raises(ValueError, match=_not_an_integer("length", 0.5)):
        next(enumerate_paths(g, 0, 0.5))
    with pytest.raises(ValueError, match=_not_an_integer("path length", 2.5)):
        lambda_prime(g, data, 2.5)


def test_a_negative_seed_is_refused_by_name(free2, free2_data):
    g, data, x = free2.graph, free2_data, free2.basepoint
    f = TestFunction.character((1, 0))
    model = build_markov(g, data)
    lp = lambda_prime(g, data, 3)
    calls = [
        lambda s: sample_path(model, 0, 5, s),
        lambda s: sample_vertex_walk(model, 0, 5, s),
        lambda s: random_geodesic_average(model, x, f, 5, s),
        lambda s: lp.sample(s),
        lambda s: lp.sample_many(s, 3),
        lambda s: lp.sample_array(s, 3),
        lambda s: mc_spherical(g, data, x, f, 3, 10, s),
        lambda s: mc_series(g, data, x, f, 3, 10, s),
    ]
    for call in calls:
        for seed in (-1, np.int64(-5)):
            with pytest.raises(ValueError, match="^seed must be nonnegative$"):
                call(seed)
        with pytest.raises(ValueError, match="^seed True is not an integer$"):
            call(True)
    # what is no integer is numpy's to take: Generators, SeedSequences and None
    for seed in (None, np.uint8(3)):
        for call in calls:
            call(seed)
    for seed in (np.random.default_rng(0), np.random.SeedSequence(0)):
        for call in calls[:-1]:  # mc_series spawns a SeedSequence from its seed
            call(seed)
