"""The package's public surface: its export list and the vertex rule of every entry."""

from __future__ import annotations

import ast
from pathlib import Path

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
    count_paths,
    enumerate_paths,
    kappa_average,
    orbit_tables,
    path_weight,
    restrict,
    sample_path,
)
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
        ("kept", lambda v: restrict(graph, [graph.initial, v])),
        ("start", lambda v: sample_path(model, v, 2, 0)),
        ("start", lambda v: path_weight(model, (), start=v)),
    ]
    for v in (-1, nv):
        for role, call in calls:
            message = f"^{role} vertex {v} out of range for {nv} vertices$"
            with pytest.raises(ValueError, match=message):
                call(v)
    with pytest.raises(ValueError, match="^graph needs a start vertex$"):
        GraphStructure(graph.system, nv, None, graph.edges)
