"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from spherecomb import (
    GeneratorSystem,
    GroupMatrix,
    build_free_group_combing,
    perron_data,
    preset,
    transition_matrix,
)

# Property tests draw the same examples on every run and have no deadline, so
# a slow shared host neither fails them nor changes what they check.
settings.register_profile("reproducible", deadline=None, derandomize=True)
settings.load_profile("reproducible")


def sanov_system() -> GeneratorSystem:
    return GeneratorSystem.from_pairs(
        [
            ("a", "A", ((1, 2), (0, 1))),
            ("b", "B", ((1, 0), (2, 1))),
        ]
    )


def reduced_words(system: GeneratorSystem, n: int):
    """All freely reduced words of length n, in label order at every position.

    Independent of the combing machinery: plain recursion over letters that
    never follows a letter by its inverse.
    """
    if n == 0:
        yield ()
        return
    labels = system.labels

    def rec(word, last):
        if len(word) == n:
            yield tuple(word)
            return
        for s in labels:
            if last is not None and system.inverse_of(last) == s:
                continue
            word.append(s)
            yield from rec(word, s)
            word.pop()

    yield from rec([], None)


def reduced_word_matrices(system: GeneratorSystem, n: int):
    """(word, matrix) for all freely reduced words of length n, label order."""
    labels = system.labels
    d = system.dim

    def rec(word, last, m):
        if len(word) == n:
            yield tuple(word), m
            return
        for s in labels:
            if last is not None and system.inverse_of(last) == s:
                continue
            word.append(s)
            yield from rec(word, s, m @ system.matrix_of(s))
            word.pop()

    yield from rec([], None, GroupMatrix.identity(d))


def random_scc_matrix(rng: np.random.Generator, max_n: int = 12) -> np.ndarray:
    """Random strongly connected nonnegative integer matrix with entries <= 3.

    A full cycle through all vertices guarantees strong connectivity; extra
    edges are sprinkled on top.
    """
    n = int(rng.integers(2, max_n + 1))
    a = np.zeros((n, n), dtype=np.int64)
    order = rng.permutation(n)
    for i in range(n):
        a[order[i], order[(i + 1) % n]] = int(rng.integers(1, 4))
    extra = int(rng.integers(0, 2 * n + 1))
    for _ in range(extra):
        i, j = int(rng.integers(n)), int(rng.integers(n))
        a[i, j] = int(rng.integers(1, 4))
    return a


def dyadic_orbit_counts(
    graph, numerators, m: int, n_max: int, *, inverse: bool = True, start=None, per_vertex=False
):
    """Orbit counts at the basepoint 2^-m * numerators, by transfer operator.

    Independent of the orbit kernel: no path is enumerated.  The orbit of a
    point of (2^-m Z)^d stays in that grid, so path counts per (vertex, grid
    point) follow a linear recursion, one ``np.add.at`` per edge and level.
    Inverse mode counts paths from ``start`` by their end vertex (appending
    edge e maps w^-1 x to A_e^-1 w^-1 x); forward mode counts paths by their
    start vertex (prepending e maps u x to A_e u x).  ``start`` defaults to
    the initial vertex.  Returns, for n = 0..n_max, the number of length-n
    paths from ``start`` at each grid point, flattened in C order of the
    numerators mod 2^m; with ``per_vertex`` (inverse mode only) each level
    is the (n_vertices, q^d) array of those counts by end vertex.
    """
    if per_vertex and not inverse:
        raise ValueError("per-vertex counts are by end vertex, in inverse mode")
    start = graph.initial if start is None else start
    system, d, q = graph.system, graph.system.dim, 1 << m
    grid = np.indices((q,) * d).reshape(d, -1).T
    images = []
    for e in graph.edges:
        a = system.word_matrix(e.word)
        a = a.inverse() if inverse else a
        a = np.array([[v % q for v in row] for row in a.rows], dtype=np.int64)
        images.append(np.ravel_multi_index(tuple((grid @ a.T % q).T), (q,) * d))
    counts = np.zeros((graph.n_vertices, q**d), dtype=np.int64)
    x = np.ravel_multi_index(tuple(v % q for v in numerators), (q,) * d)
    if inverse:
        counts[start, x] = 1
    else:
        counts[:, x] = 1
    levels = []
    for n in range(n_max + 1):
        if inverse:
            levels.append(counts.copy() if per_vertex else counts.sum(axis=0))
        else:
            levels.append(counts[start].copy())
        step = np.zeros_like(counts)
        for e, img in zip(graph.edges, images):
            src, dst = (e.src, e.dst) if inverse else (e.dst, e.src)
            np.add.at(step[dst], img, counts[src])
        counts = step
    return levels


@pytest.fixture(scope="session")
def sanov():
    return sanov_system()


@pytest.fixture(scope="session")
def free2():
    return preset("free2_sanov")


@pytest.fixture(scope="session")
def free2_graph(free2):
    return free2.graph


@pytest.fixture(scope="session")
def free2_data(free2_graph):
    return perron_data(transition_matrix(free2_graph))


@pytest.fixture(scope="session")
def symbolic_graph(sanov):
    return build_free_group_combing(sanov)
