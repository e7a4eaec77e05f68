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
