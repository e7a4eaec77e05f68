"""Graph structures for geodesic combings and their path combinatorics.

A graph structure is a finite directed multigraph with a start vertex and
edges labeled by words in a generator system.  Paths from the start vertex
evaluate to group elements by multiplying edge labels left to right; the
structure is a geodesic combing when this evaluation is a length-preserving
bijection onto the group (checked against a breadth-first Cayley-graph
oracle by :func:`verify_geodesic`).

Two constructions are provided: the explicit no-backtracking automaton of a
free generating set, and the cone-type automaton computed from the exact
matrix representation by breadth-first search.  Only the search multiplies:
it holds elements as int64 residues modulo as many coprime moduli as the
radius needs to tell them apart, multiplies each sphere by all generators
in one ``np.matmul``, and matches the products to known elements by one
call of the row classifier :func:`_row_classes` per sphere, which sorts
integer keys.  So each Cayley-graph product is made once; the cone types
and the geodesic check read its neighbour table.  Cone types are integer
ids, refined one lookahead level at a time by the same classifier over the
table's rows, and the geodesic check extends all paths of a level at once
as arrays; none of them loops over elements or paths in Python.  The
shipped presets are built by these two constructions, which give equal
graphs for the Sanov generators.

Path counts are exact Python integers, summed level by level over each
vertex's out-edges, one term per edge, so parallel edges count with their
multiplicity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from math import gcd, isqrt, prod
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import spectral
from .algebra import GeneratorSystem, GroupMatrix
from .errors import (
    AutomatonFormatError,
    InconsistentAutomatonError,
    NotAlmostSemisimpleError,
    RadiusExhaustedError,
    SpherecombError,
    UnknownLabelError,
    check_integer,
)


class Edge(NamedTuple):
    """Directed edge carrying a nonempty word of generator labels."""

    src: int
    dst: int
    word: tuple[str, ...]


@dataclass(frozen=True)
class GraphStructure:
    """Directed multigraph with a start vertex, edges labeled by generator words."""

    system: GeneratorSystem
    n_vertices: int
    initial: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        check_integer(self.n_vertices, "vertex count", None)
        if self.n_vertices < 1:
            raise ValueError("graph needs at least one vertex")
        if self.initial is None:
            raise ValueError("graph needs a start vertex")
        self.check_vertex(self.initial, "initial")
        known = set(self.system.labels)
        for i, e in enumerate(self.edges):
            self.check_vertex(e.src, f"edge {i} tail")
            self.check_vertex(e.dst, f"edge {i} head")
            if not e.word:
                raise AutomatonFormatError(f"edge {i} has an empty label word")
            for s in e.word:
                if s not in known:
                    raise UnknownLabelError(f"edge {i} uses unknown label {s!r}")

    def check_vertex(self, v: int, role: str) -> None:
        """The check of every vertex argument: an integer (``check_integer``) in 0 .. V - 1.

        None is no vertex; a caller whose vertex is optional skips the check for it.
        """
        check_integer(v, f"{role} vertex", None)
        if not 0 <= v < self.n_vertices:
            raise ValueError(f"{role} vertex {v} out of range for {self.n_vertices} vertices")

    @cached_property
    def out_edges(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for i, e in enumerate(self.edges):
            out[e.src].append(i)
        return tuple(tuple(o) for o in out)

    def path_word(self, path: Sequence[int]) -> tuple[str, ...]:
        """Concatenated label word of a path given as edge indices."""
        out: list[str] = []
        for i in path:
            out.extend(self.edges[i].word)
        return tuple(out)

    def path_matrix(self, path: Sequence[int]) -> GroupMatrix:
        """Exact evaluation of a path to a group element."""
        return self.system.word_matrix(self.path_word(path))

    def path_vertices(self, start: int, path: Sequence[int]) -> tuple[int, ...]:
        """The vertices a path of edge indices 0 .. E - 1 visits from start."""
        self.check_vertex(start, "start")
        edges = self.edges
        verts = [start]
        for i in path:
            check_integer(i, "edge", None)
            if not 0 <= i < len(edges):
                raise ValueError(f"edge {i} out of range for {len(edges)} edges")
            e = edges[i]
            if e.src != verts[-1]:
                raise ValueError(f"edge {i} does not continue the path at vertex {verts[-1]}")
            verts.append(e.dst)
        return tuple(verts)


def build_free_group_combing(system: GeneratorSystem) -> GraphStructure:
    """No-backtracking automaton of a free basis: 2k+1 vertices for rank k.

    Vertex 0 is the start; each label gets one vertex, entered by edges with
    that label from every vertex except the one of its inverse label.  Every
    label must be distinct from its inverse (free bases have no involutions).
    """
    labels = system.labels
    for s in labels:
        if system.inverse_of(s) == s:
            raise ValueError(f"label {s!r} is an involution; a free basis has none")
    vertex_of = {s: 1 + i for i, s in enumerate(labels)}
    edges = [Edge(0, vertex_of[s], (s,)) for s in labels]
    for s in labels:
        for t in labels:
            if t != system.inverse_of(s):
                edges.append(Edge(vertex_of[s], vertex_of[t], (t,)))
    return GraphStructure(system, 1 + len(labels), 0, tuple(edges))


# ---------------------------------------------------------------------------
# breadth-first search on the Cayley graph (the geodesic oracle)


class CayleyBall(NamedTuple):
    """Cayley ball as exact row-major entry rows, with a neighbour table for the inner elements."""

    elements: np.ndarray  # (N, d*d) in breadth-first order: int64 for one modulus, else Python ints
    depth: np.ndarray  # (N,) intp word length of each element
    nbrs: np.ndarray  # (bounds[-2], labels) intp: nbrs[i, j] indexes elements[i] times label j
    bounds: list[int]  # sphere n is elements[bounds[n]:bounds[n + 1]]


def _ranks(key: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense ranks of a 1-d integer key, its argsort order, and run starts.

    ``new[i]`` is whether ``key[order[i]]`` starts a run of equal values.
    """
    order = key.argsort()
    ordered = key[order]
    new = np.empty(len(key), dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    rank = np.empty(len(key), dtype=np.int64)
    rank[order] = new.cumsum() - 1
    return rank, order, new


def _row_classes(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Classes of equal rows of an (M, w) integer array with entries in [0, 2**32).

    Returns (first, inverse): ``first[c]`` is the index of the first row of
    class c and ``inverse[i]`` the class of row i; the classes come in no
    particular order.  Entries are packed two to a uint64 key, exactly; each
    key column is replaced by its dense rank, and the ranks are combined
    column by column as ``ids * n + rank`` (below M**2) and ranked again.
    Every rank is one unstable ``argsort`` of integers, so ``first`` is the
    least row index of each run of equal sorted keys.
    """
    assert len(rows) < 2**31, "combined ranks must stay below 2**62"
    x = rows.T.astype(np.uint64)
    keys = [x[j] << 32 | x[j + 1] for j in range(0, len(x) - 1, 2)]
    if len(x) % 2:
        keys.append(x[-1])
    ids, order, new = _ranks(keys[0])
    for key in keys[1:]:
        rank, _, runs = _ranks(key)
        ids, order, new = _ranks(ids * runs.sum() + rank)
    return np.minimum.reduceat(order, new.nonzero()[0]), ids


def _moduli(d: int, bound: int) -> list[int]:
    """Coprime moduli, the fewest whose product exceeds 2 * bound.

    Each is the largest m below the one before that is coprime to all before
    and has d * (m - 1)**2 < 2**63.  Products of d x d residue matrices then
    sum in int64 without overflow, and two integer matrices with entries in
    [-bound, bound] are equal exactly when they agree modulo every modulus
    (Chinese remainder theorem).
    """
    moduli: list[int] = []
    m = isqrt((2**63 - 1) // d) + 1
    while prod(moduli) <= 2 * bound:
        while gcd(m, prod(moduli)) > 1:
            m -= 1
        moduli.append(m)
        m -= 1
    return moduli


def _decode(residues: np.ndarray, moduli: list[int]) -> np.ndarray:
    """Centred integers of (N, k, e) residue rows modulo k coprime moduli, as (N, e).

    For one modulus the residue is the value, centred in int64.  Past it each
    distinct row of an entry's k residues is decoded once, by mixed-radix
    (Garner) digits in int64 combined by Horner's rule in Python ints, and the
    values are gathered back to the entries.
    """
    n, k, e = residues.shape
    m = prod(moduli)
    if k == 1:
        value = residues[:, 0]
        return np.where(value > m // 2, value - m, value)
    rows = residues.transpose(0, 2, 1).reshape(-1, k)  # one row of k residues per entry
    first, inverse = _row_classes(rows)
    digits: list[np.ndarray] = []
    for i, p in enumerate(moduli):
        x = rows[first, i]
        for q, digit in zip(moduli, digits):
            x = (x - digit % p) * pow(q, -1, p) % p
        digits.append(x)
    value = digits[-1].astype(object)
    for q, digit in zip(moduli[-2::-1], digits[-2::-1]):
        value = value * q + digit
    return np.where(value > m // 2, value - m, value)[inverse].reshape(n, e)


def cayley_ball(system: GeneratorSystem, radius: int) -> CayleyBall:
    """Breadth-first search in label order; stops at an empty sphere.

    Elements are numbered in first-occurrence order, so each sphere is
    ordered by shortlex-least geodesic words.  Elements are held as residues
    modulo k coprime moduli, with k fixed before the search by the bound
    N**radius on every entry, N the largest max-row-sum norm of a generator;
    so the residues tell elements apart exactly.  Each sphere times every
    generator is one int64 ``np.matmul``, reduced modulo the moduli.  A
    product lies in the sphere before, the sphere itself or the next one (the
    generators are closed under inverses), so one :func:`_row_classes` over
    those rows matches the products to known elements; the new ones are
    numbered by first occurrence.
    """
    check_integer(radius, "radius")
    d, n_gens = system.dim, len(system.matrices)
    norm = max(sum(map(abs, row)) for m in system.matrices for row in m.rows)
    moduli = _moduli(d, norm**radius)
    k, width = len(moduli), len(moduli) * d * d
    mods = np.array(moduli, dtype=np.int64).reshape(k, 1, 1)
    gens = np.array(
        [[[[v % q for v in row] for row in m.rows] for q in moduli] for m in system.matrices],
        dtype=np.int64,
    )
    ident = np.tile(np.eye(d, dtype=np.int64).ravel(), k).reshape(1, width)
    spheres = [ident[:0], ident]  # residue rows sphere by sphere, after an empty sphere -1
    nbrs = [np.empty((0, n_gens), dtype=np.intp)]
    bounds = [0, 1]
    for n in range(1, radius + 1):
        products = (spheres[-1].reshape(-1, 1, k, d, d) @ gens) % mods  # (g, label) order
        rows = np.concatenate([spheres[-2], spheres[-1], products.reshape(-1, width)])
        first, inverse = _row_classes(rows)
        # classes in first-occurrence order: the known rows, elements bounds[n] - known
        # onwards, keep their index, and the new elements follow from bounds[n]
        known = len(spheres[-2]) + len(spheres[-1])
        order = np.argsort(first)
        index = np.empty_like(order)
        index[order] = np.arange(bounds[n] - known, bounds[n] - known + len(order))
        nbrs.append(index[inverse[known:]].reshape(-1, n_gens))
        spheres.append(rows[first[order[known:]]])
        bounds.append(bounds[n] + len(order) - known)
        if bounds[n + 1] == bounds[n]:
            break
    elements = _decode(np.concatenate(spheres).reshape(-1, k, d * d), moduli)
    depth = np.repeat(np.arange(len(bounds) - 1, dtype=np.intp), np.diff(bounds))
    return CayleyBall(elements, depth, np.concatenate(nbrs), bounds)


def _sphere_sizes(bounds: list[int], radius: int) -> tuple[int, ...]:
    """#S_n for n = 0..radius from a ball's bounds, 0 past a sphere that came out empty."""
    return tuple(bounds[n + 1] - bounds[n] if n + 1 < len(bounds) else 0 for n in range(radius + 1))


def cayley_sphere_counts(system: GeneratorSystem, radius: int) -> tuple[int, ...]:
    """Sphere sizes #S_n of the group for n = 0..radius, read off the Cayley ball's bounds."""
    return _sphere_sizes(cayley_ball(system, radius).bounds, radius)


def build_cone_type_combing(
    system: GeneratorSystem, radius: int, lookahead: int
) -> GraphStructure:
    """Cone-type automaton from the exact matrix representation.

    Elements within the radius are enumerated by breadth-first search; two
    elements share a state when their geodesic extensions (words u with
    |gu| = |g| + |u|) agree to the given lookahead depth.  Extensions are
    read off the ball's neighbour table, so no product is recomputed.

    The extensions up to depth L of g are the pairs (label s, extensions up
    to depth L - 1 of gs) over the labels s with |gs| = |g| + 1.  So the
    types are computed level by level as integer ids: at level L, each
    element of depth <= radius - L gets the id of its row of depth L - 1
    ids over the labels, -1 for a label that is not one step longer; equal
    rows are found by :func:`_row_classes`.  States are numbered in order
    of first occurrence in breadth-first order, and each state's edges are
    the geodesic steps of its first element.

    The result is self-checked: its path counts from the start must
    reproduce the Cayley sphere counts for all n <= radius - lookahead,
    else the lookahead was too shallow and the automaton is rejected.
    """
    check_integer(radius, "radius")
    check_integer(lookahead, "lookahead", 1)
    if radius <= lookahead:
        raise RadiusExhaustedError(
            f"radius {radius} leaves no room below lookahead {lookahead}"
        )
    depth, nbrs, bounds = cayley_ball(system, radius)[1:]  # cone types read no entries
    depth_cap = radius - lookahead
    if bounds[-1] == bounds[-2]:
        raise RadiusExhaustedError(
            f"sphere {len(bounds) - 2} is empty: "
            f"the group ball stops growing before radius {radius}"
        )

    geo = depth[nbrs] == depth[: len(nbrs), None] + 1  # geo[g, j]: label j is one step longer
    ids = np.zeros(len(depth), dtype=np.intp)  # every element's cone of depth 0 is empty
    for level in range(1, lookahead + 1):
        n = bounds[radius - level + 1]  # the elements of depth <= radius - level
        rows = np.where(geo[:n], ids[nbrs[:n]], -1)  # (label, cone one level shallower) or -1
        first, ids = _row_classes(rows + 1)
    # states numbered in order of first occurrence, as in breadth-first order
    order = np.argsort(first)
    rep = first[order]  # element index of each state's first occurrence
    state_of_elem = np.argsort(order)[ids]

    late = np.flatnonzero(depth[rep] > depth_cap - 1)
    if late.size:
        state = int(late[0])
        raise InconsistentAutomatonError(
            f"state {state} first appears at depth {int(depth[rep[state]])}; its transitions "
            f"are not visible within radius {radius} (raise the radius)"
        )
    src, col = np.nonzero(geo[rep])  # state by state, in label order
    dst = state_of_elem[nbrs[rep[src], col]]
    words = [(s,) for s in system.labels]
    edges = list(map(Edge, src.tolist(), dst.tolist(), map(words.__getitem__, col.tolist())))

    graph = GraphStructure(system, len(rep), 0, tuple(edges))
    got = sphere_counts(graph, depth_cap)
    want = _sphere_sizes(bounds, depth_cap)
    if got != want:
        raise InconsistentAutomatonError(
            f"inconsistent automaton: path counts {got} != sphere counts {want} "
            f"up to n = {depth_cap}; raise the lookahead"
        )
    return graph


# ---------------------------------------------------------------------------
# path counting and enumeration


def _backward_counts(
    graph: GraphStructure, n_max: int, target: int | None = None
) -> list[list[int]]:
    """c[m][v] = exact number of length-m paths from v (ending at target, if given)."""
    nv = graph.n_vertices
    heads = [[graph.edges[i].dst for i in out] for out in graph.out_edges]
    if target is None:
        cur = [1] * nv
    else:
        cur = [1 if v == target else 0 for v in range(nv)]
    table = [cur]
    for _ in range(n_max):
        cur = [sum(map(cur.__getitem__, h)) for h in heads]
        table.append(cur)
    return table


def count_paths(
    graph: GraphStructure, source: int | None, length: int, target: int | None = None
) -> int:
    """Exact number of length-n paths, by one backward pass over the out-edges.

    ``source=None`` counts paths from every vertex (the Omega^n of the whole
    structure); ``target=None`` places no condition on the endpoint.
    """
    check_integer(length, "length")
    for v, role in ((source, "source"), (target, "target")):
        if v is not None:
            graph.check_vertex(v, role)
    table = _backward_counts(graph, length, target)
    if source is None:
        return sum(table[length])
    return table[length][source]


def sphere_counts(graph: GraphStructure, n_max: int) -> tuple[int, ...]:
    """Path counts from the start vertex for n = 0..n_max (one backward pass)."""
    check_integer(n_max, "length")
    table = _backward_counts(graph, n_max)
    return tuple(table[n][graph.initial] for n in range(n_max + 1))


def enumerate_paths(
    graph: GraphStructure, source: int, length: int, target: int | None = None
) -> Iterator[tuple[int, ...]]:
    """All length-n paths from source, as tuples of edge indices, in DFS edge order.

    Paths are generated lazily, one depth-first descent at a time, so memory
    stays O(n) however many paths there are.  The arguments are checked at
    the call, before the first path is asked for.
    """
    check_integer(length, "length")
    graph.check_vertex(source, "source")
    if target is not None:
        graph.check_vertex(target, "target")
    return _paths(graph, source, length, target)


def _paths(
    graph: GraphStructure, source: int, length: int, target: int | None
) -> Iterator[tuple[int, ...]]:
    """The depth-first descent of ``enumerate_paths``, on checked arguments."""
    if length == 0:
        if target is None or source == target:
            yield ()
        return
    out = graph.out_edges
    edges = graph.edges
    path: list[int] = []
    # stack of iterators over edge indices, one per depth
    iters = [iter(out[source])]
    while iters:
        it = iters[-1]
        advanced = False
        for ei in it:
            e = edges[ei]
            path.append(ei)
            if len(path) == length:
                if target is None or e.dst == target:
                    yield tuple(path)
                path.pop()
            else:
                iters.append(iter(out[e.dst]))
                advanced = True
                break
        if not advanced:
            iters.pop()
            if path:
                path.pop()


# ---------------------------------------------------------------------------
# restriction, p-step, pruning


def restrict(
    graph: GraphStructure, keep: Sequence[int], new_initial: int | None = None
) -> GraphStructure:
    """Induced substructure on a vertex subset, vertices renumbered in sorted order.

    ``new_initial`` defaults to the old start vertex, which then must survive.
    """
    for v in keep:  # before the set, which would merge True into vertex 1
        graph.check_vertex(v, "kept")
    kept = sorted(set(keep))
    if not kept:
        raise ValueError("restriction to an empty vertex set")
    if new_initial is None:
        new_initial = graph.initial
    graph.check_vertex(new_initial, "initial")
    if new_initial not in kept:
        raise ValueError(f"initial vertex {new_initial} is not in the kept set")
    index = {v: i for i, v in enumerate(kept)}
    edges = tuple(
        Edge(index[e.src], index[e.dst], e.word)
        for e in graph.edges
        if e.src in index and e.dst in index
    )
    return GraphStructure(graph.system, len(kept), index[new_initial], edges)


def p_step(graph: GraphStructure, p: int) -> GraphStructure:
    """Structure whose edges are the length-p paths, labels concatenated in order."""
    check_integer(p, "p", 1)
    edges: list[Edge] = []
    for v in range(graph.n_vertices):
        for path in enumerate_paths(graph, v, p):
            edges.append(Edge(v, graph.edges[path[-1]].dst, graph.path_word(path)))
    return GraphStructure(graph.system, graph.n_vertices, graph.initial, tuple(edges))


def prune_small_growth(graph: GraphStructure) -> GraphStructure:
    """Restriction to the large-growth vertices (start vertex must survive).

    A vertex has large growth when it reaches a maximal component (see
    ``spectral.classify``).  Raises NotAlmostSemisimpleError when a path joins
    two distinct maximal components.
    """
    cls = spectral.classify(spectral.transition_matrix(graph))
    if not cls.almost_semisimple and cls.lam > 0:
        raise NotAlmostSemisimpleError(
            "not almost semisimple: a path joins two maximal components"
        )
    return restrict(graph, [v for v, big in enumerate(cls.large_growth) if big])


# ---------------------------------------------------------------------------
# geodesic verification against the BFS oracle


@dataclass(frozen=True)
class GeodesicReport:
    """Outcome of checking a structure against the Cayley-graph oracle."""

    radius: int
    injective: bool
    length_preserving: bool
    automaton_counts: tuple[int, ...]
    bfs_counts: tuple[int, ...]
    witness: str | None

    @property
    def counts_match(self) -> bool:
        return self.automaton_counts == self.bfs_counts

    @property
    def passed(self) -> bool:
        """True when evaluation is a length-preserving bijection onto every sphere."""
        return self.injective and self.length_preserving and self.counts_match


def verify_geodesic(graph: GraphStructure, radius: int) -> GeodesicReport:
    """Check injectivity and length preservation of path evaluation up to a radius.

    Every path from the start of length n <= radius is evaluated exactly; the
    element must have word length n (oracle: BFS on the Cayley graph), and no
    two paths may evaluate to the same element.  Together with equality of
    sphere counts this certifies the combing property up to the radius.

    All paths of a level are extended at once, as arrays in path-lexicographic
    order (the order of :func:`enumerate_paths`): through a CSR view of the
    out-edges, then one gather from the neighbour table of the Cayley ball
    per letter position of the edge words, so no product is recomputed.  A
    path whose word runs past the table's rows spells more letters than it
    has edges.  The checks then run once over the paths of all levels, in
    (length, path) order: letters, then depth, then an earlier path on the
    same element, read off one owner array over the ball's elements.  The
    witness is the first failure in that order; its words are read back
    through the parent pointers.
    """
    ball = cayley_ball(graph.system, radius)
    depth = ball.depth
    # the neighbour table padded with rows of -1: for the elements past it, the last for index -1
    table = np.full((len(depth) + 1, len(graph.system.labels)), -1, dtype=np.intp)
    table[: len(ball.nbrs)] = ball.nbrs
    col = {s: j for j, s in enumerate(graph.system.labels)}
    # vertex v's out-edges are out[start[v]:start[v + 1]]
    out = np.array([i for o in graph.out_edges for i in o], dtype=np.intp)
    start = np.cumsum([0] + [len(o) for o in graph.out_edges])
    head = np.array([e.dst for e in graph.edges], dtype=np.intp)
    size = np.array([len(e.word) for e in graph.edges], dtype=np.intp)
    letters = np.full((len(size), size.max(initial=0)), -1, dtype=np.intp)  # -1 past a word
    for i, e in enumerate(graph.edges):
        letters[i, : len(e.word)] = [col[s] for s in e.word]

    # per level and path: element index (-1 past the table), letters spelled,
    # parent path and last edge; the levels' current vertices
    elems, spells = [np.zeros(1, dtype=np.intp)], [np.zeros(1, dtype=np.intp)]
    parents, via = [None], [None]
    vert = np.array([graph.initial], dtype=np.intp)
    for n in range(1, radius + 1):
        deg = start[vert + 1] - start[vert]
        parent = np.repeat(np.arange(len(vert)), deg)
        edge = out[np.arange(len(parent)) + np.repeat(start[vert] - np.cumsum(deg) + deg, deg)]
        elem = elems[-1][parent]
        for label in letters[edge].T:
            elem = np.where(label >= 0, table[elem, label], elem)
        elems.append(elem)
        spells.append(spells[-1][parent] + size[edge])
        parents.append(parent)
        via.append(edge)
        vert = head[edge]
    auto_counts = [len(elem) for elem in elems]

    # all paths in (length, path) order, the empty path first
    level = np.repeat(np.arange(radius + 1), auto_counts)
    base = np.cumsum(auto_counts) - auto_counts  # index of each level's first path
    elem, spelled = np.concatenate(elems), np.concatenate(spells)
    long = spelled != level  # composite labels: a "length-n" path may spell a longer word
    idx = np.flatnonzero(~long)[1:]  # paths spelling one letter per edge, but the empty one
    g = elem[idx]
    owner = np.full(len(depth), len(elem), dtype=np.intp)  # each element's first path
    np.minimum.at(owner, g, idx)
    owner = owner[g]  # the first of these paths on the same element
    off, repeat = depth[g] != level[idx], owner != idx
    bad = long.copy()
    bad[idx] = off | repeat
    injective = not repeat.any()
    length_preserving = not (long.any() or off.any())

    def word(p: int) -> str:
        """The letters of path p."""
        n = int(level[p])
        p -= base[n]
        path = []
        for k in range(n, 0, -1):
            path.append(int(via[k][p]))
            p = parents[k][p]
        return "".join(graph.path_word(path[::-1]))

    witness: str | None = None
    if bad.any():
        p = int(bad.argmax())
        n, h = level[p], elem[p]
        if long[p]:
            witness = f"path {word(p)} has {n} edges but spells {spelled[p]} letters"
        elif depth[h] != n:
            witness = f"word {word(p)} has word length {depth[h]}, not {n}"
        else:
            seen = int(owner[np.searchsorted(idx, p)])
            witness = f"words {word(seen)} and {word(p)} evaluate equally"

    return GeodesicReport(
        radius=radius,
        injective=injective,
        length_preserving=length_preserving,
        automaton_counts=tuple(auto_counts),
        bfs_counts=_sphere_sizes(ball.bounds, radius),
        witness=witness,
    )


# ---------------------------------------------------------------------------
# automaton file format


def _graph_to_obj(graph: GraphStructure) -> dict:
    system = graph.system
    for i, e in enumerate(graph.edges):
        if len(e.word) != 1:
            raise AutomatonFormatError(
                f"edge {i} carries a composite word {e.word}; only unit labels serialize"
            )
    return {
        "dim": system.dim,
        "generators": [
            {
                "label": s,
                "inverse": system.inverse_of(s),
                "matrix": [list(row) for row in system.matrix_of(s).rows],
            }
            for s in system.labels
        ],
        "vertices": graph.n_vertices,
        "initial": graph.initial,
        "edges": [[e.src, e.dst, e.word[0]] for e in graph.edges],
    }


def save_automaton(graph: GraphStructure, path: str | Path) -> None:
    """Write the canonical JSON form; loading it back reproduces the structure exactly."""
    data = json.dumps(_graph_to_obj(graph), indent=2) + "\n"
    Path(path).write_text(data)


def _int_list(value) -> bool:
    """Whether a JSON value is a list of integers (JSON true and false load as bools)."""
    return isinstance(value, list) and all(type(v) is int for v in value)


def load_automaton(path: str | Path) -> GraphStructure:
    """Read an automaton file, validating the format and all structure invariants."""
    try:
        obj = json.loads(Path(path).read_text())
    except json.JSONDecodeError as err:
        raise AutomatonFormatError(f"not valid JSON: {err}") from err
    if not isinstance(obj, dict):
        raise AutomatonFormatError(f"an automaton file holds a JSON object, got {obj!r}")
    for key, kind in (
        ("dim", int), ("generators", list), ("vertices", int), ("initial", int), ("edges", list)
    ):
        if key not in obj:
            raise AutomatonFormatError(f"missing required key {key!r}")
        if type(obj[key]) is not kind:
            raise AutomatonFormatError(f"{key!r} must be a JSON {kind.__name__}, got {obj[key]!r}")
    dim = obj["dim"]
    labels: list[str] = []
    rows: list[list[list[int]]] = []
    inverses: list[str] = []
    for i, g in enumerate(obj["generators"]):
        if not isinstance(g, dict):
            raise AutomatonFormatError(f"generator {i} must be an object, got {g!r}")
        for key in ("label", "inverse", "matrix"):
            if key not in g:
                raise AutomatonFormatError(f"generator {i} is missing {key!r}")
        if not (
            isinstance(g["label"], str)
            and isinstance(g["inverse"], str)
            and isinstance(g["matrix"], list)
            and all(_int_list(row) for row in g["matrix"])
        ):
            raise AutomatonFormatError(
                f"generator {i} needs string labels and a list of integer rows, got {g!r}"
            )
        if len(g["matrix"]) != dim:
            raise AutomatonFormatError(
                f"generator {g['label']!r} has dimension {len(g['matrix'])}, file says {dim}"
            )
        labels.append(g["label"])
        rows.append(g["matrix"])
        inverses.append(g["inverse"])
    edges = []
    for i, e in enumerate(obj["edges"]):
        if not (isinstance(e, list) and len(e) == 3 and _int_list(e[:2]) and isinstance(e[2], str)):
            raise AutomatonFormatError(
                f"edge {i} must be [src, dst, label] with integer ends and a string label,"
                f" got {e!r}"
            )
        edges.append(Edge(e[0], e[1], (e[2],)))
    # the matrices, the generator system and the graph check their own invariants
    try:
        matrices = tuple(GroupMatrix(m) for m in rows)
        system = GeneratorSystem(tuple(labels), matrices, tuple(inverses))
        return GraphStructure(system, obj["vertices"], obj["initial"], tuple(edges))
    except (SpherecombError, ValueError) as err:
        raise AutomatonFormatError(f"invalid automaton file: {err}") from err
