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
each sphere by all generators in one exact object-dtype ``np.matmul``, so
each Cayley-graph product is made once; the cone types and the geodesic
check read its neighbour table.  Cone types are integer ids, refined one
lookahead level at a time by ``np.unique`` over the table's rows, with no
per-element Python loop.  The shipped presets are built by these two
constructions, which give equal graphs for the Sanov generators.

Path counts are exact Python integers, summed level by level over each
vertex's out-edges, one term per edge, so parallel edges count with their
multiplicity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import filterfalse
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
    """Cayley ball as flat row-major tuples, with a neighbour table for the inner elements."""

    elements: list[tuple[int, ...]]  # breadth-first order, d*d Python ints each
    depth: list[int]  # word length of each element
    nbrs: list[tuple[int, ...]]  # nbrs[i][j]: index of elements[i] times label j, below the radius
    bounds: list[int]  # sphere n is elements[bounds[n]:bounds[n + 1]]


def cayley_ball(system: GeneratorSystem, radius: int) -> CayleyBall:
    """Breadth-first search in label order; stops at an empty sphere.

    Elements are numbered in first-occurrence order, so each sphere is
    ordered by shortlex-least geodesic words.  Each sphere times every
    generator is one exact object-dtype ``np.matmul``; products are matched
    to known elements, and new ones numbered, by C-level passes over keys.
    """
    check_integer(radius, "radius")
    d, n_gens = system.dim, len(system.matrices)
    gens = np.array([m.rows for m in system.matrices], dtype=object)
    ident = sum(GroupMatrix.identity(d).rows, ())
    ball = CayleyBall([ident], [0], [], [0, 1])
    elements, depth, nbrs, bounds = ball
    index = {ident: 0}
    for n in range(1, radius + 1):
        sphere = np.array(elements[bounds[n - 1] : bounds[n]], dtype=object).reshape(-1, 1, d, d)
        keys = list(map(tuple, (sphere @ gens).reshape(-1, d * d).tolist()))  # (g, label) order
        new = dict.fromkeys(filterfalse(index.__contains__, keys))
        index.update(zip(new, range(len(elements), len(elements) + len(new))))
        elements += new
        depth += [n] * len(new)
        nbrs += zip(*[map(index.__getitem__, keys)] * n_gens)
        bounds.append(len(elements))
        if bounds[n + 1] == bounds[n]:
            break
    return ball


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
    ids over the labels, -1 for a label that is not one step longer.
    States are numbered in order of first occurrence in breadth-first
    order, and each state's edges are the geodesic steps of its first
    element.

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
    depth, nbrs, bounds = cayley_ball(system, radius)[1:]  # drop the elements before the search
    depth_cap = radius - lookahead
    if bounds[-1] == bounds[-2]:
        raise RadiusExhaustedError(
            f"sphere {len(bounds) - 2} is empty: "
            f"the group ball stops growing before radius {radius}"
        )

    nbrs = np.array(nbrs, dtype=np.intp)
    depth = np.array(depth, dtype=np.intp)
    geo = depth[nbrs] == depth[: len(nbrs), None] + 1  # geo[g, j]: label j is one step longer
    ids = np.zeros(len(depth), dtype=np.intp)  # every element's cone of depth 0 is empty
    for level in range(1, lookahead + 1):
        n = bounds[radius - level + 1]  # the elements of depth <= radius - level
        rows = np.where(geo[:n], ids[nbrs[:n]], -1)  # (label, cone one level shallower) or -1
        keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
        _, first, ids = np.unique(keys, return_index=True, return_inverse=True)
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

    Paths are extended one level at a time, in path-lexicographic order (the
    order of :func:`enumerate_paths`), through the neighbour table of the
    Cayley ball, so no product is recomputed; the witness is the first
    failure in that order.  A path whose word runs past the table's rows
    spells more letters than it has edges.
    """
    depth, nbrs, bounds = cayley_ball(graph.system, radius)[1:]
    col = {s: j for j, s in enumerate(graph.system.labels)}
    seen: dict[int, tuple[str, ...]] = {}
    injective = True
    length_preserving = True
    witness: str | None = None
    # one (vertex, element index or None, word) per path, in path-lexicographic order
    level = [(graph.initial, 0, ())]
    auto_counts = [1]

    for n in range(1, radius + 1):
        grown = []
        for v, g, word in level:
            for ei in graph.out_edges[v]:
                e = graph.edges[ei]
                h = g
                for s in e.word:
                    h = nbrs[h][col[s]] if h is not None and h < len(nbrs) else None
                grown.append((e.dst, h, word + e.word))
        level = grown
        auto_counts.append(len(level))
        for _, g, word in level:
            if len(word) != n:
                # composite labels: a "length-n" path may spell a longer word
                length_preserving = False
                if witness is None:
                    witness = f"path {''.join(word)} has {n} edges but spells {len(word)} letters"
                continue
            if depth[g] != n:
                length_preserving = False
                if witness is None:
                    witness = f"word {''.join(word)} has word length {depth[g]}, not {n}"
            if g in seen:
                injective = False
                if witness is None:
                    witness = f"words {''.join(seen[g])} and {''.join(word)} evaluate equally"
            else:
                seen[g] = word

    return GeodesicReport(
        radius=radius,
        injective=injective,
        length_preserving=length_preserving,
        automaton_counts=tuple(auto_counts),
        bfs_counts=_sphere_sizes(bounds, radius),
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
