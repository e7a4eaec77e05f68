"""Perron-Frobenius data for transition matrices of path graphs.

The central object is the nonnegative integer transition matrix A of a graph
structure (A_ij = number of edges i -> j).  This module classifies A
(primitive / semisimple / almost semisimple) from one depth-first search,
which gives the strongly connected components and, from the depths in its
search tree, their periods.  It computes the leading eigenvalue with
canonical left and right eigenvectors, the projector-like limit
A_inf = lim A^(p*n) / lambda^(p*n), and the growth constants of path counts.

Vertices split into growth classes: a vertex has large growth when it reaches
a component whose spectral radius equals the leading eigenvalue, and small
growth otherwise.  The canonical right eigenvector p is positive exactly on
large-growth vertices; the canonical left eigenvector q is supported on
vertices reachable from maximal components.  Both are obtained from A_inf by
averaging over residue classes mod p*, which makes them genuine eigenvectors
of A itself and pins the normalization sum_i p_i q_i = 1; their residuals
|Ap - lambda p| and |qA - lambda q| are checked before they are returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    NilpotentMatrixError,
    NotAlmostSemisimpleError,
    SpherecombError,
    check_integer,
)

if TYPE_CHECKING:
    from .combing import GraphStructure

#: relative tolerance used to decide that a component's spectral radius
#: attains the leading eigenvalue
MAXIMAL_RADIUS_RTOL = 1e-9

_A_INF_TOL = 1e-12
_A_INF_MAX_ITER = 10**6
#: bound on max|Ap - lam p| / (lam max|p|) and on max|qA - lam q| / (lam max|q|)
_RESIDUAL_RTOL = 1e-9


def transition_matrix(graph: "GraphStructure") -> np.ndarray:
    """Edge-multiplicity matrix of a graph structure: A[i, j] = #edges i -> j."""
    n = graph.n_vertices
    a = np.zeros((n, n), dtype=np.int64)
    for e in graph.edges:
        a[e.src, e.dst] += 1
    return a


def _check_matrix(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"transition matrix must be square, got shape {a.shape}")
    if not np.issubdtype(a.dtype, np.integer):
        if not np.all(a == np.floor(a)):
            raise ValueError("transition matrix entries must be integers")
        a = a.astype(np.int64)
    if np.any(a < 0):
        raise ValueError("transition matrix entries must be nonnegative")
    return a


def _tarjan_sccs(adj: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Strongly connected components, and each vertex's depth in its search tree.

    Nonrecursive Tarjan, one iterator per ``adj[v]``: roots in vertex order,
    neighbours in ``adj`` order.  Components are emitted in reverse topological
    order of the condensation: every component appears before any component
    that can reach it.  Each component is one subtree of the search forest.
    """
    n = len(adj)
    preorder = [-1] * n
    lowlink = [0] * n
    depth = [0] * n
    stack_pos = [-1] * n  # position on the component stack, -1 when off it
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in range(n):
        if preorder[root] >= 0:
            continue
        work = [(root, None)]
        while work:
            v, it = work[-1]
            if it is None:  # first visit
                preorder[v] = lowlink[v] = counter
                counter += 1
                stack_pos[v] = len(stack)
                stack.append(v)
                it = iter(adj[v])
                work[-1] = (v, it)
            for w in it:
                if preorder[w] < 0:
                    depth[w] = depth[v] + 1
                    work.append((w, None))
                    break
                if stack_pos[w] >= 0:
                    lowlink[v] = min(lowlink[v], preorder[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[v])
                if lowlink[v] == preorder[v]:
                    comp = stack[stack_pos[v] :]
                    del stack[stack_pos[v] :]
                    for w in comp:
                        stack_pos[w] = -1
                    sccs.append(sorted(comp))
    return sccs, depth


def _component_radius(a: np.ndarray, comp: list[int], period: int) -> float:
    if period == 0:  # acyclic: a single vertex without a loop
        return 0.0
    sub = a[np.ix_(comp, comp)].astype(float)
    return float(np.max(np.abs(np.linalg.eigvals(sub))))


@dataclass(frozen=True)
class Classification:
    """Structural description of a nonnegative integer matrix."""

    components: tuple[tuple[int, ...], ...]  # reverse topological order
    comp_of: tuple[int, ...]
    radii: tuple[float, ...]
    periods: tuple[int, ...]  # 0 marks an acyclic (trivial) component
    maximal: tuple[bool, ...]
    lam: float
    large_growth: tuple[bool, ...]  # vertex reaches a maximal component
    coreachable: tuple[bool, ...]  # vertex is reachable from a maximal component
    primitive: bool
    almost_semisimple: bool
    semisimple: bool
    p_star: int


def classify(a: np.ndarray) -> Classification:
    """Classify a square nonnegative integer matrix.

    primitive  ==> semisimple ==> almost semisimple.  Components and periods
    come from one depth-first search: a component is one subtree of the
    search forest, so its period is the gcd of depth[u] + 1 - depth[v] over
    its internal edges u -> v (0 if it has none).  The leading eigenvalue
    is the largest component spectral radius, and almost semisimplicity is
    decided structurally: no directed path joins two distinct maximal
    components.  :func:`perron_data` checks the eigendata this promises.
    """
    a = _check_matrix(a)
    n = a.shape[0]
    adj = [[int(v) for v in np.nonzero(a[u])[0]] for u in range(n)]
    sccs, depth = _tarjan_sccs(adj)
    comp_of = [0] * n
    for ci, comp in enumerate(sccs):
        for v in comp:
            comp_of[v] = ci

    k = len(sccs)
    periods = [0] * k
    comp_succ: list[set[int]] = [set() for _ in range(k)]
    for u in range(n):
        cu = comp_of[u]
        for v in adj[u]:
            if comp_of[v] == cu:
                periods[cu] = gcd(periods[cu], depth[u] + 1 - depth[v])
            else:
                comp_succ[cu].add(comp_of[v])
    radii = [_component_radius(a, comp, h) for comp, h in zip(sccs, periods)]
    lam = max(radii, default=0.0)
    maximal = [r >= lam * (1.0 - MAXIMAL_RADIUS_RTOL) and lam > 0 for r in radii]

    # sccs is in reverse topological order: successors of a component precede it
    reaches_max = [False] * k
    for ci in range(k):
        reaches_max[ci] = maximal[ci] or any(reaches_max[s] for s in comp_succ[ci])
    from_max = list(maximal)
    for ci in reversed(range(k)):  # topological order
        if from_max[ci]:
            for s in comp_succ[ci]:
                from_max[s] = True

    # a path between two distinct maximal components makes lambda defective; the
    # condensation is acyclic, so a successor of a maximal component that reaches
    # a maximal component reaches a different one
    joined = any(maximal[ci] and any(reaches_max[s] for s in comp_succ[ci]) for ci in range(k))
    almost = (not joined) and lam > 0

    max_periods = [periods[ci] for ci in range(k) if maximal[ci]]
    p_star = lcm(*max_periods)  # 1 when there is no maximal component
    semisimple = almost and all(h == 1 for h in max_periods)
    primitive = len(sccs) == 1 and lam > 0 and periods[0] == 1

    return Classification(
        components=tuple(tuple(c) for c in sccs),
        comp_of=tuple(comp_of),
        radii=tuple(radii),
        periods=tuple(periods),
        maximal=tuple(maximal),
        lam=lam,
        large_growth=tuple(reaches_max[comp_of[v]] for v in range(n)),
        coreachable=tuple(from_max[comp_of[v]] for v in range(n)),
        primitive=primitive,
        almost_semisimple=almost,
        semisimple=semisimple,
        p_star=p_star,
    )


def a_infinity(a: np.ndarray, p_star: int, lam: float) -> np.ndarray:
    """Limit of A^(p* n) / lambda^(p* n), by iterated multiplication.

    Iterates B <- B @ B0 with B0 = (A / lambda)^p* until successive iterates
    differ by less than ``_A_INF_TOL`` in max norm, for at most
    ``_A_INF_MAX_ITER`` steps.  The iterates live in two buffers: each step
    writes B @ B0 into one and |B - B @ B0| over the old B in the other.
    """
    a = _check_matrix(a)
    check_integer(p_star, "p_star", 1)
    if lam <= 0:
        raise NilpotentMatrixError("leading eigenvalue is zero; A^n/lambda^n is undefined")
    b0 = np.linalg.matrix_power(a.astype(float) / lam, p_star)
    b, step = b0.copy(), np.empty_like(b0)
    for _ in range(_A_INF_MAX_ITER):
        np.matmul(b, b0, out=step)
        np.subtract(b, step, out=b)
        np.abs(b, out=b)
        b, step = step, b
        if float(step.max()) < _A_INF_TOL:
            break
    else:
        raise SpherecombError(f"A_inf iteration did not converge within {_A_INF_MAX_ITER} steps")
    return np.where(b < 0, 0.0, b)


@dataclass(frozen=True)
class SpectralData:
    """Leading eigenvalue with canonical eigenvectors and the A_inf limit.

    Satisfies, up to small residuals: A p = lam p, q A = lam q,
    sum_i p_i q_i = 1, pi = p * q elementwise.
    """

    matrix: np.ndarray
    lam: float
    p: np.ndarray
    q: np.ndarray
    pi: np.ndarray
    a_inf: np.ndarray
    classification: Classification

    @property
    def p_star(self) -> int:
        return self.classification.p_star

    @property
    def primitive(self) -> bool:
        return self.classification.primitive

    @property
    def semisimple(self) -> bool:
        return self.classification.semisimple

    @property
    def almost_semisimple(self) -> bool:
        return self.classification.almost_semisimple

    @property
    def c(self) -> float | None:
        """Growth constant of total path counts; defined when p* = 1."""
        if self.p_star != 1:
            return None
        return float(np.sum(self.a_inf))


def _eigvectors_from_a_inf(
    a_f: np.ndarray, b: np.ndarray, lam: float, p_star: int, cls: Classification
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n = a_f.shape[0]
    ones = np.ones(n)
    p = np.zeros(n)
    q = np.zeros(n)
    right = b @ ones
    left = ones @ b
    power = np.eye(n)
    for r in range(p_star):
        p += (power @ right) / lam**r
        q += (left @ power) / lam**r
        if r + 1 < p_star:
            power = power @ a_f
    p /= p_star
    q /= p_star
    large = np.array(cls.large_growth)
    coreach = np.array(cls.coreachable)
    p[~large] = 0.0  # exact zeros: the limit vanishes off large-growth vertices
    q[~coreach] = 0.0
    s = float(p @ q)
    if s <= 0:
        raise SpherecombError("eigenvector normalization failed: sum p_i q_i <= 0")
    q = q / s
    pi = p * q
    for v in (p, q, pi):
        v.setflags(write=False)
    return p, q, pi


def perron_data(a: np.ndarray) -> SpectralData:
    """Leading eigenvalue, canonical eigenvectors p and q, stationary weights pi.

    Raises NilpotentMatrixError when A has no cycle and NotAlmostSemisimpleError
    when the leading eigenvalue is defective (two maximal components joined by
    a path); eigendata would not exist in either case.  The returned vectors
    are checked: SpherecombError is raised when max|Ap - lam p| exceeds
    ``_RESIDUAL_RTOL * lam * max|p|``, or max|qA - lam q| exceeds
    ``_RESIDUAL_RTOL * lam * max|q|``.
    """
    a = _check_matrix(a)
    cls = classify(a)
    if cls.lam == 0:
        raise NilpotentMatrixError("matrix has no cycle: all path counts are eventually zero")
    if not cls.almost_semisimple:
        raise NotAlmostSemisimpleError(
            "a directed path joins two maximal components; A^n/lambda^n diverges"
        )
    lam = cls.lam
    a_f = a.astype(float)
    b = a_infinity(a, cls.p_star, lam)
    p, q, pi = _eigvectors_from_a_inf(a_f, b, lam, cls.p_star, cls)
    # one Rayleigh polish: with both eigenvectors the quotient error is second order
    lam_polished = float(q @ (a_f @ p))
    if abs(lam_polished - lam) > 1e-13 * max(1.0, lam):
        lam = lam_polished
        b = a_infinity(a, cls.p_star, lam)
        p, q, pi = _eigvectors_from_a_inf(a_f, b, lam, cls.p_star, cls)
        lam = float(q @ (a_f @ p))
    for name, residual, v in (
        ("Ap - lam p", a_f @ p - lam * p, p),
        ("qA - lam q", q @ a_f - lam * q, q),
    ):
        worst = float(np.max(np.abs(residual)))
        bound = _RESIDUAL_RTOL * lam * float(np.max(np.abs(v)))
        if worst > bound:
            raise SpherecombError(f"eigendata check failed: max|{name}| {worst:.3g} > {bound:.3g}")
    b.setflags(write=False)
    a_ro = a.copy()
    a_ro.setflags(write=False)
    return SpectralData(matrix=a_ro, lam=lam, p=p, q=q, pi=pi, a_inf=b, classification=cls)


def growth_constants(data: SpectralData) -> tuple[float, ...]:
    """Per-residue limits of (#paths of length p*n + r, any endpoints) / lambda^(p*n + r).

    For p* = 1 the single entry is the growth constant c; it equals the sum of
    all entries of A_inf.
    """
    a_f = data.matrix.astype(float)
    n = a_f.shape[0]
    ones = np.ones(n)
    right = data.a_inf @ ones
    out = []
    power = np.eye(n)
    for r in range(data.p_star):
        out.append(float(ones @ (power @ right)) / data.lam**r)
        if r + 1 < data.p_star:
            power = power @ a_f
    return tuple(out)
