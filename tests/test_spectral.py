"""Spectral radius, classification, limit matrix, eigendata."""

import dataclasses
import hashlib
from functools import reduce
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spherecomb import (
    SpherecombError,
    a_infinity,
    classify,
    growth_constants,
    perron_data,
    preset,
    transition_matrix,
)
from spherecomb import spectral
from spherecomb.errors import NilpotentMatrixError, NotAlmostSemisimpleError
from conftest import random_scc_matrix

# almost semisimple (lambda = 2.11491 on {1, 3, 4}); the radius-2 vertex 0
# feeds that component, so A^n / lambda^n carries a slowly decaying transient
# n (2 / lambda)^n
FEEDS_MAXIMAL = np.array(
    [[2, 1, 0, 0, 0], [0, 0, 0, 1, 0], [0, 0, 1, 0, 0], [0, 2, 2, 0, 1], [0, 1, 2, 2, 0]]
)


def _assert_eigendata_checked(a, data):
    """lambda against an independent oracle, a dense eigensolve of the full
    matrix; relative residuals of p and q at most 1e-10."""
    lam, p, q = data.lam, data.p, data.q
    lam_np = max(abs(v) for v in np.linalg.eigvals(a.astype(float)))
    assert abs(lam - lam_np) <= 1e-8 * max(1.0, lam_np)
    assert np.max(np.abs(a @ p - lam * p)) <= 1e-10 * lam * np.max(np.abs(p))
    assert np.max(np.abs(q @ a - lam * q)) <= 1e-10 * lam * np.max(np.abs(q))


def test_transition_matrix_free2(free2_graph):
    a = transition_matrix(free2_graph)
    assert a[free2_graph.initial].sum() == 4
    assert a.sum() == 16
    # every letter vertex has out-degree 3 and in-degree 3 or 4
    row_sums = a.sum(axis=1)
    assert sorted(row_sums) == [3, 3, 3, 3, 4]


def test_perron_data_free2_pinned_values(free2_data):
    data = free2_data
    assert abs(data.lam - 3.0) <= 1e-10
    # eigenvector normalized with value 1 on the cycle vertices
    expect_p = np.array([4.0 / 3.0, 1.0, 1.0, 1.0, 1.0])
    expect_q = np.array([0.0, 0.25, 0.25, 0.25, 0.25])
    assert np.max(np.abs(data.p - expect_p)) <= 1e-10
    assert np.max(np.abs(data.q - expect_q)) <= 1e-10
    assert np.max(np.abs(data.pi - expect_q)) <= 1e-10
    assert abs(data.c - 16.0 / 3.0) <= 1e-9
    assert data.p_star == 1
    assert data.semisimple and not data.primitive


def test_eigen_residuals_on_presets():
    for name in ("free2_sanov", "free2_symbolic", "z_parabolic", "dinf_involutions"):
        a = transition_matrix(preset(name).graph)
        data = perron_data(a)
        lam, p, q = data.lam, data.p, data.q
        assert np.max(np.abs(a @ p - lam * p)) <= 1e-10 * lam * np.max(np.abs(p)), name
        assert np.max(np.abs(q @ a - lam * q)) <= 1e-10 * lam * np.max(np.abs(q)), name
        assert abs(float(p @ q) - 1.0) <= 1e-12, name
        assert abs(float(np.sum(data.pi)) - 1.0) <= 1e-12, name


def test_eigen_residuals_on_random_strongly_connected(seed=20260816):
    rng = np.random.default_rng(seed)
    for _ in range(30):
        a = random_scc_matrix(rng, max_n=8)
        data = perron_data(a)
        _assert_eigendata_checked(a, data)
        assert abs(float(data.p @ data.q) - 1.0) <= 1e-12


def test_classification_truth_table(free2_graph):
    c1 = classify(np.array([[1, 1], [0, 1]]))
    assert not c1.almost_semisimple

    c2 = classify(np.array([[0, 1], [1, 0]]))
    assert c2.almost_semisimple and not c2.semisimple
    assert c2.p_star == 2

    c3 = classify(np.array([[1, 1], [1, 1]]))
    assert c3.primitive

    c4 = classify(transition_matrix(free2_graph))
    assert c4.semisimple and not c4.primitive


def test_primitive_implies_semisimple_implies_almost():
    rng = np.random.default_rng(5)
    for _ in range(40):
        a = random_scc_matrix(rng, max_n=6)
        c = classify(a)
        if c.primitive:
            assert c.semisimple
        if c.semisimple:
            assert c.almost_semisimple


def test_primitivity_matches_wielandt_power_check():
    # brute force: A is primitive iff some power up to (n-1)^2 + 1 is positive
    rng = np.random.default_rng(11)
    for _ in range(40):
        a = random_scc_matrix(rng, max_n=5)
        n = a.shape[0]
        m = np.eye(n, dtype=object)
        positive = False
        for _ in range((n - 1) ** 2 + 1):
            m = m @ a.astype(object)
            if (np.array(m, dtype=object) > 0).all():
                positive = True
                break
        assert classify(a).primitive == positive


def test_period_of_cycles():
    for k in (2, 3, 5):
        a = np.zeros((k, k), dtype=np.int64)
        for i in range(k):
            a[i, (i + 1) % k] = 1
        c = classify(a)
        assert c.p_star == k
        assert c.almost_semisimple
        assert c.semisimple == (k == 1)


def test_p_star_is_lcm_of_maximal_periods():
    # disjoint union of a 2-cycle and a 3-cycle, both at spectral radius 1
    a = np.zeros((5, 5), dtype=np.int64)
    a[0, 1] = a[1, 0] = 1
    a[2, 3] = a[3, 4] = a[4, 2] = 1
    c = classify(a)
    assert c.almost_semisimple
    assert c.p_star == 6


def test_joined_maximal_components_not_almost_semisimple():
    # two spectral-radius-1 loops connected by an edge
    a = np.array([[1, 1], [0, 1]])
    assert not classify(a).almost_semisimple
    # same thing with 2-cycles
    b = np.zeros((4, 4), dtype=np.int64)
    b[0, 1] = b[1, 0] = 1
    b[2, 3] = b[3, 2] = 1
    b[1, 2] = 1
    assert not classify(b).almost_semisimple


@st.composite
def _matrices(draw):
    """n <= 8; with m > 0 the first and last m vertices carry equal diagonal
    blocks, the 0/1 middle block is sparser, and no edge leads back to an
    earlier block, so two maximal components, joined or not, are common."""
    n = draw(st.integers(1, 8))
    a = draw(arrays(np.int64, (n, n), elements=st.integers(0, 3) | st.just(0)))
    m = draw(st.integers(0, n // 2))
    if m:
        a[n - m :, n - m :] = a[:m, :m]
        a[m : n - m, m : n - m] //= 3
        a[m:, :m] = 0
        a[n - m :, : n - m] = 0
        if draw(st.booleans()):  # joined, if at all, through the middle
            a[:m, n - m :] = 0
    return a


@settings(max_examples=300)
@given(_matrices())
def test_classify_matches_closure_and_trace_oracles(a):
    n = a.shape[0]
    # reach[u, v]: a path of length >= 1 from u to v (boolean transitive closure)
    reach = a > 0
    for w in range(n):
        reach = reach | (reach[:, [w]] & reach[[w], :])
    cls = classify(a)
    for comp in cls.components:
        u = comp[0]
        assert set(comp) == {v for v in range(n) if v == u or (reach[u, v] and reach[v, u])}
    maximal = [comp for comp, m in zip(cls.components, cls.maximal) if m]
    joined = any(
        reach[u, v] for c in maximal for d in maximal if c != d for u in c for v in d
    )
    assert cls.almost_semisimple == (cls.lam > 0 and not joined)
    for comp, period in zip(cls.components, cls.periods):
        sub = (a[np.ix_(comp, comp)] > 0).astype(np.int64)
        power, closed = np.eye(len(comp), dtype=np.int64), []
        for m in range(1, len(comp) + 1):
            power = np.minimum(power @ sub, 1)
            if np.trace(power) > 0:
                closed.append(m)
        assert period == reduce(gcd, closed, 0), comp


@settings(max_examples=300)
@given(_matrices())
def test_components_come_in_reverse_topological_order(a):
    n = a.shape[0]
    reach = a > 0
    for w in range(n):
        reach = reach | (reach[:, [w]] & reach[[w], :])
    cls = classify(a)
    assert sorted(v for comp in cls.components for v in comp) == list(range(n))
    for ci, comp in enumerate(cls.components):
        assert list(comp) == sorted(comp)
        assert all(cls.comp_of[v] == ci for v in comp)
        # no component reaches one listed after it
        later = [v for d in cls.components[ci + 1 :] for v in d]
        assert not reach[np.ix_(comp, later)].any()


def _strongly_connected(rng, n, bipartite=False):
    """Hamiltonian cycle in random order plus 2n random chords; with
    ``bipartite`` the chords join the two alternate halves of the cycle."""
    order = rng.permutation(n)
    side = np.empty(n, dtype=np.int64)
    side[order] = np.arange(n) % 2
    a = np.zeros((n, n), dtype=np.int64)
    a[order, np.roll(order, -1)] = rng.integers(1, 4, n)
    for _ in range(2 * n):
        i, j = (int(v) for v in rng.integers(n, size=2))
        if not bipartite or side[i] != side[j]:
            a[i, j] = int(rng.integers(1, 4))
    return a


def _deep_chain(rng, n):
    """i -> i + 1 for every i, forward chords, and backward chords of at most
    20 steps that close components of varied size; the search runs n deep."""
    a = np.zeros((n, n), dtype=np.int64)
    a[np.arange(n - 1), np.arange(1, n)] = 1
    for i in range(n):
        u = rng.random()
        if u < 0.1 and i + 2 < n:
            a[i, int(rng.integers(i + 2, n))] = 1
        elif u < 0.25 and i:
            a[i, max(0, i - int(rng.integers(1, 21)))] = int(rng.integers(1, 3))
    return a


def _classify_family():
    """2,000 random matrices with n <= 12 and densities from 0.1 to 0.9, random
    strongly connected 100-, 200- (bipartite) and 300-vertex digraphs, and a
    2,000-vertex chain with chords."""
    rng = np.random.default_rng(20261018)
    family = []
    for _ in range(2000):
        n = int(rng.integers(1, 13))
        density = (0.1, 0.2, 0.35, 0.6, 0.9)[int(rng.integers(5))]
        family.append(np.where(rng.random((n, n)) < density, rng.integers(1, 4, (n, n)), 0))
    family += [_strongly_connected(rng, n, bipartite=n == 200) for n in (100, 200, 300)]
    family.append(_deep_chain(rng, 2000))
    return family


# sha256 of repr(classify(a)) over _classify_family(), recorded when each
# component's period came from a breadth-first search of its own
_CLASSIFY_PINNED = "7ad0ad8045b9cf348674adfcd5a4ee913cd73ad5e911e24e3daac0e2cd7ce0d6"


def test_classify_matches_pinned_digest():
    family = _classify_family()
    classes = [classify(a) for a in family]
    deep = classes[-1]
    assert max(len(comp) for comp in deep.components) > 1 and len(deep.components) > 100
    assert classes[-3].p_star == 2  # the bipartite one
    assert hashlib.sha256(repr(classes).encode()).hexdigest() == _CLASSIFY_PINNED


def test_sub_maximal_component_feeding_the_maximal_one():
    cls = classify(FEEDS_MAXIMAL)
    assert cls.semisimple and cls.p_star == 1
    assert cls.components[cls.maximal.index(True)] == (1, 3, 4)
    data = perron_data(FEEDS_MAXIMAL)
    assert abs(data.lam - 2.11491) <= 1e-5
    _assert_eigendata_checked(FEEDS_MAXIMAL, data)


@settings(max_examples=300)
@given(_matrices())
def test_almost_semisimple_matrices_have_checked_eigendata(a):
    if classify(a).almost_semisimple:
        _assert_eigendata_checked(a, perron_data(a))


def test_forced_almost_semisimple_on_joined_components_raises(monkeypatch):
    # two radius-2 loops joined by an edge: lambda = 2 is defective
    joined = np.array([[2, 1], [0, 2]])
    cls = classify(joined)
    assert not cls.almost_semisimple
    forced = dataclasses.replace(cls, almost_semisimple=True, semisimple=True)
    monkeypatch.setattr(spectral, "classify", lambda a: forced)
    monkeypatch.setattr(spectral, "_A_INF_MAX_ITER", 1000)
    with pytest.raises(SpherecombError, match="did not converge"):
        perron_data(joined)


def test_perturbed_eigenvectors_fail_the_residual_check(monkeypatch):
    a = transition_matrix(preset("free2_sanov").graph)
    eigvectors = spectral._eigvectors_from_a_inf

    def perturbed(*args):
        # q vanishes on the initial vertex 0, which no edge enters, so the
        # Rayleigh quotient q A p, and with it lambda, does not see the bump
        p, q, pi = eigvectors(*args)
        return p + 1e-6 * (np.arange(len(p)) == 0), q, pi

    monkeypatch.setattr(spectral, "_eigvectors_from_a_inf", perturbed)
    with pytest.raises(SpherecombError, match=r"eigendata check failed: max\|Ap - lam p\|"):
        perron_data(a)


@pytest.mark.parametrize("name", ["free2_sanov", "dinf_involutions"])
def test_rayleigh_repolish_recovers_the_eigendata(monkeypatch, name):
    # classify's lambda off by 4e-13 relative: the Rayleigh quotient of the
    # first eigenvectors moves by more than 1e-13 lambda, so perron_data
    # recomputes A_inf and the eigenvectors at the polished lambda
    a = transition_matrix(preset(name).graph)
    ref = perron_data(a)
    classify_exact, a_infinity_exact = spectral.classify, spectral.a_infinity
    lams = []

    def off_lambda(a):
        cls = classify_exact(a)
        return dataclasses.replace(cls, lam=cls.lam * (1 + 4e-13))

    def recording_a_infinity(a, p_star, lam):
        lams.append(lam)
        return a_infinity_exact(a, p_star, lam)

    monkeypatch.setattr(spectral, "classify", off_lambda)
    monkeypatch.setattr(spectral, "a_infinity", recording_a_infinity)
    data = perron_data(a)
    assert len(lams) == 2 and lams[0] != lams[1]
    a_f = a.astype(float)
    for residual, v in ((a_f @ data.p - data.lam * data.p, data.p),
                        (data.q @ a_f - data.lam * data.q, data.q)):
        assert np.max(np.abs(residual)) <= spectral._RESIDUAL_RTOL * data.lam * np.max(np.abs(v))
    assert abs(data.lam - ref.lam) <= 1e-12 * ref.lam
    for got, want in ((data.p, ref.p), (data.q, ref.q), (data.pi, ref.pi), (data.a_inf, ref.a_inf)):
        assert np.max(np.abs(got - want)) <= 1e-12


def test_integral_float_matrices_are_taken_and_fractions_rejected():
    a = np.array([[2.0, 1.0], [0.0, 1.0]])
    checked = spectral._check_matrix(a)
    assert checked.dtype == np.int64
    assert np.array_equal(checked, [[2, 1], [0, 1]])
    assert classify(a) == classify(checked)
    for bad in (np.array([[0.5]]), np.array([[1.0, 0.5], [1.0, 1.0]])):
        with pytest.raises(ValueError, match="transition matrix entries must be integers"):
            perron_data(bad)


def test_perron_data_errors():
    with pytest.raises(NilpotentMatrixError):
        perron_data(np.array([[0, 1], [0, 0]]))
    with pytest.raises(NotAlmostSemisimpleError):
        perron_data(np.array([[1, 1], [0, 1]]))


def test_a_infinity_idempotent_when_aperiodic(free2_data):
    a_inf = free2_data.a_inf
    assert np.max(np.abs(a_inf @ a_inf - a_inf)) <= 1e-9
    # and it is a fixed point of A/lam on both sides
    a = free2_data.matrix
    lam = free2_data.lam
    assert np.max(np.abs(a @ a_inf / lam - a_inf)) <= 1e-9
    assert np.max(np.abs(a_inf @ a / lam - a_inf)) <= 1e-9


def test_a_infinity_rank_one_when_primitive():
    a = np.array([[1, 1], [1, 1]])
    data = perron_data(a)
    outer = np.outer(data.p, data.q)
    assert np.max(np.abs(data.a_inf - outer)) <= 1e-10


def test_a_infinity_period_two_matches_large_even_power():
    a = transition_matrix(preset("dinf_involutions").graph)
    data = perron_data(a)
    assert data.p_star == 2
    power = np.linalg.matrix_power(a.astype(float), 40)
    assert np.max(np.abs(data.a_inf - power)) <= 1e-9
    # idempotent for the two step matrix
    two = data.a_inf @ (a.astype(float) @ a.astype(float))
    assert np.max(np.abs(two - data.a_inf)) <= 1e-9


def test_growth_constants_free2(free2_data):
    consts = growth_constants(free2_data)
    assert len(consts) == 1
    assert abs(consts[0] - 16.0 / 3.0) <= 1e-9
    assert abs(free2_data.c - 16.0 / 3.0) <= 1e-9


def test_growth_constants_z_parabolic():
    data = perron_data(transition_matrix(preset("z_parabolic").graph))
    assert abs(data.c - 4.0) <= 1e-10


def test_growth_constants_match_count_ratios_dinf():
    # c_r = lim #(paths of length p*m + r, all starts) / lam^n, checked at m large
    graph = preset("dinf_involutions").graph
    a = transition_matrix(graph)
    data = perron_data(a)
    consts = growth_constants(data)
    assert len(consts) == 2
    ones = np.ones(3)
    for r in (0, 1):
        n = 30 + r
        total = float(ones @ np.linalg.matrix_power(a.astype(float), n) @ ones)
        assert abs(consts[r] - total / data.lam**n) <= 1e-9


def test_c_none_when_periodic():
    data = perron_data(transition_matrix(preset("dinf_involutions").graph))
    assert data.c is None


def test_spectral_data_arrays_read_only(free2_data):
    assert not free2_data.p.flags.writeable
    assert not free2_data.q.flags.writeable
    assert not free2_data.pi.flags.writeable
    assert not free2_data.a_inf.flags.writeable


def test_a_infinity_direct_call(free2_data):
    a = free2_data.matrix
    b = a_infinity(a, 1, free2_data.lam)
    assert np.max(np.abs(b - free2_data.a_inf)) <= 1e-9


def _a_infinity_fresh_arrays(a, p_star, lam):
    """The a_infinity loop that made a fresh array for each iterate and difference."""
    b0 = np.linalg.matrix_power(a.astype(float) / lam, p_star)
    b = b0.copy()
    for _ in range(spectral._A_INF_MAX_ITER):
        nxt = b @ b0
        if float(np.max(np.abs(nxt - b))) < spectral._A_INF_TOL:
            b = nxt
            break
        b = nxt
    else:
        raise SpherecombError("did not converge")
    return np.where(b < 0, 0.0, b)


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]), st.integers(1, 150))
def test_a_infinity_in_two_buffers_equals_the_fresh_array_loop(seed, p_star, k):
    # every vertex is joined both ways to vertex 0, so the matrix is strongly
    # connected: primitive with the loop at 0, of period 2 when bipartite
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, k + 1))
    if p_star == 1:
        a = rng.integers(0, 4, (k + m, k + m))
        a[0, :], a[:, 0] = 1, 1
    else:
        b, c = rng.integers(0, 4, (k, m)), rng.integers(0, 4, (m, k))
        b[0, :], b[:, 0], c[0, :], c[:, 0] = 1, 1, 1, 1
        a = np.block([[np.zeros((k, k), np.int64), b], [c, np.zeros((m, m), np.int64)]])
    cls = classify(a)
    assert cls.p_star == p_star
    got = a_infinity(a, p_star, cls.lam)
    assert got.tobytes() == _a_infinity_fresh_arrays(a, p_star, cls.lam).tobytes()


@pytest.mark.parametrize(
    "a, message",
    [
        (np.zeros((2, 3), dtype=np.int64), r"^transition matrix must be square, got shape \(2, 3\)$"),
        (np.array([[1, -1], [0, 1]]), "^transition matrix entries must be nonnegative$"),
    ],
    ids=["not-square", "negative-entry"],
)
def test_transition_matrices_must_be_square_and_nonnegative(a, message):
    with pytest.raises(ValueError, match=message):
        classify(a)


def test_a_infinity_needs_a_positive_eigenvalue():
    with pytest.raises(NilpotentMatrixError, match="^leading eigenvalue is zero; "):
        a_infinity(np.array([[0, 1], [0, 0]]), 1, 0.0)
