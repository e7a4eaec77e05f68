"""Averaging operators: exact engines, oracles, Monte Carlo estimators."""

import cmath
import hashlib
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherecomb import (
    TestFunction,
    TorusPoint,
    build_markov,
    cesaro_average,
    character_sums,
    enumerate_paths,
    kappa_average,
    lambda_prime,
    markov_cesaro,
    mc_spherical,
    orbit_tables,
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
from spherecomb.errors import BudgetExceededError, DimensionMismatchError
from conftest import reduced_words


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


def test_budget_exceeded(free2_graph, x2):
    f = TestFunction.character((1, 0))
    with pytest.raises(BudgetExceededError) as exc:
        spherical_average(free2_graph, x2, f, 14, budget=1000)
    assert "Monte Carlo" in str(exc.value)
    assert exc.value.required > 1000


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


def test_spherical_average_trivial_character_is_exactly_one(free2_graph, x2):
    f0 = TestFunction.character((0, 0))
    for n in (1, 3, 7):
        assert spherical_average(free2_graph, x2, f0, n) == 1.0 + 0.0j


def test_spherical_average_at_zero_length(free2_graph, x2):
    f = TestFunction.character((1, 1))
    assert spherical_average(free2_graph, x2, f, 0) == f.evaluate(x2)


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


@settings(max_examples=60)
@given(st.data())
def test_batched_ray_equals_word_act_on_every_prefix(data):
    ps, inverse, x, f = _draw_orbit_inputs(data)
    graph = ps.graph
    model = build_markov(graph)
    length = data.draw(st.integers(1, 40))
    seed = data.draw(st.integers(0, 2**32 - 1))
    start = data.draw(st.sampled_from([None, "stationary", *range(graph.n_vertices)]))
    # short scan blocks make the running product carry across blocks
    block = data.draw(st.sampled_from([1, 3, 8, equidist._RAY_BLOCK]))
    with mock.patch.object(equidist, "_RAY_BLOCK", block):
        got = random_geodesic_average(model, x, f, length, seed, start=start, inverse=inverse)
    path = sample_path(model, graph.initial if start is None else start, length, seed)
    values = np.array(
        [
            f.evaluate(word_act(graph.path_word(path.edges[:m]), x, ps.system, inverse=inverse))
            for m in range(1, length + 1)
        ],
        dtype=np.complex128,
    )
    assert repr(got) == repr(equidist._block_sum(values) / length)
