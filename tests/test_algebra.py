"""Exact integer matrix and fixed-point torus arithmetic."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from spherecomb import (
    FRACTIONAL_BITS,
    GeneratorSystem,
    GroupMatrix,
    TorusPoint,
    phase64,
    sqrt_fix64,
    torus_act,
    word_act,
)
from spherecomb.errors import (
    DimensionMismatchError,
    NotUnimodularError,
    UnknownLabelError,
)
from conftest import sanov_system

SCALE = 1 << FRACTIONAL_BITS


def test_matmul_against_explicit_sum():
    m = GroupMatrix(((1, 2), (3, 4)))
    n = GroupMatrix(((5, 6), (7, 8)))
    prod = m @ n
    for i in range(2):
        for j in range(2):
            assert prod.rows[i][j] == sum(m.rows[i][k] * n.rows[k][j] for k in range(2))


def test_determinant_matches_numpy_on_random_small_matrices():
    rng = np.random.default_rng(7)
    for _ in range(200):
        d = int(rng.integers(1, 5))
        rows = tuple(tuple(int(v) for v in rng.integers(-9, 10, d)) for _ in range(d))
        m = GroupMatrix(rows)
        expected = round(float(np.linalg.det(np.array(rows, dtype=float))))
        assert m.determinant() == expected


def test_determinant_huge_entries_exact():
    # outside float range: Bareiss must stay exact
    big = 10**40
    m = GroupMatrix(((big, big - 1), (big + 1, big)))
    assert m.determinant() == big * big - (big - 1) * (big + 1)


def test_inverse_roundtrip_and_unimodular_check():
    m = GroupMatrix(((1, 2), (0, 1)))
    assert m @ m.inverse() == GroupMatrix.identity(2)
    assert m.inverse() @ m == GroupMatrix.identity(2)
    with pytest.raises(NotUnimodularError):
        GroupMatrix(((2, 0), (0, 1))).inverse()


def test_inverse_of_det_minus_one():
    m = GroupMatrix(((0, 1), (1, 0)))
    assert m.determinant() == -1
    assert m @ m.inverse() == GroupMatrix.identity(2)


def test_matmul_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        GroupMatrix(((1,),)) @ GroupMatrix.identity(2)


def test_torus_point_reduces_mod_one():
    p = TorusPoint((SCALE + 5, -3))
    assert p.coords == (5, SCALE - 3)


def test_from_fractions_rounds_to_nearest():
    # 1/3 * 2^64 rounds to the nearest integer
    exact = Fraction(1, 3) * SCALE
    assert TorusPoint.from_fractions([Fraction(1, 3)]).coords[0] == round(exact)
    # dyadic values are exact
    assert TorusPoint.from_fractions([Fraction(1, 4)]).coords[0] == SCALE // 4
    # integers reduce to zero
    assert TorusPoint.from_fractions([Fraction(7, 1)]).coords[0] == 0


def test_sqrt_fix64_defining_inequality():
    # s encodes frac(sqrt(p)): the full fixed-point value t = isqrt-floor must
    # satisfy t^2 <= p * 2^128 < (t+1)^2
    for p in (2, 3, 5, 7, 11):
        s = sqrt_fix64(p)
        t = s + math.isqrt(p) * SCALE
        assert t * t <= p << 128 < (t + 1) * (t + 1)


def test_sqrt_fix64_frozen_value():
    assert sqrt_fix64(2) == 7640891576956012808


def test_torus_act_matches_fraction_arithmetic():
    m = GroupMatrix(((1, 2), (3, 7)))
    fx = [Fraction(3, 16), Fraction(5, 8)]
    x = TorusPoint.from_fractions(fx)
    y = torus_act(m, x)
    for i in range(2):
        want = sum(Fraction(m.rows[i][j]) * fx[j] for j in range(2)) % 1
        assert y.coords[i] == int(want * SCALE)


def test_phase64_matches_fraction_arithmetic():
    x = TorusPoint.from_fractions([Fraction(3, 16), Fraction(5, 8)])
    k = (7, -2)
    want = (Fraction(7, 1) * Fraction(3, 16) - 2 * Fraction(5, 8)) % 1
    assert phase64(k, x) == int(want * SCALE)


def test_word_act_matches_matrix_product():
    system = sanov_system()
    x = TorusPoint.from_fractions([Fraction(1, 8), Fraction(1, 8)])
    word = ("a", "b", "A", "b")
    m = GroupMatrix.identity(2)
    for s in word:
        m = m @ system.matrix_of(s)
    assert word_act(word, x, system, inverse=True) == torus_act(m.inverse(), x)
    assert word_act(word, x, system, inverse=False) == torus_act(m, x)


def test_generator_system_validation():
    system = sanov_system()
    assert system.labels == ("a", "A", "b", "B")
    assert system.inverse_of("a") == "A"
    assert system.inverse_matrix_of("b") @ system.matrix_of("b") == GroupMatrix.identity(2)
    with pytest.raises(UnknownLabelError):
        system.matrix_of("z")


def test_generator_system_rejects_wrong_inverse():
    with pytest.raises(Exception) as exc:
        GeneratorSystem(
            labels=("a", "A"),
            matrices=(GroupMatrix(((1, 2), (0, 1))), GroupMatrix(((1, 2), (0, 1)))),
            inverse_labels=("A", "a"),
        )
    assert "inverse" in str(exc.value)


def test_generator_system_involution():
    g = GeneratorSystem.from_pairs([("a", "a", ((-1, 0), (0, -1)))])
    assert g.labels == ("a",)
    assert g.inverse_of("a") == "a"


def test_generator_system_rejects_non_unimodular():
    with pytest.raises(NotUnimodularError):
        GeneratorSystem.from_pairs([("a", "A", ((2, 0), (0, 1)))])


def test_word_matrix_empty_is_identity():
    system = sanov_system()
    assert system.word_matrix(()) == GroupMatrix.identity(2)


_I2, _I3 = GroupMatrix.identity(2), GroupMatrix.identity(3)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: GroupMatrix(()), DimensionMismatchError, "matrix must have at least one row"),
        (lambda: torus_act(_I3, TorusPoint.zero(2)), DimensionMismatchError,
         "matrix dim 3 vs point dim 2"),
        (lambda: phase64((1, 0, 0), TorusPoint.zero(2)), DimensionMismatchError,
         "frequency dim 3 vs point dim 2"),
        (lambda: GeneratorSystem(("a", "b"), (_I2,), ("b", "a")), DimensionMismatchError,
         "labels, matrices, inverse_labels must have equal length"),
        (lambda: GeneratorSystem(("a", "a"), (_I2, _I2), ("a", "a")), ValueError,
         "duplicate labels in ('a', 'a')"),
        (lambda: GeneratorSystem(("a", "b"), (_I2, _I3), ("a", "b")), DimensionMismatchError,
         "generator 'b' has dim 3, expected 2"),
        (lambda: GeneratorSystem(("a",), (_I2,), ("z",)), UnknownLabelError,
         "inverse label 'z' of 'a' is not a generator"),
        (lambda: GeneratorSystem(("a", "A", "b"), (_I2,) * 3, ("A", "b", "a")), ValueError,
         "inversion pairing is not an involution at 'a'"),
        (lambda: sanov_system().inverse_of("z"), UnknownLabelError,
         "unknown generator label 'z'"),
    ],
    ids=[
        "no-rows", "torus-act-dims", "phase-dims", "unequal-lengths", "duplicate-labels",
        "mixed-dims", "unknown-inverse", "not-an-involution", "unknown-label",
    ],
)
def test_invalid_matrices_points_and_generator_systems_raise(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
