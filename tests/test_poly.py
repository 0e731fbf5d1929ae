"""Ring behavior of the dense integer polynomial helpers."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyckwalk.poly import ZERO, add, mul, normalize, series_coeffs

from references import eval_at


def random_poly(rng: random.Random) -> tuple[int, ...]:
    return normalize(rng.randint(-50, 50) for _ in range(rng.randint(0, 9)))


def reference_series_coeffs(num, den, kmax):
    """num/den mod x**(kmax+1) by the plain double loop of the recurrence

        c_k = num_k - sum_{j=1..k} den_j * c_{k-j},

    the reference for series_coeffs, whose inner sums run in C.
    """
    coeffs = [0] * (kmax + 1)
    for k in range(kmax + 1):
        acc = num[k] if k < len(num) else 0
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * coeffs[k - j]
        coeffs[k] = acc
    return coeffs


def random_point(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-30, 30), rng.randint(1, 30))


def test_normalize_drops_trailing_zeros():
    assert normalize([1, 0, 2, 0, 0]) == (1, 0, 2)
    assert normalize([0, 0]) == ()
    assert normalize([]) == ()


def test_add_examples():
    assert add((1, 2, 3), (1, 1)) == (2, 3, 3)
    assert add((1, 2), (-1, -2)) == ZERO
    assert add(ZERO, (4, 5)) == (4, 5)


def test_mul_examples():
    assert mul((1, 1), (1, -1)) == (1, 0, -1)
    assert mul((1, -2), (1, -2)) == (1, -4, 4)
    assert mul(ZERO, (3, 1)) == ZERO
    assert mul((1,), (3, 1)) == (3, 1)


def test_eval_at_examples():
    assert eval_at((1, -5, 6, -1), Fraction(1, 3)) == Fraction(-1, 27)
    assert eval_at(ZERO, Fraction(7, 2)) == 0
    assert eval_at((3,), Fraction(100)) == 3


@pytest.mark.parametrize("seed", range(6))
def test_ring_axioms_on_random_polynomials(seed):
    rng = random.Random(seed)
    for _ in range(40):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert add(a, b) == add(b, a)
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(a, b) == mul(b, a)
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert add(a, ZERO) == a
        assert mul(a, (1,)) == a


@pytest.mark.parametrize("seed", range(6))
def test_results_stay_normalized(seed):
    rng = random.Random(100 + seed)
    for _ in range(40):
        a, b = random_poly(rng), random_poly(rng)
        for out in (add(a, b), mul(a, b)):
            assert out == () or out[-1] != 0


@pytest.mark.parametrize("seed", range(6))
def test_degree_of_product_adds(seed):
    rng = random.Random(200 + seed)
    for _ in range(40):
        a, b = random_poly(rng), random_poly(rng)
        if a and b:
            # a polynomial of degree d has d + 1 coefficients
            assert len(mul(a, b)) == len(a) + len(b) - 1


@pytest.mark.parametrize("seed", range(6))
def test_evaluation_is_a_ring_homomorphism(seed):
    rng = random.Random(300 + seed)
    for _ in range(40):
        a, b = random_poly(rng), random_poly(rng)
        q = random_point(rng)
        assert eval_at(add(a, b), q) == eval_at(a, q) + eval_at(b, q)
        assert eval_at(mul(a, b), q) == eval_at(a, q) * eval_at(b, q)


big_ints = st.integers(min_value=-(2 ** 200), max_value=2 ** 200)


@settings(deadline=None)
@given(
    st.lists(big_ints, max_size=30),
    st.lists(big_ints, max_size=30),
    st.integers(min_value=0, max_value=40),
)
def test_series_coeffs_equals_the_double_loop(num, den_tail, kmax):
    # numerators and denominators both shorter and longer than the cut
    den = (1, *den_tail)
    assert series_coeffs(num, den, kmax) == reference_series_coeffs(num, den, kmax)
