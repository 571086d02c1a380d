"""Exact combinatorics: binomials, parity offsets, sign-sum atoms,
the non-uniform bound, and rational square-root ceilings."""

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from littlewood_offord import (InputError, binomial, ceil_sqrt, delta,
                               floor_sqrt, format_rational, lo_bound,
                               parse_rational, rademacher_atom)
from littlewood_offord.exactnum import parse_int
from oracles import pascal_atom, pascal_binomial


def test_binomial_examples():
    assert binomial(4, 2) == 6
    assert binomial(5, -1) == 0
    assert binomial(5, 7) == 0
    assert pascal_binomial(30, 15) == 155117520
    assert binomial(30, 15) == 155117520


def test_binomial_rejects_negative_n():
    with pytest.raises(InputError):
        binomial(-1, 0)


def test_binomial_matches_pascal_recurrence():
    for n in range(0, 26):
        for m in range(-2, n + 3):
            assert binomial(n, m) == pascal_binomial(n, m)


def test_delta_examples_and_parity():
    assert delta(3, 1) == 0
    assert delta(3, 2) == 1
    assert delta(4, 0) == 0
    assert delta(4, 1) == 1
    for n in range(1, 30):
        for k in range(0, 35):
            d = delta(n, k)
            assert d in (0, 1)
            # k + delta lands on the support parity of an n-step sign sum
            assert (k + d) % 2 == n % 2


def test_delta_rejects_bad_arguments():
    with pytest.raises(InputError):
        delta(0, 0)
    with pytest.raises(InputError):
        delta(3, -1)


def test_rademacher_atom_examples():
    assert rademacher_atom(2, 0) == F(1, 2)
    assert rademacher_atom(3, 1) == F(3, 8)
    assert rademacher_atom(1, -1) == F(1, 2)
    assert rademacher_atom(2, 1) == 0          # parity mismatch
    assert rademacher_atom(3, 5) == 0          # out of range


def test_rademacher_atom_matches_half_step_recurrence():
    for n in range(1, 16):
        for m in range(-n - 2, n + 3):
            assert rademacher_atom(n, m) == pascal_atom(n, m)


def test_rademacher_atom_symmetry_and_normalization():
    for n in range(1, 61):
        assert sum(rademacher_atom(n, m) for m in range(-n, n + 1)) == 1
        for m in range(0, n + 1):
            assert rademacher_atom(n, m) == rademacher_atom(n, -m)


def test_lo_bound_examples():
    assert lo_bound(4, 0) == F(3, 8)
    assert lo_bound(3, 1) == F(3, 8)
    assert lo_bound(5, 5) == F(1, 32)
    assert lo_bound(1, 0) == F(1, 2)


def test_lo_bound_rejects_bad_arguments():
    with pytest.raises(InputError):
        lo_bound(0, 0)
    with pytest.raises(InputError):
        lo_bound(3, -1)


def test_lo_bound_is_the_offset_atom():
    for n in range(1, 41):
        for k in range(0, n + 2):
            assert lo_bound(n, k) == rademacher_atom(n, k + delta(n, k))


def test_lo_bound_monotone_and_supported_up_to_n():
    for n in range(1, 41):
        previous = None
        for k in range(0, n + 4):
            b = lo_bound(n, k)
            if k <= n:
                assert b > 0
            else:
                assert b == 0
            if previous is not None:
                assert b <= previous
            previous = b


def test_ceil_sqrt_examples():
    assert ceil_sqrt(2) == 2
    assert ceil_sqrt(F(9, 4)) == 2
    assert ceil_sqrt(25) == 5
    assert ceil_sqrt(0) == 0
    assert ceil_sqrt(F(1, 4)) == 1
    assert floor_sqrt(2) == 1
    assert floor_sqrt(F(9, 4)) == 1
    assert floor_sqrt(25) == 5
    assert floor_sqrt(0) == 0


def test_sqrt_ceilings_reject_negative():
    with pytest.raises(InputError):
        ceil_sqrt(-1)
    with pytest.raises(InputError):
        floor_sqrt(F(-1, 4))


@given(st.fractions(min_value=0, max_value=10 ** 6, max_denominator=10 ** 4))
def test_ceil_sqrt_is_least_upper_integer(q):
    t = ceil_sqrt(q)
    assert t >= 0
    assert t * t >= q
    if t > 0:
        assert (t - 1) * (t - 1) < q


@given(st.fractions(min_value=0, max_value=10 ** 6, max_denominator=10 ** 4))
def test_floor_sqrt_is_greatest_lower_integer(q):
    t = floor_sqrt(q)
    assert t >= 0
    assert t * t <= q
    assert (t + 1) * (t + 1) > q


def test_rational_text_forms():
    for text, value in [("3/4", F(3, 4)), ("-7/2", F(-7, 2)), ("5", F(5)),
                        ("0", F(0)), ("-12", F(-12)), ("6/4", F(3, 2))]:
        assert parse_rational(text) == value
    assert format_rational(F(3, 4)) == "3/4"
    assert format_rational(F(-7, 2)) == "-7/2"
    assert format_rational(F(4, 2)) == "2"
    assert format_rational(7) == "7"


@given(st.fractions(max_denominator=10 ** 6))
def test_rational_serialization_round_trips(q):
    assert parse_rational(format_rational(q)) == q


@pytest.mark.parametrize("bad", ["", "1.5", "a", "1/0", "1/-2", "--3",
                                 "3 / 4x", "1/2/3", "\u0661/\u0662"])
def test_rational_rejects_garbage(bad):
    with pytest.raises(InputError):
        parse_rational(bad)


# int() converts at most 4,300 digits by default; a longer literal is an
# input error, not a ValueError from int().
LONG = "7" * 5000


@pytest.mark.parametrize("parse, text", [
    (parse_int, LONG), (parse_int, "-" + LONG), (parse_rational, LONG),
    (parse_rational, "1/" + LONG), (parse_rational, "-" + LONG + "/3")])
def test_oversized_literals_are_input_errors(parse, text):
    with pytest.raises(InputError, match="integer literal longer than"):
        parse(text)
