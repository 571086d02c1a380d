"""Exact sign-sum enumeration: point atoms, full tables, maxima, and the
half-table probe against enumeration and full tables."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from littlewood_offord import (CapacityError, EXHAUSTIVE_LIMIT, InputError,
                               PROBE_LIMIT, atom_1d, atom_nd, lo_bound,
                               max_atom, reachable_sums_nd, rho_max_1d,
                               sum_table_1d, sum_table_nd)
from littlewood_offord.concentration import sign_counter
from oracles import (enumerate_atom_1d, enumerate_atom_nd, enumerate_table_1d,
                     enumerate_table_nd)

small = st.fractions(min_value=-2, max_value=2, max_denominator=6)


def test_atom_1d_examples():
    assert enumerate_atom_1d([F(1), F(1)], F(0)) == F(1, 2)
    assert atom_1d([1, 1], 0) == F(1, 2)
    assert enumerate_atom_1d([F(1, 2), F(1, 2), F(1)], F(0)) == F(1, 4)
    assert atom_1d([F(1, 2), F(1, 2), 1], 0) == F(1, 4)
    assert atom_1d([1, 1, 1], 3) == F(1, 8)
    assert atom_1d([1, 1, 1], 2) == 0          # parity miss
    assert atom_1d([1], F(1, 3)) == 0          # off the lattice


def test_atom_nd_examples():
    vectors = [(1, 0), (0, 1)]
    assert enumerate_atom_nd([(F(1), F(0)), (F(0), F(1))], (F(1), F(1))) == F(1, 4)
    assert atom_nd(vectors, (1, 1)) == F(1, 4)
    assert atom_nd(vectors, (0, 0)) == 0
    assert atom_nd([(F(1, 2), F(1, 2))], (F(1, 2), F(1, 2))) == F(1, 2)
    assert atom_nd(vectors, (F(1, 3), 0)) == 0  # off the lattice
    # (0, 3) lies outside the reachable box |s_j| <= sum_i |v_ij| and, with
    # packing base 3, would share the code of the reachable sum (1, 0).
    assert enumerate_atom_nd([(F(1), F(0))], (F(0), F(3))) == 0
    assert atom_nd([(1, 0)], (0, 3)) == 0
    assert sum_table_nd([(1, 0)]).get((0, 3), 0) == 0


def test_atom_rejects_bad_input():
    with pytest.raises(InputError):
        atom_1d([], 0)
    with pytest.raises(InputError):
        atom_nd([], (0,))
    with pytest.raises(InputError):
        atom_nd([(1, 0)], (1,))
    with pytest.raises(InputError):
        atom_nd([(1, 0), (1,)], (0, 0))


@given(st.lists(small, min_size=1, max_size=9), small)
def test_atom_1d_matches_enumeration(a, t):
    assert atom_1d(a, t) == enumerate_atom_1d(a, t)


@given(st.integers(1, 3).flatmap(
    lambda d: st.tuples(
        st.lists(st.tuples(*([small] * d)), min_size=1, max_size=7),
        st.tuples(*([small] * d)))))
def test_atom_nd_matches_enumeration(case):
    vectors, x = case
    assert atom_nd(vectors, x) == enumerate_atom_nd(vectors, x)


@given(st.lists(small, min_size=1, max_size=9), small)
def test_atom_symmetric_under_negation(a, t):
    assert atom_1d(a, t) == atom_1d(a, -t)


def test_probe_agrees_with_enumeration_and_table_1d():
    rng = random.Random(1106)
    for _ in range(120):
        n = rng.randint(1, 11)
        a = [F(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(n)]
        t = F(rng.randint(-6, 6), rng.randint(1, 4))
        expected = enumerate_atom_1d(a, t)
        assert atom_1d(a, t) == expected
        assert F(sum_table_1d(a).get(t, 0), 2 ** n) == expected


def _moved(x, j, c):
    return x[:j] + (c,) + x[j + 1:]


def test_probe_agrees_with_enumeration_and_table_nd():
    rng = random.Random(1107)
    aux = random.Random(1112)
    for i in range(120):
        n = rng.randint(1, 8)
        d = 3 if i % 2 else rng.randint(1, 3)
        vectors = [tuple(F(rng.randint(-4, 4), 4) for _ in range(d))
                   for _ in range(n)]
        if rng.random() < 0.5:
            # signs drawn per coordinate, so reachable for certain at d = 1 only
            x = tuple(sum(rng.choice((-1, 1)) * v[j] for v in vectors)
                      for j in range(d))
        else:
            # a grid point that may lie outside the reachable box
            x = tuple(F(rng.randint(-4 * n, 4 * n), 4) for _ in range(d))
        # A reachable sum s: on the lattice, and in lowest terms over a
        # denominator above 1 whenever a coordinate is fractional.
        signs = [aux.choice((-1, 1)) for _ in vectors]
        s = tuple(sum(e * v[j] for e, v in zip(signs, vectors))
                  for j in range(d))
        j = aux.randrange(d)
        den = math.lcm(*(c.denominator for v in vectors for c in v))
        reach = sum(abs(v[j]) for v in vectors)
        targets = [
            x, s,
            # off the 1/4 lattice (denominators 3 and 8), just above s
            _moved(s, j, s[j] + F(1, 3)), _moved(s, j, s[j] + F(1, 8)),
            # one lattice step past the reach, either side
            _moved(s, j, reach + F(1, den)), _moved(s, j, -reach - F(1, den)),
        ]
        table = sum_table_nd(vectors)
        for y in targets:
            expected = enumerate_atom_nd(vectors, y)
            assert atom_nd(vectors, y) == expected, (vectors, y)
            assert F(table.get(y, 0), 2 ** n) == expected, (vectors, y)


def test_sum_table_1d_matches_enumeration():
    rng = random.Random(1108)
    for _ in range(40):
        n = rng.randint(1, 9)
        a = [F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(n)]
        table = sum_table_1d(a)
        assert table == dict(enumerate_table_1d(a))
        assert sum(table.values()) == 2 ** n


def test_sum_table_nd_matches_enumeration():
    rng = random.Random(1109)
    for _ in range(30):
        n = rng.randint(1, 7)
        d = rng.randint(1, 3)
        vectors = [tuple(F(rng.randint(-3, 3), 3) for _ in range(d))
                   for _ in range(n)]
        table = sum_table_nd(vectors)
        assert table == dict(enumerate_table_nd(vectors))
        assert sum(table.values()) == 2 ** n


def test_reachable_sums_sorted_and_complete():
    vectors = [(F(1), F(0)), (F(0), F(1)), (F(1, 2), F(1, 2))]
    sums = reachable_sums_nd(vectors)
    assert sums == sorted(sums)
    assert set(sums) == set(sum_table_nd(vectors))
    total = sum(atom_nd(vectors, x) for x in sums)
    assert total == 1


def test_max_atom_examples_and_tie_break():
    target, p = max_atom([(1, 0), (0, 1)])
    assert (target, p) == ((F(-1), F(-1)), F(1, 4))   # all atoms tie at 1/4
    target, p = max_atom([(1, 0), (1, 0)])
    assert (target, p) == ((F(0), F(0)), F(1, 2))
    target, p = max_atom([(1,)])
    assert (target, p) == ((F(-1),), F(1, 2))


def test_max_atom_matches_enumeration():
    rng = random.Random(1110)
    for _ in range(45):
        n = rng.randint(1, 7)
        d = rng.randint(1, 3)
        vectors = [tuple(F(rng.randint(-4, 4), 2) for _ in range(d))
                   for _ in range(n)]
        table = enumerate_table_nd(vectors)
        best_count = max(table.values())
        best_target = min(key for key, c in table.items() if c == best_count)
        assert max_atom(vectors) == (best_target, F(best_count, 2 ** n))
        # packed-code order is the tuple order of the rational sums
        assert reachable_sums_nd(vectors) == sorted(table)


def test_rho_max_examples():
    assert rho_max_1d([1, 1]) == F(1, 2)
    assert rho_max_1d([1, 2, 4]) == F(1, 8)    # all sums distinct
    assert rho_max_1d([1]) == F(1, 2)


def test_rho_max_matches_enumeration_and_uniform_bound():
    rng = random.Random(1111)
    for _ in range(40):
        n = rng.randint(1, 9)
        # nonzero coefficients: the uniform bound needs every |a_i| > 0
        a = [F(rng.choice([c for c in range(-6, 7) if c]), rng.randint(1, 4))
             for _ in range(n)]
        table = enumerate_table_1d(a)
        assert rho_max_1d(a) == F(max(table.values()), 2 ** n)
        assert rho_max_1d(a) == max(atom_1d(a, t) for t in table)
        assert rho_max_1d(a) <= lo_bound(n, 0)


def test_capacity_errors_state_their_limits():
    many = [(F(1), F(0))] * (PROBE_LIMIT + 1)
    with pytest.raises(CapacityError) as exc:
        atom_nd(many, (F(0), F(0)))
    assert str(PROBE_LIMIT) in str(exc.value)

    with pytest.raises(CapacityError) as exc:
        atom_1d([1] * (PROBE_LIMIT + 1), 0)
    assert str(PROBE_LIMIT) in str(exc.value)

    crowded = [(F(1), F(1))] * (EXHAUSTIVE_LIMIT + 1)
    for op in (sum_table_nd, reachable_sums_nd, max_atom):
        with pytest.raises(CapacityError) as exc:
            op(crowded)
        assert str(EXHAUSTIVE_LIMIT) in str(exc.value)
    with pytest.raises(CapacityError):
        sum_table_1d([1] * (EXHAUSTIVE_LIMIT + 1))
    with pytest.raises(CapacityError):
        rho_max_1d([1] * (EXHAUSTIVE_LIMIT + 1))


def test_sign_counter_is_a_full_table_up_to_its_limit():
    rng = random.Random(1113)
    for _ in range(40):
        values = tuple(rng.randint(-9, 9) or 1
                       for _ in range(rng.randint(1, 10)))
        table = enumerate_table_1d(values)
        count = sign_counter(values)
        reach = sum(map(abs, values))
        for key in range(-reach - 1, reach + 2):
            assert count(key) == table.get(key, 0)
    assert sign_counter((1,) * EXHAUSTIVE_LIMIT)(0) == math.comb(
        EXHAUSTIVE_LIMIT, EXHAUSTIVE_LIMIT // 2)
    with pytest.raises(CapacityError) as exc:
        sign_counter((1,) * (EXHAUSTIVE_LIMIT + 1))
    assert str(EXHAUSTIVE_LIMIT) in str(exc.value)


def test_mitm_reaches_beyond_direct_limit():
    # The full tables stop at EXHAUSTIVE_LIMIT; the probe goes on.
    n = EXHAUSTIVE_LIMIT + 4
    assert atom_1d([1] * n, n) == F(1, 2 ** n)
    assert atom_1d([1] * n, n - 2) == F(n, 2 ** n)
