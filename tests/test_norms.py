"""Norm evaluation, exact ceilings, closed-form duals, dual witnesses,
and the executable inequality checks."""

import pickle
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from littlewood_offord import (InputError, NormSpec, NormValue,
                               UnsupportedNormOperation, Witness, atom_1d,
                               atom_nd, ceil_norm, dot, double_dual_check,
                               dual_eval, dual_spec, dual_witness,
                               format_norm, holder_check, make_instance,
                               max_atom, norm_eval, parse_norm,
                               reachable_sums_nd, rho_max_1d, sum_table_1d,
                               sum_table_nd, vector)
from littlewood_offord.norms import (ceil_norm_over, integer_witness,
                                     witness_target)

L1, L2, LINF = NormSpec.l1(), NormSpec.l2(), NormSpec.linf()
POLY_CROSS = NormSpec.polyhedral([(1, 0), (1, 1)])

coords = st.fractions(min_value=-3, max_value=3, max_denominator=8)


# Every public entry point that builds rational vectors, each fed one
# float coordinate; 0.5 is refused although its binary fraction is 1/2.
FLOAT_ENTRY_POINTS = {
    "make_instance vectors": lambda x: make_instance([(x, 0)], (0, 0), L1),
    "make_instance target": lambda x: make_instance([(1, 0)], (x, 0), L1),
    "atom_nd vectors": lambda x: atom_nd([(x,)], (0,)),
    "atom_nd target": lambda x: atom_nd([(1,)], (x,)),
    "atom_1d coefficients": lambda x: atom_1d([x], 0),
    "atom_1d target": lambda x: atom_1d([1], x),
    "sum_table_1d": lambda x: sum_table_1d([x]),
    "sum_table_nd": lambda x: sum_table_nd([(x, 0)]),
    "max_atom": lambda x: max_atom([(x,)]),
    "rho_max_1d": lambda x: rho_max_1d([x]),
    "reachable_sums_nd": lambda x: reachable_sums_nd([(x,)]),
    "NormSpec.polyhedral": lambda x: NormSpec.polyhedral([(x,)]),
}


@pytest.mark.parametrize("x", [0.1, 0.5])
@pytest.mark.parametrize("entry", list(FLOAT_ENTRY_POINTS))
def test_float_coordinates_are_refused(entry, x):
    with pytest.raises(InputError, match="exact rationals"):
        FLOAT_ENTRY_POINTS[entry](x)


def test_vector_takes_ints_fractions_and_their_strings():
    assert vector((1, F(1, 2), "-3/4", "2")) == (1, F(1, 2), F(-3, 4), 2)
    assert all(type(c) is F for c in vector((1, "2")))


@st.composite
def vector_pairs(draw, min_d=1, max_d=4):
    d = draw(st.integers(min_value=min_d, max_value=max_d))
    strat = st.tuples(*([coords] * d))
    return draw(strat), draw(strat)


def witness_attains(spec, x):
    """<x, w> = ||x|| * s, exactly (squared comparison for l2 scales)."""
    w = dual_witness(spec, x)
    value = dot(x, w.direction)
    nx = norm_eval(spec, x)
    if w.scale.kind == "squared":
        return value >= 0 and value * value == nx.value * w.scale.value
    return value == nx.value * w.scale.value


def test_norm_spec_factories_and_validation():
    assert L1.kind == "l1"
    assert POLY_CROSS.dimension == 2
    with pytest.raises(InputError):
        NormSpec("l7")
    with pytest.raises(InputError):
        NormSpec("lp")                       # no float-mode family
    with pytest.raises(InputError):
        NormSpec.polyhedral([])
    with pytest.raises(InputError):
        NormSpec.polyhedral([(1, 0), (2, 0)])  # rank 1 in dimension 2
    with pytest.raises(InputError):
        NormSpec.polyhedral([(1, 0), (1, 1, 0)])
    with pytest.raises(InputError):
        NormSpec("l1", functionals=((F(1),),))


def test_norm_records_are_immutable_values():
    poly = parse_norm("poly:[1/2,0;0,1/3;1,1]")
    same = NormSpec.polyhedral([(F(2, 4), 0), (0, F(1, 3)), (1, 1)])
    assert (poly.kind, poly.dimension) == ("poly", 2)
    assert poly.integer_functionals == (6, ((3, 0), (0, 2), (6, 6)))
    assert poly == same and hash(poly) == hash(same)
    assert poly != POLY_CROSS and poly != L1 and L1 == NormSpec("l1")
    # integer_functionals stays out of repr; a pickle rebuilds it.
    assert repr(L1) == "NormSpec(kind='l1', functionals=())"
    assert "integer_functionals" not in repr(poly)
    back = pickle.loads(pickle.dumps(poly))
    assert back == poly and hash(back) == hash(poly)
    assert back.integer_functionals == poly.integer_functionals
    value = NormValue.squared(F(9, 4))
    assert (value.kind, value.value) == ("squared", F(9, 4))
    witness = Witness((F(1), F(0)), value)
    assert (witness.direction, witness.scale) == ((F(1), F(0)), value)
    assert witness == Witness((F(1), F(0)), NormValue.squared(F(9, 4)))
    assert pickle.loads(pickle.dumps(witness)) == witness
    for record, name in ((poly, "kind"), (poly, "functionals"),
                         (poly, "integer_functionals"), (value, "value"),
                         (witness, "scale")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        del poly.kind


def test_norm_eval_examples():
    assert norm_eval(L1, (F(3), F(-4))).value == 7
    assert norm_eval(L2, (F(3), F(-4))).value == 25       # exact square
    assert norm_eval(L2, (F(3), F(-4))).kind == "squared"
    assert norm_eval(LINF, (F(3), F(-4))).value == 4
    assert norm_eval(POLY_CROSS, (F(2), F(-3))).value == 2
    with pytest.raises(InputError):
        norm_eval(parse_norm("lp:3"), (F(3), F(-4)))


def test_norm_eval_rejects_bad_dimensions():
    with pytest.raises(InputError):
        norm_eval(POLY_CROSS, (F(1),))
    with pytest.raises(InputError):
        norm_eval(L1, ())


def test_norm_value_zero_detection():
    assert norm_eval(L2, (F(0), F(0))).is_zero()
    assert not norm_eval(L2, (F(0), F(1, 9))).is_zero()


def test_ceil_norm_examples():
    assert ceil_norm(L2, (F(1), F(1))) == 2       # ceil(sqrt(2))
    assert ceil_norm(L1, (F(1, 2), F(1, 2))) == 1
    assert ceil_norm(LINF, (F(0), F(0))) == 0
    assert ceil_norm(POLY_CROSS, (F(2), F(-3))) == 2
    with pytest.raises(InputError):
        ceil_norm(parse_norm("lp:2"), (F(1), F(1)))


def test_ceil_norm_zero_only_at_zero():
    for spec in (L1, L2, LINF, POLY_CROSS):
        assert ceil_norm(spec, (F(0), F(0))) == 0
        assert ceil_norm(spec, (F(0), F(1, 1000))) >= 1


def test_dual_spec_pairs():
    assert dual_spec(L1).kind == "linf"
    assert dual_spec(LINF).kind == "l1"
    assert dual_spec(L2).kind == "l2"
    with pytest.raises(InputError):
        dual_spec(parse_norm("lp:3"))
    with pytest.raises(UnsupportedNormOperation):
        dual_spec(POLY_CROSS)


def test_dual_eval_examples():
    assert dual_eval(L1, (F(3), F(-4))).value == 4        # sup norm
    assert dual_eval(LINF, (F(3), F(-4))).value == 7
    assert dual_eval(L2, (F(3), F(-4))).value == 25
    with pytest.raises(UnsupportedNormOperation):
        dual_eval(POLY_CROSS, (F(1), F(0)))
    with pytest.raises(InputError):
        dual_eval(parse_norm("lp:3"), (F(3), F(-4)))


def test_dual_witness_examples():
    w = dual_witness(L2, (F(3), F(4)))
    assert w.direction == (F(3), F(4))
    assert w.scale.kind == "squared" and w.scale.value == 25

    w = dual_witness(L1, (F(3), F(-4)))
    assert w.direction == (F(1), F(-1))
    assert w.scale.value == 1
    assert dot((F(3), F(-4)), w.direction) == 7

    w = dual_witness(L1, (F(0), F(5)))        # sign(0) = +1
    assert w.direction == (F(1), F(1))

    w = dual_witness(LINF, (F(2), F(-3)))
    assert w.direction == (F(0), F(-1))

    w = dual_witness(POLY_CROSS, (F(2), F(-3)))
    assert w.direction == (F(1), F(0))


def test_dual_witness_linf_tie_breaks_to_smallest_index():
    assert dual_witness(LINF, (F(2), F(-2))).direction == (F(1), F(0))
    assert dual_witness(LINF, (F(-2), F(2))).direction == (F(-1), F(0))
    assert dual_witness(LINF, (F(1), F(2), F(-2))).direction == (F(0), F(1), F(0))


def test_dual_witness_rejects_zero_and_float_mode():
    with pytest.raises(InputError):
        dual_witness(L2, (F(0), F(0)))
    with pytest.raises(InputError):           # lp is rejected as text
        dual_witness(parse_norm("lp:2"), (F(1), F(0)))


@pytest.mark.parametrize("spec", [L1, L2, LINF])
@given(pair=vector_pairs())
def test_holder_inequality_holds(spec, pair):
    x, u = pair
    assert holder_check(spec, x, u)


def test_holder_check_rejects_unsupported():
    with pytest.raises(UnsupportedNormOperation):
        holder_check(POLY_CROSS, (F(1), F(0)), (F(0), F(1)))
    with pytest.raises(InputError):
        holder_check(parse_norm("lp:2"), (F(1), F(0)), (F(0), F(1)))


@pytest.mark.parametrize("spec", [L1, L2, LINF])
@given(pair=vector_pairs())
def test_double_dual_reproduces_norm(spec, pair):
    x, _ = pair
    assert double_dual_check(spec, x)


@pytest.mark.parametrize("spec", [L1, L2, LINF])
@given(pair=vector_pairs())
def test_dual_witness_attains_the_norm(spec, pair):
    x, _ = pair
    if all(c == 0 for c in x):
        return
    assert witness_attains(spec, x)


@pytest.mark.parametrize("spec", [L1, L2, LINF])
@given(pair=vector_pairs())
def test_dual_witness_lies_in_dual_ball(spec, pair):
    x, _ = pair
    if all(c == 0 for c in x):
        return
    w = dual_witness(spec, x)
    nw = dual_eval(spec, w.direction)
    # ||w||_* <= s; for l2 both sides are carried as exact squares, for
    # l1/linf both are plain rationals, so the raw values compare directly.
    assert nw.kind == w.scale.kind
    assert nw.value <= w.scale.value


@given(pair=vector_pairs(min_d=2, max_d=2))
def test_polyhedral_witness_dominated_by_norm(pair):
    # No closed-form dual for facet norms; the witness certificate is
    # |<u, w>| <= ||u|| * s for every u, checked here on samples.
    x, u = pair
    if all(c == 0 for c in x):
        return
    w = dual_witness(POLY_CROSS, x)
    assert witness_attains(POLY_CROSS, x)
    assert abs(dot(u, w.direction)) <= norm_eval(POLY_CROSS, u).value * w.scale.value


def test_norm_text_round_trips():
    for spec in (L1, L2, LINF,
                 NormSpec.polyhedral([(1, 0), (0, 1), (1, 1)]),
                 NormSpec.polyhedral([(F(1, 2), F(-1, 3)), (0, 2)])):
        assert parse_norm(format_norm(spec)) == spec
    assert format_norm(L1) == "l1"
    with pytest.raises(InputError):
        parse_norm("lp:3/2")
    assert format_norm(NormSpec.polyhedral([(1, 0), (1, 1)])) == "poly:[1,0;1,1]"
    assert parse_norm("  l2 ") == L2
    assert parse_norm("poly:[1,0;0,1]") == NormSpec.polyhedral([(1, 0), (0, 1)])


def test_norm_text_rejects_empty_functionals():
    # An empty functional is an error, not a row to skip.
    for bad in ("poly:[1,0;;0,1]", "poly:[1,0;0,1;]", "poly:[;1,0;0,1]",
                "poly:[1,0; ;0,1]"):
        with pytest.raises(InputError, match="empty functional"):
            parse_norm(bad)


@pytest.mark.parametrize("bad", ["l3", "lp:1", "lp:0", "lp:abc", "lp:2",
                                 "lp:3/2", "poly:",
                                 "poly:[]", "poly:[1,0]", "poly:(1,0;0,1)",
                                 "", "linf2"])
def test_norm_text_rejects_garbage(bad):
    with pytest.raises(InputError):
        parse_norm(bad)


POLY_FRAC = NormSpec.polyhedral([(F(1, 2), 0), (F(1, 3), F(2, 3))])


@pytest.mark.parametrize("spec", [L1, L2, LINF, POLY_CROSS, POLY_FRAC])
@given(ints=st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
       den=st.integers(min_value=1, max_value=12))
def test_witness_and_ceiling_on_scaled_integers(spec, ints, den):
    # The chain reads the witness and k off the target scaled to
    # integers; both must agree with the rational computation.
    x = tuple(F(c, den) for c in ints)
    assert ceil_norm_over(spec, ints, den) == ceil_norm(spec, x)
    if ints == (0, 0):
        return
    w, lam = integer_witness(spec, ints)
    assert all(type(c) is int for c in w)
    if spec.kind == "l2":
        assert (w, lam) == (ints, 1)
        assert integer_witness(spec, x) == (x, 1)
    else:
        assert tuple(F(c, lam) for c in w) == dual_witness(spec, x).direction
        # only signs and comparisons enter: the rational target picks
        # the same integer witness
        assert integer_witness(spec, x) == (w, lam)


def test_witness_target_takes_e1_at_zero():
    assert witness_target((0, 0, 0)) == (1, 0, 0)
    assert witness_target((F(0), F(-1))) == (F(0), F(-1))
    # sign(0) = +1: the l1 witness of e_1 is the all-ones vector.
    assert integer_witness(L1, witness_target((0, 0))) == ((1, 1), 1)
