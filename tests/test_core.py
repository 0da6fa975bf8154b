"""Core types, parsing, the bit-vector engine, and the closed forms.

Expected sumset values in this file were computed by direct enumeration
of multiplicity vectors (itertools.product over 0..r per element),
independently of the package, and frozen here.
"""

import warnings

import pytest
from hypothesis import given, settings, strategies as st

from sumsetlab import (
    DomainError,
    GroundSet,
    SetLiteralWarning,
    SumParams,
    bound_cauchy_davenport,
    bound_direct_integers,
    bound_direct_mod_p,
    bound_erdos_heilbronn,
    classical_sumset,
    extremes_closed_form,
    generalized_sumset,
    is_prime,
    parse_ground_set,
    restricted_sumset,
    split_h,
)
from sumsetlab.core import _guard_mask_width


# ===================== frozen examples =====================


def test_generalized_small():
    g = GroundSet.of([0, 1, 2])
    assert generalized_sumset(g, SumParams(h=3, r=2)).values == (1, 2, 3, 4, 5)


def test_generalized_mod_p_full():
    g = GroundSet.of(range(5), 5)
    result = generalized_sumset(g, SumParams(h=3, r=2))
    assert result.values == (0, 1, 2, 3, 4)
    assert result.modulus == 5


def test_classical_cases():
    assert classical_sumset(GroundSet.of([0, 2]), 2).values == (0, 2, 4)
    assert classical_sumset(GroundSet.of([0, 1, 2]), 2).values == (0, 1, 2, 3, 4)


def test_restricted_cases():
    assert restricted_sumset(GroundSet.of(range(5)), 2).values == tuple(range(1, 8))
    assert restricted_sumset(GroundSet.of([0, 1, 3]), 2).values == (1, 3, 4)


def test_interval_cardinality():
    # {0..4} with h=3, r=2 fills [1, 11]; {0..3} with h=6, r=3 fills [3, 15]
    a = generalized_sumset(GroundSet.of(range(5)), SumParams(h=3, r=2))
    assert a.values == tuple(range(1, 12))
    b = generalized_sumset(GroundSet.of(range(4)), SumParams(h=6, r=3))
    assert b.values == tuple(range(3, 16))


def test_negative_elements():
    g = GroundSet.of([-3, 0, 2])
    got = generalized_sumset(g, SumParams(h=2, r=1))
    assert got.values == (-3, -1, 2)


def test_bound_direct_integers_values():
    assert bound_direct_integers(5, 3, 2) == 11
    assert bound_direct_integers(4, 6, 3) == 13
    # r = h collapses to the unrestricted bound, r = 1 to the distinct bound
    assert bound_direct_integers(5, 3, 3) == 3 * 5 - 3 + 1
    assert bound_direct_integers(5, 3, 1) == 3 * 5 - 9 + 1


def test_bound_mod_p_values():
    assert bound_direct_mod_p(5, 3, 2, 5) == 5
    assert bound_direct_mod_p(5, 3, 2, 13) == 11
    assert bound_cauchy_davenport(3, 2, 7) == 5
    assert bound_erdos_heilbronn(5, 2, 13) == 7
    assert bound_erdos_heilbronn(5, 2, 5) == 5


def test_classical_bounds_are_the_mod_p_bound_at_r_h_and_r_1():
    """Cauchy-Davenport and Erdos-Heilbronn, read off the mod-p bound,
    equal their own closed forms and raise on exactly their own domains:
    p prime, 1 <= k <= p, and h >= 1 or 1 <= h <= k respectively."""
    for p in (2, 3, 4, 5, 7, 9, 11, 13, 15):
        for k in range(0, p + 2):
            for h in range(-1, k + 3):
                base = is_prime(p) and 1 <= k <= p
                for bound, in_domain, closed in (
                    (bound_cauchy_davenport, base and h >= 1, h * k - h + 1),
                    (bound_erdos_heilbronn, base and 1 <= h <= k, h * k - h * h + 1),
                ):
                    if in_domain:
                        assert bound(k, h, p) == min(p, closed), (bound, k, h, p)
                    else:
                        with pytest.raises(DomainError):
                            bound(k, h, p)


def test_extremes_closed_form_values():
    assert extremes_closed_form(GroundSet.of(range(5)), SumParams(3, 2)) == (1, 11)
    assert extremes_closed_form(GroundSet.of(range(4)), SumParams(6, 3)) == (3, 15)
    # h = r*k uses every element r times
    assert extremes_closed_form(GroundSet.of([0, 2, 5]), SumParams(6, 2)) == (14, 14)


def test_split_h():
    assert split_h(7, 3) == (2, 1)
    assert split_h(6, 3) == (2, 0)
    assert split_h(5, 1) == (5, 0)
    assert split_h(2, 5) == (0, 2)
    with pytest.raises(DomainError):
        split_h(3, 0)
    with pytest.raises(DomainError):
        split_h(-1, 2)


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(561)  # Carmichael
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)


# ===================== validation =====================


def test_ground_set_validation():
    with pytest.raises(DomainError):
        GroundSet(())
    with pytest.raises(DomainError):
        GroundSet((2, 1))
    with pytest.raises(DomainError):
        GroundSet((1, 1, 2))
    with pytest.raises(DomainError):
        GroundSet((0, 1), modulus=4)
    with pytest.raises(DomainError):
        GroundSet((0, 7), modulus=5)
    with pytest.raises(DomainError):
        GroundSet((0, 2**64,))
    # integral floats compare equal to ints but would break the engine
    with pytest.raises(DomainError):
        GroundSet((0, 1.0))
    with pytest.raises(DomainError):
        GroundSet.of([0, 1.0], 5)
    with pytest.raises(DomainError):
        GroundSet(("a",))
    with pytest.raises(DomainError):
        GroundSet((0, 1), modulus=5.0)
    with pytest.raises(DomainError):
        GroundSet.of([0], 41.0)


def test_translate_and_dilate():
    assert GroundSet.of([0, 1, 3]).translate(-2).elements == (-2, -1, 1)
    assert GroundSet.of([0, 1, 3]).dilate(-2).elements == (-6, -2, 0)
    assert GroundSet.of([0, 1, 3], 7).translate(5) == GroundSet((1, 5, 6), 7)
    assert GroundSet.of([0, 1, 3], 7).dilate(3) == GroundSet((0, 2, 3), 7)
    with pytest.raises(DomainError):
        GroundSet.of([0, 1]).dilate(0)


def test_ground_set_of_canonicalizes():
    g = GroundSet.of([3, 1, 1, 2])
    assert g.elements == (1, 2, 3)
    gm = GroundSet.of([8, -1, 3], 7)
    assert gm.elements == (1, 3, 6)


def test_sum_params_validation():
    with pytest.raises(DomainError):
        SumParams(h=0, r=2)
    with pytest.raises(DomainError):
        SumParams(h=3, r=0)
    with pytest.raises(DomainError):
        SumParams(h=2.0, r=1)
    with pytest.raises(DomainError):
        SumParams(h=2, r=1.0)
    p = SumParams(h=7, r=3)
    assert (p.m, p.epsilon) == (2, 1)


def test_domain_h_exceeds_rk():
    with pytest.raises(DomainError, match="h <= r\\*k"):
        generalized_sumset(GroundSet.of([0, 1, 2]), SumParams(h=9, r=2))


def test_magnitude_guard():
    g = GroundSet.of([0, 2**62])
    with pytest.raises(DomainError, match="64-bit"):
        generalized_sumset(g, SumParams(h=3, r=2))


def test_mask_width_guard():
    """h + 1 masks of more than 2**33 bits in all are refused before the
    DP allocates them (test_magnitude_guard's set exceeds both guards, and
    the 64-bit one speaks first)."""
    for ground, params in (
        (GroundSet.of([0, 2**60]), SumParams(h=2, r=1)),  # 3 masks of 2**61 + 1 bits
        (GroundSet.of([0, 1], 2**61 - 1), SumParams(h=2, r=1)),  # 3 of 2**61 - 1
        (GroundSet.of([0]), SumParams(h=2**56, r=2**56)),  # 2**56 + 1 of 1 bit
    ):
        with pytest.raises(DomainError, match="2\\*\\*33-bit guard"):
            generalized_sumset(ground, params)
    _guard_mask_width(1, 2**32 - 1, None)  # 2 masks of 2**32 bits: at the limit
    with pytest.raises(DomainError, match="= 8589934594 bits"):
        _guard_mask_width(1, 2**32, None)


def test_restricted_needs_h_at_most_k():
    with pytest.raises(DomainError):
        restricted_sumset(GroundSet.of([0, 1, 2]), 4)


def test_bound_hypothesis_errors():
    with pytest.raises(DomainError):
        bound_direct_integers(3, 7, 2)  # h > r*k
    with pytest.raises(DomainError):
        bound_direct_mod_p(3, 1, 2, 7)  # r > h
    with pytest.raises(DomainError):
        bound_direct_mod_p(8, 3, 2, 7)  # k > p
    with pytest.raises(DomainError):
        bound_direct_mod_p(3, 4, 2, 15)  # composite p
    with pytest.raises(DomainError):
        bound_erdos_heilbronn(3, 4, 7)  # h > k
    with pytest.raises(DomainError):
        bound_cauchy_davenport(3, 0, 7)


def test_extremes_rejects_modular():
    with pytest.raises(DomainError):
        extremes_closed_form(GroundSet.of([0, 1], 5), SumParams(2, 1))


# ===================== parsing =====================


def test_parse_basic():
    g = parse_ground_set("0,1,3,7")
    assert g.elements == (0, 1, 3, 7) and g.modulus is None


def test_parse_mod():
    g = parse_ground_set("0, 1, 3,7   mod 11")
    assert g.elements == (0, 1, 3, 7) and g.modulus == 11


def test_parse_whitespace_and_negatives():
    with pytest.warns(SetLiteralWarning):  # tokens arrive out of order
        g = parse_ground_set("  -2 ,5,  0 ")
    assert g.elements == (-2, 0, 5)


def test_parse_warns_on_duplicates_and_order():
    with pytest.warns(SetLiteralWarning):
        g = parse_ground_set("3,1,1,2")
    assert g.elements == (1, 2, 3)


def test_parse_warns_on_residue_reduction():
    # 8 reduces to 1 mod 7, so the set collapses to a single residue
    with pytest.warns(SetLiteralWarning):
        g = parse_ground_set("8,1 mod 7")
    assert g.elements == (1,)


def test_parse_clean_literal_warns_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parse_ground_set("0,1,3 mod 7")


def test_parse_errors():
    for bad in ("", " , ,", "0,1 mod 7 mod 11", "0,x,2", "0,1 mod x", "0,1 mod 6"):
        with pytest.raises(DomainError):
            parse_ground_set(bad)


# ===================== properties =====================

small_int_sets = st.lists(
    st.integers(-15, 25), min_size=1, max_size=6, unique=True
).map(lambda xs: GroundSet.of(xs))


def params_for(ground, data, max_r=4, max_h=10):
    r = data.draw(st.integers(1, max_r), label="r")
    h = data.draw(st.integers(1, min(max_h, r * ground.size)), label="h")
    return SumParams(h=h, r=r)


class TestEngineProperties:
    @settings(max_examples=80, deadline=None)
    @given(ground=small_int_sets, data=st.data())
    def test_translation_covariance(self, ground, data):
        params = params_for(ground, data)
        t = data.draw(st.integers(-10, 10), label="t")
        base = generalized_sumset(ground, params)
        moved = generalized_sumset(ground.translate(t), params)
        assert moved.values == tuple(v + params.h * t for v in base.values)

    @settings(max_examples=60, deadline=None)
    @given(ground=small_int_sets, data=st.data())
    def test_dilation_covariance(self, ground, data):
        params = params_for(ground, data)
        c = data.draw(st.sampled_from([-3, -2, -1, 2, 3]), label="c")
        base = generalized_sumset(ground, params)
        scaled = generalized_sumset(ground.dilate(c), params)
        assert scaled.values == tuple(sorted(c * v for v in base.values))

    @settings(max_examples=80, deadline=None)
    @given(ground=small_int_sets, data=st.data())
    def test_nesting_in_r(self, ground, data):
        h = data.draw(st.integers(1, min(8, ground.size * 4)), label="h")
        sets = []
        for r in range(1, 5):
            if h <= r * ground.size:
                sets.append(generalized_sumset(ground, SumParams(h, r)).as_set())
        for smaller, larger in zip(sets, sets[1:]):
            assert smaller <= larger

    @settings(max_examples=80, deadline=None)
    @given(ground=small_int_sets, data=st.data())
    def test_cap_at_h_matches_classical(self, ground, data):
        h = data.draw(st.integers(1, 8), label="h")
        a = generalized_sumset(ground, SumParams(h, h)).values
        assert a == classical_sumset(ground, h).values
        # any cap above h changes nothing
        assert a == generalized_sumset(ground, SumParams(h, h + 3)).values

    @settings(max_examples=80, deadline=None)
    @given(ground=small_int_sets, data=st.data())
    def test_extremes_match_engine(self, ground, data):
        params = params_for(ground, data)
        result = generalized_sumset(ground, params)
        lo, hi = extremes_closed_form(ground, params)
        assert (result.min, result.max) == (lo, hi)

    @settings(max_examples=80, deadline=None)
    @given(
        xs=st.lists(st.integers(0, 40), min_size=1, max_size=6, unique=True),
        p=st.sampled_from([5, 7, 11, 13]),
        data=st.data(),
    )
    def test_mod_p_is_reduction_of_integers(self, xs, p, data):
        gm = GroundSet.of(xs, p)
        gi = GroundSet.of(gm.elements)
        params = params_for(gm, data)
        as_int = generalized_sumset(gi, params)
        as_mod = generalized_sumset(gm, params)
        assert set(as_mod.values) == {v % p for v in as_int.values}

    @settings(max_examples=60, deadline=None)
    @given(ground=small_int_sets, data=st.data())
    def test_integer_bound_holds(self, ground, data):
        params = params_for(ground, data)
        card = generalized_sumset(ground, params).cardinality
        assert card >= bound_direct_integers(ground.size, params.h, params.r)


class TestClassicalBoundsHold:
    @settings(max_examples=60, deadline=None)
    @given(
        xs=st.lists(st.integers(0, 12), min_size=1, max_size=7, unique=True),
        p=st.sampled_from([5, 7, 11, 13]),
        h=st.integers(1, 6),
    )
    def test_unrestricted_mod_p(self, xs, p, h):
        g = GroundSet.of(xs, p)
        card = classical_sumset(g, h).cardinality
        assert card >= bound_cauchy_davenport(g.size, h, p)

    @settings(max_examples=60, deadline=None)
    @given(
        xs=st.lists(st.integers(0, 12), min_size=1, max_size=7, unique=True),
        p=st.sampled_from([5, 7, 11, 13]),
        data=st.data(),
    )
    def test_distinct_mod_p(self, xs, p, data):
        g = GroundSet.of(xs, p)
        h = data.draw(st.integers(1, g.size), label="h")
        card = restricted_sumset(g, h).cardinality
        assert card >= bound_erdos_heilbronn(g.size, h, p)
