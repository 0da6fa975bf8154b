"""Core types, parsing, the bit-vector engine, and the closed forms.

Expected sumset values in this file were computed by direct enumeration
of multiplicity vectors (itertools.product over 0..r per element),
independently of the package, and frozen here.
"""

import itertools
import random
import sys
import threading
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
    brute_force_sumset,
    check_complement_identity,
    classical_sumset,
    extremes_closed_form,
    generalized_sumset,
    is_prime,
    parse_ground_set,
    restricted_sumset,
    split_h,
)
from sumsetlab import core
from sumsetlab.core import _validate_params
from sumsetlab.scan import _scan


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
    # h < r: the cap never binds and the bound is min(p, h*k - h + 1)
    assert bound_direct_mod_p(3, 1, 2, 7) == 3
    assert bound_direct_mod_p(5, 3, 4, 17) == bound_cauchy_davenport(5, 3, 17) == 13
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


def test_extremes_refuse_only_h_above_rk():
    """The closed form allocates no DP, so a set too wide for the
    engine's mask guard still has extremes; h > r*k is refused."""
    wide = GroundSet((0, 2**40))
    with pytest.raises(DomainError, match=r"2\*\*33-bit guard"):
        generalized_sumset(wide, SumParams(2, 1))
    assert extremes_closed_form(wide, SumParams(2, 1)) == (2**40, 2**40)
    with pytest.raises(DomainError, match=r"h <= r\*k required"):
        extremes_closed_form(wide, SumParams(3, 1))


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
    # No factor up to 37, so Miller-Rabin decides: 41 * 43, and a strong
    # pseudoprime to the bases 2, 3, 5 and 7 that base 11 exposes.
    assert not is_prime(1763)
    assert not is_prime(3_215_031_751)
    assert is_prime(1759) and is_prime(3_215_031_767)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)
    assert is_prime(2**64 - 59)  # the largest 64-bit prime


# 399165290221 * 798330580441: the smallest strong pseudoprime to all
# of the bases 2, 3, ..., 37 that the primality test uses.
PSEUDOPRIME = 318665857834031151167461


def test_is_prime_refuses_above_64_bits():
    """Above 2**64 a composite can pass every base, so no answer is given."""
    for n in (2**64, PSEUDOPRIME, 2**89 - 1):
        with pytest.raises(DomainError, match="below 2\\*\\*64"):
            is_prime(n)
    with pytest.raises(DomainError, match="below 2\\*\\*64"):
        GroundSet.of([0, 1], PSEUDOPRIME)


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


def test_sets_iterate_in_ascending_order():
    g = GroundSet.of([3, 1, 2], 7)
    assert list(g) == [1, 2, 3]
    assert 2 in g and 0 not in g
    result = generalized_sumset(GroundSet.of([2, 0, 1]), SumParams(h=3, r=2))
    assert list(result) == [1, 2, 3, 4, 5]
    assert 5 in result and 0 not in result


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
    # 2 masks of 2**32 bits: at the limit; one bit wider each: refused
    _validate_params(GroundSet((0, 2**32 - 1)), 1, 1)
    with pytest.raises(DomainError, match="= 8589934594 bits"):
        _validate_params(GroundSet((0, 2**32)), 1, 1)


def test_restricted_needs_h_at_most_k():
    with pytest.raises(DomainError):
        restricted_sumset(GroundSet.of([0, 1, 2]), 4)


def test_bound_hypothesis_errors():
    with pytest.raises(DomainError):
        bound_direct_integers(3, 7, 2)  # h > r*k
    with pytest.raises(DomainError, match="^k >= 1 required, got k=0$"):
        bound_direct_integers(0, 1, 1)
    with pytest.raises(DomainError, match="^r >= 1 required, got r=0$"):
        bound_direct_integers(1, 1, 0)
    with pytest.raises(DomainError):
        bound_direct_mod_p(3, 7, 2, 7)  # h > r*k
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


# ===================== the packed step =====================


def _slotwise(dp, a, t, r, p):
    """The mask at t after the element a joins the masks ``dp``, one slot
    at a time: the OR of dp[t - c] << c*a over c = 0..min(r, t), folded
    once onto p bits mod p."""
    acc = 0
    for c in range(min(r, t) + 1):
        acc |= dp[t - c] << (c * a if p is None else c * a % p)
    if p is not None:
        acc = (acc & ((1 << p) - 1)) | (acc >> p)
    return acc


def _slot(row, t, stride):
    return (row >> t * stride) & ((1 << stride) - 1)


@pytest.mark.parametrize("p", [None, 2, 3, 5, 13])
@pytest.mark.parametrize("r", [0, 1, 2, 3, 4, 7, 8])  # r + 1 at the doubling boundaries
@settings(max_examples=25, deadline=None)
@given(height=st.integers(0, 7), slack=st.integers(0, 9), data=st.data())
def test_packed_step_matches_the_slotwise_step(p, r, height, slack, data):
    """``_step`` on a packed row, with the element's ``_shifts`` at cap r,
    equals the slot-by-slot step at every t <= height, for any masks in the
    slots, also when r exceeds the height; the cap min(r, height) changes
    no bit; and nothing is kept above the height."""
    if p is None:
        a = data.draw(st.integers(0, 9), label="a")
        dp = data.draw(st.lists(st.integers(0, 63), min_size=height + 1, max_size=height + 1))
        stride = 6 + height * a + slack  # the widest slot after the step
    else:
        a = data.draw(st.integers(0, p - 1), label="a")
        dp = data.draw(st.lists(st.integers(0, 2**p - 1), min_size=height + 1,
                                max_size=height + 1))
        stride = 2 * p
    width = stride if p is None else p
    keep = core._keep(height, stride, p)
    assert keep == sum(((1 << width) - 1) << t * stride for t in range(height + 1))
    row = sum(mask << t * stride for t, mask in enumerate(dp))
    stepped = core._step(p, keep, row, core._shifts(r, stride, p, a))
    assert stepped == core._step(p, keep, row, core._shifts(min(r, height), stride, p, a))
    assert stepped >> (height + 1) * stride == 0
    for t in range(height + 1):
        want = _slotwise(dp, a, t, r, p)
        assert _slot(stepped, t, stride) == want, t


# ===================== profiles and the memo =====================


def _profile_sets(max_k):
    """Sets of up to ``max_k`` elements over Z, negative elements included,
    and mod 2, 3, 5, 7 and 13."""
    integers = st.lists(st.integers(-9, 9), min_size=1, max_size=max_k, unique=True)
    residues = st.sampled_from([2, 3, 5, 7, 13]).flatmap(lambda p: st.lists(
        st.integers(0, p - 1), min_size=1, max_size=min(max_k, p), unique=True,
    ).map(lambda xs: GroundSet.of(xs, p)))
    return st.one_of(integers.map(GroundSet.of), residues)


@settings(max_examples=120, deadline=None)
@given(ground=_profile_sets(5), r=st.integers(1, 4))
def test_profile_slots_match_the_oracle(ground, r):
    """Slot t of one profile at height r*k is t^(r)A, read for its values
    and its cardinality, at every 1 <= t <= r*k, over Z and mod p."""
    top = r * ground.size
    prof = core.profile(ground, r, top)
    for t in range(1, top + 1):
        want = brute_force_sumset(ground, SumParams(t, r))
        assert prof.sumset(t) == want, t
        assert prof.cardinality(t) == want.cardinality, t
    assert prof.sumset(0).values == (0,)
    with pytest.raises(DomainError):
        prof.mask(top + 1)


def test_profile_refuses_what_a_call_at_its_height_refuses():
    with pytest.raises(DomainError, match="h <= r\\*k"):
        core.profile(GroundSet((0, 1, 2)), 2, 7)
    with pytest.raises(DomainError, match="64-bit"):
        core.profile(GroundSet((0, 2**62)), 2, 3)
    # mod p a packed slot has 2p bits: within the per-t guard, not packed
    ground = GroundSet((0, 1), 2**31 - 1)
    _validate_params(ground, 3, 2)
    with pytest.raises(DomainError, match="packed row of 2p-bit slots"):
        core.profile(ground, 2, 3)


@pytest.fixture
def fresh_memo():
    """An empty memo for this test, emptied again after it, so that no
    profile built under a patched cap outlives the patch."""
    core._kept.cache_clear()
    yield
    core._kept.cache_clear()


def _cold(ground, params):
    """The engine with nothing kept from earlier calls."""
    core._kept.cache_clear()
    return generalized_sumset(ground, params)


def _pairs(k, max_r=3, max_h=6):
    return [(h, r) for r in range(1, max_r + 1) for h in range(1, min(r * k, max_h) + 1)]


def _counting(monkeypatch, name):
    """The arguments of each call of the engine function ``name``."""
    calls = []
    engine = getattr(core, name)
    monkeypatch.setattr(core, name, lambda *a: calls.append(a) or engine(*a))
    return calls


def _check_profile(ground, r):
    """The memo's profile of (ground, r), if it keeps one, is of that set
    at r, at height r*k in slots of r*k*span + 1 bits over Z and 2p mod p,
    within the memo's bit cap; its row equals a cold DP's, stepped here one
    element at a time, and every slot t >= 1 is the oracle's t^(r)A."""
    A, p = ground.elements, ground.modulus
    prof = core._kept(A, p, r)
    if prof is None:
        return
    assert (prof.ground, prof.r) == (ground, r)
    assert prof.height == r * len(A)
    assert prof.stride == (r * len(A) * (A[-1] - A[0]) + 1 if p is None else 2 * p)
    assert (prof.height + 1) * prof.stride <= core._MEMO_MAX_BITS
    keep = core._keep(prof.height, prof.stride, p)
    row = 1
    for a in A:
        row = core._step(p, keep, row, core._shifts(r, prof.stride, p, a - (A[0] if p is None else 0)))
    assert prof.row == row
    for t in range(1, prof.height + 1):
        assert prof.sumset(t) == brute_force_sumset(ground, SumParams(t, r)), (ground, t, r)


def _check_memo(keys):
    """The memo holds the last ``maxsize`` distinct (set, r) of ``keys``,
    the engine's calls in order, and each passes :func:`_check_profile`."""
    recent = list(dict.fromkeys(reversed(keys)))[:core._kept.cache_parameters()["maxsize"]]
    assert core._kept.cache_info().currsize == len(recent)
    misses = core._kept.cache_info().misses
    for ground, r in recent:
        _check_profile(ground, r)
    assert core._kept.cache_info().misses == misses  # every one was kept


# Sets of one size are listed next to the set they test against, so that
# each (k, r) sees them one after the other in the listed order.
_MEMO_SETS = (
    # k = 1 and k = 2, over Z and mod p
    GroundSet((5,)), GroundSet((-3,)), GroundSet((4,), 7), GroundSet((2,), 7),
    GroundSet((0, 9)), GroundSet((-4, -1)), GroundSet((-4, 5)),
    GroundSet((3, 6), 11), GroundSet((3, 8), 11),
    # negative elements; after the first set: its last element moved, a
    # translate of it, its last prefix element moved, another translate
    GroundSet((-7, -6, -4, 3)), GroundSet((2, 3, 5, 9)), GroundSet((2, 3, 5, 12)),
    GroundSet((-7, -6, -3, 3)), GroundSet((-1, 0, 2, 9)),
    # the last prefix element alone differs
    GroundSet((0, 1, 3, 8)), GroundSet((0, 1, 4, 8)),
    GroundSet((0, 2, 5)), GroundSet((0, 3, 5)), GroundSet((-6, -4, -1)),
    GroundSet((0, 1, 3, 7), 11), GroundSet((0, 1, 4, 7), 11),
    GroundSet((0, 1, 3, 7), 13), GroundSet((2, 5, 6, 10), 13),
    GroundSet((1, 2, 4, 6, 9), 11), GroundSet((1, 2, 4, 7, 9), 11),
    GroundSet((-5, -3, 0, 1, 6)), GroundSet((0, 2, 5, 7, 12)),
)


def _h_orders(sets, rng):
    """Each set's calls grouped by set and then by r, with the h of a group
    ascending, descending, shuffled, or as mirrored pairs (h, rk - h)."""
    orders = {}
    for name in ("ascending", "descending", "shuffled", "mirrored"):
        calls = []
        for g in sets:
            for r in range(1, 4):
                hs = list(range(1, min(r * g.size, 6) + 1))
                if name == "descending":
                    hs.reverse()
                elif name == "shuffled":
                    rng.shuffle(hs)
                elif name == "mirrored":
                    hs = [x for h in hs if h < r * g.size for x in (h, r * g.size - h)]
                calls.extend((g, h, r) for h in hs)
        orders[name] = calls
    return orders


def test_memo_never_shows_in_results(fresh_memo, monkeypatch):
    """In any order of calls every result is a cold call's, and the
    oracle's; within a group of one set and r, only the first call runs a
    DP, one profile at height r*k, and every later h reads its slot."""
    rng = random.Random(20150126)
    sets = list(_MEMO_SETS)
    for _ in range(12):
        k = rng.randint(1, 5)
        sets.append(GroundSet.of(rng.sample(range(-6, 7), k)))
        p = rng.choice((5, 7, 11, 13))
        sets.append(GroundSet.of(rng.sample(range(p), min(k, p)), p))
    sets = list(dict.fromkeys(sets))  # each set's group runs once
    listed = [(g, h, r) for g in sets for h, r in _pairs(g.size)]
    shuffled = list(listed)
    rng.shuffle(shuffled)
    orders = {"listed": listed, "shuffled across sets": shuffled, **_h_orders(sets, rng)}
    expected = {}
    for g, h, r in {call for calls in orders.values() for call in calls}:
        expected[g, h, r] = _cold(g, SumParams(h, r)).values
        assert expected[g, h, r] == brute_force_sumset(g, SumParams(h, r)).values, (g, h, r)
    builds = _counting(monkeypatch, "_profile")
    for name, calls in orders.items():
        core._kept.cache_clear()
        del builds[:]
        warm = []
        for g, h, r in calls:
            before = len(builds)
            values = generalized_sumset(g, SumParams(h, r)).values
            warm.append((values, builds[before:]))
        seen = set()
        for (g, h, r), (got, built) in zip(calls, warm):
            assert got == expected[g, h, r], (name, g, h, r)
            if name in ("listed", "shuffled across sets"):
                continue
            first = (g, r) not in seen
            assert [a[2] for a in built] == ([r * g.size] if first else []), (name, g, h, r)
            seen.add((g, r))
        assert len(builds) < len(calls), name  # the memo really ran
        _check_memo([(g, r) for g, _, r in calls])


def test_result_memo_is_keyed_by_set_and_h(fresh_memo, monkeypatch):
    """Translates, and one set mod two primes, each get their own values;
    a repeated (set, h) returns an equal result without a DP step."""
    steps = _counting(monkeypatch, "_step")
    sets = (GroundSet((0, 1, 3, 7)), GroundSet((5, 6, 8, 12)), GroundSet((-9, -8, -6, -2)),
            GroundSet((0, 1, 3, 7), 11), GroundSet((0, 1, 3, 7), 13))
    for h in (3, 2, 3, 5):
        for g in sets:
            want = brute_force_sumset(g, SumParams(h, 2))
            first = generalized_sumset(g, SumParams(h, 2))
            before = len(steps)
            again = generalized_sumset(g, SumParams(h, 2))
            assert first == again == want, (g, h)
            assert len(steps) == before, (g, h)  # read from the memo
    for h in (2, 3, 5):
        for g in sets:
            assert generalized_sumset(g, SumParams(h, 2)) == brute_force_sumset(g, SumParams(h, 2))
    _check_memo([(g, 2) for g in sets])


def test_sets_of_one_size_are_kept_apart(fresh_memo, monkeypatch):
    """Two sets of one (k, r, p) each keep their own profile, so no set is
    ever read from another set's profile; another r or p is another key."""
    builds = _counting(monkeypatch, "_profile")
    first, second = GroundSet((0, 1, 3)), GroundSet((0, 2, 3))
    for g, built in ((first, True), (second, True), (first, False)):
        del builds[:]
        assert generalized_sumset(g, SumParams(2, 2)) == brute_force_sumset(g, SumParams(2, 2))
        assert [a[0] for a in builds] == ([g] if built else [])
    generalized_sumset(GroundSet((0, 1, 3), 7), SumParams(2, 2))
    generalized_sumset(first, SumParams(2, 1))
    _check_memo([(second, 2), (first, 2), (GroundSet((0, 1, 3), 7), 2), (first, 1)])


def test_memo_keeps_the_last_sets_called_for(fresh_memo, monkeypatch):
    """After more than ``maxsize`` distinct (A, r), the first is rebuilt,
    with the oracle's values; within the last ``maxsize`` none is."""
    size = core._kept.cache_parameters()["maxsize"]
    builds = _counting(monkeypatch, "_profile")
    keys = [(GroundSet((0, 1, 3 + i // 2)), 1 + i % 2) for i in range(size + 1)]
    for g, r in keys:
        generalized_sumset(g, SumParams(2, r))
    assert [(a[0], a[1]) for a in builds] == keys
    del builds[:]
    for g, r in keys[1:]:  # the last maxsize, read
        generalized_sumset(g, SumParams(1, r))
    assert builds == []
    g, r = keys[0]
    assert generalized_sumset(g, SumParams(2, r)) == brute_force_sumset(g, SumParams(2, r))
    assert [(a[0], a[1]) for a in builds] == [keys[0]]
    _check_memo(keys[1:] + keys[:1])


def test_set_built_from_a_list_is_computed():
    """``GroundSet`` validates a list of elements as it does a tuple, and
    the engine and the checkers compute on it, kept or too wide to keep."""
    for elements, h, r in (([0, 1, 3], 2, 2), ([0, 1, 10**6], 2, 3)):
        ground, tupled = GroundSet(elements), GroundSet(tuple(elements))
        want = brute_force_sumset(tupled, SumParams(h, r))
        assert generalized_sumset(ground, SumParams(h, r)) == want
        assert check_complement_identity(ground, SumParams(h, r)).equal
    assert generalized_sumset(GroundSet([0, 1, 3]), SumParams(2, 2)).values == (0, 1, 2, 3, 4, 6)
    assert generalized_sumset(GroundSet([0, 1, 3], 5), SumParams(2, 2)).values == (0, 1, 2, 3, 4)


def test_height_falls_back_to_h_for_a_wider_set(fresh_memo, monkeypatch):
    """A set whose row at r*k fits the bit cap builds, and keeps, its
    profile there; a set too wide for it, or one that the 64-bit guard
    refuses at r*k but not at h, runs at its own h, packed, where it
    builds a profile at h, or per t, and keeps nothing."""
    monkeypatch.setattr(core, "_MEMO_MAX_BITS", 2**15)
    core._kept.cache_clear()
    builds = _counting(monkeypatch, "_profile")
    steps = _counting(monkeypatch, "_step")
    big = 2**61
    keys = []
    for elements, kept, packed in (
        ((0, 1, 2), True, True),  # 7 slots of 13 bits fit
        ((0, 1, 300), True, True),  # 7 slots of 1 801 bits fit
        ((0, 1, 800), False, True),  # 7 slots of 4 801 bits do not
        ((0, 1, 3000), False, False),  # nor of 18 001, and per t at h
        ((big, big + 1, big + 2), False, True),  # 6 * 2**61 > 2**63
    ):
        ground = GroundSet(elements)
        del builds[:], steps[:]
        want = brute_force_sumset(ground, SumParams(2, 2))
        assert generalized_sumset(ground, SumParams(2, 2)) == want
        assert [a[2] for a in builds] == ([6] if kept else [2] if packed else []), elements
        assert (len(steps) > 0) == packed, elements
        assert (core._kept(elements, None, 2) is not None) == kept, elements
        keys.append((ground, 2))
    _check_memo(keys)


def test_memo_stays_within_its_caps(fresh_memo, monkeypatch):
    monkeypatch.setattr(core, "_MEMO_MAX_BITS", 3000)
    core._kept.cache_clear()
    size = core._kept.cache_parameters()["maxsize"]
    rng = random.Random(7)
    # A small pool, so that sets and h repeat and the memo is read.
    pool = [GroundSet.of(rng.sample(range(-8, 9), rng.randint(1, 6))) for _ in range(12)]
    keys = []
    for _ in range(600):
        ground = rng.choice(pool)
        h, r = rng.choice(_pairs(ground.size, max_r=4, max_h=8))
        values = generalized_sumset(ground, SumParams(h, r)).values
        keys.append((ground, r))
        assert core._kept.cache_info().currsize <= size
        assert values == brute_force_sumset(ground, SumParams(h, r)).values
        _check_profile(ground, r)
    hits = core._kept.cache_info().hits
    _check_memo(keys)
    assert hits > 0


@pytest.mark.parametrize(
    "elements, modulus, h, r",
    [
        # wide masks, which run per t
        (tuple(range(-500_000, -492_000, 200)) + (-492_000,), None, 3, 1),
        (tuple(range(0, 20_000, 500)), 20_011, 3, 1),
        # narrower masks, but r*k + 1 slots of them above the bit cap
        (tuple(range(0, 2_400, 100)) + (2_500,), None, 4, 2),
        # packed, but 81 slots of 16 001 bits are above the bit cap
        ((0, 37, 90, 151, 200), None, 16, 16),
    ],
)
def test_wide_call_leaves_the_prefix_store_alone(fresh_memo, elements, modulus, h, r):
    """A set too wide to keep at r*k keeps no profile, and leaves the
    profiles of narrow sets, one of its own (k, r, p), as they were."""
    ground = GroundSet(elements, modulus)
    narrow = [(GroundSet((0, 1, 3)), 1), (GroundSet(tuple(range(len(elements))), modulus), r)]
    for g, r_narrow in narrow:
        generalized_sumset(g, SumParams(2, r_narrow))
    before = [core._kept(g.elements, g.modulus, r_narrow) for g, r_narrow in narrow]
    if modulus is None:  # mod 20 011 no set of 40 residues is narrow enough
        assert before[1] is not None
    for _ in range(2):
        values = generalized_sumset(ground, SumParams(h, r)).values
        assert core._kept(elements, modulus, r) is None
    after = [core._kept(g.elements, g.modulus, r_narrow) for g, r_narrow in narrow]
    assert all(a is b for a, b in zip(after, before))
    assert values == brute_force_sumset(ground, SumParams(h, r)).values


@pytest.mark.parametrize(
    "elements, modulus, h, r, packed",
    [
        ((0, 1, 2, 3, 40_000), None, 6, 6, False),  # one far element sets a wide stride
        ((0, 1, 2, 3), 20_011, 8, 8, False),  # 2p-bit slots around a few sums
        (tuple(range(0, 2_000, 100)), None, 4, 2, False),
        ((0, 1, 2, 3, 7), None, 6, 6, True),
        ((0, 1, 3, 7), 101, 8, 8, True),
        ((0, 2, 3, 7, 11, 12), None, 8, 4, True),
    ],
)
def test_cost_rule_picks_the_step(fresh_memo, monkeypatch, elements, modulus, h, r, packed):
    """Wide rows run per t and keep nothing, narrow rows run packed and
    keep their profile; both give the oracle's values."""
    ground = GroundSet.of(elements, modulus)
    steps = _counting(monkeypatch, "_step")
    per_t = _counting(monkeypatch, "_mask_at")
    got = generalized_sumset(ground, SumParams(h, r))
    assert got == brute_force_sumset(ground, SumParams(h, r))
    assert (len(steps) > 0, len(per_t) > 0) == (packed, not packed)
    assert (core._kept(ground.elements, modulus, r) is not None) == packed


def test_narrow_masks_mod_a_large_p_match_the_oracle(fresh_memo, monkeypatch):
    """A per-t call whose masks stay far below p bits, {0, 1, 2, 3} mod
    20 000 003 at h = r = 8, gives the oracle's values: a mask with no bit
    at or above p is left unfolded, and that is exact."""
    ground = GroundSet((0, 1, 2, 3), 20_000_003)
    per_t = _counting(monkeypatch, "_mask_at")
    got = generalized_sumset(ground, SumParams(8, 8))
    assert per_t and got == brute_force_sumset(ground, SumParams(8, 8))
    assert got.values == tuple(range(25))


@pytest.mark.parametrize("packed", [True, False])
def test_both_layouts_match_the_oracle(fresh_memo, monkeypatch, packed):
    """The engine with its DP packed and per t, whichever the cost rule
    would choose, against the oracle: every set of up to 4 elements of
    {-2, ..., 3} and mod 2, 3, 5 and 7, r <= 3, h <= min(r*k, 6).  Packed
    runs twice: from kept profiles at r*k, and with nothing kept, from one
    profile built at each call's own h."""
    monkeypatch.setattr(core, "_packs", lambda *args: packed)
    builds = _counting(monkeypatch, "_profile")
    sets = [GroundSet(c) for k in range(1, 5) for c in itertools.combinations(range(-2, 4), k)]
    sets += [GroundSet(c, p) for p in (2, 3, 5, 7) for k in range(1, min(p, 4) + 1)
             for c in itertools.combinations(range(p), k)]
    for cap in ([core._MEMO_MAX_BITS] if packed else []) + [-1]:
        monkeypatch.setattr(core, "_MEMO_MAX_BITS", cap)
        core._kept.cache_clear()
        del builds[:]
        keys = []
        for g in sets:
            for h, r in _pairs(g.size):
                want = brute_force_sumset(g, SumParams(h, r))
                before = len(builds)
                assert generalized_sumset(g, SumParams(h, r)) == want, (g, h, r, cap)
                if cap < 0:
                    assert builds[before:] == ([(g, r, h)] if packed else []), (g, h, r)
                keys.append((g, r))
        if cap >= 0:
            _check_memo(keys)


def test_cost_rule_bounds_the_packed_row():
    """The rule prices a doubling at two per-t shifts plus one per 2**12
    bits, and never packs a row above the mask guard."""
    # A step at h = r = 1: one doubling over 2 slots against 2 masks of 1
    # and 2 shifts.
    assert core._packs(1, 1, 6144) and not core._packs(1, 1, 6145)
    assert core._packs(10**4, 10**4, 5 * 10**5)
    assert not core._packs(10**4, 10**4, 10**6)  # 10 001 slots > 2**33 bits


def test_each_walk_prices_what_it_steps(fresh_memo, monkeypatch):
    """An uncached engine call prices one step at h in slots of
    h * span + 1 bits over Z and 2p mod p, once; a scan point prices
    nothing, since it walks packed rows only."""
    priced = _counting(monkeypatch, "_packs")
    monkeypatch.setattr(core, "_MEMO_MAX_BITS", 0)  # every engine call walks
    for elements, p, h, r in (((0, 2, 3, 7), None, 3, 2), ((-5, 0, 6, 40), None, 5, 2),
                              ((1, 4, 9), 11, 4, 4), ((0, 3, 5, 6, 9), 13, 2, 1),
                              ((-5, 0, 6, 40), None, 3, 1)):
        del priced[:]
        generalized_sumset(GroundSet(elements, p), SumParams(h, r))
        stride = h * (elements[-1] - elements[0]) + 1 if p is None else 2 * p
        assert priced == [(h, r, stride)]
    for k, h, r, p, largest in ((3, 4, 2, None, 9), (4, 6, 6, None, 7), (5, 2, 1, 13, 12),
                                (3, 3, 3, 7, 6)):
        del priced[:]
        # At bound 0 no candidate reaches the engine's recheck.
        _scan("extremal", k, SumParams(h, r), p, largest, 0, False, "", 10**8, 1, None, None)
        assert priced == []


@pytest.mark.parametrize("packed", [True, False])
@pytest.mark.parametrize("elements, p, h, r", [
    pytest.param(elements, p, h, r,
                 id=f"{'Z' if p is None else f'mod{p}'}-k{len(elements)}-h{h}-r{r}")
    for elements, p, h, r in (
        ((3,), None, 2, 2), ((-4, 1, 2, 9), None, 3, 2), ((0, 2, 3, 7, 8), None, 7, 5),
        ((1, 5, 6), None, 2, 1), ((2,), 7, 4, 6), ((0, 2, 3, 6), 7, 3, 3),
        ((1, 4, 5, 6), 7, 9, 4), ((0, 1, 4, 9, 11), 13, 2, 1), ((3, 5, 12), 13, 6, 6),
        ((0, 7, 8, 10), 13, 10, 5),
    )
])
def test_walk_reads_the_profiles_masks(monkeypatch, packed, elements, p, h, r):
    """A row of the packed format at h (``_packed``, which the scans walk),
    stepped from 1 by all but the last element, holds at offsets[c] the
    masks of the first k - 1 elements' profile at t = h - c, c = 0..m,
    m = min(r, h), and 0 at every further offset, whatever the cost rule
    answers: the format does not ask it."""
    monkeypatch.setattr(core, "_packs", lambda *args: packed)
    k, base = len(elements), elements[0] if p is None else 0
    stride, step, shifts, offsets, cut = core._packed(h, r, p, elements[-1] - base)
    row = 1
    for a in elements[:-1]:
        row = step(row, shifts(a - base))
    m = min(r, h)
    if k > 1:
        prefix = core.profile(GroundSet(elements[:-1], p), r, min(h, r * (k - 1)))
        want = [prefix.mask(h - c) if h - c <= prefix.height else 0 for c in range(m + 1)]
    else:
        want = [int(h == c) for c in range(m + 1)]  # the empty set's sums
    assert len(offsets) == max(m, 3) + 1 and max(want) > 0
    assert cut == (1 << stride) - 1
    assert [row >> offset & cut for offset in offsets] == want + [0] * (3 - m)


def test_memo_across_threads(fresh_memo):
    rng = random.Random(3)
    sets = list(_MEMO_SETS[9:])
    calls = [(g, h, r) for g in sets for h, r in _pairs(g.size, max_h=4)]
    expected = {(g, h, r): _cold(g, SumParams(h, r)).values for g, h, r in calls}
    orders = []
    for _ in range(2):
        order = calls * 3
        rng.shuffle(order)
        orders.append(order)
    # Two threads run each set's calls together, every h twice, so that
    # they read the memo while the others replace entries.
    for _ in range(2):
        order = []
        for g in rng.sample(sets, len(sets)):
            group = [(g, h, r) for h, r in _pairs(g.size, max_h=4)] * 2
            rng.shuffle(group)
            order.extend(group)
        orders.append(order)
    wrong = []

    def work(order):
        for g, h, r in order:
            if generalized_sumset(g, SumParams(h, r)).values != expected[g, h, r]:
                wrong.append((g, h, r))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(o,)) for o in orders]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    for g, r in dict.fromkeys((g, r) for g, _, r in calls):
        _check_profile(g, r)
