"""Core types, parsing, the bit-vector engine, and the closed forms.

Expected sumset values in this file were computed by direct enumeration
of multiplicity vectors (itertools.product over 0..r per element),
independently of the package, and frozen here.
"""

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
    _validate_params(GroundSet((0, 2**32 - 1)), SumParams(h=1, r=1))
    with pytest.raises(DomainError, match="= 8589934594 bits"):
        _validate_params(GroundSet((0, 2**32)), SumParams(h=1, r=1))


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


# ===================== cross-call reuse =====================


@pytest.fixture
def fresh_store(monkeypatch):
    """An empty store for this test; the process's own is put back after
    it."""
    monkeypatch.setattr(core, "_reuse", {})
    monkeypatch.setattr(core, "_reuse_bits", 0)


def _cold(ground, params):
    """The engine with nothing kept from earlier calls."""
    core._reuse.clear()
    core._reuse_bits = 0
    return generalized_sumset(ground, params)


def _pairs(k, max_r=3, max_h=6):
    return [(h, r) for r in range(1, max_r + 1) for h in range(1, min(r * k, max_h) + 1)]


def _counting(monkeypatch, name):
    """Count the calls of the engine function ``name``."""
    calls = []
    engine = getattr(core, name)
    monkeypatch.setattr(core, name, lambda *a: calls.append(1) or engine(*a))
    return calls


def _check_store():
    """Every entry is charged the one rule's (k + 1) * (H + 1) * W(H) bits,
    holds no result above its height, and every kept result is the
    oracle's value for the entry's set."""
    for (k, r, p), (prefix, rows, height, bits, elements, results) in core._reuse.items():
        span = elements[-1] - elements[0]

        def width(t):
            return t * span + 1 if p is None else p

        assert len(elements) == k and len(prefix) == k - 1 and len(rows) == k
        assert all(len(row) == height + 1 for row in rows)
        assert bits == (k + 1) * (height + 1) * width(height)
        for h, result in results.items():
            assert h <= height
            ground = GroundSet(elements, p)
            assert result == brute_force_sumset(ground, SumParams(h, r))
    assert core._reuse_bits == sum(entry[3] for entry in core._reuse.values())


# Sets of one size are listed next to the set they test against, so that
# each (k, r) sees them one after the other in the listed order.
_REUSE_SETS = (
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


def test_prefix_reuse_never_shows_in_results(fresh_store, monkeypatch):
    rng = random.Random(20150126)
    sets = list(_REUSE_SETS)
    for _ in range(12):
        k = rng.randint(1, 5)
        sets.append(GroundSet.of(rng.sample(range(-6, 7), k)))
        p = rng.choice((5, 7, 11, 13))
        sets.append(GroundSet.of(rng.sample(range(p), min(k, p)), p))
    listed = [(g, h, r) for g in sets for h, r in _pairs(g.size)]
    shuffled = list(listed)
    rng.shuffle(shuffled)
    orders = {"listed": listed, "shuffled across sets": shuffled, **_h_orders(sets, rng)}
    expected = {}
    for g, h, r in {call for calls in orders.values() for call in calls}:
        expected[g, h, r] = _cold(g, SumParams(h, r)).values
        assert expected[g, h, r] == brute_force_sumset(g, SumParams(h, r)).values, (g, h, r)
    steps = _counting(monkeypatch, "_extend")
    for name, calls in orders.items():
        core._reuse.clear()
        core._reuse_bits = 0
        del steps[:]
        warm = []
        for g, h, r in calls:
            before = len(steps)
            warm.append((generalized_sumset(g, SumParams(h, r)).values, len(steps) - before))
        top, highest = {}, {}
        for g, h, r in calls:
            top[g, r] = max(h, top.get((g, r), 0))
        for (g, h, r), (got, ran) in zip(calls, warm):
            assert got == expected[g, h, r], (name, g, h, r)
            if name in ("listed", "shuffled across sets"):
                continue
            # Within a group, once the group's largest h has run, every
            # further h reads the kept rows alone.
            if highest.get((g, r)) == top[g, r]:
                assert ran == 0, (name, g, h, r)
            highest[g, r] = max(h, highest.get((g, r), 0))
        cold_steps = sum(g.size - 1 for g, _, _ in calls)
        assert len(steps) < cold_steps, name  # the reuse really ran
        _check_store()


def test_result_memo_is_keyed_by_set_and_h(fresh_store, monkeypatch):
    """Translates share DP rows but each gets its own values; a repeated
    (set, h) returns an equal result without a DP step."""
    steps = _counting(monkeypatch, "_mask_at")
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
    _check_store()


def test_height_falls_back_to_h_for_a_wider_set(fresh_store):
    """A set too wide for its key's height runs, and is kept, at its own h."""
    generalized_sumset(GroundSet((0, 1, 2)), SumParams(6, 2))
    assert core._reuse[3, 2, None][2] == 6
    wide = GroundSet((0, 1, 3000))  # 7 masks of 18 001 bits at height 6
    assert generalized_sumset(wide, SumParams(2, 2)) == brute_force_sumset(wide, SumParams(2, 2))
    assert core._reuse[3, 2, None][2] == 2
    _check_store()


def test_prefix_store_stays_within_its_caps(fresh_store, monkeypatch):
    monkeypatch.setattr(core, "_REUSE_MAX_KEYS", 6)
    monkeypatch.setattr(core, "_REUSE_MAX_BITS", 3000)
    rng = random.Random(7)
    # A small pool, so that sets and h repeat and the memo is read.
    pool = [GroundSet.of(rng.sample(range(-8, 9), rng.randint(1, 6))) for _ in range(12)]
    memo_reads = 0
    for _ in range(600):
        ground = rng.choice(pool)
        h, r = rng.choice(_pairs(ground.size, max_r=4, max_h=8))
        entry = core._reuse.get((ground.size, r, None))
        memo_reads += entry is not None and entry[4] == ground.elements and h in entry[5]
        values = generalized_sumset(ground, SumParams(h, r)).values
        assert len(core._reuse) <= 6
        assert core._reuse_bits <= 3000
        assert values == brute_force_sumset(ground, SumParams(h, r)).values
        _check_store()
    assert memo_reads > 0


@pytest.mark.parametrize(
    "elements, modulus, h, r",
    [
        # wide masks: the entry's charge is over ten times the bit cap
        (tuple(range(-500_000, -492_000, 200)) + (-492_000,), None, 3, 1),
        (tuple(range(0, 20_000, 500)), 20_011, 3, 1),
        # narrower masks, but (k + 1) rows of them above the bit cap
        (tuple(range(0, 2_400, 100)) + (2_500,), None, 4, 2),
    ],
)
def test_wide_call_leaves_the_prefix_store_alone(fresh_store, elements, modulus, h, r):
    """A wide call keeps neither rows nor a result, also under the key of
    a narrow set whose entry is kept."""
    ground = GroundSet(elements, modulus)
    generalized_sumset(GroundSet((0, 1, 3)), SumParams(2, 1))
    generalized_sumset(GroundSet(tuple(range(len(elements))), modulus), SumParams(2, r))
    if modulus is None:  # mod 20 011 no set of 40 residues is narrow enough
        assert (len(elements), r, modulus) in core._reuse
    before = dict(core._reuse), core._reuse_bits
    for _ in range(2):
        values = generalized_sumset(ground, SumParams(h, r)).values
        assert (dict(core._reuse), core._reuse_bits) == before
    assert values == brute_force_sumset(ground, SumParams(h, r)).values


def test_prefix_reuse_across_threads(fresh_store):
    rng = random.Random(3)
    sets = list(_REUSE_SETS[9:])
    calls = [(g, h, r) for g in sets for h, r in _pairs(g.size, max_h=4)]
    expected = {(g, h, r): _cold(g, SumParams(h, r)).values for g, h, r in calls}
    orders = []
    for _ in range(2):
        order = calls * 3
        rng.shuffle(order)
        orders.append(order)
    # Two threads run each set's calls together, every h twice, so that
    # they read and extend the memo while the others replace entries.
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
    _check_store()
