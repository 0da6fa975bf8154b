"""Oracle, bound checkers, complement identity, witness chains, APs.

Frozen values in this file come from direct enumeration of multiplicity
vectors done independently of the package (and for the witness chains,
from stepping through the constructions by hand).
"""

import hashlib
import json
import random
from collections import defaultdict
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from sumsetlab import (
    CheckItem,
    DomainError,
    GroundSet,
    SumParams,
    SumsetResult,
    brute_force_sumset,
    check_complement_identity,
    check_direct_bound,
    check_inclusions_and_witnesses,
    generalized_sumset,
    is_arithmetic_progression,
)
from sumsetlab.core import _bits
from sumsetlab.verify import _check_case, _fold, _halves, _minkowski, _restricted_values


# ===================== the oracle itself =====================


def test_oracle_frozen_values():
    assert brute_force_sumset(GroundSet.of([0, 1, 2]), SumParams(3, 2)).values == (
        1,
        2,
        3,
        4,
        5,
    )
    assert brute_force_sumset(GroundSet.of(range(5), 5), SumParams(3, 2)).values == (
        0,
        1,
        2,
        3,
        4,
    )
    assert brute_force_sumset(GroundSet.of([0, 1, 3]), SumParams(2, 1)).values == (
        1,
        3,
        4,
    )
    assert brute_force_sumset(GroundSet.of([0, 2]), SumParams(2, 2)).values == (0, 2, 4)


def test_oracle_rejects_h_above_rk():
    with pytest.raises(DomainError):
        brute_force_sumset(GroundSet.of([0, 1]), SumParams(5, 2))


class TestOracleAgreesWithEngine:
    @settings(max_examples=100, deadline=None)
    @given(
        xs=st.lists(st.integers(-12, 20), min_size=1, max_size=6, unique=True),
        data=st.data(),
    )
    def test_integers(self, xs, data):
        g = GroundSet.of(xs)
        r = data.draw(st.integers(1, 4), label="r")
        h = data.draw(st.integers(1, min(9, r * g.size)), label="h")
        params = SumParams(h, r)
        assert brute_force_sumset(g, params).values == generalized_sumset(g, params).values

    @settings(max_examples=100, deadline=None)
    @given(
        xs=st.lists(st.integers(0, 12), min_size=1, max_size=6, unique=True),
        p=st.sampled_from([5, 7, 11, 13]),
        data=st.data(),
    )
    def test_mod_p(self, xs, p, data):
        g = GroundSet.of(xs, p)
        r = data.draw(st.integers(1, 4), label="r")
        h = data.draw(st.integers(1, min(9, r * g.size)), label="h")
        params = SumParams(h, r)
        assert brute_force_sumset(g, params).values == generalized_sumset(g, params).values


def test_oracle_agrees_with_engine_mod_p_exhaustive():
    """Every nonempty subset of Z/p for p <= 7 and every subset of Z/11
    with k <= 4, at every r <= 3 and 1 <= h <= r*k."""
    grounds = [
        GroundSet(A, p)
        for p in (2, 3, 5, 7)
        for k in range(1, p + 1)
        for A in combinations(range(p), k)
    ]
    grounds += [GroundSet(A, 11) for k in range(1, 5) for A in combinations(range(11), k)]
    instances = 0
    for g in grounds:
        for r in range(1, 4):
            for h in range(1, r * g.size + 1):
                params = SumParams(h, r)
                assert (
                    generalized_sumset(g, params).values
                    == brute_force_sumset(g, params).values
                ), (g, params)
                instances += 1
    assert instances == 14_880


def _product_sums(A, r, p=None):
    """Total -> sorted sums of every vector in {0..r}^k, reduced mod p:
    a third reference, sharing nothing with the oracle or the engine."""
    by_total = defaultdict(set)
    for v in product(range(r + 1), repeat=len(A)):
        total = sum(c * a for c, a in zip(v, A))
        by_total[sum(v)].add(total % p if p else total)
    return {t: tuple(sorted(sums)) for t, sums in by_total.items()}


def test_oracle_equals_the_product_enumeration():
    """Every A inside {0..7} with k <= 4 and every nonempty A inside Z/7,
    at every r <= 3 and every 1 <= h <= r*k (so k = 1, h = r*k and
    h = r*k - 1 among them)."""
    grounds = [GroundSet(A) for k in range(1, 5) for A in combinations(range(8), k)]
    grounds += [GroundSet(A, 7) for k in range(1, 8) for A in combinations(range(7), k)]
    instances = 0
    for g in grounds:
        for r in range(1, 4):
            want = _product_sums(g.elements, r, g.modulus)
            for h in range(1, r * g.size + 1):
                assert brute_force_sumset(g, SumParams(h, r)).values == want[h], (g, h, r)
                instances += 1
    assert instances == 5_760


def test_oracle_helpers_equal_the_product_enumeration():
    """Distinct sums are the 0/1 vectors of each total; the t-fold and
    Minkowski sums are sums over ``product``."""
    for k in range(0, 6):
        for A in combinations((-3, 0, 1, 4, 9, 10), k):
            want = _product_sums(A, 1)
            for t in range(k + 1):
                assert tuple(sorted(_restricted_values(A, t))) == want[t], (A, t)
            with pytest.raises(DomainError):
                _restricted_values(A, k + 1)
            for times in range(4):
                assert _fold(A, times) == {sum(v) for v in product(A, repeat=times)}
            for B in ((), (0,), (2, 5), (-1, 3, 8)):
                assert _minkowski(A, B) == {x + y for x, y in product(A, B)}


@pytest.mark.parametrize(
    "k, width, p, h, r",
    [(40, 8000, None, 3, 1), (40, None, 20_011, 3, 1), (24, 2500, None, 4, 2)],
)
def test_oracle_on_wide_inputs(k, width, p, h, r):
    """The engine-wide benchmark's oracle shapes, in hundredths of a
    second; a split that enumerated all (r+1)^(k/2) vectors of a half,
    not only those of total <= h, would take seconds on each."""
    rng = random.Random(k * h)
    A = rng.sample(range(width if p is None else p), k)
    g = GroundSet.of(A, p)
    params = SumParams(h, r)
    assert brute_force_sumset(g, params).values == generalized_sumset(g, params).values


def test_oracle_does_not_depend_on_its_cache():
    """Calls in shuffled orders, which evict and share ``_halves`` entries
    (an integer set and the same residues mod 7 share one), return what
    calls made after clearing the cache return."""
    calls = [
        (GroundSet(A, p), SumParams(h, r))
        for A in combinations(range(6), 3)
        for p in (None, 7)
        for r in range(1, 4)
        for h in range(1, 3 * r + 1)
    ]
    cold = {}
    for g, params in calls:
        _halves.cache_clear()
        cold[g, params] = brute_force_sumset(g, params).values
    for seed in range(3):
        random.Random(seed).shuffle(calls)
        for g, params in calls:
            assert brute_force_sumset(g, params).values == cold[g, params], (g, params)


@pytest.mark.parametrize("k, r", [(24, 1), (12, 3), (8, 7)])
def test_oracle_keeps_halves_up_to_the_cap(k, r):
    """A set whose larger half has exactly 2**12 vectors keeps its tables,
    tuples of frozensets per total; one more element keeps none.  Both
    read what the engine reads."""
    rng = random.Random(k)
    for size, kept in ((k, True), (k + 1, False)):
        A = tuple(sorted(rng.sample(range(-30, 60), size)))
        tables = _halves(A, r)
        assert (tables is not None) is kept, (A, r)
        if kept:
            j = size // 2
            assert [len(half) for half in tables] == [r * j + 1, r * (size - j) + 1]
            assert type(tables) is tuple and all(type(half) is tuple for half in tables)
            assert all(type(sums) is frozenset for half in tables for sums in half)
        g = GroundSet(A)
        for h in sorted({1, 2, r * size // 2, r * size - 1, r * size}):
            params = SumParams(h, r)
            assert brute_force_sumset(g, params).values == generalized_sumset(g, params).values


# ===================== direct bound =====================


def test_direct_bound_tight_on_progression():
    report = check_direct_bound(GroundSet.of([0, 2, 4]), SumParams(3, 2))
    assert (report.cardinality, report.bound, report.slack) == (5, 5, 0)
    assert report.equality and report.verdict == "pass"


def test_direct_bound_positive_slack():
    report = check_direct_bound(GroundSet.of([0, 1, 2, 4, 8]), SumParams(3, 2))
    assert (report.cardinality, report.bound, report.slack) == (18, 11, 7)
    assert not report.equality


def test_direct_bound_mod_p_capped():
    report = check_direct_bound(GroundSet.of(range(5), 5), SumParams(3, 2))
    assert (report.cardinality, report.bound, report.slack) == (5, 5, 0)


def test_direct_bound_hypotheses_per_variant():
    # r > h is fine over the integers (extra cap is never exercised) ...
    report = check_direct_bound(GroundSet.of([0, 1, 4]), SumParams(2, 3))
    assert report.slack >= 0
    # ... and mod p, where h^(r)A = hA and the bound is Cauchy-Davenport's:
    # 2{0, 1, 4} = {0, 1, 2, 4, 5} in Z/7Z, and min(7, 2*3 - 2 + 1) = 5
    report = check_direct_bound(GroundSet.of([0, 1, 4], 7), SumParams(2, 3))
    assert (report.cardinality, report.bound) == (5, 5)


def test_bound_report_record():
    record = check_direct_bound(GroundSet.of([0, 1, 2]), SumParams(2, 1)).to_record()
    assert record["kind"] == "direct"
    assert record["slack"] == record["cardinality"] - record["bound"]


# ===================== complement identity =====================


def test_complement_frozen():
    report = check_complement_identity(GroundSet.of([0, 1, 3, 7]), SumParams(5, 2))
    assert report.h_complement == 3
    assert (report.cardinality, report.complement_cardinality) == (15, 15)
    assert report.equal


def test_complement_needs_room():
    with pytest.raises(DomainError):
        check_complement_identity(GroundSet.of([0, 1]), SumParams(4, 2))


class TestComplementProperty:
    @settings(max_examples=80, deadline=None)
    @given(
        xs=st.lists(st.integers(-10, 20), min_size=1, max_size=5, unique=True),
        data=st.data(),
    )
    def test_integers(self, xs, data):
        g = GroundSet.of(xs)
        r = data.draw(st.integers(1, 4), label="r")
        if r * g.size < 2:
            return
        h = data.draw(st.integers(1, r * g.size - 1), label="h")
        assert check_complement_identity(g, SumParams(h, r)).equal

    @settings(max_examples=80, deadline=None)
    @given(
        xs=st.lists(st.integers(0, 10), min_size=1, max_size=5, unique=True),
        p=st.sampled_from([5, 7, 11]),
        data=st.data(),
    )
    def test_mod_p(self, xs, p, data):
        g = GroundSet.of(xs, p)
        r = data.draw(st.integers(1, 4), label="r")
        if r * g.size == 1:
            return
        h = data.draw(st.integers(1, r * g.size - 1), label="h")
        assert check_complement_identity(g, SumParams(h, r)).equal


# ===================== inclusions and witness chains =====================


def _statuses(report):
    return {c.name: c.status for c in report.checks}


def test_witnesses_wide_eps1():
    report = check_inclusions_and_witnesses(GroundSet.of(range(5)), SumParams(3, 2))
    s = _statuses(report)
    assert s["split-inclusion"] == "pass"
    assert s["block-inclusion-wide"] == "pass"
    assert s["gap-witnesses-wide"] == "pass"
    assert s["block-inclusion-narrow"] == "not-applicable"
    assert report.verdict == "pass"


def test_witnesses_wide_eps2():
    report = check_inclusions_and_witnesses(GroundSet.of([0, 1, 2, 4, 9]), SumParams(5, 3))
    s = _statuses(report)
    assert s["block-inclusion-wide"] == "pass"
    assert s["gap-witnesses-wide"] == "pass"
    assert report.verdict == "pass"


def test_witnesses_narrow_minimal():
    # k = 2, h = 7, r = 5: m = 1, eps = 2, so m + eps > k and r - 1 > m + eps
    report = check_inclusions_and_witnesses(GroundSet.of([0, 1]), SumParams(7, 5))
    s = _statuses(report)
    assert s["block-inclusion-wide"] == "not-applicable"
    assert s["block-inclusion-narrow"] == "pass"
    assert s["gap-witnesses-narrow"] == "pass"
    assert report.verdict == "pass"


def test_witnesses_narrow_chain():
    # k = 3, h = 14, r = 6: m = 2, eps = 2; the hand-checked chain is
    # 10 < 11 < 12 < 13 with min bundle 13
    report = check_inclusions_and_witnesses(GroundSet.of([0, 1, 2]), SumParams(14, 6))
    s = _statuses(report)
    assert s["block-inclusion-narrow"] == "pass"
    assert s["gap-witnesses-narrow"] == "pass"
    item = next(c for c in report.checks if c.name == "gap-witnesses-narrow")
    assert "chain of 4 members" in item.detail
    assert "below min bundle 13" in item.detail


def test_witnesses_neither_case():
    # k = 2, h = 5, r = 3: m = 1, eps = 2; m + eps > k but r - 1 <= m + eps
    report = check_inclusions_and_witnesses(GroundSet.of([0, 1]), SumParams(5, 3))
    s = _statuses(report)
    assert s["split-inclusion"] == "pass"
    for name in (
        "block-inclusion-wide",
        "gap-witnesses-wide",
        "block-inclusion-narrow",
        "gap-witnesses-narrow",
    ):
        assert s[name] == "not-applicable"
    assert report.verdict == "pass"


def test_witnesses_eps_zero_all_na():
    report = check_inclusions_and_witnesses(GroundSet.of([0, 1, 2]), SumParams(4, 2))
    assert all(c.status == "not-applicable" for c in report.checks)
    assert report.verdict == "pass"


def test_witnesses_reject_modular_and_oversized():
    with pytest.raises(DomainError):
        check_inclusions_and_witnesses(GroundSet.of([0, 1], 5), SumParams(2, 1))
    with pytest.raises(DomainError):
        check_inclusions_and_witnesses(GroundSet.of([0, 1]), SumParams(9, 2))


@pytest.mark.parametrize("h", [5, 6])
def test_witnesses_refuse_h_above_rk_with_the_engine_message(h):
    # h = 6 has eps = 0, h = 5 does not; both refusals must read as the
    # engine's, whichever branch of the checker the instance would take
    g, params = GroundSet.of([0, 1]), SumParams(h, 2)
    with pytest.raises(DomainError) as engine:
        generalized_sumset(g, params)
    with pytest.raises(DomainError) as checker:
        check_inclusions_and_witnesses(g, params)
    assert str(checker.value) == str(engine.value)
    assert str(engine.value).startswith("h <= r*k required (no multiset")



# h^(r)A with one value dropped drives each checker down its fail
# paths; the expected items were taken before the wide and narrow
# verdicts were merged into one helper, and those of the translated sets,
# whose masks start at h * min A != 0, from the checker on Python sets.
WITNESS_FAILS = {
    ((0, 1, 2, 4, 9), 5, 3, 3): (
        ("split-inclusion", "missing from target: [3]"),
        ("block-inclusion-wide", "missing from target: [3]"),
        ("gap-witnesses-wide", "witnesses not in h^(r)A at (x, y) = [(1, 0)]"),
    ),
    ((0, 1, 2, 4, 9), 5, 3, 2): (
        ("split-inclusion", "missing from target: [2]"),
        ("gap-witnesses-wide", "witnesses not in h^(r)A at (x, y) = [(1, 1)]"),
    ),
    ((0, 1, 2), 14, 6, 11): (
        ("split-inclusion", "missing from target: [11]"),
        ("gap-witnesses-narrow", "witnesses not in h^(r)A at (x, y) = [(1, 2)]"),
    ),
    ((0, 1, 2), 14, 6, 13): (
        ("split-inclusion", "missing from target: [13]"),
        ("block-inclusion-narrow", "missing from target: [13]"),
        ("gap-witnesses-narrow", "witnesses not in h^(r)A at (x, y) = [(2, 2)]"),
    ),
    ((2, 3, 4), 14, 6, 41): (
        ("split-inclusion", "missing from target: [41]"),
        ("block-inclusion-narrow", "missing from target: [41]"),
        ("gap-witnesses-narrow", "witnesses not in h^(r)A at (x, y) = [(2, 2)]"),
    ),
    ((1, 2, 3, 5, 10), 5, 3, 8): (
        ("split-inclusion", "missing from target: [8]"),
        ("block-inclusion-wide", "missing from target: [8]"),
        ("gap-witnesses-wide", "witnesses not in h^(r)A at (x, y) = [(1, 0)]"),
    ),
    ((0, 1), 7, 5, 2): (
        ("split-inclusion", "missing from target: [2]"),
        (
            "gap-witnesses-narrow",
            "strict=False endpoint=True interval=False count=True chain=[3, 3]",
        ),
    ),
}


@pytest.mark.parametrize("case", sorted(WITNESS_FAILS))
def test_witness_fail_paths(monkeypatch, case):
    import sumsetlab.verify as verify_mod

    elements, h, r, drop = case
    real = verify_mod._sumset_mask

    def dropping_mask(ground, h_, r_):
        mask = real(ground, h_, r_)
        if (h_, r_) != (h, r):
            return mask
        bit = 1 << drop - h * ground.elements[0]
        assert mask & bit
        return mask & ~bit

    monkeypatch.setattr(verify_mod, "_sumset_mask", dropping_mask)
    report = check_inclusions_and_witnesses(GroundSet.of(elements), SumParams(h, r))
    expected = tuple(
        CheckItem(name, "fail", detail) for name, detail in WITNESS_FAILS[case]
    )
    assert report.failed == expected

def test_witness_verdict_wrong_minimum():
    """A bundle inside h^(r)A whose minimum is not the closed form fails
    block inclusion even though nothing is missing."""
    checks = _check_case(
        "wide",
        (1 << 11) - 1,  # {0..10}, bit v at v
        0,
        bundle=0b111000,  # {3, 4, 5}
        closed_min=2,
        empty="eps = 1",
        witness=None,
        grid=[],
        chain=[],
        gaps=0,
    )
    assert checks == [
        CheckItem("block-inclusion-wide", "fail", "min bundle 3 != closed form 2"),
        CheckItem(
            "gap-witnesses-wide",
            "pass",
            "family empty for eps = 1: min bundle equals min h^(r)A",
        ),
    ]


@pytest.mark.parametrize("gaps", [1, 3])
def test_witness_verdict_wrong_gap_count(gaps):
    """A strict chain that ends at min bundle, with every gap member in
    the interval, still fails when it has the wrong number of them."""
    checks = _check_case(
        "narrow",
        (1 << 11) - 1,  # {0..10}, bit v at v
        0,
        bundle=0b1100000,  # {5, 6}
        closed_min=5,
        empty="m = 0",
        witness=lambda x, y: x + y,
        grid=[(1, 1)],
        chain=[1, 2, 5],
        gaps=gaps,
    )
    assert checks == [
        CheckItem(
            "block-inclusion-narrow",
            "pass",
            "bundle of 2 sums inside; min 5 matches closed form",
        ),
        CheckItem(
            "gap-witnesses-narrow",
            "fail",
            "strict=True endpoint=True interval=True count=False chain=[1, 2, 5]",
        ),
    ]


def _witness_grid():
    """Every A of {-2..6} with k <= 4, r <= 6 and 1 <= h <= min(r*k, 12)."""
    for k in range(1, 5):
        for A in combinations(range(-2, 7), k):
            for r in range(1, 7):
                for h in range(1, min(r * k, 12) + 1):
                    yield GroundSet(A), SumParams(h, r)


def test_witness_records_keep_their_digest():
    """The checker's records over the grid, pinned before it read masks:
    13 797 instances, 7 059 of them wide and 438 narrow."""
    digest, counts = hashlib.sha256(), defaultdict(int)
    for g, params in _witness_grid():
        report = check_inclusions_and_witnesses(g, params)
        assert report.verdict == "pass"
        for c in report.checks[1::2]:  # the two block inclusions
            counts[c.name] += c.status != "not-applicable"
        digest.update(json.dumps(report.to_record()).encode() + b"\n")
    assert sum(1 for _ in _witness_grid()) == 13_797
    assert counts == {"block-inclusion-wide": 7_059, "block-inclusion-narrow": 438}
    assert digest.hexdigest() == (
        "8feac7a154c5009ded490e0d19b7f72209981cb793b9472e8bc9e1ed9bb17141"
    )


def test_witness_bundles_equal_the_set_reference(monkeypatch):
    """Over the same grid each case's bundle mask holds exactly the
    Minkowski sum that ``_fold`` and ``_minkowski`` give."""
    import sumsetlab.verify as verify_mod

    real, seen = verify_mod._check_case, []

    def capturing(case, full, base, *, bundle, **kwargs):
        seen.append((case, _bits(bundle, base)))
        return real(case, full, base, bundle=bundle, **kwargs)

    monkeypatch.setattr(verify_mod, "_check_case", capturing)
    checked = 0
    for g, params in _witness_grid():
        A, r, m, eps = g.elements, params.r, params.m, params.epsilon
        check_inclusions_and_witnesses(g, params)
        if not seen:
            continue
        (case, values), = seen
        seen.clear()
        m_block = _restricted_values(A, m)
        if case == "wide":
            want = _minkowski(_fold(m_block, r - 1), _restricted_values(A, m + eps))
        else:
            want = _minkowski(
                _fold(_restricted_values(A, m + 1), m + eps), _fold(m_block, r - 1 - m - eps)
            )
        assert values == tuple(sorted(want)), (A, params)
        checked += 1
    assert checked == 7_059 + 438


@pytest.mark.parametrize(
    "elements, h, r",
    [((0, 1, 2), 4, 2), ((0, 1, 2, 4, 9), 5, 3), ((0, 1), 7, 5), ((0, 1), 5, 3)],
    ids=["eps-zero", "wide", "narrow", "neither"],
)
def test_witness_reports_hash(elements, h, r):
    report = check_inclusions_and_witnesses(GroundSet.of(elements), SumParams(h, r))
    assert isinstance(report.checks, tuple)
    assert hash(report) == hash(
        check_inclusions_and_witnesses(GroundSet.of(elements), SumParams(h, r))
    )


class TestWitnessProperty:
    @settings(max_examples=80, deadline=None)
    @given(
        xs=st.lists(st.integers(-8, 20), min_size=2, max_size=6, unique=True),
        data=st.data(),
    )
    def test_never_fails(self, xs, data):
        g = GroundSet.of(xs)
        r = data.draw(st.integers(1, 6), label="r")
        h = data.draw(st.integers(1, min(14, r * g.size)), label="h")
        report = check_inclusions_and_witnesses(g, SumParams(h, r))
        assert report.verdict == "pass", [c for c in report.checks if c.status == "fail"]


# ===================== AP detection =====================


def test_ap_integers():
    assert is_arithmetic_progression(GroundSet.of([7]))
    assert is_arithmetic_progression(GroundSet.of([1, 10]))
    assert is_arithmetic_progression(GroundSet.of([3, 7, 11, 15]))
    assert not is_arithmetic_progression(GroundSet.of([0, 1, 3]))


def test_ap_mod_p():
    assert is_arithmetic_progression(GroundSet.of([0, 1, 2, 7, 8], 13))  # d = 7
    assert is_arithmetic_progression(GroundSet.of([0, 5, 10, 2, 7], 13))  # d = 5
    assert is_arithmetic_progression(GroundSet.of([4, 9], 11))
    assert not is_arithmetic_progression(GroundSet.of([0, 1, 2, 3, 5], 13))


def test_ap_mod_p_full_set():
    assert is_arithmetic_progression(GroundSet.of(range(5), 5))


def _is_ap_mod_every_difference(A, p):
    """Reference: the earlier definition, trying every nonzero d."""
    k = len(A)
    if k <= 2:
        return True
    target = set(A)
    for d in range(1, p):
        for c in A:
            x = c
            for _ in range(k - 1):
                x = (x + d) % p
                if x not in target:
                    break
            else:
                return True
    return False


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_ap_mod_p_matches_every_difference(p):
    for k in range(1, p + 1):
        for A in combinations(range(p), k):
            assert is_arithmetic_progression(GroundSet(A, p)) == (
                _is_ap_mod_every_difference(A, p)
            ), A
