"""Greedy rewriting and the set-wise factorization identity.

The worked trace below was stepped through by hand; factorization
expectations were computed by direct enumeration of multiplicity
vectors, independently of the package.
"""

import pytest
from hypothesis import given, settings, strategies as st

from sumsetlab import (
    Decomposition,
    DomainError,
    GroundSet,
    MultiplicityVector,
    SumParams,
    brute_force_sumset,
    check_sumset_factorization,
    generalized_sumset,
    greedy_decompose,
    restricted_sumset,
)
from sumsetlab.verify import _fold, _minkowski, _restricted_values


def test_worked_example():
    # counts (2, 1, 1) over {0, 1, 2} with cap 2: h = 4, m = 2
    g = GroundSet.of([0, 1, 2])
    d = greedy_decompose(g, MultiplicityVector((2, 1, 1), 2))
    assert d.parts == ((0, 1), (0, 2))
    assert d.part_sums == (1, 2)
    assert d.total_sum == 3
    s1, s2 = d.trace
    assert (s1.step, s1.chosen, s1.active_before, s1.max_after) == (1, (0, 1), 3, 1)
    assert s1.counts_after == (1, 0, 1)
    assert (s2.step, s2.chosen, s2.active_before, s2.max_after) == (2, (0, 2), 2, 0)
    assert s2.counts_after == (0, 0, 0)


def test_tie_break_lowest_index():
    g = GroundSet.of([0, 1, 2, 3])
    d = greedy_decompose(g, MultiplicityVector((1, 1, 1, 1), 2))
    # all counts tie at 1; the first part takes the two lowest indices
    assert d.parts == ((0, 1), (2, 3))


def test_single_part():
    g = GroundSet.of([5, 9, 11])
    d = greedy_decompose(g, MultiplicityVector((1, 0, 1), 1))
    assert d.parts == ((0, 2),)
    assert d.part_sums == (16,)


def test_modular_part_sums_reduced():
    g = GroundSet.of([0, 4, 6], 7)
    d = greedy_decompose(g, MultiplicityVector((2, 2, 2), 2))
    assert all(0 <= s < 7 for s in d.part_sums)
    assert d.total_sum == (2 * 0 + 2 * 4 + 2 * 6) % 7


def test_rejections():
    g = GroundSet.of([0, 1, 2])
    with pytest.raises(DomainError, match="len\\(counts\\)"):
        greedy_decompose(g, MultiplicityVector((1, 1), 2))


def test_worked_examples_cap_not_dividing_total():
    g = GroundSet.of([0, 1, 2])
    # total 3 = 1*2 + 1: one part of m + 1 = 2 elements, then one of m = 1
    d = greedy_decompose(g, MultiplicityVector((2, 1, 0), 2))
    assert d.parts == ((0, 1), (0,))
    assert d.part_sums == (1, 0)
    # total 2 = 0*3 + 2 (m = 0): two singleton parts, then an empty one
    d = greedy_decompose(g, MultiplicityVector((1, 1, 0), 3))
    assert d.parts == ((0,), (1,), ())
    assert d.part_sums == (0, 1, 0)
    assert d.total_sum == 1


def test_vector_validation():
    with pytest.raises(DomainError):
        MultiplicityVector((), 2)
    with pytest.raises(DomainError):
        MultiplicityVector((3,), 2)
    with pytest.raises(DomainError):
        MultiplicityVector((-1, 2), 2)
    with pytest.raises(DomainError):
        MultiplicityVector((0, 0), 2)
    with pytest.raises(DomainError):
        MultiplicityVector((1,), 0)


def _validate(g: GroundSet, vector: MultiplicityVector, d: Decomposition):
    r = vector.cap
    m, eps = divmod(vector.total, r)
    assert len(d.parts) == r
    used = [0] * g.size
    for j, (part, value) in enumerate(zip(d.parts, d.part_sums), start=1):
        size = m + 1 if j <= eps else m
        allowed = set(restricted_sumset(g, size).values) if size else {0}
        assert len(part) == size and len(set(part)) == size
        assert part == tuple(sorted(part))
        expected = sum(g.elements[i] for i in part)
        if g.modulus:
            expected %= g.modulus
        assert value == expected
        assert value in allowed
        for i in part:
            used[i] += 1
    assert tuple(used) == vector.counts
    total = sum(c * a for c, a in zip(vector.counts, g.elements))
    if g.modulus:
        total %= g.modulus
    assert d.total_sum == total
    for j, step in enumerate(d.trace, start=1):
        assert step.step == j
        assert step.active_before >= (m + 1 if j <= eps else m)
        assert step.max_after <= r - j


def _repair_counts(free, r, target):
    """Nudge a free draw into a vector with the exact target total."""
    counts = list(free)
    total = sum(counts)
    i = 0
    while total != target:
        j = i % len(counts)
        if total < target and counts[j] < r:
            counts[j] += 1
            total += 1
        elif total > target and counts[j] > 0:
            counts[j] -= 1
            total -= 1
        i += 1
    return tuple(counts)


class TestGreedyProperties:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_valid_on_random_vectors(self, data):
        k = data.draw(st.integers(1, 6), label="k")
        r = data.draw(st.integers(1, 4), label="r")
        h = data.draw(st.integers(1, r * k), label="h")
        free = data.draw(
            st.lists(st.integers(0, r), min_size=k, max_size=k), label="free"
        )
        counts = _repair_counts(free, r, h)
        g = GroundSet.of([0, 1, 3, 7, 12, 20][:k])
        vector = MultiplicityVector(counts, r)
        _validate(g, vector, greedy_decompose(g, vector))


def test_factorization_interval():
    report = check_sumset_factorization(GroundSet.of(range(4)), SumParams(6, 3))
    assert report.equal
    assert report.left.values == tuple(range(3, 16))
    assert report.left.values == report.right.values


def test_factorization_sparse():
    report = check_sumset_factorization(GroundSet.of([0, 1, 3, 7]), SumParams(4, 2))
    assert report.equal
    assert report.verdict == "pass"
    assert report.to_record()["only_left"] == []


def test_factorization_mod_p():
    report = check_sumset_factorization(GroundSet.of([0, 1, 5], 11), SumParams(4, 2))
    assert report.equal


def test_factorization_when_r_does_not_divide_h():
    # 5 = 2*2 + 1 and 3 = 1*2 + 1: one copy of (m+1)^A plus one of m^A
    for g, params in (
        (GroundSet.of([0, 1, 2]), SumParams(5, 2)),
        (GroundSet.of([0, 1, 5], 11), SumParams(3, 2)),
    ):
        report = check_sumset_factorization(g, params)
        expected = brute_force_sumset(g, params).values
        assert report.equal
        assert report.left.values == report.right.values == expected


def _oracle_right(g: GroundSet, params: SumParams) -> tuple:
    """eps-fold (m+1)^A + (r - eps)-fold m^A from the brute-force oracle's
    set helpers alone, reduced mod p."""
    A, m, eps = g.elements, params.m, params.epsilon
    upper = _fold(_restricted_values(A, m + 1), eps) if eps else {0}
    lower = _fold(_restricted_values(A, m), params.r - eps)
    values = _minkowski(upper, lower)
    if g.modulus:
        values = {v % g.modulus for v in values}
    return tuple(sorted(values))


def _check_both_sides(g: GroundSet, params: SumParams):
    report = check_sumset_factorization(g, params)
    assert report.equal
    assert report.right.values == _oracle_right(g, params)
    return report


def test_factorization_m_zero_wraps_mod_p():
    # 2 = 0*3 + 2: two parts 1^A and one 0^A = {0}; 8..12 wrap past 7
    report = _check_both_sides(GroundSet.of([4, 5, 6], 7), SumParams(2, 3))
    assert report.right.values == (1, 2, 3, 4, 5)


def test_factorization_h_equals_rk():
    # h = r*k: every element r times, the r-fold sum of k^A = {sum A}
    report = _check_both_sides(GroundSet.of([0, 1, 3]), SumParams(6, 2))
    assert report.right.values == (8,)
    report = _check_both_sides(GroundSet.of([1, 2, 4], 5), SumParams(6, 2))
    assert report.right.values == (4,)


class TestFactorizationProperties:
    @settings(max_examples=80, deadline=None)
    @given(
        xs=st.lists(st.integers(-10, 20), min_size=1, max_size=6, unique=True),
        data=st.data(),
    )
    def test_integers(self, xs, data):
        g = GroundSet.of(xs)
        r = data.draw(st.integers(1, 4), label="r")
        h = data.draw(st.integers(1, r * g.size), label="h")
        _check_both_sides(g, SumParams(h, r))

    @settings(max_examples=80, deadline=None)
    @given(
        xs=st.lists(st.integers(0, 12), min_size=1, max_size=6, unique=True),
        p=st.sampled_from([5, 7, 11, 13]),
        data=st.data(),
    )
    def test_mod_p(self, xs, p, data):
        g = GroundSet.of(xs, p)
        r = data.draw(st.integers(1, 4), label="r")
        h = data.draw(st.integers(1, r * g.size), label="h")
        _check_both_sides(g, SumParams(h, r))


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_part_sums_recombine(self, data):
        # the rewritten parts really do express a member of h^(r)A
        k = data.draw(st.integers(1, 5), label="k")
        r = data.draw(st.integers(1, 4), label="r")
        h = data.draw(st.integers(1, r * k), label="h")
        free = data.draw(
            st.lists(st.integers(0, r), min_size=k, max_size=k), label="free"
        )
        counts = _repair_counts(free, r, h)
        g = GroundSet.of([0, 2, 3, 8, 13][:k])
        d = greedy_decompose(g, MultiplicityVector(counts, r))
        member = sum(d.part_sums)
        assert member in generalized_sumset(g, SumParams(h, r)).as_set()
