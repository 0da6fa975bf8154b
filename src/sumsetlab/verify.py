"""Independent checks: brute force, bounds, identities, witnesses.

The point of this module is to distrust the rest of the package.  The
brute-force oracle re-derives sumsets straight from the definition with
no shared code beyond the dataclass types, and the checkers compare
computed sumsets against closed-form bounds, against each other, and
against the explicit element constructions that justify the bounds.

The oracle splits each multiplicity vector in two (meet in the middle,
Horowitz and Sahni 1974) and enumerates each half's vectors, once per
(A, r) for every h while the halves are small; every vector is still
visited, as a pair, and nothing is merged per element, so the oracle stays
an enumeration that shares no step with the engine's DP.

Witness terminology, for a set A = {a_1 < ... < a_k} and h = m*r + eps
with eps >= 1.  Write s^B for the restricted sumset of B and tB for the
t-fold sumset of B.  Then h^(r)A always contains

    (m+1)^A + (h-m-1)^(r-1)A                        (split inclusion)

and, in two regimes distinguished by how m + eps compares to k, a
bundle B of the form

    wide   (m + eps <= k):          B = (r-1)(m^A) + (m+eps)^A
    narrow (r - 1 > m + eps > k):   B = (m+eps)((m+1)^A) + (r-1-m-eps)(m^A)

together with an explicit strictly increasing chain of further members
of h^(r)A filling the gap between min h^(r)A and min B.  The chain
element equal to min B is the designed endpoint, not a gap member, so
it is excluded from the interval assertion; every other chain element
must land in [min h^(r)A, min B - 1].

The two regimes share one verdict: each supplies only its bundle, the
closed-form min B, the condition under which its witness family is
empty, its witness function, the (x, y) grid that function is checked
on, the chain and the expected number of gap members.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations
from typing import Iterable, Optional, Set, Tuple

from .core import (
    GroundSet,
    SumParams,
    SumsetResult,
    _check_draws,
    _sumset_mask,
    bound_direct_integers,
    bound_direct_mod_p,
    generalized_sumset,
)
from .errors import DomainError


def _half(B: Tuple[int, ...], r: int, lo: int, top: int) -> list:
    """Per total t <= top, the sums of B's vectors of total t, if t >= lo."""
    sums = [set() for _ in range(top + 1)]
    last = len(B) - 1

    def sweep(i: int, t: int, acc: int) -> None:
        # each c that keeps t <= top and lets the later elements reach lo
        for c in range(max(0, lo - r * (last - i) - t), min(r, top - t) + 1):
            if i == last:
                sums[t + c].add(acc + c * B[i])
            else:
                sweep(i + 1, t + c, acc + c * B[i])

    if B:
        sweep(0, 0, 0)
    else:
        sums[0].add(0)  # the empty vector
    return sums


@lru_cache(maxsize=16)
def _halves(elements: tuple, r: int) -> Optional[tuple]:
    """Both halves' sums, elements[:k // 2] and the rest, bucketed by every
    total 0..r * |half| as tuples of frozensets; None when the larger half
    has more than 2**12 vectors, (r + 1)**(k - k // 2)."""
    k = len(elements)
    # (r + 1)**13 > 2**12 already, so the exponent is capped there
    if (r + 1) ** min(k - k // 2, 13) > 1 << 12:
        return None
    return tuple(
        tuple(map(frozenset, _half(B, r, 0, r * len(B))))
        for B in (elements[: k // 2], elements[k // 2 :])
    )


def brute_force_sumset(ground: GroundSet, params: SumParams) -> SumsetResult:
    """Enumerate h^(r)A directly from the definition.

    A vector (r_1, ..., r_k) with 0 <= r_i <= r and sum r_i = h is one of
    total t over the first k // 2 elements and one of total h - t over the
    rest.  Each half's sums are bucketed by total: at every total, once per
    (A, r), while the larger half has at most 2**12 vectors (:func:`_halves`),
    and otherwise per h at only the totals the other half can complete, which
    reaches at most twice as many half-vectors as there are vectors.  h^(r)A
    is the union over t of (first half at t) + (second half at h - t),
    reduced mod p at the end.
    """
    A = ground.elements
    k = len(A)
    h, r = params.h, params.r
    p = ground.modulus
    _check_draws(k, h, r)
    j = k // 2
    left, right = _halves(tuple(A), r) or (
        _half(A[:j], r, h - r * (k - j), h), _half(A[j:], r, h - r * j, h))
    found = {x + y for t in range(max(0, h - r * (k - j)), min(h, r * j) + 1)
             for x in left[t] for y in right[h - t]}
    if p:
        found = {v % p for v in found}
    return SumsetResult(tuple(sorted(found)), p)


@dataclass(frozen=True)
class _Report:
    """One checked instance; its record opens with the instance and
    closes with the subclass's verdict."""

    ground: GroundSet
    params: SumParams

    def _record(self, kind: str, **fields) -> dict:
        return {
            "op": "verify",
            "kind": kind,
            "set": list(self.ground.elements),
            "p": self.ground.modulus,
            "h": self.params.h,
            "r": self.params.r,
            **fields,
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class BoundReport(_Report):
    """One bound-vs-computation comparison: slack = cardinality - bound."""

    cardinality: int
    bound: int

    @property
    def slack(self) -> int:
        return self.cardinality - self.bound

    @property
    def equality(self) -> bool:
        return self.slack == 0

    @property
    def verdict(self) -> str:
        return "pass" if self.slack >= 0 else "fail"

    def to_record(self) -> dict:
        return self._record(
            "direct",
            cardinality=self.cardinality,
            bound=self.bound,
            slack=self.slack,
            equality=self.equality,
        )


def check_direct_bound(ground: GroundSet, params: SumParams) -> BoundReport:
    """Compare |h^(r)A| against its closed-form lower bound.

    Integer and mod-p ground sets use their respective bound, and each
    bound's own hypotheses are enforced: 1 <= h <= r*k for both, and
    mod p also 1 <= k <= p.
    """
    k = ground.size
    if ground.modulus is None:
        bound = bound_direct_integers(k, params.h, params.r)
    else:
        bound = bound_direct_mod_p(k, params.h, params.r, ground.modulus)
    card = _sumset_mask(ground, params.h, params.r).bit_count()
    return BoundReport(ground=ground, params=params, cardinality=card, bound=bound)


@dataclass(frozen=True)
class ComplementReport(_Report):
    """Cardinality comparison of h^(r)A and (rk-h)^(r)A."""

    h_complement: int
    cardinality: int
    complement_cardinality: int

    @property
    def equal(self) -> bool:
        return self.cardinality == self.complement_cardinality

    @property
    def verdict(self) -> str:
        return "pass" if self.equal else "fail"

    def to_record(self) -> dict:
        return self._record(
            "complement",
            h_complement=self.h_complement,
            cardinality=self.cardinality,
            complement_cardinality=self.complement_cardinality,
            equal=self.equal,
        )


def check_complement_identity(ground: GroundSet, params: SumParams) -> ComplementReport:
    """Check |h^(r)A| == |(rk-h)^(r)A| by two independent computations.

    Replacing each multiplicity r_i by r - r_i is a bijection between
    the defining vectors for h and for rk - h, so the cardinalities
    agree.  Requires 1 <= h <= rk - 1 so both sides are nonempty.  Each
    side is a popcount of its own slot, h or rk - h, of the set's profile
    (see ``core``); nothing inside the dynamic program assumes this
    identity.
    """
    k = ground.size
    hc = params.r * k - params.h
    if hc < 1:
        raise DomainError(
            f"h <= r*k - 1 required so the mirrored side is nonempty: "
            f"h={params.h}, r*k={params.r * k}"
        )
    card = _sumset_mask(ground, params.h, params.r).bit_count()
    card_c = _sumset_mask(ground, hc, params.r).bit_count()
    return ComplementReport(
        ground=ground,
        params=params,
        h_complement=hc,
        cardinality=card,
        complement_cardinality=card_c,
    )


@dataclass(frozen=True)
class CheckItem:
    """One named assertion inside a WitnessReport."""

    name: str
    status: str  # "pass" | "fail" | "not-applicable"
    detail: str

    def to_record(self) -> dict:
        return {"name": self.name, "status": self.status, "detail": self.detail}


@dataclass(frozen=True)
class WitnessReport(_Report):
    """Outcome of the inclusion and witness-chain checks for one instance."""

    checks: Tuple[CheckItem, ...]

    @property
    def failed(self) -> Tuple[CheckItem, ...]:
        return tuple(c for c in self.checks if c.status == "fail")

    @property
    def verdict(self) -> str:
        return "fail" if self.failed else "pass"

    def to_record(self) -> dict:
        return self._record(
            "inclusions",
            m=self.params.m,
            eps=self.params.epsilon,
            checks=[c.to_record() for c in self.checks],
        )


def _restricted_values(A: Tuple[int, ...], t: int) -> Set[int]:
    """Sums of t distinct elements of A (t = 0 gives {0}), by ``combinations``."""
    if t > len(A):
        raise DomainError(f"t <= k required for distinct sums: t={t}, k={len(A)}")
    return set(map(sum, combinations(A, t)))


def _fold(values: Iterable[int], times: int) -> Set[int]:
    """times-fold sumset of a set with itself (times = 0 gives {0})."""
    return reduce(_minkowski, [values] * times, {0})


def _minkowski(xs: Iterable[int], ys: Iterable[int]) -> Set[int]:
    ys = list(ys)
    return {x + y for x in xs for y in ys}


def _missing_detail(lhs: Set[int], rhs: Set[int]) -> str:
    missing = sorted(lhs - rhs)[:5]
    return f"missing from target: {missing}"


def check_inclusions_and_witnesses(ground: GroundSet, params: SumParams) -> WitnessReport:
    """Run the split inclusion, the case bundle inclusion, and the
    witness chains for one integer instance.

    Checks that do not apply to the instance (wrong case, eps = 0) are
    reported as not-applicable rather than silently dropped, so a grid
    sweep can tell "held" from "never tested".
    """
    if ground.modulus is not None:
        raise DomainError("witness constructions are defined over the integers")
    A = ground.elements
    k = len(A)
    h, r = params.h, params.r
    _check_draws(k, h, r)
    m, eps = params.m, params.epsilon
    names = (
        "split-inclusion",
        "block-inclusion-wide",
        "gap-witnesses-wide",
        "block-inclusion-narrow",
        "gap-witnesses-narrow",
    )
    if eps == 0:
        na = "eps = 0: the exact factorization h^(r)A = r-fold m^A applies instead"
        checks = [CheckItem(name, "not-applicable", na) for name in names]
        return WitnessReport(ground=ground, params=params, checks=checks)

    full = set(generalized_sumset(ground, params).values)
    min_full = min(full)
    checks = []

    # Split inclusion: (m+1)^A + (h-m-1)^(r-1)A inside h^(r)A.  With
    # eps >= 1 we have m + 1 <= k and h - m - 1 <= (r-1)k, so both
    # factors are nonempty (the zero-summand sumset is {0}).
    head = _restricted_values(A, m + 1)
    tail_h = h - m - 1
    if tail_h == 0:
        tail = {0}
    else:
        tail = set(
            generalized_sumset(ground, SumParams(h=tail_h, r=r - 1)).values
        )
    lhs = _minkowski(head, tail)
    if lhs <= full:
        checks.append(
            CheckItem(
                "split-inclusion",
                "pass",
                f"{len(lhs)} sums of (m+1 distinct) + (cap r-1) all inside",
            )
        )
    else:
        checks.append(CheckItem("split-inclusion", "fail", _missing_detail(lhs, full)))

    wide = m + eps <= k
    narrow = r - 1 > m + eps > k

    if wide:
        checks.extend(_check_wide(A, r, m, eps, full, min_full))
        na = "narrow case needs r - 1 > m + eps > k"
    elif narrow:
        checks.extend(_check_narrow(A, r, m, eps, full, min_full, head))
        na = "wide case needs m + eps <= k"
    else:
        na = (
            f"neither case condition holds for m+eps={m + eps}, k={k}, r={r}; "
            f"the mirrored parameters cover this instance"
        )
    ran = {item.name: item for item in checks}
    checks = [ran.get(name, CheckItem(name, "not-applicable", na)) for name in names]
    return WitnessReport(ground=ground, params=params, checks=checks)


def _check_wide(A, r, m, eps, full, min_full):
    """Wide case (m + eps <= k): bundle and chain built below m^A blocks."""

    def witness(x: int, y: int) -> int:
        return (
            r * sum(A[:m])
            + sum(A[m : m + x])
            + y * A[m + x - 1]
            + (eps - x - y) * A[m + x]
        )

    m_block = _restricted_values(A, m)
    return _check_case(
        "wide",
        full,
        min_full,
        bundle=_minkowski(_fold(m_block, r - 1), _restricted_values(A, m + eps)),
        closed_min=r * sum(A[:m]) + sum(A[m : m + eps]),
        empty="eps = 1",
        witness=witness,
        grid=[(x, y) for x in range(1, eps) for y in range(0, eps - x + 1)],
        # witness(x, 0) == witness(x + 1, eps - x - 1), so after x = 1
        # each run of y starts one lower
        chain=[
            witness(x, y)
            for x in range(1, eps)
            for y in range(eps - x - (x > 1), -1, -1)
        ],
        gaps=(eps * eps - eps) // 2,
    )


def _check_narrow(A, r, m, eps, full, min_full, head):
    """Narrow case (r - 1 > m + eps > k): bundle built from head = (m+1)^A."""

    def witness(x: int, y: int) -> int:
        body = sum(A[i] for i in range(x - 1, m) if i != y - 1)
        return (r - 1) * sum(A[:m]) + eps * A[m] + body + x * A[m]

    m_block = _restricted_values(A, m)
    return _check_case(
        "narrow",
        full,
        min_full,
        bundle=_minkowski(_fold(head, m + eps), _fold(m_block, r - 1 - m - eps)),
        closed_min=(r - 1) * sum(A[:m]) + (m + eps) * A[m],
        empty="m = 0",
        witness=witness,
        grid=[(x, y) for x in range(1, m + 1) for y in range(x, m + 1)],
        chain=[min_full]
        + [witness(x, y) for x in range(1, m + 1) for y in range(m, x - 1, -1)],
        gaps=m * (m + 1) // 2,
    )


def _check_case(
    case, full, min_full, *, bundle, closed_min, empty, witness, grid, chain, gaps
):
    """The block-inclusion and gap-witness verdicts of either case.

    The bundle must lie inside h^(r)A and have its closed-form minimum.
    The gap family is empty (for the condition ``empty``) when the
    (x, y) grid is; otherwise every witness on the grid must be in
    h^(r)A, and the chain must increase strictly, end at min bundle and
    put its other ``gaps`` members in [min h^(r)A, min bundle - 1].
    """
    min_bundle = min(bundle)
    name = f"block-inclusion-{case}"
    if not bundle <= full:
        block = CheckItem(name, "fail", _missing_detail(bundle, full))
    elif min_bundle != closed_min:
        detail = f"min bundle {min_bundle} != closed form {closed_min}"
        block = CheckItem(name, "fail", detail)
    else:
        detail = (
            f"bundle of {len(bundle)} sums inside; min {min_bundle} "
            f"matches closed form"
        )
        block = CheckItem(name, "pass", detail)

    name = f"gap-witnesses-{case}"
    if not grid:
        detail = f"family empty for {empty}: min bundle equals min h^(r)A"
        return [block, CheckItem(name, "pass", detail)]
    problems = [(x, y) for x, y in grid if witness(x, y) not in full]
    if problems:
        detail = f"witnesses not in h^(r)A at (x, y) = {problems[:5]}"
        return [block, CheckItem(name, "fail", detail)]
    ok_strict = all(a < b for a, b in zip(chain, chain[1:]))
    ok_end = chain[-1] == min_bundle
    gap = chain[:-1]
    ok_interval = all(min_full <= v <= min_bundle - 1 for v in gap)
    ok_count = len(gap) == gaps
    if ok_strict and ok_end and ok_interval and ok_count:
        detail = (
            f"strict chain of {len(chain)} members; {len(gap)} strictly "
            f"below min bundle {min_bundle}"
        )
        return [block, CheckItem(name, "pass", detail)]
    detail = (
        f"strict={ok_strict} endpoint={ok_end} interval={ok_interval} "
        f"count={ok_count} chain={chain}"
    )
    return [block, CheckItem(name, "fail", detail)]


def is_arithmetic_progression(ground: GroundSet) -> bool:
    """Whether the ground set is an arithmetic progression.

    Integers: consecutive gaps all equal (k <= 2 trivially qualifies).
    Mod p: A = {c, c+d, ..., c+(k-1)d} for some nonzero d.  Then
    A[1] - A[0] = i*d for some 0 < |i| < k, and d, -d give the same
    set, so only the k - 1 differences (A[1] - A[0]) / i are tried.
    For k < p, A splits into k - |A & (A + d)| runs of step d, so A is
    one progression of difference d exactly when |A & (A + d)| = k - 1;
    k = p is all of Z/pZ.
    """
    A = ground.elements
    p = ground.modulus
    k = len(A)
    if p is None:
        return all(y - x == A[1] - A[0] for x, y in zip(A, A[1:]))
    if k <= 2 or k == p:
        return True
    members = set(A)
    return any(
        sum((a + d) % p in members for a in A) == k - 1
        for d in ((A[1] - A[0]) * pow(i, -1, p) % p for i in range(1, k))
    )
