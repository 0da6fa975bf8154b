"""Greedy rewriting of h^(r)A elements when r divides h.

If h = m*r, every element of h^(r)A is a sum of r elements of the
restricted sumset m^A: given a multiplicity vector (r_1, ..., r_k) with
sum h and each r_i <= r, repeatedly take the m largest remaining
multiplicities (lowest index on ties), emit the sum of those m distinct
elements, and decrement.  Two conditions make the greedy step sound,
and both are asserted at every step rather than trusted:

    (1) before step j, at least m multiplicities are still positive;
    (2) after step j, every multiplicity is at most r - j.

Violating either would be a counterexample to the rewriting claim (or a
bug), so it raises InvariantViolationError instead of returning junk.

The same split is checked set-wise by :func:`check_sumset_factorization`:
h^(r)A equals the r-fold sumset of m^A, in Z and in Z/pZ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .core import (
    GroundSet,
    SumParams,
    SumsetResult,
    classical_sumset,
    generalized_sumset,
    restricted_sumset,
)
from .errors import DomainError, InvariantViolationError


@dataclass(frozen=True)
class MultiplicityVector:
    """How many times each ground-set element is used: counts[i] <= cap."""

    counts: Tuple[int, ...]
    cap: int

    def __post_init__(self):
        if self.cap < 1:
            raise DomainError(f"cap >= 1 required, got cap={self.cap}")
        if not self.counts:
            raise DomainError("counts must be nonempty")
        for i, c in enumerate(self.counts):
            if not 0 <= c <= self.cap:
                raise DomainError(
                    f"0 <= counts[i] <= cap required: counts[{i}]={c}, cap={self.cap}"
                )
        if self.total < 1:
            raise DomainError("total multiplicity must be >= 1")

    @property
    def total(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class GreedyStep:
    """Trace of one greedy step (1-based step index).

    ``active_before`` is the number of positive multiplicities before
    the step (condition (1) demands >= m); ``max_after`` the largest
    multiplicity after decrementing (condition (2) demands <= cap - step).
    """

    step: int
    chosen: Tuple[int, ...]
    active_before: int
    max_after: int
    counts_after: Tuple[int, ...]

    def to_record(self) -> dict:
        return {
            "step": self.step,
            "chosen": list(self.chosen),
            "active_before": self.active_before,
            "max_after": self.max_after,
            "counts_after": list(self.counts_after),
        }


@dataclass(frozen=True)
class Decomposition:
    """Result of the greedy rewriting: r parts of m distinct indices each."""

    ground: GroundSet
    vector: MultiplicityVector
    parts: Tuple[Tuple[int, ...], ...]
    part_sums: Tuple[int, ...]
    trace: Tuple[GreedyStep, ...]

    @property
    def total_sum(self) -> int:
        s = sum(self.part_sums)
        return s % self.ground.modulus if self.ground.modulus else s

    def to_record(self) -> dict:
        return {
            "op": "decompose",
            "set": list(self.ground.elements),
            "p": self.ground.modulus,
            "counts": list(self.vector.counts),
            "cap": self.vector.cap,
            "parts": [list(part) for part in self.parts],
            "part_values": [
                [self.ground.elements[i] for i in part] for part in self.parts
            ],
            "part_sums": list(self.part_sums),
            "total_sum": self.total_sum,
            "trace": [s.to_record() for s in self.trace],
        }


def greedy_decompose(ground: GroundSet, vector: MultiplicityVector) -> Decomposition:
    """Rewrite the sum described by ``vector`` as cap-many m-element parts.

    Requires cap | total (i.e. eps = 0).  Each returned part is a tuple
    of m distinct indices into the ground set, and part_sums[j] is the
    corresponding element of m^A.  Ties in the greedy choice go to the
    lowest index, so the output is deterministic.
    """
    k = ground.size
    if len(vector.counts) != k:
        raise DomainError(
            f"len(counts) == k required: len(counts)={len(vector.counts)}, k={k}"
        )
    h, r = vector.total, vector.cap
    m, eps = divmod(h, r)
    if eps != 0:
        raise DomainError(
            f"cap | total required for the rewriting: total={h}, cap={r}"
        )
    counts = list(vector.counts)
    parts = []
    part_sums = []
    trace = []
    for j in range(1, r + 1):
        active = sum(1 for c in counts if c >= 1)
        if active < m:
            raise InvariantViolationError(
                f"step {j}: only {active} positive multiplicities, need {m} "
                f"(counts={tuple(counts)})"
            )
        order = sorted(range(k), key=lambda i: (-counts[i], i))
        chosen = tuple(sorted(order[:m]))
        for i in chosen:
            counts[i] -= 1
        max_after = max(counts)
        if max_after > r - j:
            raise InvariantViolationError(
                f"step {j}: a multiplicity of {max_after} remains but at most "
                f"{r - j} further uses are possible (counts={tuple(counts)})"
            )
        s = sum(ground.elements[i] for i in chosen)
        if ground.modulus:
            s %= ground.modulus
        parts.append(chosen)
        part_sums.append(s)
        trace.append(
            GreedyStep(
                step=j,
                chosen=chosen,
                active_before=active,
                max_after=max_after,
                counts_after=tuple(counts),
            )
        )
    return Decomposition(
        ground=ground,
        vector=vector,
        parts=tuple(parts),
        part_sums=tuple(part_sums),
        trace=tuple(trace),
    )


@dataclass(frozen=True)
class FactorizationReport:
    """Set-wise form of the rewriting: h^(r)A versus r-fold of m^A."""

    ground: GroundSet
    params: SumParams
    left: SumsetResult
    right: SumsetResult

    @property
    def equal(self) -> bool:
        return self.left.values == self.right.values

    @property
    def verdict(self) -> str:
        return "pass" if self.equal else "fail"

    def to_record(self) -> dict:
        left, right = set(self.left.values), set(self.right.values)
        return {
            "op": "verify",
            "kind": "factorization",
            "set": list(self.ground.elements),
            "p": self.ground.modulus,
            "h": self.params.h,
            "r": self.params.r,
            "m": self.params.m,
            "left_cardinality": self.left.cardinality,
            "right_cardinality": self.right.cardinality,
            "only_left": sorted(left - right),
            "only_right": sorted(right - left),
            "equal": self.equal,
            "verdict": self.verdict,
        }


def check_sumset_factorization(
    ground: GroundSet, params: SumParams
) -> FactorizationReport:
    """Check h^(r)A == r-fold sumset of m^A (requires r | h).

    Both sides run the one engine, with different parameters: the left
    side is h^(r)A directly, the right side the restricted sumset m^A
    followed by its r-fold classical sumset, which goes through the
    intermediate set m^A.
    """
    if params.epsilon != 0:
        raise DomainError(
            f"r | h required for the factorization: h={params.h}, r={params.r}"
        )
    left = generalized_sumset(ground, params)
    m = params.m
    block = restricted_sumset(ground, m)
    block_ground = GroundSet.of(block.values, ground.modulus)
    right = classical_sumset(block_ground, params.r)
    return FactorizationReport(ground=ground, params=params, left=left, right=right)
