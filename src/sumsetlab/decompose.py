"""Greedy rewriting of h^(r)A elements into restricted-sumset parts.

Write h = m*r + eps with 0 <= eps < r.  Every element of h^(r)A is a
sum of eps elements of (m+1)^A and r - eps elements of m^A: given a
multiplicity vector (r_1, ..., r_k) with sum h and each r_i <= r, step
j = 1..r takes the s_j = m + (j <= eps) largest remaining multiplicities
(lowest index on ties), emits the sum of those s_j distinct elements,
and decrements.  Two conditions make the greedy step sound, and both
are asserted at every step rather than trusted:

    (1) before step j, at least s_j multiplicities are still positive;
    (2) after step j, every multiplicity is at most r - j.

Violating either would be a counterexample to the rewriting claim (or a
bug), so it raises InvariantViolationError instead of returning junk.

The same split is checked set-wise by :func:`check_sumset_factorization`,
in Z and in Z/pZ, with the same r steps: h^(r)A against the sum of the
parts s_1^A, ..., s_r^A, added one at a time to a bit mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .core import (
    GroundSet,
    SumParams,
    SumsetResult,
    _add_part,
    _bits,
    _read,
    _sumset_mask,
)
from .errors import DomainError, InvariantViolationError
from .verify import _Report


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
    """Result of the greedy rewriting: r parts of distinct indices."""

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
    """Rewrite the sum described by ``vector`` as cap-many parts.

    Part j holds m + (j <= eps) distinct indices into the ground set
    (none when m = 0); its sum is an element of (m+1)^A or m^A.  Ties
    in the greedy choice go to the lowest index, so the output is
    deterministic.
    """
    k = ground.size
    if len(vector.counts) != k:
        raise DomainError(
            f"len(counts) == k required: len(counts)={len(vector.counts)}, k={k}"
        )
    h, r = vector.total, vector.cap
    m, eps = divmod(h, r)
    counts = list(vector.counts)
    parts = []
    part_sums = []
    trace = []
    for j in range(1, r + 1):
        size = m + (j <= eps)
        active = sum(1 for c in counts if c >= 1)
        if active < size:
            raise InvariantViolationError(
                f"step {j}: only {active} positive multiplicities, need {size} "
                f"(counts={tuple(counts)})"
            )
        order = sorted(range(k), key=lambda i: (-counts[i], i))
        chosen = tuple(sorted(order[:size]))
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
class FactorizationReport(_Report):
    """Set-wise form of the rewriting: h^(r)A versus the sum of its parts,
    each held as the engine's mask and read when asked for."""

    left_mask: int
    right_mask: int

    @property
    def left(self) -> SumsetResult:
        return _read(self.left_mask, self.ground, self.params.h)

    @property
    def right(self) -> SumsetResult:
        return _read(self.right_mask, self.ground, self.params.h)

    @property
    def equal(self) -> bool:
        return self.left_mask == self.right_mask

    @property
    def verdict(self) -> str:
        return "pass" if self.equal else "fail"

    def to_record(self) -> dict:
        left, right = set(self.left.values), set(self.right.values)
        return self._record(
            "factorization",
            m=self.params.m,
            left_cardinality=self.left.cardinality,
            right_cardinality=self.right.cardinality,
            only_left=sorted(left - right),
            only_right=sorted(right - left),
            equal=self.equal,
        )


def check_sumset_factorization(
    ground: GroundSet, params: SumParams
) -> FactorizationReport:
    """Check h^(r)A == s_1^A + ... + s_r^A, s_j = m + (j <= eps).

    The left side is h^(r)A from the engine.  The right side follows the
    greedy rewriting step by step: it starts from the part s_1^A and, for
    j = 2..r, adds the part s_j^A by ``core._add_part``.  Each distinct
    part size, m and m + 1 when eps >= 1, is read once, from the set's
    r = 1 profile (slot 0 is 0^A = {0}), and its shifts serve every step
    of that size.  Over Z a part's mask and shifts are in the engine's
    coordinates v - s_j * min A, so both sides' masks have the offset
    h * min A, and they are equal exactly when the sets are; mod p the
    mask is folded onto p bits at each step.
    """
    h, r, p = params.h, params.r, ground.modulus
    m, eps = divmod(h, r)
    left = _sumset_mask(ground, h, r)  # refused first, as a call at h
    small = _sumset_mask(ground, m, 1)
    large = _sumset_mask(ground, m + 1, 1) if eps else small
    mask, shifts = large, {}
    for j in range(1, r):
        part = large if j < eps else small
        if part not in shifts:
            shifts[part] = _bits(part)  # the part's values, offset 0
        mask = _add_part(mask, shifts[part], p)
    return FactorizationReport(ground, params, left, mask)
