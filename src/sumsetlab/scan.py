"""Exhaustive scans for equality sets of the closed-form bounds.

Two scans, both over canonically normalized candidates so that no
translate or dilate of a set is visited twice (cardinalities, bounds
and slack are invariant under both):

* integer scan: sets 0 = a_1 < ... < a_k <= max_diameter whose gaps
  have gcd 1, checked against the capped-multiplicity bound, with the
  paper's inverse hypotheses k >= 5, 2 <= r <= h <= r*k - 2;
* mod-p scan: k-subsets of Z/pZ containing 0, checked against the
  distinct-sum bound |h^A| >= min(p, hk - h^2 + 1), with Karolyi's
  inverse hypotheses h == 2, k >= 5, p > 2k - 3.  Other h are accepted
  for exploration but assert nothing.

One rule serves both.  Outside its hypotheses a scan asserts only that
no set falls below the bound.  Inside them, only progressions attain
the bound: every equality set must be an arithmetic progression, and
the progression {0, ..., k-1} must be one.  Over Z the normalization
leaves {0, ..., k-1} as the only progression, so there the rule reads
"{0, ..., k-1} only".

Both are thin wrappers over one driver: candidates are the k-sets
0 = a_1 < ... < a_k <= largest (max_diameter, or p - 1 in Z/pZ), the
driver refuses up front if their count exceeds the cap, or if the
engine's 64-bit or mask-width guard refuses their DP, and it splits the
enumeration into chunks by the prefix (0,) or (0, a_2), optionally over
worker processes; chunk results are merged in prefix order.  A chunk
walks depth-first with the engine's DP step ``core._extend``, one DP per
prefix depth, so a candidate costs one element step and a popcount.
``generalized_sumset`` recomputes every set found at or below the bound,
and its cardinality is the one reported.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from .core import (
    GroundSet,
    SumParams,
    bound_direct_integers,
    bound_erdos_heilbronn,
    generalized_sumset,
    _extend,
    _guard_magnitude,
    _guard_mask_width,
)
from .errors import DomainError, ResourceCapError
from .verify import is_arithmetic_progression

DEFAULT_CAP = 10**8

InstanceCallback = Callable[[dict], None]


@dataclass(frozen=True)
class ScanReport:
    """Aggregated outcome of one exhaustive scan."""

    kind: str  # record label: "extremal" | "inverse-eh"
    k: int
    h: int
    r: int
    p: Optional[int]
    max_diameter: Optional[int]
    bound: int
    candidates: int
    evaluated: int
    equality_sets: Tuple[Tuple[int, ...], ...]
    violations: Tuple[Tuple[int, ...], ...]
    non_ap_equality: Tuple[Tuple[int, ...], ...]
    in_hypothesis: bool
    hypothesis: str

    @property
    def counterexamples(self) -> Tuple[Tuple[int, ...], ...]:
        """Sets refuting a claim this scan is entitled to assert: sets
        below the bound, and inside the hypotheses every equality set that
        is not a progression, then {0, ..., k-1} if it is not at the bound."""
        if not self.in_hypothesis:
            return self.violations
        interval = tuple(range(self.k))
        missing = () if interval in self.equality_sets else (interval,)
        return self.violations + self.non_ap_equality + missing

    @property
    def verdict(self) -> str:
        return "fail" if self.counterexamples else "pass"

    def to_record(self) -> dict:
        return {
            "op": "scan-summary",
            "kind": self.kind,
            "k": self.k,
            "h": self.h,
            "r": self.r,
            "p": self.p,
            "max_diameter": self.max_diameter,
            "bound": self.bound,
            "candidates": self.candidates,
            "evaluated": self.evaluated,
            "equality_sets": [list(s) for s in self.equality_sets],
            "violations": [list(s) for s in self.violations],
            "non_ap_equality": [list(s) for s in self.non_ap_equality],
            "in_hypothesis": self.in_hypothesis,
            "hypothesis": self.hypothesis,
            "counterexamples": [list(s) for s in self.counterexamples],
            "verdict": self.verdict,
        }


def _chunk(args) -> Tuple[int, list]:
    """Evaluate all normalized candidates that start with ``prefix``, in
    ``combinations`` order, extending each prefix's DP by one element.
    Returns (evaluated, rows): the (candidate, cardinality) pairs of
    every candidate if ``collect``, else of those at or below ``bound``."""
    k, params, p, largest, prefix, bound, collect = args
    h, r = params.h, params.r
    evaluated = 0
    rows = []

    def walk(cand, dp, g):
        nonlocal evaluated
        i = len(cand)
        if i < len(prefix):
            choices = (prefix[i],)
        else:
            choices = range(cand[-1] + 1, largest - k + i + 2)
        if i < k - 1:
            for a in choices:
                walk(cand + (a,), _extend(dp, a, i, k, h, r, p), math.gcd(g, a))
            return
        for a in choices:
            # Over Z a set with gcd > 1 is a dilate of a smaller candidate.
            if p is None and math.gcd(g, a) > 1:
                continue
            evaluated += 1
            card = _extend(dp, a, i, k, h, r, p)[h].bit_count()
            if collect or card <= bound:
                rows.append((cand + (a,), card))

    walk((), [1] + [0] * h, 0)
    return evaluated, rows


def _scan(
    kind: str,
    k: int,
    params: SumParams,
    p: Optional[int],
    largest: int,
    bound: int,
    in_hypothesis: bool,
    hypothesis: str,
    cap: int,
    jobs: int,
    on_instance: Optional[InstanceCallback],
) -> ScanReport:
    """Scan the k-sets 0 = a_1 < ... < a_k <= largest, in Z/pZ when
    ``p`` is given, against ``bound``.  Work is split by the smallest
    nonzero element; chunks merge in that order whatever ``jobs`` is."""
    count = math.comb(largest, k - 1)
    if count > cap:
        raise ResourceCapError(count, cap)
    # The engine's guards, once: every candidate but (0,) spans `largest`.
    span = largest if k > 1 else 0
    if p is None:
        _guard_magnitude(params.h, span)
    _guard_mask_width(params.h, span, p)
    collect = on_instance is not None
    prefixes = [(0,)] if k == 1 else [(0, f) for f in range(1, largest - k + 3)]
    chunk_args = [
        (k, params, p, largest, prefix, bound, collect) for prefix in prefixes
    ]
    if jobs > 1 and len(chunk_args) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_chunk, chunk_args))
    else:
        results = [_chunk(a) for a in chunk_args]

    # The engine is the authority for every set the report names.
    rows = [
        (cand, card if card > bound else
         generalized_sumset(GroundSet(cand, p), params).cardinality)
        for _, chunk_rows in results
        for cand, card in chunk_rows
    ]
    if collect:
        for cand, card in rows:
            on_instance(
                {
                    "op": "scan",
                    "kind": kind,
                    "set": list(cand),
                    "p": p,
                    "cardinality": card,
                    "bound": bound,
                    "slack": card - bound,
                    "equality": card == bound,
                }
            )
    equality = tuple(cand for cand, card in rows if card == bound)
    non_ap = tuple(
        s for s in equality if not is_arithmetic_progression(GroundSet(s, p))
    )
    return ScanReport(
        kind=kind,
        k=k,
        h=params.h,
        r=params.r,
        p=p,
        max_diameter=largest if p is None else None,
        bound=bound,
        candidates=count,
        evaluated=sum(ev for ev, _ in results),
        equality_sets=equality,
        violations=tuple(cand for cand, card in rows if card < bound),
        non_ap_equality=non_ap,
        in_hypothesis=in_hypothesis,
        hypothesis=hypothesis,
    )


def scan_extremal_integers(
    k: int,
    h: int,
    r: int,
    max_diameter: int,
    cap: int = DEFAULT_CAP,
    jobs: int = 1,
    on_instance: Optional[InstanceCallback] = None,
) -> ScanReport:
    """Scan all normalized k-sets of diameter <= max_diameter.

    Every candidate's |h^(r)A| is compared with the closed-form bound;
    equality sets and (never expected) violations are collected.
    """
    bound = bound_direct_integers(k, h, r)
    if max_diameter < k - 1:
        raise DomainError(
            f"max_diameter >= k - 1 required to fit k distinct values: "
            f"max_diameter={max_diameter}, k={k}"
        )
    return _scan(
        kind="extremal",
        k=k,
        params=SumParams(h=h, r=r),
        p=None,
        largest=max_diameter,
        bound=bound,
        in_hypothesis=k >= 5 and 2 <= r <= h <= r * k - 2,
        hypothesis="k >= 5 and 2 <= r <= h <= r*k - 2",
        cap=cap,
        jobs=jobs,
        on_instance=on_instance,
    )


def scan_inverse_eh_mod_p(
    p: int,
    k: int,
    h: int = 2,
    cap: int = DEFAULT_CAP,
    jobs: int = 1,
    on_instance: Optional[InstanceCallback] = None,
) -> ScanReport:
    """Scan all k-subsets of Z/pZ containing 0 for |h^A| equality sets.

    The default h = 2 carries the inverse statement (equality sets are
    modular progressions when k >= 5 and p > 2k - 3).  Other h values
    are exploratory: reported, asserted never.
    """
    bound = bound_erdos_heilbronn(k, h, p)
    return _scan(
        kind="inverse-eh",
        k=k,
        params=SumParams(h=h, r=1),
        p=p,
        largest=p - 1,
        bound=bound,
        in_hypothesis=h == 2 and k >= 5 and p > 2 * k - 3,
        hypothesis="h == 2 and k >= 5 and p > 2*k - 3",
        cap=cap,
        jobs=jobs,
        on_instance=on_instance,
    )


_MANIFEST_KEYS = ("k", "h", "r", "max_diameter", "p")


def parse_manifest(text: str) -> list:
    """Parse a scan grid manifest into a list of parameter dicts.

    One ``key = value`` per line; blank lines and ``#`` comments are
    skipped.  A value is an integer, a comma list, or an ``a..b``
    inclusive range; multiple multi-valued keys expand as a Cartesian
    product in key order k, h, r, max_diameter, p.
    """
    grid = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"manifest line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _MANIFEST_KEYS:
            raise DomainError(
                f"manifest line {lineno}: unknown key {key!r} "
                f"(allowed: {', '.join(_MANIFEST_KEYS)})"
            )
        if key in grid:
            raise DomainError(f"manifest line {lineno}: duplicate key {key!r}")
        grid[key] = _parse_values(value.strip(), lineno)
    if not grid:
        raise DomainError("manifest is empty")
    combos = [{}]
    for key in _MANIFEST_KEYS:
        if key not in grid:
            continue
        combos = [dict(c, **{key: v}) for c in combos for v in grid[key]]
    return combos


def _parse_values(text: str, lineno: int) -> list:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            lo_text, _, hi_text = part.partition("..")
            try:
                lo, hi = int(lo_text), int(hi_text)
            except ValueError:
                raise DomainError(
                    f"manifest line {lineno}: bad range {part!r}"
                ) from None
            if hi < lo:
                raise DomainError(
                    f"manifest line {lineno}: empty range {part!r}"
                )
            out.extend(range(lo, hi + 1))
        else:
            try:
                out.append(int(part))
            except ValueError:
                raise DomainError(
                    f"manifest line {lineno}: bad value {part!r}"
                ) from None
    if not out:
        raise DomainError(f"manifest line {lineno}: no values")
    return out
