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

Both run at each point of a grid through one driver, ``scan_grid``:
candidates are the k-sets 0 = a_1 < ... < a_k <= largest (max_diameter,
or p - 1 in Z/pZ), a point is refused up front if their count exceeds
the cap, or if the engine's validation refuses the widest candidate,
and its enumeration is split into chunks by the prefix (0,) or (0, a_2),
optionally over the one pool of worker processes that the driver call
shares across points; chunk results are folded in prefix order as each
chunk arrives, so a serial scan holds one chunk's results at a time and
a parallel one at most 2 * jobs chunks submitted and not yet folded.  A
chunk walks depth-first, on an explicit stack, with the engine's DP
steps from ``core._walker``, one step per prefix element, so each
prefix's DP is shared by every candidate that extends it.  Each row of
k - 1 elements has its masks at t = h - min(r, h)..h read once, and
every candidate that ends it costs min(r, h) shift-ORs of those masks,
a fold mod p, and a popcount.  The engine's cost rule, ``core._packs``,
picks the layout once per chunk from the scan's size: packed rows of
slots t = 0..h, laid out with the widest candidate's stride, when they
are small, and per-t masks, cut to the t that the remaining elements
can still complete to h, when they are wide.  ``generalized_sumset``
recomputes every set found at or below the bound, and its cardinality
is the one reported.  In records mode each node of the walk carries its
prefix's text, and a candidate above the bound gets its line as one
string build: the head and tail for its cardinality, encoded on first
use, around that text and its last element.  A candidate at or below
the bound leaves a placeholder that the fold fills from the engine's
cardinality, and a chunk's lines are handed over in one call.
"""

from __future__ import annotations

import itertools
import json
import math
import signal
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, Optional, Tuple

from .core import (
    GroundSet,
    SumParams,
    bound_direct_integers,
    bound_erdos_heilbronn,
    generalized_sumset,
    _packs,
    _validate_params,
    _walker,
)
from .errors import DomainError, ResourceCapError
from .verify import is_arithmetic_progression

DEFAULT_CAP = 10**8

RecordsCallback = Callable[[list], None]


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


class _LineParts(dict):
    """cardinality -> the (head, tail) of a record line around its set's
    comma-joined elements, encoded on first use as the CLI's encoder
    writes the record (compact, keys sorted)."""

    def __init__(self, kind: str, p: Optional[int], bound: int):
        super().__init__()
        self.record = {"bound": bound, "kind": kind, "op": "scan", "p": p, "set": []}

    def __missing__(self, card):
        bound = self.record["bound"]
        line = json.dumps({**self.record, "cardinality": card, "equality": card == bound,
                           "slack": card - bound}, sort_keys=True, separators=(",", ":"))
        head, tail = line.split('"set":[]')
        parts = self[card] = (head + '"set":[', "]" + tail)
        return parts


def _chunk(k, params, p, largest, bound, parts, prefix) -> Tuple[int, list, list]:
    """Evaluate all normalized candidates that start with ``prefix``, in
    ``combinations`` order, extending each prefix's DP state by one
    element, and reading the candidates that end a row of k - 1 elements
    from the masks at t = h - min(r, h)..h that the row's state holds.
    Returns (evaluated, lines, low): with ``parts`` (:class:`_LineParts`),
    every candidate's record line, None for one at or below ``bound``, and
    without, no lines; and the candidates at or below ``bound``."""
    h, r = params.h, params.r
    # Every candidate's DP is laid out for the widest candidate.  A scan
    # steps about one row per k - 1 elements and reads a row per candidate.
    stride = h * largest + 1 if p is None else 2 * p
    steps = math.comb(largest, k - 2) if k > 1 else 0
    packed = _packs(steps, math.comb(largest, k - 1), h, r, stride)
    start, grows, read = _walker(k, h, r, p, stride, packed)
    m = min(r, h)
    cut = (1 << p) - 1 if p is not None else 0
    evaluated = 0
    lines, low = [], []
    # Depth-first, each node a prefix with its DP state, the gcd of its
    # elements and their text as a record writes it ("0,3,5,").
    stack = [((), start, 0, "")]
    while stack:
        cand, state, g, text = stack.pop()
        i = len(cand)
        if i < len(prefix):
            choices = (prefix[i],)
        else:
            choices = range(cand[-1] + 1, largest - k + i + 2)
        if i < k - 1:
            grow = grows[i]
            stack += [(cand + (a,), grow(state, a), math.gcd(g, a), f"{text}{a},")
                      for a in reversed(choices)]
            continue
        if p is None and g != 1:
            # Over Z a set with gcd > 1 is a dilate of a smaller candidate.
            choices = [a for a in choices if math.gcd(g, a) < 2]
        # Each leaf's mask at t = h is the OR of dp[h - c] << c*a over
        # c = 0..m, folded mod p, from the row's masks read once.
        masks = read(state)
        terms = [(masks[m - c], c) for c in range(1, m + 1) if masks[m - c]]
        evaluated += len(choices)
        for a in choices:
            acc = masks[m]
            for x, c in terms:
                acc |= x << (c * a if p is None else c * a % p)
            if p is not None:
                acc = acc & cut | acc >> p
            card = acc.bit_count()
            if card <= bound:
                low.append(cand + (a,))
            if parts is not None:
                head, tail = parts[card]
                lines.append(f"{head}{text}{a}{tail}" if card > bound else None)
    return evaluated, lines, low


def _in_order(pool, fn, items, window: int):
    """Yield fn(item) for each item in order, computed in ``pool`` with at
    most ``window`` calls submitted and not yet yielded."""
    pending = deque()
    for item in items:
        if len(pending) == window:
            yield pending.popleft().result()
        pending.append(pool.submit(fn, item))
    while pending:
        yield pending.popleft().result()


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
    pool: Callable[[], ProcessPoolExecutor],
    on_records: Optional[RecordsCallback],
) -> ScanReport:
    """Scan the k-sets 0 = a_1 < ... < a_k <= largest, in Z/pZ when
    ``p`` is given, against ``bound``, in chunks split by the smallest
    nonzero element: run in ``pool()`` if jobs > 1 and there are several,
    folded in that order as each arrives.  ``on_records``, if given, gets
    the record lines of each chunk that evaluated a candidate."""
    count = math.comb(largest, k - 1)
    if count > cap:
        raise ResourceCapError(count, cap)
    # The engine's validation, once, on the widest candidate.
    widest = tuple(range(k - 1)) + (largest,) if k > 1 else (0,)
    _validate_params(GroundSet(widest, p), params)
    parts = _LineParts(kind, p, bound) if on_records is not None else None
    chunk = partial(_chunk, k, params, p, largest, bound, parts)
    prefixes = [(0,)] if k == 1 else [(0, f) for f in range(1, largest - k + 3)]
    evaluated = 0
    equality, violations = [], []
    if jobs > 1 and len(prefixes) > 1:
        # Finished chunks wait for the fold, so a bounded window keeps
        # memory at O(jobs) chunks while every worker has work queued.
        results = _in_order(pool(), chunk, prefixes, 2 * jobs)
    else:
        results = map(chunk, prefixes)
    for chunk_evaluated, lines, low in results:
        evaluated += chunk_evaluated
        spot = -1
        for cand in low:
            # The engine is the authority for every set the report names.
            card = generalized_sumset(GroundSet(cand, p), params).cardinality
            if card < bound:
                violations.append(cand)
            elif card == bound:
                equality.append(cand)
            if lines:
                spot = lines.index(None, spot + 1)
                head, tail = parts[card]
                lines[spot] = f"{head}{','.join(map(str, cand))}{tail}"
        if lines:
            on_records(lines)
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
        evaluated=evaluated,
        equality_sets=tuple(equality),
        violations=tuple(violations),
        non_ap_equality=non_ap,
        in_hypothesis=in_hypothesis,
        hypothesis=hypothesis,
    )


def _extremal(k, h, r, max_diameter) -> tuple:
    """``_scan``'s arguments from k to hypothesis at one extremal point
    (``_inverse_eh``: at one inverse-eh point)."""
    bound = bound_direct_integers(k, h, r)
    if max_diameter < k - 1:
        raise DomainError(
            f"max_diameter >= k - 1 required to fit k distinct values: "
            f"max_diameter={max_diameter}, k={k}"
        )
    return (k, SumParams(h=h, r=r), None, max_diameter, bound,
            k >= 5 and 2 <= r <= h <= r * k - 2, "k >= 5 and 2 <= r <= h <= r*k - 2")


def _inverse_eh(p, k, h=2) -> tuple:
    return (k, SumParams(h=h, r=1), p, p - 1, bound_erdos_heilbronn(k, h, p),
            h == 2 and k >= 5 and p > 2 * k - 3, "h == 2 and k >= 5 and p > 2*k - 3")


# Each scan's help line, the grid keys it requires and those it takes if
# given (a grid's other keys repeat no scan), and its point's arguments.
_SCANS = {
    "extremal": ("normalized integer sets up to a diameter",
                 ("k", "h", "r", "max_diameter"), (), _extremal),
    "inverse-eh": ("k-subsets of Z/pZ, distinct-sum equality sets",
                   ("p", "k"), ("h",), _inverse_eh),
}

_MANIFEST_KEYS = tuple(dict.fromkeys(key for _, required, optional, _ in _SCANS.values()
                                     for key in required + optional))


def scan_grid(name, grid, cap, jobs, on_records, on_report) -> None:
    """Run scan ``name`` at each point of ``grid`` (key -> values), the
    product of the keys it takes in grid order, the last varying fastest,
    and pass each report to ``on_report``.  All points share one pool of
    ``jobs`` workers, started by the first scan with several chunks."""
    _, required, optional, arguments = _SCANS[name]
    for key in required:
        if key not in grid:
            raise DomainError(f"scan {name} needs {key} (flag or manifest)")
    names = [key for key in grid if key in required + optional]
    with ExitStack() as stack:
        @cache
        def pool():
            # Workers die on SIGINT, so Ctrl-C breaks the pool at once; if
            # a fold stops early, chunks not yet started are dropped.
            executor = ProcessPoolExecutor(
                max_workers=jobs,
                initializer=signal.signal,
                initargs=(signal.SIGINT, signal.SIG_DFL),
            )
            @stack.push
            def stop(failed, *_):  # on an exception, stop the running chunks
                for worker in executor._processes.values() if failed else ():
                    worker.terminate()  # shutdown would wait for them
                executor.shutdown(cancel_futures=True)
            return executor

        for values in itertools.product(*(grid[key] for key in names)):
            point = arguments(**dict(zip(names, values)))
            on_report(_scan(name, *point, cap, jobs, pool, on_records))


def scan_extremal_integers(
    k: int,
    h: int,
    r: int,
    max_diameter: int,
    cap: int = DEFAULT_CAP,
    jobs: int = 1,
    on_records: Optional[RecordsCallback] = None,
) -> ScanReport:
    """Scan all normalized k-sets of diameter <= max_diameter.

    Every candidate's |h^(r)A| is compared with the closed-form bound;
    equality sets and (never expected) violations are collected.
    """
    reports = []
    scan_grid("extremal", dict(k=[k], h=[h], r=[r], max_diameter=[max_diameter]),
              cap, jobs, on_records, reports.append)
    return reports[0]


def scan_inverse_eh_mod_p(
    p: int,
    k: int,
    h: int = 2,
    cap: int = DEFAULT_CAP,
    jobs: int = 1,
    on_records: Optional[RecordsCallback] = None,
) -> ScanReport:
    """Scan all k-subsets of Z/pZ containing 0 for |h^A| equality sets.

    The default h = 2 carries the inverse statement (equality sets are
    modular progressions when k >= 5 and p > 2k - 3).  Other h values
    are exploratory: reported, asserted never.
    """
    reports = []
    scan_grid("inverse-eh", dict(p=[p], k=[k], h=[h]), cap, jobs, on_records,
              reports.append)
    return reports[0]


def parse_manifest(text: str) -> dict:
    """Parse a scan grid manifest into its key -> values table.

    One ``key = value`` per line; blank lines and ``#`` comments are
    skipped.  A value is an integer, a comma list, or an ``a..b``
    inclusive range; a value listed twice is kept once.  Keys come in
    the order k, h, r, max_diameter, p, in which a scan runs the
    Cartesian product of the keys it takes (the last varies fastest).
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
    return {key: grid[key] for key in _MANIFEST_KEYS if key in grid}


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
    return list(dict.fromkeys(out))
