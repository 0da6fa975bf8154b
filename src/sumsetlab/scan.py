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
a parallel one at most 2 * jobs chunks submitted and not yet folded.
A chunk is handed its point as a serial and the point's arguments.  At
k <= 2 a chunk's prefix is already its one candidate, a progression and
so at its bound, and it goes straight to the engine's recheck below: such
a point builds no tables, steps no DP and runs its chunks serially.  At
k >= 3 each process that runs chunks builds a point's tables at most
once, on its first chunk of the point, and drops them for the next
point's: the doubling shifts of each element 0..largest and each
element's text.
A chunk walks depth-first, on an explicit stack, on the engine's packed
rows, whose format, step and offsets come from ``core._packed``: one
step per prefix element, so each prefix's DP is shared by every
candidate that extends it.  A row of k - 1 elements is stepped, has its
masks at t = h - min(r, h)..h read from it once by shifts to those
offsets, and has its leaves evaluated in the loop of its parent node:
every candidate a that ends it costs min(r, h) shift-ORs of those masks
by Horner's rule in a, min(r, h) folds mod p, and a popcount.  A scan
prices nothing: its rows are those of its widest candidate, which the
engine's validation at the point bounds, and mod p a point whose row of
2p-bit slots is above the mask guard is refused with it.
``generalized_sumset`` recomputes every set found at or below the bound,
and its cardinality is the one reported.  In records mode each node of
the walk carries its prefix's text, and a candidate above the bound gets
its line as one string build: the head and tail for its cardinality,
split on first use from its record encoded with an empty set, around
that text and its last element's.  A candidate at or below the bound
leaves a placeholder that the fold fills from the engine's cardinality,
and a chunk's lines are handed over in one call.

A grid walks each class of its points once.  Two identities make points
share every candidate's cardinality: h^(r)A = hA whenever r >= h, as the
cap never binds, and |h^(r)A| = |(r*k - h)^(r)A|, as s -> r * sum(A) - s
maps one onto the other.  ``_class`` keys a point by (scan, k,
largest, p, bound, canonical (h, r)), the canonical pair from
r -> min(r, h) and h -> min(h, r*k - h) applied until neither changes;
points with one key have the same candidates, cardinalities and bound, and
so print the same ``"op":"scan"`` records.  The first point of a class
that a later point shares holds its chunk results (the evaluated count,
the lines before the fill and the candidates at or below the bound), and
each later point folds those in place of a walk.  Every point still runs
its own cap and size checks, and its fold rechecks each set at or below
the bound with ``generalized_sumset`` at the point's own (h, r), so every
equality set and violation still rests on the engine.  A class's results
are dropped after its last point.  All that a grid holds stays within
``_KEEP_BUDGET`` entries, one per chunk, per record line and per
candidate at or below the bound, some 6 MB of record lines; a class that
would pass it holds nothing, and its next point walks again.
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
from functools import cache, lru_cache, partial
from typing import Callable, Optional, Tuple

from .core import (
    GroundSet,
    SumParams,
    bound_direct_integers,
    bound_erdos_heilbronn,
    generalized_sumset,
    _packed,
    _validate_params,
    _validate_row,
)
from .errors import DomainError, ResourceCapError
from .verify import is_arithmetic_progression

DEFAULT_CAP = 10**8

RecordsCallback = Callable[[list], None]

# One encoder for every record line (json.dumps with options builds a new
# one per call).
_json_line = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


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
    comma-joined elements, as ``_json_line`` writes the record: each
    cardinality's line, encoded on first use with an empty set, split at
    that set."""

    def __init__(self, kind: str, p: Optional[int], bound: int):
        self.record = {"kind": kind, "op": "scan", "p": p, "bound": bound, "set": []}

    def __missing__(self, card):
        bound = self.record["bound"]
        line = _json_line({**self.record, "cardinality": card, "equality": card == bound,
                           "slack": card - bound})
        head, tail = line.split('"set":[]')
        parts = self[card] = (f'{head}"set":[', f"]{tail}")
        return parts


# Serials that tell a process's scan points apart, so that no tables are
# carried from one point to the next.
_POINTS = itertools.count()


@lru_cache(maxsize=1)
def _tables(point: tuple) -> tuple:
    """The walk of a scan point (serial, k, params, p, largest), which a
    chunk asks for only at k >= 3, built at most once per point in each
    process, and dropped for the next point's: ``core._packed``'s step,
    offsets and cut at h for the widest candidate's span, and lists, for
    each element a = 0..largest, of its shifts and its text."""
    _, _, params, p, largest = point
    _, step, shifts, offsets, cut = _packed(params.h, params.r, p, largest)
    elements = range(largest + 1)
    return step, offsets, cut, list(map(shifts, elements)), list(map(str, elements))


def _chunk(point, bound, parts, prefix) -> Tuple[int, list, list]:
    """Evaluate all normalized candidates of ``point`` (serial, k, params,
    p, largest) that start with ``prefix``, in ``combinations`` order.
    Returns (evaluated, lines, low): with ``parts`` (:class:`_LineParts`),
    every candidate's record line, None for one at or below ``bound``, and
    without, no lines; and the candidates at or below ``bound``.  A prefix
    that is already a whole candidate (k <= 2) is a progression, at its
    bound, and is handed to the engine's recheck as one at or below it.
    Otherwise the chunk walks with the point's :func:`_tables`, extending
    each prefix's packed row by one element, and reads the candidates that
    end a row of k - 1 elements from its masks at t = h - min(r, h)..h."""
    _, k, params, p, largest = point
    if len(prefix) == k:
        if p is None and math.gcd(*prefix) > 1:
            return 0, [], []  # a dilate of {0, 1}
        return 1, [None] if parts is not None else [], [prefix]
    grow, offsets, cut, steps, texts = _tables(point)
    o0, o1, o2, o3 = offsets[:4]
    deep = offsets[:3:-1]  # c = m..4
    # Mod p a leaf's shifts are not reduced, so it spans up to m + 1 times
    # p bits and is folded m times.
    folds, residues = range(min(params.r, params.h)), (1 << (p or 0)) - 1
    evaluated = 0
    lines, low = [], []
    # Depth-first over the prefixes of fewer than k - 1 elements, each node
    # a prefix with its row, the gcd of its elements and their text as a
    # record writes it ("0,3,5,"); the row of no element is 1.
    stack = [((), 1, 0, "")]
    while stack:
        cand, state, g, text = stack.pop()
        i = len(cand)
        choices = (prefix[i],) if i < len(prefix) else range(cand[-1] + 1, largest - k + i + 2)
        if i < k - 2:
            stack += [(cand + (a,), grow(state, steps[a]), math.gcd(g, a), f"{text}{texts[a]},")
                      for a in reversed(choices)]
            continue
        # Each row of k - 1 elements is stepped, read and its leaves
        # evaluated in its parent's loop.
        for b in choices:
            row_g, row_text = math.gcd(g, b), f"{text}{texts[b]},"
            ends = range(b + 1, largest + 1)
            if p is None and row_g != 1:
                # Over Z a set with gcd > 1 is a dilate of a smaller candidate.
                ends = [a for a in ends if math.gcd(row_g, a) < 2]
            # Each leaf's mask at t = h is the OR of dp[h - c] << c*a over
            # c = 0..m, by Horner's rule in a from the row's masks read
            # once: the masks of c = 0..3 (0 past m) in one expression, and
            # those of c = 4..m, if any, ORed in from a second Horner sum.
            row = grow(state, steps[b])
            top, b1 = row >> o0 & cut, row >> o1 & cut
            b2, b3 = row >> o2 & cut, row >> o3 & cut
            rest = [row >> o & cut for o in deep] if deep else ()
            evaluated += len(ends)
            for a in ends:
                acc = top | (b1 | (b2 | b3 << a) << a) << a
                if rest:
                    more = 0
                    for x in rest:
                        more = more << a | x
                    acc |= more << 4 * a
                if p is not None:
                    for _ in folds:
                        acc = acc & residues | acc >> p
                card = acc.bit_count()
                if card <= bound:
                    low.append(cand + (b, a))
                    if parts is not None:
                        lines.append(None)
                elif parts is not None:
                    head, tail = parts[card]
                    lines.append(f"{head}{row_text}{texts[a]}{tail}")
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
    replay: Optional[list] = None,
    hold: Optional[Callable] = None,
) -> ScanReport:
    """Scan the k-sets 0 = a_1 < ... < a_k <= largest, in Z/pZ when
    ``p`` is given, against ``bound``, in chunks split by the smallest
    nonzero element: run in ``pool()`` if jobs > 1, k > 2 and there are
    several, folded in that order as each arrives.  ``on_records``, if
    given, gets the record lines of each chunk that evaluated a candidate.
    With ``replay``, the chunk results of a point of the same class, the
    point folds those and walks nothing; ``hold``, if given, is passed the
    walk's chunk results and yields them back, so that it can keep them
    for a later point."""
    count = math.comb(largest, k - 1)
    if count > cap:
        raise ResourceCapError(count, cap)
    # The engine's validation, once, on the widest candidate, and at k >= 3,
    # where the point walks, that of its packed rows.
    widest = tuple(range(k - 1)) + (largest,) if k > 1 else (0,)
    (_validate_row if k > 2 else _validate_params)(GroundSet(widest, p), params.h, params.r)
    parts = _LineParts(kind, p, bound) if on_records is not None else None
    # The point travels to a worker as its serial and arguments, and the
    # worker builds its tables.
    chunk = partial(_chunk, (next(_POINTS), k, params, p, largest), bound, parts)
    # a_2 of each chunk's prefix (0, a_2); over Z at k = 2 every other a_2
    # makes a dilate of {0, 1}, skipped for its gcd
    seconds = range(1, 2 if p is None and k == 2 else largest - k + 3)
    prefixes = zip(itertools.repeat(0), seconds) if k > 1 else [(0,)]
    evaluated = 0
    equality, violations = [], []
    if replay is not None:
        results = replay
    elif jobs > 1 and k > 2 and len(seconds) > 1:
        # Finished chunks wait for the fold, so a bounded window keeps
        # memory at O(jobs) chunks while every worker has work queued.
        results = _in_order(pool(), chunk, prefixes, 2 * jobs)
    else:
        results = map(chunk, prefixes)
    if hold is not None:
        results = hold(results)
    for chunk_evaluated, lines, low in results:
        evaluated += chunk_evaluated
        if lines and low:
            lines = lines.copy()  # a held chunk keeps its placeholders
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

# The chunk results that a grid holds for later points of a class, in
# entries: one per chunk, per record line and per candidate at or below the
# bound, over every class held at once.  A record line of a k = 6 point
# at max_diameter 12 takes 174 bytes on CPython 3.11 (its str and its list
# slot), so the budget holds some 6 MB of such lines.
_KEEP_BUDGET = 2**15


def _class(name: str, point: tuple) -> tuple:
    """The class of a scan point (``_scan``'s arguments from k on): the
    points of one class have the same candidates, cardinalities and bound,
    and so the same chunk results.  Its key is (name, k, largest, p, bound,
    h, r) with (h, r) made canonical by r -> min(r, h), since h^(r)A = hA
    for r >= h, and h -> min(h, r*k - h), since |h^(r)A| = |(r*k - h)^(r)A|,
    applied until neither changes."""
    k, params, p, largest, bound = point[:5]
    h, r = params.h, params.r
    while True:
        canonical = min(h, min(r, h) * k - h), min(r, h)
        if canonical == (h, r):
            return name, k, largest, p, bound, h, r
        h, r = canonical


class _Kept(dict):
    """Class -> the chunk results of its first point, held for its later
    points, while every class held totals at most ``_KEEP_BUDGET`` entries;
    a class that would pass it holds nothing, and its next point walks."""

    entries = 0

    def hold(self, key, results):
        """Yield ``results``, holding each under ``key`` while it fits."""
        held = self[key] = []
        for result in results:
            if held is not None:
                size = 1 + len(result[1]) + len(result[2])
                if self.entries + size <= _KEEP_BUDGET:
                    held.append(result)
                    self.entries += size
                else:
                    self.drop(key)
                    held = None
            yield result

    def drop(self, key) -> None:
        for _, lines, low in self.pop(key, ()):
            self.entries -= 1 + len(lines) + len(low)


def scan_grid(name, grid, cap, jobs, on_records, on_report) -> None:
    """Run scan ``name`` at each point of ``grid`` (key -> values), the
    product of the keys it takes in grid order, the last varying fastest,
    and pass each report to ``on_report``.  All points share one pool of
    ``jobs`` workers, started by the first scan with several chunks.  A
    point whose :func:`_class` a later point shares keeps its chunk results
    (:class:`_Kept`), and the later points fold those, each with its own
    checks and rechecks, until the class's last point."""
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

        points = []
        for values in itertools.product(*(grid[key] for key in names)):
            try:
                points.append(arguments(**dict(zip(names, values))))
            except DomainError as error:  # raised when the grid reaches it
                points.append(error)
        keys = [None if isinstance(point, DomainError) else _class(name, point)
                for point in points]
        last = {key: i for i, key in enumerate(keys)}
        kept = _Kept()
        for i, (point, key) in enumerate(zip(points, keys)):
            if key is None:
                raise point
            replay = kept.get(key)
            hold = partial(kept.hold, key) if replay is None and last[key] > i else None
            on_report(_scan(name, *point, cap, jobs, pool, on_records, replay, hold))
            if last[key] == i:
                kept.drop(key)


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
