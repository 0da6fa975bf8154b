"""Exhaustive scans, their verdict logic, manifests, and the cap.

Frozen equality sets and candidate counts were computed by direct
enumeration of multiplicity vectors over all normalized candidate sets,
independently of the package.
"""

import gc
import json
import math
import pickle
import tracemalloc
from concurrent.futures import Future, ProcessPoolExecutor
from itertools import combinations

import pytest

import sumsetlab.scan
from sumsetlab import (
    DomainError,
    GroundSet,
    ResourceCapError,
    ScanReport,
    SumParams,
    brute_force_sumset,
    generalized_sumset,
    parse_manifest,
    scan_extremal_integers,
    scan_inverse_eh_mod_p,
)
from sumsetlab.cli import run
from sumsetlab.scan import _POINTS, _SCANS, _LineParts, _chunk, _json_line, _scan, _tables, scan_grid


def _decoding(seen):
    """An ``on_records`` callback that decodes each record line into ``seen``."""
    return lambda lines: seen.extend(map(json.loads, lines))


# ===================== integer scans =====================


def test_extremal_small_outside_hypothesis():
    report = scan_extremal_integers(k=3, h=2, r=2, max_diameter=6)
    assert report.bound == 5
    assert report.candidates == math.comb(6, 2)
    assert report.evaluated == 11
    assert report.equality_sets == ((0, 1, 2),)
    assert report.violations == ()
    assert not report.in_hypothesis
    assert report.verdict == "pass"


def test_extremal_k4():
    report = scan_extremal_integers(k=4, h=3, r=3, max_diameter=7)
    assert report.bound == 10
    assert report.evaluated == 34
    assert report.equality_sets == ((0, 1, 2, 3),)


def test_extremal_inside_hypothesis():
    report = scan_extremal_integers(k=5, h=3, r=2, max_diameter=12)
    assert report.in_hypothesis
    assert report.equality_sets == ((0, 1, 2, 3, 4),)
    assert report.counterexamples == ()
    assert report.verdict == "pass"


def test_extremal_k1_and_k2():
    r1 = scan_extremal_integers(k=1, h=2, r=2, max_diameter=3)
    assert r1.evaluated == 1 and r1.equality_sets == ((0,),)
    r2 = scan_extremal_integers(k=2, h=2, r=2, max_diameter=5)
    # only {0, 1} is normalized with unit gap gcd
    assert r2.evaluated == 1 and r2.equality_sets == ((0, 1),)


def test_extremal_jobs_match_serial():
    a = scan_extremal_integers(k=4, h=4, r=2, max_diameter=8, jobs=1)
    b = scan_extremal_integers(k=4, h=4, r=2, max_diameter=8, jobs=2)
    assert a == b


def test_extremal_instance_callback():
    seen = []
    report = scan_extremal_integers(
        k=3, h=2, r=2, max_diameter=6, on_records=_decoding(seen)
    )
    assert len(seen) == report.evaluated
    assert all(rec["op"] == "scan" and "slack" in rec for rec in seen)
    eq_from_stream = [tuple(rec["set"]) for rec in seen if rec["equality"]]
    assert tuple(eq_from_stream) == report.equality_sets


@pytest.mark.parametrize("jobs", [1, 2])
def test_report_does_not_depend_on_callback(jobs):
    """Without a callback the workers keep only candidates at or below
    the bound; the report must be the one built from every candidate."""
    for scan, kwargs in (
        (scan_extremal_integers, dict(k=4, h=3, r=2, max_diameter=8)),
        (scan_inverse_eh_mod_p, dict(p=11, k=5)),
    ):
        seen = []
        with_callback = scan(**kwargs, jobs=jobs, on_records=_decoding(seen))
        assert seen and with_callback.equality_sets
        assert scan(**kwargs, jobs=jobs) == with_callback


def test_extremal_cap_refusal():
    with pytest.raises(ResourceCapError) as err:
        scan_extremal_integers(k=5, h=3, r=2, max_diameter=12, cap=100)
    assert err.value.count == math.comb(12, 4)
    assert err.value.cap == 100


def test_extremal_diameter_too_small():
    with pytest.raises(DomainError, match="max_diameter"):
        scan_extremal_integers(k=5, h=3, r=2, max_diameter=3)


def test_extremal_64_bit_guard_refuses_before_any_dp(monkeypatch, capsys):
    """h * max_diameter above 2**63 - 1 exits 1 before a chunk starts."""

    def no_dp(*args):
        raise AssertionError("DP started")

    monkeypatch.setattr(sumsetlab.scan, "_chunk", no_dp)
    monkeypatch.setattr(sumsetlab.scan, "_packed", no_dp)
    monkeypatch.setattr(sumsetlab.scan, "ProcessPoolExecutor", no_dp)
    h, r = 2**62, 2**61
    for jobs in ("1", "2"):
        code = run(["scan", "extremal", "--k", "3", "--h", str(h), "--r", str(r),
                    "--max-diameter", "10", "--jobs", jobs])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: h * max|a_i| = {h * 10} exceeds the 64-bit guard\n"
        )


def test_mask_width_guard_refuses_before_any_dp(monkeypatch, capsys):
    """A scan whose DP would hold more than 2**33 mask bits exits 1 before
    a chunk starts: over Z for k > 1, and mod p also at k = 1.  Mod p a
    point that walks (k >= 3) is also refused when its packed row of h + 1
    slots of 2p bits would, though its h + 1 masks of p bits would not."""

    def no_dp(*args):
        raise AssertionError("DP started")

    monkeypatch.setattr(sumsetlab.scan, "_chunk", no_dp)
    monkeypatch.setattr(sumsetlab.scan, "_packed", no_dp)
    monkeypatch.setattr(sumsetlab.scan, "ProcessPoolExecutor", no_dp)
    h, p = 2**30, 2**61 - 1
    for jobs in ("1", "2"):
        for argv, bits in (
            (["extremal", "--k", "3", "--h", str(h), "--r", str(h),
              "--max-diameter", "10"], (h + 1) * (10 * h + 1)),
            (["inverse-eh", "--p", str(p), "--k", "1", "--h", "1"], 2 * p),
        ):
            assert run(["scan"] + argv + ["--jobs", jobs]) == 1
            assert capsys.readouterr().err == (
                f"error: (h + 1) * mask width = {bits} bits exceeds the "
                f"2**33-bit guard\n"
            )
        # (h + 1) * p = 6 442 450 941 <= 2**33 < (h + 1) * 2p
        argv = ["inverse-eh", "--p", "2147483647", "--k", "3", "--h", "2",
                "--cap", "10000000000000000000"]
        assert run(["scan"] + argv + ["--jobs", jobs]) == 1
        assert capsys.readouterr().err == (
            "error: a packed row of 2p-bit slots exceeds the 2**33-bit guard\n"
        )


# ===================== depth-first walk =====================


def _normalized(k, largest, p):
    """The candidates a scan evaluates, in the order it must report them."""
    return [
        (0,) + rest
        for rest in combinations(range(1, largest + 1), k - 1)
        if p is not None or math.gcd(*rest) < 2
    ]


@pytest.mark.parametrize(
    "kwargs, candidates, evaluated",
    [
        (dict(k=1, h=1, r=1, max_diameter=0), 1, 1),  # prefix only
        (dict(k=1, h=2, r=2, max_diameter=3), 1, 1),
        (dict(k=2, h=2, r=2, max_diameter=5), 5, 1),  # every leaf but 1 skipped
        (dict(k=2, h=3, r=2, max_diameter=1), 1, 1),  # max_diameter = k - 1
        (dict(k=4, h=3, r=2, max_diameter=3), 1, 1),  # max_diameter = k - 1
        (dict(k=3, h=2, r=2, max_diameter=8), 28, 21),
        (dict(k=4, h=5, r=2, max_diameter=10), 120, 109),
        (dict(k=5, h=7, r=3, max_diameter=9), 126, 125),
        (dict(p=5, k=5, h=1), 1, 1),  # largest = k - 1
        (dict(p=7, k=1, h=1), 1, 1),
        (dict(p=7, k=2, h=2), 6, 6),
        (dict(p=11, k=4, h=3), 120, 120),
        (dict(p=13, k=5, h=2), 495, 495),
    ],
)
@pytest.mark.parametrize("jobs", [1, 2])
def test_walk_edges_order_and_evaluated(kwargs, candidates, evaluated, jobs):
    """Records come in ``combinations`` order with gcd-skipped leaves left
    out; the counts are those of the per-candidate scan this walk replaced."""
    p = kwargs.get("p")
    scan = scan_extremal_integers if p is None else scan_inverse_eh_mod_p
    seen = []
    report = scan(**kwargs, jobs=jobs, on_records=_decoding(seen))
    largest = kwargs["max_diameter"] if p is None else p - 1
    expected = _normalized(kwargs["k"], largest, p)
    assert [tuple(rec["set"]) for rec in seen] == expected
    assert (report.candidates, report.evaluated) == (candidates, evaluated)
    assert len(expected) == evaluated


# Every k <= 2 scan point of both kinds, as scan_grid's (name, grid): over
# Z k in {1, 2}, r <= 4, 1 <= h <= r*k, max_diameter k - 1..40; mod p
# every p in {2, 3, 5, 7, 11, 13, 31, 101}, k <= 2, 1 <= h <= k.
_K_LE_2_GRID = [
    ("extremal", dict(k=[k], h=list(range(1, r * k + 1)), r=[r],
                      max_diameter=list(range(k - 1, 41))))
    for k in (1, 2) for r in range(1, 5)
] + [
    ("inverse-eh", dict(p=[p], k=[k], h=list(range(1, k + 1))))
    for p in (2, 3, 5, 7, 11, 13, 31, 101) for k in (1, 2)
]


def test_k_le_2_candidates_attain_their_bound():
    """Every normalized candidate with k <= 2 is a progression ({0} or
    {0, 1} over Z, any 2-set mod p) and so attains its bound, by the
    oracle's count: each such scan reports every candidate it evaluates as
    an equality set and none as a violation.  This is why a k <= 2 chunk
    hands its one candidate to the engine's recheck without a walk."""
    reports, cache = [], {}
    for name, grid in _K_LE_2_GRID:
        scan_grid(name, grid, 10**8, 1, None, reports.append)
    assert len(reports) == 1_234
    for report in reports:
        largest = report.max_diameter if report.p is None else report.p - 1
        assert report.violations == ()
        assert report.evaluated == len(report.equality_sets) > 0
        assert report.equality_sets == tuple(_normalized(report.k, largest, report.p))
        for s in report.equality_sets:
            assert _oracle_cardinality(cache, s, report.p, report.h, report.r) == report.bound


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_k_le_2_scan_never_walks(monkeypatch, capsys, tmp_path, jobs):
    """A k <= 2 scan builds no tables, steps no DP and starts no pool: with
    ``_tables`` and ``_packed`` raising, both scans still exit 0 with every
    candidate at its bound, and at --jobs 2 their chunks run serially."""

    def no_walk(*args):
        raise AssertionError("a k <= 2 point walked")

    started = []

    class Counting(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(sumsetlab.scan, "_tables", no_walk)
    monkeypatch.setattr(sumsetlab.scan, "_packed", no_walk)
    monkeypatch.setattr(sumsetlab.scan, "ProcessPoolExecutor", Counting)
    manifest = tmp_path / "grid.txt"
    manifest.write_text("k = 1, 2\nh = 1, 2\nr = 2\nmax_diameter = 1, 6\n", encoding="utf-8")
    for argv in (["extremal", "--manifest", str(manifest)], ["inverse-eh", "--p", "11", "--k", "2"]):
        assert run(["scan"] + argv + ["--format", "records", "--jobs", jobs]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        summaries = [rec for rec in records if rec["op"] == "scan-summary"]
        assert summaries and all(rec["evaluated"] == len(rec["equality_sets"]) > 0
                                 for rec in summaries)
    assert started == []


def _oracle_cardinality(cache, s, p, h, r):
    key = (s, p, h, r)
    if key not in cache:
        ground = GroundSet(s, p)
        cache[key] = brute_force_sumset(ground, SumParams(h=h, r=r)).cardinality
    return cache[key]


def test_scan_cardinalities_match_oracle():
    """Every record of both scans against the brute-force oracle: over Z
    every k <= 5, max_diameter <= 7, r <= 3, 1 <= h <= r*k; in Z/p for p
    in {5, 7, 11}, k <= 4, 1 <= h <= k with r = 1 at the public scan's
    arguments, and r in {2, 3}, h <= r*k at bound 0.  Records at jobs 2,
    all run in one shared pool, must equal those at jobs 1."""
    cache = {}
    runs = []  # (scan name, _scan's arguments after the name)
    for k in range(1, 6):
        for d in range(k - 1, 8):
            for r in range(1, 4):
                for h in range(1, r * k + 1):
                    runs.append(("extremal", _SCANS["extremal"][3](k, h, r, d)))
    for p in (5, 7, 11):
        for k in range(1, 5):
            for r in range(1, 4):
                for h in range(1, (k if r == 1 else r * k) + 1):
                    if r == 1:
                        args = _SCANS["inverse-eh"][3](p, k, h)
                    else:
                        args = (k, SumParams(h=h, r=r), p, p - 1, 0, False, "")
                    runs.append(("inverse-eh", args))
    checked = 0
    with ProcessPoolExecutor(max_workers=2) as pool:
        for name, args in runs:
            _, params, p, largest = args[:4]
            outputs = []
            # A smaller max_diameter over Z scans a subset of the d = 7 sets.
            for jobs in (1, 2) if p is not None or largest == 7 else (1,):
                seen = []
                _scan(name, *args, 10**8, jobs, lambda: pool, _decoding(seen))
                for rec in seen:
                    want = _oracle_cardinality(cache, tuple(rec["set"]), p,
                                               params.h, params.r)
                    assert rec["cardinality"] == want, (rec, params)
                    checked += 1
                outputs.append(seen)
            assert all(out == outputs[0] for out in outputs)
    assert checked > 10_000


@pytest.mark.parametrize("packed", [True, False])
def test_both_layouts_match_the_oracle(monkeypatch, packed):
    """The walk gives the oracle's cardinality for every candidate, whatever
    the engine's cost rule answers (the walk is packed and does not ask it;
    the engine's recheck does): over Z every k <= 4, max_diameter 6,
    r <= 3, h <= r*k; mod 5 and 7 every k <= 4; and a few points at r = 5,
    where min(r, h) exceeds 3.  At k <= 2 each chunk hands its prefix to
    the engine's recheck, and the scan's records carry the oracle's
    cardinality."""
    monkeypatch.setattr(sumsetlab.core, "_packs", lambda *args: packed)
    cache = {}
    checked = 0
    points = [(k, h, r, None, 6) for k in range(1, 5) for r in range(1, 4)
              for h in range(1, r * k + 1)]
    points += [(k, h, r, p, p - 1) for p in (5, 7) for k in range(1, 5)
               for r in range(1, 4) for h in range(1, r * k + 1)]
    # min(r, h) > 3: leaf terms past the three that the walk writes out
    points += [(k, h, 5, p, 6) for k, h in ((2, 4), (3, 5), (4, 7), (4, 12)) for p in (None, 7)]
    for k, h, r, p, largest in points:
        params = SumParams(h=h, r=r)
        # At bound 0 every candidate is above it and gets its line.
        parts = _LineParts("extremal", p, 0)
        point = _point(k, params, p, largest)
        records = []
        for prefix in _prefixes(k, largest):
            evaluated, lines, low = _chunk(point, 0, parts, prefix)
            if k <= 2:
                assert (evaluated, lines, low) == _handed_off(prefix, p, parts)
                continue
            assert len(lines) == evaluated and low == []
            records += map(json.loads, lines)
        if k <= 2:
            _scan("extremal", k, params, p, largest, 0, False, "", 10**8, 1, None,
                  _decoding(records))
            assert [tuple(rec["set"]) for rec in records] == _normalized(k, largest, p)
        for rec in records:
            want = _oracle_cardinality(cache, tuple(rec["set"]), p, h, r)
            assert rec["cardinality"] == want, (rec, p, h, r)
            checked += 1
    assert checked > 1_500


def _handed_off(prefix, p, parts):
    """What a chunk returns whose prefix is already its one candidate: over
    Z nothing for a dilate of {0, 1}, and otherwise the prefix, evaluated
    and left to the engine's recheck as at or below any bound."""
    if p is None and prefix not in ((0,), (0, 1)):
        return 0, [], []
    return 1, [None] if parts is not None else [], [prefix]


def _prefixes(k, largest):
    return [(0,)] if k == 1 else [(0, f) for f in range(1, largest - k + 3)]


def _point(k, params, p, largest):
    """A scan point as ``_scan`` hands it to its chunks, with a new serial."""
    return next(_POINTS), k, params, p, largest


@pytest.mark.parametrize("p", [None, 7])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_chunk_line_table(p, k):
    """A chunk's lines are the encoder's lines of its candidates above the
    bound, with None in the place of each candidate at or below it, which
    it also returns; a plain chunk returns those candidates and no lines.
    The scan fills each None from the engine, so every line it hands over,
    below, at and above the bound, is the encoder's, with the oracle's
    cardinality.  At k <= 2 every chunk hands its prefix, the one
    candidate, to the engine's recheck with a None line, whatever the
    bound."""
    params = SumParams(h=2, r=2)
    largest = 5 if p is None else p - 1
    slacks = set()
    cache = {}
    point = _point(k, params, p, largest)
    for bound in range(0, 12):
        parts = _LineParts("extremal", p, bound)
        for prefix in _prefixes(k, largest):
            evaluated, lines, low = _chunk(point, bound, parts, prefix)
            assert _chunk(point, bound, None, prefix) == (evaluated, [], low)
            if k <= 2:
                assert (evaluated, lines, low) == _handed_off(prefix, p, parts)
                continue
            assert len(lines) == evaluated
            sets = [tuple(json.loads(line)["set"]) if line else low.pop(0) for line in lines]
            assert low == [] and sets == [s for s in _normalized(k, largest, p)
                                          if s[:len(prefix)] == prefix]
            for line, s in zip(lines, sets):
                card = generalized_sumset(GroundSet(s, p), params).cardinality
                assert (line is None) == (card <= bound)
                if line is not None:
                    rec = json.loads(line)
                    assert line == _json_line(rec)
                    assert (rec["cardinality"], rec["slack"], rec["p"]) == (card, card - bound, p)
        seen = []
        _scan("extremal", k, params, p, largest, bound, False, "", 10**8, 1, None,
              lambda lines: seen.extend(lines))
        assert [tuple(json.loads(line)["set"]) for line in seen] == _normalized(k, largest, p)
        for line in seen:
            rec = json.loads(line)
            assert line == _json_line(rec) and rec["p"] == p
            card = _oracle_cardinality(cache, tuple(rec["set"]), p, 2, 2)
            assert (rec["cardinality"], rec["slack"]) == (card, card - bound)
            slacks.add((rec["slack"] > 0) - (rec["slack"] < 0))
    assert slacks == {-1, 0, 1}
    # Each cardinality's head and tail, split from its line encoded with an
    # empty set, are json.dumps's line at negative, zero and positive slack.
    for kind in _SCANS:
        parts = _LineParts(kind, p, 5)
        for card in (0, 3, 4, 5, 6, 7, 123):
            head, tail = parts[card]
            assert head + "0,2,3" + tail == json.dumps(
                {"op": "scan", "kind": kind, "p": p, "set": [0, 2, 3], "bound": 5,
                 "cardinality": card, "equality": card == 5, "slack": card - 5},
                sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("packed", [True, False])
@pytest.mark.parametrize("records", [True, False])
def test_chunk_leaves_no_garbage(monkeypatch, packed, records):
    """A chunk's walk holds no reference cycle, so what it leaves is freed
    without the cyclic collector, whatever the engine's cost rule answers."""
    monkeypatch.setattr(sumsetlab.core, "_packs", lambda *args: packed)
    parts = _LineParts("extremal", None, 7) if records else None
    gc.collect()
    gc.disable()
    try:
        _chunk(_point(5, SumParams(3, 2), None, 8), 7, parts, (0, 1))
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("packed", [True, False])
@pytest.mark.parametrize("p, largest", [(None, 9), (7, 6), (13, 12)])
@pytest.mark.parametrize("h, r", [(1, 1), (2, 1), (3, 2), (5, 5), (7, 3)])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 6])
def test_point_tables_are_each_elements_shifts(monkeypatch, packed, p, largest, h, r, k):
    """A point's tables are ``core._packed``'s at h for the widest
    candidate's span, whatever the engine's cost rule answers: the packed
    step with the point's stride, h * largest + 1 bits over Z and 2p mod p;
    the offsets at which a row of k - 1 elements holds its mask at
    t = h - c, c = 0..m, m = min(r, h), slot h - c of the row, and, for
    c = m + 1..3, an offset past the top slot; the slot cut; and lists that
    give, for every element a = 0..largest, its ``_shifts`` at cap m and its
    text.  The tables are the same at k <= 2, where no chunk asks for them."""
    monkeypatch.setattr(sumsetlab.core, "_packs", lambda *args: packed)
    stride = h * largest + 1 if p is None else 2 * p
    step, offsets, cut, steps, texts = _tables(_point(k, SumParams(h, r), p, largest))
    m = min(r, h)
    assert step.func is sumsetlab.core._step
    assert step.args == (p, sumsetlab.core._keep(h, stride, p))
    assert cut == (1 << stride) - 1
    assert offsets == tuple((h - c) * stride for c in range(m + 1)) + (
        ((h + 1) * stride,) * (3 - m))
    for table in (steps, texts):
        assert isinstance(table, list) and len(table) == largest + 1
    for a in range(largest + 1):
        assert steps[a] == sumsetlab.core._shifts(m, stride, p, a)
        assert texts[a] == str(a)


def test_tables_are_built_once_per_point(monkeypatch, capsys, tmp_path):
    """At --jobs 1 a scan builds its tables once per grid point, every chunk
    of the point uses that point's tables, and no later point or CLI run
    reuses them."""
    built, used = [], []  # (h, span) per build; (point, tables) per chunk
    packed, chunk = sumsetlab.scan._packed, sumsetlab.scan._chunk

    def packing(h, r, p, span):
        built.append((h, span))
        return packed(h, r, p, span)

    def chunking(point, *args):
        got = chunk(point, *args)
        used.append((point, _tables(point)))
        return got

    monkeypatch.setattr(sumsetlab.scan, "_packed", packing)
    monkeypatch.setattr(sumsetlab.scan, "_chunk", chunking)
    manifest = tmp_path / "grid.txt"
    manifest.write_text("k = 3, 4\nh = 2, 3\nr = 2\nmax_diameter = 6, 7\n", encoding="utf-8")
    argv = ["scan", "extremal", "--manifest", str(manifest), "--jobs", "1"]
    for _ in range(2):
        assert run(argv) == 0
    capsys.readouterr()
    points = [(k, h, 2, d) for k in (3, 4) for h in (2, 3) for d in (6, 7)]
    assert built == [(h, d) for _, h, _, d in points] * 2
    chunks = [d - k + 2 for k, _, _, d in points] * 2  # prefixes (0, a_2)
    assert [point[1:] for point, _ in used] == [
        (k, SumParams(h, r), None, d) for (k, h, r, d), n in zip(points * 2, chunks)
        for _ in range(n)]
    tables = {}  # serial -> the ids of the tables its chunks used
    for point, got in used:
        tables.setdefault(point[0], set()).add(id(got))
    assert len(tables) == len(points) * 2 and all(len(ids) == 1 for ids in tables.values())
    assert len(set.union(*tables.values())) == len(tables)


def test_k1_scan_allocates_no_table_of_the_diameter():
    """A one-element scan evaluates its one candidate without building
    anything as large as its max_diameter: no table of the elements and
    no row of its stride."""
    tracemalloc.start()
    try:
        report = scan_extremal_integers(k=1, h=1, r=1, max_diameter=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.candidates, report.evaluated, report.equality_sets) == (1, 1, ((0,),))
    assert peak < 200_000


def test_parallel_chunks_carry_no_tables(monkeypatch):
    """At --jobs 2 each chunk a records-mode scan submits pickles to a few
    hundred bytes, whatever the max_diameter: the point goes as its serial
    and arguments with the record parts, and each worker builds its own
    tables."""
    sizes = {}
    in_order = sumsetlab.scan._in_order

    def measuring(pool, fn, items, window):
        items = list(items)
        sizes[len(items)] = max(len(pickle.dumps((fn, item))) for item in items)
        return in_order(pool, fn, items, window)

    monkeypatch.setattr(sumsetlab.scan, "_in_order", measuring)
    for d in (20, 200):
        lines = []
        report = scan_extremal_integers(k=3, h=2, r=2, max_diameter=d, jobs=2,
                                        on_records=lines.extend)
        assert report.candidates == math.comb(d, 2) and report.equality_sets == ((0, 1, 2),)
        assert len(lines) == report.evaluated
    assert sizes[199] <= sizes[19] + 16 and sizes[199] < 1_000


def test_scan_claims_are_the_engines(monkeypatch):
    """Each set the walk finds at or below the bound is reported with the
    engine's cardinality: an engine that drops a value turns the unit
    progression into a violation, and the scan exits 2."""
    engine = sumsetlab.scan.generalized_sumset

    def wrong(ground, params):
        result = engine(ground, params)
        return type(result)(result.values[:-1], result.modulus)

    monkeypatch.setattr(sumsetlab.scan, "generalized_sumset", wrong)
    seen = []
    report = scan_extremal_integers(
        k=5, h=3, r=2, max_diameter=8, on_records=_decoding(seen)
    )
    assert report.equality_sets == ()
    assert report.violations == ((0, 1, 2, 3, 4),)
    assert report.verdict == "fail"
    assert seen[0]["set"] == [0, 1, 2, 3, 4] and seen[0]["slack"] == -1
    assert all(rec["slack"] > 0 for rec in seen[1:])
    assert run(["scan", "inverse-eh", "--p", "11", "--k", "5"]) == 2


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_records_summary_counts_the_scan_records(monkeypatch, capsys, jobs):
    """The closing summary of a failing records-mode scan counts one
    instance per scan record and one failure per record below the bound."""
    engine = sumsetlab.scan.generalized_sumset

    def wrong(ground, params):
        result = engine(ground, params)
        return type(result)(result.values[:-1], result.modulus)

    monkeypatch.setattr(sumsetlab.scan, "generalized_sumset", wrong)
    code = run(["scan", "extremal", "--k", "5", "--h", "3", "--r", "2",
                "--max-diameter", "8", "--format", "records", "--jobs", jobs])
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    scans = [rec for rec in records if rec["op"] == "scan"]
    assert code == 2
    assert records[-1]["op"] == "summary"
    assert records[-1]["instances"] == len(scans)
    assert records[-1]["failures"] == sum(rec["slack"] < 0 for rec in scans) == 1


def test_serial_records_stream_per_chunk(monkeypatch, capsys):
    """At --jobs 1 each chunk's scan records are printed before the next
    chunk is evaluated, so records mode holds one chunk at a time."""
    real = sumsetlab.scan._chunk
    printed = []  # scan records printed since the previous chunk started
    sizes = []  # records each chunk returned

    def counting(*args):
        out = capsys.readouterr().out
        printed.append(sum(json.loads(line)["op"] == "scan"
                           for line in out.splitlines()))
        evaluated, lines, low = real(*args)
        sizes.append(len(lines))
        return evaluated, lines, low

    monkeypatch.setattr(sumsetlab.scan, "_chunk", counting)
    code = run(["scan", "extremal", "--k", "4", "--h", "3", "--r", "2",
                "--max-diameter", "8", "--format", "records", "--jobs", "1"])
    assert code == 0
    assert len(sizes) == 6 and all(sizes)
    assert printed == [0] + sizes[:-1]


@pytest.mark.parametrize("jobs", [1, 2])
def test_record_lines_match_the_encoder(monkeypatch, capsys, jobs):
    """Every scan record line is the CLI encoder's line for its decoded
    record: over Z (p null) and mod p (p an int), at and above the bound,
    and below it under an engine that drops a value."""
    argvs = [
        ["extremal", "--k", "5", "--h", "3", "--r", "2", "--max-diameter", "8"],
        ["inverse-eh", "--p", "11", "--k", "5"],
    ]
    engine = sumsetlab.scan.generalized_sumset

    def wrong(ground, params):
        result = engine(ground, params)
        return type(result)(result.values[:-1], result.modulus)

    lines = []
    for argv, code in ((argvs[0], 0), (argvs[1], 0), (argvs[0], 2)):
        if code == 2:
            monkeypatch.setattr(sumsetlab.scan, "generalized_sumset", wrong)
        assert run(["scan"] + argv + ["--format", "records",
                                      "--jobs", str(jobs)]) == code
        lines += [line for line in capsys.readouterr().out.splitlines()
                  if '"op":"scan"' in line]
    for line in lines:
        assert line == _json_line(json.loads(line))
    records = [json.loads(line) for line in lines]
    assert {rec["p"] for rec in records} == {None, 11}
    assert {rec["equality"] for rec in records} == {True, False}
    assert sum(rec["slack"] < 0 for rec in records) == 1


@pytest.mark.parametrize("jobs", [2, 3])
def test_parallel_scan_window(monkeypatch, capsys, jobs):
    """A parallel scan keeps at most 2 * jobs chunks submitted and not yet
    folded, cancels the rest on shutdown, and prints the --jobs 1 bytes."""
    argv = ["scan", "extremal", "--k", "4", "--h", "3", "--r", "2",
            "--max-diameter", "12", "--format", "records", "--jobs"]
    assert run(argv + ["1"]) == 0
    serial = capsys.readouterr().out
    state = {"open": 0, "peak": 0, "submitted": 0, "cancel": None}

    class Read(Future):
        def result(self, timeout=None):
            state["open"] -= 1
            return super().result(timeout)

    class Pool:
        def __init__(self, max_workers, initializer, initargs):
            assert max_workers == jobs

        def submit(self, fn, *args):
            state["open"] += 1
            state["submitted"] += 1
            state["peak"] = max(state["peak"], state["open"])
            future = Read()
            future.set_result(fn(*args))
            return future

        def shutdown(self, wait=True, cancel_futures=False):
            state["cancel"] = cancel_futures

    monkeypatch.setattr(sumsetlab.scan, "ProcessPoolExecutor", Pool)
    assert run(argv + [str(jobs)]) == 0
    assert capsys.readouterr().out == serial
    assert state["submitted"] == 10 and state["open"] == 0
    assert state["peak"] == 2 * jobs
    assert state["cancel"] is True


@pytest.mark.parametrize(
    "grid, extra, code, pools",
    # Each id is written out, so that a row added anywhere renames no case;
    # the names extra0..extra4 are the ones the rows first had by position.
    [pytest.param(grid, extra, code, pools, id=f"{grid}-{name}-{code}-{pools}")
     for name, grid, extra, code, pools in (
        ("extra0", "k = 4\nh = 2..5\nr = 2\nmax_diameter = 8", [], 0, 1),  # 4 points, 7 chunks each
        ("extra1", "k = 1\nh = 1\nr = 1..3\nmax_diameter = 0..2", [], 0, 0),  # 1 chunk each
        ("extra2", "k = 4\nh = 3\nr = 2\nmax_diameter = 12, 8", ["--cap", "100"], 3, 0),
        ("extra3", f"k = 3\nh = {2**30}, 3\nr = {2**30}\nmax_diameter = 10", [], 1, 0),
        ("extra4", "k = 2\nh = 1..3\nr = 2\nmax_diameter = 9", [], 0, 0),  # 9 hand-offs each
    )],
)
def test_one_pool_per_invocation(monkeypatch, capsys, tmp_path, grid, extra, code, pools):
    """A --jobs 2 scan starts at most one pool, shared by every grid
    point, and only once a point of k >= 3 with more than one chunk has
    passed its cap and size checks; it prints the --jobs 1 bytes and exit
    code."""
    manifest = tmp_path / "grid.txt"
    manifest.write_text(grid + "\n", encoding="utf-8")
    argv = ["scan", "extremal", "--manifest", str(manifest), "--format", "records"]
    assert run(argv + extra + ["--jobs", "1"]) == code
    serial = capsys.readouterr()
    started = []

    class Counting(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(sumsetlab.scan, "ProcessPoolExecutor", Counting)
    assert run(argv + extra + ["--jobs", "2"]) == code
    assert capsys.readouterr() == serial
    assert len(started) == pools


# ===================== classes of grid points =====================

# A grid with mirrored twins (h and r*k - h at one r) and cap-free twins
# (r >= h at two r): over Z k = 4, h = 2..6, r = 2, 3 has 7 classes among
# its 10 points, and mod p h and k - h are twins.
_TWINS = (
    ("extremal", "k = 4\nh = 2..6\nr = 2, 3\nmax_diameter = 7\n",
     [(4, h, r, 7) for h in range(2, 7) for r in (2, 3)]),
    ("inverse-eh", "p = 11\nk = 5\nh = 1..4\n", [(11, 5, h) for h in range(1, 5)]),
)
# The points of _TWINS's extremal grid that walk: the first of each class.
_FIRSTS = [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (5, 3), (6, 3)]


def _flags(name, point):
    keys = _SCANS[name][1] + _SCANS[name][2]
    return [arg for key, value in zip(keys, point)
            for arg in (f"--{key.replace('_', '-')}", str(value))]


def test_class_key_is_an_identity_of_cardinalities():
    """The oracle gives every candidate the same |h^(r)A| at all points of
    one class: every (h, r) with r <= 4, h <= r*k for k <= 4 over sets in
    {0..5}, and mod 7 for k <= 4 at r = 1."""
    cache, classes = {}, {}
    for k in range(1, 5):
        for r in range(1, 5):
            for h in range(1, r * k + 1):
                point = _SCANS["extremal"][3](k, h, r, 5)
                classes.setdefault(sumsetlab.scan._class("extremal", point), []).append((h, r))
        for h in range(1, k + 1):
            point = _SCANS["inverse-eh"][3](7, k, h)
            classes.setdefault(sumsetlab.scan._class("inverse-eh", point), []).append((h, 1))
    assert sum(len(members) > 1 for members in classes.values()) > 20
    for (_, k, largest, p, *_), members in classes.items():
        for s in _normalized(k, largest, p):
            cards = {_oracle_cardinality(cache, s, p, *pair) for pair in members}
            assert len(cards) == 1, (s, p, members)


@pytest.mark.parametrize("fmt", ["plain", "records"])
@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("name, grid, points", _TWINS, ids=["extremal", "inverse-eh"])
def test_twins_print_the_per_point_bytes(capsys, tmp_path, fmt, jobs, name, grid, points):
    """A manifest whose points share classes prints the bytes of one
    invocation per point: the same records and summaries, and in records
    mode one closing summary that counts them all."""
    manifest = tmp_path / "grid.txt"
    manifest.write_text(grid, encoding="utf-8")
    tail = ["--format", fmt, "--jobs", jobs]
    assert run(["scan", name, "--manifest", str(manifest)] + tail) == 0
    out = capsys.readouterr().out
    parts, instances = [], 0
    for point in points:
        assert run(["scan", name] + _flags(name, point) + tail) == 0
        got = capsys.readouterr().out
        if fmt == "records":
            got, closing = got[:-1].rsplit("\n", 1)
            instances += json.loads(closing)["instances"]
            got += "\n"
        parts.append(got)
    if fmt == "records":
        out, closing = out[:-1].rsplit("\n", 1)
        assert json.loads(closing) == {"op": "summary", "instances": instances,
                                       "failures": 0, "verdict": "pass"}
        out += "\n"
    assert out == "".join(parts)


def test_each_class_walks_only_its_first_point(monkeypatch, capsys, tmp_path):
    """Only the first point of each class calls ``_chunk``, once per chunk;
    its later points report the same counts without a walk."""
    walked = []
    chunk = sumsetlab.scan._chunk

    def counting(point, *args):
        walked.append((point[2].h, point[2].r))
        return chunk(point, *args)

    monkeypatch.setattr(sumsetlab.scan, "_chunk", counting)
    name, grid, points = _TWINS[0]
    manifest = tmp_path / "grid.txt"
    manifest.write_text(grid, encoding="utf-8")
    assert run(["scan", name, "--manifest", str(manifest), "--format", "records",
                "--jobs", "1"]) == 0
    summaries = [json.loads(line) for line in capsys.readouterr().out.splitlines()
                 if '"op":"scan-summary"' in line]
    assert walked == [pair for pair in _FIRSTS for _ in range(7 - 4 + 2)]
    assert [(rec["h"], rec["r"]) for rec in summaries] == [point[1:3] for point in points]
    assert {rec["evaluated"] for rec in summaries} == {len(_normalized(4, 7, None))}


def test_a_replayed_point_still_rechecks_with_the_engine(monkeypatch, capsys, tmp_path):
    """A later point of a class rechecks its sets at or below the bound with
    the engine at its own (h, r): an engine that drops a value at h = 6,
    r = 2 alone, the mirror of h = 2, fails that point's verdict only."""
    engine = sumsetlab.scan.generalized_sumset

    def wrong(ground, params):
        result = engine(ground, params)
        if (params.h, params.r) == (6, 2):
            return type(result)(result.values[:-1], result.modulus)
        return result

    monkeypatch.setattr(sumsetlab.scan, "generalized_sumset", wrong)
    name, grid, points = _TWINS[0]
    manifest = tmp_path / "grid.txt"
    manifest.write_text(grid, encoding="utf-8")
    assert run(["scan", name, "--manifest", str(manifest), "--format", "records",
                "--jobs", "1"]) == 2
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    verdicts = {(rec["h"], rec["r"]): rec["verdict"] for rec in records
                if rec["op"] == "scan-summary"}
    assert {pair for pair, verdict in verdicts.items() if verdict == "fail"} == {(6, 2)}
    assert verdicts[2, 2] == verdicts[2, 3] == "pass"
    assert records[-1]["failures"] == 1
    assert sum(rec["op"] == "scan" and rec["slack"] < 0 for rec in records) == 1


@pytest.mark.parametrize("budget", [0, 30, 60, 2**15])
def test_keep_budget_bounds_what_a_grid_holds(monkeypatch, capsys, tmp_path, budget):
    """A grid never holds more than the keep budget of chunk results; a point
    whose class's results did not fit walks again and prints the same
    bytes; and nothing is held once the grid ends."""
    name, grid, points = _TWINS[0]
    manifest = tmp_path / "grid.txt"
    manifest.write_text(grid, encoding="utf-8")
    argv = ["scan", name, "--manifest", str(manifest), "--format", "records", "--jobs", "1"]
    assert run(argv) == 0
    want = capsys.readouterr().out
    stores, walked = [], []
    chunk = sumsetlab.scan._chunk

    class Watched(sumsetlab.scan._Kept):
        peak = 0

        def __init__(self):
            super().__init__()
            stores.append(self)

        def __setattr__(self, key, value):
            if key == "entries":
                type(self).peak = max(type(self).peak, value)
            super().__setattr__(key, value)

    def counting(point, *args):
        walked.append((point[2].h, point[2].r))
        return chunk(point, *args)

    monkeypatch.setattr(sumsetlab.scan, "_KEEP_BUDGET", budget)
    monkeypatch.setattr(sumsetlab.scan, "_Kept", Watched)
    monkeypatch.setattr(sumsetlab.scan, "_chunk", counting)
    assert run(argv) == 0
    assert capsys.readouterr().out == want
    (store,) = stores
    assert Watched.peak <= budget and store.entries == 0 and store == {}
    # A class holds 40 entries: 5 chunks, 34 lines and {0, 1, 2, 3}.  At 60
    # only the first class fits, so the mirror of (3, 2) walks again.
    pairs = [point[1:3] for point in points]
    walkers = {0: pairs, 30: pairs, 60: _FIRSTS + [(5, 2)]}.get(budget, _FIRSTS)
    assert list(dict.fromkeys(walked)) == [pair for pair in pairs if pair in walkers]


def test_k2_scan_lists_no_chunk_prefixes(monkeypatch):
    """A k = 2 point over Z at max_diameter 2 * 10**5 has that many
    candidates, of which only a_2 = 1 survives the gcd skip, so it runs one
    chunk, and lists no prefixes: a list of one per a_2 would alone trace
    some 20 MB."""
    chunk, calls = sumsetlab.scan._chunk, []

    def counting(*args):
        calls.append(args[-1])
        return chunk(*args)

    monkeypatch.setattr(sumsetlab.scan, "_chunk", counting)
    tracemalloc.start()
    try:
        report = scan_extremal_integers(k=2, h=2, r=2, max_diameter=200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.candidates, report.evaluated, report.equality_sets) == (200_000, 1, ((0, 1),))
    assert calls == [(0, 1)]
    assert peak < 200_000


# ===================== mod-p scans =====================


def test_inverse_eh_p11():
    report = scan_inverse_eh_mod_p(p=11, k=5)
    assert report.bound == 7
    assert report.candidates == math.comb(10, 4)
    assert len(report.equality_sets) == 25
    assert report.non_ap_equality == ()
    assert report.violations == ()
    assert report.in_hypothesis
    assert report.verdict == "pass"


def test_inverse_eh_p13():
    report = scan_inverse_eh_mod_p(p=13, k=5)
    assert len(report.equality_sets) == 30
    assert report.non_ap_equality == ()
    assert report.verdict == "pass"


def test_inverse_eh_exploratory_h():
    report = scan_inverse_eh_mod_p(p=11, k=5, h=3)
    assert not report.in_hypothesis
    assert report.violations == ()
    assert report.verdict == "pass"


def test_inverse_eh_jobs_match_serial():
    a = scan_inverse_eh_mod_p(p=11, k=4, jobs=1)
    b = scan_inverse_eh_mod_p(p=11, k=4, jobs=2)
    assert a == b


def test_inverse_eh_errors():
    with pytest.raises(DomainError):
        scan_inverse_eh_mod_p(p=9, k=3)
    with pytest.raises(DomainError):
        scan_inverse_eh_mod_p(p=7, k=8)
    with pytest.raises(DomainError):
        scan_inverse_eh_mod_p(p=7, k=3, h=4)
    with pytest.raises(ResourceCapError):
        scan_inverse_eh_mod_p(p=13, k=5, cap=10)


# ===================== verdict logic =====================


def _report(kind="extremal", **overrides):
    base = dict(
        kind=kind,
        k=5,
        h=3,
        r=2,
        p=None if kind == "extremal" else 11,
        max_diameter=12 if kind == "extremal" else None,
        bound=11,
        candidates=100,
        evaluated=90,
        equality_sets=((0, 1, 2, 3, 4),),
        violations=(),
        non_ap_equality=(),
        in_hypothesis=True,
        hypothesis="test",
    )
    base.update(overrides)
    return ScanReport(**base)


def test_verdict_extra_equality_set_inside_hypothesis():
    report = _report(
        equality_sets=((0, 1, 2, 3, 4), (0, 1, 2, 3, 7)),
        non_ap_equality=((0, 1, 2, 3, 7),),
    )
    assert report.counterexamples == ((0, 1, 2, 3, 7),)
    assert report.verdict == "fail"


def test_verdict_missing_expected_interval():
    report = _report(equality_sets=())
    assert report.counterexamples == ((0, 1, 2, 3, 4),)
    assert report.verdict == "fail"


def test_verdict_violation_always_fails():
    report = _report(in_hypothesis=False, violations=((0, 2, 3, 8, 9),))
    assert report.verdict == "fail"


def test_verdict_outside_hypothesis_tolerates_oddities():
    report = _report(
        in_hypothesis=False, equality_sets=((0, 1, 2, 3, 7),), non_ap_equality=()
    )
    assert report.verdict == "pass"


def test_verdict_non_ap_inside_hypothesis_mod_p():
    report = _report(
        kind="inverse-eh",
        equality_sets=((0, 1, 2, 3, 4), (0, 1, 2, 3, 7)),
        non_ap_equality=((0, 1, 2, 3, 7),),
    )
    assert report.counterexamples == ((0, 1, 2, 3, 7),)
    assert report.verdict == "fail"


def _per_kind_counterexamples(report):
    """The verdict rule as it read before both scans shared one: over Z
    the interval had to be the only equality set, mod p every equality
    set had to be a progression."""
    if not report.in_hypothesis:
        return report.violations
    if report.kind == "extremal":
        expected = tuple(range(report.k))
        extra = tuple(s for s in report.equality_sets if s != expected)
        missing = () if expected in report.equality_sets else (expected,)
        return report.violations + extra + missing
    return report.violations + report.non_ap_equality


def test_one_rule_matches_the_per_kind_rules():
    """Over Z (k <= 6, max_diameter <= 9, r <= 6, 1 <= h <= r*k) and
    Z/pZ (p in 5, 7, 11, 13, k <= 6, 1 <= h <= k), every scan's
    counterexamples and verdict equal those of the per-kind rules."""
    reports = [
        scan_extremal_integers(k=k, h=h, r=r, max_diameter=d)
        for k in range(1, 7)
        for d in range(k - 1, 10)
        for r in range(1, 7)
        for h in range(1, r * k + 1)
    ]
    reports += [
        scan_inverse_eh_mod_p(p=p, k=k, h=h)
        for p in (5, 7, 11, 13)
        for k in range(1, min(6, p) + 1)
        for h in range(1, k + 1)
    ]
    for report in reports:
        expected = _per_kind_counterexamples(report)
        assert report.counterexamples == expected, report
        assert report.verdict == ("fail" if expected else "pass")
    inside = [r for r in reports if r.in_hypothesis and r.equality_sets]
    assert {r.kind for r in inside} == {"extremal", "inverse-eh"}
    assert len(reports) == 3018


def test_one_rule_needs_the_interval_mod_p(monkeypatch):
    """Inside the hypotheses mod p, the interval {0, ..., k-1} above the
    bound is a counterexample: an engine that puts it one above fails."""
    engine = sumsetlab.scan.generalized_sumset

    def wrong(ground, params):
        result = engine(ground, params)
        if ground.elements == (0, 1, 2, 3, 4):
            extra = next(v for v in range(ground.modulus) if v not in result.values)
            values = tuple(sorted(result.values + (extra,)))
            return type(result)(values, result.modulus)
        return result

    monkeypatch.setattr(sumsetlab.scan, "generalized_sumset", wrong)
    report = scan_inverse_eh_mod_p(11, 5)
    assert report.in_hypothesis and report.violations == ()
    assert report.non_ap_equality == ()
    assert (0, 1, 2, 3, 4) not in report.equality_sets
    assert report.counterexamples == ((0, 1, 2, 3, 4),)
    assert report.verdict == "fail"


def test_scan_record_shape():
    record = scan_extremal_integers(k=3, h=2, r=2, max_diameter=5).to_record()
    assert record["op"] == "scan-summary"
    assert record["equality_sets"] == [[0, 1, 2]]
    assert record["verdict"] == "pass"


# ===================== manifests =====================


def test_manifest_single():
    grid = parse_manifest("k = 5\nh = 3\nr = 2\nmax_diameter = 12\n")
    assert grid == {"k": [5], "h": [3], "r": [2], "max_diameter": [12]}


def test_manifest_product_and_ranges():
    """The table lists its keys in the order k, h, r, max_diameter, p,
    whatever the manifest's line order; ranges expand and a value listed
    twice is kept once.  The order in which a scan runs the product is
    pinned by the CLI's manifest tests."""
    text = """
    # mod-p sweep
    p = 11, 13
    k = 5
    h = 2..3, 2
    """
    grid = parse_manifest(text)
    assert grid == {"k": [5], "h": [2, 3], "p": [11, 13]}
    assert list(grid) == ["k", "h", "p"]


def test_manifest_errors():
    with pytest.raises(DomainError, match="unknown key"):
        parse_manifest("q = 3")
    with pytest.raises(DomainError, match="duplicate"):
        parse_manifest("k = 3\nk = 4")
    with pytest.raises(DomainError, match="expected"):
        parse_manifest("just words")
    with pytest.raises(DomainError, match="bad value"):
        parse_manifest("k = x")
    with pytest.raises(DomainError, match="bad range"):
        parse_manifest("k = 1..x")
    with pytest.raises(DomainError, match="empty range"):
        parse_manifest("k = 5..2")
    with pytest.raises(DomainError, match="empty"):
        parse_manifest("# nothing\n")
    with pytest.raises(DomainError, match="no values"):
        parse_manifest("k = ,")
