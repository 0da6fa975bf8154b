"""Exhaustive scans, their verdict logic, manifests, and the cap.

Frozen equality sets and candidate counts were computed by direct
enumeration of multiplicity vectors over all normalized candidate sets,
independently of the package.
"""

import math
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
    parse_manifest,
    scan_extremal_integers,
    scan_inverse_eh_mod_p,
)
from sumsetlab.cli import run
from sumsetlab.scan import _scan


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
        k=3, h=2, r=2, max_diameter=6, on_instance=seen.append
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
        with_callback = scan(**kwargs, jobs=jobs, on_instance=seen.append)
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
    monkeypatch.setattr(sumsetlab.scan, "_extend", no_dp)
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
    a chunk starts: over Z for k > 1, and mod p also at k = 1."""

    def no_dp(*args):
        raise AssertionError("DP started")

    monkeypatch.setattr(sumsetlab.scan, "_chunk", no_dp)
    monkeypatch.setattr(sumsetlab.scan, "_extend", no_dp)
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
    report = scan(**kwargs, jobs=jobs, on_instance=seen.append)
    largest = kwargs["max_diameter"] if p is None else p - 1
    expected = _normalized(kwargs["k"], largest, p)
    assert [tuple(rec["set"]) for rec in seen] == expected
    assert (report.candidates, report.evaluated) == (candidates, evaluated)
    assert len(expected) == evaluated


def _oracle_cardinality(cache, s, p, h, r):
    key = (s, p, h, r)
    if key not in cache:
        ground = GroundSet(s, p)
        cache[key] = brute_force_sumset(ground, SumParams(h=h, r=r)).cardinality
    return cache[key]


def test_scan_cardinalities_match_oracle():
    """Every record of both scans against the brute-force oracle: over Z
    every k <= 5, max_diameter <= 7, r <= 3, 1 <= h <= r*k; in Z/p for p
    in {5, 7, 11}, k <= 4, 1 <= h <= k with r = 1 through the public
    scan, and r in {2, 3}, h <= r*k through the driver.  Records at
    jobs 2 must equal those at jobs 1."""
    cache = {}
    runs = []
    for k in range(1, 6):
        for d in range(k - 1, 8):
            for r in range(1, 4):
                for h in range(1, r * k + 1):
                    runs.append((None, k, h, r, d))
    for p in (5, 7, 11):
        for k in range(1, 5):
            for r in range(1, 4):
                for h in range(1, (k if r == 1 else r * k) + 1):
                    runs.append((p, k, h, r, p - 1))
    checked = 0
    for p, k, h, r, largest in runs:
        outputs = []
        # A smaller max_diameter over Z scans a subset of the d = 7 sets.
        for jobs in (1, 2) if p is not None or largest == 7 else (1,):
            seen = []
            if p is None:
                scan_extremal_integers(k, h, r, largest, jobs=jobs, on_instance=seen.append)
            elif r == 1:
                scan_inverse_eh_mod_p(p, k, h, jobs=jobs, on_instance=seen.append)
            else:
                _scan("inverse-eh", k, SumParams(h=h, r=r), p, largest, 0,
                      False, "", 10**8, jobs, seen.append)
            for rec in seen:
                want = _oracle_cardinality(cache, tuple(rec["set"]), p, h, r)
                assert rec["cardinality"] == want, (rec, h, r)
                checked += 1
            outputs.append(seen)
        assert all(out == outputs[0] for out in outputs)
    assert checked > 10_000


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
        k=5, h=3, r=2, max_diameter=8, on_instance=seen.append
    )
    assert report.equality_sets == ()
    assert report.violations == ((0, 1, 2, 3, 4),)
    assert report.verdict == "fail"
    assert seen[0]["set"] == [0, 1, 2, 3, 4] and seen[0]["slack"] == -1
    assert all(rec["slack"] > 0 for rec in seen[1:])
    assert run(["scan", "inverse-eh", "--p", "11", "--k", "5"]) == 2


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
    combos = parse_manifest("k = 5\nh = 3\nr = 2\nmax_diameter = 12\n")
    assert combos == [{"k": 5, "h": 3, "r": 2, "max_diameter": 12}]


def test_manifest_product_and_ranges():
    text = """
    # mod-p sweep
    p = 11, 13
    k = 5
    h = 2..3
    """
    combos = parse_manifest(text)
    assert combos == [
        {"k": 5, "h": 2, "p": 11},
        {"k": 5, "h": 2, "p": 13},
        {"k": 5, "h": 3, "p": 11},
        {"k": 5, "h": 3, "p": 13},
    ]


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
