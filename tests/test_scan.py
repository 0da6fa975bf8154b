"""Exhaustive scans, their verdict logic, manifests, and the cap.

Frozen equality sets and candidate counts were computed by direct
enumeration of multiplicity vectors over all normalized candidate sets,
independently of the package.
"""

import math

import pytest

from sumsetlab import (
    DomainError,
    ResourceCapError,
    ScanReport,
    parse_manifest,
    scan_extremal_integers,
    scan_inverse_eh_mod_p,
)


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
    report = _report(equality_sets=((0, 1, 2, 3, 4), (0, 1, 2, 3, 7)))
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
        equality_sets=((0, 1, 2, 3, 7),),
        non_ap_equality=((0, 1, 2, 3, 7),),
    )
    assert report.counterexamples == ((0, 1, 2, 3, 7),)
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
