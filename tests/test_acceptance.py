"""Acceptance gate.

Nine criteria, one test each, run against exhaustive grids:

  1  engine equals the independent brute-force oracle (integer grid)
  2  integer bound never violated; tight exactly on progressions
  3  mod-p bound never violated (all subsets of Z/pZ, p in {5,7,11,13},
     every 1 <= h <= min(r*k, 8), h < r included)
  4  factorization h^(r)A = eps-fold (m+1)^A + (r-eps)-fold m^A on
     every grid instance; greedy rewriting succeeds on every valid
     multiplicity vector (exhaustive)
  5  diameter-capped scans find {0,1,2,3,4} as the only equality set
  6  every distinct-pair equality set in Z/11 and Z/13 is a modular AP
  7  mirrored-parameter cardinality identity on every grid instance
  8  split inclusion, case bundles and witness chains never fail, and
     each of the five checks passes somewhere (the integer grid plus a
     narrow-case slice with r up to 8)
  9  engine equals the brute-force oracle mod p (every subset of Z/pZ,
     p in {5,7}, every 1 <= h <= min(r*k, 8), h < r included)

Each test prints one ``[criterion N] PASS/FAIL`` line, repeated in the
run's terminal summary so it is visible without ``-s``, and enforces
the time budgets: 300 s for criterion 3 and 120 s for each of the
other eight.
The integer grid is every A inside {0..10} with 2 <= k <= 6 and every
1 <= r <= 4, 1 <= h <= min(r*k, 8); the mod-p grid is every nonempty
A inside Z/pZ with every 1 <= r <= h <= min(r*k, 8), and criteria 3
and 9 also run its h < r pairs.
"""

import time
from functools import lru_cache
from itertools import combinations

import conftest

from sumsetlab import (
    GroundSet,
    MultiplicityVector,
    SumParams,
    bound_direct_integers,
    bound_direct_mod_p,
    brute_force_sumset,
    check_complement_identity,
    check_inclusions_and_witnesses,
    check_sumset_factorization,
    generalized_sumset,
    greedy_decompose,
    is_arithmetic_progression,
    restricted_sumset,
    scan_extremal_integers,
    scan_inverse_eh_mod_p,
)
from sumsetlab.core import profile

MOD_PRIMES = (5, 7, 11, 13)
ORACLE_PRIMES = (5, 7)


def _report(n, ok, detail):
    line = f"[criterion {n}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    conftest.record_gate_line(line)
    assert ok, line


@lru_cache(maxsize=None)
def integer_grid_sets():
    out = []
    for k in range(2, 7):
        out.extend(combinations(range(11), k))
    return tuple(out)


def integer_grid_pairs(k):
    for r in range(1, 5):
        for h in range(1, min(r * k, 8) + 1):
            yield r, h


@lru_cache(maxsize=None)
def mod_grid_sets(p):
    out = []
    for k in range(1, p + 1):
        out.extend(combinations(range(p), k))
    return tuple(out)


def mod_grid_pairs(k):
    for r in range(1, 9):
        for h in range(r, min(r * k, 8) + 1):
            yield r, h


def test_criterion_1_engine_matches_oracle():
    start = time.monotonic()
    instances = 0
    mismatches = []
    for elements in integer_grid_sets():
        ground = GroundSet(elements)
        for r, h in integer_grid_pairs(len(elements)):
            params = SumParams(h=h, r=r)
            fast = generalized_sumset(ground, params).values
            slow = brute_force_sumset(ground, params).values
            instances += 1
            if fast != slow:
                mismatches.append((elements, h, r))
    elapsed = time.monotonic() - start
    ok = not mismatches and elapsed < 120.0
    _report(
        1,
        ok,
        f"oracle equivalence on {instances} instances, "
        f"{len(mismatches)} mismatches, {elapsed:.1f}s (budget 120s)",
    )


def test_criterion_2_integer_bound_and_tightness():
    start = time.monotonic()
    instances = violations = 0
    ap_instances = ap_nontight = 0
    for elements in integer_grid_sets():
        ground = GroundSet(elements)
        k = len(elements)
        is_ap = is_arithmetic_progression(ground)
        for r, h in integer_grid_pairs(k):
            card = generalized_sumset(ground, SumParams(h=h, r=r)).cardinality
            slack = card - bound_direct_integers(k, h, r)
            instances += 1
            if slack < 0:
                violations += 1
            if is_ap:
                ap_instances += 1
                if slack != 0:
                    ap_nontight += 1
    elapsed = time.monotonic() - start
    ok = violations == 0 and ap_nontight == 0 and elapsed < 120.0
    _report(
        2,
        ok,
        f"{instances} instances, {violations} violations; "
        f"{ap_instances} progression instances, {ap_nontight} with slack != 0; "
        f"{elapsed:.1f}s (budget 120s)",
    )


def test_criterion_3_mod_p_bound():
    start = time.monotonic()
    instances = violations = 0
    for p in MOD_PRIMES:
        for elements in mod_grid_sets(p):
            ground = GroundSet(elements, p)
            k = len(elements)
            for r in range(1, 9):
                # every h of one (set, r) from one DP: slot h of its profile
                top = min(r * k, 8)
                sumsets = profile(ground, r, top)
                for h in range(1, top + 1):
                    card = sumsets.cardinality(h)
                    if card < bound_direct_mod_p(k, h, r, p):
                        violations += 1
                    instances += 1
    elapsed = time.monotonic() - start
    ok = violations == 0 and elapsed < 300.0
    _report(
        3,
        ok,
        f"{instances} instances over p in {MOD_PRIMES}, "
        f"{violations} violations, {elapsed:.1f}s (budget 300s)",
    )


def test_criterion_4_factorization_and_greedy():
    start = time.monotonic()
    fact_instances = fact_failures = 0
    for elements in integer_grid_sets():
        ground = GroundSet(elements)
        for r, h in integer_grid_pairs(len(elements)):
            fact_instances += 1
            if not check_sumset_factorization(ground, SumParams(h=h, r=r)).equal:
                fact_failures += 1
    for p in MOD_PRIMES:
        for elements in mod_grid_sets(p):
            ground = GroundSet(elements, p)
            for r, h in mod_grid_pairs(len(elements)):
                fact_instances += 1
                if not check_sumset_factorization(ground, SumParams(h=h, r=r)).equal:
                    fact_failures += 1

    greedy_instances = greedy_failures = 0
    base = (0, 1, 3, 7, 12, 20)
    for k in range(1, 7):
        ground = GroundSet(base[:k])
        members = [{0}] + [
            set(restricted_sumset(ground, t).values) for t in range(1, k + 1)
        ]
        for r in range(1, 5):
            for h in range(1, r * k + 1):
                m, eps = divmod(h, r)
                sizes = [m + 1] * eps + [m] * (r - eps)
                for counts in _vectors(k, r, h):
                    greedy_instances += 1
                    d = greedy_decompose(ground, MultiplicityVector(counts, r))
                    good = [len(part) for part in d.parts] == sizes and all(
                        s in members[len(part)]
                        for part, s in zip(d.parts, d.part_sums)
                    )
                    total = sum(c * a for c, a in zip(counts, base))
                    good = good and sum(d.part_sums) == total
                    if not good:
                        greedy_failures += 1
    elapsed = time.monotonic() - start
    ok = fact_failures == 0 and greedy_failures == 0 and elapsed < 120.0
    _report(
        4,
        ok,
        f"factorization on {fact_instances} instances ({fact_failures} unequal); "
        f"greedy on {greedy_instances} vectors ({greedy_failures} invalid); "
        f"{elapsed:.1f}s (budget 120s)",
    )


def _vectors(k, cap, total):
    """All multiplicity vectors of length k, entries in [0, cap], given sum."""
    if k == 1:
        if 0 <= total <= cap:
            yield (total,)
        return
    for c in range(min(cap, total), -1, -1):
        if total - c > (k - 1) * cap:
            continue
        for rest in _vectors(k - 1, cap, total - c):
            yield (c,) + rest


def test_criterion_5_extremal_scans():
    start = time.monotonic()
    expected = (tuple(range(5)),)
    scans = problems = 0
    for r in (2, 3):
        for h in range(r, 5 * r - 2 + 1):
            report = scan_extremal_integers(k=5, h=h, r=r, max_diameter=15)
            scans += 1
            if (
                report.equality_sets != expected
                or report.violations
                or not report.in_hypothesis
                or report.verdict != "pass"
            ):
                problems += 1
    elapsed = time.monotonic() - start
    ok = problems == 0 and elapsed < 120.0
    _report(
        5,
        ok,
        f"{scans} scans (k=5, r in (2,3), r <= h <= 5r-2, diameter <= 15), "
        f"{problems} with an equality set other than the unit progression; "
        f"{elapsed:.1f}s (budget 120s)",
    )


def test_criterion_6_inverse_distinct_pairs():
    start = time.monotonic()
    details = []
    ok = True
    for p in (11, 13):
        report = scan_inverse_eh_mod_p(p=p, k=5)
        good = (
            report.in_hypothesis
            and report.verdict == "pass"
            and not report.non_ap_equality
            and not report.violations
            and len(report.equality_sets) > 0
        )
        ok = ok and good
        details.append(f"p={p}: {len(report.equality_sets)} equality sets, all APs")
    elapsed = time.monotonic() - start
    _report(6, ok and elapsed < 120.0, "; ".join(details) + f"; {elapsed:.1f}s (budget 120s)")


def test_criterion_7_mirrored_cardinality():
    start = time.monotonic()
    instances = failures = 0
    for elements in integer_grid_sets():
        ground = GroundSet(elements)
        k = len(elements)
        for r, h in integer_grid_pairs(k):
            if h > r * k - 1:
                continue
            instances += 1
            if not check_complement_identity(ground, SumParams(h=h, r=r)).equal:
                failures += 1
    for p in MOD_PRIMES:
        for elements in mod_grid_sets(p):
            ground = GroundSet(elements, p)
            k = len(elements)
            for r, h in mod_grid_pairs(k):
                if h > r * k - 1:
                    continue
                instances += 1
                if not check_complement_identity(ground, SumParams(h=h, r=r)).equal:
                    failures += 1
    elapsed = time.monotonic() - start
    ok = failures == 0 and elapsed < 120.0
    _report(
        7,
        ok,
        f"{instances} mirrored pairs checked, {failures} unequal; "
        f"{elapsed:.1f}s (budget 120s)",
    )


WITNESS_CHECKS = (
    "split-inclusion",
    "block-inclusion-wide",
    "gap-witnesses-wide",
    "block-inclusion-narrow",
    "gap-witnesses-narrow",
)


def narrow_slice():
    """Every A inside {0..10} with k in {2, 3}, 5 <= r <= 8 and
    1 <= h <= r*k in the narrow case r - 1 > m + eps > k, which the
    integer grid's r <= 4 rules out."""
    for k in (2, 3):
        for elements in combinations(range(11), k):
            for r in range(5, 9):
                for h in range(1, r * k + 1):
                    m, eps = divmod(h, r)
                    if r - 1 > m + eps > k:
                        yield elements, h, r


def _witness_tally(instances):
    """Instance count, failed checks and passes per named check."""
    count = failures = 0
    passes = dict.fromkeys(WITNESS_CHECKS, 0)
    for elements, h, r in instances:
        params = SumParams(h=h, r=r)
        report = check_inclusions_and_witnesses(GroundSet(elements), params)
        count += 1
        failures += len(report.failed)
        for item in report.checks:
            if item.status == "pass":
                passes[item.name] += 1
    return count, failures, passes


def test_criterion_8_inclusions_and_witnesses():
    start = time.monotonic()
    grid = (
        (elements, h, r)
        for elements in integer_grid_sets()
        for r, h in integer_grid_pairs(len(elements))
    )
    tallies = [_witness_tally(grid), _witness_tally(narrow_slice())]
    elapsed = time.monotonic() - start
    ok = elapsed < 120.0 and all(failures == 0 for _, failures, _ in tallies) and all(
        any(passes[name] for _, _, passes in tallies) for name in WITNESS_CHECKS
    )
    detail = [
        f"{instances} instances, {failures} failed checks ("
        + ", ".join(f"{name}: {n}" for name, n in passes.items())
        + ")"
        for instances, failures, passes in tallies
    ]
    _report(8, ok, f"{detail[0]}; narrow slice {detail[1]}; {elapsed:.1f}s (budget 120s)")


def test_criterion_9_mod_p_engine_matches_oracle():
    start = time.monotonic()
    instances = 0
    mismatches = []
    for p in ORACLE_PRIMES:
        for elements in mod_grid_sets(p):
            ground = GroundSet(elements, p)
            for r in range(1, 9):
                for h in range(1, min(r * len(elements), 8) + 1):
                    params = SumParams(h=h, r=r)
                    instances += 1
                    if generalized_sumset(ground, params).values != (
                        brute_force_sumset(ground, params).values
                    ):
                        mismatches.append((elements, p, h, r))
    elapsed = time.monotonic() - start
    ok = not mismatches and elapsed < 120.0
    _report(
        9,
        ok,
        f"oracle equivalence on {instances} instances over p in {ORACLE_PRIMES}, "
        f"{len(mismatches)} mismatches, {elapsed:.1f}s (budget 120s)",
    )
