"""Self-test of the benchmark at a tiny size.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload untraced and traced and requires no failed check;
then runs each again with an engine that drops one value from every
result and requires the correctness gate to catch it
(``failed_share > 0``).  Exits 0 when all of that holds.
"""

from __future__ import annotations

import sys

import run
from spans import Rebinder
from workloads import WORKLOADS


def drop_one_value(lib):
    """Rebind ``generalized_sumset`` everywhere to a version whose results
    lack their largest value (results of one value are left alone)."""
    engine = lib.core.generalized_sumset

    def wrong(ground, params):
        result = engine(ground, params)
        if result.cardinality < 2:
            return result
        return lib.SumsetResult(result.values[:-1], result.modulus)

    Rebinder(list(run.library_modules(lib).values())).install({id(engine): wrong})


def main():
    sys.path.insert(0, str(run.SRC))
    problems = []
    for name in sorted(WORKLOADS):
        for trace in (0, 1):
            checks, _, _ = run.measure(name, run.DEFAULT_SEED, 0.05, trace, "tiny")
            print(f"{name} trace={trace}: {checks.failed} of {checks.attempted} checks failed")
            if checks.failed or not checks.attempted:
                problems.append(f"{name} trace={trace}: {checks.notes}")
        checks, _, _ = run.measure(
            name, run.DEFAULT_SEED, 0.05, 0, "tiny", inject=drop_one_value
        )
        print(f"{name} with a dropped value: {checks.failed} of {checks.attempted} checks failed")
        if not checks.failed:
            problems.append(f"{name}: a dropped engine value went unnoticed")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
