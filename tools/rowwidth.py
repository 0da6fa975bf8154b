"""Cold engine and scan timings on both sides of the packed-row cost rule.

An uncached engine call steps its DP either on packed rows (one integer
per row, a slot of ``stride`` bits per multiplicity t) or on per-t masks,
and ``core._packs`` chooses between them; scans walk packed rows only.
This harness times both sides of that rule, in two modes:

    python3 tools/rowwidth.py compare --src A --src B [--rounds 3] [--out F]

runs a fixed list of shapes, wide engine calls that the rule sends to the
per-t step, narrow ones that it packs, and scans of wide and narrow rows,
once per source tree and round, alternating the trees, each shape in a
fresh interpreter that imports ``sumsetlab`` from ``SRC`` (a checkout's
``src`` directory; to time a tree against itself, pass a copy as the
second).  A shape runs at least its repeats and 0.5 s, and until 200
runs or 5 s, each run with the engine's profile memo emptied first; its
time is the fastest run, ``peak_mb`` is the interpreter's peak RSS,
``memo_hits`` is the memo's hit count, 0 for an engine shape whose runs
all start cold, ``profiles`` is the number of profiles built over all
runs, and ``heights`` the heights they were built at.  ``rule`` is the
layout the child saw the cost rule pick: the first call's, or packed
when no call asked it and a run built a profile.  Each shape's
``packed`` is the ``rule`` of the last ``--src`` tree.

    python3 tools/rowwidth.py calibrate --src A [--out F]

times every engine shape of a grid with the layout forced each way, with
the memo keeping nothing, so that a forced packed call builds its profile
at h and none at r * k, and reports for each shape the layout ``_packs``
picks and how much slower it is than the faster layout.

Results go to stdout as JSON, and to ``--out`` if given.  Standard
library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys

CHILD = r"""
import json, resource, sys, time
# Sub-millisecond shapes need many runs and a long window for the fastest
# to be steady: on a shared 2-core VM, a 0.2 s window read the same tree
# twice at 0.77-1.06x.
MIN_RUNS, MIN_SECONDS, MAX_SECONDS = 200, 0.5, 5.0
spec = json.loads(sys.argv[1])
sys.path.insert(0, spec["src"])
from sumsetlab import core, scan
from sumsetlab.core import GroundSet, SumParams
# Each call's layout is the cost rule's pick, recorded before a forced
# layout overrides it.
picks, rule = [], core._packs
core._packs = lambda *args: picks.append(rule(*args)) or (
    picks[-1] if spec["force"] is None else spec["force"])
if spec["force"] is not None:
    # A profile that the memo keeps runs packed whatever _packs says, so a
    # forced layout keeps none: no row fits a cap of 0 bits.
    core._MEMO_MAX_BITS = 0
built, build = [], core._profile
core._profile = lambda *args: built.append(args[2]) or build(*args)
def once():
    core._kept.cache_clear()
    if spec["kind"] == "engine":
        ground = GroundSet(tuple(spec["set"]), spec["p"])
        return list(core.generalized_sumset(ground, SumParams(spec["h"], spec["r"])).values)
    if spec["p"] is None:
        report = scan.scan_extremal_integers(spec["k"], spec["h"], spec["r"], spec["d"])
    else:
        report = scan.scan_inverse_eh_mod_p(spec["p"], spec["k"], spec["h"])
    return [report.evaluated, [list(s) for s in report.equality_sets]]
best, began, runs = float("inf"), time.perf_counter(), 0
def more():
    spent = time.perf_counter() - began
    return (runs < spec["repeats"] or spent < MIN_SECONDS
            or runs < MIN_RUNS and spent < MAX_SECONDS)
while more():
    start = time.perf_counter()
    value = once()
    best = min(best, time.perf_counter() - start)
    runs += 1
print(json.dumps({"s": best, "digest": hash(json.dumps(value)),
                  "peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  "memo_hits": core._kept.cache_info().hits, "profiles": len(built),
                  "heights": sorted(set(built)), "rule": picks[0] if picks else bool(built)}))
"""


def _engine(name, elements, p, h, r, repeats=3):
    return {"name": name, "kind": "engine", "set": sorted(elements), "p": p,
            "h": h, "r": r, "repeats": repeats}


def _compare_shapes():
    rng = random.Random(1)
    dense = lambda k, span: [0, span] + rng.sample(range(1, span), k - 2)  # noqa: E731
    residues = lambda k, p: rng.sample(range(p), k)  # noqa: E731
    return [
        # wide: the rule runs these per t
        _engine("Z {0,1,2,3,4000000} h=r=6", [0, 1, 2, 3, 4_000_000], None, 6, 6, 2),
        _engine("{0,1,2,3} mod 20000003 h=r=8", [0, 1, 2, 3], 20_000_003, 8, 8, 2),
        _engine("Z k=20 span 15000 h=r=36", dense(20, 15_000), None, 36, 36, 2),
        _engine("k=20 mod 200003 h=r=8", residues(20, 200_003), 200_003, 8, 8),
        _engine("Z k=40 span 8000 h=3 r=1", dense(40, 8_000), None, 3, 1, 5),
        _engine("Z k=24 span 2500 h=4 r=2", dense(24, 2_500), None, 4, 2, 5),
        _engine("k=40 mod 20011 h=3 r=1", residues(40, 20_011), 20_011, 3, 1, 5),
        _engine("{0,...,4} mod 2003 h=r=16", range(5), 2_003, 16, 16, 5),
        # wide packed scans, which the rule ran per t until scans stopped
        # asking it; one set of each at the bound, so these time the walk
        {"name": "extremal k=3 d=700 h=r=9", "kind": "scan", "p": None, "k": 3,
         "h": 9, "r": 9, "d": 700, "repeats": 2},
        {"name": "extremal k=3 d=1000 h=r=6", "kind": "scan", "p": None, "k": 3,
         "h": 6, "r": 6, "d": 1000, "repeats": 2},
        # narrow: the rule packs these, and narrow scans
        _engine("Z k=20 span 150 h=r=36", dense(20, 150), None, 36, 36, 5),
        _engine("Z k=20 span 300 h=30 r=24", dense(20, 300), None, 30, 24, 5),
        _engine("k=20 mod 2003 h=30 r=26", residues(20, 2_003), 2_003, 30, 26, 5),
        _engine("Z {0,1,2,3,7} h=r=6", [0, 1, 2, 3, 7], None, 6, 6, 20),
        {"name": "extremal k=4 d=80 h=4 r=2", "kind": "scan", "p": None, "k": 4,
         "h": 4, "r": 2, "d": 80, "repeats": 2},
        {"name": "extremal k=6 d=12 h=10 r=3", "kind": "scan", "p": None, "k": 6,
         "h": 10, "r": 3, "d": 12, "repeats": 3},
        {"name": "inverse-eh p=19 k=5 h=2", "kind": "scan", "p": 19, "k": 5,
         "h": 2, "r": 1, "repeats": 3},
    ]


def _calibration_shapes():
    rng = random.Random(11)
    pairs = ((2, 1), (3, 1), (4, 2), (3, 3), (6, 2), (8, 8), (12, 3), (16, 16), (24, 24))
    shapes = []
    for k in (3, 5, 10, 20):
        for width in (20, 200, 2_000, 20_000):
            for h, r in pairs:
                if h > r * k or width < 2 * k:
                    continue
                shapes.append(_engine(f"Z k={k} span {width} h={h} r={r}",
                                      [0, width] + rng.sample(range(1, width), k - 2), None, h, r))
                p = {20: 23, 200: 211, 2_000: 2_003, 20_000: 20_011}[width]
                shapes.append(_engine(f"k={k} mod {p} h={h} r={r}",
                                      rng.sample(range(p), k), p, h, r))
    return shapes


def _run(spec, src, force=None):
    child = {**spec, "src": os.path.abspath(src), "force": force}
    out = subprocess.run([sys.executable, "-c", CHILD, json.dumps(child)],
                         stdout=subprocess.PIPE, text=True, check=True,
                         env={**os.environ, "PYTHONHASHSEED": "0"})
    return json.loads(out.stdout)


def compare(srcs, rounds):
    shapes = _compare_shapes()
    runs = {spec["name"]: {src: [] for src in srcs} for spec in shapes}
    for n in range(rounds):
        order = srcs if n % 2 == 0 else srcs[::-1]
        for spec in shapes:
            for src in order:
                runs[spec["name"]][src].append(_run(spec, src))
    rows = []
    for spec in shapes:
        row = {"name": spec["name"], "packed": runs[spec["name"]][srcs[-1]][0]["rule"]}
        for src in srcs:
            got = runs[spec["name"]][src]
            row[src] = {"s_median": statistics.median(g["s"] for g in got),
                        "s": [g["s"] for g in got],
                        "peak_mb": max(g["peak_mb"] for g in got)}
        digests = {g["digest"] for src in srcs for g in runs[spec["name"]][src]}
        row["same_values"] = len(digests) == 1
        rows.append(row)
    return {"mode": "compare", "rounds": rounds, "srcs": srcs, "shapes": rows}


def calibrate(src):
    rows = []
    for spec in _calibration_shapes():
        packed = _run(spec, src, True)
        per_t = _run(spec, src, False)
        assert packed["digest"] == per_t["digest"], spec["name"]
        chosen = packed if packed["rule"] else per_t
        rows.append({"name": spec["name"], "packed_s": packed["s"], "per_t_s": per_t["s"],
                     "rule": "packed" if chosen is packed else "per-t",
                     "vs_best": chosen["s"] / min(packed["s"], per_t["s"])})
    ratios = sorted(row["vs_best"] for row in rows)
    return {"mode": "calibrate", "src": src, "shapes": rows,
            "vs_best_median": statistics.median(ratios),
            "vs_best_p90": ratios[int(0.9 * (len(ratios) - 1))],
            "vs_best_max": ratios[-1]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("compare", "calibrate"))
    parser.add_argument("--src", action="append", required=True)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--out")
    args = parser.parse_args()
    if len(set(args.src)) < len(args.src):
        parser.error("each --src must differ; to time a tree against itself, copy it")
    result = compare(args.src, args.rounds) if args.mode == "compare" else calibrate(args.src[0])
    result["env"] = {"python": platform.python_version(), "nproc": os.cpu_count(),
                     "platform": platform.platform()}
    text = json.dumps(result, indent=1)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text + "\n")


if __name__ == "__main__":
    main()
