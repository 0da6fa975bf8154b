"""The three benchmark workloads: inputs, one timed pass, correctness gate.

Each workload builds every input from the seed in ``make_inputs`` (the
library sees only the generated sets and command lines), runs one
*pass* over those inputs in ``run_pass``, and checks a pass's outputs
in ``check_pass`` after its timer has stopped.  ``gate`` runs once,
untimed, before the first timed pass: it makes the reference outputs
the timed passes are compared against and runs the checks too costly
to repeat per pass.  Every check adds one to ``Checks.attempted`` and,
when it fails, one to ``Checks.failed``.

``scale`` is ``"full"`` for the benchmark and ``"tiny"`` for the
self-test; it changes sizes only, never what is checked.
"""

from __future__ import annotations

import hashlib
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from itertools import combinations
from time import perf_counter


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def expect(self, ok: bool, what) -> None:
        """Count one check; ``what`` describes it if it fails."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(what)


@dataclass
class Pass:
    """One pass: wall time, items finished, per-operation latencies (the
    same operations in the same order on every pass) and whatever
    ``check_pass`` needs to judge the outputs."""

    wall: float
    items: int
    latencies: list
    outputs: object
    layer: dict = field(default_factory=dict)


class Workload:
    name: str
    item: str  # what one unit of instances_per_s is

    def trace_layers(self, lib, inputs, jobs, untraced, checks, reference):
        """Layer metrics measured outside the traced pass; none by default."""
        return {}


# --------------------------------------------------------------- scan-grid


class _Sink:
    """Stands in for stdout: counts and hashes every byte, and notes the
    time each per-combination summary record is printed."""

    SUMMARY = '"op":"scan-summary"'

    def __init__(self):
        self.bytes = 0
        self.lines = 0
        self.sha = hashlib.sha256()
        self.summaries = []
        self.latencies = []
        self.mark = 0.0

    def write(self, s):
        self.bytes += len(s)
        self.lines += s.count("\n")
        self.sha.update(s.encode())
        if self.SUMMARY in s:
            now = perf_counter()
            self.latencies.append(now - self.mark)
            self.mark = now
            self.summaries.append(s)
        return len(s)

    def flush(self):
        pass


class ScanGrid(Workload):
    """``sumsetlab.cli.run`` in-process: an extremal scan manifest over
    several h for one (k, r), then one inverse-eh scan, records format."""

    name = "scan-grid"
    item = "evaluated candidate"
    # k, r values, h values, max_diameter, inverse-eh (p, k)
    SIZES = {
        "full": (6, (2, 3), range(2, 11), 12, (19, 5)),
        "tiny": (5, (2,), range(2, 5), 8, (11, 5)),
    }

    def make_inputs(self, lib, seed, scale, workdir):
        k, rs, hs, diameter, (p, pk) = self.SIZES[scale]
        hs = list(hs)
        random.Random(seed).shuffle(hs)
        manifest = workdir / f"scan-grid-{scale}-{seed}.txt"
        manifest.write_text(
            f"k = {k}\nh = {','.join(map(str, hs))}\nr = {','.join(map(str, rs))}\n"
            f"max_diameter = {diameter}\n",
            encoding="utf-8",
        )
        return {
            "k": k,
            "argvs": [
                ["scan", "extremal", "--manifest", str(manifest)],
                ["scan", "inverse-eh", "--p", str(p), "--k", str(pk)],
            ],
        }

    def run_pass(self, lib, inputs, jobs, tracer=None):
        sink = _Sink()
        codes = []
        start = perf_counter()
        with redirect_stdout(sink):
            for op, argv in enumerate(inputs["argvs"]):
                if tracer is not None:
                    tracer.op_id = op
                sink.mark = perf_counter()
                codes.append(
                    lib.cli.run(argv + ["--format", "records", "--jobs", str(jobs)])
                )
        wall = perf_counter() - start
        summaries = [json.loads(s) for s in sink.summaries]
        candidates = sum(s["candidates"] for s in summaries)
        evaluated = sum(s["evaluated"] for s in summaries)
        return Pass(
            wall=wall,
            items=evaluated,
            latencies=sink.latencies,
            outputs=(codes, sink.sha.hexdigest(), summaries),
            layer={
                "cli.records": sink.lines,
                "cli.stdout_bytes": sink.bytes,
                "scan.evaluated_share": evaluated / candidates,
            },
        )

    def gate(self, lib, inputs, checks, jobs):
        """The ``--jobs 1`` pass is the reference; a pass at ``jobs``
        workers must print the same records."""
        ref = self.run_pass(lib, inputs, 1)
        self.check_pass(lib, inputs, ref, checks, reference=None)
        parallel = self.run_pass(lib, inputs, jobs)
        self.check_pass(lib, inputs, parallel, checks, ref.outputs[1])
        return ref.outputs[1]

    def trace_layers(self, lib, inputs, jobs, untraced, checks, reference):
        """Pools started and parallel efficiency, from an untraced pass at
        ``jobs`` workers against the untraced ``--jobs 1`` pass."""
        started = []
        base = lib.scan.ProcessPoolExecutor

        class CountingPool(base):
            def __init__(self, *args, **kwargs):
                started.append(1)
                super().__init__(*args, **kwargs)

        lib.scan.ProcessPoolExecutor = CountingPool
        try:
            parallel = self.run_pass(lib, inputs, jobs)
        finally:
            lib.scan.ProcessPoolExecutor = base
        self.check_pass(lib, inputs, parallel, checks, reference)
        return {
            "scan.pools_started": len(started),
            "scan.parallel_efficiency": untraced.wall / (jobs * parallel.wall),
        }

    def check_pass(self, lib, inputs, done, checks, reference):
        codes, digest, summaries = done.outputs
        for code in codes:
            checks.expect(code == 0, f"cli exit code {code}")
        if reference is not None:
            checks.expect(digest == reference, "records digest differs from --jobs 1")
        expected = [list(range(inputs["k"]))]
        for s in summaries:
            if not s["in_hypothesis"]:
                continue
            if s["kind"] == "extremal":
                checks.expect(
                    s["equality_sets"] == expected,
                    f"extremal h={s['h']}: equality sets {s['equality_sets'][:3]}",
                )
            else:
                for eq in s["equality_sets"]:
                    checks.expect(
                        lib.is_arithmetic_progression(lib.GroundSet(tuple(eq), s["p"])),
                        f"inverse-eh p={s['p']}: non-progression {eq}",
                    )


# ------------------------------------------------------------- engine-wide


def _next_prime(lib, n):
    while not lib.is_prime(n):
        n += 1
    return n


class EngineWide(Workload):
    """Seeded ``generalized_sumset`` calls on large inputs over Z and Z/p.

    The first templates are extraction-bound (wide span, many sums,
    small r), the rest DP-bound (high h, r near h, classical r = h).
    """

    name = "engine-wide"
    item = "engine call"
    # domain, k, span over Z or a lower limit for the prime p, h, r
    TEMPLATES = (
        ("Z", 40, 8000, 3, 1),
        ("Z", 24, 2500, 4, 2),
        ("p", 40, 20000, 3, 1),
        ("Z", 20, 150, 36, 36),
        ("Z", 20, 300, 30, 24),
        ("p", 20, 2000, 30, 26),
    )
    SIZES = {"full": (1, 20), "tiny": (20, 2)}  # size divisor, calls per template
    # sha256 of every call's (elements, modulus, values) for seed 1, by
    # scale; an engine change that alters any value changes it.
    PINNED = {
        "full": "973b64228fb116c9333b66d17d10f6a692ddf6c07c39fac9ee8e21bbe29507d8",
        "tiny": "c4955ee4695e4364bbffc3a7002af6b7f12c74047691c6b715b3e6e3d512da9d",
    }
    ORACLE_SAMPLE = 4
    ORACLE_LIMIT = 20000  # multiplicity vectors brute force may enumerate

    def make_inputs(self, lib, seed, scale, workdir):
        divisor, per_template = self.SIZES[scale]
        rng = random.Random(seed)
        calls = []
        for domain, k, width, h, r in self.TEMPLATES:
            k = max(4, k // divisor)
            width = max(4 * k, width // divisor)
            h = min(h, r * k)
            for _ in range(per_template):
                if domain == "Z":
                    low = rng.randrange(-10**6, 10**6)
                    inner = rng.sample(range(low + 1, low + width), k - 2)
                    ground = lib.GroundSet.of([low, low + width] + inner)
                else:
                    p = _next_prime(lib, width + rng.randrange(width // 10))
                    ground = lib.GroundSet.of(rng.sample(range(p), k), p)
                calls.append((ground, lib.SumParams(h=h, r=r)))
        rng.shuffle(calls)
        return {"scale": scale, "seed": seed, "calls": calls}

    def run_pass(self, lib, inputs, jobs, tracer=None):
        engine = lib.generalized_sumset
        latencies = []
        prints = []
        start = perf_counter()
        for op, (ground, params) in enumerate(inputs["calls"]):
            if tracer is not None:
                tracer.op_id = op
            t = perf_counter()
            result = engine(ground, params)
            latencies.append(perf_counter() - t)
            prints.append(hash(result.values))
        wall = perf_counter() - start
        return Pass(wall, len(prints), latencies, prints)

    def gate(self, lib, inputs, checks, jobs):
        sha = hashlib.sha256()
        prints = []
        small = []
        for ground, params in inputs["calls"]:
            result = lib.generalized_sumset(ground, params)
            prints.append(hash(result.values))
            sha.update(repr((ground.elements, ground.modulus, result.values)).encode())
            k, h, r = ground.size, params.h, params.r
            if ground.modulus is None:
                bound = lib.bound_direct_integers(k, h, r)
                extremes = lib.extremes_closed_form(ground, params)
                checks.expect(
                    (result.min, result.max) == extremes,
                    f"extremes {(result.min, result.max)} != closed form {extremes}",
                )
            else:
                bound = lib.bound_direct_mod_p(k, h, r, ground.modulus)
            checks.expect(result.cardinality >= bound, f"|h^(r)A| below bound {bound}")
            if _vector_count(k, h, r) <= self.ORACLE_LIMIT:
                small.append((ground, params, result.values))
        pinned = self.PINNED.get(inputs["scale"]) if inputs["seed"] == 1 else None
        if pinned is not None:
            checks.expect(
                sha.hexdigest() == pinned,
                f"values digest {sha.hexdigest()} differs from pinned {pinned}",
            )
        sample = random.Random(inputs["seed"]).sample(
            small, min(self.ORACLE_SAMPLE, len(small))
        )
        checks.expect(len(sample) > 0, "no call small enough for the oracle")
        for ground, params, values in sample:
            checks.expect(
                lib.brute_force_sumset(ground, params).values == values,
                "engine disagrees with brute_force_sumset",
            )
        return prints

    def check_pass(self, lib, inputs, done, checks, reference):
        for got, want in zip(done.outputs, reference):
            checks.expect(got == want, "engine result differs from the gate pass")


def _vector_count(k, h, r):
    """Number of (r_1..r_k) with 0 <= r_i <= r summing to h."""
    ways = [1] + [0] * h
    for _ in range(k):
        ways = [sum(ways[max(0, t - r) : t + 1]) for t in range(h + 1)]
    return ways[h]


# ------------------------------------------------------------ verify-sweep


def _integer_pairs(k):
    for r in range(1, 5):
        for h in range(1, min(r * k, 8) + 1):
            yield h, r


def _mod_pairs(k):
    for r in range(1, 9):
        for h in range(r, min(r * k, 8) + 1):
            yield h, r


class VerifySweep(Workload):
    """The acceptance-grid shape on a seeded sample of small ground sets:
    every (h, r) pair through each applicable checker, and integer
    instances against the brute-force oracle."""

    name = "verify-sweep"
    item = "grid instance"
    PRIMES = (5, 7, 11, 13)
    # sets per integer k in 2..6, sets per (p, k) for k in 1..6
    SIZES = {"full": (8, 2), "tiny": (1, 1)}
    MOD_ORACLE_SAMPLE = 40

    def make_inputs(self, lib, seed, scale, workdir):
        per_k, per_pk = self.SIZES[scale]
        rng = random.Random(seed)
        instances = []
        for k in range(2, 7):
            for elements in rng.sample(list(combinations(range(11), k)), per_k):
                ground = lib.GroundSet(elements)
                instances.extend((ground, lib.SumParams(h=h, r=r)) for h, r in _integer_pairs(k))
        for p in self.PRIMES:
            for k in range(1, min(p, 6) + 1):
                subsets = list(combinations(range(p), k))
                for elements in rng.sample(subsets, min(per_pk, len(subsets))):
                    ground = lib.GroundSet(elements, p)
                    instances.extend((ground, lib.SumParams(h=h, r=r)) for h, r in _mod_pairs(k))
        return {"seed": seed, "instances": instances}

    def run_pass(self, lib, inputs, jobs, tracer=None):
        latencies = []
        verdicts = []
        start = perf_counter()
        for op, (ground, params) in enumerate(inputs["instances"]):
            if tracer is not None:
                tracer.op_id = op
            t = perf_counter()
            verdicts.append(_verify_instance(lib, ground, params))
            latencies.append(perf_counter() - t)
        wall = perf_counter() - start
        return Pass(wall, len(verdicts), latencies, verdicts)

    def gate(self, lib, inputs, checks, jobs):
        modular = [(g, prm) for g, prm in inputs["instances"] if g.modulus is not None]
        sample = random.Random(inputs["seed"]).sample(
            modular, min(self.MOD_ORACLE_SAMPLE, len(modular))
        )
        for ground, params in sample:
            checks.expect(
                lib.generalized_sumset(ground, params).values
                == lib.brute_force_sumset(ground, params).values,
                f"mod-p engine disagrees with the oracle on {ground.elements} mod {ground.modulus}",
            )
        return None

    def check_pass(self, lib, inputs, done, checks, reference):
        for (ground, params), verdict in zip(inputs["instances"], done.outputs):
            for name, ok in verdict:
                checks.expect(ok, (name, ground.elements, ground.modulus, params.h, params.r))


def _verify_instance(lib, ground, params):
    """Run every applicable check on one instance; return (name, passed) pairs."""
    k, h, r = ground.size, params.h, params.r
    out = [("direct", lib.check_direct_bound(ground, params).verdict == "pass")]
    if h <= r * k - 1:
        out.append(("complement", lib.check_complement_identity(ground, params).equal))
    if h % r == 0:
        out.append(("factorization", lib.check_sumset_factorization(ground, params).equal))
    if ground.modulus is None:
        out.append((
            "inclusions",
            lib.check_inclusions_and_witnesses(ground, params).verdict == "pass",
        ))
        out.append((
            "oracle",
            lib.generalized_sumset(ground, params).values
            == lib.brute_force_sumset(ground, params).values,
        ))
    return out


WORKLOADS = {w.name: w for w in (ScanGrid(), EngineWide(), VerifySweep())}
