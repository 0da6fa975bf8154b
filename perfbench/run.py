"""sumsetlab benchmark: one command, three workloads, stdlib only.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scan-grid --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a
separate run that wraps the package's public functions in spans and
reports the per-layer metrics and the tracing overhead.  Metric names
and units come from ``BENCHMARK.json``.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give the environment, every metric in
plain text and the failed-check share.  Exits 2 without a result when
the checkout has no ``src/sumsetlab``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from spans import Tracer
from workloads import WORKLOADS, Checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DEFAULT_SEED = 1


def _library_module_names():
    return [n for n in sys.modules if n == "sumsetlab" or n.startswith("sumsetlab.")]


def load_library():
    """Import ``sumsetlab`` (and its CLI) afresh from the checkout's ``src``."""
    for name in _library_module_names():
        del sys.modules[name]
    lib = importlib.import_module("sumsetlab")
    importlib.import_module("sumsetlab.cli")
    return lib


def library_modules(lib):
    return {
        "core": lib.core,
        "scan": lib.scan,
        "verify": lib.verify,
        "decompose": lib.decompose,
        "cli": lib.cli,
        "package": lib,
    }


def setup(workload, seed, scale):
    """Import plus input generation; returns the library, the inputs and
    the time taken."""
    start = perf_counter()
    lib = load_library()
    inputs = workload.make_inputs(lib, seed, scale, OUT)
    return lib, inputs, perf_counter() - start


def setup_again(workload, seed, scale):
    """Time one more set-up, then drop its library so that the modules in
    use stay the ones registered in ``sys.modules`` (worker processes
    find the scan chunk functions there by name).  The dropped modules
    are collected at once, so that neither the timed passes nor the peak
    RSS carry the garbage of the benchmark's own repeated imports."""
    kept = {name: sys.modules[name] for name in _library_module_names()}
    try:
        return setup(workload, seed, scale)[2]
    finally:
        for name in _library_module_names():
            del sys.modules[name]
        sys.modules.update(kept)
        gc.collect()


def timed_run(workload, lib, inputs, seconds, checks, reference, resetup):
    """Repeat whole passes for ``seconds``, all in this one process (scans
    at ``--jobs 1``).  Every pass runs the same operations in the same
    order, and each operation's latency is the fastest of its repeats.
    On a shared machine a process's speed jumps between a fast and a
    slow level every few seconds, so the slower repeats measure other
    processes as much as this one.  ``resetup()`` runs after each pass
    and returns one more set-up time; set-up is sampled across the whole
    run rather than only at its start, and reported as its fastest
    sample for the same reason."""
    best = None
    passes = 0
    setup_times = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        done = workload.run_pass(lib, inputs, 1)
        workload.check_pass(lib, inputs, done, checks, reference)
        best = done.latencies if best is None else list(map(min, best, done.latencies))
        passes += 1
        setup_times.append(resetup())
    metrics = {
        "setup_s": min(setup_times),
        "instances_per_s": done.items / sum(best),
        "latency_p50_ms": statistics.median(best) * 1e3,
        "latency_p90_ms": statistics.quantiles(best, n=10, method="inclusive")[8] * 1e3,
    }
    return metrics, {"passes": passes, "operations_per_pass": len(best)}


def traced_round(workload, lib, inputs, jobs, checks, reference):
    """One untraced and one traced pass at ``--jobs 1`` (engine spans stay
    in-process), plus the workload's own extra layer measurements."""
    untraced = workload.run_pass(lib, inputs, 1)
    tracer = Tracer(library_modules(lib))
    tracer.install()
    try:
        start = perf_counter()
        with tracer.span("bench.pass"):
            traced = workload.run_pass(lib, inputs, 1, tracer)
        wall = perf_counter() - start
    finally:
        tracer.uninstall()
    for done in (untraced, traced):
        workload.check_pass(lib, inputs, done, checks, reference)

    calls, total, self_s = tracer.summary()

    def layer_self(layer):
        return sum(v for name, v in self_s.items() if name.startswith(layer + "."))

    core_s = layer_self("core")
    layers = {
        "core.calls": calls["core.generalized_sumset"],
        "core.time_s": core_s,
        "core.share": core_s / wall,
        "core.ns_per_mask_bit": core_s * 1e9 / tracer.mask_bits if tracer.mask_bits else 0.0,
        "scan.self_s": layer_self("scan"),
        "cli.self_s": layer_self("cli"),
        "verify.oracle_calls": calls["verify.brute_force_sumset"],
        "verify.oracle_s": total["verify.brute_force_sumset"],
        "verify.checker_self_s": layer_self("verify") - self_s["verify.brute_force_sumset"],
        "decompose.factorization_self_s": self_s["decompose.check_sumset_factorization"],
        "trace.wall_s": wall,
        "untraced_wall_s": untraced.wall,
        "trace.self_sum_share": sum(self_s.values()) / wall,
    }
    layers.update(traced.layer)
    layers.update(workload.trace_layers(lib, inputs, jobs, untraced, checks, reference))
    return layers, tracer


def traced_run(workload, lib, inputs, seconds, jobs, checks, reference, names, seed):
    rounds = []
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        layers, tracer = traced_round(workload, lib, inputs, jobs, checks, reference)
        rounds.append(layers)
    tracer.write(OUT / f"spans-{workload.name}-{seed}.jsonl")
    metrics = {name: statistics.median(r.get(name, 0) for r in rounds) for name in names}
    # The difference of two noisy walls; the fastest of each is steadiest.
    metrics["trace.overhead_s"] = min(r["trace.wall_s"] for r in rounds) - min(
        r["untraced_wall_s"] for r in rounds
    )
    return metrics, {"rounds": len(rounds), "spans": len(tracer.spans)}


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def git_commit(root):
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(workload_name, seed, seconds, trace, scale="full", inject=None):
    """Run one workload; returns (checks, metrics, report lines).

    ``inject(lib)``, when given, runs after set-up and before the gate;
    the self-test uses it to plant a wrong engine result."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    workload = WORKLOADS[workload_name]
    jobs = len(os.sched_getaffinity(0))
    OUT.mkdir(exist_ok=True)

    lib, inputs, _ = setup(workload, seed, scale)
    if not Path(lib.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"sumsetlab imported from {lib.__file__}, not from {SRC}")
    if inject is not None:
        inject(lib)
    checks = Checks()
    reference = workload.gate(lib, inputs, checks, jobs)
    if trace:
        metrics, samples = traced_run(
            workload, lib, inputs, seconds, jobs, checks, reference, units, seed
        )
    else:
        metrics, samples = timed_run(
            workload, lib, inputs, seconds, checks, reference,
            lambda: setup_again(workload, seed, scale),
        )
        metrics["peak_rss_mb"] = peak_rss_mb()
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"workload produced no value for {sorted(missing)}")

    env = {
        "workload": workload.name,
        "item": workload.item,
        "seed": seed,
        "jobs": jobs,
        "nproc": os.cpu_count(),
        "sched_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(ROOT),
        "trace": int(trace),
        "scale": scale,
        **samples,
    }
    failed_share = checks.failed / max(checks.attempted, 1)
    lines = [json.dumps({"env": env}, sort_keys=True)]
    lines += [f"{name} = {metrics[name]:.6g} {unit}" for name, unit in units.items()]
    lines.append(
        f"failed_share = {failed_share:.6g} ratio "
        f"({checks.failed} of {checks.attempted} checks failed)"
    )
    lines += [f"check failed: {note}" for note in checks.notes]
    return checks, {n: {"value": metrics[n], "unit": u} for n, u in units.items()}, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sumsetlab" / "__init__.py").is_file():
        print(f"error: no sumsetlab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    checks, metrics, lines = measure(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
