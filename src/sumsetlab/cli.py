"""Command-line front end.

Subcommands mirror the library: compute, bound, verify (direct,
factorization, complement, inclusions), decompose, scan (extremal,
inverse-eh).  Output is plain text by default; ``--format records``
emits one JSON object per line, one per checked instance, closing with
a summary line, so a scan can be piped into other tooling and re-run
from its own records.  The single-instance commands return their record,
text lines and verdict, and run() prints them; a scan prints each
chunk's records in one write as it goes and returns its counts.

Exit codes: 0 success, 1 bad parameters or unparsable input (or a
worker process that died), 2 a verification that was supposed to hold
failed, 3 a scan refused by the resource cap, 130 interrupted.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from concurrent.futures.process import BrokenProcessPool
from functools import cache
from typing import Optional, Sequence

from .core import (
    GroundSet,
    SumParams,
    bound_direct_integers,
    bound_direct_mod_p,
    generalized_sumset,
    parse_ground_set,
)
from .decompose import MultiplicityVector, check_sumset_factorization, greedy_decompose
from .errors import DomainError, InvariantViolationError, ResourceCapError
from .scan import DEFAULT_CAP, _SCANS, _json_line, parse_manifest, scan_grid
from .verify import (
    check_complement_identity,
    check_direct_bound,
    check_inclusions_and_witnesses,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_VERIFICATION = 2
EXIT_CAP = 3
EXIT_INTERRUPTED = 130


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2; this CLI reserves 2
    for verification failures, so usage errors surface as DomainError
    and run() turns them into exit code 1."""

    def error(self, message):
        raise DomainError(message)


def _fmt_set(values, modulus=None) -> str:
    body = "{" + ",".join(str(v) for v in values) + "}"
    return f"{body} mod {modulus}" if modulus else body


@cache  # built on the first run(), not at import, and reused after
def build_parser() -> _Parser:
    parser = _Parser(prog="sumsetlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p, verbose=False):
        p.add_argument("--format", choices=("plain", "records"), default="plain")
        if verbose:
            p.add_argument(
                "--verbose",
                action="store_true",
                help="plain mode: list every equality set and full check details",
            )

    def add_common(p, with_hr=True, verbose=False):
        p.add_argument("--set", dest="set_literal", help='e.g. "0,1,3,7 mod 11"')
        if with_hr:
            p.add_argument("--h", type=int, required=True)
            p.add_argument("--r", type=int, required=True)
        p.add_argument("--p", type=int, help="modulus (alternative to 'mod p')")
        add_output(p, verbose)

    c = sub.add_parser("compute", help="compute h^(r)A")
    add_common(c)

    b = sub.add_parser("bound", help="closed-form lower bound for |h^(r)A|")
    add_common(b)
    b.add_argument("--k", type=int, help="set size (alternative to --set)")

    v = sub.add_parser("verify", help="check bounds and identities")
    vsub = v.add_subparsers(dest="subcommand", required=True)
    for name, blurb in (
        ("direct", "computed cardinality against the closed-form bound"),
        ("factorization", "h^(r)A against eps-fold (m+1)^A + (r-eps)-fold m^A"),
        ("complement", "|h^(r)A| against |(rk-h)^(r)A|"),
        ("inclusions", "split inclusion, case bundles, witness chains"),
    ):
        vp = vsub.add_parser(name, help=blurb)
        add_common(vp, verbose=name == "inclusions")

    d = sub.add_parser("decompose", help="greedy rewrite into r parts of distinct elements")
    add_common(d, with_hr=False)
    d.add_argument("--counts", required=True, help='multiplicities, e.g. "2,1,1"')
    d.add_argument("--r", type=int, required=True, help="per-element cap")

    s = sub.add_parser("scan", help="exhaustive equality-set scans")
    ssub = s.add_subparsers(dest="subcommand", required=True)

    for name, (blurb, required, optional, _) in _SCANS.items():
        sp = ssub.add_parser(name, help=blurb)
        for key in required + optional:
            sp.add_argument("--" + key.replace("_", "-"), type=int)
        sp.add_argument("--manifest", help="grid manifest file")
        sp.add_argument("--cap", type=int, default=DEFAULT_CAP)
        sp.add_argument(
            "--jobs",
            type=int,
            default=None,
            help="worker processes (default: all available cores)",
        )
        add_output(sp, verbose=True)

    return parser


def _available_cores() -> int:
    """Cores this process may run on (its CPU affinity, where the
    platform reports one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _resolve_ground(args: argparse.Namespace) -> GroundSet:
    if not args.set_literal:
        raise DomainError("--set is required for this command")
    literal = args.set_literal
    if args.p is not None and "mod" not in literal:
        literal = f"{literal} mod {args.p}"
    # Each warning about a canonicalized literal is one stderr line, also
    # under -W error, which would otherwise raise it.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ground = parse_ground_set(literal)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    if args.p is not None and ground.modulus != args.p:
        raise DomainError(
            f"--p {args.p} conflicts with 'mod {ground.modulus}' in the set literal"
        )
    return ground


def _cmd_compute(args: argparse.Namespace) -> tuple:
    ground = _resolve_ground(args)
    params = SumParams(h=args.h, r=args.r)
    result = generalized_sumset(ground, params)
    record = {
        "op": "compute",
        "set": list(ground.elements),
        "p": ground.modulus,
        "h": params.h,
        "r": params.r,
        "values": list(result.values),
        "cardinality": result.cardinality,
        "min": result.min,
        "max": result.max,
    }
    lines = [
        _fmt_set(result.values, ground.modulus),
        f"cardinality {result.cardinality}",
    ]
    if ground.modulus is None:
        lines.append(f"min {result.min} max {result.max}")
    return record, lines, "pass"


def _cmd_bound(args: argparse.Namespace) -> tuple:
    p = args.p
    if args.set_literal:
        if args.k is not None:
            raise DomainError("bound: k is set both by --k and by --set")
        ground = _resolve_ground(args)
        k = ground.size
        p = ground.modulus
    elif args.k is not None:
        k = args.k
    else:
        raise DomainError("one of --set or --k is required for bound")
    params = SumParams(h=args.h, r=args.r)
    if p is None:
        value = bound_direct_integers(k, params.h, params.r)
    else:
        value = bound_direct_mod_p(k, params.h, params.r, p)
    record = {"op": "bound", "k": k, "h": params.h, "r": params.r, "p": p,
              "bound": value}
    return record, [str(value)], "pass"


def _cmd_verify(args: argparse.Namespace) -> tuple:
    ground = _resolve_ground(args)
    params = SumParams(h=args.h, r=args.r)
    if args.subcommand == "direct":
        report = check_direct_bound(ground, params)
        lines = [
            f"cardinality {report.cardinality}",
            f"bound {report.bound}",
            f"slack {report.slack}",
            f"equality {'yes' if report.equality else 'no'}",
        ]
    elif args.subcommand == "factorization":
        report = check_sumset_factorization(ground, params)
        lines = [
            f"left cardinality {report.left.cardinality}",
            f"right cardinality {report.right.cardinality}",
            f"equal {'yes' if report.equal else 'no'}",
        ]
    elif args.subcommand == "complement":
        report = check_complement_identity(ground, params)
        lines = [
            f"cardinality {report.cardinality}",
            f"complement h'={report.h_complement} cardinality "
            f"{report.complement_cardinality}",
            f"equal {'yes' if report.equal else 'no'}",
        ]
    else:  # inclusions
        report = check_inclusions_and_witnesses(ground, params)
        lines = []
        for item in report.checks:
            line = f"{item.name}: {item.status}"
            if item.detail and (args.verbose or item.status == "fail"):
                line += f" ({item.detail})"
            lines.append(line)
    lines.append(f"verdict {report.verdict}")
    return report.to_record(), lines, report.verdict


def _cmd_decompose(args: argparse.Namespace) -> tuple:
    ground = _resolve_ground(args)
    try:
        counts = tuple(int(t) for t in args.counts.split(",") if t.strip())
    except ValueError:
        raise DomainError(f"bad --counts {args.counts!r}") from None
    vector = MultiplicityVector(counts=counts, cap=args.r)
    result = greedy_decompose(ground, vector)
    lines = [
        f"total {result.total_sum} from counts {vector.counts} cap {vector.cap}"
    ]
    for step, part, value in zip(result.trace, result.parts, result.part_sums):
        values = tuple(ground.elements[i] for i in part)
        lines.append(
            f"part {step.step}: indices {part} values {values} sum {value} "
            f"[active_before={step.active_before} max_after={step.max_after}]"
        )
    return result.to_record(), lines, "pass"


def _cmd_scan(args: argparse.Namespace) -> tuple:
    """Run every grid point, printing its records (or text) as it
    finishes; returns (instances, failures, verdict) over all of them."""
    if (args.jobs or 0) < 0:
        raise DomainError(f"--jobs must be >= 0, got {args.jobs}")
    _, required, optional, _ = _SCANS[args.subcommand]
    grid = {}
    if args.manifest:
        with open(args.manifest, "r", encoding="utf-8") as fh:
            grid = parse_manifest(fh.read())
    for key in required + optional:
        value = getattr(args, key)
        if value is None:
            continue
        if key in grid:
            raise DomainError(
                f"scan {args.subcommand}: {key} is set both by a flag and "
                f"by the manifest"
            )
        grid[key] = [value]
    records = args.format == "records"
    on_records = (lambda lines: print("\n".join(lines))) if records else None
    instances = failures = 0
    failed = False

    def on_report(report):
        nonlocal instances, failures, failed
        instances += report.evaluated  # records mode prints one per candidate
        failures += len(report.violations)
        failed = failed or report.verdict == "fail"
        if records:
            print(_json_line(report.to_record()))
        else:
            _print_scan_plain(report, args.verbose)

    scan_grid(args.subcommand, grid, args.cap, args.jobs or _available_cores(),
              on_records, on_report)
    return instances, failures, "fail" if failed else "pass"


def _print_scan_plain(report, verbose: bool) -> None:
    header = f"scan {report.kind} k={report.k} h={report.h} r={report.r}"
    if report.p is not None:
        header += f" p={report.p}"
    if report.max_diameter is not None:
        header += f" max_diameter={report.max_diameter}"
    print(header)
    print(
        f"candidates {report.candidates}  evaluated {report.evaluated}  "
        f"bound {report.bound}"
    )
    print(f"equality sets: {len(report.equality_sets)}")
    shown = report.equality_sets if verbose else report.equality_sets[:10]
    for s in shown:
        print(f"  {_fmt_set(s, report.p)}")
    if len(shown) < len(report.equality_sets):
        hidden = len(report.equality_sets) - len(shown)
        print(f"  ... and {hidden} more (--verbose lists all)")
    if report.violations:
        print(f"bound violations: {len(report.violations)}")
        for s in report.violations:
            print(f"  {_fmt_set(s, report.p)}")
    side = "inside" if report.in_hypothesis else "outside"
    print(f"hypothesis ({report.hypothesis}): {side}")
    print(f"verdict {report.verdict}")


def run(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        records = args.format == "records"
        if args.command == "scan":
            instances, failures, verdict = _cmd_scan(args)
        else:
            handler = {"compute": _cmd_compute, "bound": _cmd_bound,
                       "verify": _cmd_verify, "decompose": _cmd_decompose}
            record, lines, verdict = handler[args.command](args)
            instances, failures = 1, 1 if verdict == "fail" else 0
            print(_json_line(record) if records else "\n".join(lines))
        if records:
            print(_json_line({"op": "summary", "instances": instances,
                              "failures": failures, "verdict": verdict}))
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except InvariantViolationError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except ResourceCapError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_CAP
    except BrokenProcessPool as exc:
        print(f"error: a worker process died: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    return EXIT_OK if verdict == "pass" else EXIT_VERIFICATION


def main() -> None:
    sys.exit(run(sys.argv[1:]))
