"""Command-line front end.

Subcommands mirror the library: compute, bound, verify (direct,
factorization, complement, inclusions), decompose, scan (extremal,
inverse-eh).  Output is plain text by default; ``--format records``
emits one JSON object per line, one per checked instance, closing with
a summary line, so a scan can be piped into other tooling and re-run
from its own records.

Exit codes: 0 success, 1 bad parameters or unparsable input, 2 a
verification that was supposed to hold failed, 3 a scan refused by the
resource cap.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
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
from .scan import (
    DEFAULT_CAP,
    parse_manifest,
    scan_extremal_integers,
    scan_inverse_eh_mod_p,
)
from .verify import (
    check_complement_identity,
    check_direct_bound,
    check_inclusions_and_witnesses,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_VERIFICATION = 2
EXIT_CAP = 3


class _ParseError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2; this CLI reserves 2
    for verification failures, so usage errors surface as exceptions
    and run() turns them into exit code 1."""

    def error(self, message):
        raise _ParseError(message)


def _json_line(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class _Output:
    """Collects instance records; prints them only in records mode."""

    def __init__(self, records: bool, verbose: bool = False):
        self.records = records
        self.verbose = verbose
        self.instances = 0
        self.failures = 0

    def instance(self, record: dict, failed: bool = False) -> None:
        self.instances += 1
        if failed:
            self.failures += 1
        if self.records:
            print(_json_line(record))

    def text(self, line: str = "") -> None:
        if not self.records:
            print(line)

    def summary(self, verdict: str) -> None:
        if self.records:
            print(
                _json_line(
                    {
                        "op": "summary",
                        "instances": self.instances,
                        "failures": self.failures,
                        "verdict": verdict,
                    }
                )
            )


def _fmt_set(values, modulus=None) -> str:
    body = "{" + ",".join(str(v) for v in values) + "}"
    return f"{body} mod {modulus}" if modulus else body


def build_parser() -> _Parser:
    parser = _Parser(prog="sumsetlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_set=True, with_hr=True, with_p=True):
        if with_set:
            p.add_argument("--set", dest="set_literal", help='e.g. "0,1,3,7 mod 11"')
        if with_hr:
            p.add_argument("--h", type=int, required=True)
            p.add_argument("--r", type=int, required=True)
        if with_p:
            p.add_argument("--p", type=int, help="modulus (alternative to 'mod p')")
        p.add_argument("--format", choices=("plain", "records"), default="plain")
        p.add_argument(
            "--verbose",
            action="store_true",
            help="plain mode: list every equality set and full check details",
        )

    c = sub.add_parser("compute", help="compute h^(r)A")
    add_common(c)

    b = sub.add_parser("bound", help="closed-form lower bound for |h^(r)A|")
    add_common(b, with_set=True)
    b.add_argument("--k", type=int, help="set size (alternative to --set)")

    v = sub.add_parser("verify", help="check bounds and identities")
    vsub = v.add_subparsers(dest="subcommand", required=True)
    for name, blurb in (
        ("direct", "computed cardinality against the closed-form bound"),
        ("factorization", "h^(r)A against the r-fold sumset of m^A (needs r | h)"),
        ("complement", "|h^(r)A| against |(rk-h)^(r)A|"),
        ("inclusions", "split inclusion, case bundles, witness chains"),
    ):
        vp = vsub.add_parser(name, help=blurb)
        add_common(vp)

    d = sub.add_parser("decompose", help="greedy rewrite into r parts of m distinct elements")
    add_common(d, with_hr=False)
    d.add_argument("--counts", required=True, help='multiplicities, e.g. "2,1,1"')
    d.add_argument("--r", type=int, required=True, help="per-element cap")

    s = sub.add_parser("scan", help="exhaustive equality-set scans")
    ssub = s.add_subparsers(dest="subcommand", required=True)

    se = ssub.add_parser("extremal", help="normalized integer sets up to a diameter")
    se.add_argument("--k", type=int)
    se.add_argument("--h", type=int)
    se.add_argument("--r", type=int)
    se.add_argument("--max-diameter", dest="max_diameter", type=int)

    si = ssub.add_parser("inverse-eh", help="k-subsets of Z/pZ, distinct-sum equality sets")
    si.add_argument("--p", type=int)
    si.add_argument("--k", type=int)
    si.add_argument("--h", type=int)

    for sp in (se, si):
        sp.add_argument("--manifest", help="grid manifest file")
        sp.add_argument("--cap", type=int, default=DEFAULT_CAP)
        sp.add_argument(
            "--jobs",
            type=int,
            default=None,
            help="worker processes (default: all available cores)",
        )
        # of the common arguments, scans take only --format and --verbose
        add_common(sp, with_set=False, with_hr=False, with_p=False)

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
    ground = parse_ground_set(literal)
    if args.p is not None and ground.modulus != args.p:
        raise DomainError(
            f"--p {args.p} conflicts with 'mod {ground.modulus}' in the set literal"
        )
    return ground


def _cmd_compute(args: argparse.Namespace, out: _Output) -> int:
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
    out.instance(record)
    out.text(_fmt_set(result.values, ground.modulus))
    out.text(f"cardinality {result.cardinality}")
    if ground.modulus is None:
        out.text(f"min {result.min} max {result.max}")
    out.summary("pass")
    return EXIT_OK


def _cmd_bound(args: argparse.Namespace, out: _Output) -> int:
    p = args.p
    if args.set_literal:
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
    out.instance(
        {"op": "bound", "k": k, "h": params.h, "r": params.r, "p": p, "bound": value}
    )
    out.text(str(value))
    out.summary("pass")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace, out: _Output) -> int:
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
            if item.detail and (out.verbose or item.status == "fail"):
                line += f" ({item.detail})"
            lines.append(line)
    out.instance(report.to_record(), failed=report.verdict == "fail")
    for line in lines:
        out.text(line)
    out.text(f"verdict {report.verdict}")
    out.summary(report.verdict)
    return EXIT_OK if report.verdict == "pass" else EXIT_VERIFICATION


def _cmd_decompose(args: argparse.Namespace, out: _Output) -> int:
    ground = _resolve_ground(args)
    if not args.counts:
        raise DomainError("--counts is required for decompose")
    try:
        counts = tuple(int(t) for t in args.counts.split(",") if t.strip())
    except ValueError:
        raise DomainError(f"bad --counts {args.counts!r}") from None
    vector = MultiplicityVector(counts=counts, cap=args.r)
    result = greedy_decompose(ground, vector)
    out.instance(result.to_record())
    out.text(
        f"total {result.total_sum} from counts {vector.counts} cap {vector.cap}"
    )
    for step, part, value in zip(result.trace, result.parts, result.part_sums):
        values = tuple(ground.elements[i] for i in part)
        out.text(
            f"part {step.step}: indices {part} values {values} sum {value} "
            f"[active_before={step.active_before} max_after={step.max_after}]"
        )
    out.summary("pass")
    return EXIT_OK


def _cmd_scan(args: argparse.Namespace, out: _Output) -> int:
    # scan function (looked up when called), then the keys it requires
    # and the keys it takes if given; a manifest's other keys are ignored
    scan, required, optional = {
        "extremal": (scan_extremal_integers, ("k", "h", "r", "max_diameter"), ()),
        "inverse-eh": (scan_inverse_eh_mod_p, ("p", "k"), ("h",)),
    }[args.subcommand]
    flags = {key: getattr(args, key) for key in required + optional}
    flags = {key: v for key, v in flags.items() if v is not None}
    combos = [{}]
    if args.manifest:
        with open(args.manifest, "r", encoding="utf-8") as fh:
            combos = parse_manifest(fh.read())
    # every manifest combination sets the same keys; flags fill the rest
    for key in flags:
        if key in combos[0]:
            raise DomainError(
                f"scan {args.subcommand}: {key} is set both by a flag and "
                f"by the manifest"
            )
    combos = [dict(combo, **flags) for combo in combos]
    on_instance = None
    if out.records:
        on_instance = lambda rec: out.instance(rec, failed=rec["slack"] < 0)
    code = EXIT_OK
    for combo in combos:
        for key in required:
            if key not in combo:
                raise DomainError(
                    f"scan {args.subcommand} needs {key} (flag or manifest)"
                )
        report = scan(
            **{key: combo[key] for key in required + optional if key in combo},
            cap=args.cap,
            jobs=args.jobs or _available_cores(),
            on_instance=on_instance,
        )
        if out.records:
            print(_json_line(report.to_record()))
        else:
            _print_scan_plain(report, out)
        if report.verdict == "fail":
            code = EXIT_VERIFICATION
    out.summary("pass" if code == EXIT_OK else "fail")
    return code


def _print_scan_plain(report, out: _Output) -> None:
    header = f"scan {report.kind} k={report.k} h={report.h} r={report.r}"
    if report.p is not None:
        header += f" p={report.p}"
    if report.max_diameter is not None:
        header += f" max_diameter={report.max_diameter}"
    out.text(header)
    out.text(
        f"candidates {report.candidates}  evaluated {report.evaluated}  "
        f"bound {report.bound}"
    )
    out.text(f"equality sets: {len(report.equality_sets)}")
    shown = report.equality_sets if out.verbose else report.equality_sets[:10]
    for s in shown:
        out.text(f"  {_fmt_set(s, report.p)}")
    if len(shown) < len(report.equality_sets):
        hidden = len(report.equality_sets) - len(shown)
        out.text(f"  ... and {hidden} more (--verbose lists all)")
    if report.violations:
        out.text(f"bound violations: {len(report.violations)}")
        for s in report.violations:
            out.text(f"  {_fmt_set(s, report.p)}")
    side = "inside" if report.in_hypothesis else "outside"
    out.text(f"hypothesis ({report.hypothesis}): {side}")
    out.text(f"verdict {report.verdict}")


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    out = _Output(records=args.format == "records", verbose=args.verbose)
    handlers = {
        "compute": _cmd_compute,
        "bound": _cmd_bound,
        "verify": _cmd_verify,
        "decompose": _cmd_decompose,
        "scan": _cmd_scan,
    }
    try:
        return handlers[args.command](args, out)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except InvariantViolationError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except ResourceCapError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_CAP
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def main() -> None:
    sys.exit(run(sys.argv[1:]))
