"""CLI behaviour: output, exit codes, records mode, round trips."""

import hashlib
import json

import pytest

from sumsetlab import (
    BoundReport,
    GroundSet,
    ScanReport,
    SetLiteralWarning,
)
from sumsetlab.cli import CliConfig, run


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def records_of(out):
    return [json.loads(line) for line in out.strip().splitlines()]


# ===================== happy paths =====================


def test_compute_plain(capsys):
    code, out, _ = run_cli(capsys, "compute", "--set", "0,1,2", "--h", "3", "--r", "2")
    assert code == 0
    assert "{1,2,3,4,5}" in out
    assert "cardinality 5" in out
    assert "min 1 max 5" in out


def test_verify_direct_plain_session(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "direct", "--set", "0,1,2,3,4 mod 5", "--h", "3", "--r", "2"
    )
    assert code == 0
    assert "cardinality 5" in out
    assert "bound 5" in out
    assert "equality yes" in out
    assert "verdict pass" in out


def test_bound_with_k(capsys):
    code, out, _ = run_cli(capsys, "bound", "--k", "5", "--h", "3", "--r", "2")
    assert code == 0 and out.strip() == "11"


def test_bound_with_set_and_p_flag(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--set", "0,1,2,3,4", "--p", "5", "--h", "3", "--r", "2"
    )
    assert code == 0 and out.strip() == "5"


def test_verify_factorization(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "factorization", "--set", "0,1,3,7", "--h", "4", "--r", "2"
    )
    assert code == 0 and "equal yes" in out


def test_verify_complement(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "complement", "--set", "0,1,3,7", "--h", "5", "--r", "2"
    )
    assert code == 0 and "equal yes" in out and "h'=3" in out


def test_verify_inclusions(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "inclusions", "--set", "0,1,2,3,4", "--h", "3", "--r", "2"
    )
    assert code == 0
    assert "split-inclusion: pass\n" in out
    assert "block-inclusion-narrow: not-applicable\n" in out


def test_verify_inclusions_verbose_adds_detail(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "inclusions",
        "--set", "0,1,2,3,4", "--h", "3", "--r", "2", "--verbose",
    )
    assert code == 0
    assert "split-inclusion: pass (" in out


def test_decompose_plain(capsys):
    code, out, _ = run_cli(
        capsys, "decompose", "--set", "0,1,2", "--counts", "2,1,1", "--r", "2"
    )
    assert code == 0
    assert "part 1: indices (0, 1)" in out
    assert "sum 1" in out
    assert "active_before=3" in out


def test_scan_extremal_plain(capsys):
    code, out, _ = run_cli(
        capsys,
        "scan", "extremal",
        "--k", "4", "--h", "2", "--r", "2", "--max-diameter", "6",
    )
    assert code == 0
    assert "candidates 20" in out
    assert "verdict pass" in out


def test_scan_plain_truncates_long_equality_listing(capsys):
    # h = rk-1 collapses every 3-set to 3 sums, so all 11 normalized
    # candidates at diameter 6 are equality sets
    args = ("scan", "extremal", "--k", "3", "--h", "5", "--r", "2",
            "--max-diameter", "6")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert "equality sets: 11" in out
    assert sum(line.startswith("  {") for line in out.splitlines()) == 10
    assert "... and 1 more" in out

    code, out, _ = run_cli(capsys, *args, "--verbose")
    assert code == 0
    assert sum(line.startswith("  {") for line in out.splitlines()) == 11
    assert "more" not in out


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0 and "compute" in out


# ===================== records mode =====================


def test_compute_records_round_trip(capsys):
    args = ("compute", "--set", "2,0,1", "--h", "3", "--r", "2", "--format", "records")
    with pytest.warns(SetLiteralWarning):
        code1, out1, _ = run_cli(capsys, *args)
    assert code1 == 0
    first, summary = records_of(out1)
    assert first["op"] == "compute" and summary["op"] == "summary"
    assert first["values"] == [1, 2, 3, 4, 5]
    # rebuild the invocation from the emitted record: identical output
    literal = ",".join(str(v) for v in first["set"])
    rebuilt = [
        "compute", "--set", literal,
        "--h", str(first["h"]), "--r", str(first["r"]),
        "--format", "records",
    ]
    if first["p"] is not None:
        rebuilt += ["--p", str(first["p"])]
    code2, out2, _ = run_cli(capsys, *rebuilt)
    assert code2 == 0 and out2 == out1


def test_verify_direct_records_round_trip(capsys):
    args = (
        "verify", "direct",
        "--set", "0,1,3,7 mod 11", "--h", "3", "--r", "2",
        "--format", "records",
    )
    code1, out1, _ = run_cli(capsys, *args)
    assert code1 == 0
    record, summary = records_of(out1)
    assert record["kind"] == "direct" and summary["failures"] == 0
    literal = ",".join(str(v) for v in record["set"]) + f" mod {record['p']}"
    code2, out2, _ = run_cli(
        capsys,
        "verify", "direct",
        "--set", literal, "--h", str(record["h"]), "--r", str(record["r"]),
        "--format", "records",
    )
    assert code2 == 0 and out2 == out1


def test_scan_records_stream(capsys):
    code, out, _ = run_cli(
        capsys,
        "scan", "extremal",
        "--k", "3", "--h", "2", "--r", "2", "--max-diameter", "6",
        "--format", "records",
    )
    assert code == 0
    records = records_of(out)
    instances = [r for r in records if r["op"] == "scan"]
    summaries = [r for r in records if r["op"] == "scan-summary"]
    final = [r for r in records if r["op"] == "summary"]
    assert len(instances) == 11
    assert len(summaries) == 1 and summaries[0]["equality_sets"] == [[0, 1, 2]]
    assert len(final) == 1 and final[0]["instances"] == 11


# sha256 of stdout and the exit code, recorded before the integer and
# mod-p engines and the two scan drivers were each merged into one, so
# that those merges are checked to leave every byte of output unchanged.
SCAN_GOLDEN = {
    "scan extremal --k 5 --h 3 --r 2 --max-diameter 10": (
        0,
        "5246817c1b1436bba75aecb3c52ea67b4590209fe2f77404cc568d2706e7ccb5",
        "f2e223f29dd90936514d940d64edae330bedb39482fd00d9554fa730e32efcc4",
    ),
    "scan extremal --k 1 --h 2 --r 2 --max-diameter 3": (
        0,
        "9ec28a8d5cef15a09677e2d087c5b5d76c94500b16358c79960332932e8f5150",
        "5225f3ae363b2459bb1f56daf5aaa71bdb42aae81d55a04a2ca15ff36bd422ee",
    ),
    "scan extremal --k 2 --h 2 --r 2 --max-diameter 5": (
        0,
        "5eb3a9868447f874a8055a5036a781ab2c98817bc678919bf47aee9e49cdebcc",
        "3dd45235eb617212c9f1a30e3545096a5293c524157a8ee1c74341e157b314ed",
    ),
    "scan inverse-eh --p 11 --k 5": (
        0,
        "edb1bafd1b6c513ba6e1e46ab152f6e9159c196a3d49e228178a8d6f31abad9a",
        "4e4942e9272f80c5bfc605c80cc5d101c5cef0b0d55b4177f1ad16f1485005aa",
    ),
    "scan inverse-eh --p 11 --k 1 --h 1": (
        0,
        "7c12b2edf6e70be1bcc2aa1c1713f6088c960dc98305074f98ec0054b8f19d8f",
        "c3b5020ed3eb1abbaddacfcdd68871ae20763c26aad46e9b9c643e347cef5460",
    ),
    "scan inverse-eh --p 11 --k 2": (
        0,
        "03b49205c053b8d67a29068d644db01172413d4e17890dcdd39d651775e24414",
        "58161e867373058ad06b74e86694353cf1e06a54ed19dff81b30ffc2624e7628",
    ),
}


@pytest.mark.parametrize("command", sorted(SCAN_GOLDEN))
def test_scan_output_golden(capsys, command):
    """Plain output at --jobs 1 and records output at --jobs 1 and 2
    match digests taken before the engine and scan merges."""
    code, plain_digest, records_digest = SCAN_GOLDEN[command]
    runs = [("plain", "1", plain_digest)]
    runs += [("records", jobs, records_digest) for jobs in ("1", "2")]
    for fmt, jobs, digest in runs:
        got, out, _ = run_cli(capsys, *command.split(), "--format", fmt, "--jobs", jobs)
        assert got == code, (fmt, jobs)
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (fmt, jobs)


def test_decompose_records(capsys):
    code, out, _ = run_cli(
        capsys,
        "decompose", "--set", "0,1,2", "--counts", "2,1,1", "--r", "2",
        "--format", "records",
    )
    assert code == 0
    record, summary = records_of(out)
    assert record["parts"] == [[0, 1], [0, 2]]
    assert record["part_sums"] == [1, 2]
    assert record["trace"][0]["active_before"] == 3


def test_manifest_scan(capsys, tmp_path):
    manifest = tmp_path / "grid.txt"
    manifest.write_text("k = 3\nh = 2..3\nr = 2\nmax_diameter = 6\n")
    code, out, _ = run_cli(
        capsys, "scan", "extremal", "--manifest", str(manifest), "--format", "records"
    )
    assert code == 0
    summaries = [r for r in records_of(out) if r["op"] == "scan-summary"]
    assert [s["h"] for s in summaries] == [2, 3]


# ===================== exit codes =====================


def test_exit1_parse_error(capsys):
    code, _, err = run_cli(capsys, "compute", "--set", "0,1,2", "--h", "3")
    assert code == 1 and "--r" in err


def test_exit1_domain_error(capsys):
    code, _, err = run_cli(capsys, "compute", "--set", "0,1,2", "--h", "9", "--r", "2")
    assert code == 1 and "h <= r*k" in err


def test_exit1_bad_literal(capsys):
    code, _, err = run_cli(capsys, "compute", "--set", "0,x", "--h", "1", "--r", "1")
    assert code == 1 and "bad element" in err


def test_exit1_conflicting_moduli(capsys):
    code, _, err = run_cli(
        capsys, "compute", "--set", "0,1 mod 7", "--p", "11", "--h", "1", "--r", "1"
    )
    assert code == 1 and "conflicts" in err


def test_exit1_bound_needs_k_or_set(capsys):
    code, _, err = run_cli(capsys, "bound", "--h", "3", "--r", "2")
    assert code == 1 and "--set or --k" in err


def test_exit1_scan_missing_key(capsys):
    code, _, err = run_cli(capsys, "scan", "extremal", "--k", "4", "--h", "2", "--r", "2")
    assert code == 1 and "max_diameter" in err


def test_exit1_missing_manifest_file(capsys):
    code, _, err = run_cli(capsys, "scan", "extremal", "--manifest", "/nonexistent/x")
    assert code == 1


def test_exit2_verify_failure(capsys, monkeypatch):
    import sumsetlab.cli as cli_mod

    def fake_check(ground, params):
        return BoundReport(ground=ground, params=params, cardinality=3, bound=7)

    monkeypatch.setattr(cli_mod, "check_direct_bound", fake_check)
    code, out, _ = run_cli(
        capsys, "verify", "direct", "--set", "0,1,2", "--h", "2", "--r", "1"
    )
    assert code == 2
    assert "verdict fail" in out


def test_exit2_scan_counterexample(capsys, monkeypatch):
    import sumsetlab.cli as cli_mod

    def fake_scan(**kwargs):
        return ScanReport(
            kind="extremal",
            k=5,
            h=3,
            r=2,
            p=None,
            max_diameter=12,
            bound=11,
            candidates=10,
            evaluated=10,
            equality_sets=((0, 1, 2, 3, 4), (0, 1, 2, 4, 8)),
            violations=(),
            non_ap_equality=((0, 1, 2, 4, 8),),
            in_hypothesis=True,
            hypothesis="test",
        )

    monkeypatch.setattr(cli_mod, "scan_extremal_integers", fake_scan)
    code, out, _ = run_cli(
        capsys,
        "scan", "extremal",
        "--k", "5", "--h", "3", "--r", "2", "--max-diameter", "12",
    )
    assert code == 2 and "verdict fail" in out


def test_exit3_cap(capsys):
    code, _, err = run_cli(
        capsys,
        "scan", "extremal",
        "--k", "5", "--h", "3", "--r", "2", "--max-diameter", "12",
        "--cap", "10",
    )
    assert code == 3 and "cap" in err


# ===================== config =====================


def test_cli_config_defaults():
    config = CliConfig(command="compute")
    assert config.format == "plain"
    assert config.jobs == 1
    assert config.cap == 10**8
    assert config.verbose is False


def test_jobs_defaults_to_available_parallelism():
    import os

    from sumsetlab.cli import _config_from, build_parser

    parser = build_parser()
    base = ["scan", "extremal", "--k", "3", "--h", "2", "--r", "2",
            "--max-diameter", "6"]
    assert _config_from(parser.parse_args(base)).jobs == (os.cpu_count() or 1)
    assert _config_from(parser.parse_args(base + ["--jobs", "3"])).jobs == 3


def test_ground_resolution_p_flag_applies():
    from sumsetlab.cli import _resolve_ground

    config = CliConfig(command="compute", set_literal="0,1,3", p=7)
    ground = _resolve_ground(config)
    assert ground == GroundSet.of([0, 1, 3], 7)
