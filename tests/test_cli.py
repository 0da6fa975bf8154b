"""CLI behaviour: output, exit codes, records mode, round trips."""

import hashlib
import json
import os
import shlex
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import sumsetlab
from sumsetlab import (
    BoundReport,
    GroundSet,
    InvariantViolationError,
    ScanReport,
)
from sumsetlab.cli import build_parser, run


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
    code1, out1, err1 = run_cli(capsys, *args)
    assert code1 == 0
    assert err1 == "warning: set literal was unsorted or contained duplicates; canonicalized\n"
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


# sha256 of stdout and of stderr, and the exit code, of every other
# command: each subcommand in both formats, with an integer literal, a
# "mod p" literal and --p; every error exit; and --help at every level.
# Taken at the commit before the parsed-argument dataclass was removed
# and the wide and narrow witness verdicts were merged, so those changes
# are checked to leave every byte unchanged.  {grid} and {partial} name
# the manifests in CLI_MANIFESTS.  --help is rendered 80 columns wide;
# argparse's help layout can change between Python versions, and these
# digests were taken with Python 3.11.  Since then flags fill the keys a
# manifest leaves unset: the {partial} scans now print exactly what the
# same scan given by flags alone prints, and the {grid} --k entry pins
# the exit when a flag and the manifest set the same key.  Two refusals
# were added later, with digests of their error line: bound given both
# --set and --k, and a negative --jobs.  --verbose was then dropped from
# the six commands that never read it: their --help pages lost its line,
# and the two verify direct --verbose entries now exit 1 on
# "unrecognized arguments: --verbose".
CLI_MANIFESTS = {
    "grid": "k = 3\nh = 2..3\nr = 2\nmax_diameter = 5\np = 7\n",
    "partial": "k = 3\nh = 2\nr = 2\n",
}
CLI_GOLDEN = {
    'compute --set 0,1,3,7 --h 3 --r 2': (
        0,
        "169f0641c599dc8b8dec10bc14b35a089ee83072cf32cc0e459bffc18a53d88b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'compute --set 0,1,3,7 --h 3 --r 2 --format records': (
        0,
        "bbfb97d063d256026b951495b9a12db8e0e271416ddba34c0e6aa786bb5b7cb0",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'bound --set 0,1,3,7 --h 3 --r 2': (
        0,
        "aa67a169b0bba217aa0aa88a65346920c84c42447c36ba5f7ea65f422c1fe5d8",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'bound --set 0,1,3,7 --h 3 --r 2 --format records': (
        0,
        "d03621131142a61f7f7a1af80b783089fc7ecb242a34d510393c40857fe9f3d1",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'verify direct --set 0,1,3,7 --h 3 --r 2': (
        0,
        "abd2915556ea1fdfcd227e9282d67b511d8988ce90757ae7814a0011dff2e6d4",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'verify direct --set 0,1,3,7 --h 3 --r 2 --format records': (
        0,
        "4697847230d1a937c6bd30684a126ee019e9bf6682b542a744b9b10a9f163fd9",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'verify factorization --set 0,1,3,7 --h 4 --r 2': (
        0,
        "7fb4e871328376c3b573d06470031c1d040bf798ddd39369132b010926f7f1ed",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'verify factorization --set 0,1,3,7 --h 4 --r 2 --format records': (
        0,
        "2f82b7ab8d6200ec7739653c7ac7b53bb7f3da1562960f7fa91ed18a5872dcf0",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'verify complement --set 0,1,3,7 --h 5 --r 2': (
        0,
        "5d5e9586e30203ac37c485477a3339143728ff8fddd8d9785583c26a8eb40a9e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'verify complement --set 0,1,3,7 --h 5 --r 2 --format records': (
        0,
        "a547873769f13d6761e0bad8c25d2eb722bb77b568c9ea1bcfd6237599fca0c0",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'decompose --set 0,1,3,7 --counts 2,1,1,0 --r 2': (
        0,
        "6c1f346b02a99e61fb47d8eea102bc37c6e1de4d4055f924fdd2bb96e2710b25",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'decompose --set 0,1,3,7 --counts 2,1,1,0 --r 2 --format records': (
        0,
        "feb8ce2326ec1e1539e42123914069573855a106dbc8988311e5b3311f63bee6",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "compute --set '0,1,3,7 mod 11' --h 3 --r 2": (
        0,
        "c9b5b2416bc064a98c7bae821e33febaa278263354f873fc0f7af1bb012fdceb",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "compute --set '0,1,3,7 mod 11' --h 3 --r 2 --format records": (
        0,
        "56ffc93d5877f6f2072503394b0c60771b4eca857e9007f3d0697b869948335a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "bound --set '0,1,3,7 mod 11' --h 3 --r 2": (
        0,
        "aa67a169b0bba217aa0aa88a65346920c84c42447c36ba5f7ea65f422c1fe5d8",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "bound --set '0,1,3,7 mod 11' --h 3 --r 2 --format records": (
        0,
        "1c1a650766c98559c3b1f80aac9ebfb05ac7215763c0f9acc49346cebb4aa9ba",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "verify direct --set '0,1,3,7 mod 11' --h 3 --r 2": (
        0,
        "416a252b69b4480f6da3af40a6e5226766081d44135c4c8f0a4cea24b56d6598",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "verify direct --set '0,1,3,7 mod 11' --h 3 --r 2 --format records": (
        0,
        "68c3dc3ebe75251f44d945ac2a9844f83656468a92806513c8b3f60d37d43d70",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "verify factorization --set '0,1,3,7 mod 11' --h 4 --r 2": (
        0,
        "ec1f4e6f874aa1ada8fee5472c47e9449d750945b82334940fc748d86b47da00",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "verify factorization --set '0,1,3,7 mod 11' --h 4 --r 2 --format records": (
        0,
        "a1afd78d4a7834c5b2e8e333b3e0d8a7345856ea9b1b117ab66bec766e22f9c5",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "verify complement --set '0,1,3,7 mod 11' --h 5 --r 2": (
        0,
        "280b3b3130eea584e7349a71b7dd1aa6d7d258e94fdd6a36dc6674585ebee9c4",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "verify complement --set '0,1,3,7 mod 11' --h 5 --r 2 --format records": (
        0,
        "b9167f021726ad87ef68b69422393bcd1ffd4d2fa6af3448097cbeb5bfb1d26a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "decompose --set '0,1,3,7 mod 11' --counts 2,1,1,0 --r 2": (
        0,
        "6c1f346b02a99e61fb47d8eea102bc37c6e1de4d4055f924fdd2bb96e2710b25",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "decompose --set '0,1,3,7 mod 11' --counts 2,1,1,0 --r 2 --format records": (
        0,
        "06317f3155527f07ce9a2a7e35d63dd2ed48cc1d8eeecb75305e77ac18ecb09e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'compute --set 0,1,3,7 --p 11 --h 3 --r 2': (
        0,
        "c9b5b2416bc064a98c7bae821e33febaa278263354f873fc0f7af1bb012fdceb",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'compute --set 0,1,3,7 --p 11 --h 3 --r 2 --format records': (
        0,
        "56ffc93d5877f6f2072503394b0c60771b4eca857e9007f3d0697b869948335a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'bound --set 0,1,3,7 --p 11 --h 3 --r 2': (
        0,
        "aa67a169b0bba217aa0aa88a65346920c84c42447c36ba5f7ea65f422c1fe5d8",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'bound --set 0,1,3,7 --p 11 --h 3 --r 2 --format records': (
        0,
        "1c1a650766c98559c3b1f80aac9ebfb05ac7215763c0f9acc49346cebb4aa9ba",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'verify direct --set 0,1,3,7 --p 11 --h 3 --r 2': (
        0,
        "416a252b69b4480f6da3af40a6e5226766081d44135c4c8f0a4cea24b56d6598",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'verify direct --set 0,1,3,7 --p 11 --h 3 --r 2 --format records': (
        0,
        "68c3dc3ebe75251f44d945ac2a9844f83656468a92806513c8b3f60d37d43d70",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'verify factorization --set 0,1,3,7 --p 11 --h 4 --r 2': (
        0,
        "ec1f4e6f874aa1ada8fee5472c47e9449d750945b82334940fc748d86b47da00",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'verify factorization --set 0,1,3,7 --p 11 --h 4 --r 2 --format records': (
        0,
        "a1afd78d4a7834c5b2e8e333b3e0d8a7345856ea9b1b117ab66bec766e22f9c5",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'verify complement --set 0,1,3,7 --p 11 --h 5 --r 2': (
        0,
        "280b3b3130eea584e7349a71b7dd1aa6d7d258e94fdd6a36dc6674585ebee9c4",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'verify complement --set 0,1,3,7 --p 11 --h 5 --r 2 --format records': (
        0,
        "b9167f021726ad87ef68b69422393bcd1ffd4d2fa6af3448097cbeb5bfb1d26a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'decompose --set 0,1,3,7 --p 11 --counts 2,1,1,0 --r 2': (
        0,
        "6c1f346b02a99e61fb47d8eea102bc37c6e1de4d4055f924fdd2bb96e2710b25",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'decompose --set 0,1,3,7 --p 11 --counts 2,1,1,0 --r 2 --format records': (
        0,
        "06317f3155527f07ce9a2a7e35d63dd2ed48cc1d8eeecb75305e77ac18ecb09e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'bound --k 5 --h 3 --r 2': (
        0,
        "25d4f2a86deb5e2574bb3210b67bb24fcc4afb19f93a7b65a057daa874a9d18e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'bound --k 5 --h 3 --r 2 --format records': (
        0,
        "a10015b07ddb154b4c3b0c76bcb4790b42cd192c530756bb4804446be6e1838c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'bound --k 5 --p 11 --h 7 --r 2': (
        0,
        "25d4f2a86deb5e2574bb3210b67bb24fcc4afb19f93a7b65a057daa874a9d18e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'bound --k 5 --p 11 --h 7 --r 2 --format records': (
        0,
        "cd783a4b78a038d50b5e5c92e5e7609fbbf6daaa2f09ccf5c0917538f3317c34",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'verify direct --set 0,1,2,3,4 --h 3 --r 2 --verbose': (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e131b906ff3c49ddb09acfc8a51adf33ca1af508e11313b8367ad4a1f91659a8",
    ),
    'verify direct --set 0,1,2,3,4 --h 3 --r 2 --verbose --format records': (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e131b906ff3c49ddb09acfc8a51adf33ca1af508e11313b8367ad4a1f91659a8",
    ),
    'verify inclusions --set 0,1,2,4,9 --h 5 --r 3': (
        0,
        "aa9bd4fd4a1c1107fa7ce7f3cffc8a23ebc9acf53bdd6774cc0da9efbf2760f5",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'verify inclusions --set 0,1,2,4,9 --h 5 --r 3 --format records': (
        0,
        "8c57a92a134e29de33d2611eec2eaec0653406eb8f5f48d59ac9981786957393",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'verify inclusions --set 0,1,2 --h 14 --r 6': (
        0,
        "f4b827ecc472ad608659b75b11b4798f3dfd86005a489257263a7dc4901c8533",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'verify inclusions --set 0,1,2 --h 14 --r 6 --format records': (
        0,
        "36ec5662c99ba652f5a553c6f399274febf838615bad8c4cba52b77afbcd789d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'verify inclusions --set 0,1,3,7 --h 4 --r 2': (
        0,
        "264845c36fcca97e11e3dea59e59e6a0c71e8b3b951fcf367693cb0df9becb1f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'verify inclusions --set 0,1,3,7 --h 4 --r 2 --format records': (
        0,
        "5349a1d0b32961cf97867215a25b79e244e95ddcca05370c4abe58b11c8225dd",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'verify inclusions --set 0,1,2,4,9 --h 5 --r 3 --verbose': (
        0,
        "7ec284912a651b53ceef6dd11acf2ca01bf8633b85719ca8ca1680016abe8f33",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "verify inclusions --set '0,1,3 mod 11' --h 2 --r 2": (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "f7963c828c49f5a2d1b5dd65bc10b2f21e7a7887e05740502f181f11c91efe11",
    ),
    "verify inclusions --set '0,1,3 mod 11' --h 2 --r 2 --format records": (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "f7963c828c49f5a2d1b5dd65bc10b2f21e7a7887e05740502f181f11c91efe11",
    ),
    'verify inclusions --set 0,1,3 --p 11 --h 2 --r 2': (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "f7963c828c49f5a2d1b5dd65bc10b2f21e7a7887e05740502f181f11c91efe11",
    ),
    'verify inclusions --set 0,1,3 --p 11 --h 2 --r 2 --format records': (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "f7963c828c49f5a2d1b5dd65bc10b2f21e7a7887e05740502f181f11c91efe11",
    ),
    'scan extremal --manifest {grid}': (
        0,
        "9451e5aab11614f50277696ca12c6f0e85a4b7c63e5b55aeb4b36632c6210142",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'scan extremal --manifest {grid} --format records': (
        0,
        "087f34a3fc388689b86d9f00e2debf4ddf82013956e9bc03c0361f370f1b50fc",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'scan inverse-eh --manifest {grid}': (
        0,
        "61f9371f4836d5c047f978b39b947209e1e1a861dd89e061d6af2fdbe6ab4285",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'scan inverse-eh --manifest {grid} --format records': (
        0,
        "30904596f3fa8e57bc2d13653e2ada533690d4b817e8bf5cbc62b94b69535336",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'scan extremal --k 3 --h 2 --r 2 --max-diameter 6': (
        0,
        "aab6e2004a502fc829deb39842b7ef72cc4c82be15c8640c33c84cdbf9e8efbc",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'scan extremal --k 3 --h 2 --r 2 --max-diameter 6 --format records': (
        0,
        "c4b6e96d432498041f32a8243758f3200ed765840c5f11aed67564db2ff81536",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'compute --set 0,1,2 --h 3': (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "a4c9c8abc2957de5c6322c9122bc5f4ada8a21f58e9dbbb70b5463db7a0c07f8",
    ),
    'compute --set 0,1,2 --h 3 --format records': (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "a4c9c8abc2957de5c6322c9122bc5f4ada8a21f58e9dbbb70b5463db7a0c07f8",
    ),
    'compute --set 0,1,2 --h 9 --r 2': (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "66414e88d016fe6a34622b255b80259148bc2a89568fc24d8d5e91c60398d19c",
    ),
    'compute --set 0,1,2 --h 9 --r 2 --format records': (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "66414e88d016fe6a34622b255b80259148bc2a89568fc24d8d5e91c60398d19c",
    ),
    'compute --set 0,x --h 1 --r 1': (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "8540ff0b660a13972c5875e6e5922b6e001888c653bc495191953ac24dd3f806",
    ),
    'compute --set 0,x --h 1 --r 1 --format records': (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "8540ff0b660a13972c5875e6e5922b6e001888c653bc495191953ac24dd3f806",
    ),
    "compute --set '0,1 mod 7' --p 11 --h 1 --r 1": (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "13a3d34cb7095d122bd6c9e8486cf3bc3cd3ba031b98509d42bce93f67ccbc4c",
    ),
    "compute --set '0,1 mod 7' --p 11 --h 1 --r 1 --format records": (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "13a3d34cb7095d122bd6c9e8486cf3bc3cd3ba031b98509d42bce93f67ccbc4c",
    ),
    'compute --h 1 --r 1': (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "788e57bb7b6153afa3f1d63d8f110bd7521d5e531a093a9a8c94bcb685c30e23",
    ),
    'compute --h 1 --r 1 --format records': (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "788e57bb7b6153afa3f1d63d8f110bd7521d5e531a093a9a8c94bcb685c30e23",
    ),
    'bound --h 3 --r 2': (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "1446ac3041d976c5414ec96e20c4e7febb25f163590c4b8c877df214a0e5e1ea",
    ),
    'bound --h 3 --r 2 --format records': (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "1446ac3041d976c5414ec96e20c4e7febb25f163590c4b8c877df214a0e5e1ea",
    ),
    'decompose --set 0,1,2 --counts 2,x --r 2': (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "996e032b6f298db22b659e83c48dff85e761c95e07b3041666031d35e4a17305",
    ),
    'decompose --set 0,1,2 --counts 2,x --r 2 --format records': (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "996e032b6f298db22b659e83c48dff85e761c95e07b3041666031d35e4a17305",
    ),
    'decompose --set 0,1,2 --counts 2,1,1': (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "a4c9c8abc2957de5c6322c9122bc5f4ada8a21f58e9dbbb70b5463db7a0c07f8",
    ),
    'decompose --set 0,1,2 --counts 2,1,1 --format records': (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "a4c9c8abc2957de5c6322c9122bc5f4ada8a21f58e9dbbb70b5463db7a0c07f8",
    ),
    'scan extremal --k 4 --h 2 --r 2': (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "65c69f3dc7ff43b87e6b49ed56b67676ecf42f2b59740c2253f289c9c9f31e48",
    ),
    'scan extremal --k 4 --h 2 --r 2 --format records': (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "65c69f3dc7ff43b87e6b49ed56b67676ecf42f2b59740c2253f289c9c9f31e48",
    ),
    'scan inverse-eh --k 3': (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "bfb89d4a411daa83c507f1bb2b5a3190c8d8447893206d937623da983fb0205b",
    ),
    'scan inverse-eh --k 3 --format records': (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "bfb89d4a411daa83c507f1bb2b5a3190c8d8447893206d937623da983fb0205b",
    ),
    'scan extremal --manifest {partial} --max-diameter 6': (
        0,
        "aab6e2004a502fc829deb39842b7ef72cc4c82be15c8640c33c84cdbf9e8efbc",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'scan extremal --manifest {partial} --max-diameter 6 --format records': (
        0,
        "c4b6e96d432498041f32a8243758f3200ed765840c5f11aed67564db2ff81536",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'scan extremal --manifest {grid} --k 4': (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "bb92ee6ad7a3b275b213a33d4bb79bffe3b1a8dfe90ac9d6635f3bff3e6fc06a",
    ),
    'scan extremal --manifest /nonexistent/grid.txt': (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "28cad84dc97e2d1e7e834dd47e398a5e9117f481ebae1499117f85fae7f8ef36",
    ),
    'scan extremal --manifest /nonexistent/grid.txt --format records': (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "28cad84dc97e2d1e7e834dd47e398a5e9117f481ebae1499117f85fae7f8ef36",
    ),
    'scan extremal --k 5 --h 3 --r 2 --max-diameter 12 --cap 10': (
        3,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "d0161b3631af9459410b0cd89ae7dd796321f836a92f2dd9f77886fe3685986d",
    ),
    'scan extremal --k 5 --h 3 --r 2 --max-diameter 12 --cap 10 --format records': (
        3,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "d0161b3631af9459410b0cd89ae7dd796321f836a92f2dd9f77886fe3685986d",
    ),
    'compute --set 0,1 --p 4 --h 1 --r 1': (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "4d4fd9951f7cea0842cd4b470394180f8443950281789ff4c6a6950fc818f91a",
    ),
    'compute --set 0,1 --p 4 --h 1 --r 1 --format records': (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "4d4fd9951f7cea0842cd4b470394180f8443950281789ff4c6a6950fc818f91a",
    ),
    'bound --k 3 --p 4 --h 2 --r 2': (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "ac79384998d61f2f6c68f7e1746a420cce675fa34b8352fa4cbb09f5b88d55b5",
    ),
    'bound --k 3 --p 4 --h 2 --r 2 --format records': (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "ac79384998d61f2f6c68f7e1746a420cce675fa34b8352fa4cbb09f5b88d55b5",
    ),
    'scan inverse-eh --p 9 --k 3': (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "376674fe2816acb5a67c01f0c55d51942935c9bcaa25274cd4d6fee2a274a6d3",
    ),
    'scan inverse-eh --p 9 --k 3 --format records': (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "376674fe2816acb5a67c01f0c55d51942935c9bcaa25274cd4d6fee2a274a6d3",
    ),
    'bound --set 0,1 --k 5 --h 2 --r 1': (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "038f42494fa1da0d58fbd44073e4fcd7a4b43bfe77baf1572bd7b584dfc84b4b",
    ),
    'bound --set 0,1 --k 5 --h 2 --r 1 --format records': (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "038f42494fa1da0d58fbd44073e4fcd7a4b43bfe77baf1572bd7b584dfc84b4b",
    ),
    'scan extremal --k 3 --h 2 --r 2 --max-diameter 6 --jobs -3': (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "bf8bf70a02e5dca73d5ec33480671274af7d386afd62489278c3caa7aea4a643",
    ),
    'verify bogus --set 0,1 --h 1 --r 1': (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "25ef2bb134f987c438ef7258feb6f69ee76050c8f596f1ea7cd800527dc61efb",
    ),
    'compute --set 0,1 --h 1 --r 1 --format bogus': (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "da7c4c9607f950327b6d1961d231098670a85586e049e3a228a2f3ff98d9843e",
    ),
    '': (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "398a71844e12cf1130e8120e26594978f8c8e18f9dc1ee972324c143698a7cad",
    ),
    '--help': (
        0,
        "c2934fa8a601734aa3cb3d3e5f1b5a859f2bef09f6b5eff8623f924d5fb231b7",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'compute --help': (
        0,
        "a05577f0706fd52a6b156cedd0234a601e7c7ed63f8fb8a11569395fd5136c8d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'bound --help': (
        0,
        "4b2ace64219521f02aa11e85796e6c4b92ca662e8b9361f9c7231d2785c8214e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'verify --help': (
        0,
        "7ae583b9019d8ce145821aed415096243cfb9d5b1747145669fa36f3c37a38d8",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'verify direct --help': (
        0,
        "0691b87ca9dcac894360be9e9555be8fb3a99d9e10430adcb6c856199a1c6e6e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'verify factorization --help': (
        0,
        "3a16bcfee8ece83a8e593751673f5ea218415e71d16fd79942c6703213c80674",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'verify complement --help': (
        0,
        "f1dce1e9aec0f746ab0a9b43ec0acf26829517c661a6fa9ab0fba6dd7b4e26c9",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'verify inclusions --help': (
        0,
        "014b80ab21bcfc5dbaa8ec71174fe7cf6c70b460ae812055a29b3e13995d95d8",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'decompose --help': (
        0,
        "4370c12527390a0629c75a162bb6626978c5ec87db3671b4c9f2978e13203546",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'scan --help': (
        0,
        "f291da17269f2842d51f9cb6632690b1aa090f5dacfc80f575da2d7fbd75b9bd",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'scan extremal --help': (
        0,
        "e4545616728c430a8fa7aae6ba541585ec6abb09ed7f55fd5b10e7c5a229b9b8",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    'scan inverse-eh --help': (
        0,
        "1e64b0ccbee3b8780b13ea17fa1ad4865f846c6d385168a8eb0ee1c41c1965b2",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
}


@pytest.mark.parametrize(
    "command", sorted(CLI_GOLDEN), ids=lambda c: c or "no-arguments"
)
def test_cli_output_golden(capsys, monkeypatch, tmp_path, command):
    """Stdout, stderr and exit code match digests taken before the
    argument-dataclass removal and the witness-verdict merge."""
    monkeypatch.setenv("COLUMNS", "80")
    paths = {}
    for name, text in CLI_MANIFESTS.items():
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(text)
    argv = [arg.format(**paths) for arg in shlex.split(command)]
    code, out, err = run_cli(capsys, *argv)
    assert code == CLI_GOLDEN[command][0]
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_GOLDEN[command][1]
    assert hashlib.sha256(err.encode()).hexdigest() == CLI_GOLDEN[command][2]


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


def test_manifest_product_order(capsys, tmp_path):
    """A manifest's grid runs as a product in key order k, h, r,
    max_diameter, p (the last key varies fastest), whatever the order of
    its lines, in both formats."""
    manifest = tmp_path / "grid.txt"
    manifest.write_text("p = 11, 13\nk = 5\nh = 2..3\n")
    argv = ["scan", "inverse-eh", "--manifest", str(manifest), "--jobs", "1"]
    order = [(2, 11), (2, 13), (3, 11), (3, 13)]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    headers = [line for line in out.splitlines() if line.startswith("scan ")]
    assert headers == [f"scan inverse-eh k=5 h={h} r=1 p={p}" for h, p in order]
    code, out, _ = run_cli(capsys, *argv, "--format", "records")
    assert code == 0
    summaries = [r for r in records_of(out) if r["op"] == "scan-summary"]
    assert [(s["h"], s["p"]) for s in summaries] == order


@pytest.mark.parametrize("scan, manifest, grid", [
    ("extremal", "k = 3\nh = 2..3\nr = 2\nmax_diameter = 5\np = 5,7\n",
     [(3, 2, 2), (3, 3, 2)]),
    ("inverse-eh", "k = 3\nh = 2\nr = 2,3\nmax_diameter = 4,5\np = 7\n",
     [(3, 2, 1)]),
], ids=["extremal", "inverse-eh"])
def test_manifest_keys_a_scan_does_not_take_repeat_no_scan(
    capsys, tmp_path, scan, manifest, grid
):
    path = tmp_path / "grid.txt"
    path.write_text(manifest)
    argv = ["scan", scan, "--manifest", str(path), "--jobs", "1"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    headers = [line for line in out.splitlines() if line.startswith("scan ")]
    assert len(headers) == len(grid)
    code, out, _ = run_cli(capsys, *argv, "--format", "records")
    assert code == 0
    records = records_of(out)
    summaries = [r for r in records if r["op"] == "scan-summary"]
    assert [(s["k"], s["h"], s["r"]) for s in summaries] == grid
    assert records[-1]["instances"] == sum(r["op"] == "scan" for r in records)


# ===================== exit codes =====================


VERBOSE_COMMANDS = {
    "compute": ["compute", "--set", "0,1,3", "--h", "2", "--r", "1"],
    "bound": ["bound", "--k", "3", "--h", "2", "--r", "1"],
    "verify direct": ["verify", "direct", "--set", "0,1,3", "--h", "2", "--r", "1"],
    "verify factorization": [
        "verify", "factorization", "--set", "0,1,3", "--h", "2", "--r", "1",
    ],
    "verify complement": [
        "verify", "complement", "--set", "0,1,3", "--h", "2", "--r", "1",
    ],
    "decompose": ["decompose", "--set", "0,1,2", "--counts", "2,1,1", "--r", "2"],
    "verify inclusions": [
        "verify", "inclusions", "--set", "0,1,3", "--h", "2", "--r", "1",
    ],
    "scan extremal": [
        "scan", "extremal", "--k", "3", "--h", "2", "--r", "2",
        "--max-diameter", "5", "--jobs", "1",
    ],
    "scan inverse-eh": ["scan", "inverse-eh", "--p", "7", "--k", "3", "--jobs", "1"],
}
READS_VERBOSE = {"verify inclusions", "scan extremal", "scan inverse-eh"}


def test_verbose_only_where_it_acts(capsys):
    for command, argv in VERBOSE_COMMANDS.items():
        code, out, err = run_cli(capsys, *argv, "--verbose")
        if command in READS_VERBOSE:
            assert (code, err) == (0, ""), command
        else:
            assert (code, out) == (1, ""), command
            assert err == "error: unrecognized arguments: --verbose\n", command


def test_exit1_decompose_empty_counts_one_message(capsys):
    errs = []
    for counts in ("", ","):
        code, out, err = run_cli(
            capsys, "decompose", "--set", "0,1,2", "--counts", counts, "--r", "2"
        )
        assert (code, out) == (1, "")
        errs.append(err)
    assert errs == ["error: counts must be nonempty\n"] * 2


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


def test_exit1_modulus_above_64_bits(capsys):
    """A strong pseudoprime to every base of the primality test, above
    2**64, is refused as a modulus like the composite 15."""
    pseudoprime = "318665857834031151167461"  # 399165290221 * 798330580441
    for p in ("15", pseudoprime):
        code, out, err = run_cli(capsys, "bound", "--k", "2", "--p", p,
                                 "--h", "1", "--r", "1")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
    code, out, _ = run_cli(capsys, "bound", "--k", "2", "--p", str(2**61 - 1),
                           "--h", "1", "--r", "1")
    assert (code, out) == (0, "2\n")


def test_exit1_bound_needs_k_at_least_1(capsys):
    code, out, err = run_cli(capsys, "bound", "--k", "0", "--h", "1", "--r", "1")
    assert (code, out, err) == (1, "", "error: k >= 1 required, got k=0\n")


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


def test_exit2_invariant_violated(capsys, monkeypatch):
    import sumsetlab.cli as cli_mod

    def broken(ground, vector):
        raise InvariantViolationError("planted")

    monkeypatch.setattr(cli_mod, "greedy_decompose", broken)
    code, out, err = run_cli(
        capsys, "decompose", "--set", "0,1,2", "--counts", "2,1,1", "--r", "2"
    )
    assert (code, out, err) == (2, "", "invariant violated: planted\n")


def test_exit3_cap(capsys):
    code, _, err = run_cli(
        capsys,
        "scan", "extremal",
        "--k", "5", "--h", "3", "--r", "2", "--max-diameter", "12",
        "--cap", "10",
    )
    assert code == 3 and "cap" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--set", "0,1 mod 2305843009213693951", "--h", "2", "--r", "1"],
        ["compute", "--set", "0,1152921504606846976", "--h", "2", "--r", "1"],
        ["scan", "inverse-eh", "--p", "2305843009213693951", "--k", "1", "--h", "1"],
    ],
)
def test_exit1_oversized_dp(capsys, argv):
    """A DP of more than 2**33 mask bits is refused with one error line."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: (h + 1) * mask width = ")
    assert err.endswith(" bits exceeds the 2**33-bit guard\n")
    assert err.count("\n") == 1


def test_exit130_interrupted(capsys, monkeypatch):
    import sumsetlab.cli as cli_mod

    def interrupted(**kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli_mod, "scan_extremal_integers", interrupted)
    code, out, err = run_cli(
        capsys,
        "scan", "extremal",
        "--k", "3", "--h", "2", "--r", "2", "--max-diameter", "6",
    )
    assert (code, out, err) == (130, "", "interrupted\n")


def test_exit1_worker_died(capsys, monkeypatch):
    from concurrent.futures.process import BrokenProcessPool

    import sumsetlab.scan as scan_mod

    class DyingPool:
        def __init__(self, max_workers, **kwargs):
            pass

        def submit(self, fn, *args):
            raise BrokenProcessPool("worker killed")

        def shutdown(self, **kwargs):
            pass

    monkeypatch.setattr(scan_mod, "ProcessPoolExecutor", DyingPool)
    code, out, err = run_cli(
        capsys,
        "scan", "extremal",
        "--k", "3", "--h", "2", "--r", "2", "--max-diameter", "6", "--jobs", "2",
    )
    assert (code, out) == (1, "")
    assert err == "error: a worker process died: worker killed\n"


# Two-worker scans that run for far longer than these tests wait: one of
# long chunks (its first takes tens of seconds), one of 597 short ones.
LONG_CHUNKS = ["scan", "extremal", "--k", "7", "--h", "3", "--r", "2",
               "--max-diameter", "60", "--jobs", "2", "--cap", "10000000000"]
SHORT_CHUNKS = ["scan", "extremal", "--k", "4", "--h", "3", "--r", "2",
                "--max-diameter", "600", "--jobs", "2"]


def _start_scan(argv):
    """Start a scan as a child process leading its own process group,
    and wait until its two workers have run for half a second.
    Returns the process and its workers' pids, or None for the pids where
    the platform does not list child processes."""
    src = str(Path(sumsetlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "sumsetlab", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, start_new_session=True,
    )
    children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
    workers = []
    for _ in range(100):
        time.sleep(0.1)
        try:
            workers = children.read_text().split()
        except OSError:
            workers = None
            time.sleep(1.0)
            break
        if len(workers) == 2:
            break
    time.sleep(0.5)
    return proc, workers


def _finish(proc):
    """Wait for the child; returns (exit code, stderr, seconds waited)."""
    start = time.monotonic()
    try:
        _, err = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    return proc.returncode, err, time.monotonic() - start


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs os.killpg")
def test_exit130_sigint_to_a_parallel_scan():
    """Ctrl-C (SIGINT to the process group) ends a --jobs 2 scan at once:
    the workers die, the pool breaks and the CLI exits 130."""
    proc, _ = _start_scan(LONG_CHUNKS)
    os.killpg(proc.pid, signal.SIGINT)
    code, err, waited = _finish(proc)
    assert (code, err) == (130, "interrupted\n")
    assert waited < 2


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs os.killpg")
def test_exit130_sigint_to_the_main_process_only():
    """SIGINT to the main process alone leaves the workers running; the
    scan still ends once its started chunks finish, dropping the rest."""
    proc, _ = _start_scan(SHORT_CHUNKS)
    os.kill(proc.pid, signal.SIGINT)
    code, err, waited = _finish(proc)
    assert (code, err) == (130, "interrupted\n")
    assert waited < 15


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs os.killpg")
def test_exit1_real_worker_killed():
    """SIGKILL to one worker of a --jobs 2 scan exits 1 with one line."""
    proc, workers = _start_scan(LONG_CHUNKS)
    if workers is None or len(workers) != 2:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
    if workers is None:
        pytest.skip("child processes are not listed by this platform")
    assert len(workers) == 2
    os.kill(int(workers[0]), signal.SIGKILL)
    code, err, _ = _finish(proc)
    assert code == 1
    assert err.startswith("error: a worker process died: ")
    assert err.count("\n") == 1


def test_set_literal_warnings_are_one_line_each_under_w_error():
    """A canonicalized literal is reported as one stderr line per warning,
    and the command still succeeds when Python turns warnings into
    errors."""
    src = str(Path(sumsetlab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "sumsetlab",
         "compute", "--set", "2,0,13 mod 11", "--h", "2", "--r", "1"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (0, "{2} mod 11\ncardinality 1\n")
    assert proc.stderr == (
        "warning: set literal contained residues outside [0, p); reduced mod p\n"
        "warning: set literal was unsorted or contained duplicates; canonicalized\n"
    )


# ===================== config =====================


def test_cli_config_defaults():
    args = build_parser().parse_args(
        ["compute", "--set", "0,1", "--h", "1", "--r", "1"]
    )
    assert args.format == "plain"
    assert not hasattr(args, "verbose")
    args = build_parser().parse_args(
        ["scan", "extremal", "--k", "3", "--h", "2", "--r", "2"]
    )
    assert args.format == "plain"
    assert args.cap == 10**8
    assert args.verbose is False


def test_jobs_defaults_to_available_parallelism(monkeypatch):
    import os

    import sumsetlab.cli as cli_mod

    seen = []
    real_scan = cli_mod.scan_extremal_integers

    def spy(**kwargs):
        seen.append(kwargs["jobs"])
        return real_scan(**kwargs)

    monkeypatch.setattr(cli_mod, "scan_extremal_integers", spy)
    parser = build_parser()
    base = ["scan", "extremal", "--k", "3", "--h", "2", "--r", "2",
            "--max-diameter", "6"]
    for extra in ([], ["--jobs", "0"], ["--jobs", "3"]):
        _, _, verdict = cli_mod._cmd_scan(parser.parse_args(base + extra))
        assert verdict == "pass"
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    assert seen == [cores, cores, 3]


def test_ground_resolution_p_flag_applies():
    from sumsetlab.cli import _resolve_ground

    args = build_parser().parse_args(
        ["compute", "--set", "0,1,3", "--p", "7", "--h", "1", "--r", "1"]
    )
    ground = _resolve_ground(args)
    assert ground == GroundSet.of([0, 1, 3], 7)
