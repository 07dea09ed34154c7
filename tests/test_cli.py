import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from mpmath import mp, mpf

from padwhit import cli
from padwhit.cli import main
from padwhit.engine import scan_partner
from padwhit.representations import dump_oracle, standard_family
from padwhit.verify import synthetic_oracle

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_value_identity_coset(capsys):
    code, out, _ = run_cli(
        capsys, "value", "--p", "3", "--ps", "3^1:3@0/1,3^0:0@0/1",
        "--t", "-2", "--k", "1", "--v", "1",
    )
    assert code == 0
    want = -mp.expjpi(mpf(-2) / 3)
    line = [l for l in out.splitlines() if l.startswith("value:")][0]
    got = mp.mpmathify(line.split("value:")[1].strip())
    assert abs(got - want) < mpf("1e-12")
    # the identity coset sits at k = n > n/2, so the reduction is used
    assert "atkin_lehner_reduction: yes" in out


def test_value_reduction_flag(capsys):
    code, out, _ = run_cli(
        capsys, "value", "--ps", "3^2:1@0/1,3^0:0@0/1",
        "--t", "-3", "--k", "1", "--v", "1",
    )
    assert code == 0
    assert "atkin_lehner_reduction: no" in out
    code, out, _ = run_cli(
        capsys, "value", "--ps", "3^2:1@0/1,3^0:0@0/1",
        "--t", "-4", "--k", "2", "--v", "1",
    )
    assert code == 0
    assert "atkin_lehner_reduction: yes" in out


def test_value_domain_errors(capsys):
    code, _, err = run_cli(
        capsys, "value", "--ps", "3^2:1@0/1,3^0:0@0/1", "--t", "0", "--k", "7",
    )
    assert code == 2 and "domain" in err
    code, _, err = run_cli(capsys, "value", "--sc", "2,3^0:0@0/1", "--t", "0", "--k", "0")
    assert code == 2 and "oracle" in err
    code, _, err = run_cli(
        capsys, "value", "--ps", "3^2@bad", "--t", "0", "--k", "0",
    )
    assert code == 2


def test_value_supercuspidal_oracle(tmp_path, capsys):
    oracle = synthetic_oracle(3, 2, seed=3)
    path = tmp_path / "oracle.json"
    path.write_text(json.dumps(dump_oracle(oracle)))
    code, out, _ = run_cli(
        capsys, "value", "--sc", "2,3^0:0@0/1", "--oracle", str(path),
        "--t", "-2", "--k", "0",
    )
    assert code == 0
    assert "modulus: 1.0" in out


def test_scan_csv_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        code, _, _ = run_cli(
            capsys, "scan", "--p", "3", "--nmax", "2", "--family", "ps",
            "--out", str(out),
        )
        assert code == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    header = b1.decode().splitlines()[0]
    assert header.startswith("p,n,m,type,spec,h,witness_t")
    assert header.split(",")[-1] == "wall_time"


def test_scan_empty_family_header_only(tmp_path, capsys):
    out = tmp_path / "empty.csv"
    code, _, _ = run_cli(
        capsys, "scan", "--p", "3", "--nmax", "0", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1


def test_scan_rows_satisfy_sandwich(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code, _, _ = run_cli(
        capsys, "scan", "--p", "3", "--nmax", "2", "--out", str(out),
    )
    assert code == 0
    import csv

    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    for row in rows:
        assert row["certified"] == "true"
        assert mpf(row["ratio_lower"]) >= mpf(2) / 3 - mpf("1e-9")
        h = mpf(row["h"])
        assert h <= mp.sqrt(2) * mpf(row["upper_ref"]) + mpf("1e-9")


def test_scan_conjecture_regime_filter(tmp_path, capsys):
    out = tmp_path / "c.csv"
    code, _, _ = run_cli(
        capsys, "scan", "--p", "3", "--nmax", "2", "--conjecture-regime",
        "--out", str(out),
    )
    assert code == 0
    import csv

    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    for row in rows:
        n, m = int(row["n"]), int(row["m"])
        assert 2 * m <= n + 1


def test_scan_json_schema(tmp_path, capsys):
    out = tmp_path / "rows.json"
    code, _, _ = run_cli(
        capsys, "scan", "--p", "3", "--nmax", "1", "--format", "json",
        "--out", str(out),
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 1
    assert set(doc) == {"schema_version", "params", "rows", "checks"}
    assert doc["rows"][0]["spec"].startswith(("ps:", "st:"))


def test_scan_jobs_parallel_matches(tmp_path, capsys):
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    code, _, _ = run_cli(capsys, "scan", "--p", "3", "--nmax", "1",
                         "--out", str(out1))
    assert code == 0
    code, _, _ = run_cli(capsys, "scan", "--p", "3", "--nmax", "1",
                         "--jobs", "2", "--out", str(out2))
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_scan_jobs_two_exponent_characters(tmp_path, capsys):
    # p = 2 characters of level >= 3 carry two exponents ("2^3:1,1@0/1"),
    # so the workers must split "ps:CHAR,CHAR" at the second spec only.
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    code, _, _ = run_cli(capsys, "scan", "--p", "2", "--nmax", "3",
                         "--family", "ps", "--out", str(out1))
    assert code == 0
    assert "2^3:1,1@0/1" in out1.read_text()
    code, _, _ = run_cli(capsys, "scan", "--p", "2", "--nmax", "3",
                         "--family", "ps", "--jobs", "2", "--out", str(out2))
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_scan_jobs_shard_by_contragredient_pair(tmp_path, capsys):
    # A pair's members lie apart in spec order, so one descriptor per task
    # would split them; each task holds both, and the bytes are serial's.
    reps = sorted(standard_family(3, 3) + standard_family(5, 3), key=cli._sort_key)
    tasks = cli._scan_tasks(reps)
    assert sorted(i for task in tasks for i in task) == list(range(len(reps)))
    assert [task[0] for task in tasks] == sorted(task[0] for task in tasks)
    pairs = [task for task in tasks if len(task) == 2]
    assert all(scan_partner(reps[i]) == reps[j] for i, j in pairs)
    assert all(scan_partner(reps[task[0]]) is None for task in tasks if len(task) == 1)
    assert sum(j - i > 1 for i, j in pairs) > 10
    for fmt in ("csv", "json"):
        out1, out2 = tmp_path / f"s1.{fmt}", tmp_path / f"s2.{fmt}"
        for out, jobs in ((out1, "1"), (out2, "2")):
            code, _, _ = run_cli(capsys, "scan", "--p", "3,5", "--nmax", "3",
                                 "--format", fmt, "--jobs", jobs, "--out", str(out))
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()


def test_scan_streams_rows_and_leaves_no_partial_file(tmp_path, capsys, monkeypatch):
    # Rows reach the output as they are made; a failure part way leaves the
    # rows before it on standard output and no file at all at --out.
    real, made = cli._scan_row, []

    def third_fails(rep, timings, tolerance):
        if len(made) == 2:
            raise RuntimeError("planted failure")
        made.append(rep)
        return real(rep, timings, tolerance)

    monkeypatch.setattr(cli, "_scan_row", third_fails)
    code, out, err = run_cli(capsys, "scan", "--p", "3", "--nmax", "2")
    assert code == 1 and "planted failure" in err
    assert len(out.splitlines()) == 3  # the header and two rows
    made.clear()
    code, _, _ = run_cli(capsys, "scan", "--p", "3", "--nmax", "2", "--format",
                         "json", "--out", str(tmp_path / "rows.json"))
    assert code == 1 and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("nmax", ["0", "2"])
def test_streamed_rows_equal_the_rendered_document(capsys, monkeypatch, fmt, nmax):
    # The streamed bytes are those of rendering every row at once.
    rows = []
    real = cli._scan_row
    monkeypatch.setattr(cli, "_scan_row", lambda *args: rows.append(real(*args)) or rows[-1])
    code, out, _ = run_cli(capsys, "scan", "--p", "3", "--nmax", nmax, "--format", fmt)
    assert code == 0
    if fmt == "json":
        doc = {"schema_version": cli.SCHEMA_VERSION,
               "params": {"tool": "padwhit", "version": cli.__version__},
               "rows": rows, "checks": []}
        assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=cli.SCAN_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        assert out == buf.getvalue()


def test_scan_to_a_reader_that_stops_early_exits_quietly():
    # Rows streamed into a pipe whose reader leaves after one line, as
    # "| head -1" does: exit 0 and nothing on stderr.  The output (~480 KB)
    # outgrows the pipe buffer, so the writer meets the closed pipe.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "padwhit.cli", "scan", "--p", "2,3,5", "--nmax", "4",
         "--format", "json"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=path))
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0, err
    assert err == b""


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_scan_refuses_jobs_below_one(tmp_path, capsys, jobs):
    out = tmp_path / "s.csv"
    code, _, err = run_cli(capsys, "scan", "--p", "3", "--nmax", "1",
                           "--jobs", jobs, "--out", str(out))
    assert code == 2
    assert f"--jobs must be at least 1, got {jobs}" in err
    assert not out.exists()


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "-1", "-1e-9"])
def test_scan_refuses_invalid_tolerance(tmp_path, capsys, monkeypatch,
                                        tolerance):
    # Refused before any row: NaN and inf would switch the consistency
    # guard off, a negative value would fail every row.
    import padwhit.cli

    def refuse(*args, **kwargs):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(padwhit.cli, "sup_norm", refuse)
    out = tmp_path / "s.csv"
    code, _, err = run_cli(capsys, "scan", "--p", "3", "--nmax", "1",
                           f"--tolerance={tolerance}", "--out", str(out))
    assert code == 2
    assert "--tolerance must be finite and >= 0" in err
    assert not out.exists()


def test_precision_below_53_bits_is_a_usage_error(capsys):
    prec = mp.prec
    code, out, err = run_cli(
        capsys, "--precision-bits", "40", "value",
        "--ps", "3^1:1@0/1,3^0:0@0/1", "--t", "-2", "--k", "1",
    )
    assert code == 2
    assert "precision must be at least 53 bits, got 40" in err
    assert out == "" and "Traceback" not in err
    assert mp.prec == prec


def test_scan_default_bytes_golden(tmp_path, capsys):
    # tests/golden/scan_p235_n3.csv is the default output of
    # "padwhit scan --p 2,3,5 --nmax 3"; any change to it must be deliberate.
    out = tmp_path / "scan.csv"
    code, _, _ = run_cli(capsys, "scan", "--p", "2,3,5", "--nmax", "3",
                         "--out", str(out))
    assert code == 0
    assert out.read_bytes() == GOLDEN.joinpath("scan_p235_n3.csv").read_bytes()


def test_verify_manifest_golden(tmp_path, capsys):
    # tests/golden/verify_p23_a2_n3.json is the manifest of
    # "padwhit verify --suite all --p 2,3 --amax 2 --nmax 3"; any change to
    # it must be deliberate.  The epsilon canary on the same arguments fails.
    argv = ["verify", "--suite", "all", "--p", "2,3", "--amax", "2",
            "--nmax", "3"]
    out = tmp_path / "manifest.json"
    code, _, _ = run_cli(capsys, *argv, "--out", str(out))
    assert code == 0
    assert out.read_bytes() == \
        GOLDEN.joinpath("verify_p23_a2_n3.json").read_bytes()
    code, _, err = run_cli(capsys, *argv, "--perturb-eps", "1e-6",
                           "--out", str(out))
    assert code == 1
    # sup_norm's consistency error under the canary is a failed case that
    # names its descriptor, and the manifest is still written.
    assert "[FAIL] supnorm-sandwich" in err
    [sandwich] = [c for c in json.loads(out.read_text())["checks"]
                  if c["check_id"] == "supnorm-sandwich"]
    assert not sandwich["passed"]
    assert sandwich["worst_case"].startswith(("sup_norm ps:", "sup_norm st:"))
    assert "below 1; the solver is inconsistent" in sandwich["worst_case"]


@pytest.mark.parametrize("delta", ["nan", "inf", "-inf", "-1", "-2"])
def test_verify_refuses_an_unusable_canary(tmp_path, capsys, monkeypatch, delta):
    # Refused with a usage line before any check runs, and no manifest.
    import padwhit.cli

    def refuse(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(padwhit.cli, "run_suite", refuse)
    out = tmp_path / "report.json"
    code, _, err = run_cli(capsys, "verify", "--suite", "gl1", "--p", "3",
                           f"--perturb-eps={delta}", "--out", str(out))
    assert code == 2
    assert "usage error: --perturb-eps must be finite and > -1" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_verify_cli_pass_and_canary(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _, err = run_cli(
        capsys, "verify", "--suite", "gl1", "--p", "3", "--amax", "2",
        "--out", str(out),
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["checks"] and all(c["passed"] for c in doc["checks"])
    assert "[pass]" in err
    code, _, err = run_cli(
        capsys, "verify", "--suite", "gl1", "--p", "3", "--amax", "2",
        "--perturb-eps", "1e-6", "--out", str(out),
    )
    assert code == 1
    assert "[FAIL]" in err


def test_tmax_is_refused(capsys):
    # Columns are stored through a fixed window and read off their partial
    # fractions beyond it, so there is no table depth to choose.
    for argv in (
        ["value", "--ps", "3^1:1@0/1,3^0:0@0/1", "--t", "0", "--k", "0"],
        ["scan", "--p", "3", "--nmax", "1"],
        ["verify", "--suite", "gl1", "--p", "3", "--amax", "1"],
    ):
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--tmax", "5"]) == 2
        assert "--tmax" in capsys.readouterr().err


def test_usage_exit_code(capsys):
    assert main(["value", "--t", "0", "--k", "0"]) == 2  # no descriptor


@pytest.mark.parametrize("argv", [
    ("scan", "--p", "3", "--nmax", "-1"),
    ("scan", "--p", "3,3", "--nmax", "1"),
    ("scan", "--p", "5,2,5", "--nmax", "1"),
    ("scan", "--p", ",", "--nmax", "1"),
    ("verify", "--suite", "all", "--p", "3", "--amax", "2", "--nmax", "-1"),
    ("verify", "--amax", "-1"),
    ("verify", "--p", "2,2"),
], ids=["nmax-negative", "p-repeated", "p-repeated-apart", "p-empty",
        "verify-nmax-negative", "verify-amax-negative", "verify-p-repeated"])
def test_knobs_that_cannot_be_honoured_are_usage_errors(tmp_path, capsys,
                                                        monkeypatch, argv):
    # Refused with exit 2 before any descriptor is built or check run, and
    # nothing written.
    import padwhit.cli

    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(padwhit.cli, "run_suite", refuse)
    monkeypatch.setattr(padwhit.cli, "standard_family", refuse)
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
    assert code == 2
    assert "error:" in err and "Traceback" not in err
    assert not stdout and not out.exists()
