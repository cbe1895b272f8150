import csv
import hashlib
import io
import json

from higherfano import cli
from higherfano.cli import CSV_COLUMNS, compute_row, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_check_agreement_json(capsys):
    code, out = run_cli(capsys, "check", "G[2,5]", "--k", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    assert doc["catalog_version"] == "1"
    assert doc["pass"] is True
    item = doc["items"][0]
    assert item["verdict"] == "POSITIVE"
    assert item["oracle"] == "POSITIVE"
    assert item["twist"] == "AMPLE"
    assert item["ch_coeffs"] == "σ[1,1]:1/2;σ[2]:3/2"
    assert "0.5" not in out  # rationals never serialized as floats


def test_check_ci_k3(capsys):
    code, out = run_cli(capsys, "check", "CI[9;3]", "--k", "3")
    assert code == 0
    item = json.loads(out)["items"][0]
    assert item["verdict"] == "NEITHER"  # 27 > 10
    assert item["oracle"] == "NEITHER"
    assert item["twist"] == ""  # the twist test is a ch_2 statement


def test_check_g2p(capsys):
    code, out = run_cli(capsys, "check", "G2P", "--k", "2")
    assert code == 0
    assert json.loads(out)["items"][0]["verdict"] == "POSITIVE"


def test_parse_error_exit_code(capsys):
    assert main(["check", "NOPE[1]"]) == 2
    assert main(["check", "G[2,3]"]) == 2
    assert main(["check", "G2P", "--k", "3"]) == 2


def test_check_csv_columns(capsys):
    code, out = run_cli(capsys, "check", "OG[2,8]", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert tuple(rows[0]) == CSV_COLUMNS
    assert rows[1][rows[0].index("verdict")] == "POSITIVE"


def test_census_csv(capsys):
    code, out = run_cli(
        capsys, "census", "G", "--k-range", "2..3", "--n-range", "4..8", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    specs = [r[rows[0].index("params")] for r in rows[1:]]
    assert "G[2,4]" in specs and "G[3,6]" in specs and "G[3,5]" not in specs
    agree_col = rows[0].index("agree")
    assert all(r[agree_col] == "True" for r in rows[1:])


def test_census_ci(capsys):
    code, out = run_cli(capsys, "census", "CI", "--n", "10", "--max-c", "2", "--k", "2")
    assert code == 0
    doc = json.loads(out)
    for item in doc["items"]:
        degrees = item["params"].split(";")[1].rstrip("]")
        ds = [int(x) for x in degrees.split(",") if x]
        s = sum(d * d for d in ds)
        expected = "POSITIVE" if s <= 10 else ("NEF_ONLY" if s == 11 else "NEITHER")
        assert item["verdict"] == expected, item["params"]
    assert doc["pass"] is True


def test_census_jobs_match_serial(capsys):
    _, serial = run_cli(capsys, "census", "OG", "--k-range", "2..3", "--n-range", "7..12",
                        "--format", "csv")
    _, parallel = run_cli(capsys, "census", "OG", "--k-range", "2..3", "--n-range", "7..12",
                          "--format", "csv", "--jobs", "2")
    assert serial == parallel


def test_census_jobs_clamped_to_cores_and_rows(capsys, monkeypatch):
    workers = []

    class RecordingExecutor:
        """Stands in for ProcessPoolExecutor: records max_workers, starts no process."""

        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    argv = ("census", "OG", "--k-range", "2..3", "--n-range", "7..12", "--format", "csv")
    _, serial = run_cli(capsys, *argv)
    rows = serial.count("\n") - 1
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    assert run_cli(capsys, *argv, "--jobs", "1000000") == (0, serial)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    assert run_cli(capsys, *argv, "--jobs", "1000000") == (0, serial)
    assert workers == [rows, 3]
    # one core (or an unknown count) and a single row both run serially
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert run_cli(capsys, *argv, "--jobs", "8") == (0, serial)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    assert run_cli(capsys, "census", "OG", "--k-range", "2", "--n-range", "7", "--jobs", "8")[0] == 0
    assert workers == [rows, 3]


def test_census_grass_deep_golden_csv(capsys):
    # digest of this census as recorded at the seed commit
    code, out = run_cli(capsys, "census", "G", "--k", "10", "--k-range", "3..5", "--n-range", "9..15",
                        "--format", "csv")
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == "78617bfd3146783271a274e302febc78259f9fe476d214cafe834149a192b600"


def test_census_requires_ranges(capsys):
    assert main(["census", "G"]) == 2
    assert main(["census", "CI"]) == 2


def test_minimal_family(capsys):
    code, out = run_cli(capsys, "minimal-family", "SG[3,12]")
    assert code == 0
    item = json.loads(out)["items"][0]
    assert item["label"] == "P_P2(O2+O1^6)(OP1)"
    assert item["twist"] == "NEITHER"
    assert item["K"] == ["-9", "2"]


def test_verify_suites(capsys):
    assert run_cli(capsys, "verify", "todd-identity", "--k-max", "20")[0] == 0
    assert run_cli(capsys, "verify", "claim31", "--n-max", "5", "--k-max", "3")[0] == 0
    assert run_cli(capsys, "verify", "prop11-sym", "--n-max", "5", "--k-max", "3")[0] == 0
    assert run_cli(capsys, "verify", "prop11-ci", "--n-max", "8", "--k-max", "4")[0] == 0
    assert run_cli(capsys, "verify", "catalog")[0] == 0


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run_cli(capsys, "check", "G[2,5]", "--out", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text(encoding="utf-8"))
    assert doc["pass"] is True


def test_compute_row_product_kind():
    row = compute_row("PP[2,3]", 2)
    assert row["verdict"] == "NEF_ONLY"
    assert row["oracle"] == "" and row["twist"] == ""
    assert row["agree"] is True
