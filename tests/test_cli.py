import csv
import hashlib
import io
import json

import pytest

from higherfano import cli, schubert
from higherfano import families as fam
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


def test_census_ci_golden_csv(capsys):
    # digest of this census as recorded at the seed commit
    code, out = run_cli(capsys, "census", "CI", "--n-range", "2..22", "--max-c", "3", "--format", "csv")
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == "48b08d2e07bbafae317d28c5c93eabb621a43bfd4ca5b0107d9beec4c56947fc"


def test_compute_row_runs_each_path_once(monkeypatch):
    names = ("tangent_character", "chk_verdict", "threshold_oracle")
    calls = dict.fromkeys(names, 0)

    def counting(name):
        fn = getattr(fam, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(fam, name, counting(name))
    # (spec, k, characters built): the G2P verdict is a fact record with no ring
    for spec_text, k, characters in [("CI[9;3]", 2, 1), ("G[2,5]", 2, 1), ("CI[9;3]", 3, 1),
                                      ("PP[2,3]", 2, 1), ("G2P", 2, 0)]:
        calls.update(dict.fromkeys(names, 0))
        assert compute_row(spec_text, k)["agree"] is True, spec_text
        expected = {"tangent_character": characters, "chk_verdict": 1, "threshold_oracle": 1}
        assert calls == expected, (spec_text, k)


def test_empty_inputs_are_usage_errors(capsys):
    # a reversed range used to print only the CSV header with pass: true
    assert main(["census", "G", "--k-range", "4..2", "--n-range", "4..8", "--format", "csv"]) == 2
    assert "4 > 2" in capsys.readouterr().err
    assert main(["census", "OG", "--k-range", "2..3", "--n-range", "12..7"]) == 2
    # a negative --max-c used to act as no limit
    assert main(["census", "CI", "--n", "10", "--max-c", "-1"]) == 2
    assert "max codimension" in capsys.readouterr().err
    assert main(["verify", "prop11-ci", "--n-max", "6", "--max-c", "-1"]) == 2
    assert run_cli(capsys, "census", "CI", "--n", "10", "--max-c", "0")[0] == 0


def test_huge_grassmannian_is_refused_before_any_basis_is_built(capsys, monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("the basis guard must refuse G(10,40) before enumerating it")

    monkeypatch.setattr(schubert, "partitions_in_box", no_enumeration)
    assert main(["check", "G[10,40]"]) == 2
    assert "847660528" in capsys.readouterr().err
    with pytest.raises(ValueError):
        schubert.GrassmannianRing(10, 40)


def test_census_reaching_an_over_bound_spec_exits_2(capsys, monkeypatch):
    argv = ["census", "G", "--k-range", "2", "--n-range", "4..7", "--format", "csv"]
    # uncached rings, so rings built by earlier tests cannot hide the guard
    monkeypatch.setattr(fam, "_grass_ring", schubert.grassmannian_ring)
    assert run_cli(capsys, *argv)[0] == 0
    # C(7, 2) = 21 is the only basis above the lowered bound: the census
    # fails as a whole and never drops the G[2,7] row
    monkeypatch.setattr(schubert, "MAX_BASIS_LABELS", 20)
    code, out = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert run_cli(capsys, *argv[:5], "4..6", "--format", "csv")[0] == 0


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


def test_check_ci_not_covered_by_lines(capsys):
    for text in ("CI[4;2,2]", "CI[3;3]"):
        code, out = run_cli(capsys, "check", text)
        assert code == 0
        item = json.loads(out)["items"][0]
        got = (item["verdict"], item["oracle"], item["twist"], item["agree"])
        assert got == ("NEITHER", "NEITHER", "", True)
    assert main(["minimal-family", "CI[4;2,2]"]) == 2


def test_census_skips_specs_of_dimension_below_k(capsys):
    code, out = run_cli(capsys, "census", "G", "--k", "5", "--k-range", "2", "--n-range", "4..6")
    assert code == 0
    assert [item["params"] for item in json.loads(out)["items"]] == ["G[2,5]", "G[2,6]"]
    code, out = run_cli(capsys, "census", "CI", "--n-range", "2..12", "--max-c", "2", "--k", "4")
    assert code == 0
    items = json.loads(out)["items"]
    assert len(items) == 130
    assert all(fam.dim_x(fam.parse_spec(item["params"])) >= 4 for item in items)


def test_minimal_family_golden_json(capsys):
    # digest of this report as recorded before the rank-one pairs shared one constructor
    code, out = run_cli(capsys, "minimal-family", "CI[9;3]")
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == "0f33847220ab6feb00d801de944ca7daf8bd6d697cd26b3e06d42d1606f1a931"
