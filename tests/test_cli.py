import csv
import hashlib
import importlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import higherfano
import reference
from higherfano import cli, minimalfamily, schubert
from higherfano import families as fam
from higherfano.cli import CSV_COLUMNS, compute_row, main
from higherfano.rings import RingModel


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def argparse_error(capsys, argv) -> str:
    """The stderr of an argv that argparse refuses: exit 2 and nothing on stdout."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


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
    code, out = run_cli(capsys, "census", "CI", "--n-range", "10", "--max-c", "2", "--k", "2")
    assert code == 0
    doc = json.loads(out)
    for item in doc["items"]:
        degrees = item["params"].split(";")[1].rstrip("]")
        ds = [int(x) for x in degrees.split(",") if x]
        s = sum(d * d for d in ds)
        expected = "POSITIVE" if s <= 10 else ("NEF_ONLY" if s == 11 else "NEITHER")
        assert item["verdict"] == expected, item["params"]
    assert doc["pass"] is True
    # an unset --max-c reads 2 (the option is unset by default so other kinds can refuse it)
    assert run_cli(capsys, "census", "CI", "--n-range", "10", "--k", "2")[1] == out.replace("--max-c 2 ", "")


def test_import_leaves_out_the_process_pool():
    # a census runs its rows in this process, so nothing imports concurrent.futures or the
    # multiprocessing it pulls in
    code = "import sys, higherfano.cli; print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"


def test_import_loads_no_dataclasses_inspect_json_or_csv():
    # every CLI run pays for what the import loads: the records are tuples, and json
    # and csv are imported where a report is rendered.  Only the modules the import
    # adds are compared, so modules that the environment loads at start-up do not count
    code = (
        "import sys; before = set(sys.modules); import higherfano.cli; "
        "print(sorted({'dataclasses', 'inspect', 'json', 'csv'} & (set(sys.modules) - before)))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"


def test_a_traced_census_prints_what_a_plain_one_prints(tmp_path):
    # perfbench/tracer.py wraps the package's functions and methods and reads each
    # Grassmannian's basis; under it the census must still print its recorded digest
    root = Path(__file__).resolve().parents[1]
    workload = json.loads((root / "perfbench" / "workloads.json").read_text())["workloads"]["census-grass-deep"]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    run = subprocess.run([sys.executable, str(root / "perfbench" / "tracer.py"), str(tmp_path / "trace"),
                          *workload["argv"]], env=env, capture_output=True, check=True)
    assert hashlib.sha256(run.stdout).hexdigest() == workload["sha256"]


def imported_submodules(*args) -> set[str]:
    """The higherfano.* modules a fresh `python -X importtime ARGS` imports, read from its stderr."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, "-X", "importtime", *args], env=env, capture_output=True, text=True,
                         check=True)
    return set(re.findall(r"^import time:.*\|\s*(higherfano\.\w+)$", run.stderr, re.M))


# what a check or census row reads; `-m` runs cli itself as __main__, which is not an import
ROW_MODULES = {"families", "catalog", "schubert", "rings", "bundles", "numeric"}


@pytest.mark.parametrize("args, expected", [
    (("-c", "import higherfano"), set()),
    (("-c", "import higherfano.cli"), {"cli", *ROW_MODULES}),
    (("-m", "higherfano.cli", "--version"), ROW_MODULES),
    (("-m", "higherfano.cli", "census", "G", "--k-range", "2", "--n-range", "4..5"), ROW_MODULES),
    (("-m", "higherfano.cli", "verify", "claim31", "--n-max", "2", "--d-max", "1", "--k-max", "2"),
     {"minimalfamily", *ROW_MODULES}),
], ids=["package", "cli", "version", "census", "verify"])
def test_a_command_imports_only_the_modules_it_reads(args, expected):
    # the package imports a submodule when one of its names is first read, and the CLI
    # imports minimalfamily only in the verify suites that read it
    assert imported_submodules(*args) == {f"higherfano.{m}" for m in expected}


# the names `from higherfano import *` binds, by the submodule that defines each; it
# binds no submodule name
PACKAGE_NAMES = {
    "numeric": ("bernoulli", "power_sum", "todd_coeff"),
    "rings": ("GradedClass", "ProductRing", "ProjBundleRing", "ProjectiveSpaceRing", "RingModel"),
    "schubert": ("GrassmannianRing", "dual_pairing", "partition_label", "pieri"),
    "bundles": ("todd_line",),
    "minimalfamily": ("MinimalFamilyInput", "T_power", "ch_Hx", "ci_T_images", "ci_family_character_direct",
                      "model_ring", "push_pi", "verify_claim31", "verify_prop11_ci", "verify_prop11_symbolic"),
    "catalog": ("PolarizedPair", "catalog_entries", "catalog_to_json", "classify_pair", "positivity_of_twist",
                "twist_class"),
    "families": ("FamilySpec", "Verdict", "chk_verdict", "consistency_check", "minimal_pair", "parse_spec",
                 "product_nonexample", "threshold_oracle"),
}


def test_star_import_binds_the_package_names_from_their_submodules():
    namespace = {}
    exec("from higherfano import *", namespace)
    del namespace["__builtins__"]
    expected = {name: module for module, names in PACKAGE_NAMES.items() for name in names}
    assert len(expected) == 37 and namespace.keys() == expected.keys()
    for name, module in expected.items():
        assert namespace[name] is getattr(importlib.import_module(f"higherfano.{module}"), name), name
    assert higherfano.GradedClass is namespace["GradedClass"]
    with pytest.raises(AttributeError, match="module 'higherfano' has no attribute 'nope'"):
        higherfano.nope


def test_census_grass_deep_golden_csv(capsys):
    # digest of this census as recorded at the seed commit
    code, out = run_cli(capsys, "census", "G", "--k", "10", "--k-range", "3..5", "--n-range", "9..15",
                        "--format", "csv")
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == "78617bfd3146783271a274e302febc78259f9fe476d214cafe834149a192b600"


def test_census_grass_wide_golden_csv(capsys):
    # digest of this census as recorded at the seed commit (the census-grass-wide workload)
    code, out = run_cli(capsys, "census", "G", "--k-range", "2..8", "--n-range", "4..18", "--format", "csv")
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == "bf07713d76040479ae885cdafd9887602822c40711882df40c4bbba6f120e189"


# digests of the two largest censuses here, recorded while each ring built its full Schubert basis
@pytest.mark.parametrize("argv, digest", [
    (("census", "G", "--k-range", "2..10", "--n-range", "4..21"),
     "04eefb8aaa6873c60a8a568bd3afde884158fdb6fb419eb68d416d65ccff63d2"),
    (("census", "OG", "--k-range", "2..6", "--n-range", "7..30"),
     "af66cbe866fbd34fcd9808e7080dcf6ea39d076998200ae50eae0309319acc3c"),
])
def test_wide_grassmannian_census_golden_csv(capsys, argv, digest):
    code, out = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_census_grass_odd_k_golden_csv(capsys):
    # digest recorded while ch(T_G) was still the product ch(S^dual) * ch(Q): it pins the odd
    # components, which the n*ch(S^dual) - ch(End S) form takes from ch(S^dual) alone
    code, out = run_cli(capsys, "census", "G", "--k", "5", "--k-range", "3..4", "--n-range", "8..11",
                        "--format", "csv")
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == "674e877351a54f7c13cca1c26535886a92450de772beaa57d107b12e659bd5ab"


def test_check_full_dimension_narrow_box_golden_json(capsys):
    # digest recorded while ch(T_G) was n*ch(S^dual) - ch(End S) as classes: at k = 64 = dim G(8,16)
    # every degree j above n-k = 8 reads a power-sum entry in the narrow min(k,j) x min(n-k,j) box
    code, out = run_cli(capsys, "check", "G[8,16]", "--k", "64")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        "07329f921f47813d63c7d0bf4bd85e6dc6643b1e2874d220c82e9e1690dc19d4"


def test_census_ci_golden_csv(capsys):
    # digest of this census as recorded at the seed commit
    code, out = run_cli(capsys, "census", "CI", "--n-range", "2..22", "--max-c", "3", "--format", "csv")
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == "48b08d2e07bbafae317d28c5c93eabb621a43bfd4ca5b0107d9beec4c56947fc"


# digests of deep CI censuses, recorded while a CI row's character was its prefix row's minus
# one line character as classes: they pin the division by j! at every degree up to 5.  The last,
# shallower census was recorded when the rows stopped running in worker processes
@pytest.mark.parametrize("argv, rows, digest", [
    (("census", "CI", "--k", "3", "--n-range", "2..30", "--max-c", "4"), 10613,
     "3e3ebb4a0547bedc96d9c4fdeb36017a98a240a68ad1d9463904feb5762d660a"),
    (("census", "CI", "--k", "5", "--n-range", "5..24", "--max-c", "3"), 2414,
     "641e96a85fea2394efc3164f88c60453db381093d318b92d80619f7e9034937e"),
    (("census", "CI", "--n-range", "2..14", "--max-c", "3"), 311,
     "0829d44f0716f0a6d6fb3be3faa543aa0903d8b164ba7c95c63609ef2afad57b"),
])
def test_deep_ci_census_golden_csv(capsys, argv, rows, digest):
    code, out = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    assert out.count("\n") == rows + 1
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# digests of the zero-locus censuses, recorded before ch(Q) was built from ch(S^dual); the last
# four were recorded when the rows stopped running in worker processes.  G at k = 12 on
# n-k <= 7 reads power-sum entries whose box is narrower than the degree
@pytest.mark.parametrize("argv, digest", [
    (("census", "GH", "--k", "3", "--k-range", "2..4", "--n-range", "4..12"),
     "350fc5c94d1a5e62f1a0ac15e5264b1ecefa79184f49b599aa2e33a08b440c78"),
    (("census", "OG", "--k", "3", "--k-range", "2..4", "--n-range", "7..16"),
     "067b3ca207592475113510eb6e3f4e0c1f8354a207069d29a4209ae66a6ddd21"),
    (("census", "SG", "--k-range", "2..5", "--n-range", "4..14"),
     "8cc75c9807786d112d7447f931427c36686010450fe2f35b2c21d3531c8f9b13"),
    (("census", "SGdeg", "--k", "3", "--k-range", "2..5", "--n-range", "5..15"),
     "058b5226758a17c24b835cfd6117c2bd2d18a20e3734895d1ccfe2cc2cbf7199"),
    (("census", "G", "--k-range", "2..5", "--n-range", "4..12"),
     "c9417ef42398ee8d110570b8f7c68ef6ec647bf4d266e7af6a23ceea0002bfee"),
    (("census", "SG", "--k-range", "2..4", "--n-range", "4..12"),
     "d1ef45ddb9912e33fdbaeba9e090136d92f1db9396c369391a48d8a6ab47e0f2"),
    (("census", "GH", "--k", "4", "--k-range", "2..4", "--n-range", "6..12"),
     "bb64f1ddb1dee79d39da48c25e989bc7eebcb5396f61aa7d694c0aed40d63f9b"),
    (("census", "G", "--k", "12", "--k-range", "3..4", "--n-range", "8..10"),
     "0a134f9c75d3a2c1d6df3b03fd73f7087432ba7c7cf9d09248c8e87fe0cb82ac"),
])
def test_zero_locus_census_golden_csv(capsys, argv, digest):
    code, out = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# digests of deep zero-locus censuses, recorded while ch(S^dual) came from Newton's identities:
# they pin Sym^2 and Lambda^2 of ch(S^dual) at degrees up to 6
@pytest.mark.parametrize("argv, digest", [
    (("census", "SG", "--k", "6", "--k-range", "3..4", "--n-range", "8..12"),
     "4325bf5afa7b2e3c43b43721115391109621ab2b6e6338ebff0df38d044bc16c"),
    (("census", "OG", "--k", "5", "--k-range", "2..3", "--n-range", "8..14"),
     "9b7f135ebb928fa7f45f9520fa75b3e1aaf07daed12b2f13e5b4104c2e657231"),
])
def test_deep_zero_locus_census_golden_csv(capsys, argv, digest):
    code, out = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_compute_row_runs_each_path_once(monkeypatch):
    # the verdict is _verdict_and_sums, which hands the row its (ring, p) read for dim H
    names = ("_verdict_and_sums", "threshold_oracle")
    calls = dict.fromkeys(names, 0)
    # the degree of each p(j) = j! ch_j(T_X) read, and of each class ch_j built from one
    read, built = [], []

    def counting(name):
        fn = getattr(fam, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    power_sums, power_sum_class = fam._power_sums, fam.power_sum_class

    def recording_sums(spec):
        ring, p = power_sums(spec)

        def recorded(j):
            read.append(j)
            return p(j)

        return ring, recorded

    def recording_class(ring, j, p_j):
        built.append(j)
        return power_sum_class(ring, j, p_j)

    for name in names:
        monkeypatch.setattr(fam, name, counting(name))
    monkeypatch.setattr(fam, "_power_sums", recording_sums)
    monkeypatch.setattr(fam, "power_sum_class", recording_class)
    # (spec, k, degrees read): the verdict reads p(k) alone and builds no class, taking its
    # status from the signs of the integers; a row with a cone twist reads c_1 = p(1) for
    # dim H too, from the same read; the G2P verdict is a fact record with no ring
    for spec_text, k, degrees in [("CI[9;3]", 2, [2, 1]), ("G[2,5]", 2, [2, 1]), ("CI[9;3]", 3, [3]),
                                  ("G[3,9]", 7, [7]), ("CI[4;2,2]", 2, [2]), ("PP[2,3]", 2, [2]),
                                  ("G2P", 2, [])]:
        calls.update(dict.fromkeys(names, 0))
        read.clear()
        built.clear()
        assert compute_row(fam.parse_spec(spec_text), k)["agree"] is True, spec_text
        assert calls == {"_verdict_and_sums": 1, "threshold_oracle": 1}, (spec_text, k)
        assert read == degrees and built == [], (spec_text, k)


def test_ci_census_checks_the_ambient_bound_once_per_n_and_row(monkeypatch, capsys):
    # the listing checks each P^n once, and each row once, through the one power-sum read
    # its verdict and dim H share
    calls = []
    check = fam.check_ambient_bound

    def counting(spec):
        calls.append(spec)
        return check(spec)

    monkeypatch.setattr(fam, "check_ambient_bound", counting)
    code, out = run_cli(capsys, "census", "CI", "--n-range", "2..22", "--max-c", "3", "--format", "csv")
    rows = len(out.splitlines()) - 1
    assert code == 0 and rows == 1731
    assert 0 < len(calls) <= len(range(2, 23)) + rows


def test_empty_inputs_are_usage_errors(capsys):
    # a reversed range used to print only the CSV header with pass: true
    assert main(["census", "G", "--k-range", "4..2", "--n-range", "4..8", "--format", "csv"]) == 2
    assert "4 > 2" in capsys.readouterr().err
    assert main(["census", "OG", "--k-range", "2..3", "--n-range", "12..7"]) == 2
    # a negative --max-c used to act as no limit
    assert main(["census", "CI", "--n-range", "10", "--max-c", "-1"]) == 2
    assert "max codimension" in capsys.readouterr().err
    assert main(["verify", "prop11-ci", "--n-max", "6", "--max-c", "-1"]) == 2
    assert run_cli(capsys, "census", "CI", "--n-range", "10", "--max-c", "0")[0] == 0


@pytest.mark.parametrize("argv, message", [
    (("census", "CI", "--n-range", "5", "--k-range", "9..3", "--format", "csv"), "--k-range is for census G"),
    (("census", "G", "--k-range", "2", "--n-range", "4..5", "--max-c", "0", "--format", "csv"),
     "--max-c is for census CI"),
], ids=["CI-k-range", "G-max-c"])
def test_census_refuses_an_n_it_would_ignore(capsys, argv, message):
    # these used to list rows and drop a flag (--k-range, --max-c) without a word
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


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
    monkeypatch.setattr(fam, "_grass_ring", schubert.GrassmannianRing)
    assert run_cli(capsys, *argv)[0] == 0
    # C(7, 2) = 21 is the only basis above the lowered bound: the census
    # fails as a whole and never drops the G[2,7] row
    monkeypatch.setattr(schubert, "MAX_BASIS_LABELS", 20)
    code, out = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert run_cli(capsys, *argv[:5], "4..6", "--format", "csv")[0] == 0


def test_census_refuses_an_over_bound_spec_before_any_row(capsys, monkeypatch):
    argv = ["census", "G", "--k-range", "2", "--n-range", "4..7", "--format", "csv"]
    rows = []

    def counting_row(spec, k):
        rows.append(spec)
        return compute_row(spec, k)

    monkeypatch.setattr(cli, "compute_row", counting_row)
    assert run_cli(capsys, *argv)[0] == 0 and len(rows) == 4
    # G[2,7] is the last spec in row order and the only one above the bound:
    # it used to be refused only after the three rows before it
    rows.clear()
    monkeypatch.setattr(schubert, "MAX_BASIS_LABELS", 20)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "G(2,7)" in captured.err
    assert rows == []


def test_over_bound_projective_ambients_are_refused_before_any_label(capsys, monkeypatch):
    def no_ring(*args):
        raise AssertionError("the bound must refuse the ring before any label is built")

    monkeypatch.setattr(schubert, "MAX_BASIS_LABELS", 10)
    monkeypatch.setattr(fam, "_pn_ring", no_ring)
    monkeypatch.setattr(fam, "_pp_ring", no_ring)
    # P^10 has 11 labels, P^2 x P^3 has 12: both above the lowered bound
    for spec, count in [("CI[10;3]", "10+1 = 11"), ("PP[2,3]", "(2+1)(3+1) = 12")]:
        assert main(["check", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and count in captured.err, spec
    rows = []
    monkeypatch.setattr(cli, "compute_row", lambda spec, k: rows.append(spec))
    assert main(["census", "CI", "--n-range", "2..12", "--max-c", "1", "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "P^10 has a basis of 10+1 = 11 classes" in captured.err
    assert rows == []
    monkeypatch.undo()
    monkeypatch.setattr(schubert, "MAX_BASIS_LABELS", 12)
    assert run_cli(capsys, "check", "PP[2,3]")[0] == 0
    assert run_cli(capsys, "census", "CI", "--n-range", "2..11", "--max-c", "1", "--format", "csv")[0] == 0


@pytest.mark.parametrize("spec, k", [("CI[999999;]", 2), ("PP[999,999]", 3)])
def test_a_check_row_registers_only_the_degrees_it_reads(capsys, monkeypatch, spec, k):
    # the ambient ring builds "1" and its point when it is made, dim H reads degree 1
    # and the verdict degree k; P^999999 once built all 10^6 of its labels to read three
    register, registered = RingModel._register, []

    def recording(ring, degree, pairs):
        registered.append((ring, degree))
        register(ring, degree, pairs)

    monkeypatch.setattr(RingModel, "_register", recording)
    # uncached rings, so rings built by earlier tests cannot hide a registration
    monkeypatch.setattr(fam, "_pn_ring", fam._pn_ring.__wrapped__)
    monkeypatch.setattr(fam, "_pp_ring", fam._pp_ring.__wrapped__)
    assert run_cli(capsys, "check", spec, "--k", str(k))[0] == 0
    ambient = max((ring for ring, _ in registered), key=lambda ring: ring.dimension)
    assert {0, k, ambient.dimension} <= {d for ring, d in registered if ring is ambient} <= {0, 1, k, ambient.dimension}
    # a factor of P^999 x P^999 reads its degrees up to k for the ambient's degree k, and no degree twice
    assert all(d <= k or d == ring.dimension for ring, d in registered), registered
    assert len(set(registered)) == len(registered)


def test_over_bound_ci_census_is_refused_before_enumerating_it(capsys, monkeypatch):
    listed = []
    enumerate_fano_ci = fam.enumerate_fano_ci

    def recording(n, max_c):
        listed.append(n)
        return enumerate_fano_ci(n, max_c)

    monkeypatch.setattr(fam, "enumerate_fano_ci", recording)
    monkeypatch.setattr(schubert, "MAX_BASIS_LABELS", 10)
    # P^10 is the first ambient above the lowered bound: the census used to list the
    # degree tuples of every n up to 12 before the bound saw a spec
    assert main(["census", "CI", "--n-range", "2..12", "--max-c", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "P^10 has a basis of 10+1 = 11 classes" in captured.err
    assert listed == list(range(2, 10))
    # every spec on P^n has dimension <= n, so an n below --k yields no row and meets no bound
    assert run_cli(capsys, "census", "CI", "--n-range", "9..11", "--k", "12", "--format", "csv")[0] == 0


def test_census_refuses_k_below_two_before_listing_specs(capsys, monkeypatch):
    listed = []
    monkeypatch.setattr(fam, "enumerate_fano_ci", lambda n, max_c: listed.append(n) or [])
    # the first range holds no spec and used to print an empty census with exit 0;
    # the second holds two and used to fail on the first row
    for k_range in ("9..9", "2..2"):
        assert main(["census", "G", "--k", "1", "--k-range", k_range, "--n-range", "4..5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: verdicts are for k >= 2\n"
    # a CI census used to list every degree tuple before its first row failed
    assert main(["census", "CI", "--k", "1", "--n-range", "2..30", "--max-c", "3"]) == 2
    assert capsys.readouterr().err == "error: verdicts are for k >= 2\n"
    assert listed == []


def test_ci_census_lists_no_tuples_below_k(capsys, monkeypatch):
    listed = []
    enumerate_fano_ci = fam.enumerate_fano_ci

    def recording(n, max_c):
        listed.append(n)
        return enumerate_fano_ci(n, max_c)

    monkeypatch.setattr(fam, "enumerate_fano_ci", recording)
    # no spec on P^n has dimension above n, so the n below --k used to be listed for nothing;
    # each n left is listed twice, once to count its tuples and once as its rows read them
    argv = ["census", "CI", "--k", "10", "--max-c", "2", "--format", "csv", "--n-range"]
    code, out = run_cli(capsys, *argv, "1..12")
    assert code == 0 and listed == [10, 11, 12] * 2
    assert len(out.splitlines()) == 43 and run_cli(capsys, *argv, "10..12") == (0, out)
    listed.clear()
    assert run_cli(capsys, "census", "CI", "--n-range", "1..60", "--k", "100", "--max-c", "4")[0] == 0
    assert listed == []
    # a negative --max-c is refused even where no n reaches the enumeration that used to refuse it
    assert main(["census", "CI", "--n-range", "1..5", "--k", "100", "--max-c", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: max codimension must be >= 0, got -1\n"
    assert listed == []


def test_ci_census_past_the_row_bound_stops_listing(capsys, monkeypatch):
    listed = []
    enumerate_fano_ci = fam.enumerate_fano_ci

    def recording(n, max_c):
        for degrees in enumerate_fano_ci(n, max_c):
            listed.append(len(degrees))
            yield degrees

    monkeypatch.setattr(fam, "enumerate_fano_ci", recording)
    # P^60 holds 831,820 degree tuples at --max-c 59; the census used to list all of them
    # (8.4 s, 259 MB peak) before its first row.  It stops at the first spec past the bound
    assert main(["census", "CI", "--n-range", "60..60", "--max-c", "59"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: census lists more than 100000 specs; narrow --n-range or --max-c\n"
    assert len(listed) == cli.MAX_CENSUS_SPECS + 1


def test_ci_census_cap_counts_only_its_rows(capsys):
    # at --k 58 only the specs on P^60 with at most two degrees are rows; the census used
    # to list the other 100,000+ tuples too and refuse itself at the cap
    argv = ["census", "CI", "--n-range", "60", "--k", "58", "--format", "csv", "--max-c"]
    code, out = run_cli(capsys, *argv, "59")
    assert code == 0 and run_cli(capsys, *argv, "2") == (0, out)
    assert len(out.splitlines()) == 872
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "27c5e88c3ed362e34f5da77bf06fd49ffff2b2a3aa11ab60896fb0df4eee3afe"


@pytest.mark.parametrize("argv", [
    ["census", "G", "--k", "3", "--k-range", "2..4", "--n-range", "4..12"],
    ["census", "CI", "--k", "4", "--n-range", "2..12", "--max-c", "3"],
], ids=["G", "CI"])
def test_census_listing_builds_no_ring(monkeypatch, capsys, argv):
    # the listing checks each spec's bound without a ring: a lazy G(k, n) registers its
    # k(n-k)+1 degrees when built, so a listing that built rings refused
    # `census G --k-range 2..3 --n-range 4..300000` 27 times slower
    def no_ring(*args):
        raise AssertionError("a census listing builds no ring")

    ns = cli._build_parser().parse_args(argv)
    with monkeypatch.context() as patch:
        for ring in ("_grass_ring", "_pn_ring", "_pp_ring"):
            patch.setattr(fam, ring, no_ring)
        # the specs a CI census builds as its rows read them are built here too
        specs = list(cli._census_specs(ns))
    # the listed specs are the rows the census prints, with the rings built
    code, out = run_cli(capsys, *argv)
    assert code == 0 and specs and [s.text() for s in specs] == [item["params"] for item in json.loads(out)["items"]]


def test_census_specs_come_in_sorted_order():
    # a CI census sorts one P^n's degree tuples at a time as its rows read them, where it
    # used to sort its whole listing; either way its specs come in the order of sorted()
    def listing(*argv):
        return list(cli._census_specs(cli._build_parser().parse_args(["census", *argv])))

    for k in range(2, 7):
        for max_c in range(0, 5):
            specs = (fam.FamilySpec(fam.CI, 0, n, d) for n in range(1, 17) for d in fam.enumerate_fano_ci(n, max_c))
            expected = sorted(spec for spec in specs if fam.dim_x(spec) >= k)
            assert listing("CI", "--k", str(k), "--n-range", "1..16", "--max-c", str(max_c)) == expected
        for kind in fam.ZERO_LOCI:
            expected = []
            for a, n in itertools.product(range(2, 7), range(4, 17)):
                try:
                    spec = fam.FamilySpec(kind, a, n)
                except fam.InvalidFamilyError:
                    continue
                if fam.dim_x(spec) >= k:
                    expected.append(spec)
            specs = listing(kind, "--k", str(k), "--k-range", "2..6", "--n-range", "4..16")
            assert specs and specs == sorted(expected), (kind, k)


def _record_grassmannian_makers(monkeypatch) -> list[tuple[int, int]]:
    """A list that records the (k, n) of each G spec a census makes."""
    made = []
    validate = fam.validate

    def recording(spec):
        if spec.kind == fam.GRASS:
            made.append((spec.k, spec.n))
        return validate(spec)

    monkeypatch.setattr(fam, "validate", recording)
    return made


def test_grassmannian_census_past_the_ambient_bound_stops_listing(capsys, monkeypatch):
    made = _record_grassmannian_makers(monkeypatch)
    # every (k, n) of the ranges, 599,994 of them, used to be listed (1.94 s, 88 MB) before
    # the first over-bound ring was refused; listing stops at that ring, C(1415, 2) > 10^6
    assert main(["census", "G", "--k-range", "2..3", "--n-range", "4..300000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: G(2,1415) has a basis of C(1415,2) = 1000405 Schubert classes, "
        "more than the 1000000 this tool builds\n"
    )
    assert made == [(2, n) for n in range(4, 1416)]
    # dim G(2,n) = 2(n-2) reaches --k only from n = 5002 on, so no spec of the n range is
    # made; all 1,997 of them used to be made and dropped for their dimension
    made.clear()
    argv = ["census", "G", "--k", "10000", "--k-range", "2", "--n-range", "4..2000", "--format", "csv"]
    assert run_cli(capsys, *argv) == (0, ",".join(cli.CSV_COLUMNS) + "\n")
    assert made == []


def test_grassmannian_census_visits_no_k_above_half_the_top_n(capsys, monkeypatch):
    made = _record_grassmannian_makers(monkeypatch)
    # every k of the range has 2k > 10, so no (k, n) is visited; all 700,007 of the
    # ranges were made and refused, which took 1.7 s to print the header alone
    argv = ["census", "G", "--k-range", "100000..200000", "--n-range", "4..10", "--format", "csv"]
    assert run_cli(capsys, *argv) == (0, ",".join(cli.CSV_COLUMNS) + "\n")
    assert made == []
    # dim G(2,n) = 2(n-2) reaches 10^9 first at n = 500,000,002, whose ring is past the
    # bound: it is the first spec made, where the loop from n = 4 never ended
    argv = ["census", "G", "--k", "1000000000", "--k-range", "2", "--n-range", "4..1000000000000"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: G(2,500000002) has a basis of C(500000002,2) Schubert classes, "
        "more than the 1000000 this tool builds\n"
    )
    assert made == [(2, 500000002)]


def test_every_zero_locus_kind_takes_only_2_le_k_le_n_over_2():
    # a census visits no (k, n) outside these bounds, so a kind that took one would lose rows
    for kind, (_, takes, _) in fam.ZERO_LOCI.items():
        for k in range(-2, 13):
            for n in range(-2, 41):
                if takes(k, n):
                    assert 2 <= k and 2 * k <= n, (kind, k, n)


def test_grassmannian_census_past_the_row_bound_stops_listing(capsys, monkeypatch):
    made = _record_grassmannian_makers(monkeypatch)
    monkeypatch.setattr(cli, "MAX_CENSUS_SPECS", 5)
    argv = ["census", "G", "--k-range", "2..3", "--n-range", "4..40", "--format", "csv"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: census lists more than 5 specs; narrow --k-range or --n-range\n"
    assert made == [(2, n) for n in range(4, 10)]
    # at the cap a census runs: G(2,4)..G(2,8) are five specs, and G(2,9) is one too many
    code, out = run_cli(capsys, "census", "G", "--k-range", "2", "--n-range", "4..8", "--format", "csv")
    assert code == 0 and len(out.splitlines()) == 1 + 5
    assert main(["census", "G", "--k-range", "2", "--n-range", "4..9"]) == 2
    assert capsys.readouterr().err == "error: census lists more than 5 specs; narrow --k-range or --n-range\n"
    # specs whose dimension is below --k are not listed, so they count for nothing: of
    # G(2,4)..G(2,40) only the four from n = 37 on reach dimension 70
    code, out = run_cli(capsys, "census", "G", "--k", "70", "--k-range", "2", "--n-range", "4..40", "--format", "csv")
    assert code == 0 and len(out.splitlines()) == 1 + 4


def test_grassmannian_past_the_bound_in_n_is_refused_without_its_count(capsys, monkeypatch):
    def no_count(*args):
        raise AssertionError("C(n, 2) >= n is past the bound for every n > MAX_BASIS_LABELS")

    monkeypatch.setattr(schubert, "comb", no_count)
    # n of 2,301 digits: its count used to be evaluated and then fail to print
    n = "1" + "0" * 2300
    assert main(["check", f"G[2,{n}]"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: G(2,{n}) has a basis of C({n},2) Schubert classes, more than the 1000000 this tool builds\n"
    )
    assert main(["check", "G[2,1000001]"]) == 2
    assert "C(1000001,2) Schubert classes, more than the 1000000" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("check", "G[200000,400000]"),
    ("census", "G", "--k-range", "200000", "--n-range", "400000"),
])
def test_huge_grassmannian_is_refused_without_its_count(capsys, monkeypatch, argv):
    def no_count(*args):
        raise AssertionError("C(400000, 200000) has 120,000 digits and must not be evaluated")

    # it used to spend seconds on the count, then fail to print it
    monkeypatch.setattr(schubert, "comb", no_count)
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: G(200000,400000) has a basis of C(400000,200000) Schubert classes, "
        "more than the 1000000 this tool builds\n"
    )


def test_census_parses_no_spec_text(capsys, monkeypatch):
    texts = []
    parse_spec = fam.parse_spec

    def recording(text):
        texts.append(text)
        return parse_spec(text)

    monkeypatch.setattr(fam, "parse_spec", recording)
    # each row used to print its spec to text and parse it back
    for argv in (("CI", "--n-range", "2..8"), ("GH", "--k-range", "2..3", "--n-range", "4..8")):
        assert run_cli(capsys, "census", *argv, "--format", "csv")[0] == 0
    assert texts == []
    # check parses its argument once
    assert run_cli(capsys, "check", "GH[3,7]")[0] == 0
    assert texts == ["GH[3,7]"]


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
    row = compute_row(fam.FamilySpec(fam.PRODUCT_PN, 2, 3), 2)
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


# digests of the outputs that print pair lattices, recorded while the lattices were Fractions;
# the GH census is the only pinned census with the twist column on (1,1)-divisors
@pytest.mark.parametrize("argv, digest", [
    (("minimal-family", "G[2,5]"), "ae8ee5b7091c1d942e86f870cb39b6d97083f945473fe224da1f688b799c57fd"),
    (("minimal-family", "GH[3,7]"), "ff9ec46259803b758395799c09014c134c46e55ef1d300a8675571d9205f866a"),
    (("minimal-family", "OG[2,9]"), "8fb4d6cd7e57b04a753f4398d324417cdebe14ac78639c3a1dc543bf8c0203ac"),
    (("minimal-family", "SG[3,6]"), "33ae0c8a9446b689c50951c27517186471797b283301af164b4514f51595675a"),
    (("minimal-family", "SG[3,12]"), "cb9d4afa69b553e6444c1ebc2e38bb0b294ebd185aca5b5273fcce0205ad8a82"),
    (("minimal-family", "SGdeg[3,9]"), "e6cd7b4243869bb1b3b084785d0c9c971b75a4de77fcb371eb14fa180dd57d3a"),
    (("minimal-family", "G2P"), "2278e9192f03b2c5742adc1d4ac7cb39ee202b43501040f1a6f7c5f5b97d7ec7"),
    (("census", "GH", "--k-range", "2..5", "--n-range", "4..14", "--format", "csv"),
     "76c98dfce47e2dd141b9d6d06fbadb228d0f5dbef6b95707b84e5f2531d7ca5b"),
])
def test_pair_facing_output_golden(capsys, argv, digest):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ("verify", "claim31", "--n-max", "0"),
    ("verify", "prop11-ci", "--n-max", "0"),
    ("verify", "todd-identity", "--k-max", "0"),
    ("verify", "prop11-sym", "--n-max", "2", "--d-max", "-1"),
    ("verify", "catalog", "--m-max", "0"),
    ("verify", "prop11-sym", "--k-max", "0"),
    ("verify", "prop11-ci", "--n-max", "4", "--k-max", "-1"),
    ("verify", "claim31", "--n-max", "3", "--k-max", "-2"),
    ("verify", "claim31", "--n-max", "3", "--k-max", "0"),
    ("verify", "claim31", "--n-max", "3", "--k-max", "-1"),
])
def test_verify_bounds_that_name_no_check_are_usage_errors(capsys, argv):
    # these used to pass with no (or empty) checks, or die with an internal error
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "must be >=" in captured.err


@pytest.mark.parametrize("argv, message", [
    (("verify", "todd-identity", "--k-max", "3", "--max-c", "9", "--n-max", "500", "--d-max", "400",
      "--m-max", "99"),
     "--n-max is for verify claim31, prop11-sym, prop11-ci; verify todd-identity takes --k-max"),
    (("verify", "claim31", "--n-max", "3", "--max-c", "2"), "--max-c is for verify prop11-ci;"),
    (("verify", "prop11-ci", "--n-max", "6", "--d-max", "2"), "--d-max is for verify claim31, prop11-sym;"),
    (("verify", "catalog", "--k-max", "3"), "verify catalog takes --m-max"),
    (("verify", "prop11-sym", "--m-max", "2"), "--m-max is for verify catalog;"),
], ids=["todd-identity", "claim31-max-c", "prop11-ci-d-max", "catalog-k-max", "prop11-sym-m-max"])
def test_verify_refuses_a_bound_it_would_ignore(capsys, argv, message):
    # these used to run the suite and drop the bound without a word
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


@pytest.mark.parametrize("suite, narrow, fits, over", [
    ("claim31", "--n-max or --d-max", ("--n-max", "4", "--d-max", "3"), ("--n-max", "5", "--d-max", "4")),
    ("prop11-sym", "--n-max or --d-max", ("--n-max", "4", "--d-max", "3"), ("--n-max", "5", "--d-max", "4")),
    ("prop11-ci", "--n-max or --max-c", ("--n-max", "10", "--max-c", "0"), ("--n-max", "11", "--max-c", "0")),
])
def test_verify_past_the_census_cap_is_refused_before_any_check(capsys, monkeypatch, suite, narrow, fits, over):
    # claim31 at --n-max 100000 --d-max 100000 listed about 5*10^9 (n, d) pairs and died
    # with a MemoryError, the exit 1 of a verified disagreement; past the cap nothing is
    # listed or checked.  Each fitting bound gives 10 items, each refused one 11 or 15
    monkeypatch.setattr(cli, "MAX_CENSUS_SPECS", 10)
    code, out = run_cli(capsys, "verify", suite, *fits, "--k-max", "2")
    assert code == 0 and len(json.loads(out)["items"]) == 10
    mf = importlib.import_module("higherfano.minimalfamily")
    checked = []
    for name in ("verify_claim31", "verify_prop11_symbolic", "verify_prop11_ci"):
        monkeypatch.setattr(mf, name, lambda *args: checked.append(args))
    assert main(["verify", suite, *over, "--k-max", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and checked == []
    assert captured.err == f"error: verify {suite} lists more than 10 items; narrow {narrow}\n"


def test_each_capped_suite_is_refused_exactly_past_its_listing(monkeypatch):
    # each suite counts the listing it runs, where claim31 and prop11-sym used to count a
    # closed form of their loop and prop11-ci a copy of it.  With the cap at the listing's
    # length L the suite runs, and at L - 1 it is refused before any item is checked
    parser = cli._build_parser()
    grid = [(suite, "--n-max or --d-max", ("--n-max", str(n_max), "--d-max", str(d_max)),
             len([(n, d) for n in range(1, n_max + 1) for d in range(0, min(d_max, n - 1) + 1)]))
            for suite in ("claim31", "prop11-sym") for n_max in range(1, 9) for d_max in range(0, 10)]
    grid += [("prop11-ci", "--n-max or --max-c", ("--n-max", str(n_max), "--max-c", str(max_c)),
              len([d for n in range(1, n_max + 1) for d in fam.enumerate_fano_ci(n, max_c)]))
             for n_max in range(1, 11) for max_c in range(0, 4)]
    for i, (suite, narrow, bounds, size) in enumerate(grid):
        def items(cap):
            monkeypatch.setattr(cli, "MAX_CENSUS_SPECS", cap)
            return cli._items(parser.parse_args(["verify", suite, *bounds, "--k-max", "1"]))[0]

        fitting = items(size)
        if i % 23 == 0:  # the listing's length is the number of items the suite yields
            assert len(list(fitting)) == size, (suite, bounds)
        with pytest.raises(cli.UsageError) as err:
            items(size - 1)
        assert str(err.value) == f"verify {suite} lists more than {size - 1} items; narrow {narrow}"


def test_a_witness_too_long_to_print_is_refused(capsys):
    # str() of an integer past sys.get_int_max_str_digits() raised "Exceeds the limit (4300
    # digits) for integer string conversion", which told the user to change the interpreter
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    code, out = run_cli(capsys, "check", "CI[2000;]", "--k", "1559")
    assert code == 0 and json.loads(out)["items"][0]["verdict"] == "POSITIVE"
    if not limit:
        pytest.skip("this interpreter prints integers of any length")
    assert main(["check", "CI[2000;]", "--k", "1560"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: ch_1560 of CI[2000;] has a witness of more than {limit} digits, "
                            "the longest integer this interpreter prints\n")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no integer digit limit before 3.10.7")
def test_witness_refusal_is_exactly_where_str_refuses():
    spec = fam.parse_spec("CI[5;]")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for part in (10**640 - 1, 10**640, 2**(3 * 640), 2**(3 * 640) - 1, 2**(3 * 640) + 1):
            for value in (Fraction(part, 7), Fraction(-part, 7), Fraction(7, part)):
                try:
                    expected = f"x:{value}"
                except ValueError:
                    with pytest.raises(cli.UsageError):
                        cli._coeff_string(spec, 2, [("x", value)])
                else:
                    assert cli._coeff_string(spec, 2, [("x", value)]) == expected
    finally:
        sys.set_int_max_str_digits(old)


def test_verify_bounds_not_given_take_their_defaults(capsys):
    def items(*argv):
        code, out = run_cli(capsys, "verify", *argv)
        assert code == 0
        return json.loads(out)["items"]

    assert items("todd-identity") == items("todd-identity", "--k-max", "4")
    assert len(items("todd-identity")) == 4
    assert items("catalog") == items("catalog", "--m-max", "6")
    assert items("prop11-ci", "--n-max", "6") == items(
        "prop11-ci", "--n-max", "6", "--max-c", "3", "--k-max", "4"
    )


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "r.json"
    assert main(["check", "G[2,5]", "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"cannot write {target}" in captured.err
    assert not target.exists()


def _closed_stdout_run(argv, read_first_line):
    """Exit code and stderr of a fresh CLI run whose stdout reader closes the pipe.

    The reader reads the first line and then closes, or closes before the run starts,
    so the run's first write already finds no reader.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    cmd = [sys.executable, "-m", "higherfano.cli", *argv]
    if read_first_line:
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        return proc.wait(), err
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = subprocess.run(cmd, env=env, stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    return run.returncode, run.stderr


@pytest.mark.parametrize("argv, read_first_line", [
    (("census", "CI", "--n-range", "2..40", "--max-c", "4", "--format", "csv"), True),
    (("check", "G[2,5]"), False),
], ids=["census-reads-one-line", "check-reads-nothing"])
def test_a_closed_stdout_is_a_usage_error(argv, read_first_line):
    # a reader that goes away is no verified disagreement (exit 1): the run exits 2
    # with one line and no traceback, none at interpreter exit either
    code, err = _closed_stdout_run(argv, read_first_line)
    assert (code, err) == (2, "error: cannot write stdout: Broken pipe\n")


def whole_report(argv) -> tuple[int, str]:
    """The exit code and report of argv, its items listed first and rendered at once."""
    ns = cli._build_parser().parse_args(list(argv))
    items, key = cli._items(ns)
    report = cli._report(list(argv), True)
    report["items"] = list(items)
    report["pass"] = all(key is None or item[key] for item in report["items"])
    return 0 if report["pass"] else 1, reference.render_report(report, getattr(ns, "format", "json"))


@pytest.mark.parametrize("argv", [
    ("check", "G[2,5]"),
    ("check", "OG[2,8]", "--k", "3", "--format", "csv"),
    ("census", "CI", "--n-range", "2..9", "--max-c", "3"),
    ("census", "CI", "--n-range", "2..9", "--max-c", "3", "--format", "csv"),
    ("census", "G", "--k-range", "2..3", "--n-range", "4..9"),
    ("census", "G", "--k-range", "2..3", "--n-range", "4..9", "--format", "csv"),
    ("census", "G", "--k-range", "5..9", "--n-range", "4..9"),
    ("census", "G", "--k-range", "5..9", "--n-range", "4..9", "--format", "csv"),
    ("verify", "claim31", "--n-max", "5", "--k-max", "3"),
    ("verify", "catalog"),
    ("minimal-family", "OG[3,12]"),
    ("minimal-family", "GH[2,6]"),
], ids=["check", "check-csv", "census-CI", "census-CI-csv", "census-G", "census-G-csv", "census-empty",
        "census-empty-csv", "verify-claim31", "verify-catalog", "minimal-family-OG", "minimal-family-GH"])
def test_report_written_item_by_item_matches_the_whole_report(capsys, argv):
    assert run_cli(capsys, *argv) == whole_report(argv)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_disagreeing_census_row_fails_the_streamed_report(capsys, monkeypatch, fmt):
    def disagreeing(spec, k):
        row = compute_row(spec, k)
        return {**row, "agree": False} if spec.text() == "G[2,6]" else row

    monkeypatch.setattr(cli, "compute_row", disagreeing)
    argv = ("census", "G", "--k-range", "2..3", "--n-range", "4..9", "--format", fmt)
    code, out = run_cli(capsys, *argv)
    assert (code, out) == whole_report(argv)
    assert code == 1
    if fmt == "json":
        assert '\n  "pass": false,\n' in out


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_census_writes_each_row_before_computing_the_next(capsys, monkeypatch, fmt):
    computed = []

    def streamed(spec, k):
        if computed:
            assert computed[-1].text() in sys.stdout.getvalue()
        computed.append(spec)
        return compute_row(spec, k)

    monkeypatch.setattr(cli, "compute_row", streamed)
    code, out = run_cli(capsys, "census", "G", "--k-range", "2..3", "--n-range", "4..8", "--format", fmt)
    assert code == 0
    assert [spec.text() for spec in computed] == ["G[2,4]", "G[2,5]", "G[2,6]", "G[2,7]", "G[2,8]", "G[3,6]",
                                                  "G[3,7]", "G[3,8]"]


def test_verify_writes_each_item_before_computing_the_next(capsys, monkeypatch):
    # item k of todd-identity is the first to read A_k: by then item k-1 is written
    todd_coeff, read = minimalfamily.todd_coeff, []

    def streamed(m):
        if m >= 2 and m not in read:
            assert f'"todd-identity(k={m - 1})"' in sys.stdout.getvalue(), m
            read.append(m)
        return todd_coeff(m)

    monkeypatch.setattr(minimalfamily, "todd_coeff", streamed)
    code, out = run_cli(capsys, "verify", "todd-identity", "--k-max", "6")
    assert code == 0 and read == [2, 3, 4, 5, 6]
    assert [item["check"] for item in json.loads(out)["items"]] == [f"todd-identity(k={k})" for k in range(1, 7)]


def test_an_error_after_the_first_row_leaves_the_rows_written(capsys, monkeypatch):
    # the listing makes every user-facing refusal before the first row, so only an internal
    # invariant can fail a later row: the rows before it stay written, and the run exits 2
    argv = ["census", "G", "--k-range", "2", "--n-range", "4..8", "--format", "csv"]
    complete = run_cli(capsys, *argv)[1]

    def failing(spec, k):
        if spec.text() == "G[2,6]":
            raise ValueError("an invariant failed")
        return compute_row(spec, k)

    monkeypatch.setattr(cli, "compute_row", failing)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "".join(complete.splitlines(keepends=True)[:3])  # the header, G[2,4], G[2,5]
    assert captured.err == "error: an invariant failed\n"


def test_a_refused_first_item_opens_no_out_file(tmp_path, capsys, monkeypatch):
    target = tmp_path / "report.json"
    monkeypatch.setattr(schubert, "MAX_BASIS_LABELS", 10)
    assert main(["check", "CI[10;3]", "--out", str(target)]) == 2
    assert "P^10 has a basis of 10+1 = 11 classes" in capsys.readouterr().err
    assert not target.exists()
    monkeypatch.undo()

    def failing(spec, k):
        raise ValueError("an invariant failed")

    monkeypatch.setattr(cli, "compute_row", failing)
    assert main(["census", "G", "--k-range", "2", "--n-range", "4..8", "--out", str(target)]) == 2
    assert not target.exists()


def test_an_error_after_the_first_verify_item_leaves_it_written(tmp_path, capsys, monkeypatch):
    # a verify suite listed all its items before the first was written, so an error in any
    # check wrote nothing; it now yields them, and as in a census the items before the
    # error stay written and the run exits 2
    mf = importlib.import_module("higherfano.minimalfamily")
    verify_claim31 = mf.verify_claim31
    argv = ["verify", "claim31", "--n-max", "3", "--d-max", "2", "--k-max", "2"]
    complete = run_cli(capsys, *argv)[1]

    def failing_at(call):
        calls = []

        def failing(*args):
            calls.append(args)
            if len(calls) == call:
                raise ValueError("an invariant failed")
            return verify_claim31(*args)

        return failing

    monkeypatch.setattr(mf, "verify_claim31", failing_at(2))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == complete[:complete.index("\n    },\n    {") + len("\n    }")]
    assert captured.out.count('"check": ') == 1
    assert captured.err == "error: an invariant failed\n"
    target = tmp_path / "report.json"
    monkeypatch.setattr(mf, "verify_claim31", failing_at(1))
    assert main([*argv, "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: an invariant failed\n"
    assert not target.exists()


def _peak_bytes(argv: list[str]) -> int:
    """The tracemalloc peak of main(argv), its report written to os.devnull."""
    tracemalloc.start()
    try:
        assert main([*argv, "--out", os.devnull]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("small, large", [
    (["census", "CI", "--max-c", "4", "--n-range", "2..12"], ["census", "CI", "--max-c", "4", "--n-range", "2..30"]),
    (["verify", "claim31", "--k-max", "1", "--n-max", "20", "--d-max", "19"],
     ["verify", "claim31", "--k-max", "1", "--n-max", "200", "--d-max", "199"]),
], ids=["census", "verify"])
def test_a_report_holds_one_item_however_many_it_has(small, large):
    # 191 rows against 10,615, and 210 items against 20,100: the census listed and sorted
    # all its specs before its first row, and the suite all its (n, d) pairs and items,
    # so the peak grew from 117 to 1,431 KiB and from 145 to 6,591 KiB (Python 3.11.7)
    assert main([*large, "--out", os.devnull]) == 0  # builds the rings and caches both runs read
    assert _peak_bytes(large) - _peak_bytes(small) <= 256 * 1024


# stdout digests recorded before the suites moved out of the CLI (claim31 at
# the benchmark's size before it took its powers from per-ring tables, and
# prop11-sym at that size while U still held products of e-symbols); the JSON
# echoes argv, so each digest holds for exactly this argv
@pytest.mark.parametrize("argv, digest", [
    (("verify", "claim31", "--n-max", "6", "--d-max", "5", "--k-max", "4"),
     "56fac2d770ed3abb89b9b9690c8211f7aaeeb863d3c804a9d27530220cea6901"),
    (("verify", "prop11-sym", "--n-max", "6", "--d-max", "5", "--k-max", "4"),
     "d2b17e320d5a06377ad109b8d3f5cb3bf89b81b2d8070d0c064abe95a640fac6"),
    (("verify", "prop11-ci", "--n-max", "12", "--k-max", "5"),
     "ee639f3eff9e8af518043ea75c9e115d386dbb9e4723057c5c6a23e9fcebd810"),
    (("verify", "todd-identity", "--k-max", "20"),
     "462209dd037b2217b6314e5e9dcdf4da58481a5660af78219e723618a67621f1"),
    (("verify", "catalog"),
     "cb6b16f345b4f2bb6a5c9446bf74345d0781f680c0277f1fc0157dbf7927609a"),
    (("verify", "claim31", "--n-max", "12", "--d-max", "11", "--k-max", "8"),
     "b5bfb443088a48558bdeb6a7c3bdf045e2e5c8dc165562743acbf79b97d33cf0"),
    (("verify", "prop11-sym", "--n-max", "12", "--d-max", "11", "--k-max", "8"),
     "1121e3ba87d5881b5745f8aa7202adbc17f84d1d5728d1ae84cc63d703eb4343"),
])
def test_verify_suite_golden_json(capsys, argv, digest):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_census_refuses_jobs_below_one(capsys, jobs):
    # a census runs its rows in one process: --jobs, which once set a process pool, is gone,
    # so any value of it is an argparse error
    argv = ["census", "G", "--k-range", "2", "--n-range", "4..5", "--jobs", jobs, "--format", "csv"]
    assert "error: unrecognized arguments: --jobs" in argparse_error(capsys, argv)


@pytest.mark.parametrize("argv, flag", [
    (("census", "CI", "--n", "10"), "--n 10"),
    (("verify", "todd-identity", "--k", "3"), "--k 3"),
    (("census", "G", "--k-r", "2", "--n-range", "4..5"), "--k-r 2"),
    (("check", "G[2,5]", "--fo", "csv"), "--fo csv"),
    (("census", "CI", "--n", "5", "--n-range", "2..3"), "--n 5"),
    (("census", "G", "--k-range", "2", "--n-range", "4..5", "--n", "3"), "--n 3"),
    (("census", "OG", "--k-range", "2", "--n-range", "7..9", "--n", "8"), "--n 8"),
], ids=["CI-n", "verify-k", "k-r", "fo", "CI-n-and-n-range", "G-n", "OG-n"])
def test_flags_are_spelled_in_full(capsys, argv, flag):
    # a prefix of a flag used to run as the flag (verify's --k as --k-max, --k-r as --k-range),
    # and census --n was a second spelling of --n-range; each is now an argparse error
    assert f"error: unrecognized arguments: {flag}" in argparse_error(capsys, argv)


@pytest.mark.parametrize("argv", [
    ("verify", "catalog", "--format", "csv"),
    ("minimal-family", "G[2,5]", "--format", "csv"),
], ids=["verify", "minimal-family"])
def test_format_is_only_for_check_and_census(capsys, argv):
    # their items have none of the CSV columns: --format csv printed a header over empty rows
    assert "error: unrecognized arguments: --format csv" in argparse_error(capsys, argv)


@pytest.mark.parametrize("spec, message", [
    ("OG[2,6]", "error: OG needs 2 <= k < n/2 - 1\n"),
    ("XX[2,5]", "error: cannot parse family spec 'XX[2,5]'\n"),
])
def test_check_prints_the_refused_spec_message(capsys, spec, message):
    # recorded before the Grassmannian kinds were read from one table
    assert main(["check", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == message


@pytest.mark.parametrize("argv, message", [
    (("census", "CI", "--n-range", "..5"), "cannot read --n-range '..5': give N or LO..HI in integers"),
    (("census", "CI", "--n-range", "5..x"), "cannot read --n-range '5..x': give N or LO..HI in integers"),
    (("census", "G", "--k-range", "2..", "--n-range", "4..8"),
     "cannot read --k-range '2..': give N or LO..HI in integers"),
    (("check", "G[2,x]"), "cannot read 'x' as an integer in family spec 'G[2,x]'"),
    (("check", "CI[x;2]"), "cannot read 'x' as an integer in family spec 'CI[x;2]'"),
    (("check", "G[,]"), "cannot read '' as an integer in family spec 'G[,]'"),
    (("check", "CI[5;2,,3]"), "cannot read '' as an integer in family spec 'CI[5;2,,3]'"),
    (("check", "CI[1_0;2]"), "cannot read '1_0' as an integer in family spec 'CI[1_0;2]'"),
    (("check", "G[\u0663,6]"), "cannot read '\u0663' as an integer in family spec 'G[\u0663,6]'"),
    (("census", "CI", "--n-range", "1_0"), "cannot read --n-range '1_0': give N or LO..HI in integers"),
    (("check", "G[2,5]", "--k", "\u0662"), "--k"),
    (("verify", "todd-identity", "--k-max", "1_0"), "--k-max"),
], ids=["range-lo", "range-hi", "k-range", "G", "CI-n", "G-empty", "CI-empty-degree",
        "CI-n-underscore", "G-arabic-indic-digit", "range-underscore", "k-arabic-indic-digit", "k-max-underscore"])
def test_malformed_integers_are_refused_with_the_text_they_quote(capsys, argv, message):
    # each exited 2 with Python's "invalid literal for int() with base 10", naming neither
    # the flag nor the spec, but CI[5;2,,3], which dropped its empty entry and ran as CI[5;3,2].
    # int() also reads "_" separators and non-ASCII digits: CI[1_0;2] ran as CI[10;2],
    # G[\u0663,6] as G[3,6] and --k \u0662 as --k 2
    if message.startswith("--"):
        # argparse words the refusal of a flag's value, so only the flag's name is pinned
        assert message in argparse_error(capsys, argv)
    else:
        assert main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"
    # no degree at all is P^n itself
    assert fam.parse_spec("CI[5;]") == fam.parse_spec("CI[5; ]") == fam.ci(5, ())


def test_census_kinds_are_the_zero_locus_kinds_and_ci(capsys):
    kinds = (*fam.ZERO_LOCI, fam.CI)
    with pytest.raises(SystemExit):
        main(["census", "--help"])
    assert "{" + ",".join(kinds) + "}" in capsys.readouterr().out
    round_trips = set()
    for kind in fam.ZERO_LOCI:
        for n in (8, 9):  # SG takes only even n, SGdeg only odd
            text = f"{kind}[2,{n}]"
            try:
                spec = fam.parse_spec(text)
            except fam.InvalidFamilyError:
                continue
            assert spec.text() == text and fam.parse_spec(spec.text()) == spec
            round_trips.add(spec.kind)
    assert round_trips == set(fam.ZERO_LOCI)
    assert main(["census", "CI", "--n-range", "5", "--k-range", "2"]) == 2
    message = "--k-range is for census G, GH, OG, SG and SGdeg; census CI takes --n-range"
    assert capsys.readouterr().err == f"error: {message}\n"
    listed = message.split(";")[0].removeprefix("--k-range is for census ").replace(" and ", ", ")
    assert listed.split(", ") == list(fam.ZERO_LOCI)

