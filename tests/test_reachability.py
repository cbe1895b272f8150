"""No `src/` function goes unreached by the CLI unless the allowlist names its consumer.

A fixed list of CLI commands runs in one fresh interpreter under `sys.setprofile`, so
no `lru_cache` filled by another test can hide a call.  Every `def` in the package is
named by its module and qualified name, read from the AST (code objects on Python
3.10 have no `co_qualname`), and the names that no command calls must be exactly the
allowlist.  A function that loses its last command caller then fails this test
instead of staying in `src/` unnoticed, and an allowlisted function that a command
starts to call must leave the list.

Run as a script, this file is the probe: it prints the unreached names as JSON.
"""

import ast
import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# beyond the README's CLI block: a census of each kind, each verify suite at small
# bounds, check and minimal-family on every kind, and one bound refusal; -> exit code
COMMANDS = {
    "census GH --k-range 2..3 --n-range 4..8 --format csv": 0,
    "census OG --k-range 2..3 --n-range 6..10 --k 3": 0,
    "census SG --k-range 2..3 --n-range 4..10": 0,
    "census SGdeg --k-range 2..3 --n-range 5..9 --format csv": 0,
    "census CI --n-range 2..8 --max-c 3 --k 3 --format csv": 0,
    "verify claim31 --n-max 3 --d-max 2 --k-max 3": 0,
    "verify prop11-sym --n-max 3 --d-max 2 --k-max 3": 0,
    "verify prop11-ci --n-max 6 --max-c 2 --k-max 3": 0,
    "verify catalog --m-max 2": 0,
    "verify todd-identity --k-max 5": 0,
    "check CI[4;2,2]": 0,
    "check GH[2,6] --k 3": 0,
    "check OG[2,8]": 0,
    "check SG[3,6]": 0,
    "check SGdeg[2,7] --format csv": 0,
    "check G2P": 0,
    "check PP[2,3]": 0,
    "minimal-family CI[9;3]": 0,
    "minimal-family G[2,5]": 0,
    "minimal-family GH[2,6]": 0,
    "minimal-family OG[2,8]": 0,
    "minimal-family SGdeg[2,7]": 0,
    "minimal-family G2P": 0,
    "minimal-family PP[2,3]": 2,
    "check G[10,40]": 2,
}

# unreached function -> its one consumer: a test ("tests/<file>::<test>"), a line of the
# README quick tour ("README: <code>"), or the ROADMAP item that will call it.  A function
# that nothing calls, not even a test, has no consumer and is deleted
UNREACHED = {
    "bundles.power_sum_class": "tests/test_families.py::test_integer_verdict_matches_the_power_sum_class",
    "catalog.catalog_to_json": "tests/test_catalog.py::test_catalog_json_golden_digest",
    "families.bundle_nonexample_diagnostic": "ROADMAP item 19",
    "families.chk_verdict": "README: chk_verdict(spec, 2).witnesses",
    "families.product_nonexample": "tests/test_acceptance.py::test_criterion_7_product_nonexample",
    "minimalfamily.VerificationReport.checks":
        "tests/test_minimalfamily.py::test_ring_identities_are_checked_in_every_claim31_report",
    "minimalfamily.VerificationReport.ok": "README: verify_claim31(7, 4, 5).ok",
    "rings.GradedClass.__repr__":
        "tests/test_minimalfamily.py::test_ring_identities_are_checked_in_every_claim31_report",
    "rings.GradedClass.__rsub__": "tests/test_rings.py::test_subtraction_edge_cases",
    "rings.GradedClass.__truediv__": "tests/test_bundles.py::test_line_bundle_character_on_p3",
    "rings.GradedClass.degrees": "tests/test_rings.py::test_graded_class_api",
    "rings.GradedClass.homogeneous_degree": "tests/test_rings.py::test_graded_class_api",
    "rings.GradedClass.integrate": "README: (s1 ** 6).integrate()",
    "rings.GradedClass.is_zero": "tests/test_bundles.py::test_dual_involution_and_zero",
    "rings.ProductRing._mul_labels": "tests/test_acceptance.py::test_criterion_7_product_nonexample",
    "rings.ProjBundleRing.__init__": "ROADMAP item 19",
    "rings.ProjBundleRing._build_degree": "ROADMAP item 19",
    "rings.ProjBundleRing._mul_labels": "ROADMAP item 19",
    "rings.ProjBundleRing.from_base": "ROADMAP item 19",
    "rings.ProjBundleRing.push_to_base": "ROADMAP item 19",
    "rings.ProjBundleRing.xi": "ROADMAP item 19",
    "rings.ProjBundleRing.xi_power_normal": "ROADMAP item 19",
    "rings.check_graded": "ROADMAP item 19",
    "schubert.GrassmannianRing._has_label": "ROADMAP item 16",
    "schubert.GrassmannianRing._mul_labels": "ROADMAP item 16",
    "schubert.GrassmannianRing.box_partition": "README: s1 = g.sigma((1,))",
    "schubert.GrassmannianRing.complement": "tests/test_schubert.py::test_duality",
    "schubert.GrassmannianRing.partition_of": "ROADMAP item 16",
    "schubert.GrassmannianRing.sigma": "README: s1 = g.sigma((1,))",
    "schubert._horizontal_strips": "ROADMAP item 16",
    "schubert._horizontal_strips.<locals>.rec": "ROADMAP item 16",
    "schubert._jt_terms": "ROADMAP item 16",
    "schubert._product": "ROADMAP item 16",
    "schubert.dual_pairing": "tests/test_schubert.py::test_duality",
    "schubert.pieri": "README: pieri(g, (2, 2), 1)",
}


def _readme_block(heading: str, fence: str) -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.search(rf"^## {heading}\n\n```{fence}\n(.*?)^```", readme, re.S | re.M).group(1)


def _functions(package: Path):
    """(module.qualname, file, first line) of every def; the first line is a decorator's, if any."""
    for path in sorted(package.glob("*.py")):

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    yield f"{path.stem}.{prefix}{child.name}", str(path), first
                    yield from walk(child, f"{prefix}{child.name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    yield from walk(child, f"{prefix}{child.name}.")
                else:
                    yield from walk(child, prefix)

        yield from walk(ast.parse(path.read_text(encoding="utf-8")), "")


def _probe() -> None:
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    readme = {shlex.join(shlex.split(line, comments=True)[1:]): 0 for line in _readme_block("CLI", "").splitlines()}
    commands = {**readme, **COMMANDS}
    sys.setprofile(record)
    import higherfano
    from higherfano.cli import main

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes = {argv: main(shlex.split(argv)) for argv in commands}
    sys.setprofile(None)
    called = {(os.path.realpath(path), line) for path, line in called}
    package = Path(higherfano.__file__).resolve().parent
    unreached = sorted(name for name, *where in _functions(package) if tuple(where) not in called)
    wrong = {argv: code for argv, code in codes.items() if code != commands[argv]}
    json.dump({"unreached": unreached, "wrong_exit_codes": wrong}, sys.stdout)


def test_every_function_no_command_reaches_is_allowlisted_with_its_consumer():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True, check=True)
    report = json.loads(run.stdout)
    # a command that stops early would leave functions unreached for nothing
    assert report["wrong_exit_codes"] == {}
    unreached = report["unreached"]
    assert set(unreached) == set(UNREACHED), (
        f"unreached but not allowlisted: {sorted(set(unreached) - set(UNREACHED))}; "
        f"allowlisted but reached: {sorted(set(UNREACHED) - set(unreached))}"
    )
    tour = _readme_block("Library quick tour", "python")
    for name, consumer in UNREACHED.items():
        m = re.fullmatch(r"(tests/\w+\.py)::(\w+)|README: (.+)|ROADMAP item (10|13|16|19)", consumer)
        assert m, (name, consumer)
        if m[1]:
            assert f"\ndef {m[2]}(" in (ROOT / m[1]).read_text(encoding="utf-8"), (name, consumer)
        elif m[3]:
            assert m[3] in tour, (name, consumer)


def _renames(fn: ast.FunctionDef) -> bool:
    """True when fn's body, past its docstring, is one `return f(p1, ...)` or `return p1.method(p2, ...)`.

    The call passes fn's own parameters, in order, and nothing else.
    """
    body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
    call = body[0].value if len(body) == 1 and isinstance(body[0], ast.Return) else None
    if not isinstance(call, ast.Call) or call.keywords or not all(isinstance(a, ast.Name) for a in call.args):
        return False
    params = [a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs]
    passed = [a.id for a in call.args]
    receiver = call.func.value if isinstance(call.func, ast.Attribute) else None
    return passed == params or (isinstance(receiver, ast.Name) and [receiver.id, *passed] == params)


def test_no_src_function_only_renames_another():
    # a second name for a constructor or a method is one more name to keep in step:
    # callers call the class or the method itself
    wrappers = []
    for path in sorted((ROOT / "src" / "higherfano").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.decorator_list:
                if _renames(node):
                    wrappers.append(f"{path.stem}.{node.name}")
    assert wrappers == []


def test_each_package_name_is_its_own_object():
    import higherfano

    owners = {}
    for name in higherfano.__all__:
        owners.setdefault(id(getattr(higherfano, name)), []).append(name)
    assert [names for names in owners.values() if len(names) > 1] == []
    with pytest.raises(AttributeError, match="module 'higherfano' has no attribute 'integrate'"):
        higherfano.integrate


if __name__ == "__main__":
    _probe()
