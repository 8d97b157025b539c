"""Command-line interface: exit codes, formats, pipelines."""

import io
import json
import math
import os
import re
import shlex
import subprocess
import sys

import pytest

import lie_thomas
from lie_thomas import families
from lie_thomas.cli import main
from lie_thomas.determining import ThomasParams


def _run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_classify_text(capsys):
    rc, out, _ = _run(capsys, "classify", "--vector", "1,1,3,1",
                      "--params", "1,1,1")
    assert rc == 0
    assert "tag: Case1" in out
    assert "canonical coordinates: (4, 1, 0, 1)" in out


def test_classify_json(capsys):
    rc, out, _ = _run(capsys, "classify", "--vector", "1,1,3,1",
                      "--params", "1,1,1", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["schema"] == "lie-thomas/1"
    assert doc["tag"] == "Case1"
    assert doc["word"] == [["v1", 3.0]]
    assert doc["canonical"] == ["4", "1", "0", "1"]


def test_derive_rows(capsys):
    rc, out, _ = _run(capsys, "derive", "--params", "symbolic",
                      "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["kind"] == "determining-system"
    assert len(doc["rows"]) == 12
    monos = [r["monomial"] for r in doc["rows"]]
    assert monos[0] == "1" and "u_xx" in monos


def test_derive_text_and_latex_agree_on_row_count(capsys):
    _, t, _ = _run(capsys, "derive", "--params", "symbolic")
    _, l, _ = _run(capsys, "derive", "--params", "symbolic",
                   "--format", "latex")
    t_rows = [ln for ln in t.splitlines() if ln.strip().startswith("[")]
    l_rows = [ln for ln in l.splitlines() if ln.strip().startswith("[")]
    assert len(t_rows) == len(l_rows) == 12
    assert any("\\varphi" in ln for ln in l_rows)


def test_tables_json(capsys):
    rc, out, _ = _run(capsys, "tables", "--params", "symbolic",
                      "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert sum(len(row) for row in doc["commutator"]) == 25
    assert sum(len(row) for row in doc["adjoint"]) == 16


def test_reduce_by_vector(capsys):
    rc, out, _ = _run(capsys, "reduce", "--vector", "1,1,3,1",
                      "--params", "1,1,1", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["tag"] == "Case1"
    assert doc["ode"]["kind"] == "fuchs"
    assert doc["ode"]["order"] == 2


def test_reduce_by_case_with_coords(capsys):
    rc, out, _ = _run(capsys, "reduce", "--case", "Case2_2",
                      "--coords", "2,0,1,0", "--params", "1,1,1",
                      "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["ode"]["kind"] == "linear-first-order"


def test_solve_verify_pipeline(tmp_path, capsys):
    rc, out, _ = _run(capsys, "solve", "--case", "Case2_2",
                      "--params", "1,1,1", "--constants", "a1=2",
                      "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc))

    rc, out, _ = _run(capsys, "verify", "--family", str(path),
                      "--format", "json")
    assert rc == 0
    rep = json.loads(out)
    assert rep["max_residual"] < 1e-9
    assert rep["digest"] == doc["digest"]


def test_solve_digest_stable(capsys):
    _, a, _ = _run(capsys, "solve", "--case", "Case2_2", "--params", "1,1,1",
                   "--constants", "a1=2", "--format", "json")
    _, b, _ = _run(capsys, "solve", "--case", "Case2_2", "--params", "1,1,1",
                   "--constants", "a1=2", "--format", "json")
    assert json.loads(a)["digest"] == json.loads(b)["digest"]


def test_verify_tolerance_failure(tmp_path, capsys):
    _, out, _ = _run(capsys, "solve", "--case", "Case2_2", "--params", "1,1,1",
                     "--constants", "a1=2", "--format", "json")
    path = tmp_path / "family.json"
    path.write_text(out)
    rc, _, err = _run(capsys, "verify", "--family", str(path),
                      "--tolerance", "1e-30")
    assert rc == 3
    assert "tolerance" in err


def test_verify_tolerance_fails_an_all_nan_family(tmp_path, capsys, monkeypatch):
    def nan_builder(p):
        return families.SolutionFamily(
            "nan", "Case2_2", p, {}, lambda x, y: x * math.nan, lambda x, y: True)

    monkeypatch.setitem(families.SOLUTION_BUILDERS, "nan", nan_builder)
    path = tmp_path / "family.json"
    path.write_text(nan_builder(ThomasParams(1, 1, 1)).descriptor_json())
    rc, out, err = _run(capsys, "verify", "--family", str(path),
                        "--grid=-1,1,5,-1,1,5", "--tolerance", "1")
    assert rc == 3
    assert "max |residual| = inf" in out
    assert "error[tolerance]" in err


def test_import_loads_neither_scipy_nor_numpy():
    code = ("import sys, lie_thomas.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'numpy')))")
    src = os.path.dirname(os.path.dirname(lie_thomas.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


_SYMBOLIC = {"normal", "jetpoly", "vectorfield", "determining", "algebra",
             "classifier", "reduction", "printer", "parser"}
_NUMERIC = {"families", "fuchs", "hyperdual", "verification"}


@pytest.mark.parametrize("argv, absent", [
    (("derive", "--params", "symbolic"),
     _NUMERIC | {"algebra", "classifier", "reduction"}),
    (("tables", "--params", "symbolic"), _NUMERIC | {"reduction"}),
    (("classify", "--vector", "1,1,3,1"), _NUMERIC | {"reduction"}),
    (("reduce", "--vector", "1,1,3,1", "--params", "1,1,1"), _NUMERIC),
    (("solve", "--case", "Case1"), _SYMBOLIC),
    (("verify", "--case", "Case2_2", "--grid=-1,1,3,-1,1,3"), _SYMBOLIC),
    (("oracle", "--count", "1", "--grid=-1,1,3,-1,1,3"), _SYMBOLIC),
], ids=["derive", "tables", "classify", "reduce", "solve", "verify", "oracle"])
def test_command_loads_only_its_modules(argv, absent):
    """A cold child of each command loads none of the modules it does not
    run, and neither scipy nor numpy."""
    code = ("import json, sys\n"
            "from lie_thomas import cli\n"
            "rc = cli.main(sys.argv[1:] + ['--format', 'json', '--output', %r])\n"
            "print(json.dumps([rc, [m for m in sys.modules "
            "if m.split('.')[0] in ('lie_thomas', 'scipy', 'numpy')]]))" % os.devnull)
    src = os.path.dirname(os.path.dirname(lie_thomas.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, check=True)
    rc, modules = json.loads(proc.stdout)
    assert rc == 0, proc.stderr
    loaded = set(modules)
    assert not {m for m in loaded if not m.startswith("lie_thomas")}
    assert "lie_thomas.cli" in loaded
    assert not loaded & {"lie_thomas." + m for m in absent}


def test_obstruction_case_exits_3(capsys):
    rc, _, err = _run(capsys, "solve", "--case", "Case2_3",
                      "--params", "1,1,1")
    assert rc == 3
    assert "error[" in err


def test_bad_vector_exits_3(capsys):
    rc, _, err = _run(capsys, "classify", "--vector", "1,1,3",
                      "--params", "1,1,1")
    assert rc == 3
    assert "four comma-separated rationals" in err


def test_unknown_flag_exits_2(capsys):
    rc, _, _ = _run(capsys, "classify", "--vector", "1,1,3,1",
                    "--params", "1,1,1", "--bogus")
    assert rc == 2


def test_symbolic_classify_exits_3(capsys):
    rc, _, err = _run(capsys, "classify", "--vector", "1,1,3,1",
                      "--params", "symbolic")
    assert rc == 3
    assert "error[" in err


def test_oracle_command(capsys):
    rc, out, _ = _run(capsys, "oracle", "--params", "1,1,1", "--count", "2",
                      "--seed", "11", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert len(doc["solutions"]) == 2
    for rec in doc["solutions"]:
        assert rec["max_residual"] < 1e-9


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    rc, out, _ = _run(capsys, "classify", "--vector", "0,0,1,0",
                      "--params", "1,1,1", "--format", "json",
                      "--output", str(target))
    assert rc == 0
    assert out == ""
    assert json.loads(target.read_text())["tag"] == "Case2_4"


def test_format_env_default(capsys, monkeypatch):
    monkeypatch.setenv("LIE_THOMAS_FORMAT", "json")
    rc, out, _ = _run(capsys, "classify", "--vector", "1,1,3,1",
                      "--params", "1,1,1")
    assert rc == 0
    assert json.loads(out)["tag"] == "Case1"


def test_solve_csv_grid(capsys):
    rc, out, _ = _run(capsys, "solve", "--case", "Case2_2", "--params", "1,1,1",
                      "--constants", "a1=2", "--format", "csv",
                      "--grid", "0,1,3,0,1,3")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,y,u"
    assert len(lines) == 10


@pytest.mark.parametrize("argv", [
    ("solve", "--case", "Case2_2", "--format", "csv"),
    ("verify", "--case", "Case2_2", "--format", "json"),
    ("oracle", "--count", "1", "--format", "json"),
])
def test_grid_with_negative_bound_as_separate_argument(capsys, argv):
    """`--grid -2,...` is the grid, not an unknown option, and means the
    same as `--grid=-2,...`."""
    rc, spaced, _ = _run(capsys, *argv, "--grid", "-2,-1,3,-2,-1,3")
    assert rc == 0
    rc, joined, _ = _run(capsys, *argv, "--grid=-2,-1,3,-2,-1,3")
    assert rc == 0
    assert spaced == joined
    if argv[0] == "solve":
        assert spaced.splitlines()[1].startswith("-2.0,-2.0,")
    else:
        doc = json.loads(spaced)
        evaluated = doc["evaluated"] if argv[0] == "verify" else doc["solutions"][0]["evaluated"]
        assert evaluated == 9


class _Stdin(str):
    """Text that a case feeds to `verify --family -` on standard input."""


def _descriptor(**fields):
    return _Stdin(json.dumps({"schema": "lie-thomas/1", "kind": "solution-family", **fields}))


_ONES = {"alpha": "1", "beta": "1", "gamma": "1"}


@pytest.mark.parametrize("argv, message", [
    (("classify", "--vector", "1,a,3,1"), "--vector: 'a' is not a rational"),
    (("classify", "--vector", "1,1,3,1", "--params", "1,1,x"), "--params"),
    (("solve", "--case", "Case2_2", "--format", "csv", "--grid", "0,1,three,0,1,3"),
     "--grid: 'three' is not an integer"),
    (("verify", "--case", "Case2_2", "--tolerance", "tiny"), "--tolerance"),
    (("solve", "--case", "Case2_2", "--constants", "a1=two"), "not a number"),
    (("oracle", "--count", "0"), "--count"),
    (("oracle", "--count", "-1"), "--count"),
    (("verify", "--case", "Case2_2", "--tolerance", "nan"), "--tolerance"),
    (("verify", "--case", "Case2_2", "--tolerance", "0"), "--tolerance"),
    (("verify", "--case", "Case2_2", "--tolerance=-1e-9"), "--tolerance"),
    (("verify", "--case", "Case2_2", "--tolerance", "inf"), "--tolerance"),
    (("verify", "--family", "/nonexistent/family.json"), "--family: cannot read"),
    (("solve", "--family", "nope"), "--family: 'nope' is not one of"),
    (("solve", "--case", "Case2_2", "--constants", "bogus=1"), "takes no constant bogus"),
    (("verify", "--family", "-", _Stdin("[1, 2]")), "not a solution-family descriptor"),
    (("verify", "--family", "-", _descriptor(family="case22")),
     "descriptor lacks params, constants"),
    (("verify", "--family", "-",
      _descriptor(family="case22", params={"alpha": "1"}, constants={})),
     "descriptor parameters"),
    (("verify", "--family", "-", _descriptor(family="case22", params=_ONES, constants=[])),
     "descriptor constants"),
    (("verify", "--family", "-",
      _descriptor(family="case22", params=_ONES, constants={"zz": 1})),
     "takes no constant zz"),
    (("verify", "--family", "-",
      _descriptor(family="case22", params=_ONES, constants={"a1": [1]})),
     "constant [1] is not a number"),
    (("solve", "--case", "Case1", "--constants", "chi_lo=abc"), "constant 'abc' is not a number"),
    (("solve", "--case", "Case2_4", "--params", "symbolic"), "parameters are symbolic"),
    (("solve", "--case", "Case3_2", "--params", "symbolic", "--format", "csv"),
     "parameters are symbolic"),
])
def test_malformed_values_exit_3(capsys, monkeypatch, argv, message):
    if isinstance(argv[-1], _Stdin):
        monkeypatch.setattr(sys, "stdin", io.StringIO(argv[-1]))
        argv = argv[:-1]
    rc, _, err = _run(capsys, *argv)
    assert rc == 3
    assert "error[" in err and message in err


def test_value_error_from_a_command_is_not_a_domain_error(capsys, monkeypatch):
    """Only the package's own errors exit 3; a bare ValueError is a bug and
    propagates."""
    from lie_thomas import cli

    def broken(args):
        raise ValueError("not a domain error")

    monkeypatch.setattr(cli, "_cmd_classify", broken)
    with pytest.raises(ValueError, match="not a domain error"):
        main(["classify", "--vector", "1,1,3,1"])


_GOLDEN = os.path.join(os.path.dirname(__file__), "cli_golden.txt")
_GOLDEN_HEAD = re.compile(r"^\$ lie-thomas (.*)\n\[exit (\d+)\]\n", re.M)


def _golden_cases():
    """(command line, exit code, stdout) of each case in the golden file, a
    run of '$ lie-thomas ARGS' and '[exit N]' lines each followed by the
    exact stdout of that command."""
    with open(_GOLDEN, newline="") as fh:
        parts = _GOLDEN_HEAD.split(fh.read())
    return [(parts[i], int(parts[i + 1]), parts[i + 2]) for i in range(1, len(parts), 3)]


_GOLDEN_CASES = _golden_cases()


@pytest.mark.parametrize("command, code, stdout", _GOLDEN_CASES,
                         ids=[case[0] for case in _GOLDEN_CASES])
def test_output_matches_the_golden_file(capsys, command, code, stdout):
    """Every format's layout, byte for byte: each command in all four
    formats at 1,1,1, and derive, tables and reduce at symbolic."""
    rc, out, _ = _run(capsys, *shlex.split(command))
    assert (rc, out) == (code, stdout)
