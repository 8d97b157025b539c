"""Command-line interface: exit codes, formats, pipelines."""

import io
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
from fractions import Fraction

import pytest

import lie_thomas
from lie_thomas import families
from lie_thomas.algebra import AlgebraElement
from lie_thomas.cases import CASES, TAGS
from lie_thomas.classifier import ClassificationError, classify
from lie_thomas.cli import InputError, _default_coords, _refuse_unless_canonical, main
from lie_thomas.determining import ThomasParams
from lie_thomas.errors import DomainError


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


@pytest.mark.parametrize("case, params, default, tag", [
    ("Case2_2", "1,-1,1", "1, 0, 1, 0", "Case2_3"),
    ("Case2_1a", "-1,-1,1", "1, 2, 1, 0", "Case2_1b"),
    ("Case2_1b", "0,0,1", "-1, -1, 1, 0", "Case2_1a"),
    ("Case3_1b", "1,2,1", "1, 2, 0, 0", "Case3_1a"),
])
def test_reduce_by_case_checks_its_default_coordinates(capsys, case, params, default, tag):
    """At numeric params the default coordinates of --case must be a
    canonical vector of the tag; where they belong to another tag, reduce
    names it."""
    rc, out, err = _run(capsys, "reduce", "--case", case, "--params", params)
    assert rc == 3 and not out
    assert ("--case: the default (%s) is not a canonical %s vector; its form is %s (%s)"
            % (default, case, tag, default)) in err


@pytest.mark.parametrize("case, params, canonical, kind", [
    ("Case2_3", "1,2,1", "(-1/2, 0, 1, 0)", "inconsistent"),
    ("Case3_1a", "1,2,1", "(1, 2, 0, 0)", "bernoulli"),
])
def test_reduce_by_case_computes_the_parameter_defaults(capsys, case, params, canonical, kind):
    rc, out, err = _run(capsys, "reduce", "--case", case, "--params", params)
    assert rc == 0 and not err
    assert "tag: %s\ncanonical coordinates: %s\n" % (case, canonical) in out
    assert ", %s): " % kind in out


@pytest.mark.parametrize("case, params, message", [
    ("Case2_3", "1,0,1", "Case2_3 needs beta != 0"),
    ("Case3_1a", "0,2,1", "Case3_1a needs alpha != 0"),
])
def test_reduce_parameter_defaults_refuse_a_vanishing_divisor(capsys, case, params, message):
    rc, out, err = _run(capsys, "reduce", "--case", case, "--params", params)
    assert rc == 3 and not out
    assert "error[InputError]: %s" % message in err


_CASE31A_SLOPE = ("error[FamilyError]: a2 = beta/alpha makes (1, a2, 0, 0) a Case3_1a "
                  "vector; its family is case31a")


@pytest.mark.parametrize("argv, refusal", [
    (("solve", "--case", "Case3_1b", "--params", "1,2,1"), _CASE31A_SLOPE),
    (("solve", "--case", "Case3_1b", "--params", "1,2,1", "--constants", "a2=2"),
     _CASE31A_SLOPE),
    (("verify", "--case", "Case3_1b", "--params", "1,2,1"), _CASE31A_SLOPE),
    (("verify", "--case", "Case3_1b", "--params", "1,2,1", "--constants", "a2=2"),
     _CASE31A_SLOPE),
    (("solve", "--case", "Case3_1b", "--params", "1,2,1", "--constants", "a2=3"), None),
    (("solve", "--case", "Case2_2", "--params", "1,1,1", "--constants", "a1=2",
      "--format", "json"), None),
], ids=["solve", "solve-a2=2", "verify", "verify-a2=2", "solve-a2=3", "readme-solve"])
def test_case_families_pass_the_reduce_check(capsys, argv, refusal):
    """solve and verify --case check the vector their family is built on
    (the tag's default coordinates with the family's a1, a2 in place) as
    reduce --case checks its own, and the builders refuse a vector of
    another case themselves: case31b refuses the Case3_1a slope
    a2 = beta/alpha; the README's solve example passes."""
    rc, out, err = _run(capsys, *argv)
    if refusal is None:
        assert rc == 0 and not err
    else:
        assert rc == 3 and not out
        assert refusal in err


@pytest.mark.parametrize("params, count", [
    ("1,1,1", 9), ("2,3,5/7", 9), ("-1/2,5,2/7", 8), ("1,2,1", 8), ("0,1,1", 7),
])
def test_reduce_by_case_prints_what_its_default_vector_prints(capsys, params, count):
    """At numeric params reduce --case is reduce --vector on the tag's
    default coordinates, for every tag whose default is canonical there."""
    p = ThomasParams(*map(Fraction, params.split(",")))
    tags = []
    for tag in TAGS:
        try:
            coords = _default_coords(tag, p)
        except InputError:  # Zero, or a default whose divisor vanishes at p
            continue
        case = classify(AlgebraElement(*coords), p)
        if case.tag != tag or case.word:
            continue
        tags.append(tag)
        vector = ",".join(map(str, coords))
        for fmt in ("text", "json"):
            by_case = _run(capsys, "reduce", "--case", tag, "--params", params, "--format", fmt)
            assert by_case[0] == 0
            assert by_case == _run(capsys, "reduce", "--vector", vector, "--params", params,
                                   "--format", fmt)
    assert len(tags) == count


_CASE31A_FORM = ("error[InputError]: --family: the family's vector (1, 2, 0, 0) is not a "
                 "canonical Case3_1b vector; its form is Case3_1a (1, 2, 0, 0)")


@pytest.mark.parametrize("argv, stdin, refusal", [
    (("solve", "--family", "case31b", "--params", "1,2,1"), None, _CASE31A_SLOPE),
    (("solve", "--family", "constant", "--constants", "tag=Case3_1b", "--params", "1,2,1"),
     None, _CASE31A_FORM),
    (("verify", "--family", "-"), {"tag": "Case3_1b"}, _CASE31A_FORM),
    (("solve", "--family", "constant", "--constants", "tag=Case3_1a", "--params", "0,1,1"),
     None, "error[InputError]: --family: Case3_1a needs alpha != 0"),
], ids=["solve-family", "solve-constant", "verify-descriptor", "no-case31a-vector"])
def test_every_family_road_passes_the_reduce_check(capsys, monkeypatch, argv, stdin, refusal):
    """A family from --family KEY or from a --family descriptor (here a
    constant one, with the stdin constants) gets the check that --case
    families get, and its refusal names --family; case31b refuses the
    Case3_1a slope itself."""
    if stdin is not None:
        fam = families.build_family("constant", ThomasParams(1, 2, 1), stdin)
        monkeypatch.setattr(sys, "stdin", io.StringIO(fam.descriptor_json()))
    rc, out, err = _run(capsys, *argv)
    assert rc == 3 and not out
    assert refusal in err


@pytest.mark.parametrize("key", list(families.SOLUTION_BUILDERS))
def test_every_builder_at_its_defaults_passes_the_reduce_check(capsys, monkeypatch, key):
    rc, out, err = _run(capsys, "solve", "--family", key, "--params", "1,1,1",
                        "--format", "json")
    assert rc == 0 and not err
    monkeypatch.setattr(sys, "stdin", io.StringIO(out))
    rc, out, err = _run(capsys, "verify", "--family", "-", "--tolerance", "1e-6")
    assert rc == 0 and not err


def test_verify_leaves_stdin_open(capsys, monkeypatch):
    """`verify --family -` reads the caller's stdin without closing it, so
    a second in-process call on the same stream reads it again."""
    rc, out, err = _run(capsys, "solve", "--family", "constant", "--params", "1,1,1",
                        "--format", "json")
    assert rc == 0 and not err
    monkeypatch.setattr(sys, "stdin", io.StringIO(out))
    first = _run(capsys, "verify", "--family", "-")
    assert first[0] == 0 and not first[2]
    assert not sys.stdin.closed
    sys.stdin.seek(0)
    assert _run(capsys, "verify", "--family", "-") == first


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_case_builds_a_family_of_its_own_tag(capsys, command):
    """--case TAG refuses a family whose constants give it another tag, and
    names both; solve --family KEY builds it."""
    argv = ("--constants", "tag=Case3_1a", "--params", "1,1,1")
    rc, out, err = _run(capsys, command, "--case", "Case3_2", *argv)
    assert rc == 3 and not out
    assert "error[InputError]: --case Case3_2: the family is tagged Case3_1a" in err
    rc, out, err = _run(capsys, command, "--case", "Case3_2", "--constants", "tag=Case3_2")
    assert rc == 0 and "family: constant (tag Case3_2)" in out and not err
    if command == "solve":  # verify's --family reads a descriptor
        rc, out, err = _run(capsys, command, "--family", "constant", *argv)
        assert rc == 0 and "family: constant (tag Case3_1a)" in out and not err


def test_canonical_check_accepts_what_classify_leaves_unmoved():
    """The check accepts a vector under a tag exactly when classify gives it
    that tag with an empty word, though it runs classify only to refuse."""
    rng = random.Random(26)
    for _ in range(300):
        p = ThomasParams(rng.randint(-2, 2), rng.randint(-2, 2), rng.choice((-1, 1, 2)))
        coords = tuple(Fraction(rng.choice((-1, 0, 0, 1, 1, 2)), rng.choice((1, 2)))
                       for _ in range(4))
        try:
            case = classify(AlgebraElement(*coords), p)
        except ClassificationError:
            case = None
        for tag in TAGS:
            try:
                _refuse_unless_canonical(tag, coords, "v", p)
                accepted = True
            except DomainError:
                accepted = False
            assert accepted == (case is not None and case.tag == tag and not case.word)


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
             "classifier", "reduction", "printer"}
_NUMERIC = {"families", "fuchs", "hyperdual", "verification"}
_DERIVE = {"jetpoly", "vectorfield", "determining"}  # only derive runs these


@pytest.mark.parametrize("argv, absent", [
    (("derive", "--params", "symbolic"),
     _NUMERIC | {"algebra", "classifier", "reduction"}),
    (("tables", "--params", "symbolic"), _NUMERIC | _DERIVE | {"reduction"}),
    (("classify", "--vector", "1,1,3,1"), _NUMERIC | _DERIVE | {"reduction"}),
    (("reduce", "--vector", "1,1,3,1", "--params", "1,1,1"), _NUMERIC | _DERIVE),
    (("solve", "--case", "Case1"), _SYMBOLIC),
    (("verify", "--case", "Case2_2", "--grid=-1,1,3,-1,1,3"), _SYMBOLIC),
    (("oracle", "--count", "1", "--grid=-1,1,3,-1,1,3"),
     _SYMBOLIC | {"families", "fuchs"}),
], ids=["derive", "tables", "classify", "reduce", "solve", "verify", "oracle"])
def test_command_loads_only_its_modules(argv, absent):
    """A cold child of each command loads none of the modules it does not
    run, neither scipy nor numpy, and neither dataclasses nor the inspect
    module it pulls in; oracle, which prints no digest, loads no hashlib."""
    code = ("import json, sys\n"
            "from lie_thomas import cli\n"
            "rc = cli.main(sys.argv[1:] + ['--format', 'json', '--output', %r])\n"
            "print(json.dumps([rc, [m for m in sys.modules if m.split('.')[0] in "
            "('lie_thomas', 'scipy', 'numpy', 'dataclasses', 'inspect', 'hashlib')]]))"
            % os.devnull)
    src = os.path.dirname(os.path.dirname(lie_thomas.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, check=True)
    rc, modules = json.loads(proc.stdout)
    assert rc == 0, proc.stderr
    loaded = set(modules)
    assert not {m for m in loaded if m.split(".")[0] in ("scipy", "numpy")}
    assert not loaded & {"dataclasses", "inspect"}
    assert "lie_thomas.cli" in loaded
    assert not loaded & {"lie_thomas." + m for m in absent}
    if argv[0] == "oracle":
        assert "hashlib" not in loaded


@pytest.mark.parametrize("tag", ["Case2_3", "Case2_4"])
def test_obstruction_case_exits_3(capsys, tag):
    rc, _, err = _run(capsys, "solve", "--case", tag,
                      "--params", "1,1,1")
    assert rc == 3
    assert "error[" in err
    assert "%s is obstructed: %s" % (tag, CASES[tag].obstruction) in err


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


def test_format_reads_no_environment(capsys, monkeypatch):
    """--format defaults to text whatever the environment holds."""
    argv = ("classify", "--vector", "1,1,3,1", "--params", "1,1,1")
    plain = _run(capsys, *argv)
    monkeypatch.setenv("LIE_THOMAS_FORMAT", "json")
    assert _run(capsys, *argv) == plain
    assert plain[1].startswith("input vector: (1, 1, 3, 1)\n")


@pytest.mark.parametrize("command", ["derive", "tables", "classify", "reduce", "solve",
                                     "verify", "oracle"])
def test_help_lists_params_once(capsys, command):
    """Each command takes --params from exactly one parent parser."""
    rc, out, _ = _run(capsys, command, "--help")
    assert rc == 0
    assert len(re.findall(r"^ +--params PARAMS\b", out, re.M)) == 1


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
_MISSING_DIR = object()  # stands for a path under a tmp_path directory that does not exist


@pytest.mark.parametrize("source", ["flag", "descriptor"])
def test_constant_family_needs_a_translation_tag(capsys, monkeypatch, source):
    """A constant family tagged with any other tag than Case3_1a, Case3_1b
    or Case3_2 is refused, whether the tag comes from --constants or from a
    descriptor."""
    if source == "flag":
        argv = ("solve", "--family", "constant", "--constants", "tag=foo")
    else:
        monkeypatch.setattr(sys, "stdin", io.StringIO(_descriptor(
            family="constant", params=_ONES, constants={"c": 0.0, "tag": "Case2_4"})))
        argv = ("verify", "--family", "-")
    rc, _, err = _run(capsys, *argv)
    assert rc == 3
    assert "error[FamilyError]: a constant is invariant only for" in err


@pytest.mark.parametrize("spaced, joined", [
    (("classify", "--vector", "-1,0,1,0", "--params", "0,1,1"),
     ("classify", "--vector=-1,0,1,0", "--params", "0,1,1")),
    (("classify", "--vector", "1,0,1,0", "--params", "-1,1,1"),
     ("classify", "--vector", "1,0,1,0", "--params=-1,1,1")),
    (("reduce", "--vector", "-1,0,1,0", "--params", "0,1,1"),
     ("reduce", "--vector=-1,0,1,0", "--params", "0,1,1")),
])
def test_negative_value_as_separate_argument(capsys, spaced, joined):
    """Every option, not only `--grid`, takes a separate value that starts
    with '-' as its value: the spaced form prints what the `=` form prints."""
    rc, out, err = _run(capsys, *spaced)
    assert rc == 0 and not err
    assert _run(capsys, *joined) == (0, out, "")


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
    (("solve", "--case", "Case2_4", "--params", "symbolic"), "Case2_4 is obstructed"),
    (("solve", "--case", "Case3_2", "--params", "symbolic", "--format", "csv"),
     "parameters are symbolic"),
    (("classify", "--vector", "1,1,3,1", "--output", _MISSING_DIR), "--output: cannot write"),
    (("derive", "--show-prolongation", "--format", "csv"),
     "--show-prolongation has no csv form"),
    (("reduce", "--vector", "1,1,3,1", "--case", "Case2_2", "--params", "1,1,1"),
     "would ignore --case"),
    (("solve", "--case", "Case2_2", "--params", "1,1,1/0"), "--params: '1/0' is not"),
    (("classify", "--vector", "1,1/0,3,1"), "--vector: '1/0' is not"),
    (("solve", "--case", "Case2_2", "--constants", "a1=1/0"), "constant '1/0' is not a number"),
    (("verify", "--family", "-", _descriptor(
        family="case22", params=dict(_ONES, gamma="1/0"), constants={"a1": "1"})),
     "descriptor parameters"),
    (("verify", "--family", "-",
      _descriptor(family="case22", params=_ONES, constants={"a1": "1/0"})),
     "constant '1/0' is not a number"),
    (("solve", "--case", "Case2_2", "--constants", "a1=1e400"),
     "--constants: 'a1=1e400' is too large for a float"),
    (("solve", "--case", "Case2_2", "--params", "1e400,1,1"),
     "constant alpha is too large for a float"),
    (("verify", "--family", "-",
      _descriptor(family="case22", params=_ONES, constants={"a1": "1e400"})),
     "constant '1e400' is not a number"),
    (("verify", "--family", "-", _descriptor(
        family="case22", params=dict(_ONES, gamma="1e400"), constants={"a1": "1"})),
     "constant gamma is too large for a float"),
    (("classify", "--vector", "1,1,3,1", "--params", "1,1"),
     "--params wants 'alpha,beta,gamma' or 'symbolic'"),
    (("solve", "--case", "Case2_2", "--constants", "a1"), "--constants wants key=value pairs"),
    (("solve", "--case", "Case2_2", "--format", "csv", "--grid", "0,1,3"),
     "--grid wants xmin,xmax,nx,ymin,ymax,ny"),
    (("reduce", "--case", "Case9", "--params", "symbolic"),
     "no default coordinates for tag 'Case9'"),
    (("reduce", "--case", "Case2_3", "--params", "symbolic"),
     "Case2_3 default coordinates need numeric parameters"),
    (("reduce", "--params", "1,1,1"), "reduce wants --vector or --case"),
    (("solve", "--params", "1,1,1"), "wanted --case TAG (or --family KEY)"),
    (("solve", "--case", "Zero"), "no solution family for tag 'Zero'"),
    (("solve", "--case", "Case1", "--format", "csv", "--grid=0.1,0.2,3,0.1,0.2,3"),
     "domain excludes every grid point"),
    (("verify", "--family", "-", _Stdin("not json")), "--family: descriptor is not JSON"),
    (("verify", "--family", "missing.json", "--params", "1,1"),
     "--params wants 'alpha,beta,gamma' or 'symbolic'"),
])
def test_malformed_values_exit_3(capsys, monkeypatch, tmp_path, argv, message):
    if isinstance(argv[-1], _Stdin):
        monkeypatch.setattr(sys, "stdin", io.StringIO(argv[-1]))
        argv = argv[:-1]
    argv = [str(tmp_path / "missing" / "out") if a is _MISSING_DIR else a for a in argv]
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
