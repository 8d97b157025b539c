"""Seeded fuzz of every command through ``cli.main``, in process.

Each trial draws one command line from ``random.Random(seed)``: extreme
floats (±1e308, 5e-324, −0.0, non-finite text), huge rationals, malformed
lists, and verify descriptors with wrong types, missing or extra keys,
non-finite constants and edited digests.  The contract: either exit 0 with
finite reported numbers (a verify or oracle run that evaluated at least one
point, at a finite worst point), or exit 2 or 3 with one error line on
standard error; ``main`` never raises.
"""

import io
import json
import math
import random
import re
import sys

import pytest

from lie_thomas import families
from lie_thomas.cases import TAGS
from lie_thomas.cli import main
from lie_thomas.params import ThomasParams

TRIALS = 300

_HUGE = "9" * 80
_NUMBERS = ("0", "1", "-1", "2", "1/3", "-7/2", "0.5", "3", "1e308", "-1e308", "5e-324",
            "-0.0", "1e-300", _HUGE, "-" + _HUGE, "1/" + _HUGE, _HUGE + "/7", "1e400")
_JUNK = ("nan", "inf", "-inf", "", "abc", "1/0", "1,2", "0x10", " ")
_COUNTS = ("2", "3", "4", "1", "0", "-3", "2.5", "x", "")
_FORMATS = ("json", "json", "json", "text", "csv", "latex")
_COMMANDS = ("derive", "tables", "classify", "reduce", "solve", "verify", "verify", "oracle")
_SYMBOLIC = ("derive", "tables", "classify", "reduce")
_CONSTANTS = ("a1", "a2", "A", "A0", "c0", "const", "chi_lo", "root", "k0", "k", "c", "tag")


def _number(rng):
    return rng.choice(_JUNK) if rng.random() < 0.15 else rng.choice(_NUMBERS)


def _small(rng):
    """A rational most builders accept, so that a trial reaches its builder."""
    return rng.choice(("1", "2", "-1", "1/2", "3", "-2"))


def _list(rng, n, draw):
    if rng.random() < 0.1:
        n += rng.choice((-1, 1))
    return ",".join(draw(rng) for _ in range(n))


def _params(rng, hostile):
    """symbolic, three rationals, or, at the share ``hostile``, three drawn
    from the hostile values."""
    r = rng.random()
    if r < 0.1:
        return "symbolic"
    return _list(rng, 3, _number if r < 0.1 + hostile else _small)


def _grid(rng):
    def bound(rng):
        return rng.choice(("-2", "-1", "0", "1", "2", "0.5")) if rng.random() < 0.6 else _number(rng)

    def count(rng):
        return rng.choice(_COUNTS) if rng.random() < 0.3 else rng.choice(("2", "3", "4"))

    def span(rng):
        lo, hi = bound(rng), bound(rng)
        if rng.random() < 0.7:  # mostly min < max, so that the grid is built
            try:
                lo, hi = sorted((lo, hi), key=float)
            except ValueError:
                pass
        return [lo, hi, count(rng)]

    parts = span(rng) + span(rng)
    if rng.random() < 0.05:
        parts.pop()
    return ",".join(parts)


def _constants(rng):
    names = rng.sample(_CONSTANTS, rng.randint(0, 3))
    pairs = []
    for name in names:
        if name == "root":
            value = rng.choice(("+", "-", "x"))
        elif name == "tag":
            value = rng.choice(TAGS + ("nope",))
        else:
            value = _small(rng) if rng.random() < 0.5 else _number(rng)
        pairs.append("%s=%s" % (name, value))
    if rng.random() < 0.05:
        pairs.append("junk")
    return ",".join(pairs)


def _family_options(rng, by_key):
    argv = []
    if not by_key or rng.random() < 0.7:
        argv += ["--case", rng.choice(TAGS + ("Case9",))]
    else:
        argv += ["--family", rng.choice(tuple(families.SOLUTION_BUILDERS) + ("nope",))]
    if rng.random() < 0.7:
        argv += ["--constants", _constants(rng)]
    return argv


def _descriptor_text(rng, valid):
    """A descriptor that solve printed, edited in one or two hostile ways."""
    doc = json.loads(json.dumps(rng.choice(valid)))
    for _ in range(rng.choice((0, 1, 1, 2))):
        edit = rng.randrange(9)
        if edit == 0:  # an edited constant, the digest kept
            if isinstance(doc.get("constants"), dict) and doc["constants"]:
                doc["constants"][rng.choice(sorted(doc["constants"]))] = rng.choice(
                    (7, 1e308, -1e308, 5e-324, -0.0, math.nan, math.inf, _HUGE, "1/" + _HUGE))
        elif edit == 1:
            doc.pop("digest", None)
        elif edit == 2:
            doc["digest"] = rng.choice(("0" * 64, 7, None, [1], ""))
        elif edit == 3:
            doc.pop(rng.choice(("schema", "kind", "family", "params", "constants")), None)
        elif edit == 4:
            doc[rng.choice(("extra", "note", "tag"))] = rng.choice((1, "x", [], {}))
        elif edit == 5:
            doc[rng.choice(("params", "constants", "family"))] = rng.choice(
                (1, "x", [1, 2], None, {"alpha": "1"}))
        elif edit == 6:
            doc["params"] = {n: rng.choice(_NUMBERS + _JUNK) for n in ("alpha", "beta", "gamma")}
        elif edit == 7:
            if isinstance(doc.get("constants"), dict):
                doc["constants"][rng.choice(_CONSTANTS)] = rng.choice((1, "2", [1], {}))
        elif edit == 8:
            doc["family"] = rng.choice(tuple(families.SOLUTION_BUILDERS) + ("nope",))
    return json.dumps(doc) if rng.random() < 0.95 else json.dumps(doc)[:-3]


def _argv(rng, valid):
    command = rng.choice(_COMMANDS)
    argv = [command, "--params", _params(rng, 0.5 if command in _SYMBOLIC else 0.2)]
    stdin = None
    if command == "derive" and rng.random() < 0.3:
        argv.append("--show-prolongation")
    elif command == "classify":
        argv += ["--vector", _list(rng, 4, _number)]
    elif command == "reduce":
        if rng.random() < 0.5:
            argv += ["--vector", _list(rng, 4, _number)]
        else:
            argv += ["--case", rng.choice(TAGS + ("Case9",))]
    elif command == "solve":
        argv += _family_options(rng, True)
    elif command == "verify":
        if rng.random() < 0.6:
            argv += ["--family", "-"]
            stdin = _descriptor_text(rng, valid)
        else:
            argv += _family_options(rng, False)
        if rng.random() < 0.3:
            argv += ["--tolerance", rng.choice(("1e-6", "1", "0", "nan", "1e308", "5e-324"))]
    elif command == "oracle":
        argv += ["--count", rng.choice(("1", "2", "1", "0", "x")),
                 "--seed", str(rng.randrange(99))]
    if command in ("solve", "verify", "oracle") and rng.random() < 0.8:
        argv.append("--grid=" + _grid(rng))
    return argv + ["--format", rng.choice(_FORMATS)], stdin


def _non_finite(text):
    raise ValueError("non-finite number %s" % text)


def _numbers(node):
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        for item in node:
            yield from _numbers(item)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield node


_NON_FINITE = re.compile(r"(?<![A-Za-z])(nan|inf|NaN|Infinity)(?![A-Za-z])")


def _check_success(argv, out):
    """A command that exits 0 reports finite numbers, and a grid command at
    least one evaluated point."""
    assert out.strip(), argv
    if argv[-1] != "json":
        assert not _NON_FINITE.search(out), (argv, out)
        return
    doc = json.loads(out, parse_constant=_non_finite)
    assert all(math.isfinite(v) for v in _numbers(doc)), argv
    if argv[0] == "verify":
        assert doc["evaluated"] >= 1, argv
    elif argv[0] == "oracle":
        assert all(s["evaluated"] >= 1 for s in doc["solutions"]), argv


def _valid_descriptors(capsys):
    out = []
    for tag in ("Case1", "Case2_1a", "Case2_1b", "Case2_2", "Case3_1a", "Case3_2"):
        assert main(["solve", "--case", tag, "--format", "json"]) == 0
        out.append(json.loads(capsys.readouterr().out))
    return out


def test_no_command_raises_and_every_exit_keeps_the_contract(capsys, monkeypatch, seed):
    rng = random.Random(seed)
    valid = _valid_descriptors(capsys)
    codes = []
    for _ in range(TRIALS):
        argv, stdin = _argv(rng, valid)
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin or ""))
        rc = main(argv)
        out, err = capsys.readouterr()
        codes.append(rc)
        assert rc in (0, 2, 3), (argv, rc, err)
        if rc == 0:
            _check_success(argv, out)
        else:
            lines = err.strip().splitlines()
            errors = [line for line in lines if line.startswith("error[") or ": error: " in line]
            assert len(errors) == 1 and lines[-1] == errors[0], (argv, err)
            assert "Traceback" not in err, (argv, err)
    # the draw reaches both outcomes, not only the refusals
    assert codes.count(0) >= TRIALS // 10 and codes.count(3) >= TRIALS // 10, codes


def test_an_edited_descriptor_is_refused_and_one_without_a_digest_verifies(capsys, monkeypatch):
    assert main(["solve", "--case", "Case2_1a", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    grid = "--grid=-1,1,3,-1,1,3"

    def verify(d):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(d)))
        rc = main(["verify", "--family", "-", grid])
        return rc, capsys.readouterr()

    rc, got = verify(doc)
    assert rc == 0 and ("digest: %s" % doc["digest"]) in got.out
    edited = dict(doc, constants=dict(doc["constants"], A=7))
    rc, got = verify(edited)
    assert rc == 3 and got.out == ""
    assert got.err.startswith("error[InputError]: --family: the descriptor's digest %s is not"
                              % doc["digest"])
    del edited["digest"]
    rc, got = verify(edited)
    assert rc == 0 and "digest: " in got.out and doc["digest"] not in got.out


def test_a_float_overflow_exits_3_with_one_error_line(capsys, monkeypatch):
    """solve accepts a1 = 1e-300, whose exponential correction overflows
    math.exp in the family's domain test: verify exits 3."""
    assert main(["solve", "--case", "Case2_1a", "--constants", "a1=1e-300",
                 "--format", "json"]) == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(capsys.readouterr().out))
    assert main(["verify", "--family", "-"]) == 3
    assert capsys.readouterr().err == "error[OverflowError]: math range error\n"


def test_a_grid_with_no_finite_tick_exits_3(capsys):
    rc = main(["verify", "--case", "Case2_1a", "--grid=-1e308,1e308,4,-1,1,4"])
    assert rc == 3
    assert capsys.readouterr().err.startswith("error[VerificationError]: grid span")


def test_a_residual_with_no_bound_fails_without_a_tolerance(capsys, monkeypatch):
    def nan_builder(p):
        return families.SolutionFamily(
            "nan", "Case2_2", p, {}, lambda x, y: x * math.nan, lambda x, y: True)

    monkeypatch.setitem(families.SOLUTION_BUILDERS, "nan", nan_builder)
    monkeypatch.setattr(sys, "stdin", io.StringIO(
        nan_builder(ThomasParams(1, 1, 1)).descriptor_json()))
    assert main(["verify", "--family", "-", "--grid=-1,1,3,-1,1,3"]) == 3
    out, err = capsys.readouterr()
    assert "max |residual| = inf at (-1.0000, -1.0000)" in out
    assert err == "error[residual]: the family has no finite residual at (-1.0, -1.0)\n"
    # gamma = 5e-324: u = log(...)/gamma overflows at every point
    assert main(["oracle", "--params", "1/3,-1,5e-324", "--count", "1",
                 "--grid=-1,1,2,-1,1,2", "--format", "json"]) == 3
    assert capsys.readouterr().err == (
        "error[residual]: oracle 0 has no finite residual at (-1.0, -1.0)\n")


def _stdin_descriptor(family, **constants):
    return json.dumps({"schema": "lie-thomas/1", "kind": "solution-family", "family": family,
                       "params": {"alpha": "1", "beta": "1", "gamma": "1"},
                       "constants": constants})


@pytest.mark.parametrize("argv, stdin, message", [
    (("solve", "--params", "-1e308,-0.0,-7/2", "--case", "Case2_1a", "--format", "csv",
      "--grid=-2,2,3,-2,2,3"), None,
     "error[VerificationError]: the family has no finite value at (2.0, -2.0)"),
    (("verify", "--family", "-"), _stdin_descriptor("case22", a1=math.nan),
     "error[FamilyError]: constant nan is not a finite number"),
    (("verify", "--family", "-"), _stdin_descriptor("case21a", a1=1, a2=2, A=math.inf),
     "error[FamilyError]: constant inf is not a finite number"),
    (("verify", "--family", "-"), _stdin_descriptor("case21a", a1=1, a2=2, root=[1]),
     "error[FamilyError]: constant [1] is not a string"),
])
def test_hostile_values_the_fuzz_found_exit_3(capsys, monkeypatch, argv, stdin, message):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin or ""))
    assert main(list(argv)) == 3
    out, err = capsys.readouterr()
    assert err == message + "\n" and out == ""
