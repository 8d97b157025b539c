"""The package namespace (resolved lazily, PEP 562), the common error base and
the modules' imports."""

import ast
import importlib
import os
import pkgutil
import re
import shlex
import subprocess
import sys

import pytest

import lie_thomas
from lie_thomas.errors import DomainError
from lie_thomas.expr import ExprError


def _fresh_child(code: str) -> str:
    src = os.path.dirname(os.path.dirname(lie_thomas.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip()


def test_every_public_name_is_its_defining_module_object():
    for name in lie_thomas.__all__:
        if name == "__version__":
            continue
        module = importlib.import_module("lie_thomas." + lie_thomas._ORIGIN[name])
        value = getattr(lie_thomas, name)
        assert value is getattr(module, name), name
        if hasattr(value, "__module__"):
            assert value.__module__ == module.__name__, name


def test_bare_import_loads_no_submodule_until_a_name_is_used():
    out = _fresh_child(
        "import sys, lie_thomas\n"
        "def loaded(): return sorted(m for m in sys.modules if m.startswith('lie_thomas.'))\n"
        "print(loaded())\n"
        "from lie_thomas import ThomasParams\n"
        "print(loaded())\n"
        "print(lie_thomas.families.__name__, lie_thomas.families is sys.modules['lie_thomas.families'])\n"
    )
    bare, after_params, families = out.splitlines()
    assert bare == "[]"
    assert after_params == "['lie_thomas.errors', 'lie_thomas.expr', 'lie_thomas.params']"
    assert families == "lie_thomas.families True"


def test_star_import_binds_all():
    namespace = {}
    exec("from lie_thomas import *", namespace)
    assert set(lie_thomas.__all__) <= set(namespace)
    assert namespace["ThomasParams"] is lie_thomas.ThomasParams


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        lie_thomas.no_such_name
    assert not hasattr(lie_thomas, "no_such_name")
    with pytest.raises(ImportError):
        exec("from lie_thomas import no_such_name", {})


def test_dir_covers_all_and_submodules():
    listed = set(dir(lie_thomas))
    assert set(lie_thomas.__all__) <= listed
    assert {"families", "hyperdual", "jetpoly", "params", "errors"} <= listed


# every error class of the package and the base it had before DomainError
_ERROR_BASES = {
    "algebra.AlgebraError": ExprError,
    "algebra.GroupDomainError": ValueError,
    "classifier.ClassificationError": ValueError,
    "cli.InputError": ValueError,
    "expr.EvalError": ExprError,
    "expr.ExprError": Exception,
    "families.FamilyError": ValueError,
    "fuchs.FuchsError": ValueError,
    "hyperdual.HyperDualError": ValueError,
    "jetpoly.JetPolynomialError": ExprError,
    "jetpoly.ProlongationError": ExprError,
    "params.ParameterError": ExprError,
    "reduction.ReductionError": ValueError,
    "verification.VerificationError": ValueError,
}


def _package_error_classes():
    found = {}
    for info in pkgutil.iter_modules(lie_thomas.__path__):
        module = importlib.import_module("lie_thomas." + info.name)
        for name, value in vars(module).items():
            if (isinstance(value, type) and issubclass(value, BaseException)
                    and value.__module__ == module.__name__ and value is not DomainError):
                found["%s.%s" % (info.name, name)] = value
    return found


def test_readme_library_example_runs_as_printed(capsys):
    """README's ``## Library`` example runs and prints one GridReport line
    whose residual is below 1e-9, so a public name it uses cannot go or be
    renamed unseen."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"),
              encoding="utf-8") as f:
        library = f.read().split("\n## Library\n", 1)[1]
    code = library.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    out = capsys.readouterr().out
    line = re.fullmatch(r"max \|residual\| = (\S+) at \(.+\) over \d+ points "
                        r"\(\d+ outside domain\)\n", out)
    assert line and float(line.group(1)) < 1e-9, out


def _readme_command_blocks():
    """README's plain code blocks, each a list of its lines, with every
    line a backslash continues joined to the next."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"),
              encoding="utf-8") as f:
        text = f.read()
    blocks = re.findall(r"^```\n(.*?)^```$", text, flags=re.M | re.S)
    return [block.replace("\\\n", " ").splitlines() for block in blocks]


def test_readme_command_lines_run(capsys, monkeypatch, tmp_path):
    """Every ``lie-thomas`` line of README runs through ``cli.main`` with
    exit 0, in order and in one directory, so that ``solve --output
    family.json`` feeds ``verify --family family.json``; the one block that
    shows its output prints exactly that."""
    from lie_thomas.cli import main

    monkeypatch.chdir(tmp_path)
    ran = shown = 0
    for lines in _readme_command_blocks():
        commands = [line.removeprefix("$ ") for line in lines
                    if line.removeprefix("$ ").startswith("lie-thomas ")]
        for command in commands:
            assert main(shlex.split(command)[1:]) == 0, command
            ran += 1
        out = capsys.readouterr().out
        if lines[0].startswith("$ "):
            assert len(commands) == 1 and out == "\n".join(lines[1:]) + "\n", (lines, out)
            shown += 1
    assert ran == 9 and shown == 1 and (tmp_path / "family.json").is_file()


def test_console_script_is_the_cli_main():
    """pyproject's ``lie-thomas`` script names ``lie_thomas.cli:main``, and
    that object is the function the suite's CLI tests call."""
    import tomllib

    from lie_thomas import cli

    with open(os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml"), "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    module, _, attr = scripts["lie-thomas"].partition(":")
    assert getattr(importlib.import_module(module), attr) is cli.main


def test_every_package_error_is_a_domain_error_with_its_old_base():
    classes = _package_error_classes()
    assert set(classes) == set(_ERROR_BASES)
    for name, cls in classes.items():
        assert issubclass(cls, DomainError), name
        assert issubclass(cls, _ERROR_BASES[name]), name


def test_determining_reexports_the_params_names():
    from lie_thomas import determining, params

    assert determining.ThomasParams is params.ThomasParams
    assert determining.ParameterError is params.ParameterError


# names a module imports only so that its importers find them there; the
# lazy namespace in __init__ is made of such names
_REEXPORTS = {"determining": {"ParameterError", "ThomasParams"}}


def _bound_by_imports(nodes):
    """Names that the import statements among nodes bind (the __future__
    flags aside)."""
    bound = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    return bound


def _read_names(tree):
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def _unused_imports(source: str):
    """Names bound by the module-level imports of source that no name in it
    reads."""
    tree = ast.parse(source)
    return _bound_by_imports(tree.body) - _read_names(tree)


def _unused_local_imports(source: str):
    """(function, name) for each name that an import inside a function binds
    and that the function's body never reads."""
    unused = set()
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            dead = _bound_by_imports(ast.walk(fn)) - _read_names(fn)
            unused |= {(fn.name, name) for name in dead}
    return unused


def test_unused_import_scan_sees_a_dead_import():
    assert _unused_imports("import os\nfrom math import exp, log\nlog(os.sep)\n") == {"exp"}


_PKG = os.path.dirname(lie_thomas.__file__)


def _scanned_sources():
    """(directory, module name, source) of each module of the package and
    of each test file."""
    for directory in (_PKG, os.path.dirname(__file__)):
        for name in sorted(os.listdir(directory)):
            if name.endswith(".py"):
                with open(os.path.join(directory, name)) as fh:
                    yield directory, name[:-3], fh.read()


def test_no_module_imports_a_name_it_does_not_use():
    for directory, module, source in _scanned_sources():
        if directory == _PKG and module == "__init__":
            continue
        unused = _unused_imports(source) - (_REEXPORTS.get(module, set()) if directory == _PKG
                                            else set())
        assert not unused, (directory, module, sorted(unused))


def _dead_private_names(source: str):
    """Private names (_x, not __x__) that a module-level def, class or
    assignment of source binds and that no expression in it reads."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return {name for name in bound - read
            if name.startswith("_") and not name.startswith("__")}


def test_dead_private_name_scan_sees_a_dead_helper():
    probe = ("_A, _B = 1, 2\n_C: int = 3\n"
             "def _f():\n    return _A\n"
             "class _K:\n    pass\n"
             "def _g():\n    return _f() + _C\n")
    assert _dead_private_names(probe) == {"_B", "_K", "_g"}


def test_no_module_defines_a_private_name_it_does_not_read():
    pkg = os.path.dirname(lie_thomas.__file__)
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                assert not _dead_private_names(fh.read()), name


def test_no_function_imports_a_name_it_does_not_use():
    probe = "def f():\n    from math import exp, log\n    return log(2)\n"
    assert _unused_local_imports(probe) == {("f", "exp")}
    for directory, module, source in _scanned_sources():
        assert not _unused_local_imports(source), (directory, module)
