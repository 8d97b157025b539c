"""Command-line front end.

Subcommands cover the full pipeline: derive the determining system, print
the algebra tables, classify a vector, reduce a canonical case, build a
solution family, verify it on a grid, and generate independent oracle
solutions.  Output formats: text, latex, json, csv (env default via
LIE_THOMAS_FORMAT).  Exit codes: 0 success, 2 usage, 3 domain/math error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import random
import sys
from fractions import Fraction

# Each command imports the modules it runs inside its own function, so a
# cold start loads only those: the numeric commands never load the symbolic
# stack, and derive/tables/classify never load the numeric one.
from .errors import DomainError
from .expr import Rat
from .params import ThomasParams

SCHEMA = "lie-thomas/1"
FORMATS = ("text", "latex", "json", "csv")


class InputError(DomainError, ValueError):
    """A command-line value that is malformed or does not fit the command."""


_PROLONG_LABELS = {
    (1, 0): "phi^x",
    (0, 1): "phi^y",
    (1, 1): "phi^xy",
    (2, 0): "phi^xx",
    (0, 2): "phi^yy",
}


def _default_format() -> str:
    fmt = os.environ.get("LIE_THOMAS_FORMAT", "text")
    return fmt if fmt in FORMATS else "text"


_KIND_NAMES = {Fraction: "a rational", float: "a number", int: "an integer"}


def _convert(kind, text: str, flag: str):
    """kind(text) for kind Fraction, float or int; a malformed value is an
    InputError."""
    try:
        return kind(text)
    except ValueError:
        raise InputError("%s: %r is not %s" % (flag, text, _KIND_NAMES[kind])) from None


def _parse_params(text: str) -> ThomasParams:
    if text.strip().lower() == "symbolic":
        return ThomasParams()
    parts = [s.strip() for s in text.split(",")]
    if len(parts) != 3:
        raise InputError("--params wants 'alpha,beta,gamma' or 'symbolic'")
    return ThomasParams(*(_convert(Fraction, s, "--params") for s in parts))


def _parse_vector(text: str, flag: str = "--vector"):
    parts = [s.strip() for s in text.split(",")]
    if len(parts) != 4:
        raise InputError("%s wants four comma-separated rationals" % flag)
    return tuple(_convert(Fraction, s, flag) for s in parts)


def _parse_constants(text: str) -> dict:
    out = {}
    if not text:
        return out
    for item in text.split(","):
        if "=" not in item:
            raise InputError("--constants wants key=value pairs")
        key, _, val = item.partition("=")
        key = key.strip()
        val = val.strip()
        try:
            out[key] = Fraction(val)
        except ValueError:
            out[key] = val
    return out


def _parse_grid(text):
    """The --grid value as a GridSpec; the default grid when it is absent."""
    from .verification import GridSpec

    if not text:
        return GridSpec()
    parts = [s.strip() for s in text.split(",")]
    if len(parts) != 6:
        raise InputError("--grid wants xmin,xmax,nx,ymin,ymax,ny")
    kinds = (float, float, int) * 2
    return GridSpec(*(_convert(kind, s, "--grid") for kind, s in zip(kinds, parts)))


def _parse_tolerance(text):
    if text is None:
        return None
    tol = _convert(float, text, "--tolerance")
    if not (math.isfinite(tol) and tol > 0):
        raise InputError("--tolerance: %r is not a finite positive number" % text)
    return tol


def _render_expr(e, fmt: str) -> str:
    from .printer import to_latex, to_text

    return to_latex(e) if fmt == "latex" else to_text(e)


def _element_str(el, fmt: str) -> str:
    """Linear-combination label for a basis table entry."""
    from .normal import is_zero

    one, minus_one = Rat(Fraction(1)), Rat(Fraction(-1))
    terms = []
    for i, coeff in enumerate(el.coords(), start=1):
        if is_zero(coeff):
            continue
        name = "v_{%d}" % i if fmt == "latex" else "v%d" % i
        if coeff == one:
            terms.append(name)
        elif coeff == minus_one:
            terms.append("-" + name)
        else:
            body = _render_expr(coeff, fmt)
            if fmt == "latex":
                terms.append("(%s) %s" % (body, name))
            else:
                terms.append("(%s)*%s" % (body, name))
    gpart = getattr(el, "g", None)
    if gpart is not None and not is_zero(gpart):
        body = _render_expr(gpart, fmt)
        terms.append("v_{%s}" % body if fmt == "latex" else "v[%s]" % body)
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += " - " + t[1:] if t.startswith("-") else " + " + t
    return out


def _param_dict(p: ThomasParams) -> dict:
    names = ("alpha", "beta", "gamma")
    if p.is_numeric():
        return {name: str(getattr(p, name).value) for name in names}
    from .printer import to_text

    return {name: to_text(getattr(p, name)) for name in names}


def _emit(args, payload_text: str) -> None:
    out = payload_text if payload_text.endswith("\n") else payload_text + "\n"
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=False)


def _csv_text(rows, header) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# --- derive -------------------------------------------------------------------


def _cmd_derive(args) -> int:
    from .determining import determining_equations
    from .jetpoly import mono_expr
    from .printer import to_text
    from .vectorfield import COEFF_KEYS, prolong, symbolic_field

    p = _parse_params(args.params)
    system = determining_equations(p)
    fmt = args.format
    if fmt == "json":
        rows = [
            {
                "monomial": to_text(mono_expr(m)),
                "coefficient": to_text(c),
            }
            for m, c in system.rows
        ]
        doc = {"schema": SCHEMA, "kind": "determining-system",
               "params": _param_dict(p), "rows": rows}
        if args.show_prolongation:
            pf = prolong(symbolic_field())
            doc["prolongation"] = {
                _PROLONG_LABELS[k]: to_text(pf.coefficient(k).to_expr())
                for k in COEFF_KEYS
            }
        _emit(args, _json_dump(doc))
        return 0
    if fmt == "csv":
        rows = [(to_text(mono_expr(m)), to_text(c)) for m, c in system.rows]
        _emit(args, _csv_text(rows, ("monomial", "coefficient")))
        return 0
    lines = []
    if args.show_prolongation:
        pf = prolong(symbolic_field())
        lines.append("prolongation coefficients:")
        for k in COEFF_KEYS:
            label = _PROLONG_LABELS[k]
            body = _render_expr(pf.coefficient(k).to_expr(), fmt)
            if fmt == "latex":
                label = "\\%s" % label.replace("phi", "varphi")
            lines.append("  %s = %s" % (label, body))
        lines.append("")
    lines.append("determining system (coefficient = 0 for each monomial):")
    for m, c in system.rows:
        mono = _render_expr(mono_expr(m), fmt)
        body = _render_expr(c, fmt)
        lines.append("  [%s]  %s = 0" % (mono, body))
    _emit(args, "\n".join(lines))
    return 0


# --- tables -------------------------------------------------------------------


def _cmd_tables(args) -> int:
    from .algebra import adjoint_table, commutator_table

    p = _parse_params(args.params)
    fmt = args.format
    comm = commutator_table(p)
    adj = adjoint_table(p)
    basis = ["v1", "v2", "v3", "v4", "v[g]"]
    if fmt == "json":
        doc = {
            "schema": SCHEMA,
            "kind": "tables",
            "params": _param_dict(p),
            "basis": basis,
            "commutator": [[_element_str(e, "text") for e in row] for row in comm],
            "adjoint": [[_element_str(e, "text") for e in row] for row in adj],
        }
        _emit(args, _json_dump(doc))
        return 0
    if fmt == "csv":
        rows = []
        for i, row in enumerate(comm):
            for j, e in enumerate(row):
                rows.append(("commutator", basis[i], basis[j], _element_str(e, "text")))
        for i, row in enumerate(adj):
            for j, e in enumerate(row):
                rows.append(("adjoint", basis[i], basis[j], _element_str(e, "text")))
        _emit(args, _csv_text(rows, ("table", "row", "col", "entry")))
        return 0
    lines = ["commutator table [row, col]:"]
    for i, row in enumerate(comm):
        for j, e in enumerate(row):
            lines.append("  [%s, %s] = %s" % (basis[i], basis[j], _element_str(e, fmt)))
    lines.append("")
    lines.append("adjoint table Ad(exp(eps*row)) col:")
    for i, row in enumerate(adj):
        for j, e in enumerate(row):
            lines.append(
                "  Ad(exp(eps*v%d)) v%d = %s" % (i + 1, j + 1, _element_str(e, fmt))
            )
    _emit(args, "\n".join(lines))
    return 0


# --- classify -----------------------------------------------------------------


def _cmd_classify(args) -> int:
    from .algebra import AlgebraElement
    from .classifier import classify

    p = _parse_params(args.params)
    vec = _parse_vector(args.vector)
    case = classify(AlgebraElement(*vec), p)
    word_float = [[op, float(val)] for op, val in case.word]
    canonical = [str(c) for c in case.coords]
    if args.format == "json":
        doc = {
            "schema": SCHEMA,
            "kind": "classification",
            "tag": case.tag,
            "word": word_float,
            "canonical": canonical,
            "input": [str(c) for c in vec],
            "params": _param_dict(p),
        }
        _emit(args, _json_dump(doc))
        return 0
    if args.format == "csv":
        rows = [(case.tag, ";".join("%s:%s" % (op, val) for op, val in case.word),
                 ",".join(canonical))]
        _emit(args, _csv_text(rows, ("tag", "word", "canonical")))
        return 0
    lines = [
        "input vector: (%s)" % ", ".join(str(c) for c in vec),
        "tag: %s" % case.tag,
        "adjoint word: %s"
        % (" ".join("%s(%s)" % (op, val) for op, val in case.word) or "(empty)"),
        "canonical coordinates: (%s)" % ", ".join(canonical),
    ]
    _emit(args, "\n".join(lines))
    return 0


# --- reduce -------------------------------------------------------------------


def _default_coords(tag: str, p: ThomasParams):
    alpha, beta, gamma = (getattr(p, n) for n in ("alpha", "beta", "gamma"))

    def f(v):
        return v.value if p.is_numeric() else None

    table = {
        "Case1": (0, 0, 0, 1),
        "Case2_1a": (1, 2, 1, 0),
        "Case2_1b": (-1, -1, 1, 0),
        "Case2_2": (1, 0, 1, 0),
        "Case2_4": (0, 0, 1, 0),
        "Case3_1b": (1, 2, 0, 0),
        "Case3_2": (0, 1, 0, 0),
    }
    if tag in table:
        return tuple(Fraction(c) for c in table[tag])
    if tag == "Case2_3":
        if not p.is_numeric():
            raise InputError("Case2_3 default coordinates need numeric parameters")
        if f(beta) == 0:
            raise InputError("Case2_3 needs beta != 0")
        return (-f(gamma) / f(beta), Fraction(0), Fraction(1), Fraction(0))
    if tag == "Case3_1a":
        if not p.is_numeric():
            raise InputError("Case3_1a default coordinates need numeric parameters")
        if f(alpha) == 0:
            raise InputError("Case3_1a needs alpha != 0")
        return (Fraction(1), f(beta) / f(alpha), Fraction(0), Fraction(0))
    raise InputError("no default coordinates for tag %r" % tag)


def _cmd_reduce(args) -> int:
    from .algebra import AlgebraElement
    from .classifier import CanonicalCase, classify
    from .printer import to_text
    from .reduction import ReductionError, invariants, reduced_ode

    p = _parse_params(args.params)
    if args.vector:
        case = classify(AlgebraElement(*_parse_vector(args.vector)), p)
    elif args.case:
        coords = (
            _parse_vector(args.coords, "--coords")
            if args.coords
            else _default_coords(args.case, p)
        )
        case = CanonicalCase(args.case, coords, ())
    else:
        raise InputError("reduce wants --vector or --case")
    pair = invariants(case, p)
    fmt = args.format
    ode_doc = None
    ode_err = None
    try:
        ode = reduced_ode(case, p)
        ode_doc = {
            "order": ode.order,
            "dependent": ode.dependent,
            "kind": ode.kind,
            "lhs": to_text(ode.lhs),
            "note": ode.note,
            "aux": [[k, to_text(v)] for k, v in ode.aux],
        }
    except ReductionError as exc:
        ode_err = str(exc)
    if fmt == "json":
        doc = {
            "schema": SCHEMA,
            "kind": "reduction",
            "tag": case.tag,
            "canonical": [str(c) for c in case.coords],
            "chi": to_text(pair.chi),
            "varsigma": to_text(pair.varsigma),
            "domain": pair.domain,
            "ode": ode_doc,
            "obstruction": ode_err,
            "params": _param_dict(p),
        }
        _emit(args, _json_dump(doc))
        return 0
    if fmt == "csv":
        rows = [(case.tag, to_text(pair.chi), to_text(pair.varsigma),
                 ode_doc["kind"] if ode_doc else "none",
                 ode_doc["lhs"] if ode_doc else (ode_err or ""))]
        _emit(args, _csv_text(rows, ("tag", "chi", "varsigma", "ode_kind", "ode_lhs")))
        return 0
    lines = [
        "tag: %s" % case.tag,
        "canonical coordinates: (%s)" % ", ".join(str(c) for c in case.coords),
        "chi = %s" % _render_expr(pair.chi, fmt),
        "varsigma = %s" % _render_expr(pair.varsigma, fmt),
        "domain: %s" % pair.domain,
    ]
    if ode_doc is not None:
        lines.append(
            "reduced ODE (order %d in %s, %s): %s = 0"
            % (ode_doc["order"], ode_doc["dependent"], ode_doc["kind"],
               _render_expr(ode.lhs, fmt))
        )
        if ode_doc["note"]:
            lines.append("note: %s" % ode_doc["note"])
        for k, v in ode.aux:
            lines.append("  %s = %s" % (k, _render_expr(v, fmt)))
    else:
        lines.append("no reduction: %s" % ode_err)
    _emit(args, "\n".join(lines))
    return 0


# --- solve / verify -----------------------------------------------------------


def _build_family(args, p: ThomasParams):
    from . import families

    constants = _parse_constants(args.constants or "")
    key = getattr(args, "family_builder", None)
    if key is None:
        if args.case is None:
            raise InputError("wanted --case TAG (or --family KEY)")
        if args.case == "Case2_3":
            raise families.FamilyError(
                "Case2_3 is obstructed: the reduction forces alpha*beta = 0"
            )
        key = families.TAG_BUILDERS.get(args.case)
        if key is None:
            raise InputError("no solution family for tag %r" % args.case)
        if key == "constant":
            constants.setdefault("tag", args.case)
    builder = families.SOLUTION_BUILDERS[key]
    return builder(p, **constants)


def _grid_rows(fam, grid):
    rows = []
    for x, y in grid.points():
        if fam.domain(x, y):
            rows.append((x, y, float(fam(x, y))))
    return rows


def _cmd_solve(args) -> int:
    p = _parse_params(args.params)
    fam = _build_family(args, p)
    fmt = args.format
    if fmt == "csv":
        from .verification import VerificationError

        rows = _grid_rows(fam, _parse_grid(args.grid))
        if not rows:
            raise VerificationError("domain excludes every grid point")
        _emit(args, _csv_text(rows, ("x", "y", "u")))
        return 0
    doc = fam.descriptor()
    doc["digest"] = fam.digest()
    if fmt == "json":
        _emit(args, _json_dump(doc))
        return 0
    lines = [
        "family: %s (tag %s)" % (fam.family, fam.tag),
        "constants: %s" % json.dumps(doc["constants"], sort_keys=True),
        "note: %s" % fam.note,
        "descriptor digest: %s" % doc["digest"],
        "descriptor: %s" % fam.descriptor_json(),
    ]
    _emit(args, "\n".join(lines))
    return 0


def _cmd_verify(args) -> int:
    from .families import from_descriptor
    from .verification import residual_grid

    if args.family:
        with (sys.stdin if args.family == "-" else open(args.family)) as fh:
            try:
                desc = json.load(fh)
            except ValueError as exc:
                raise InputError("--family: descriptor is not JSON (%s)" % exc) from None
        fam = from_descriptor(desc)
        p = fam.params
    else:
        p = _parse_params(args.params)
        fam = _build_family(args, p)
    report = residual_grid(fam, p, _parse_grid(args.grid))
    tol = _parse_tolerance(args.tolerance)
    passed = None if tol is None else report.max_residual < tol
    fmt = args.format
    if fmt == "json":
        doc = {
            "schema": SCHEMA,
            "kind": "verification",
            "family": fam.descriptor(),
            "digest": fam.digest(),
            "max_residual": report.max_residual,
            "worst_point": list(report.worst_point),
            "evaluated": report.evaluated,
            "skipped": report.skipped,
            "tolerance": tol,
            "pass": passed,
        }
        _emit(args, _json_dump(doc))
    elif fmt == "csv":
        rows = [(fam.tag, fam.digest(), report.max_residual,
                 report.worst_point[0], report.worst_point[1],
                 report.evaluated, report.skipped)]
        _emit(args, _csv_text(rows, ("tag", "digest", "max_residual",
                                     "worst_x", "worst_y", "evaluated", "skipped")))
    else:
        lines = [
            "family: %s (tag %s)" % (fam.family, fam.tag),
            "digest: %s" % fam.digest(),
            str(report),
        ]
        if tol is not None:
            lines.append("tolerance %.3e: %s" % (tol, "pass" if passed else "FAIL"))
        _emit(args, "\n".join(lines))
    if passed is False:
        print("error[tolerance]: max residual %.3e exceeds %.3e"
              % (report.max_residual, tol), file=sys.stderr)
        return 3
    return 0


# --- oracle -------------------------------------------------------------------


def _cmd_oracle(args) -> int:
    from .families import SolutionFamily
    from .verification import oracle_solutions, residual_grid

    p = _parse_params(args.params)
    if args.count < 1:
        raise InputError("--count: %d is not a positive integer" % args.count)
    rng = random.Random(args.seed)
    sols = oracle_solutions(p, args.count, rng)
    grid = _parse_grid(args.grid)
    records = []
    for u in sols:
        fam = SolutionFamily(
            "oracle", "oracle", p, {}, u, lambda x, y: True,
            note="exponential-mix exact solution",
        )
        report = residual_grid(fam, p, grid)
        records.append((u.modes, report))
    if args.format == "json":
        doc = {
            "schema": SCHEMA,
            "kind": "oracle",
            "params": _param_dict(p),
            "seed": args.seed,
            "solutions": [
                {
                    "modes": [[lam, mu, c] for lam, mu, c in modes],
                    "max_residual": rep.max_residual,
                    "evaluated": rep.evaluated,
                }
                for modes, rep in records
            ],
        }
        _emit(args, _json_dump(doc))
        return 0
    if args.format == "csv":
        rows = [
            (i, len(modes), rep.max_residual, rep.evaluated)
            for i, (modes, rep) in enumerate(records)
        ]
        _emit(args, _csv_text(rows, ("index", "modes", "max_residual", "evaluated")))
        return 0
    lines = []
    for i, (modes, rep) in enumerate(records):
        mode_text = ", ".join(
            "(lambda=%.4g, mu=%.4g, c=%.4g)" % (lam, mu, c) for lam, mu, c in modes
        )
        lines.append("oracle %d: %s" % (i, mode_text))
        lines.append("  %s" % rep)
    _emit(args, "\n".join(lines))
    return 0


# --- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lie-thomas",
        description="Point-symmetry pipeline for u_xy + alpha*u_x + beta*u_y "
        "+ gamma*u_x*u_y = 0",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=FORMATS, default=_default_format(),
        help="output format (default from LIE_THOMAS_FORMAT, else text)",
    )
    common.add_argument("--output", help="write output to this path instead of stdout")

    sub = parser.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("derive", parents=[common],
                        help="determining system for the symmetry generators")
    sp.add_argument("--params", default="symbolic")
    sp.add_argument("--show-prolongation", action="store_true")
    sp.set_defaults(func=_cmd_derive)

    sp = sub.add_parser("tables", parents=[common],
                        help="commutator and adjoint tables")
    sp.add_argument("--params", default="symbolic")
    sp.set_defaults(func=_cmd_tables)

    sp = sub.add_parser("classify", parents=[common],
                        help="canonical case of a symmetry vector")
    sp.add_argument("--vector", required=True, help="a1,a2,a3,a4 (rationals)")
    sp.add_argument("--params", default="1,1,1")
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("reduce", parents=[common],
                        help="invariants and reduced ODE of a canonical case")
    sp.add_argument("--vector", help="classify this vector first")
    sp.add_argument("--case", help="canonical tag, e.g. Case2_1a")
    sp.add_argument("--coords", help="override canonical coordinates a1,a2,a3,a4")
    sp.add_argument("--params", default="symbolic")
    sp.set_defaults(func=_cmd_reduce)

    sp = sub.add_parser("solve", parents=[common],
                        help="build an invariant solution family")
    sp.add_argument("--case", help="canonical tag")
    sp.add_argument("--family", dest="family_builder",
                    help="builder key (overrides --case)")
    sp.add_argument("--params", default="1,1,1")
    sp.add_argument("--constants", help="key=value,... builder constants")
    sp.add_argument("--grid", help="xmin,xmax,nx,ymin,ymax,ny (csv sampling)")
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("verify", parents=[common],
                        help="grid residual check of a family")
    sp.add_argument("--family", help="descriptor JSON path, or - for stdin")
    sp.add_argument("--case", help="canonical tag (build like solve)")
    sp.add_argument("--params", default="1,1,1")
    sp.add_argument("--constants", help="key=value,... builder constants")
    sp.add_argument("--grid", help="xmin,xmax,nx,ymin,ymax,ny")
    sp.add_argument("--tolerance", help="fail (exit 3) above this residual")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("oracle", parents=[common],
                        help="independent exact solutions from the exponential mix")
    sp.add_argument("--params", default="1,1,1")
    sp.add_argument("--count", type=int, default=3)
    sp.add_argument("--seed", type=int, default=20260815)
    sp.add_argument("--grid", help="xmin,xmax,nx,ymin,ymax,ny")
    sp.set_defaults(func=_cmd_oracle)

    return parser


def _join_grid(argv) -> list:
    """Rewrite ``--grid VALUE`` as ``--grid=VALUE``: argparse would read a
    separate value that starts with '-' (a negative xmin) as an option."""
    out = []
    for a in argv:
        if out and out[-1] == "--grid" and not a.startswith("--"):
            out[-1] = "--grid=" + a
        else:
            out.append(a)
    return out


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_grid(sys.argv[1:] if argv is None else argv))
    return args.func(args)


def main(argv=None) -> int:
    try:
        return run(argv)
    except SystemExit as exc:  # argparse usage failure
        code = exc.code if isinstance(exc.code, int) else 2
        return code
    except (DomainError, ZeroDivisionError) as exc:
        print("error[%s]: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
