"""Command-line front end.

Subcommands cover the full pipeline: derive the determining system, print
the algebra tables, classify a vector, reduce a canonical case, build a
solution family, verify it on a grid, and generate independent oracle
solutions.  Each command builds one document, which _render writes as
text, latex, json or csv (--format; env default via LIE_THOMAS_FORMAT).
Exit codes: 0 success, 2 usage, 3 domain/math error.
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
    if el.has_g():
        body = _render_expr(el.g, fmt)
        terms.append("v_{%s}" % body if fmt == "latex" else "v[%s]" % body)
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += " - " + t[1:] if t.startswith("-") else " + " + t
    return out


def _param_dict(p: ThomasParams) -> dict:
    """The equation constants as document leaves: their Fractions when
    numeric, so that printing them needs no printer, else the symbols."""
    return {name: v.value if isinstance(v, Rat) else v
            for name, v in (("alpha", p.alpha), ("beta", p.beta), ("gamma", p.gamma))}


def _render(args, doc, table, text) -> None:
    """Write a command's result in its --format, to --output or stdout.

    doc is the JSON document; its Expr and Fraction leaves print through
    str, as csv.writer prints them too.  table() gives the CSV (header,
    rows) and text(fmt) the text or LaTeX lines; each is built only for
    its own format."""
    if args.format == "json":
        out = json.dumps(doc, indent=2, default=str)
    elif args.format == "csv":
        header, rows = table()
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        out = buf.getvalue()
    else:
        out = "\n".join(text(args.format))
    if not out.endswith("\n"):
        out += "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


# --- derive -------------------------------------------------------------------


def _cmd_derive(args) -> int:
    from .determining import determining_equations
    from .jetpoly import mono_expr
    from .vectorfield import COEFF_KEYS, prolong, symbolic_field

    p = _parse_params(args.params)
    rows = [(mono_expr(m), c) for m, c in determining_equations(p).rows]
    doc = {"schema": SCHEMA, "kind": "determining-system", "params": _param_dict(p),
           "rows": [{"monomial": m, "coefficient": c} for m, c in rows]}
    if args.show_prolongation:
        pf = prolong(symbolic_field())
        doc["prolongation"] = {
            _PROLONG_LABELS[k]: pf.coefficient(k).to_expr() for k in COEFF_KEYS
        }

    def text(fmt):
        lines = []
        if args.show_prolongation:
            lines.append("prolongation coefficients:")
            for label, body in doc["prolongation"].items():
                if fmt == "latex":
                    label = "\\%s" % label.replace("phi", "varphi")
                lines.append("  %s = %s" % (label, _render_expr(body, fmt)))
            lines.append("")
        lines.append("determining system (coefficient = 0 for each monomial):")
        lines += ["  [%s]  %s = 0" % (_render_expr(m, fmt), _render_expr(c, fmt))
                  for m, c in rows]
        return lines

    _render(args, doc, lambda: (("monomial", "coefficient"), rows), text)
    return 0


# --- tables -------------------------------------------------------------------


def _cmd_tables(args) -> int:
    from .algebra import adjoint_table, commutator_table

    p = _parse_params(args.params)
    comm = commutator_table(p)
    adj = adjoint_table(p)
    basis = ["v1", "v2", "v3", "v4", "v[g]"]
    doc = {
        "schema": SCHEMA,
        "kind": "tables",
        "params": _param_dict(p),
        "basis": basis,
        "commutator": [[_element_str(e, "text") for e in row] for row in comm],
        "adjoint": [[_element_str(e, "text") for e in row] for row in adj],
    }

    def table():
        rows = [(name, basis[i], basis[j], entry)
                for name in ("commutator", "adjoint")
                for i, row in enumerate(doc[name]) for j, entry in enumerate(row)]
        return ("table", "row", "col", "entry"), rows

    def text(fmt):
        lines = ["commutator table [row, col]:"]
        lines += ["  [%s, %s] = %s" % (basis[i], basis[j], _element_str(e, fmt))
                  for i, row in enumerate(comm) for j, e in enumerate(row)]
        lines += ["", "adjoint table Ad(exp(eps*row)) col:"]
        lines += ["  Ad(exp(eps*v%d)) v%d = %s" % (i + 1, j + 1, _element_str(e, fmt))
                  for i, row in enumerate(adj) for j, e in enumerate(row)]
        return lines

    _render(args, doc, table, text)
    return 0


# --- classify -----------------------------------------------------------------


def _cmd_classify(args) -> int:
    from .algebra import AlgebraElement
    from .classifier import classify

    p = _parse_params(args.params)
    vec = _parse_vector(args.vector)
    case = classify(AlgebraElement(*vec), p)
    doc = {
        "schema": SCHEMA,
        "kind": "classification",
        "tag": case.tag,
        "word": [[op, float(val)] for op, val in case.word],
        "canonical": list(case.coords),
        "input": list(vec),
        "params": _param_dict(p),
    }

    def table():
        word = ";".join("%s:%s" % w for w in case.word)
        return ("tag", "word", "canonical"), [(case.tag, word, ",".join(map(str, case.coords)))]

    _render(args, doc, table, lambda fmt: [
        "input vector: (%s)" % ", ".join(map(str, vec)),
        "tag: %s" % case.tag,
        "adjoint word: %s" % (" ".join("%s(%s)" % w for w in case.word) or "(empty)"),
        "canonical coordinates: (%s)" % ", ".join(map(str, case.coords)),
    ])
    return 0


# --- reduce -------------------------------------------------------------------


def _default_coords(tag: str, p: ThomasParams):
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
    if tag not in ("Case2_3", "Case3_1a"):
        raise InputError("no default coordinates for tag %r" % tag)
    if not p.is_numeric():
        raise InputError("%s default coordinates need numeric parameters" % tag)
    alpha, beta, gamma = (v.value for v in (p.alpha, p.beta, p.gamma))
    if tag == "Case2_3":
        if beta == 0:
            raise InputError("Case2_3 needs beta != 0")
        return (-gamma / beta, Fraction(0), Fraction(1), Fraction(0))
    if alpha == 0:
        raise InputError("Case3_1a needs alpha != 0")
    return (Fraction(1), beta / alpha, Fraction(0), Fraction(0))


def _cmd_reduce(args) -> int:
    from .algebra import AlgebraElement
    from .classifier import CanonicalCase, classify
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
    ode = ode_err = None
    try:
        ode = reduced_ode(case, p)
    except ReductionError as exc:
        ode_err = str(exc)
    doc = {
        "schema": SCHEMA,
        "kind": "reduction",
        "tag": case.tag,
        "canonical": list(case.coords),
        "chi": pair.chi,
        "varsigma": pair.varsigma,
        "domain": pair.domain,
        "ode": None if ode is None else {
            "order": ode.order,
            "dependent": ode.dependent,
            "kind": ode.kind,
            "lhs": ode.lhs,
            "note": ode.note,
            "aux": [list(kv) for kv in ode.aux],
        },
        "obstruction": ode_err,
        "params": _param_dict(p),
    }

    def text(fmt):
        lines = [
            "tag: %s" % case.tag,
            "canonical coordinates: (%s)" % ", ".join(map(str, case.coords)),
            "chi = %s" % _render_expr(pair.chi, fmt),
            "varsigma = %s" % _render_expr(pair.varsigma, fmt),
            "domain: %s" % pair.domain,
        ]
        if ode is None:
            return lines + ["no reduction: %s" % ode_err]
        lines.append("reduced ODE (order %d in %s, %s): %s = 0"
                     % (ode.order, ode.dependent, ode.kind, _render_expr(ode.lhs, fmt)))
        if ode.note:
            lines.append("note: %s" % ode.note)
        return lines + ["  %s = %s" % (k, _render_expr(v, fmt)) for k, v in ode.aux]

    _render(args, doc, lambda: (("tag", "chi", "varsigma", "ode_kind", "ode_lhs"), [(
        case.tag, pair.chi, pair.varsigma,
        ode.kind if ode else "none", ode.lhs if ode else ode_err,
    )]), text)
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
    elif key not in families.SOLUTION_BUILDERS:
        raise InputError("--family: %r is not one of %s"
                         % (key, ", ".join(families.SOLUTION_BUILDERS)))
    return families.build_family(key, p, constants)


def _cmd_solve(args) -> int:
    p = _parse_params(args.params)
    fam = _build_family(args, p)
    doc = fam.descriptor()
    doc["digest"] = fam.digest()

    def table():
        from .verification import VerificationError

        rows = [(x, y, float(fam(x, y)))
                for x, y in _parse_grid(args.grid).points() if fam.domain(x, y)]
        if not rows:
            raise VerificationError("domain excludes every grid point")
        return ("x", "y", "u"), rows

    _render(args, doc, table, lambda fmt: [
        "family: %s (tag %s)" % (fam.family, fam.tag),
        "constants: %s" % json.dumps(doc["constants"], sort_keys=True),
        "note: %s" % fam.note,
        "descriptor digest: %s" % doc["digest"],
        "descriptor: %s" % fam.descriptor_json(),
    ])
    return 0


def _read_descriptor(path: str):
    """The JSON value in the --family file, or on stdin for '-'."""
    try:
        with (sys.stdin if path == "-" else open(path)) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError("--family: cannot read %s (%s)" % (path, exc.strerror)) from None
    except ValueError as exc:
        raise InputError("--family: descriptor is not JSON (%s)" % exc) from None


def _cmd_verify(args) -> int:
    from .families import from_descriptor
    from .verification import residual_grid

    if args.family:
        fam = from_descriptor(_read_descriptor(args.family))
        p = fam.params
    else:
        p = _parse_params(args.params)
        fam = _build_family(args, p)
    report = residual_grid(fam, p, _parse_grid(args.grid))
    tol = _parse_tolerance(args.tolerance)
    passed = None if tol is None else report.max_residual < tol
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

    def text(fmt):
        lines = ["family: %s (tag %s)" % (fam.family, fam.tag),
                 "digest: %s" % doc["digest"], str(report)]
        if tol is not None:
            lines.append("tolerance %.3e: %s" % (tol, "pass" if passed else "FAIL"))
        return lines

    _render(args, doc, lambda: (
        ("tag", "digest", "max_residual", "worst_x", "worst_y", "evaluated", "skipped"),
        [(fam.tag, doc["digest"], report.max_residual, *report.worst_point,
          report.evaluated, report.skipped)],
    ), text)
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
    doc = {
        "schema": SCHEMA,
        "kind": "oracle",
        "params": _param_dict(p),
        "seed": args.seed,
        "solutions": [
            {
                "modes": [list(mode) for mode in modes],
                "max_residual": rep.max_residual,
                "evaluated": rep.evaluated,
            }
            for modes, rep in records
        ],
    }

    def text(fmt):
        lines = []
        for i, (modes, rep) in enumerate(records):
            mode_text = ", ".join(
                "(lambda=%.4g, mu=%.4g, c=%.4g)" % mode for mode in modes
            )
            lines += ["oracle %d: %s" % (i, mode_text), "  %s" % rep]
        return lines

    _render(args, doc, lambda: (("index", "modes", "max_residual", "evaluated"), [
        (i, len(modes), rep.max_residual, rep.evaluated)
        for i, (modes, rep) in enumerate(records)
    ]), text)
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
