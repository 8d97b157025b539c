"""Command-line front end.

Subcommands cover the full pipeline: derive the determining system, print
the algebra tables, classify a vector, reduce a canonical case, build a
solution family, verify it on a grid, and generate independent oracle
solutions.  Each command builds one document, which _render writes as
text, latex, json or csv (--format, default text).  run() parses --params
once, so every command reads its ThomasParams in args.params; derive,
tables and reduce default it to symbolic, the others to 1,1,1.  reduce
--case reduces the tag's default coordinates in the case table (`cases`),
and every family that solve or verify builds or reads has its vector
checked: each refuses a vector that is not canonical for its tag there.
verify refuses a descriptor whose digest is not its content's.
Exit codes: 0 success, 2 usage, 3 domain/math error.  The math errors are
caught here, in ``main``, for every command: a ZeroDivisionError or a
float OverflowError from a builder, a domain test or an evaluator exits 3
with its one ``error[...]`` line, as the package's own errors do.
"""

from __future__ import annotations

import argparse
import io
import json
import math
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


_KIND_NAMES = {Fraction: "a rational", float: "a number", int: "an integer"}


def _convert(kind, text: str, flag: str):
    """kind(text) for kind Fraction, float or int; a malformed value is an
    InputError."""
    try:
        return kind(text)
    except (ValueError, ZeroDivisionError):
        raise InputError("%s: %r is not %s" % (flag, text, _KIND_NAMES[kind])) from None


def _parse_params(text: str) -> ThomasParams:
    if text.strip().lower() == "symbolic":
        return ThomasParams()
    parts = [s.strip() for s in text.split(",")]
    if len(parts) != 3:
        raise InputError("--params wants 'alpha,beta,gamma' or 'symbolic'")
    return ThomasParams(*(_convert(Fraction, s, "--params") for s in parts))


def _parse_vector(text: str):
    parts = [s.strip() for s in text.split(",")]
    if len(parts) != 4:
        raise InputError("--vector wants four comma-separated rationals")
    return tuple(_convert(Fraction, s, "--vector") for s in parts)


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
            q = Fraction(val)
        except (ValueError, ZeroDivisionError):
            out[key] = val
            continue
        try:
            float(q)  # every numeric constant is used as a float
        except OverflowError:
            raise InputError("--constants: %r is too large for a float" % item.strip()) from None
        out[key] = q
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
    from .printer import join_signed

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
    return join_signed(terms) if terms else "0"


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
        import csv  # here, so that the other formats never load it

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
        try:
            with open(args.output, "w") as fh:
                fh.write(out)
        except OSError as exc:
            raise InputError("--output: cannot write %s (%s)"
                             % (args.output, exc.strerror)) from None
    else:
        sys.stdout.write(out)


# --- derive -------------------------------------------------------------------


def _certificate(p: ThomasParams) -> dict:
    """check_symmetry's flag for v1..v4 and one exponential v_g at p, and
    the g of that v_g (exponential_g at lam = 1, or 2 where beta = -1, so
    that lam + beta is nonzero)."""
    from .determining import check_symmetry, exponential_g, v1, v2, v3, v4, v_g

    g, _ = exponential_g(2 if p.beta == Rat(-1) else 1, p)
    fields = {"v1": v1(), "v2": v2(), "v3": v3(), "v4": v4(p), "v_g": v_g(g, p)}
    return {"g": g, "symmetry": {name: check_symmetry(vf, p)[0] for name, vf in fields.items()}}


def _cmd_derive(args) -> int:
    from .determining import determining_equations
    from .jetpoly import mono_expr
    from .vectorfield import COEFF_KEYS, prolong, symbolic_field

    if args.show_prolongation and args.format == "csv":
        raise InputError("--show-prolongation has no csv form; use text, latex or json")
    p = args.params
    rows = [(mono_expr(m), c) for m, c in determining_equations(p).rows]
    doc = {"schema": SCHEMA, "kind": "determining-system", "params": _param_dict(p),
           "rows": [{"monomial": m, "coefficient": c} for m, c in rows]}
    if args.show_prolongation:
        pf = prolong(symbolic_field())
        doc["prolongation"] = {
            _PROLONG_LABELS[k]: pf.coefficient(k).to_expr() for k in COEFF_KEYS
        }
    doc["certificate"] = _certificate(p)

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
        cert = doc["certificate"]
        lines.append("symmetry certificate (v_g at g = %s): %s" % (
            _render_expr(cert["g"], fmt),
            ", ".join("%s %s" % (name, "pass" if ok else "FAIL")
                      for name, ok in cert["symmetry"].items())))
        return lines

    _render(args, doc, lambda: (("monomial", "coefficient"), rows), text)
    return 0


# --- tables -------------------------------------------------------------------


def _cmd_tables(args) -> int:
    from .algebra import adjoint_table, commutator_table

    p = args.params
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

    p = args.params
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
    from .cases import CASES

    coords = getattr(CASES.get(tag), "coords", None)
    if coords is None:
        raise InputError("no default coordinates for tag %r" % tag)
    if isinstance(coords[0], str):
        need, pinned = coords
        if not p.is_numeric():
            raise InputError("%s default coordinates need numeric parameters" % tag)
        params = _param_dict(p)
        if not params[need]:
            raise InputError("%s needs %s != 0" % (tag, need))
        coords = pinned(**params)
    return tuple(Fraction(c) for c in coords)


def _refuse_unless_canonical(tag: str, coords, given: str, p: ThomasParams) -> None:
    """Refuse coords, named by the text given, unless classify at numeric p
    gives them tag with an empty word; classify runs only to word a refusal."""
    from . import cases

    params = _param_dict(p).values()
    if cases.word(coords, params) == () and cases.tag(coords, params) == tag:
        return
    from .algebra import AlgebraElement
    from .classifier import classify

    case = classify(AlgebraElement(*coords), p)  # raises where the word is None
    raise InputError("%s (%s) is not a canonical %s vector; its form is %s (%s)" % (
        given, ", ".join(map(str, coords)), tag, case.tag, ", ".join(map(str, case.coords))))


def _cmd_reduce(args) -> int:
    from .algebra import AlgebraElement
    from .classifier import CanonicalCase, classify
    from .reduction import ReductionError, invariants, reduced_ode

    p = args.params
    if args.vector and args.case:
        raise InputError("--vector picks its own case and would ignore --case; give one of them")
    if args.vector:
        case = classify(AlgebraElement(*_parse_vector(args.vector)), p)
    elif args.case:
        coords = _default_coords(args.case, p)
        if p.is_numeric():  # symbolic params cannot classify the default
            _refuse_unless_canonical(args.case, coords, "--case: the default", p)
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


def _checked_family(fam, flag: str):
    """fam, once its vector (its tag's default coordinates with its own a1
    and a2 in place) passes reduce --case's check; a refusal names flag."""
    try:
        default = _default_coords(fam.tag, fam.params)
    except InputError as exc:  # the tag has no vector at these params
        raise InputError("%s: %s" % (flag, exc)) from None
    coords = tuple(Fraction(fam.constants.get(name, c))
                   for name, c in zip(("a1", "a2", "a3", "a4"), default))
    _refuse_unless_canonical(fam.tag, coords, flag + ": the family's vector", fam.params)
    return fam


def _build_family(args, p: ThomasParams):
    """The checked family of --family KEY, or of --case TAG by its builder."""
    from . import families
    from .cases import CASES

    constants = _parse_constants(args.constants or "")
    key, flag = getattr(args, "family_builder", None), "--family"
    if key is None:
        if args.case is None:
            raise InputError("wanted --case TAG (or --family KEY)")
        note = getattr(CASES.get(args.case), "obstruction", "")
        if note:
            raise families.FamilyError("%s is obstructed: %s" % (args.case, note))
        key, flag = families.TAG_BUILDERS.get(args.case), "--case"
        if key is None:
            raise InputError("no solution family for tag %r" % args.case)
    elif key not in families.SOLUTION_BUILDERS:
        raise InputError("--family: %r is not one of %s"
                         % (key, ", ".join(families.SOLUTION_BUILDERS)))
    fam = families.build_family(key, p, constants)
    if flag == "--case" and fam.tag != args.case:
        raise InputError("--case %s: the family is tagged %s" % (args.case, fam.tag))
    return _checked_family(fam, flag)


def _cmd_solve(args) -> int:
    fam = _build_family(args, args.params)
    doc = fam.descriptor()
    doc["digest"] = fam.digest()

    def table():
        from .verification import VerificationError

        rows = [(x, y, float(fam(x, y)))
                for x, y in _parse_grid(args.grid).points() if fam.domain(x, y)]
        if not rows:
            raise VerificationError("domain excludes every grid point")
        for x, y, u in rows:
            if not math.isfinite(u):
                raise VerificationError("the family has no finite value at (%r, %r)" % (x, y))
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
    """The JSON value in the --family file, or on stdin for '-', which is
    read and left open: it belongs to the caller."""
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError("--family: cannot read %s (%s)" % (path, exc.strerror)) from None
    except ValueError as exc:
        raise InputError("--family: descriptor is not JSON (%s)" % exc) from None


def _cmd_verify(args) -> int:
    from .families import from_descriptor
    from .verification import residual_grid

    if args.family:
        d = _read_descriptor(args.family)
        fam = _checked_family(from_descriptor(d), "--family")
    else:
        d, fam = {}, _build_family(args, args.params)
    digest = fam.digest()
    # a descriptor's digest must be its content's (one with no digest verifies)
    if d.get("digest", digest) != digest:
        raise InputError("--family: the descriptor's digest %s is not its content's %s"
                         % (d["digest"], digest))
    report = residual_grid(fam, fam.params, _parse_grid(args.grid))
    tol = _parse_tolerance(args.tolerance)
    passed = None if tol is None else report.max_residual < tol
    doc = {
        "schema": SCHEMA,
        "kind": "verification",
        "family": fam.descriptor(),
        "digest": digest,
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
    return _unbounded(report, "the family")


def _unbounded(report, what: str) -> int:
    """Exit code 3, with its error line, where the report's residual is not
    finite (some evaluated point gave inf or NaN), else 0: a residual that
    has no bound fails without a tolerance too."""
    if math.isfinite(report.max_residual):
        return 0
    print("error[residual]: %s has no finite residual at (%r, %r)"
          % ((what,) + tuple(report.worst_point)), file=sys.stderr)
    return 3


# --- oracle -------------------------------------------------------------------


def _cmd_oracle(args) -> int:
    from .verification import oracle_solutions, residual_grid

    p = args.params
    if args.count < 1:
        raise InputError("--count: %d is not a positive integer" % args.count)
    rng = random.Random(args.seed)
    sols = oracle_solutions(p, args.count, rng)
    grid = _parse_grid(args.grid)
    records = [(u.modes, residual_grid(u, p, grid)) for u in sols]
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
    for i, (_, rep) in enumerate(records):
        if _unbounded(rep, "oracle %d" % i):
            return 3
    return 0


# --- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lie-thomas",
        description="Point-symmetry pipeline for u_xy + alpha*u_x + beta*u_y "
        "+ gamma*u_x*u_y = 0",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="text",
                        help="output format (default text)")
    common.add_argument("--output", help="write output to this path instead of stdout")
    # --params, declared once per default; run() parses it
    symbolic, numeric = (argparse.ArgumentParser(add_help=False, parents=[common])
                         for _ in range(2))
    for parent, default in ((symbolic, "symbolic"), (numeric, "1,1,1")):
        parent.add_argument("--params", default=default,
                            help="alpha,beta,gamma or symbolic (default %(default)s)")

    sub = parser.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("derive", parents=[symbolic],
                        help="determining system for the symmetry generators")
    sp.add_argument("--show-prolongation", action="store_true")
    sp.set_defaults(func=_cmd_derive)

    sp = sub.add_parser("tables", parents=[symbolic],
                        help="commutator and adjoint tables")
    sp.set_defaults(func=_cmd_tables)

    sp = sub.add_parser("classify", parents=[numeric],
                        help="canonical case of a symmetry vector")
    sp.add_argument("--vector", required=True, help="a1,a2,a3,a4 (rationals)")
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("reduce", parents=[symbolic],
                        help="invariants and reduced ODE of a canonical case")
    sp.add_argument("--vector", help="classify this vector first")
    sp.add_argument("--case", help="canonical tag, e.g. Case2_1a")
    sp.set_defaults(func=_cmd_reduce)

    sp = sub.add_parser("solve", parents=[numeric],
                        help="build an invariant solution family")
    sp.add_argument("--case", help="canonical tag")
    sp.add_argument("--family", dest="family_builder",
                    help="builder key (overrides --case)")
    sp.add_argument("--constants", help="key=value,... builder constants")
    sp.add_argument("--grid", help="xmin,xmax,nx,ymin,ymax,ny (csv sampling)")
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("verify", parents=[numeric],
                        help="grid residual check of a family")
    sp.add_argument("--family", help="descriptor JSON path, or - for stdin")
    sp.add_argument("--case", help="canonical tag (build like solve)")
    sp.add_argument("--constants", help="key=value,... builder constants")
    sp.add_argument("--grid", help="xmin,xmax,nx,ymin,ymax,ny")
    sp.add_argument("--tolerance", help="fail (exit 3) above this residual")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("oracle", parents=[numeric],
                        help="independent exact solutions from the exponential mix")
    sp.add_argument("--count", type=int, default=3)
    sp.add_argument("--seed", type=int, default=20260815)
    sp.add_argument("--grid", help="xmin,xmax,nx,ymin,ymax,ny")
    sp.set_defaults(func=_cmd_oracle)

    return parser


def _join_values(argv) -> list:
    """Rewrite ``--name -VALUE`` as ``--name=-VALUE`` for every option:
    argparse would read a separate value that starts with '-' (a negative
    number) as an option.  -h is the only option spelled with one '-'; a
    flag that takes no value rejects the joined form as it rejected the
    stray value."""
    out = []
    for a in argv:
        prev = out[-1] if out else ""
        dashed = a[:1] == "-" and a[:2] != "--" and a != "-h"
        if dashed and prev[:2] == "--" and "=" not in prev:
            out[-1] = prev + "=" + a
        else:
            out.append(a)
    return out


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_values(sys.argv[1:] if argv is None else argv))
    args.params = _parse_params(args.params)
    return args.func(args)


def main(argv=None) -> int:
    try:
        return run(argv)
    except SystemExit as exc:  # argparse usage failure
        code = exc.code if isinstance(exc.code, int) else 2
        return code
    except (DomainError, ArithmeticError) as exc:
        print("error[%s]: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
