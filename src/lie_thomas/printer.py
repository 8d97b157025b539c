"""Text and LaTeX rendering of expression trees."""

from __future__ import annotations

from .expr import Add, App, Expr, Func, Mul, Pow, Rat, Sym

_PREC_ADD, _PREC_MUL, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4

_GREEK = {
    "alpha": r"\alpha",
    "beta": r"\beta",
    "gamma": r"\gamma",
    "epsilon": r"\epsilon",
    "xi": r"\xi",
    "eta": r"\eta",
    "phi": r"\varphi",
    "chi": r"\chi",
    "sigma": r"\varsigma",
    "varsigma": r"\varsigma",
    "theta": r"\theta",
    "psi": r"\psi",
    "lambda": r"\lambda",
    "mu": r"\mu",
}


def join_signed(terms) -> str:
    """Rendered terms as one sum: a term after the first is written '- t'
    when it starts with a minus sign, else '+ t'."""
    parts = [terms[0]]
    for s in terms[1:]:
        parts.append("- " + s[1:].lstrip() if s.startswith("-") else "+ " + s)
    return " ".join(parts)


def _split_mul(e: Mul):
    """(numerator, denominator, numerator factors, denominator factors) of
    a collected product: its leading rational factor's numerator and
    denominator as ints (1 and 1 without one), and its other factors, a
    negative power put in the denominator."""
    factors = e.factors
    n = d = 1
    if type(factors[0]) is Rat:
        n, d = factors[0].value.numerator, factors[0].value.denominator
        factors = factors[1:]
    num, den = [], []
    for f in factors:
        if isinstance(f, Pow) and f.exp < 0:
            den.append(f.base if f.exp == -1 else Pow(f.base, -f.exp))
        else:
            num.append(f)
    return n, d, num, den


def _txt(e: Expr, prec: int) -> str:
    if isinstance(e, Rat):
        n, d = e.value.numerator, e.value.denominator
        s = str(n) if d == 1 else "%d/%d" % (n, d)
        need = _PREC_ADD if n < 0 else (_PREC_MUL if d != 1 else _PREC_ATOM)
        return "(" + s + ")" if prec > need else s
    if isinstance(e, Sym):
        return e.name
    if isinstance(e, Func):
        return e.name + e.suffix
    if isinstance(e, App):
        return e.fn + "(" + _txt(e.arg, _PREC_ADD) + ")"
    if isinstance(e, Pow):
        return _txt(e.base, _PREC_ATOM) + "^" + (
            str(e.exp) if e.exp >= 0 else "(" + str(e.exp) + ")"
        )
    if isinstance(e, Add):
        s = join_signed([_txt(t, _PREC_ADD) for t in e.terms])
        return "(" + s + ")" if prec > _PREC_ADD else s
    if isinstance(e, Mul):
        n, d, num, den = _split_mul(e)
        sign = "-" if n < 0 else ""
        n = abs(n)
        pieces = [str(n)] if n != 1 or not num else []
        pieces.extend(_txt(f, _PREC_MUL + 1) for f in num)
        s = "*".join(pieces)
        ds = [str(d)] if d != 1 else []
        ds.extend(_txt(f, _PREC_POW) for f in den)
        if ds:
            s = s + "/" + (ds[0] if len(ds) == 1 else "(" + "*".join(ds) + ")")
        s = sign + s
        need = _PREC_ADD if sign else _PREC_MUL
        return "(" + s + ")" if prec > need else s
    raise TypeError("cannot print %r" % type(e).__name__)


def to_text(e: Expr) -> str:
    return _txt(e, _PREC_ADD)


def _latex_name(name: str) -> str:
    if name in _GREEK:
        return _GREEK[name]
    if name.startswith("u_"):
        return "u_{" + name[2:] + "}"
    if "_" in name:
        head, _, tail = name.partition("_")
        return _latex_name(head) + "_{" + tail + "}"
    return name


def _ltx(e: Expr, prec: int) -> str:
    if isinstance(e, Rat):
        n, d = e.value.numerator, e.value.denominator
        s = str(n) if d == 1 else ("-" if n < 0 else "") + r"\frac{%d}{%d}" % (abs(n), d)
        return "(" + s + ")" if prec > _PREC_ADD and n < 0 else s
    if isinstance(e, Sym):
        return _latex_name(e.name)
    if isinstance(e, Func):
        return _latex_name(e.name + e.suffix)
    if isinstance(e, App):
        return "\\" + e.fn + r"\left(" + _ltx(e.arg, _PREC_ADD) + r"\right)"
    if isinstance(e, Pow):
        return _ltx(e.base, _PREC_ATOM) + "^{" + str(e.exp) + "}"
    if isinstance(e, Add):
        s = join_signed([_ltx(t, _PREC_ADD) for t in e.terms])
        return r"\left(" + s + r"\right)" if prec > _PREC_ADD else s
    if isinstance(e, Mul):
        n, d, num, den = _split_mul(e)
        sign = "-" if n < 0 else ""
        n = abs(n)
        num_parts = [str(n)] if n != 1 or (not num and d == 1) else []
        num_parts.extend(_ltx(f, _PREC_MUL + 1) for f in num)
        ns = " ".join(num_parts) if num_parts else "1"
        den_parts = [str(d)] if d != 1 else []
        den_parts.extend(_ltx(f, _PREC_MUL) for f in den)
        s = sign + (r"\frac{%s}{%s}" % (ns, " ".join(den_parts)) if den_parts else ns)
        need = _PREC_ADD if sign else _PREC_MUL
        return r"\left(" + s + r"\right)" if prec > need else s
    raise TypeError("cannot print %r" % type(e).__name__)


def to_latex(e: Expr) -> str:
    return _ltx(e, _PREC_ADD)
