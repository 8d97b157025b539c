"""Text and LaTeX rendering of expression trees."""

from __future__ import annotations

from fractions import Fraction

from .expr import Add, App, Expr, Func, Mul, Pow, Rat, Sym

_PREC_ADD, _PREC_MUL, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4
_ONE = Fraction(1)

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
    """(rational coefficient, numerator factors, denominator factors); the
    first rational factor is the coefficient as it is."""
    coeff = None
    num, den = [], []
    for f in e.factors:
        if isinstance(f, Rat):
            coeff = f.value if coeff is None else coeff * f.value
        elif isinstance(f, Pow) and f.exp < 0:
            den.append(f.base if f.exp == -1 else Pow(f.base, -f.exp))
        else:
            num.append(f)
    return (_ONE if coeff is None else coeff), num, den


def _text_frac(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def _txt(e: Expr, prec: int) -> str:
    if isinstance(e, Rat):
        s = _text_frac(e.value)
        need = _PREC_ADD if e.value < 0 else (_PREC_MUL if e.value.denominator != 1 else _PREC_ATOM)
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
        coeff, num, den = _split_mul(e)
        sign = ""
        if coeff < 0:
            sign = "-"
            coeff = -coeff
        pieces = []
        if coeff.numerator != 1 or not num:
            pieces.append(str(coeff.numerator))
        pieces.extend(_txt(f, _PREC_MUL + 1) for f in num)
        s = "*".join(pieces)
        if coeff.denominator != 1:
            den = [Rat(coeff.denominator)] + den
        if den:
            ds = "*".join(_txt(f, _PREC_POW) for f in den)
            s = s + "/" + (ds if len(den) == 1 else "(" + ds + ")")
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
        q = e.value
        if q.denominator == 1:
            s = str(q.numerator)
            return "(" + s + ")" if prec > _PREC_ADD and q < 0 else s
        s = ""
        if q < 0:
            s = "-"
            q = -q
        s += r"\frac{%d}{%d}" % (q.numerator, q.denominator)
        return "(" + s + ")" if prec > _PREC_ADD and s.startswith("-") else s
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
        coeff, num, den = _split_mul(e)
        sign = ""
        if coeff < 0:
            sign = "-"
            coeff = -coeff
        num_parts = []
        if coeff.numerator != 1 or (not num and coeff.denominator == 1):
            num_parts.append(str(coeff.numerator))
        num_parts.extend(_ltx(f, _PREC_MUL + 1) for f in num)
        ns = " ".join(num_parts) if num_parts else "1"
        if coeff.denominator != 1 or den:
            den_parts = []
            if coeff.denominator != 1:
                den_parts.append(str(coeff.denominator))
            den_parts.extend(_ltx(f, _PREC_MUL) for f in den)
            s = sign + r"\frac{%s}{%s}" % (ns, " ".join(den_parts))
        else:
            s = sign + ns
        need = _PREC_ADD if sign else _PREC_MUL
        return r"\left(" + s + r"\right)" if prec > need else s
    raise TypeError("cannot print %r" % type(e).__name__)


def to_latex(e: Expr) -> str:
    return _ltx(e, _PREC_ADD)
