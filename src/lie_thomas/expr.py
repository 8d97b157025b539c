"""Exact symbolic expression kernel.

Immutable expression trees over the independent variables (x, y), the
dependent variable u, jet symbols for the partials of u up to third order,
named rational constants, exp and log (the e^{-gamma*u} factor of v_g and
the Case 1 invariant log(a1 - gamma*x) need nothing else), and unknown
functions, each an atom of its own variables (xi_xu of (x, y, u), g of (x, y)).
Numeric leaves are exact fractions (``Rat.value`` is always a
``Fraction``); simplification is structural only: flattening, like-term
and like-factor collection, rational arithmetic, integer powers, exp/log
cancellation.  The kernel does no arithmetic whose result it already
knows: ``add`` skips a zero constant and ``mul`` a unit factor, and the
first other rational is kept as it is rather than formed as ``0 + q`` or
``1 * q``; a zero factor makes the product zero before the other factors
are collected.  Nor does it collect what is collected already: ``Add`` and
``Mul`` nodes are built only in this module, by ``add``, ``mul`` and
``scale``, so a sum or product with one operand that is not a Rat is
built directly from that operand.

A node keeps what it has computed about itself: its key and hash, and its
canonical rebuild (``normal.canonical_expr``), each filled on first use.
The rebuild lives and dies with its node, so nothing is canonicalised twice
while the node is reachable, and nothing is kept after: a node is never
stored as its own rebuild, so the slot makes no reference cycle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Mapping

from .errors import DomainError


class ExprError(DomainError):
    pass


class EvalError(ExprError):
    pass


_RATLIKE = (int, Fraction)

VAR, PARAM, JET = "var", "param", "jet"

APP_FUNCTIONS = ("exp", "log")


def _wrap(value):
    if isinstance(value, Expr):
        return value
    if isinstance(value, _RATLIKE):
        return Rat(value)
    raise TypeError("exact expressions cannot absorb %r" % type(value).__name__)


class Expr:
    """Base node.  Subclasses are immutable and hash/compare structurally.

    ``_canon`` holds the node's ``normal.canonical_expr`` rebuild once it
    has one; no constructor sets it (see the module notes)."""

    __slots__ = ("_hash", "_key", "_canon")

    def key(self):
        if self._key is None:
            self._key = self._compute_key()
        return self._key

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

    def __eq__(self, other):
        if other is self:
            return True
        if isinstance(other, _RATLIKE):
            other = _wrap(other)
        if not isinstance(other, Expr):
            return NotImplemented
        return self.key() == other.key()

    def __add__(self, other):
        return add(self, _wrap(other))

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, mul(MINUS_ONE, _wrap(other)))

    def __rsub__(self, other):
        return add(_wrap(other), mul(MINUS_ONE, self))

    def __mul__(self, other):
        return mul(self, _wrap(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return mul(self, pow_(_wrap(other), -1))

    def __rtruediv__(self, other):
        return mul(_wrap(other), pow_(self, -1))

    def __neg__(self):
        return mul(MINUS_ONE, self)

    def __pow__(self, n):
        return pow_(self, n)

    def __repr__(self):
        from .printer import to_text

        return to_text(self)


class Rat(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        self._hash = None
        self._key = None
        self.value = value if type(value) is Fraction else Fraction(value)

    def _compute_key(self):
        return (0, self.value)


class Sym(Expr):
    """Atomic symbol: variable, declared constant, or jet of u."""

    __slots__ = ("name", "kind")

    def __init__(self, name: str, kind: str):
        self._hash = None
        self._key = None
        self.name = name
        self.kind = kind

    def _compute_key(self):
        rank = {VAR: 0, PARAM: 1, JET: 2}[self.kind]
        return (1, rank, self.name)


class Func(Expr):
    """The unknown function `name` of the variables named in `params`,
    differentiated `derivs[i]` times by the i-th: a leaf, like Sym.
    ``suffix`` is its printed partial, "_xu" for xi_xu and "" for xi."""

    __slots__ = ("name", "params", "derivs", "suffix")

    def __init__(self, name, params, derivs):
        self._hash = None
        self._key = None
        self.name = name
        self.params = tuple(params)
        self.derivs = tuple(derivs)
        s = "".join([p * n for p, n in zip(self.params, self.derivs)])
        self.suffix = "_" + s if s else ""

    def _compute_key(self):
        return (2, self.name, self.derivs, tuple(Sym(p, VAR).key() for p in self.params))


class Add(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms):
        self._hash = None
        self._key = None
        self.terms = tuple(terms)

    def _compute_key(self):
        return (6, tuple(t.key() for t in self.terms))


class Mul(Expr):
    __slots__ = ("factors",)

    def __init__(self, factors):
        self._hash = None
        self._key = None
        self.factors = tuple(factors)

    def _compute_key(self):
        return (5, tuple(f.key() for f in self.factors))


class Pow(Expr):
    __slots__ = ("base", "exp")

    def __init__(self, base, exp):
        self._hash = None
        self._key = None
        self.base = base
        self.exp = exp

    def _compute_key(self):
        return (4, self.base.key(), self.exp)


class App(Expr):
    __slots__ = ("fn", "arg")

    def __init__(self, fn, arg):
        self._hash = None
        self._key = None
        self.fn = fn
        self.arg = arg

    def _compute_key(self):
        return (3, self.fn, self.arg.key())


_F1 = Fraction(1)
ZERO = Rat(0)
ONE = Rat(1)
MINUS_ONE = Rat(-1)


def add(*terms):
    """Sum in collected form.  A zero constant adds nothing and the first
    nonzero constant is taken as it is, so no Fraction sum has a known
    result.  One term that is not a Rat is the sum, its constant merged."""
    const = other = None
    for t in terms:
        if type(t) is Rat:
            if t.value:
                const = const + t.value if const else t.value
        elif other is None:
            other = t
        else:
            break
    else:
        if not const:
            return ZERO if other is None else other
        if other is None:
            return Rat(const)
        terms = other.terms if type(other) is Add else (other,)
        if type(terms[0]) is Rat:
            const += terms[0].value
            terms = terms[1:]
        if const:
            terms = (Rat(const),) + terms
        return terms[0] if len(terms) == 1 else Add(terms)
    const = None
    acc: dict[Expr, Fraction] = {}
    stack = list(terms)
    while stack:
        t = stack.pop()
        kind = type(t)
        if kind is Add:
            stack.extend(t.terms)
            continue
        if kind is Rat:
            if t.value:
                const = const + t.value if const else t.value
            continue
        c = _F1
        if kind is Mul and type(t.factors[0]) is Rat:
            c = t.factors[0].value
            rest = t.factors[1:]
            t = rest[0] if len(rest) == 1 else Mul(rest)
        prev = acc.get(t)
        acc[t] = prev + c if prev else c
    out = []
    for rest in sorted(acc, key=Expr.key) if len(acc) > 1 else acc:
        c = acc[rest]
        if c is _F1 or c == 1:
            out.append(rest)
        elif c:
            out.append(scale(c, rest))
    if const:
        out.insert(0, Rat(const))
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    return Add(out)


def mul(*factors):
    """Product in collected form.  No key of ``powers`` is a Rat, Mul or
    Pow, and the one merged exp application has exponent 1, so each
    collected factor is its base or ``Pow(base, n)`` as ``pow_`` would
    build it.  A zero factor ends the product at once, a unit factor
    multiplies nothing and the first other rational is taken as it is, so
    no Fraction product has a known result.  One factor that is not a Rat
    is scaled by the others."""
    coeff = other = None
    for f in factors:
        if type(f) is Rat:
            if f.value != 1:
                if not f.value:
                    return ZERO
                coeff = f.value if coeff is None else coeff * f.value
                if coeff == 1:
                    coeff = None
        elif other is None:
            other = f
        else:
            break
    else:
        if other is None:
            return ONE if coeff is None else Rat(coeff)
        return other if coeff is None else scale(coeff, other)
    coeff = None  # the product of the rational factors, when it is not one
    powers: dict[Expr, int] = {}
    exp_args = []
    stack = list(factors)
    while stack:
        f = stack.pop()
        kind = type(f)
        if kind is Mul:
            stack.extend(f.factors)
        elif kind is Rat:
            if f.value != 1:
                if not f.value:
                    return ZERO
                if coeff is None:
                    coeff = f.value
                else:
                    coeff = coeff * f.value
                    if coeff == 1:
                        coeff = None
        elif kind is Pow:
            powers[f.base] = powers.get(f.base, 0) + f.exp
        elif kind is App and f.fn == "exp":
            exp_args.append(f.arg)
        else:
            powers[f] = powers.get(f, 0) + 1
        if exp_args and not stack:
            combined = app("exp", add(*exp_args))
            exp_args = []
            if type(combined) is App and combined.fn == "exp":
                powers[combined] = powers.get(combined, 0) + 1
            else:  # exp(log t) collapsed to t, or exp(0) to 1
                stack.append(combined)
    out = [base if n == 1 else Pow(base, n) for base, n in powers.items() if n]
    if not out:
        return ONE if coeff is None else Rat(coeff)
    if len(out) > 1:
        out.sort(key=Expr.key)
    elif coeff is not None and type(out[0]) is Add:
        return scale(coeff, out[0])
    if coeff is not None:
        out.insert(0, Rat(coeff))
    if len(out) == 1:
        return out[0]
    return Mul(out)


def scale(q, e):
    """``mul(Rat(q), e)`` for a collected e, built without collecting e
    again: a Mul's leading rational absorbs q, and a sum is scaled term by
    term in its own order, so a rational multiple of a sum stays a sum."""
    if q == 1:
        return e
    if not q:
        return ZERO
    if type(e) is Rat:
        return Rat(q) if e.value == 1 else Rat(q * e.value)
    if type(e) is Add:
        return Add([scale(q, t) for t in e.terms])
    factors = e.factors if type(e) is Mul else (e,)
    if type(factors[0]) is Rat:
        q *= factors[0].value
        factors = factors[1:]
        if q == 1:
            return factors[0] if len(factors) == 1 else Mul(factors)
    return Mul((Rat(q),) + factors)


def pow_(base, n):
    if not isinstance(n, int):
        raise TypeError("integer exponent required, got %r" % (n,))
    base = _wrap(base)
    if n == 0:
        return ONE
    if n == 1:
        return base
    if isinstance(base, Rat):
        if base.value == 0 and n < 0:
            raise ZeroDivisionError("division by exact zero")
        return Rat(base.value**n)
    if isinstance(base, Pow):
        return pow_(base.base, base.exp * n)
    if isinstance(base, Mul):
        return mul(*[pow_(f, n) for f in base.factors])
    if isinstance(base, App) and base.fn == "exp":
        return app("exp", mul(Rat(n), base.arg))
    return Pow(base, n)


def app(fn, arg):
    if fn not in APP_FUNCTIONS:
        raise ExprError("unknown function %r" % fn)
    arg = _wrap(arg)
    if fn == "exp":
        if arg == ZERO:
            return ONE
        if isinstance(arg, App) and arg.fn == "log":
            return arg.arg
    elif fn == "log":
        if arg == ONE:
            return ZERO
        if isinstance(arg, App) and arg.fn == "exp":
            return arg.arg
    return App(fn, arg)


def exp(arg):
    return app("exp", arg)


def log(arg):
    return app("log", arg)


# --- symbol registry ------------------------------------------------------

X = Sym("x", VAR)
Y = Sym("y", VAR)
U = Sym("u", VAR)

# canonical jet order: x-count, then y-count
_JET_INDEX = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)]


def _jet_name(i, j):
    return "u_" + "x" * i + "y" * j


JETS = {ij: Sym(_jet_name(*ij), JET) for ij in _JET_INDEX}
JET_BY_NAME = {s.name: s for s in JETS.values()}
JET_ORDERS = {s: i + j for (i, j), s in JETS.items()}

U_X = JETS[(1, 0)]
U_Y = JETS[(0, 1)]
U_XX = JETS[(2, 0)]
U_XY = JETS[(1, 1)]
U_YY = JETS[(0, 2)]

ALPHA = Sym("alpha", PARAM)
BETA = Sym("beta", PARAM)
GAMMA = Sym("gamma", PARAM)


def param(name: str) -> Sym:
    return Sym(name, PARAM)


def R(p, q=1) -> Rat:
    return Rat(Fraction(p, q))


class UFunc:
    """Factory for an unknown function of fixed variables.

    ``f = UFunc("f", ("x", "y")); f()`` is the function f of (x, y); its
    partials come from ``differentiate``, which gives the registered
    derivative symbols, such as f_xy = ``Func("f", ("x", "y"), (1, 1))``.
    """

    __slots__ = ("name", "params")

    def __init__(self, name, params=("x", "y", "u")):
        self.name = name
        self.params = tuple(params)

    def __call__(self):
        return Func(self.name, self.params, (0,) * len(self.params))


# --- calculus -------------------------------------------------------------

_APP_DERIV = {
    "exp": lambda a: app("exp", a),
    "log": lambda a: pow_(a, -1),
}


def _is_zero(e: Expr) -> bool:
    """e is the rational 0, told by its node type, not by comparing keys."""
    return type(e) is Rat and not e.value


def differentiate(e: Expr, s: Sym) -> Expr:
    """Partial derivative by s; a Func depends on its own variables only."""
    if not isinstance(s, Sym):
        raise ExprError("can only differentiate with respect to a symbol")
    if isinstance(e, Rat):
        return ZERO
    if isinstance(e, Sym):
        return ONE if e == s else ZERO
    if isinstance(e, Func):
        if s.kind != VAR or s.name not in e.params:
            return ZERO
        i = e.params.index(s.name)
        return Func(e.name, e.params, e.derivs[:i] + (e.derivs[i] + 1,) + e.derivs[i + 1:])
    if isinstance(e, Add):
        return add(*[differentiate(t, s) for t in e.terms])
    if isinstance(e, Mul):
        terms = []
        for i, f in enumerate(e.factors):
            df = differentiate(f, s)
            if _is_zero(df):
                continue
            rest = e.factors[:i] + e.factors[i + 1 :]
            terms.append(mul(df, *rest))
        return add(*terms)
    if isinstance(e, Pow):
        db = differentiate(e.base, s)
        if _is_zero(db):
            return ZERO
        return mul(Rat(e.exp), pow_(e.base, e.exp - 1), db)
    if isinstance(e, App):
        da = differentiate(e.arg, s)
        if _is_zero(da):
            return ZERO
        return mul(_APP_DERIV[e.fn](e.arg), da)
    raise ExprError("cannot differentiate %r" % e)


def jet_symbols(e: Expr) -> set:
    return {a for a in atoms(e) if isinstance(a, Sym) and a.kind == JET}


def contains_jet(e: Expr) -> bool:
    return bool(jet_symbols(e))


def max_jet_order(e: Expr) -> int:
    js = jet_symbols(e)
    return max((JET_ORDERS[j] for j in js), default=0)


def atoms(e: Expr) -> Iterator[Expr]:
    """Yield every Sym and Func leaf (including those inside App args)."""
    stack = [e]
    seen = set()
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        if isinstance(n, (Sym, Func)):
            yield n
        elif isinstance(n, Add):
            stack.extend(n.terms)
        elif isinstance(n, Mul):
            stack.extend(n.factors)
        elif isinstance(n, Pow):
            stack.append(n.base)
        elif isinstance(n, App):
            stack.append(n.arg)


def substitute(e: Expr, bindings: Mapping) -> Expr:
    """Simultaneous replacement of subtrees; keys are matched as whole
    nodes.  A Func is a function of its own variables, so binding one of
    them, other than by replacing the whole Func, is an ExprError."""
    return _substitution(bindings)(e)


def _substitution(bindings: Mapping):
    """substitute under one mapping, with its table (each key and value
    wrapped) and its set of bound variables built once, for a caller that
    substitutes several trees under the same mapping."""
    table = {_wrap(k): _wrap(v) for k, v in bindings.items()}
    moved = {k.name for k in table if type(k) is Sym and k.kind == VAR}
    return lambda e: _substituted(e, table, moved)


def _substituted(n, table, moved):
    """substitute's walk, a module function rather than a closure that
    calls itself, so that a call leaves no reference cycle to collect."""
    if n in table:
        return table[n]
    if isinstance(n, (Rat, Sym)):
        return n
    if isinstance(n, Func):
        if moved.intersection(n.params):
            raise ExprError("cannot bind a variable of %s%s" % (n.name, n.suffix))
        return n
    if isinstance(n, Add):
        return add(*[_substituted(t, table, moved) for t in n.terms])
    if isinstance(n, Mul):
        return mul(*[_substituted(f, table, moved) for f in n.factors])
    if isinstance(n, Pow):
        return pow_(_substituted(n.base, table, moved), n.exp)
    if isinstance(n, App):
        return app(n.fn, _substituted(n.arg, table, moved))
    raise ExprError("cannot substitute into %r" % n)


def _apply_named(fn: str, v):
    special = getattr(v, fn, None)
    if callable(special):
        return special()
    return (math.exp if fn == "exp" else math.log)(float(v))


def evaluate(e: Expr, env: Mapping[str, object]):
    """Numeric evaluation.  ``env`` maps symbol names to numbers (or any
    arithmetic type with exp/log methods, e.g. HyperDualRow); a Func node has
    no value."""
    if isinstance(e, Rat):
        return e.value
    if isinstance(e, Sym):
        try:
            return env[e.name]
        except KeyError:
            raise EvalError("no value bound for %s" % e.name) from None
    if isinstance(e, Func):
        raise EvalError("no evaluator for %s%s" % (e.name, e.suffix))
    if isinstance(e, Add):
        total = evaluate(e.terms[0], env)
        for t in e.terms[1:]:
            total = total + evaluate(t, env)
        return total
    if isinstance(e, Mul):
        prod = evaluate(e.factors[0], env)
        for f in e.factors[1:]:
            prod = prod * evaluate(f, env)
        return prod
    if isinstance(e, Pow):
        return evaluate(e.base, env) ** e.exp
    if isinstance(e, App):
        return _apply_named(e.fn, evaluate(e.arg, env))
    raise EvalError("cannot evaluate %r" % e)
