"""Exact symbolic expression kernel.

Immutable expression trees over the independent variables (x, y), the
dependent variable u, jet symbols for the partials of u up to third order,
named rational constants, the four elementary functions exp/log/tan/arctan,
and unknown-function applications with registered partial-derivative
symbols.  Numeric leaves are exact fractions; simplification is structural
only: flattening, like-term and like-factor collection, rational
arithmetic, integer powers, exp/log cancellation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Mapping


class ExprError(Exception):
    pass


class EvalError(ExprError):
    pass


class SubstitutionError(ExprError):
    pass


_RATLIKE = (int, Fraction)

VAR, PARAM, JET = "var", "param", "jet"

APP_FUNCTIONS = ("exp", "log", "tan", "arctan")


def _wrap(value):
    if isinstance(value, Expr):
        return value
    if isinstance(value, _RATLIKE):
        return Rat(Fraction(value))
    raise TypeError("exact expressions cannot absorb %r" % type(value).__name__)


class Expr:
    """Base node.  Subclasses are immutable and hash/compare structurally."""

    __slots__ = ("_hash", "_key")

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

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

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
    """Unknown-function application with a registered derivative multiset.

    `params` are the canonical argument names, `derivs` counts derivatives
    per slot, `args` the actual argument expressions.
    """

    __slots__ = ("name", "params", "derivs", "args")

    def __init__(self, name, params, derivs, args):
        self._hash = None
        self._key = None
        self.name = name
        self.params = tuple(params)
        self.derivs = tuple(derivs)
        self.args = tuple(args)

    def _compute_key(self):
        return (2, self.name, self.derivs, tuple(a.key() for a in self.args))

    @property
    def suffix(self):
        parts = []
        for p, n in zip(self.params, self.derivs):
            parts.append(p * n)
        s = "".join(parts)
        return "_" + s if s else ""

    def has_canonical_args(self):
        return all(
            isinstance(a, Sym) and a.name == p for a, p in zip(self.args, self.params)
        )


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


_F0, _F1 = Fraction(0), Fraction(1)
ZERO = Rat(0)
ONE = Rat(1)
MINUS_ONE = Rat(-1)


def _split_coeff(e):
    """Split a non-Rat expression into (rational coefficient, rest)."""
    if isinstance(e, Mul) and isinstance(e.factors[0], Rat):
        rest = e.factors[1:]
        rest_e = rest[0] if len(rest) == 1 else Mul(rest)
        return e.factors[0].value, rest_e
    return _F1, e


def add(*terms):
    const = _F0
    acc: dict[Expr, Fraction] = {}
    stack = list(terms)
    while stack:
        t = stack.pop()
        if isinstance(t, Add):
            stack.extend(t.terms)
        elif isinstance(t, Rat):
            const += t.value
        else:
            c, rest = _split_coeff(t)
            prev = acc.get(rest)
            acc[rest] = c if prev is None else prev + c
    out = []
    for rest in sorted(acc, key=lambda r: r.key()):
        c = acc[rest]
        if c == 0:
            continue
        out.append(rest if c == 1 else mul(Rat(c), rest))
    if const != 0:
        out.insert(0, Rat(const))
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    return Add(out)


def mul(*factors):
    coeff = _F1
    powers: dict[Expr, int] = {}
    exp_args = []
    stack = list(factors)
    while stack:
        f = stack.pop()
        if isinstance(f, Mul):
            stack.extend(f.factors)
        elif isinstance(f, Rat):
            coeff *= f.value
        elif isinstance(f, Pow):
            powers[f.base] = powers.get(f.base, 0) + f.exp
        elif isinstance(f, App) and f.fn == "exp":
            exp_args.append(f.arg)
        else:
            powers[f] = powers.get(f, 0) + 1
    if coeff == 0:
        return ZERO
    if exp_args:
        combined = app("exp", add(*exp_args))
        if combined != ONE:
            if isinstance(combined, App) and combined.fn == "exp":
                powers[combined] = powers.get(combined, 0) + 1
            else:
                # exp(log t) collapsed to t
                stack = [combined]
                while stack:
                    f = stack.pop()
                    if isinstance(f, Mul):
                        stack.extend(f.factors)
                    elif isinstance(f, Rat):
                        coeff *= f.value
                    elif isinstance(f, Pow):
                        powers[f.base] = powers.get(f.base, 0) + f.exp
                    else:
                        powers[f] = powers.get(f, 0) + 1
    out = []
    for base in sorted(powers, key=lambda b: b.key()):
        n = powers[base]
        if n == 0:
            continue
        out.append(base if n == 1 else pow_(base, n))
    # pow_ may have re-simplified; rebuild plain factors
    flat = []
    for f in out:
        if isinstance(f, Rat):
            coeff *= f.value
        elif isinstance(f, Mul):
            for g in f.factors:
                if isinstance(g, Rat):
                    coeff *= g.value
                else:
                    flat.append(g)
        else:
            flat.append(f)
    flat.sort(key=lambda b: b.key())
    if coeff == 0:
        return ZERO
    if not flat:
        return Rat(coeff)
    if len(flat) == 1 and isinstance(flat[0], Add) and coeff != 1:
        # keep rational multiples of sums in collected form
        return add(*[mul(Rat(coeff), t) for t in flat[0].terms])
    if coeff != 1:
        flat.insert(0, Rat(coeff))
    if len(flat) == 1:
        return flat[0]
    return Mul(flat)


def pow_(base, n):
    if isinstance(n, Rat):
        n = n.value
    if isinstance(n, Fraction):
        if n.denominator != 1:
            raise ExprError("symbolic powers must have integer exponents")
        n = int(n)
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
    elif fn in ("tan", "arctan"):
        if arg == ZERO:
            return ZERO
    return App(fn, arg)


def exp(arg):
    return app("exp", arg)


def log(arg):
    return app("log", arg)


def tan(arg):
    return app("tan", arg)


def arctan(arg):
    return app("arctan", arg)


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
    """Factory for an unknown function of fixed arguments.

    ``f = UFunc("f", ("x", "y")); f()`` is the application f(x, y) and
    ``f.d("x", "y")`` the registered derivative symbol f_xy.
    """

    __slots__ = ("name", "params", "param_syms")

    def __init__(self, name, params=("x", "y", "u")):
        self.name = name
        self.params = tuple(params)
        self.param_syms = tuple(Sym(p, VAR) for p in self.params)

    def __call__(self, *args):
        if not args:
            args = self.param_syms
        if len(args) != len(self.params):
            raise ExprError("%s expects %d arguments" % (self.name, len(self.params)))
        return Func(self.name, self.params, (0,) * len(self.params), tuple(_wrap(a) for a in args))

    def d(self, *wrt):
        derivs = [0] * len(self.params)
        for w in wrt:
            if w not in self.params:
                raise ExprError("%s has no argument %r" % (self.name, w))
            derivs[self.params.index(w)] += 1
        return Func(self.name, self.params, tuple(derivs), self.param_syms)


# --- calculus -------------------------------------------------------------

_APP_DERIV = {
    "exp": lambda a: app("exp", a),
    "log": lambda a: pow_(a, -1),
    "tan": lambda a: add(ONE, pow_(app("tan", a), 2)),
    "arctan": lambda a: pow_(add(ONE, pow_(a, 2)), -1),
}


def differentiate(e: Expr, s: Sym) -> Expr:
    """Partial derivative treating every other atom as independent."""
    if not isinstance(s, Sym):
        raise ExprError("can only differentiate with respect to a symbol")
    if isinstance(e, Rat):
        return ZERO
    if isinstance(e, Sym):
        return ONE if e == s else ZERO
    if isinstance(e, Func):
        total = ZERO
        for i, a in enumerate(e.args):
            inner = differentiate(a, s)
            if inner == ZERO:
                continue
            derivs = list(e.derivs)
            derivs[i] += 1
            outer = Func(e.name, e.params, tuple(derivs), e.args)
            total = add(total, mul(outer, inner))
        return total
    if isinstance(e, Add):
        return add(*[differentiate(t, s) for t in e.terms])
    if isinstance(e, Mul):
        terms = []
        for i, f in enumerate(e.factors):
            df = differentiate(f, s)
            if df == ZERO:
                continue
            rest = e.factors[:i] + e.factors[i + 1 :]
            terms.append(mul(df, *rest))
        return add(*terms)
    if isinstance(e, Pow):
        db = differentiate(e.base, s)
        if db == ZERO:
            return ZERO
        return mul(Rat(e.exp), pow_(e.base, e.exp - 1), db)
    if isinstance(e, App):
        da = differentiate(e.arg, s)
        if da == ZERO:
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
    """Yield every Sym and Func node (including those inside App args)."""
    stack = [e]
    seen = set()
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        if isinstance(n, (Sym, Func)):
            yield n
            if isinstance(n, Func):
                stack.extend(n.args)
        elif isinstance(n, Add):
            stack.extend(n.terms)
        elif isinstance(n, Mul):
            stack.extend(n.factors)
        elif isinstance(n, Pow):
            stack.append(n.base)
        elif isinstance(n, App):
            stack.append(n.arg)


def _depends_on_u(e: Expr) -> bool:
    for a in atoms(e):
        if isinstance(a, Sym) and (a == U or a.kind == JET):
            return True
    return False


def substitute(e: Expr, bindings: Mapping) -> Expr:
    """Simultaneous replacement of subtrees.

    Keys are matched as whole nodes.  Binding u to a jet-free expression in
    (x, y) also rebinds any jet symbols present in ``e``, by differentiating
    the replacement.
    """
    table = {}
    for k, v in bindings.items():
        table[_wrap(k)] = _wrap(v)
    if U in table:
        repl = table[U]
        if _depends_on_u(repl):
            for j in jet_symbols(e):
                if j not in table:
                    raise SubstitutionError(
                        "cannot rebind %s: replacement for u depends on u" % j.name
                    )
        else:
            for (i, j), sym in JETS.items():
                if sym in table:
                    continue
                d = repl
                for _ in range(i):
                    d = differentiate(d, X)
                for _ in range(j):
                    d = differentiate(d, Y)
                table[sym] = d

    def walk(n):
        if n in table:
            return table[n]
        if isinstance(n, (Rat, Sym)):
            return n
        if isinstance(n, Func):
            return Func(n.name, n.params, n.derivs, tuple(walk(a) for a in n.args))
        if isinstance(n, Add):
            return add(*[walk(t) for t in n.terms])
        if isinstance(n, Mul):
            return mul(*[walk(f) for f in n.factors])
        if isinstance(n, Pow):
            return pow_(walk(n.base), n.exp)
        if isinstance(n, App):
            return app(n.fn, walk(n.arg))
        raise ExprError("cannot substitute into %r" % n)

    return walk(e)


def _apply_named(fn: str, v):
    special = getattr(v, fn, None)
    if callable(special):
        return special()
    x = float(v)
    if fn == "exp":
        return math.exp(x)
    if fn == "log":
        return math.log(x)
    if fn == "tan":
        return math.tan(x)
    return math.atan(x)


def evaluate(e: Expr, env: Mapping[str, object], funcs: Mapping | None = None):
    """Numeric evaluation.  ``env`` maps symbol names to numbers (or any
    arithmetic type with exp/log/tan/arctan methods, e.g. HyperDual);
    ``funcs`` maps (name, derivs) pairs to callables for Func nodes."""
    if isinstance(e, Rat):
        return e.value
    if isinstance(e, Sym):
        try:
            return env[e.name]
        except KeyError:
            raise EvalError("no value bound for %s" % e.name) from None
    if isinstance(e, Func):
        key = (e.name, e.derivs)
        if funcs is None or key not in funcs:
            raise EvalError("no evaluator for %s%s" % (e.name, e.suffix))
        return funcs[key](*[evaluate(a, env, funcs) for a in e.args])
    if isinstance(e, Add):
        total = evaluate(e.terms[0], env, funcs)
        for t in e.terms[1:]:
            total = total + evaluate(t, env, funcs)
        return total
    if isinstance(e, Mul):
        prod = evaluate(e.factors[0], env, funcs)
        for f in e.factors[1:]:
            prod = prod * evaluate(f, env, funcs)
        return prod
    if isinstance(e, Pow):
        return evaluate(e.base, env, funcs) ** e.exp
    if isinstance(e, App):
        return _apply_named(e.fn, evaluate(e.arg, env, funcs))
    raise EvalError("cannot evaluate %r" % e)
