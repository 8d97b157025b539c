"""Differential tests of the exact kernel's accumulation.

``_ref_collect`` is collection by jet monomial done on the expression
tree, as ``JetPolynomial.from_expr`` does it through the normal form: it
folds every contribution into the running coefficient with a binary
``add``, so its coefficients equal the kernel's in value, and in key where
the normal form expands no product.  ``_ref_normal_form`` is the
straightforward form of ``normal.normal_form``: it cross-multiplies every
sum and product term by the other side's denominator, unit or not.
``_ref_prolong_raw`` spells every total
derivative of the second prolongation out in place as an expression tree
(``_ref_total_derivative``), and ``_ref_manifold_action`` applies it to the
equation, eliminates u_xy by substitution in the tree and collects the
result by jet monomial at the end.  ``_ref_mul`` is ``expr.mul`` as it
was with a second pass over the built factors.
``_full_add``, ``_full_mul``, ``_full_poly_add`` and ``_ref_poly_mul`` are
the kernel's sums and products as they were before they skipped Fraction
operations whose result is known: they multiply by every unit factor and
by the exp-merge factor ``k``, and add every zero.  Except where a test
says otherwise, the kernel must give structurally identical results (equal
node keys), not merely equal values.
"""

import ast
import math
import pathlib
import random
import sys
from fractions import Fraction

import pytest

from lie_thomas import expr, jetpoly, normal, vectorfield
from lie_thomas.algebra import _symbolic_tables, adjoint_table, commutator_table
from lie_thomas.determining import (
    ThomasParams,
    check_symmetry,
    determining_equations,
    _symbolic_system,
    exponential_g,
    thomas_delta,
    v1,
    v2,
    v3,
    v4,
    v_g,
)
from lie_thomas.expr import (
    ALPHA,
    BETA,
    GAMMA,
    JETS,
    ONE,
    U,
    U_XY,
    UFunc,
    X,
    Y,
    ZERO,
    Add,
    App,
    Func,
    Mul,
    Pow,
    R,
    Rat,
    Sym,
    add,
    app,
    contains_jet,
    differentiate,
    evaluate,
    max_jet_order,
    mul,
    pow_,
    scale,
    substitute,
)
from lie_thomas import hyperdual
from lie_thomas.jetpoly import JetPolynomial
from lie_thomas.printer import to_latex, to_text
from lie_thomas.vectorfield import (
    COEFF_KEYS,
    ProlongationError,
    VectorField,
    prolong,
    symbolic_field,
)
from oracles import reference_latex, reference_text

# --- reference implementations ---------------------------------------------


def _ref_fold_product(out, part):
    nxt = {}
    for m1, c1 in out.items():
        for m2, c2 in part.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            s = add(nxt.get(m, ZERO), mul(c1, c2))
            if s == ZERO:
                nxt.pop(m, None)
            else:
                nxt[m] = s
    return nxt


def _ref_collect(e):
    one = jetpoly._MONO_ONE
    if isinstance(e, Rat) or (isinstance(e, Sym) and e.kind != "jet"):
        return {one: e} if e != ZERO else {}
    if isinstance(e, Sym):
        mono = list(one)
        mono[jetpoly._JET_POS[e]] = 1
        return {tuple(mono): ONE}
    if isinstance(e, (Func, App)):
        assert not contains_jet(e)
        return {one: e}
    if isinstance(e, Add):
        out = {}
        for t in e.terms:
            for m, c in _ref_collect(t).items():
                s = add(out.get(m, ZERO), c)
                if s == ZERO:
                    out.pop(m, None)
                else:
                    out[m] = s
        return out
    if isinstance(e, Mul):
        out = {one: ONE}
        for f in e.factors:
            out = _ref_fold_product(out, _ref_collect(f))
        return out
    assert isinstance(e, Pow)
    if not contains_jet(e.base):
        return {one: e}
    assert e.exp >= 0
    out = {one: ONE}
    base = _ref_collect(e.base)
    for _ in range(e.exp):
        out = _ref_fold_product(out, base)
    return out


def _ref_mul(*factors):
    """Collect the factors, then rebuild them in a second pass in case
    ``pow_`` re-simplified a collected power."""
    coeff = Fraction(1)
    powers = {}
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
        return add(*[_ref_mul(Rat(coeff), t) for t in flat[0].terms])
    if coeff != 1:
        flat.insert(0, Rat(coeff))
    if len(flat) == 1:
        return flat[0]
    return Mul(flat)


def _full_add(*terms):
    const = Fraction(0)
    acc = {}
    stack = list(terms)
    while stack:
        t = stack.pop()
        if isinstance(t, Add):
            stack.extend(t.terms)
        elif isinstance(t, Rat):
            const += t.value
        else:
            c, rest = Fraction(1), t
            if isinstance(t, Mul) and isinstance(t.factors[0], Rat):
                c = t.factors[0].value
                rest = t.factors[1] if len(t.factors) == 2 else Mul(t.factors[1:])
            prev = acc.get(rest)
            acc[rest] = c if prev is None else prev + c
    out = []
    for rest in sorted(acc, key=lambda r: r.key()):
        c = acc[rest]
        if c == 0:
            continue
        out.append(rest if c == 1 else _full_mul(Rat(c), rest))
    if const != 0:
        out.insert(0, Rat(const))
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    return Add(out)


def _full_mul(*factors):
    coeff = Fraction(1)
    powers = {}
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
        if exp_args and not stack:
            combined = app("exp", _full_add(*exp_args))
            exp_args = []
            if isinstance(combined, App) and combined.fn == "exp":
                powers[combined] = powers.get(combined, 0) + 1
            else:
                stack.append(combined)
    if coeff == 0:
        return ZERO
    out = [base if n == 1 else Pow(base, n) for base, n in powers.items() if n]
    if not out:
        return Rat(coeff)
    out.sort(key=lambda b: b.key())
    if len(out) == 1 and isinstance(out[0], Add) and coeff != 1:
        return _full_add(*[_full_mul(Rat(coeff), t) for t in out[0].terms])
    if coeff != 1:
        out.insert(0, Rat(coeff))
    if len(out) == 1:
        return out[0]
    return Mul(out)


def _full_poly_add(p, q):
    out = dict(p)
    for m, c in q.items():
        s = out.get(m, Fraction(0)) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def _ref_poly_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            k, m = normal._mono_mul(m1, m2)
            s = out.get(m, Fraction(0)) + c1 * c2 * k
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def _ref_poly_pow(p, n):
    out = {(): Fraction(1)}
    for _ in range(n):
        out = _ref_poly_mul(out, p)
    return out


def _ref_normal_form(e):
    unit = {(): Fraction(1)}
    if isinstance(e, Rat):
        return normal.NormalForm(normal._poly_const(e.value), dict(unit))
    if isinstance(e, (Sym, Func)):
        return normal.NormalForm(normal._atom_poly(normal._rebuild_atom(e)), dict(unit))
    if isinstance(e, App):
        atom = normal._rebuild_atom(e)
        if isinstance(atom, App):
            return normal.NormalForm(normal._atom_poly(atom), dict(unit))
        return _ref_normal_form(atom)
    if isinstance(e, Add):
        num, den = {}, dict(unit)
        for t in e.terms:
            nf = _ref_normal_form(t)
            num = _full_poly_add(_ref_poly_mul(num, nf.den), _ref_poly_mul(nf.num, den))
            den = _ref_poly_mul(den, nf.den)
        return normal.NormalForm(num, den)
    if isinstance(e, Mul):
        num, den = dict(unit), dict(unit)
        for f in e.factors:
            nf = _ref_normal_form(f)
            num = _ref_poly_mul(num, nf.num)
            den = _ref_poly_mul(den, nf.den)
        return normal.NormalForm(num, den)
    assert isinstance(e, Pow)
    nf = _ref_normal_form(e.base)
    if e.exp >= 0:
        return normal.NormalForm(_ref_poly_pow(nf.num, e.exp), _ref_poly_pow(nf.den, e.exp))
    n = -e.exp
    return normal.NormalForm(_ref_poly_pow(nf.den, n), _ref_poly_pow(nf.num, n))


def _ref_total_derivative(e, axis):
    """Total derivative D_x or D_y of an expression tree on second-order
    jet space."""
    if max_jet_order(e) >= 3:
        raise ProlongationError(
            "total derivative of a third-order jet expression needs fourth-order jets"
        )
    var, step = (X, (1, 0)) if axis == "x" else (Y, (0, 1))
    out = [differentiate(e, var)]
    d_u = differentiate(e, U)
    if d_u != ZERO:
        out.append(mul(JETS[step], d_u))
    for (i, j), s in JETS.items():
        if i + j > 2:
            continue
        d = differentiate(e, s)
        if d != ZERO:
            out.append(mul(JETS[(i + step[0], j + step[1])], d))
    return add(*out)


def _ref_prolong_raw(vf):
    """The five raw coefficients, every total derivative written out."""
    D = _ref_total_derivative
    xi, eta, phi = vf.xi, vf.eta, vf.phi
    u_x, u_y = JETS[(1, 0)], JETS[(0, 1)]
    u_xx, u_xy, u_yy = JETS[(2, 0)], JETS[(1, 1)], JETS[(0, 2)]
    characteristic = phi - xi * u_x - eta * u_y
    return {
        (1, 0): D(phi, "x") - u_x * D(xi, "x") - u_y * D(eta, "x"),
        (0, 1): D(phi, "y") - u_x * D(xi, "y") - u_y * D(eta, "y"),
        (1, 1): D(D(characteristic, "y"), "x") + xi * JETS[(2, 1)] + eta * JETS[(1, 2)],
        (2, 0): D(D(phi, "x"), "x") - 2 * u_xx * D(xi, "x") - 2 * u_xy * D(eta, "x")
        - u_x * D(D(xi, "x"), "x") - u_y * D(D(eta, "x"), "x"),
        (0, 2): D(D(phi, "y"), "y") - 2 * u_xy * D(xi, "y") - 2 * u_yy * D(eta, "y")
        - u_x * D(D(xi, "y"), "y") - u_y * D(D(eta, "y"), "y"),
    }


def _ref_manifold_action(vf, p):
    """The prolonged action on the equation with u_xy eliminated, built as
    one expression tree and collected at the end."""
    coeffs = {k: JetPolynomial(_ref_collect(raw)).to_expr()
              for k, raw in _ref_prolong_raw(vf).items()}
    delta = thomas_delta(p)
    applied = add(vf.apply(delta),
                  *[mul(coeffs[k], differentiate(delta, JETS[k])) for k in COEFF_KEYS])
    eliminated = add(U_XY, mul(Rat(-1), delta))
    return JetPolynomial(_ref_collect(substitute(applied, {U_XY: eliminated})))


# --- helpers ----------------------------------------------------------------


def _keys(coeffs: dict) -> dict:
    return {m: c.key() for m, c in coeffs.items()}


def _nf_keys(nf):
    return (nf.num, nf.den)


_XI = UFunc("xi", ("x", "y", "u"))
_ATOMS = (X, Y, U, ALPHA, BETA, GAMMA, _XI(), _XI.d("x"), _XI.d("u", "u"),
          app("log", X), app("log", add(X, Y)))
_JET_ATOMS = tuple(JETS[k] for k in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1)))


def _rational(rng):
    return Rat(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))


def _coefficient(rng, inverse=True):
    """A jet-free product, possibly with negative powers and exp factors."""
    factors = [_rational(rng)]
    for _ in range(rng.randint(0, 3)):
        a = rng.choice(_ATOMS)
        n = rng.choice((1, 1, 2, -1)) if inverse else rng.choice((1, 2))
        factors.append(pow_(a, n))
    if rng.random() < 0.3:
        factors.append(app("exp", mul(_rational(rng), rng.choice((X, U)))))
    if inverse and rng.random() < 0.2:
        factors.append(pow_(add(ONE, mul(_rational(rng), rng.choice(_ATOMS))), -1))
    return mul(*factors)


def _jet_monomial(rng):
    return mul(*[pow_(j, rng.randint(1, 2)) for j in rng.sample(_JET_ATOMS, rng.randint(0, 2))])


def random_jet_polynomial(rng):
    """A sum with repeated and cancelling jet monomials, products of sums
    and a jet-carrying power, so every branch of the collection runs."""
    monos = [_jet_monomial(rng) for _ in range(3)]
    terms = [mul(_coefficient(rng), rng.choice(monos)) for _ in range(rng.randint(2, 8))]
    if rng.random() < 0.5:
        # (j + c)(j - c): the j coefficients cancel inside the product
        j, c = rng.choice(_JET_ATOMS), _coefficient(rng, False)
        terms.append(mul(_coefficient(rng), add(j, c), add(j, mul(Rat(-1), c))))
    if rng.random() < 0.5:
        inner = add(*[mul(_coefficient(rng, False), rng.choice(monos)) for _ in range(2)])
        terms.append(mul(_coefficient(rng), inner, add(rng.choice(_JET_ATOMS), _rational(rng))))
    if rng.random() < 0.5:
        base = add(rng.choice(_JET_ATOMS), mul(_coefficient(rng, False), rng.choice(_JET_ATOMS)))
        terms.append(pow_(base, rng.randint(2, 3)))
    return add(*terms)


def random_rational_expr(rng):
    """A jet-free rational expression with sums in denominators."""
    num = add(*[_coefficient(rng) for _ in range(rng.randint(1, 4))])
    den = ZERO
    while den == ZERO:
        den = add(*[_coefficient(rng, False) for _ in range(rng.randint(1, 3))])
    e = add(num, mul(_coefficient(rng), pow_(den, -1)))
    if rng.random() < 0.5:
        e = mul(e, pow_(add(_coefficient(rng, False), ONE), 2))
    return e


def _collapsing_exps(rng):
    """exp(a) and exp(log t - a), whose product is t: t is a product of an
    exp, a sum or a power with other atoms, or a bare rational."""
    parts = [app("exp", mul(_rational(rng), Y)), add(X, rng.choice(_ATOMS)),
             pow_(rng.choice(_ATOMS), rng.choice((2, -1))), rng.choice(_ATOMS)]
    t = mul(*rng.sample(parts, rng.randint(1, 3))) if rng.random() < 0.8 else R(3)
    a = mul(_rational(rng), rng.choice((X, U)))
    return [app("exp", a), app("exp", add(app("log", t), mul(Rat(-1), a)))]


def random_factors(rng):
    """Factors for ``mul``: atoms, powers, products, sums, rationals and
    exp applications, some pairs of which collapse through exp(log t)."""
    makers = (
        lambda: rng.choice(_ATOMS),
        lambda: pow_(rng.choice(_ATOMS), rng.choice((2, 3, -1, -2))),
        lambda: _coefficient(rng),
        lambda: _rational(rng),
        lambda: add(rng.choice(_ATOMS), _coefficient(rng, False)),
        lambda: app("exp", mul(_rational(rng), rng.choice((X, U)))),
    )
    factors = [rng.choice(makers)() for _ in range(rng.randint(1, 6))]
    if rng.random() < 0.5:
        factors += _collapsing_exps(rng)
    rng.shuffle(factors)
    return factors


def _nodes(e):
    stack = [e]
    while stack:
        n = stack.pop()
        yield n
        stack.extend(getattr(n, "terms", ()))
        stack.extend(getattr(n, "factors", ()))
        stack.extend(getattr(n, "args", ()))
        stack.extend(c for c in (getattr(n, "base", None), getattr(n, "arg", None))
                     if c is not None)


def _is_exp(e):
    return isinstance(e, App) and e.fn == "exp"


def _rest(t):
    """A sum's term without its rational coefficient."""
    if not (isinstance(t, Mul) and isinstance(t.factors[0], Rat)):
        return t
    return t.factors[1] if len(t.factors) == 2 else Mul(t.factors[1:])


# --- products and the function table ----------------------------------------


def test_mul_matches_two_pass_reference(seed):
    rng = random.Random(seed)
    collapsed = 0
    for _ in range(400):
        factors = random_factors(rng)
        got = mul(*factors)
        assert got.key() == _ref_mul(*factors).key(), factors
        exps = [f for f in factors if _is_exp(f)]
        collapsed += bool(exps) and not any(_is_exp(n) for n in _nodes(mul(*exps)))
    # the exp(log t) collapse ran, not only the plain exp merge
    assert collapsed > 40


@pytest.mark.parametrize("t", [
    mul(app("exp", Y), X), mul(add(X, Y), U), mul(pow_(X, 2), add(ONE, Y), app("exp", U)),
    mul(R(2), pow_(add(X, U), -1)),
], ids=["exp", "sum", "power-and-exp", "inverse-sum"])
def test_exp_log_collapse_feeds_t_back_through_mul(t):
    a = mul(R(3), X)
    pair = (app("exp", a), app("exp", add(app("log", t), mul(Rat(-1), a))))
    # t's factors merge with the others: x^-1 cancels an x, (1 + y) adds up
    for factors in (pair, pair + (Y, R(5)), (pow_(X, -1), add(ONE, Y)) + pair):
        assert mul(*factors).key() == _ref_mul(*factors).key()
    assert mul(*pair) == t


def test_corpus_is_in_collected_form(seed):
    """No Pow has a Rat, Mul, Pow or exp base, a Mul holds at most one
    Rat, first, then factors of distinct bases sorted by key, and an Add
    holds at most one Rat, nonzero and first, then terms whose rests (the
    term without its rational coefficient) are distinct and sorted by key.
    The corpus includes what ``scale`` and the one-operand paths build."""
    rng = random.Random(seed)
    corpus = []
    for _ in range(60):
        corpus += [random_jet_polynomial(rng), random_rational_expr(rng),
                   mul(*random_factors(rng))]
    corpus += [got for got, _ in _fast_path_cases(rng)]
    for e in corpus:
        for n in _nodes(e):
            if isinstance(n, Pow):
                assert not isinstance(n.base, (Rat, Mul, Pow)) and not _is_exp(n.base), n
                assert n.exp not in (0, 1), n
            if isinstance(n, Mul):
                rest = n.factors[1:] if isinstance(n.factors[0], Rat) else n.factors
                assert not any(isinstance(f, (Rat, Mul)) for f in rest), n
                assert sum(map(_is_exp, rest)) <= 1, n
                keys = [f.key() for f in rest]
                assert keys == sorted(keys), n
                bases = [f.base if isinstance(f, Pow) else f for f in rest]
                assert len(set(bases)) == len(bases), n
            if isinstance(n, Add):
                assert len(n.terms) > 1 and n.terms[0] != ZERO, n
                rest = n.terms[1:] if isinstance(n.terms[0], Rat) else n.terms
                assert not any(isinstance(t, (Rat, Add)) for t in rest), n
                keys = [_rest(t).key() for t in rest]
                assert all(a < b for a, b in zip(keys, keys[1:])), n


@pytest.mark.parametrize("fn", expr.APP_FUNCTIONS)
def test_every_app_function_differentiates_evaluates_and_prints(fn):
    e = app(fn, add(X, Y))
    assert isinstance(e, App) and e.fn == fn
    numeric = getattr(math, fn)
    assert evaluate(e, {"x": 0.5, "y": 0.25}) == numeric(0.75)
    # the symbolic x-derivative matches the hyper-dual one
    hd = evaluate(e, {"x": hyperdual.HyperDualRow.seed([0.5], [0.25])[0], "y": 0.25})
    assert hd.value == [numeric(0.75)]
    assert math.isclose(evaluate(differentiate(e, X), {"x": 0.5, "y": 0.25}), hd.dx[0],
                        rel_tol=1e-15)
    assert to_text(e) == fn + "(x + y)"
    assert to_latex(e) == "\\" + fn + r"\left(x + y\right)"


def _printed_corpus(seed):
    """The seeded kernel corpus, every determining row at symbolic
    constants and at 24 rational triples (three fixed ones with negative
    constants and denominators other than one), and every part of both
    tables there."""
    rng = random.Random(seed)
    exprs = [*_KERNEL_LEAVES, *_FAST_PATH_LEAVES]
    for _ in range(60):
        exprs += [random_jet_polynomial(rng), random_rational_expr(rng),
                  mul(*random_factors(rng))]
    exprs += [got for got, _ in _fast_path_cases(rng)]
    fixed = [ThomasParams(Fraction(-3, 4), Fraction(5, 6), Fraction(-7, 2)),
             ThomasParams(Fraction(2, 9), Fraction(-1, 3), 5), ThomasParams(0, Fraction(-8, 5), -1)]
    for p in [ThomasParams(), *fixed, *[_rational_params(rng) for _ in range(21)]]:
        exprs += [c for _, c in determining_equations(p).rows]
        for table in (commutator_table(p), adjoint_table(p)):
            exprs += [part for row in table for e in row for part in (*e.coords(), e.g)]
    return exprs


def test_printer_prints_the_reference_bytes_from_integers(seed, monkeypatch):
    """``to_text`` and ``to_latex`` print byte for byte what the reference
    printers print, which read each coefficient through Fraction compares,
    negation and a Rat node per denominator (``oracles.reference_text``,
    ``oracles.reference_latex``); the printer itself reads a Rat's
    numerator and denominator as ints, so it calls no Fraction operation
    and builds no Rat."""
    exprs = _printed_corpus(seed)
    want = [(reference_text(e), reference_latex(e)) for e in exprs]
    assert any("/" in text and "-" in text for text, _ in want)
    used = []

    def watched(owner, name):
        op = getattr(owner, name)

        def run(*args):
            if sys._getframe(1).f_globals.get("__name__") == "lie_thomas.printer":
                used.append((owner.__name__, name))
            return op(*args)
        return run

    for name in ("__eq__", "__lt__", "__gt__", "__neg__", "__abs__", "__mul__", "__bool__"):
        monkeypatch.setattr(Fraction, name, watched(Fraction, name))
    monkeypatch.setattr(Rat, "__init__", watched(Rat, "__init__"))
    got = [(to_text(e), to_latex(e)) for e in exprs]
    monkeypatch.undo()
    assert got == want
    assert used == []


# --- differential tests -----------------------------------------------------


def _assert_collected_equal(got: dict, want: dict, context=None):
    """Same jet monomials, each coefficient equal in value: the normal form
    expands the products that the tree fold keeps."""
    assert got.keys() == want.keys(), context
    for m, c in got.items():
        assert normal.equal(c, want[m]), (context, m)


@pytest.mark.parametrize("case", range(60))
def test_collect_matches_fold_reference(case, seed):
    rng = random.Random(seed * 1000 + case)
    e = random_jet_polynomial(rng)
    _assert_collected_equal(JetPolynomial.from_expr(e).coeffs, _ref_collect(e))


@pytest.mark.parametrize("e, where", (
    (mul(X, pow_(add(JETS[(1, 0)], ONE), -1)), "in a denominator"),
    (app("exp", mul(U, JETS[(0, 1)])), "inside an exp or log"),
    (mul(JETS[(1, 0)], app("log", add(X, JETS[(2, 0)]))), "inside an exp or log"),
), ids=("denominator", "exp", "log"))
def test_from_expr_rejects_jets_it_cannot_collect(e, where):
    with pytest.raises(jetpoly.JetPolynomialError, match=where):
        JetPolynomial.from_expr(e)


@pytest.mark.parametrize("case", range(60))
def test_normal_form_matches_generic_reference(case, seed, monkeypatch):
    rng = random.Random(seed * 1000 + case)
    for e in (random_rational_expr(rng), random_jet_polynomial(rng)):
        assert _nf_keys(normal.normal_form(e)) == _nf_keys(_ref_normal_form(e))
        got = normal.canonical_expr(e)
        with monkeypatch.context() as mp:
            mp.setattr(normal, "normal_form", _ref_normal_form)
            want = normal.canonical_expr(e)
        assert got.key() == want.key()


_EXP_LOG = app("exp", add(app("log", R(2, 3)), X))  # times exp(-x) it is 2/3
_EXP_LOG_SUMS = (add(_EXP_LOG, Y), add(app("exp", mul(Rat(-1), X)), ONE))
_KERNEL_LEAVES = (ZERO, ONE, Rat(-1), R(2, 3), R(-5, 7), R(3), X, Y, U, ALPHA, _XI(),
                  app("exp", X), app("exp", mul(Rat(-1), X)), app("log", Y), _EXP_LOG,
                  *_EXP_LOG_SUMS, mul(*_EXP_LOG_SUMS))


def test_kernel_matches_full_arithmetic_reference(seed, monkeypatch):
    """``add``, ``mul`` and ``normal_form`` give what the kernel gives when it
    does every Fraction operation, on trees that mix 0, +-1, other rationals,
    cancelling sums, integer powers and exp/log; products of sums holding
    exp(log(2/3) + x) and exp(-x) merge to the rational factor 2/3."""
    merged = []
    merge = normal._merge_exps

    def counted_merge(acc):
        k = merge(acc)
        merged.append(k != 1)
        return k

    monkeypatch.setattr(normal, "_merge_exps", counted_merge)

    def same_normal_form(e):
        nf, ref = normal.normal_form(e), _ref_normal_form(e)
        return nf.num == ref.num and nf.den == ref.den

    assert all(same_normal_form(e) for e in _KERNEL_LEAVES)
    assert any(merged)
    rng = random.Random(seed)
    pool = list(_KERNEL_LEAVES)
    for _ in range(250):
        args = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
        kind = rng.random()
        if kind < 0.15:
            args.append(mul(Rat(-1), args[0]))  # a sum that cancels
        if kind < 0.45:
            got, want = add(*args), _full_add(*args)
        elif kind < 0.85:
            got, want = mul(*args), _full_mul(*args)
        else:
            base, n = add(*args), rng.choice((-2, -1, 2, 3))
            if base == ZERO:
                continue
            got = want = pow_(base, n)
        assert got.key() == want.key(), args
        assert same_normal_form(got), got
        # powers are not fed back, so exponents stay small
        if kind < 0.85 and sum(1 for _ in _nodes(got)) <= 12:
            pool.append(got)


_KERNEL_MODULES = ("lie_thomas.expr", "lie_thomas.normal")


def test_kernel_does_no_arithmetic_with_a_known_result(seed, monkeypatch):
    """While the determining system and the algebra tables are derived and
    read off at rational constants, the rows are printed, and v1..v4 and
    an exponential v_g are built and checked there, no Fraction product or
    sum in ``expr``, ``normal``, ``determining`` or ``printer`` multiplies
    by one or by zero or adds zero."""
    known = []
    modules = _KERNEL_MODULES + ("lie_thomas.determining", "lie_thomas.printer")

    def watched(name, op, trivial):
        def run(a, b):
            caller = sys._getframe(1).f_globals.get("__name__")
            if caller in modules and trivial(a, b):
                known.append((name, a, b))
            return op(a, b)
        return run

    def unit_or_zero(a, b):
        return a == 1 or b == 1 or a == 0 or b == 0

    def zero(a, b):
        return a == 0 or b == 0

    rng = random.Random(seed)
    p = _rational_params(rng)
    lam = Fraction(rng.randint(1, 5), rng.randint(1, 3))
    if p.beta == -lam:
        lam += 1  # exponential_g needs lam + beta nonzero
    with monkeypatch.context() as mp:
        for name, trivial in (("__mul__", unit_or_zero), ("__rmul__", unit_or_zero),
                              ("__add__", zero), ("__radd__", zero)):
            mp.setattr(Fraction, name, watched(name, getattr(Fraction, name), trivial))
        # the cold derivations, the system's one large normal form included
        _symbolic_system.__wrapped__()
        _symbolic_tables.__wrapped__()
        rows = determining_equations(p).rows
        for _, c in rows:
            to_text(c), to_latex(c)
        commutator_table(p)
        adjoint_table(p)
        for vf in (v1(), v2(), v3(), v4(p), v_g(exponential_g(lam, p)[0], p)):
            assert check_symmetry(vf, p)[0], vf
    assert known == []


def _rational_params(rng):
    alpha, beta = (Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(2))
    gamma = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
    return ThomasParams(alpha, beta, gamma)


def _polynomial(rng):
    """A polynomial in (x, y, u) with rational coefficients and exponents
    of at most 2."""
    return add(*[mul(_rational(rng), *[pow_(v, rng.randint(0, 2)) for v in (X, Y, U)])
                 for _ in range(rng.randint(0, 3))])


def _reference_fields(seed):
    """v1..v4 and an exponential v_g at symbolic and 20 rational constants,
    and 20 polynomial point fields."""
    rng = random.Random(seed)
    fields = [symbolic_field()]
    for p in [ThomasParams()] + [_rational_params(rng) for _ in range(20)]:
        lam = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        if p.beta == -lam:
            lam += 1  # exponential_g needs lam + beta nonzero
        fields += [v1(), v2(), v3(), v4(p), v_g(exponential_g(lam, p)[0], p)]
    fields += [VectorField(*[_polynomial(rng) for _ in range(3)]) for _ in range(20)]
    return fields


def test_prolongation_coefficients_match_reference(seed):
    """Key for key on the symbolic field, whose coefficients ``derive``
    prints; equal in value on the rest."""
    symbolic = symbolic_field()
    for vf in _reference_fields(seed):
        want = {k: _ref_collect(raw) for k, raw in _ref_prolong_raw(vf).items()}
        pf = prolong(vf)
        for key in COEFF_KEYS:
            got = pf.coefficient(key).coeffs
            if vf == symbolic:
                assert _keys(got) == _keys(want[key]), key
            else:
                _assert_collected_equal(got, want[key], (vf, key))


def _collected_keys(pf):
    return {k: _keys(pf.coefficient(k).coeffs) for k in COEFF_KEYS}


def test_memoized_prolongation_matches_a_fresh_derivation(seed):
    for vf in _reference_fields(seed):
        assert _collected_keys(prolong(vf)) == _collected_keys(prolong.__wrapped__(vf))


# the last two put sums in the u_xy coefficient of phi^xy, so the elimination
# multiplies sums by the coefficients of the substituted polynomial
_NON_SYMMETRIES = (
    VectorField(X * X, ZERO, ZERO),
    VectorField(ZERO, ZERO, U * U),
    VectorField(X * X, Y * U, U * U),
    VectorField(X * Y, U, app("exp", X + U)),
)


@pytest.mark.parametrize("field", range(len(_NON_SYMMETRIES)))
def test_check_symmetry_residual_matches_expression_path(field):
    # alpha and beta nonzero: at beta = 0, xi = x^2 is a symmetry
    vf = _NON_SYMMETRIES[field]
    for p in (ThomasParams(), ThomasParams(Fraction(2, 3), Fraction(-1, 2), 3)):
        ok, residual = check_symmetry(vf, p)
        assert not ok
        assert normal.equal(residual, _ref_manifold_action(vf, p).to_expr()), p


def _row_keys(p):
    return [(m, c.key()) for m, c in determining_equations(p).rows]


def test_determining_rows_match_reference(monkeypatch, seed):
    rng = random.Random(seed)
    params = [ThomasParams()] + [_rational_params(rng) for _ in range(20)]
    with monkeypatch.context() as mp:
        # the whole derivation on the expression path and reference accumulation
        mp.setattr(normal, "normal_form", _ref_normal_form)
        want = [[(m, normal.canonical_expr(c).key())
                 for m, c in _ref_manifold_action(symbolic_field(), p).items()]
                for p in params]
    for p, rows in zip(params, want):
        assert _row_keys(p) == rows, p


# --- fast paths -------------------------------------------------------------


_FAST_PATH_LEAVES = (mul(R(2), add(X, ONE), Y), add(R(3), X), app("exp", mul(R(2), U)),
                     app("log", add(X, Y)))
# 2 * 1/2 is exactly one before the 3, and 1 + -1 exactly zero before the 5
_RATIONAL_RUNS = ((), (R(-2, 3),), (R(2), R(1, 2), R(3)), (ONE, Rat(-1), R(5)))


def _fast_path_cases(rng):
    """(built, reference) pairs: ``scale`` against ``_full_mul`` by its
    rational, and ``mul``/``add`` against ``_full_mul``/``_full_add`` with
    one operand that is not a Rat, or none, on the kernel's leaves (0, +-1,
    exp/log atoms and sums of them), a product holding a sum, a sum with a
    constant, and a random corpus."""
    corpus = [*_KERNEL_LEAVES, *_FAST_PATH_LEAVES]
    for _ in range(30):
        corpus += [random_jet_polynomial(rng), random_rational_expr(rng),
                   mul(*random_factors(rng))]
    cases = []
    for e in corpus:
        for q in (0, 1, -1, Fraction(2, 3), _rational(rng).value):
            cases.append((scale(q, e), _full_mul(Rat(q), e)))
        drawn = tuple(_rational(rng) for _ in range(rng.randint(1, 3)))
        for run in _RATIONAL_RUNS + (drawn,):
            for args in (run + (e,), (e,) + run):
                cases.append((mul(*args), _full_mul(*args)))
                cases.append((add(*args), _full_add(*args)))
    return cases


def test_fast_paths_match_full_arithmetic_reference(seed, monkeypatch):
    """``scale`` and the one-operand paths of ``mul`` and ``add`` build the
    node the full collection builds, and make no Fraction product by one
    or sum with zero on the way."""
    known = []

    def watched(op, trivial):
        def run(a, b):
            if sys._getframe(1).f_globals.get("__name__") in _KERNEL_MODULES and trivial in (a, b):
                known.append((op.__name__, a, b))
            return op(a, b)
        return run

    for name, trivial in (("__mul__", 1), ("__rmul__", 1), ("__add__", 0), ("__radd__", 0)):
        monkeypatch.setattr(Fraction, name, watched(getattr(Fraction, name), trivial))
    cases = _fast_path_cases(random.Random(seed))
    monkeypatch.undo()
    assert len(cases) > 2000
    for got, want in cases:
        assert got.key() == want.key(), want
    assert known == []


# --- numeric oracle ---------------------------------------------------------


_VALUED_ATOMS = (X, Y, U, ALPHA, BETA, GAMMA, app("log", X), app("log", add(X, Y)))


def _valued_expr(rng, depth):
    """A random expression over atoms that have values, built by ``scale``,
    the operators and the one-operand paths of ``add`` and ``mul``."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(_VALUED_ATOMS) if rng.random() < 0.8 else _rational(rng)
    a, b = _valued_expr(rng, depth - 1), _valued_expr(rng, depth - 1)
    q = _rational(rng)
    build = rng.choice((
        lambda: scale(q.value, a),
        lambda: a + b,
        lambda: a - b,
        lambda: -a,
        lambda: q * a,
        lambda: a * b,
        lambda: add(q, a, R(1, 3)),
        lambda: mul(R(2), a, q),
        lambda: pow_(a, 2),
        lambda: pow_(add(ONE, pow_(a, 2)), -1),  # positive wherever a is real
        lambda: app("exp", scale(Fraction(rng.randint(-2, 2), 4), rng.choice((X, U)))),
    ))
    return build()


def _values(e, points):
    return [evaluate(e, env) for env in points]


def _agree(u, v):
    return all(math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9) for a, b in zip(u, v))


def _valued_corpus(seed):
    """The generator after the draws, three seeded rational points with
    every atom value above 1 (so each log is positive and defined), and
    320 seeded expressions."""
    rng = random.Random(seed)
    points = [{s.name: Fraction(rng.randint(5, 19), 4) for s in _VALUED_ATOMS[:6]}
              for _ in range(3)]
    return rng, points, [_valued_expr(rng, 3) for _ in range(320)]


def test_equal_and_canonical_expr_keep_numeric_values(seed):
    """Where ``normal.equal`` says two expressions are equal they agree at
    three seeded rational points, and ``canonical_expr`` keeps the value
    of what it rebuilds.  One direction only: ``equal`` may miss an
    equality between dependent exp atoms."""
    rng, points, exprs = _valued_corpus(seed)
    equal_pairs = 0
    for e, f in zip(exprs, exprs[1:] + exprs[:1]):
        values = _values(e, points)
        assert _agree(values, _values(normal.canonical_expr(e), points)), e
        q = _rational(rng)
        for a, b in ((e, f), (e - f, f - e), (e - f, -(f - e)),
                     (q * (e + f), scale(q.value, e) + q * f), (mul(e, f), mul(f, e, ONE))):
            if normal.equal(a, b):
                equal_pairs += 1
                assert _agree(_values(a, points), _values(b, points)), (a, b)
    # equal sees nearly all of the three equalities built for each expression
    assert equal_pairs >= 2.5 * len(exprs)


def test_canonical_expr_is_idempotent_under_equal(seed):
    """On the same corpus, ``equal`` finds each expression equal to its
    canonical form, and that form equal to its own canonical form: the
    reduction proofs read ``is_zero`` on canonical forms.  The one known
    miss, exp factors that ``_merge_exps`` leaves unmerged where their
    merged argument collapses (see ``normal``), needs an exp whose
    argument holds a log; this corpus builds exp only of rational
    multiples of x and u, and lists any miss it finds."""
    _, _, exprs = _valued_corpus(seed)
    misses = []
    for e in exprs:
        c = normal.canonical_expr(e)
        if not (normal.equal(e, c) and normal.equal(c, normal.canonical_expr(c))):
            misses.append(e)
    assert misses == []


# --- complexity and guard ---------------------------------------------------


def _add_nodes_built(monkeypatch, e) -> int:
    count = [0]
    init = expr.Add.__init__

    def counting_init(self, terms):
        count[0] += 1
        init(self, terms)

    with monkeypatch.context() as mp:
        mp.setattr(expr.Add, "__init__", counting_init)
        JetPolynomial.from_expr(e)
    return count[0]


@pytest.mark.parametrize("n", (50, 100))
def test_shared_monomial_collects_in_constant_add_nodes(monkeypatch, n):
    """n terms on one jet monomial are summed by one n-ary add, not folded
    one by one (which builds a fresh Add node for every partial sum)."""
    coeffs = [expr.param("k%d" % i) for i in range(n)]
    e = add(*[mul(c, JETS[(1, 0)], JETS[(0, 1)]) for c in coeffs])
    assert _add_nodes_built(monkeypatch, e) <= 2


def _drop_corrections(monkeypatch, jets):
    """Make ``prolong`` drop its xi u_(J,x) + eta u_(J,y) terms on ``jets``:
    they are its only products that end in a bare jet (a total derivative
    puts the jet first)."""
    full = vectorfield.mul

    def uncorrected(*factors):
        return ZERO if factors[-1] in jets else full(*factors)

    monkeypatch.setattr(vectorfield, "mul", uncorrected)
    prolong.cache_clear()


def test_third_order_guard_still_raises(monkeypatch):
    # the xi*u_(J,x) + eta*u_(J,y) terms cancel the third-order jets of
    # D_J Q; without their u_xxx, u_xxy, u_xyy and u_yyy products some survive
    assert prolong(symbolic_field()).coefficients
    _drop_corrections(monkeypatch, [JETS[k] for k in ((3, 0), (2, 1), (1, 2), (0, 3))])
    with pytest.raises(ProlongationError, match="third-order jets"):
        prolong(symbolic_field())


def test_second_order_guard_raises(monkeypatch):
    # without their u_xx, u_xy and u_yy products the first-order
    # coefficients keep the second-order jets of D_x Q and D_y Q
    _drop_corrections(monkeypatch, [JETS[(2, 0)], JETS[(1, 1)], JETS[(0, 2)]])
    with pytest.raises(ProlongationError, match=r"second-order jets .* \(1, 0\)"):
        prolong(symbolic_field())


def test_only_expr_builds_sums_and_products():
    """The fast paths take every Add and Mul operand to be in collected
    form, which holds while only ``add``, ``mul`` and ``scale`` in ``expr``
    build them."""
    builders = set()
    for path in sorted(pathlib.Path(expr.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                    if name in ("Add", "Mul"):
                        builders.add((path.name, getattr(top, "name", None)))
    assert builders == {("expr.py", "add"), ("expr.py", "mul"), ("expr.py", "scale")}
