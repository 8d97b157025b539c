"""Invariance criterion for u_xy + alpha*u_x + beta*u_y + gamma*u_x*u_y = 0.

Applying the prolonged action of a fully symbolic point field to the
equation and eliminating u_xy on the solution manifold yields twelve
monomial coefficients that must vanish.  Where alpha*beta != 0 their
integration collapses the symmetry algebra to four explicit fields plus an
infinite family indexed by solutions g of the linearized equation
alpha*g_x + beta*g_y + g_xy = 0.  Where alpha*beta = 0 the rows admit more:
xi(x) d/dx - (beta/gamma) xi(x) d/du and eta(y) d/dy - (alpha/gamma) eta(y)
d/du for every xi and eta (ledger slug most-general-symmetry-alpha-beta-zero).

The system is derived once per process, at the symbolic constants, through
one normal form: the action, with u_xy replaced by its value on the
solution manifold, is normalized as a whole and its monomials are grouped
by their jet part.  The rows are linear in the partials of xi, eta and phi
with coefficients polynomial in (alpha, beta, gamma), so each is kept as
its linear form, one (partial, constant monomial, coefficient) term per
monomial: the forms are the system's coefficient matrix.  Every other
reading binds their atoms through ``_bound_row``: ``determining_equations``
binds the constants, and ``check_symmetry``'s row route binds the
constants and each partial to the matching partial of the given field's
coefficient.  A term whose partial or constant is a rational zero is
skipped, and the rational terms are summed as Fractions, so a row whose
terms are all rational is decided by its value, without a normal form;
both are exact, since a skipped term is zero and a Rat is zero iff its
value is.  No field other than the symbolic one is prolonged.

``check_symmetry`` takes one of two routes.  A field that
``general_symmetry`` or ``v_g`` built keeps its (k, g, constants,
proved) beside its coefficients, and is read off one identity, proved
once per process on the row route at symbolic constants, a, b, c, k and
g (``_proved_identity``): the residual of general_symmetry(a, b, c, k, g)
is -(1/gamma) e^{-gamma u} (alpha g_x + beta g_y + g_xy).  Such a field
is a symmetry at every constant set when g = k = 0, and at its own
constants when g = 0 or ``v_g`` has checked g on its linearized equation;
otherwise its flag is that test and its residual the identity at g.
``v_g`` checks an exponential g = e^{lambda x + mu y + nu} with constant
lambda and mu by the dispersion relation alpha*lambda + beta*mu +
lambda*mu = 0, which ``_proved_identity`` proves once per process too, and
every other g by zero-testing alpha*g_x + beta*g_y + g_xy.  v1, v2 and v3
depend on no constant and are built once.
Every other field, and a kept field at other constants, takes the row
route: the rows bound to its partials.
"""

from __future__ import annotations

from functools import cache

from .errors import Record
from .expr import (
    ALPHA,
    BETA,
    GAMMA,
    App,
    Expr,
    Func,
    PARAM,
    Rat,
    Sym,
    U,
    UFunc,
    U_X,
    U_XY,
    U_Y,
    X,
    Y,
    ZERO,
    add,
    app,
    atoms,
    contains_jet,
    differentiate,
    exp,
    mul,
    param,
    pow_,
    scale,
    substitute,
    _is_zero,
    _wrap,
)
from .jetpoly import jet_groups, mono_expr, mono_order_key
from .normal import canonical_expr, equal, is_zero, poly_expr
from .params import ParameterError, ThomasParams
from .vectorfield import VectorField, apply_prolonged, prolong, symbolic_field


def thomas_delta(p: ThomasParams) -> Expr:
    return add(U_XY, mul(p.alpha, U_X), mul(p.beta, U_Y), mul(p.gamma, U_X, U_Y))


class DeterminingSystem(Record):
    rows: tuple  # ordered (jet monomial, Expr) pairs

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)


_CONSTANTS = (ALPHA, BETA, GAMMA)
_VARS = {"x": X, "y": Y, "u": U}
_FIELD = symbolic_field()


def _derivation_steps(partials) -> tuple:
    """(partial, lower partial, variable) triples for ``partials`` and the
    partials they are taken from: each is one derivative of a partial of
    one order less, listed before it.  A lower partial is the rows' own
    object, or the symbolic field's coefficient, wherever there is one, so
    that a binding finds each partial by identity."""
    known = {a: a for a in (*partials, _FIELD.xi, _FIELD.eta, _FIELD.phi)}
    steps = {}
    todo = list(partials)
    while todo:
        a = todo.pop()
        if a in steps or not any(a.derivs):
            continue
        i = next(i for i, n in enumerate(a.derivs) if n)
        lower = Func(a.name, a.params, a.derivs[:i] + (a.derivs[i] - 1,) + a.derivs[i + 1:])
        lower = known.setdefault(lower, lower)
        steps[a] = (a, lower, _VARS[a.params[i]])
        todo.append(lower)
    return tuple(sorted(steps.values(), key=lambda step: sum(step[0].derivs)))


@cache
def _symbolic_system():
    """(system, forms, steps): the determining system at the symbolic
    constants, derived once; each row as its linear form, in row order;
    and the derivation steps of the partials of xi, eta and phi that the
    rows hold.

    The action of the prolonged symbolic field on the equation, with u_xy
    replaced by u_xy - delta (its value where delta = 0), is normalized
    once and its monomials are grouped by their jet part (``jet_groups``).
    The action is a polynomial, so the normal form has denominator one and
    each row rebuilt from its polynomial is its ``canonical_expr``.  Each
    monomial of a row holds one partial, to the first power, beside a
    monomial in the constants: the row's linear form has one
    (partial, constant monomial, coefficient) term per monomial."""
    delta = thomas_delta(ThomasParams())
    action = apply_prolonged(prolong(_FIELD), delta)
    grouped, _ = jet_groups(substitute(action, {U_XY: add(U_XY, mul(Rat(-1), delta))}))
    rows, forms = [], []
    for m in sorted(grouped, key=mono_order_key):
        rows.append((m, poly_expr(grouped[m])))
        form = []
        for mono, c in grouped[m].items():
            a = next(a for a, _ in mono if type(a) is Func)
            form.append((a, tuple(t for t in mono if t[0] is not a), c))
        forms.append(tuple(form))
    partials = {a for form in forms for a, _, _ in form}
    return DeterminingSystem(tuple(rows)), tuple(forms), _derivation_steps(partials)


def _bound_row(form, values: dict) -> Expr:
    """The row of linear form ``form`` with each partial and constant a
    that ``values`` maps bound to values[a].  A term whose partial is a
    rational zero is skipped before any constant is bound, and one whose
    constant is a rational zero next, since each is zero.  The rational
    factors of a term multiply its coefficient as Fractions, with no
    product by one; a term with no other factor is summed into the row's
    Fraction, and only the others are built as expressions, so a row whose
    terms are all rational is a Rat."""
    total, terms = None, []
    for a, mono, c in form:
        v = values.get(a, a)
        if type(v) is Rat and not v.value:
            continue
        factors = []
        for s, n in mono:
            w = values.get(s, s)
            if type(w) is not Rat:
                factors.append(pow_(w, n))
            elif not w.value:
                break
            else:
                q = w.value if n == 1 else w.value**n
                if q != 1:
                    c = q if c == 1 else c * q
        else:
            if factors:
                terms.append(mul(Rat(c), *factors, v))
            elif type(v) is not Rat:
                terms.append(scale(c, v))
            else:
                if v.value != 1:
                    c = v.value if c == 1 else c * v.value
                total = total + c if total else c
    return add(Rat(total), *terms) if total else add(*terms)


def determining_equations(p: ThomasParams = ThomasParams()) -> DeterminingSystem:
    """Monomial coefficients of the prolonged symbolic action on the
    equation, after eliminating u_xy on the solution manifold.

    Read off the symbolic system by binding the constants in each row's
    linear form (``_bound_row``).  At rational constants each term is its
    partial scaled by a Fraction, collected by ``add`` as ``poly_expr``
    collects the row's polynomial, so the rows equal those derived at p
    key for key (every row holds a term free of the constants, so none
    vanishes).  At any other constants the bound row is rebuilt by
    ``canonical_expr``: equal in value to the row derived at p, though
    its key may differ where p has denominators."""
    system, forms, _ = _symbolic_system()
    values = {s: c for s, c in zip(_CONSTANTS, (p.alpha, p.beta, p.gamma)) if c != s}
    if not values:
        return system
    rational = all(type(c) is Rat for c in values.values())
    rows = [_bound_row(form, values) for form in forms]
    return DeterminingSystem(tuple((m, row if rational else canonical_expr(row))
                                   for (m, _), row in zip(system, rows)))


def check_symmetry(vf: VectorField, p: ThomasParams = ThomasParams()):
    """(flag, residual): flag is True iff the prolonged action of vf on the
    equation vanishes on the solution manifold; the residual is that
    action, ZERO where it vanishes.

    A field that ``general_symmetry`` or ``v_g`` built is read off the
    identity ``_proved_identity`` proves, with nothing prolonged or bound:
    with g = k = 0 its coefficients are constants, a symmetry at every p;
    at the constants it was built at it is a symmetry when g = 0 or its
    g was checked on the linearized equation, and otherwise its flag is
    that check and its residual the identity's at g.  Every other field,
    and a built field at other constants, takes the row route
    (``_row_route``)."""
    built = vf._built
    if built is not None:
        k, g, q, proved = built
        _proved_identity()
        if _is_zero(g) and _is_zero(k):
            return True, ZERO
        if q == p:
            if _is_zero(g) or proved:
                return True, ZERO
            constraint = linearized_constraint(g, p)
            if is_zero(constraint):
                return True, ZERO
            return False, _g_phi(constraint, p)
    return _row_route(vf, p)


def _row_route(vf: VectorField, p: ThomasParams):
    """check_symmetry on the symbolic system, derived once and read at any
    constants and field by binding, as the algebra tables are: the
    constants are bound to p and each partial of xi, eta and phi to that
    partial of vf's coefficient, which commutes with the prolongation and
    with taking each jet monomial's coefficient; a partial of a rational
    partial is ZERO, taken without differentiating.  Each row's linear
    form is bound by ``_bound_row``: a zero partial or constant drops its
    term, and a row whose terms are all rational is a Rat, decided by its
    value without a normal form.  Only a row that holds an expression is
    zero-tested by ``is_zero``.  Both shortcuts are exact: a skipped term
    is zero, and a Rat is zero iff its value is.  The residual of a field
    that fails is the sum of its bound rows times their jet monomials:
    equal in value to its own prolonged action on the solution manifold."""
    system, forms, steps = _symbolic_system()
    values = {ALPHA: p.alpha, BETA: p.beta, GAMMA: p.gamma,
              _FIELD.xi: vf.xi, _FIELD.eta: vf.eta, _FIELD.phi: vf.phi}
    for a, lower, var in steps:
        f = values[lower]
        values[a] = ZERO if type(f) is Rat else differentiate(f, var)
    rows = [(m, _bound_row(form, values)) for (m, _), form in zip(system, forms)]
    if all(not row.value if type(row) is Rat else is_zero(row) for _, row in rows):
        return True, ZERO
    return False, add(*[mul(row, mono_expr(m)) for m, row in rows])


_G = UFunc("g", ("x", "y"))()


@cache
def _proved_identity():
    """Prove, once per process, the two identities fields and g's are read
    off.  A failed proof raises.

    The field identity: on the row route, at the symbolic constants, a,
    b, c and k, and g an unknown function of (x, y), general_symmetry's
    field fails with residual -(1/gamma) e^{-gamma u} (alpha g_x +
    beta g_y + g_xy), the phi of v_g at g's linearized equation
    (``_g_phi``).  It holds at every substitution of constants free of x,
    y and u for the symbols (gamma nonzero) and of a function of (x, y)
    for g.

    The dispersion relation: at the symbolic constants and symbolic
    lambda, mu and nu, g = e^{lambda x + mu y + nu} has
    linearized_constraint(g) = (alpha lambda + beta mu + lambda mu) g.
    The constants enter linearly and undifferentiated, and lambda, mu and
    nu are free of x and y, so it holds at every substitution of
    expressions free of x and y for them (``_check_g``).  Each identity is
    one of expressions in independent symbols and the partials of g."""
    p = ThomasParams()
    vf = general_symmetry(*[param(n) for n in "abck"], g=_G, p=p, check=False)
    flag, residual = _row_route(vf, p)
    want = _g_phi(linearized_constraint(_G, p), p)
    if flag or not equal(residual, want):
        raise AssertionError("the residual of general_symmetry is %r, not %r" % (residual, want))
    lam, mu, nu = _RATES
    g = exp(add(mul(lam, X), mul(mu, Y), nu))
    constraint = linearized_constraint(g, p)
    want = mul(_dispersion(lam, mu, p), g)
    if not equal(constraint, want):
        raise AssertionError("the linearized equation at %r is %r, not %r" % (g, constraint, want))


_RATES = (param("lambda"), param("mu"), param("nu"))


def _dispersion(lam: Expr, mu: Expr, p: ThomasParams) -> Expr:
    """alpha*lambda + beta*mu + lambda*mu: e^{lambda x + mu y + nu} solves
    the linearized equation iff this is zero."""
    return add(mul(p.alpha, lam), mul(p.beta, mu), mul(lam, mu))


# the four explicit generators; v1, v2 and v3 depend on no constant, and
# are built once, at the end of the module


def v1() -> VectorField:
    """d/dx, built once at import; every call returns that field."""
    return _V1


def v2() -> VectorField:
    """d/dy, built once at import; every call returns that field."""
    return _V2


def v3() -> VectorField:
    """d/du, built once at import; every call returns that field."""
    return _V3


def v4(p: ThomasParams = ThomasParams()) -> VectorField:
    return general_symmetry(k=1, p=p)


def linearized_constraint(g: Expr, p: ThomasParams = ThomasParams()) -> Expr:
    """alpha*g_x + beta*g_y + g_xy for a function g of (x, y)."""
    if contains_jet(g) or differentiate(g, U) != ZERO:
        raise ParameterError("g must depend on (x, y) only")
    g_x = differentiate(g, X)
    return add(mul(p.alpha, g_x), mul(p.beta, differentiate(g, Y)), differentiate(g_x, Y))


def v_g(g: Expr, p: ThomasParams = ThomasParams(), check: bool = True) -> VectorField:
    """The infinite-family generator -(g/gamma) e^{-gamma u} d/du.  With
    ``check`` g must solve the linearized equation at p (``_check_g``: an
    exponential g by its dispersion relation, any other by
    differentiation), or ParameterError names the residual."""
    g = _wrap(g)
    if check:
        _check_g(g, p)
    return _kept(VectorField(ZERO, ZERO, _g_phi(g, p)), (ZERO,) * 4, g, p, check)


def general_symmetry(
    a=0,
    b=0,
    c=0,
    k=0,
    g: Expr = ZERO,
    p: ThomasParams = ThomasParams(),
    check: bool = True,
) -> VectorField:
    """Most general point symmetry where alpha*beta != 0: xi = -k*gamma*x + c,
    eta = k*gamma*y + b, phi = -(g/gamma) e^{-gamma u} + k*(beta*x - alpha*y)
    + a.  Where alpha*beta = 0 the algebra is larger (see the module notes)."""
    a, b, c, k = (_wrap(t) for t in (a, b, c, k))
    if _is_zero(k):  # the k terms vanish; they are not built
        xi, eta, phi = c, b, a
    else:
        xi = add(mul(Rat(-1), k, p.gamma, X), c)
        eta = add(mul(k, p.gamma, Y), b)
        phi = add(mul(k, add(mul(p.beta, X), mul(Rat(-1), p.alpha, Y))), a)
    g = _wrap(g)
    if _is_zero(g) or is_zero(g):
        g = ZERO
    else:
        if check:
            _check_g(g, p)
        phi = add(_g_phi(g, p), phi)
    return _kept(VectorField(xi, eta, phi), (a, b, c, k), g, p, check)


def _check_g(g: Expr, p: ThomasParams) -> None:
    """Raise ParameterError, naming linearized_constraint(g, p) as the
    residual, unless g solves the linearized equation at p.

    A g = exp(A) with A free of u and the jets, whose partials lambda =
    A_x and mu = A_y are constants (``_constant``), is
    e^{lambda x + mu y + nu} with nu free of x and y: it is decided by the
    dispersion relation ``_proved_identity`` proves, alpha*lambda +
    beta*mu + lambda*mu = 0, and its constraint is built only to name the
    residual of one that fails.  Every other g is decided by zero-testing
    its constraint."""
    exponential = (type(g) is App and g.fn == "exp" and not contains_jet(g.arg)
                   and _is_zero(differentiate(g.arg, U)))
    if exponential:
        lam, mu = differentiate(g.arg, X), differentiate(g.arg, Y)
        exponential = _constant(lam) and _constant(mu)
    if exponential:
        _proved_identity()
        if is_zero(_dispersion(lam, mu, p)):
            return
    constraint = linearized_constraint(g, p)
    if exponential or not is_zero(constraint):
        raise ParameterError(
            "g does not satisfy the linearized equation; residual %r" % constraint
        )


def _g_phi(g: Expr, p: ThomasParams) -> Expr:
    """-(g/gamma) e^{-gamma u}: the phi of v_g, and at g's linearized
    equation the residual of every field general_symmetry builds with g."""
    return mul(Rat(-1), g, app("exp", mul(Rat(-1), p.gamma, U)), pow_(p.gamma, -1))


def _constant(e: Expr) -> bool:
    """e holds no x, y, u, jet or unknown function: rationals and named
    constants only."""
    return type(e) is Rat or all(type(s) is Sym and s.kind == PARAM for s in atoms(e))


def _kept(vf: VectorField, coords, g: Expr, p: ThomasParams, proved: bool) -> VectorField:
    """vf, keeping (k, g, p, proved) for ``check_symmetry`` where the
    proved identity covers it: the coordinates (a, b, c, k) and the
    constants free of x, y and u, and g a function of (x, y), as the
    linearized check has found it where ``proved``."""
    if (all(map(_constant, (*coords, p.alpha, p.beta, p.gamma)))
            and (proved or _is_zero(g) or not contains_jet(g) and differentiate(g, U) == ZERO)):
        object.__setattr__(vf, "_built", (coords[3], g, p, proved))
    return vf


def exponential_g(lam, p: ThomasParams = ThomasParams()):
    """g = exp(lam*x + mu*y) with mu chosen so the linearized equation
    holds; needs lam + beta nonzero."""
    lam = _wrap(lam)
    denom = add(lam, p.beta)
    if is_zero(denom):
        raise ParameterError("lam + beta must be nonzero")
    mu = mul(Rat(-1), p.alpha, lam, pow_(denom, -1))
    return exp(add(mul(lam, X), mul(mu, Y))), mu


_V1, _V2, _V3 = general_symmetry(c=1), general_symmetry(b=1), general_symmetry(a=1)
