"""Invariant coordinates and reduced ODEs for each canonical case.

For a canonical generator v the pair (chi, varsigma) solves v(chi) =
v(varsigma) = 0.  The ansatz varsigma = F(chi), pushed through the chain
rule, gives the jets of u from that same pair (_jets), and putting
them into the equation leaves an ODE in F.  Each case states its
pair and its ODE, beside the nonzero factor m in lhs = m * Delta|ansatz,
in one switch (_reduction), on the branch that _branch picks: _branch
holds every branch condition.  An order-0 reduction is an identity or
inconsistent, by one rule (_order0).

The reduction is proved once per stratum.  Each branch is a stratum,
keyed (tag, kind, where), and STRATA holds its representative: a1, a2 and
the constants symbolic, except where the branch fixes them (a1 = 0,
alpha*a2 + gamma = 0, alpha = 0 or beta = 0).  proved_stratum runs the
case's formulas at the representative, substitutes the chain-rule jets of
its invariants into the equation and confirms with is_zero that the
result is 1/m times the stored ODE: an identity in the free symbols
wherever its divisors (the factors of m and of d(varsigma)/du, and every
constant the pair or the ODE divides by) do not vanish.  That runs once
per stratum and process, and only there do the formulas run (but for
Case2_4's pair, which has no ODE).  A call is read off its stratum:
invariants and reduced_ode return the representative's pair and ODE with
the call's a1, a2, alpha, beta and gamma substituted, and verify_reduction
checks that no divisor vanishes at those values and that they satisfy the
relations the stratum fixes.  A substitution instance of an identity in
the free symbols holds wherever no divisor vanishes, so the pair that
reduce prints and the ODE it states are, by construction, the proved ones.

Naming: S1 and S2 below are the opaque symbols varsigma_chi and
varsigma_chichi standing for F' and F''; first-order cases are
conventionally written in theta = varsigma_chi.
"""

from __future__ import annotations

from functools import cache

from .cases import CASES
from .errors import DomainError, Record
from .expr import (
    ALPHA,
    BETA,
    GAMMA,
    PARAM,
    ZERO,
    Add,
    App,
    Expr,
    Mul,
    Pow,
    Rat,
    Sym,
    U,
    VAR,
    X,
    Y,
    add,
    differentiate,
    log,
    mul,
    pow_,
    substitute,
    _substitution,
    _wrap,
)
from .normal import canonical_expr, is_zero
from .params import ThomasParams


class ReductionError(DomainError, ValueError):
    pass


CHI = Sym("chi", VAR)
S1 = Sym("varsigma_chi", VAR)
S2 = Sym("varsigma_chichi", VAR)


class InvariantPair(Record):
    chi: Expr
    varsigma: Expr
    domain: str  # human description of sign constraints / excluded loci


class ReducedODE(Record):
    order: int
    dependent: str  # "varsigma" or "theta" (= varsigma_chi)
    lhs: Expr  # expression in chi, varsigma_chi, varsigma_chichi; ODE is lhs = 0
    # riccati | bernoulli | fuchs | linear-first-order | algebraic | inconsistent | identity
    kind: str
    note: str = ""
    aux: tuple = ()  # named constants, e.g. (("e", ...), ("m", ...)) for the Fuchs form


def _refuse_degenerate(tag, a1, a2):
    """Refuse a case without invariants, for invariants and reduced_ode
    alike: the zero element, and a vector whose invariants would divide by
    its zero coordinate, the divisor of the case table."""
    divisor = getattr(CASES.get(tag), "divisor", 0)
    if divisor and is_zero((a1, a2)[divisor - 1]):
        raise ReductionError("%s invariants need a%d != 0" % (tag.rstrip("ab"), divisor))
    if tag == "Zero":
        raise ReductionError("the zero element generates no reduction")


# Case2_4's invariants: varsigma does not involve u, so it has no ansatz,
# no reduced ODE and no stratum
_CASE2_4 = InvariantPair(Y, X, "entire plane; varsigma does not involve u")


def invariants(c, p: ThomasParams = ThomasParams()) -> InvariantPair:
    """The invariant pair of c at p, read off its stratum: the proved
    representative's pair with the call's a1, a2, alpha, beta and gamma
    substituted (Case2_4, which has no stratum, by its own pair).  Refuses
    a case without invariants."""
    if c.tag == "Case2_4":
        return _CASE2_4
    _, _, pair, _ = proved_stratum(_branch(c, p))
    _, bind = _binding(c, p)
    return InvariantPair(bind(pair.chi), bind(pair.varsigma), pair.domain)


def reduced_ode(c, p: ThomasParams = ThomasParams()) -> ReducedODE:
    """The reduced ODE of c at p, read off its stratum: the proved
    representative's ODE with the call's a1, a2, alpha, beta and gamma
    substituted in lhs and in every aux.  Refuses what invariants refuses,
    and Case2_4."""
    _, _, _, ode = proved_stratum(_branch(c, p))
    _, bind = _binding(c, p)
    return ReducedODE(ode.order, ode.dependent, bind(ode.lhs), ode.kind, ode.note,
                      tuple((name, bind(value)) for name, value in ode.aux))


def _branch(c, p: ThomasParams):
    """(tag, kind, where): the stratum of c at p, the key of its
    representative in STRATA.  where names the relation the branch adds to
    the tag's generic stratum ("" on the generic one).  Every branch
    condition is here: a1 = 0, alpha*a2 + gamma = 0 and the beta = 0 of
    its order-0 root for Case2_1, alpha*beta = 0 for Case2_3, and a1 = 0
    and the coefficient (beta for d/dx, alpha for d/dy) for Case3_2.  A
    case without invariants is refused first, as invariants refuses it."""
    tag = c.tag
    a1, a2 = map(_wrap, c.coords[:2])
    _refuse_degenerate(tag, a1, a2)
    alpha, beta = p.alpha, p.beta
    if tag == "Case1":
        return tag, "fuchs", ""
    if tag in ("Case2_1a", "Case2_1b"):
        if not is_zero(a1):
            return tag, "riccati", ""
        if not is_zero(add(mul(alpha, a2), p.gamma)):
            return tag, "algebraic", "a1 = 0"
        return tag, "identity" if is_zero(beta) else "inconsistent", "a1 = 0"
    if tag == "Case2_2":
        return tag, "linear-first-order", ""
    if tag == "Case2_3":
        if not is_zero(mul(alpha, beta)):
            return tag, "inconsistent", ""
        return tag, "identity", "alpha = 0" if is_zero(alpha) else "beta = 0"
    if tag == "Case2_4":
        raise ReductionError(
            "Case2_4 invariants (y, x) give no ansatz for u; no reduced equation"
        )
    if tag in ("Case3_1a", "Case3_1b"):
        return tag, "bernoulli", ""
    if tag == "Case3_2":
        coeff, where = (beta, "") if not is_zero(a1) else (alpha, "a1 = 0")
        return tag, "identity" if is_zero(coeff) else "linear-first-order", where
    raise ReductionError("unknown case tag %r" % tag)


def _order0(lhs, dependent, zero_condition, inconsistent_note=""):
    """An order-0 reduction is an identity when every varsigma = F(chi)
    solves it (lhs is zero) and inconsistent when none does."""
    if is_zero(lhs):
        return ReducedODE(0, dependent, lhs, "identity", note="%s: every varsigma = F(chi) "
                          "solves the equation" % zero_condition)
    return ReducedODE(0, dependent, lhs, "inconsistent", note=inconsistent_note)


def _reduction(c, p: ThomasParams):
    """The case's own formulas on the branch that _branch picks: (pair,
    ReducedODE, m) with lhs = m * Delta|ansatz, m the nonzero factor the
    ODE's normalization leaves, written without division.  They run on the
    representatives of STRATA, once each per process."""
    tag, kind, where = _branch(c, p)
    a1, a2 = map(_wrap, c.coords[:2])
    alpha, beta, gamma = p.alpha, p.beta, p.gamma
    if tag == "Case1":
        # generator (a1 - gamma x) d/dx + (a2 + gamma y) d/dy + (beta x - alpha y) d/du
        lin_x = add(a1, mul(Rat(-1), gamma, X))
        lin_y = add(a2, mul(gamma, Y))
        k_log = mul(add(mul(beta, a1), mul(alpha, a2)), pow_(gamma, -2))
        varsigma = add(
            U,
            mul(beta, pow_(gamma, -1), X),
            mul(k_log, log(lin_x)),
            mul(alpha, pow_(gamma, -2), lin_y),
        )
        pair = InvariantPair(mul(lin_x, lin_y), varsigma,
                             "x != a1/gamma (log branch uses a1 - gamma*x > 0); chi != 0")
        # gamma^2 chi s2 + gamma^3 chi s1^2 + gamma (gamma - beta a1 - alpha a2) s1 + alpha beta / gamma = 0
        drift = add(gamma, mul(Rat(-1), beta, a1), mul(Rat(-1), alpha, a2))
        lhs = add(
            mul(pow_(gamma, 2), CHI, S2),
            mul(pow_(gamma, 3), CHI, pow_(S1, 2)),
            mul(gamma, drift, S1),
            mul(alpha, beta, pow_(gamma, -1)),
        )
        e = mul(drift, pow_(gamma, -1))
        m = mul(alpha, beta, pow_(gamma, -2))
        return pair, ReducedODE(2, "varsigma", lhs, "fuchs", note="linearizes to chi y'' + "
                                "e y' + m y = 0 via varsigma_chi = y'/(gamma y)",
                                aux=(("e", e), ("m", m))), Rat(-1)
    if tag in ("Case2_1a", "Case2_1b"):
        pair = InvariantPair(add(mul(a2, X), mul(Rat(-1), a1, Y)),
                             add(U, mul(Rat(-1), pow_(a2, -1), Y)), "entire plane")
        lhs = add(
            mul(Rat(-1), a1, a2, S2),
            mul(add(mul(alpha, a2), mul(Rat(-1), beta, a1), gamma), S1),
            mul(Rat(-1), gamma, a1, a2, pow_(S1, 2)),
            mul(beta, pow_(a2, -1)),
        )
        if kind == "riccati":
            return pair, ReducedODE(1, "theta", lhs, "riccati"), Rat(1)
        lhs = canonical_expr(lhs)
        if kind == "algebraic":
            return pair, ReducedODE(0, "theta", lhs, "algebraic", note="derivative terms "
                                    "vanish with a1 = 0; theta is a constant root"), Rat(1)
        # alpha*a2 + gamma = 0 leaves lhs = beta/a2
        return pair, _order0(lhs, "theta", "a1 = beta = alpha*a2 + gamma = 0", "a1 = alpha*a2 "
                             "+ gamma = 0 leaves beta/a2 = 0; no theta solves it"), Rat(1)
    if tag == "Case2_2":
        pair = InvariantPair(Y, add(mul(Rat(-1), a1, U), X), "entire plane")
        lhs = add(mul(add(mul(beta, a1), gamma), S1), mul(Rat(-1), a1, alpha))
        return (pair, ReducedODE(1, "varsigma", lhs, "linear-first-order"),
                mul(Rat(-1), pow_(a1, 2)))
    if tag == "Case2_3":
        pair = InvariantPair(Y, add(mul(beta, X), mul(gamma, U)), "entire plane")
        return pair, _order0(mul(alpha, beta), "varsigma", "alpha*beta = 0",
                             CASES["Case2_3"].obstruction), mul(Rat(-1), gamma)
    if tag in ("Case3_1a", "Case3_1b"):
        pair = InvariantPair(add(X, mul(Rat(-1), pow_(a2, -1), Y)), U, "entire plane")
        lhs = add(S2, mul(add(beta, mul(Rat(-1), a2, alpha)), S1), mul(gamma, pow_(S1, 2)))
        return pair, ReducedODE(1, "theta", lhs, "bernoulli"), mul(Rat(-1), a2)
    # Case3_2: the invariants of d/dx where a1 != 0, of d/dy where a1 = 0
    chi, name, coeff = (Y, "beta", beta) if not where else (X, "alpha", alpha)
    pair = InvariantPair(chi, U, "entire plane")
    if kind == "identity":
        return pair, _order0(Rat(0), "varsigma", name + " = 0"), Rat(1)
    return pair, ReducedODE(1, "varsigma", mul(coeff, S1), "linear-first-order", note="varsigma "
                            "is constant whenever the coefficient is nonzero"), Rat(1)


def _jets(pair: InvariantPair, tag: str):
    """Solve varsigma(x, y, u) = F(chi(x, y)) for the jets of u.  Every
    varsigma here is k*u + r(x, y) with a constant k = varsigma_u, so the
    ansatz differentiated by x reads k*u_x + r_x = F'*chi_x; differentiating
    varsigma by x or y treats u as independent, which leaves r_x and r_xy."""
    chi, vs = pair.chi, pair.varsigma
    vs_u = differentiate(vs, U)
    if is_zero(vs_u):
        raise ReductionError("no invariant ansatz for %r" % tag)
    chi_x, chi_y = differentiate(chi, X), differentiate(chi, Y)
    vs_x, vs_y = differentiate(vs, X), differentiate(vs, Y)
    chi_xy, vs_xy = differentiate(chi_x, Y), differentiate(vs_x, Y)
    inv_k, minus = pow_(vs_u, -1), Rat(-1)
    u_x = mul(add(mul(S1, chi_x), mul(minus, vs_x)), inv_k)
    u_y = mul(add(mul(S1, chi_y), mul(minus, vs_y)), inv_k)
    u_xy = mul(add(mul(S2, chi_x, chi_y), mul(S1, chi_xy), mul(minus, vs_xy)), inv_k)
    return u_x, u_y, u_xy


class Stratum(Record):
    """The representative a branch of _branch is proved at: a case of
    its own, with (a1, a2) and the constants symbolic except where the
    branch fixes them."""

    tag: str
    coords: tuple
    params: ThomasParams


A1 = Sym("a1", PARAM)
A2 = Sym("a2", PARAM)


def _strata():
    generic, a1_zero = (A1, A2), (ZERO, A2)
    symbolic = ThomasParams()
    alpha_zero, beta_zero = ThomasParams(0, BETA, GAMMA), ThomasParams(ALPHA, 0, GAMMA)
    on_the_root = mul(Rat(-1), GAMMA, pow_(A2, -1))  # alpha*a2 + gamma = 0
    rows = [
        ("Case1", "fuchs", "", generic, symbolic),
        ("Case2_2", "linear-first-order", "", generic, symbolic),
        ("Case2_3", "inconsistent", "", generic, symbolic),
        ("Case2_3", "identity", "alpha = 0", generic, alpha_zero),
        ("Case2_3", "identity", "beta = 0", generic, beta_zero),
        ("Case3_2", "linear-first-order", "", generic, symbolic),  # invariants of d/dx
        ("Case3_2", "identity", "", generic, beta_zero),
        ("Case3_2", "linear-first-order", "a1 = 0", a1_zero, symbolic),  # of d/dy
        ("Case3_2", "identity", "a1 = 0", a1_zero, alpha_zero),
    ]
    for tag in ("Case2_1a", "Case2_1b"):
        rows += [(tag, "riccati", "", generic, symbolic),
                 (tag, "algebraic", "a1 = 0", a1_zero, symbolic),
                 (tag, "identity", "a1 = 0", a1_zero, ThomasParams(on_the_root, 0, GAMMA)),
                 (tag, "inconsistent", "a1 = 0", a1_zero, ThomasParams(on_the_root, BETA, GAMMA))]
    for tag in ("Case3_1a", "Case3_1b"):
        rows.append((tag, "bernoulli", "", generic, symbolic))
    return {(tag, kind, where): Stratum(tag, coords, p) for tag, kind, where, coords, p in rows}


# One stratum per branch of _branch, keyed (tag, kind, where)
STRATA = _strata()
_BOUND = (A1, A2, ALPHA, BETA, GAMMA)
_BOUND_NAMES = ("a1", "a2", "alpha", "beta", "gamma")


def _stratum_name(key):
    tag, kind, where = key
    return "%s %s%s" % (tag, kind, " where " + where if where else "")


def _divisors(dividers, exprs):
    """The constants a proof divides by: the factors of each expression in
    dividers and the base of each negative power in exprs, without their
    rational coefficients or exponents, in key order."""
    bases, stack = list(dividers), list(exprs)
    while stack:
        n = stack.pop()
        if type(n) is Pow:
            if n.exp < 0:
                bases.append(n.base)
            stack.append(n.base)
        elif type(n) is Add:
            stack.extend(n.terms)
        elif type(n) is Mul:
            stack.extend(n.factors)
        elif type(n) is App:
            stack.append(n.arg)
    found = set()
    for b in bases:
        for f in b.factors if type(b) is Mul else (b,):
            f = f.base if type(f) is Pow else f
            if type(f) is not Rat:
                found.add(f)
    return tuple(sorted(found, key=Expr.key))


@cache
def proved_stratum(key):
    """Prove the stratum keyed (tag, kind, where) at its representative,
    once per process: substitute the chain-rule jets of its invariants into
    the equation and confirm the result is 1/m times the stored ODE, with
    the pair's chi expanded in (x, y).  Returns (divisors, fixed, pair,
    ode): the divisors the proof needs nonzero; the relations the stratum
    fixes, as (index, expression) pairs over (a1, a2, alpha, beta, gamma),
    each but those that are the very symbol a call binds; and the proved
    pair and ODE that invariants and reduced_ode read off."""
    if key not in STRATA:
        raise ReductionError("no proved stratum for %s" % _stratum_name(key))
    rep = STRATA[key]
    p = rep.params
    tag, _, where = _branch(rep, p)
    pair, ode, m = _reduction(rep, p)
    if (tag, ode.kind, where) != key:
        raise ReductionError("the representative of %s reduces on %s"
                             % (_stratum_name(key), _stratum_name((tag, ode.kind, where))))
    u_x, u_y, u_xy = _jets(pair, rep.tag)
    delta_sub = add(u_xy, mul(p.alpha, u_x), mul(p.beta, u_y), mul(p.gamma, u_x, u_y))
    lhs_expanded = substitute(ode.lhs, {CHI: pair.chi})
    if is_zero(m):
        raise ReductionError("stored multiplier is zero for %s" % _stratum_name(key))
    k = pow_(m, -1)
    diff = add(delta_sub, mul(Rat(-1), k, lhs_expanded))
    if not is_zero(diff):
        raise ReductionError(
            "reduction mismatch for %s: substituted equation %r, %r times stored ODE %r"
            % (_stratum_name(key), canonical_expr(delta_sub), k, canonical_expr(lhs_expanded))
        )
    at = (*rep.coords, p.alpha, p.beta, p.gamma)
    fixed = tuple((i, e) for i, e in enumerate(at) if e != _BOUND[i])
    proved = (*at, pair.chi, pair.varsigma, ode.lhs, *(v for _, v in ode.aux))
    return _divisors((m, differentiate(pair.varsigma, U)), proved), fixed, pair, ode


def _binding(c, p: ThomasParams):
    """(values, bind): the call's (a1, a2, alpha, beta, gamma), and their
    substitution for the representative's symbols, prepared once for every
    tree the call reads."""
    values = (*map(_wrap, c.coords[:2]), p.alpha, p.beta, p.gamma)
    return values, _substitution(dict(zip(_BOUND, values)))


def verify_reduction(c, p: ThomasParams = ThomasParams()) -> bool:
    """Certify the reduction of c at p by the proof of its stratum, the
    branch that _branch(c, p) takes (proved_stratum, once per process).  No
    divisor of that proof may vanish at the call's values, and those values
    must satisfy every relation the stratum fixes (a1 = 0, alpha = -gamma/a2,
    alpha = 0 or beta = 0).  Then the call is the representative at its
    values, and the pair and ODE that invariants and reduced_ode read off
    it are a substitution instance of the proved identity, which holds
    wherever no divisor vanishes.  A ReductionError names the stratum and
    the divisor or relation that fails."""
    key = _branch(c, p)
    divisors, fixed, _, _ = proved_stratum(key)
    values, bind = _binding(c, p)
    for d in divisors:
        if is_zero(bind(d)):
            raise ReductionError("%s divides by %r, which vanishes here" % (_stratum_name(key), d))
    for i, relation in fixed:
        ours, theirs = values[i], bind(relation)
        if ours != theirs and not is_zero(add(ours, mul(Rat(-1), theirs))):
            raise ReductionError("%s is off the stratum %s: %s is %r, the stratum fixes %r"
                                 % (c.tag, _stratum_name(key), _BOUND_NAMES[i], ours, theirs))
    return True
