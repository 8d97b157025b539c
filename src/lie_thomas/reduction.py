"""Invariant coordinates and reduced ODEs for each canonical case.

For a canonical generator v the pair (chi, varsigma) solves v(chi) =
v(varsigma) = 0.  The ansatz varsigma = F(chi), pushed through the chain
rule, gives the jets of u from that same pair (chain_rule_jets), and
putting them into the equation leaves an ODE in F.  verify_reduction
redoes that substitution symbolically on the pair that invariants returns
and reduce prints: the substituted equation must be a nonzero multiple of
the stored ODE, so neither a stored ODE nor a printed pair can drift from
the other.  Each case states that multiple beside its equation, as the
factor m in lhs = m * Delta|ansatz, in the one switch that reduced_ode
reads.  An order-0 reduction is an identity or inconsistent, by one rule
(_order0).

Naming: S1 and S2 below are the opaque symbols varsigma_chi and
varsigma_chichi standing for F' and F''; first-order cases are
conventionally written in theta = varsigma_chi.
"""

from __future__ import annotations

from .cases import CASES
from .errors import DomainError, Record
from .expr import (
    Expr,
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


def invariants(c, p: ThomasParams = ThomasParams()) -> InvariantPair:
    tag = c.tag
    a1, a2 = map(_wrap, c.coords[:2])
    _refuse_degenerate(tag, a1, a2)
    if tag == "Case1":
        # generator (a1 - gamma x) d/dx + (a2 + gamma y) d/dy + (beta x - alpha y) d/du
        lin_x = add(a1, mul(Rat(-1), p.gamma, X))
        lin_y = add(a2, mul(p.gamma, Y))
        chi = mul(lin_x, lin_y)
        k_log = mul(add(mul(p.beta, a1), mul(p.alpha, a2)), pow_(p.gamma, -2))
        varsigma = add(
            U,
            mul(p.beta, pow_(p.gamma, -1), X),
            mul(k_log, log(lin_x)),
            mul(p.alpha, pow_(p.gamma, -2), lin_y),
        )
        return InvariantPair(
            chi,
            varsigma,
            "x != a1/gamma (log branch uses a1 - gamma*x > 0); chi != 0",
        )
    if tag in ("Case2_1a", "Case2_1b"):
        chi = add(mul(a2, X), mul(Rat(-1), a1, Y))
        varsigma = add(U, mul(Rat(-1), pow_(a2, -1), Y))
        return InvariantPair(chi, varsigma, "entire plane")
    if tag == "Case2_2":
        return InvariantPair(Y, add(mul(Rat(-1), a1, U), X), "entire plane")
    if tag == "Case2_3":
        return InvariantPair(Y, add(mul(p.beta, X), mul(p.gamma, U)), "entire plane")
    if tag == "Case2_4":
        return InvariantPair(Y, X, "entire plane; varsigma does not involve u")
    if tag in ("Case3_1a", "Case3_1b"):
        chi = add(X, mul(Rat(-1), pow_(a2, -1), Y))
        return InvariantPair(chi, U, "entire plane")
    if tag == "Case3_2":
        if not is_zero(a1):
            # x-translation mirror: invariants of d/dx
            return InvariantPair(Y, U, "entire plane")
        return InvariantPair(X, U, "entire plane")
    raise ReductionError("unknown case tag %r" % tag)


def reduced_ode(c, p: ThomasParams = ThomasParams()) -> ReducedODE:
    return _reduction(c, p)[0]


def _order0(lhs, dependent, zero_condition, inconsistent_note=""):
    """An order-0 reduction is an identity when every varsigma = F(chi)
    solves it (lhs is zero) and inconsistent when none does."""
    if is_zero(lhs):
        return ReducedODE(0, dependent, lhs, "identity", note="%s: every varsigma = F(chi) "
                          "solves the equation" % zero_condition)
    return ReducedODE(0, dependent, lhs, "inconsistent", note=inconsistent_note)


def _reduction(c, p: ThomasParams):
    """(ReducedODE, m) with lhs = m * Delta|ansatz: each case's equation and
    the nonzero factor its normalization leaves, m written without division.
    A case without invariants is refused first, as invariants refuses it."""
    tag = c.tag
    a1, a2 = map(_wrap, c.coords[:2])
    _refuse_degenerate(tag, a1, a2)
    alpha, beta, gamma = p.alpha, p.beta, p.gamma
    if tag == "Case1":
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
        return ReducedODE(2, "varsigma", lhs, "fuchs", note="linearizes to chi y'' + e y' + "
                          "m y = 0 via varsigma_chi = y'/(gamma y)",
                          aux=(("e", e), ("m", m))), Rat(-1)
    if tag in ("Case2_1a", "Case2_1b"):
        lhs = add(
            mul(Rat(-1), a1, a2, S2),
            mul(add(mul(alpha, a2), mul(Rat(-1), beta, a1), gamma), S1),
            mul(Rat(-1), gamma, a1, a2, pow_(S1, 2)),
            mul(beta, pow_(a2, -1)),
        )
        if not is_zero(a1):
            return ReducedODE(1, "theta", lhs, "riccati"), Rat(1)
        lhs = canonical_expr(lhs)
        if not is_zero(add(mul(alpha, a2), gamma)):
            return ReducedODE(0, "theta", lhs, "algebraic", note="derivative terms vanish "
                              "with a1 = 0; theta is a constant root"), Rat(1)
        # alpha*a2 + gamma = 0 leaves lhs = beta/a2
        return _order0(lhs, "theta", "a1 = beta = alpha*a2 + gamma = 0", "a1 = alpha*a2 + "
                       "gamma = 0 leaves beta/a2 = 0; no theta solves it"), Rat(1)
    if tag == "Case2_2":
        lhs = add(mul(add(mul(beta, a1), gamma), S1), mul(Rat(-1), a1, alpha))
        return (ReducedODE(1, "varsigma", lhs, "linear-first-order"),
                mul(Rat(-1), pow_(a1, 2)))
    if tag == "Case2_3":
        return (_order0(mul(alpha, beta), "varsigma", "alpha*beta = 0",
                        CASES["Case2_3"].obstruction), mul(Rat(-1), gamma))
    if tag == "Case2_4":
        raise ReductionError(
            "Case2_4 invariants (y, x) give no ansatz for u; no reduced equation"
        )
    if tag in ("Case3_1a", "Case3_1b"):
        lhs = add(S2, mul(add(beta, mul(Rat(-1), a2, alpha)), S1), mul(gamma, pow_(S1, 2)))
        return ReducedODE(1, "theta", lhs, "bernoulli"), mul(Rat(-1), a2)
    if tag == "Case3_2":
        name, coeff = ("beta", beta) if not is_zero(a1) else ("alpha", alpha)
        if is_zero(coeff):
            return _order0(Rat(0), "varsigma", name + " = 0"), Rat(1)
        return ReducedODE(1, "varsigma", mul(coeff, S1), "linear-first-order", note="varsigma "
                          "is constant whenever the coefficient is nonzero"), Rat(1)
    raise ReductionError("unknown case tag %r" % tag)


def chain_rule_jets(c, p: ThomasParams = ThomasParams()):
    """(u_x, u_y, u_xy) of the invariant ansatz, as expressions in x, y and
    the opaque symbols varsigma_chi, varsigma_chichi: the chain rule on the
    pair that invariants() returns."""
    return _jets(invariants(c, p), c.tag)


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


def verify_reduction(c, p: ThomasParams = ThomasParams()) -> bool:
    """Substitute the chain-rule jets of invariants(c, p) into the equation
    and confirm the result is the stored nonzero multiple of the reduced
    ODE, with that pair's chi expanded in (x, y)."""
    pair = invariants(c, p)
    u_x, u_y, u_xy = _jets(pair, c.tag)
    delta_sub = add(u_xy, mul(p.alpha, u_x), mul(p.beta, u_y), mul(p.gamma, u_x, u_y))
    ode, m = _reduction(c, p)
    lhs_expanded = substitute(ode.lhs, {CHI: pair.chi})
    if is_zero(m):
        raise ReductionError("stored multiplier is zero for %s" % c.tag)
    k = pow_(m, -1)
    diff = add(delta_sub, mul(Rat(-1), k, lhs_expanded))
    if not is_zero(diff):
        raise ReductionError(
            "reduction mismatch for %s: substituted equation %r, %r times stored ODE %r"
            % (c.tag, canonical_expr(delta_sub), k, canonical_expr(lhs_expanded))
        )
    return True
