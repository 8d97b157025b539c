"""Invariant coordinates and reduced ODEs for each canonical case.

For a canonical generator v the pair (chi, varsigma) solves v(chi) =
v(varsigma) = 0; writing u through varsigma(chi) and pushing the chain rule
through the equation leaves an ODE in varsigma.  Every reduced equation
here is rederived from that substitution, and verify_reduction re-runs the
derivation symbolically, so transcription errors cannot survive: the
substituted equation must be a nonzero multiple of the stored ODE.

Naming: s1 and s2 below are the opaque symbols varsigma_chi and
varsigma_chichi standing for the first and second derivative of varsigma;
first-order cases are conventionally written in theta = varsigma_chi.
"""

from __future__ import annotations

from .errors import DomainError, Record
from .expr import (
    Expr,
    Rat,
    Sym,
    U,
    VAR,
    X,
    Y,
    ZERO,
    add,
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
    kind: str  # riccati | bernoulli | fuchs | linear-first-order | algebraic | inconsistent
    note: str = ""
    aux: tuple = ()  # named constants, e.g. (("e", ...), ("m", ...)) for the Fuchs form


def _case_coords(c):
    a1, a2 = (_wrap(x) for x in (c.coords[0], c.coords[1]))
    return a1, a2


def invariants(c, p: ThomasParams = ThomasParams()) -> InvariantPair:
    tag = c.tag
    a1, a2 = _case_coords(c)
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
        if is_zero(a2):
            raise ReductionError("Case2_1 invariants need a2 != 0")
        chi = add(mul(a2, X), mul(Rat(-1), a1, Y))
        varsigma = add(U, mul(Rat(-1), pow_(a2, -1), Y))
        return InvariantPair(chi, varsigma, "entire plane")
    if tag == "Case2_2":
        if is_zero(a1):
            raise ReductionError("Case2_2 invariants need a1 != 0")
        return InvariantPair(Y, add(mul(Rat(-1), a1, U), X), "entire plane")
    if tag == "Case2_3":
        return InvariantPair(Y, add(mul(p.beta, X), mul(p.gamma, U)), "entire plane")
    if tag == "Case2_4":
        return InvariantPair(Y, X, "entire plane; varsigma does not involve u")
    if tag in ("Case3_1a", "Case3_1b"):
        if is_zero(a2):
            raise ReductionError("Case3_1 invariants need a2 != 0")
        chi = add(X, mul(Rat(-1), pow_(a2, -1), Y))
        return InvariantPair(chi, U, "entire plane")
    if tag == "Case3_2":
        if not is_zero(a1):
            # x-translation mirror: invariants of d/dx
            return InvariantPair(Y, U, "entire plane")
        return InvariantPair(X, U, "entire plane")
    if tag == "Zero":
        raise ReductionError("the zero element generates no reduction")
    raise ReductionError("unknown case tag %r" % tag)


def reduced_ode(c, p: ThomasParams = ThomasParams()) -> ReducedODE:
    tag = c.tag
    a1, a2 = _case_coords(c)
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
        return ReducedODE(
            2,
            "varsigma",
            lhs,
            "fuchs",
            note="linearizes to chi y'' + e y' + m y = 0 via varsigma_chi = y'/(gamma y)",
            aux=(("e", e), ("m", m)),
        )
    if tag in ("Case2_1a", "Case2_1b"):
        lhs = add(
            mul(Rat(-1), a1, a2, S2),
            mul(add(mul(alpha, a2), mul(Rat(-1), beta, a1), gamma), S1),
            mul(Rat(-1), gamma, a1, a2, pow_(S1, 2)),
            mul(beta, pow_(a2, -1)),
        )
        if is_zero(a1):
            return ReducedODE(
                0,
                "theta",
                canonical_expr(lhs),
                "algebraic",
                note="derivative terms vanish with a1 = 0; theta is a constant root",
            )
        return ReducedODE(1, "theta", lhs, "riccati")
    if tag == "Case2_2":
        lhs = add(mul(add(mul(beta, a1), gamma), S1), mul(Rat(-1), a1, alpha))
        return ReducedODE(1, "varsigma", lhs, "linear-first-order")
    if tag == "Case2_3":
        lhs = mul(alpha, beta)
        return ReducedODE(
            0,
            "varsigma",
            lhs,
            "inconsistent",
            note="reduction forces alpha*beta = 0; no solution for generic constants",
        )
    if tag == "Case2_4":
        raise ReductionError(
            "Case2_4 invariants (y, x) give no ansatz for u; no reduced equation"
        )
    if tag in ("Case3_1a", "Case3_1b"):
        lhs = add(S2, mul(add(beta, mul(Rat(-1), a2, alpha)), S1), mul(gamma, pow_(S1, 2)))
        return ReducedODE(1, "theta", lhs, "bernoulli")
    if tag == "Case3_2":
        coeff = beta if not is_zero(a1) else alpha
        return ReducedODE(
            1,
            "varsigma",
            mul(coeff, S1),
            "linear-first-order",
            note="varsigma is constant whenever the coefficient is nonzero",
        )
    raise ReductionError("unknown case tag %r" % tag)


def chain_rule_jets(c, p: ThomasParams = ThomasParams()):
    """(u_x, u_y, u_xy) of the invariant ansatz, as expressions in x, y and
    the opaque symbols varsigma_chi, varsigma_chichi."""
    tag = c.tag
    a1, a2 = _case_coords(c)
    alpha, beta, gamma = p.alpha, p.beta, p.gamma
    if tag == "Case1":
        lin_x = add(a1, mul(Rat(-1), gamma, X))
        lin_y = add(a2, mul(gamma, Y))
        u_x = add(
            mul(Rat(-1), gamma, lin_y, S1),
            mul(Rat(-1), beta, pow_(gamma, -1)),
            mul(add(mul(beta, a1), mul(alpha, a2)), pow_(gamma, -1), pow_(lin_x, -1)),
        )
        u_y = add(mul(gamma, lin_x, S1), mul(Rat(-1), alpha, pow_(gamma, -1)))
        u_xy = add(
            mul(Rat(-1), pow_(gamma, 2), lin_x, lin_y, S2),
            mul(Rat(-1), pow_(gamma, 2), S1),
        )
        return u_x, u_y, u_xy
    if tag in ("Case2_1a", "Case2_1b"):
        u_x = mul(a2, S1)
        u_y = add(pow_(a2, -1), mul(Rat(-1), a1, S1))
        u_xy = mul(Rat(-1), a1, a2, S2)
        return u_x, u_y, u_xy
    if tag == "Case2_2":
        return pow_(a1, -1), mul(Rat(-1), pow_(a1, -1), S1), ZERO
    if tag == "Case2_3":
        return (
            mul(Rat(-1), beta, pow_(gamma, -1)),
            mul(pow_(gamma, -1), S1),
            ZERO,
        )
    if tag in ("Case3_1a", "Case3_1b"):
        return S1, mul(Rat(-1), pow_(a2, -1), S1), mul(Rat(-1), pow_(a2, -1), S2)
    if tag == "Case3_2":
        if not is_zero(a1):
            return ZERO, S1, ZERO
        return S1, ZERO, ZERO
    raise ReductionError("no invariant ansatz for %r" % tag)


# nonzero multiplier k with  Delta|ansatz = k * reduced_ode.lhs, per case
def _multiplier(c, p: ThomasParams) -> Expr:
    tag = c.tag
    a1, a2 = _case_coords(c)
    if tag == "Case1":
        return Rat(-1)
    if tag in ("Case2_1a", "Case2_1b"):
        return Rat(1)
    if tag == "Case2_2":
        return mul(Rat(-1), pow_(a1, -2))
    if tag == "Case2_3":
        return mul(Rat(-1), pow_(p.gamma, -1))
    if tag in ("Case3_1a", "Case3_1b"):
        return mul(Rat(-1), pow_(a2, -1))
    if tag == "Case3_2":
        return Rat(1)
    raise ReductionError("no reduction to verify for %r" % tag)


def verify_reduction(c, p: ThomasParams = ThomasParams()) -> bool:
    """Substitute the chain-rule jets into the equation and confirm the
    result is the stored nonzero multiple of the reduced ODE, with chi
    expanded in (x, y)."""
    u_x, u_y, u_xy = chain_rule_jets(c, p)
    delta_sub = add(
        u_xy, mul(p.alpha, u_x), mul(p.beta, u_y), mul(p.gamma, mul(u_x, u_y))
    )
    ode = reduced_ode(c, p)
    chi_xy = invariants(c, p).chi
    lhs_expanded = substitute(ode.lhs, {CHI: chi_xy})
    k = _multiplier(c, p)
    if is_zero(k):
        raise ReductionError("stored multiplier is zero for %s" % c.tag)
    diff = add(delta_sub, mul(Rat(-1), k, lhs_expanded))
    if not is_zero(diff):
        raise ReductionError(
            "reduction mismatch for %s: substituted equation %r, %r times stored ODE %r"
            % (c.tag, canonical_expr(delta_sub), k, canonical_expr(lhs_expanded))
        )
    return True


def annihilation_residuals(c, p: ThomasParams = ThomasParams()):
    """(v(chi), v(varsigma)) for the canonical field; both must vanish."""
    v = c.element().to_field(p)
    pair = invariants(c, p)
    return v.apply(pair.chi), v.apply(pair.varsigma)
