"""Point vector fields and their second prolongation.

A field v = xi d/dx + eta d/dy + phi d/du with coefficients depending on
(x, y, u) acts on second-order jet space through five prolongation
coefficients.  They are computed as jet polynomials, each by the same
formula from a total derivative of the characteristic
Q = phi - xi u_x - eta u_y, using the native total derivatives of
``jetpoly``; every jet of order above |J| must cancel from phi^J, which is
checked on the monomial keys.

The prolongation depends on the field alone, not on the equation or its
constants, so ``prolong`` is memoized by field value in a bounded
least-recently-used cache: equal fields share one ProlongedField, which
callers read and never mutate.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import Record
from .expr import (
    Expr,
    JETS,
    JET_ORDERS,
    U,
    UFunc,
    X,
    Y,
    add,
    contains_jet,
    differentiate,
    max_jet_order,
    mul,
    _wrap,
)
from .jetpoly import JetPolynomial, ProlongationError, product_terms


COEFF_KEYS = ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))

# Fields ``prolong`` keeps.  The determining system prolongs the symbolic
# field once per process, and ``check_symmetry`` prolongs only a field that
# fails, to give its residual, so the memo serves direct callers such as
# ``derive --show-prolongation``, which prolong the symbolic field again.
PROLONG_MEMO_SIZE = 16

# the order of the jet at each position of a JetPolynomial monomial key
_ORDER_AT = tuple(JET_ORDERS[s] for s in JETS.values())
_ORDINAL = {2: "second", 3: "third"}


class VectorField(Record):
    xi: Expr
    eta: Expr
    phi: Expr

    def __post_init__(self):
        for name, c in (("xi", self.xi), ("eta", self.eta), ("phi", self.phi)):
            c = _wrap(c)
            object.__setattr__(self, name, c)
            if contains_jet(c):
                raise ProlongationError(
                    "point field coefficient %s may not contain derivative symbols"
                    % name
                )

    def apply(self, f: Expr) -> Expr:
        """First-order action xi f_x + eta f_y + phi f_u on a function of
        (x, y, u)."""
        return add(
            mul(self.xi, differentiate(f, X)),
            mul(self.eta, differentiate(f, Y)),
            mul(self.phi, differentiate(f, U)),
        )

    def __add__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return VectorField(self.xi + other.xi, self.eta + other.eta, self.phi + other.phi)

    def scale(self, c) -> "VectorField":
        c = _wrap(c)
        return VectorField(mul(c, self.xi), mul(c, self.eta), mul(c, self.phi))


def symbolic_field() -> VectorField:
    """Fully symbolic field xi, eta, phi of (x, y, u), whose coefficient
    derivatives stay as registered symbols (xi_x, phi_uu, ...)."""
    return VectorField(UFunc("xi")(), UFunc("eta")(), UFunc("phi")())


class ProlongedField(Record):
    base: VectorField
    coefficients: dict  # (i, j) -> JetPolynomial, for the five jets up to order 2

    def coefficient(self, key) -> JetPolynomial:
        return self.coefficients[tuple(key)]


@lru_cache(maxsize=PROLONG_MEMO_SIZE)
def prolong(vf: VectorField) -> ProlongedField:
    """Second prolongation of ``vf``, computed on jet polynomials.

    Every coefficient comes from the characteristic Q = phi - xi u_x - eta u_y
    by one formula (Olver, GTM 107, Thm 2.36):
    phi^J = D_J Q + xi u_(J,x) + eta u_(J,y), its three parts summed per
    monomial by one n-ary add.  D_x Q and D_y Q are taken once, and
    D_x D_x Q, D_y D_x Q and D_y D_y Q from them.  The added terms cancel
    the jets of order |J| + 1 in D_J Q; that phi^J keeps no jet of order
    above |J| is checked on the monomial keys of every coefficient.

    Memoized by field value, keeping the ``PROLONG_MEMO_SIZE`` most
    recently used fields: a field equal to one already prolonged gets the
    same ProlongedField, whose ``base`` is the equal field seen first.  The
    result is shared, so callers must not mutate it.
    """
    xi, eta, phi = (JetPolynomial.constant(c) for c in (vf.xi, vf.eta, vf.phi))
    q = phi - xi * JETS[(1, 0)] - eta * JETS[(0, 1)]
    q_x, q_y = q.D_x(), q.D_y()
    coeffs = {}
    for (i, j), d_q in zip(COEFF_KEYS, (q_x, q_y, q_x.D_x(), q_x.D_y(), q_y.D_y())):
        jp = JetPolynomial.from_terms((
            *d_q.coeffs.items(),
            *(xi * JETS[(i + 1, j)]).coeffs.items(),
            *(eta * JETS[(i, j + 1)]).coeffs.items(),
        ))
        top = max((_ORDER_AT[k] for m in jp.coeffs for k, n in enumerate(m) if n),
                  default=0)
        if top > i + j:
            raise ProlongationError(
                "%s-order jets failed to cancel in prolongation coefficient %s"
                % (_ORDINAL[top], (i, j))
            )
        coeffs[(i, j)] = jp
    return ProlongedField(vf, coeffs)


def apply_prolonged(pf: ProlongedField, target: Expr) -> JetPolynomial:
    """The prolonged action of ``pf`` on ``target``, collected by jet
    monomial: every monomial's contributions are summed by one n-ary add."""
    if max_jet_order(target) >= 3:
        raise ProlongationError("target depends on third-order jets")
    t = JetPolynomial.from_expr(target)
    pairs = [(m, pf.base.apply(c)) for m, c in t.coeffs.items()]
    for key in COEFF_KEYS:
        pairs += product_terms(pf.coefficient(key).coeffs, t.diff(JETS[key]).coeffs)
    return JetPolynomial.from_terms(pairs)

