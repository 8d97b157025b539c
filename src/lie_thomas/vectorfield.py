"""Point vector fields and their second prolongation.

A field v = xi d/dx + eta d/dy + phi d/du with coefficients depending on
(x, y, u) acts on second-order jet space through five prolongation
coefficients.  They are expression trees, each by the same formula from a
total derivative of the characteristic Q = phi - xi u_x - eta u_y; every
jet of order above |J| must cancel from phi^J, which is checked on the
atoms of its normal form where its tree still holds such a jet.  A
coefficient is collected by jet monomial only when it is read for display
(``ProlongedField.coefficient``), by grouping its normal form as the
determining rows are grouped.

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
    Sym,
    U,
    U_X,
    U_Y,
    UFunc,
    X,
    Y,
    add,
    contains_jet,
    differentiate,
    jet_symbols,
    max_jet_order,
    mul,
    _wrap,
)
from .jetpoly import JetPolynomial, ProlongationError
from .normal import normal_form


COEFF_KEYS = ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))

# Fields ``prolong`` keeps.  The determining system is derived once per
# process and ``check_symmetry`` prolongs no field, so the memo serves only
# the callers that prolong the symbolic field again, such as
# ``derive --show-prolongation``.
PROLONG_MEMO_SIZE = 16

_ORDINAL = {2: "second", 3: "third"}
# the step of a total derivative by each variable, and the (i, j) of each jet
_STEP = {X: (1, 0), Y: (0, 1)}
_JET_INDEX = {s: ij for ij, s in JETS.items()}


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
    coefficients: dict  # (i, j) -> Expr, for the five jets up to order 2

    def coefficient(self, key) -> JetPolynomial:
        """The coefficient of jet ``key``, collected by jet monomial: its
        normal form grouped by jet part (``JetPolynomial.from_expr``)."""
        return JetPolynomial.from_expr(self.coefficients[tuple(key)])


def total_derivative(e: Expr, var: Sym) -> Expr:
    """D_x or D_y of an expression on second-order jet space:
    e_var + u_var e_u + the sum over the jets u_J in e of u_(J,var) e_(u_J)."""
    jets = jet_symbols(e)
    if any(JET_ORDERS[s] >= 3 for s in jets):
        raise ProlongationError("total derivative of a third-order jet "
                                "expression needs fourth-order jets")
    step = _STEP[var]
    terms = [differentiate(e, var), mul(JETS[step], differentiate(e, U))]
    for s in jets:
        i, j = _JET_INDEX[s]
        terms.append(mul(JETS[(i + step[0], j + step[1])], differentiate(e, s)))
    return add(*terms)


@lru_cache(maxsize=PROLONG_MEMO_SIZE)
def prolong(vf: VectorField) -> ProlongedField:
    """Second prolongation of ``vf``, on expression trees.

    Every coefficient comes from the characteristic Q = phi - xi u_x - eta u_y
    by one formula (Olver, GTM 107, Thm 2.36):
    phi^J = D_J Q + xi u_(J,x) + eta u_(J,y).  D_x Q and D_y Q are taken
    once, and D_x D_x Q, D_y D_x Q and D_y D_y Q from them.  The added
    terms cancel the jets of order |J| + 1 in D_J Q; that phi^J keeps no
    jet of order above |J| is checked on the atoms of its normal form
    where its tree still holds such a jet.

    Memoized by field value, keeping the ``PROLONG_MEMO_SIZE`` most
    recently used fields: a field equal to one already prolonged gets the
    same ProlongedField, whose ``base`` is the equal field seen first.  The
    result is shared, so callers must not mutate it.
    """
    xi, eta = vf.xi, vf.eta
    q = vf.phi - xi * U_X - eta * U_Y
    q_x, q_y = total_derivative(q, X), total_derivative(q, Y)
    d_q = (q_x, q_y, total_derivative(q_x, X), total_derivative(q_x, Y),
           total_derivative(q_y, Y))
    coeffs = {}
    for (i, j), d in zip(COEFF_KEYS, d_q):
        c = add(d, mul(xi, JETS[(i + 1, j)]), mul(eta, JETS[(i, j + 1)]))
        top = max_jet_order(c)
        if top > i + j:  # the tree may keep terms that cancel in normal form
            top = max((JET_ORDERS.get(a, 0) for m in normal_form(c).num for a, _ in m),
                      default=0)
        if top > i + j:
            raise ProlongationError(
                "%s-order jets failed to cancel in prolongation coefficient %s"
                % (_ORDINAL[top], (i, j))
            )
        coeffs[(i, j)] = c
    return ProlongedField(vf, coeffs)


def apply_prolonged(pf: ProlongedField, target: Expr) -> Expr:
    """The prolonged action of ``pf`` on ``target``, as one expression:
    v(target) plus each prolongation coefficient times the partial of
    ``target`` by its jet."""
    if max_jet_order(target) >= 3:
        raise ProlongationError("target depends on third-order jets")
    return add(pf.base.apply(target),
               *[mul(c, differentiate(target, JETS[k])) for k, c in pf.coefficients.items()])
