"""Point vector fields and their second prolongation.

A field v = xi d/dx + eta d/dy + phi d/du with coefficients depending on
(x, y, u) acts on second-order jet space through five prolongation
coefficients.  They are computed as jet polynomials, from the native total
derivatives of ``jetpoly``, each distinct total derivative once; the mixed
coefficient uses the characteristic form, whose third-order jets must
cancel identically, which is checked on the monomial keys.
"""

from __future__ import annotations

from .errors import Record
from .expr import (
    Expr,
    ExprError,
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
from .jetpoly import JetPolynomial


class ProlongationError(ExprError):
    pass


COEFF_KEYS = ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))

# positions of the third-order jets in a JetPolynomial monomial key
_THIRD_ORDER = tuple(i for i, s in enumerate(JETS.values()) if JET_ORDERS[s] == 3)


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


def symbolic_field(xi_name="xi", eta_name="eta", phi_name="phi") -> VectorField:
    """Fully symbolic field whose coefficient derivatives stay as registered
    symbols (xi_x, phi_uu, ...)."""
    return VectorField(
        UFunc(xi_name, ("x", "y", "u"))(),
        UFunc(eta_name, ("x", "y", "u"))(),
        UFunc(phi_name, ("x", "y", "u"))(),
    )


class ProlongedField(Record):
    base: VectorField
    coefficients: dict  # (i, j) -> JetPolynomial, for the five jets up to order 2

    def coefficient(self, key) -> JetPolynomial:
        return self.coefficients[tuple(key)]


def prolong(vf: VectorField) -> ProlongedField:
    """Second prolongation of ``vf``, computed on jet polynomials.

    The total derivatives D_x and D_y of xi, eta, phi are taken once each,
    then D_x D_x and D_y D_y of those, and D_x D_y of the characteristic
    phi - xi u_x - eta u_y, from which phi^xy is formed.  The third-order
    jets of phi^xy must cancel; that is checked on the monomial keys of
    every coefficient.
    """
    xi, eta, phi = (JetPolynomial.constant(c) for c in (vf.xi, vf.eta, vf.phi))
    u_x, u_y = JETS[(1, 0)], JETS[(0, 1)]
    u_xx, u_xy, u_yy = JETS[(2, 0)], JETS[(1, 1)], JETS[(0, 2)]

    phi_dx, xi_dx, eta_dx = (f.D_x() for f in (phi, xi, eta))
    phi_dy, xi_dy, eta_dy = (f.D_y() for f in (phi, xi, eta))

    phi_x = phi_dx - xi_dx * u_x - eta_dx * u_y
    phi_y = phi_dy - xi_dy * u_x - eta_dy * u_y

    characteristic = phi - xi * u_x - eta * u_y
    phi_xy = characteristic.D_y().D_x() + xi * JETS[(2, 1)] + eta * JETS[(1, 2)]

    phi_xx = (phi_dx.D_x() - xi_dx * u_xx * 2 - eta_dx * u_xy * 2
              - xi_dx.D_x() * u_x - eta_dx.D_x() * u_y)
    phi_yy = (phi_dy.D_y() - xi_dy * u_xy * 2 - eta_dy * u_yy * 2
              - xi_dy.D_y() * u_x - eta_dy.D_y() * u_y)

    coeffs = dict(zip(COEFF_KEYS, (phi_x, phi_y, phi_xx, phi_xy, phi_yy)))
    for key, jp in coeffs.items():
        if any(m[i] for m in jp.coeffs for i in _THIRD_ORDER):
            raise ProlongationError(
                "third-order jets failed to cancel in prolongation coefficient %s"
                % (key,)
            )
    return ProlongedField(vf, coeffs)


def apply_prolonged(pf: ProlongedField, target: Expr) -> JetPolynomial:
    """The prolonged action of ``pf`` on ``target``, collected by jet
    monomial."""
    if max_jet_order(target) >= 3:
        raise ProlongationError("target depends on third-order jets")
    t = JetPolynomial.from_expr(target)
    out = JetPolynomial({m: pf.base.apply(c) for m, c in t.coeffs.items()})
    for key in COEFF_KEYS:
        out = out + pf.coefficient(key) * t.diff(JETS[key])
    return out


def vf_bracket(v: VectorField, w: VectorField) -> VectorField:
    """Lie bracket [v, w] of point fields."""
    return VectorField(
        v.apply(w.xi) - w.apply(v.xi),
        v.apply(w.eta) - w.apply(v.eta),
        v.apply(w.phi) - w.apply(v.phi),
    )
