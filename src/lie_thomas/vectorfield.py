"""Point vector fields and their second prolongation.

A field v = xi d/dx + eta d/dy + phi d/du with coefficients depending on
(x, y, u) acts on second-order jet space through five prolongation
coefficients.  They are computed here from the total-derivative
definitions, each distinct total derivative once; the mixed coefficient
uses the characteristic form, whose third-order jets must cancel
identically, which is checked on the monomial keys of its jet
polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass

from .expr import (
    Expr,
    ExprError,
    JETS,
    JET_ORDERS,
    U,
    UFunc,
    X,
    Y,
    ZERO,
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


_FIRST = ((1, 0), (0, 1))
_SECOND = ((2, 0), (1, 1), (0, 2))
COEFF_KEYS = _FIRST + _SECOND

U_XXY = JETS[(2, 1)]
U_XYY = JETS[(1, 2)]
# positions of the third-order jets in a JetPolynomial monomial key
_THIRD_ORDER = tuple(i for i, s in enumerate(JETS.values()) if JET_ORDERS[s] == 3)


@dataclass(frozen=True)
class VectorField:
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

    def is_zero(self) -> bool:
        from .normal import is_zero

        return is_zero(self.xi) and is_zero(self.eta) and is_zero(self.phi)


def symbolic_field(xi_name="xi", eta_name="eta", phi_name="phi") -> VectorField:
    """Fully symbolic field whose coefficient derivatives stay as registered
    symbols (xi_x, phi_uu, ...)."""
    return VectorField(
        UFunc(xi_name, ("x", "y", "u"))(),
        UFunc(eta_name, ("x", "y", "u"))(),
        UFunc(phi_name, ("x", "y", "u"))(),
    )


def total_derivative(e: Expr, axis: str) -> Expr:
    """Total derivative D_x or D_y on second-order jet space."""
    if axis not in ("x", "y"):
        raise ProlongationError("axis must be 'x' or 'y', got %r" % axis)
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


@dataclass(frozen=True)
class ProlongedField:
    base: VectorField
    coefficients: dict  # (i, j) -> JetPolynomial, for the five jets up to order 2

    def coefficient(self, key) -> JetPolynomial:
        return self.coefficients[tuple(key)]


def prolong(vf: VectorField) -> ProlongedField:
    """Second prolongation of ``vf``.

    Each of the fourteen distinct total derivatives is computed once:
    D_x and D_y of xi, eta, phi, their second derivatives D_x D_x and
    D_y D_y, and D_x D_y of the characteristic phi - xi u_x - eta u_y, from
    which phi^xy is formed.  The third-order jets of phi^xy must cancel;
    that is checked on the monomial keys of every coefficient.
    """
    D = total_derivative
    xi, eta, phi = vf.xi, vf.eta, vf.phi
    u_x, u_y = JETS[(1, 0)], JETS[(0, 1)]
    u_xx, u_xy, u_yy = JETS[(2, 0)], JETS[(1, 1)], JETS[(0, 2)]

    phi_dx, xi_dx, eta_dx = (D(f, "x") for f in (phi, xi, eta))
    phi_dy, xi_dy, eta_dy = (D(f, "y") for f in (phi, xi, eta))

    phi_x = phi_dx - u_x * xi_dx - u_y * eta_dx
    phi_y = phi_dy - u_x * xi_dy - u_y * eta_dy

    characteristic = phi - xi * u_x - eta * u_y
    phi_xy = D(D(characteristic, "y"), "x") + xi * U_XXY + eta * U_XYY

    phi_xx = (
        D(phi_dx, "x")
        - 2 * u_xx * xi_dx
        - 2 * u_xy * eta_dx
        - u_x * D(xi_dx, "x")
        - u_y * D(eta_dx, "x")
    )
    phi_yy = (
        D(phi_dy, "y")
        - 2 * u_xy * xi_dy
        - 2 * u_yy * eta_dy
        - u_x * D(xi_dy, "y")
        - u_y * D(eta_dy, "y")
    )

    coeffs = {}
    for key, raw in (
        ((1, 0), phi_x),
        ((0, 1), phi_y),
        ((2, 0), phi_xx),
        ((1, 1), phi_xy),
        ((0, 2), phi_yy),
    ):
        jp = JetPolynomial.from_expr(raw)
        if any(m[i] for m in jp.coeffs for i in _THIRD_ORDER):
            raise ProlongationError(
                "third-order jets failed to cancel in prolongation coefficient %s"
                % (key,)
            )
        coeffs[key] = jp
    return ProlongedField(vf, coeffs)


def apply_prolonged(pf: ProlongedField, target: Expr) -> Expr:
    if max_jet_order(target) >= 3:
        raise ProlongationError("target depends on third-order jets")
    vf = pf.base
    out = [vf.apply(target)]
    for key in COEFF_KEYS:
        d = differentiate(target, JETS[key])
        if d != ZERO:
            out.append(mul(pf.coefficient(key).to_expr(), d))
    return add(*out)


def vf_bracket(v: VectorField, w: VectorField) -> VectorField:
    """Lie bracket [v, w] of point fields."""
    return VectorField(
        v.apply(w.xi) - w.apply(v.xi),
        v.apply(w.eta) - w.apply(v.eta),
        v.apply(w.phi) - w.apply(v.phi),
    )
