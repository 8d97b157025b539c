"""Evaluable invariant solutions for each canonical case.

Every family is a closed form (or a ratio of Frobenius series for Case 1)
whose evaluator accepts floats or HyperDual points, so the same code path
serves plotting and exact residual checks.  Where printed source formulas
for a case disagree internally, the variant kept here is the one rederived
from the reduced ODE; the residual tests are the arbiter.

Descriptors: ``descriptor()`` emits a JSON-able dict that rebuilds the
family bit-for-bit through ``from_descriptor``; the sha256 digest of the
canonical JSON identifies a family across processes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DomainError
from .fuchs import fuchs_series, second_solution, zero_bracket
from .hyperdual import HyperDual, exp_, lift_with_derivatives, log_, tan_, value_of
from .params import ThomasParams


class FamilyError(DomainError, ValueError):
    pass


def _jsonable(v):
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return int(v)
        return "%d/%d" % (v.numerator, v.denominator)
    if isinstance(v, (int, float, str)) or v is None:
        return v
    raise FamilyError("constant %r is not descriptor-serializable" % (v,))


def _numeric(v):
    try:
        return float(Fraction(v)) if isinstance(v, str) else float(v)
    except (TypeError, ValueError):
        raise FamilyError("constant %r is not a number" % (v,)) from None


def _param_strings(p: ThomasParams):
    a, b, g = (getattr(p, n).value for n in ("alpha", "beta", "gamma"))
    return {"alpha": str(a), "beta": str(b), "gamma": str(g)}


def params_from_strings(d) -> ThomasParams:
    try:
        values = [Fraction(d[n]) for n in ("alpha", "beta", "gamma")]
    except (KeyError, TypeError, ValueError):
        raise FamilyError("descriptor parameters %r are not rationals" % (d,)) from None
    return ThomasParams(*values)


@dataclass(frozen=True)
class SolutionFamily:
    family: str  # builder key in SOLUTION_BUILDERS
    tag: str  # canonical case the family solves
    params: ThomasParams
    constants: dict
    evaluator: object = field(repr=False)
    domain: object = field(repr=False)  # (x, y) -> bool on floats
    note: str = ""

    def __call__(self, x, y):
        return self.evaluator(x, y)

    def descriptor(self) -> dict:
        return {
            "schema": "lie-thomas/1",
            "kind": "solution-family",
            "family": self.family,
            "tag": self.tag,
            "params": _param_strings(self.params),
            "constants": {k: _jsonable(v) for k, v in self.constants.items()},
            "note": self.note,
        }

    def descriptor_json(self) -> str:
        return json.dumps(self.descriptor(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.descriptor_json().encode()).hexdigest()


@dataclass(frozen=True)
class Obstruction:
    """A case with no invariant solution, carrying the reason."""

    tag: str
    note: str


def from_descriptor(d) -> SolutionFamily:
    if not (isinstance(d, dict) and d.get("schema") == "lie-thomas/1"
            and d.get("kind") == "solution-family"):
        raise FamilyError("not a solution-family descriptor")
    missing = [k for k in ("family", "params", "constants") if k not in d]
    if missing:
        raise FamilyError("descriptor lacks %s" % ", ".join(missing))
    if not isinstance(d["constants"], dict):
        raise FamilyError("descriptor constants %r are not an object" % (d["constants"],))
    return build_family(d["family"], params_from_strings(d["params"]), d["constants"])


def build_family(key, p: ThomasParams, constants: dict) -> SolutionFamily:
    """SOLUTION_BUILDERS[key](p, **constants), where an unknown key or a
    constant the builder does not take is a FamilyError.  The names come
    from the builder's code object, which needs no import."""
    builder = SOLUTION_BUILDERS.get(key) if isinstance(key, str) else None
    if builder is None:
        raise FamilyError("unknown family %r" % (key,))
    code = builder.__code__
    unknown = sorted(set(constants) - set(code.co_varnames[1:code.co_argcount]))
    if unknown:
        raise FamilyError("family %r takes no constant %s" % (key, ", ".join(unknown)))
    return builder(p, **constants)


# --- Case 1: Frobenius series assembly ----------------------------------------


def case1_solution(
    p: ThomasParams,
    a1=0,
    a2=0,
    c0=1.0,
    const=0.0,
    chi_lo=-4.5,
    chi_hi=-0.005,
) -> SolutionFamily:
    """Invariant solution of the scaling case on one sign branch of chi.

    theta = z_p + 1/f  on top of the series solution y_p of the linearized
    second-order equation, with

        z_p = y_p' / (gamma y_p),
        f   = |chi|^e y_p^2 (g_p + c0),   g_p(chi) = int gamma |s|^(-e) y_p(s)^(-2) ds,

    and varsigma = (1/gamma)(log|y_p| + log|g_p + c0|) up to a constant,
    whose chi-derivative is exactly theta.  The integral runs from a base
    point inside [chi_lo, chi_hi]; both endpoints must share one sign.  By
    Abel's identity the Wronskian of y_p and the second Frobenius solution
    y_2 is W = C |chi|^(-e), so (y_2/y_p)' = C |chi|^(-e) y_p^(-2) and
    g_p = (gamma/C)(y_2/y_p)(chi) - (gamma/C)(y_2/y_p)(base).
    """
    alpha, beta, gamma = p.floats()
    a1f, a2f = _numeric(a1), _numeric(a2)
    c0f, constf = _numeric(c0), _numeric(const)
    chi_lo, chi_hi = _numeric(chi_lo), _numeric(chi_hi)
    if not chi_lo < chi_hi:
        raise FamilyError("empty chi interval")
    if chi_lo < 0 < chi_hi:
        raise FamilyError("chi interval must avoid the singular point chi = 0")

    e = (gamma - beta * a1f - alpha * a2f) / gamma
    m = alpha * beta / gamma**2
    chi_far = max(abs(chi_lo), abs(chi_hi))
    series = fuchs_series(e, m, chi_far)
    second = second_solution(e, m, chi_far)

    base = -1.0 if chi_hi < 0 else 1.0
    if not (chi_lo <= base <= chi_hi):
        base = 0.5 * (chi_lo + chi_hi)
    lo, hi = min(chi_lo, base), max(chi_hi, base)
    bracket = zero_bracket(series, lo, hi)
    if bracket is not None:
        raise FamilyError(
            "series solution vanishes inside the working interval; zero bracketed in (%g, %g)"
            % bracket
        )

    y_base, yp_base, _ = series.eval(base)
    y2_base, y2p_base = second.eval(base)
    scale = gamma / ((y_base * y2p_base - yp_base * y2_base) * abs(base) ** e)  # gamma/C
    q_base = y2_base / y_base

    def g_p(v: float) -> float:
        return scale * (second.eval(v)[0] / series(v) - q_base)

    k_log = (beta * a1f + alpha * a2f) / gamma**2

    def pieces(v: float):
        y0, y1, y2 = series.eval(v)
        zp = y1 / (gamma * y0)
        G = g_p(v) + c0f
        f = abs(v) ** e * y0 * y0 * G
        theta = zp + 1.0 / f
        zp_prime = y2 / (gamma * y0) - gamma * zp * zp
        f_prime = gamma + (2.0 * gamma * zp + e / v) * f
        theta_prime = zp_prime - f_prime / (f * f)
        varsigma = (math.log(abs(y0)) + math.log(abs(G))) / gamma
        return varsigma, theta, theta_prime

    def evaluator(x, y):
        lin_x = a1f - gamma * x
        lin_y = a2f + gamma * y
        chi = lin_x * lin_y
        vs, th, thp = pieces(value_of(chi))
        out = lift_with_derivatives(chi, vs, th, thp)
        out = out - (beta / gamma) * x - (alpha / gamma**2) * lin_y
        if k_log != 0.0:
            out = out - k_log * log_(lin_x)
        return out + constf

    margin = 0.01 * (chi_hi - chi_lo)

    def domain(x: float, y: float) -> bool:
        lin_x = a1f - gamma * x
        chi = lin_x * (a2f + gamma * y)
        if not (chi_lo + margin < chi < chi_hi - margin):
            return False
        if k_log != 0.0 and lin_x < 1e-9:
            return False
        return abs(g_p(chi) + c0f) > 1e-4

    return SolutionFamily(
        "case1",
        "Case1",
        p,
        {
            "a1": _jsonable(a1),
            "a2": _jsonable(a2),
            "c0": c0f,
            "const": constf,
            "chi_lo": chi_lo,
            "chi_hi": chi_hi,
        },
        evaluator,
        domain,
        note="series branch with quadrature-defined second factor",
    )


# --- Case 2.1a: real constant root plus exponential correction ---------------


def _case21_root(p: ThomasParams, a1f, a2f, root: str):
    alpha, beta, gamma = p.floats()
    b_lin = alpha * a2f - beta * a1f + gamma
    disc = b_lin**2 + 4 * gamma * beta * a1f
    if disc < 0:
        raise FamilyError("negative discriminant %g; no real constant root" % disc)
    sqrt_d = math.sqrt(disc)
    sign = {"+": 1.0, "-": -1.0}.get(root)
    if sign is None:
        raise FamilyError("root must be '+' or '-'")
    theta0 = (b_lin + sign * sqrt_d) / (2 * a1f * a2f * gamma)
    c_rate = sign * sqrt_d / (a1f * a2f)
    return theta0, c_rate, disc


def case21a_solution(
    p: ThomasParams, a1=1, a2=2, A=5000.0, root="+", const=0.0
) -> SolutionFamily:
    """u = (1/gamma) log(A - (gamma/C) e^{-C chi}) + theta0 chi + y/a2 + const
    on chi = a2 x - a1 y, where theta0 is a constant root of the reduced
    Riccati equation and C = (2 a1 a2 gamma theta0 - B)/(a1 a2).

    Degenerate branches: a1 = 0 gives the affine solution of the algebraic
    reduction; a double root (C = 0) falls back to the logarithmic
    correction u = theta0 chi + (1/gamma) log|gamma chi + A| + y/a2."""
    alpha, beta, gamma = p.floats()
    a1f, a2f = _numeric(a1), _numeric(a2)
    Af, constf = _numeric(A), _numeric(const)
    if a2f == 0:
        raise FamilyError("a2 must be nonzero for the 2.1 invariants")

    constants = {
        "a1": _jsonable(a1),
        "a2": _jsonable(a2),
        "A": Af,
        "root": root,
        "const": constf,
    }

    if a1f == 0:
        b0 = alpha * a2f + gamma
        if b0 == 0:
            raise FamilyError("alpha*a2 + gamma = 0 leaves no constant root")
        theta0 = -beta / (a2f * b0)

        def evaluator(x, y):
            return theta0 * (a2f * x) + y / a2f + constf

        return SolutionFamily(
            "case21a",
            "Case2_1a",
            p,
            constants,
            evaluator,
            lambda x, y: True,
            note="degenerate stratum: affine solution of the algebraic reduction",
        )

    theta0, c_rate, disc = _case21_root(p, a1f, a2f, root)

    if c_rate == 0.0:

        def evaluator(x, y):
            chi = a2f * x - a1f * y
            return theta0 * chi + log_(gamma * chi + Af) / gamma + y / a2f + constf

        def domain(x: float, y: float) -> bool:
            return gamma * (a2f * x - a1f * y) + Af > 1e-9

        return SolutionFamily(
            "case21a",
            "Case2_1a",
            p,
            constants,
            evaluator,
            domain,
            note="double-root fallback with logarithmic correction",
        )

    def evaluator(x, y):
        chi = a2f * x - a1f * y
        inner = Af - (gamma / c_rate) * exp_(-c_rate * chi)
        return log_(inner) / gamma + theta0 * chi + y / a2f + constf

    def domain(x: float, y: float) -> bool:
        chi = a2f * x - a1f * y
        return Af - (gamma / c_rate) * math.exp(-c_rate * chi) > 1e-9

    return SolutionFamily(
        "case21a",
        "Case2_1a",
        p,
        constants,
        evaluator,
        domain,
        note="constant Riccati root with exponential correction",
    )


def case21_affine(p: ThomasParams, a1=1, a2=2, root="+", const=0.0) -> SolutionFamily:
    """The correction-free limit: u = theta0 chi + y/a2 + const."""
    a1f, a2f = _numeric(a1), _numeric(a2)
    constf = _numeric(const)
    if a2f == 0:
        raise FamilyError("a2 must be nonzero")
    if a1f == 0:
        return case21a_solution(p, a1, a2, A=0.0, root=root, const=const)
    theta0, _, _ = _case21_root(p, a1f, a2f, root)

    def evaluator(x, y):
        return theta0 * (a2f * x - a1f * y) + y / a2f + constf

    return SolutionFamily(
        "case21_affine",
        "Case2_1a",
        p,
        {"a1": _jsonable(a1), "a2": _jsonable(a2), "root": root, "const": constf},
        evaluator,
        lambda x, y: True,
        note="constant-root solution (limit of unbounded correction amplitude)",
    )


# --- Case 2.1b: oscillatory branch -------------------------------------------


def case21b_solution(p: ThomasParams, a1=-1, a2=-1, A0=0.0, const=0.0) -> SolutionFamily:
    """Negative-discriminant branch through tan:

        theta = sqrt(Xi) tan(phi) - A1/(2 A2),  phi = A2 sqrt(Xi) chi + A0,
        varsigma = (1/(2 A2)) log(1 + tan(phi)^2) - (A1/(2 A2)) chi,

    using log|cos| = -(1/2) log(1 + tan^2) so one tan evaluation feeds both.
    Poles of tan are excluded by the domain predicate."""
    alpha, beta, gamma = p.floats()
    a1f, a2f = _numeric(a1), _numeric(a2)
    A0f, constf = _numeric(A0), _numeric(const)
    if a1f == 0 or a2f == 0:
        raise FamilyError("the oscillatory branch needs a1*a2 != 0")
    A1 = (alpha * a2f - beta * a1f + gamma) / (a1f * a2f)
    A2 = -gamma
    A3 = beta / (a1f * a2f**2)
    Xi = (4 * A2 * A3 - A1 * A1) / (4 * A2 * A2)
    if Xi <= 0:
        raise FamilyError(
            "Xi = %g is not positive; these constants belong to the real-root branch"
            % Xi
        )
    rate = A2 * math.sqrt(Xi)
    drift = A1 / (2 * A2)

    def evaluator(x, y):
        chi = a2f * x - a1f * y
        t = tan_(rate * chi + A0f)
        vs = log_(1.0 + t * t) / (2 * A2) - drift * chi
        return vs + y / a2f + constf

    def domain(x: float, y: float) -> bool:
        chi = a2f * x - a1f * y
        return abs(math.cos(rate * chi + A0f)) > 0.05

    return SolutionFamily(
        "case21b",
        "Case2_1b",
        p,
        {
            "a1": _jsonable(a1),
            "a2": _jsonable(a2),
            "A0": A0f,
            "const": constf,
        },
        evaluator,
        domain,
        note="tangent separation branch; antiderivative taken as -log|cos|",
    )


# --- Case 2.2: affine ---------------------------------------------------------


def case22_solution(p: ThomasParams, a1=1, const=0.0) -> SolutionFamily:
    alpha, beta, gamma = p.floats()
    a1f, constf = _numeric(a1), _numeric(const)
    if a1f == 0:
        raise FamilyError("a1 = 0 has no 2.2 reduction")
    denom = beta * a1f + gamma
    if denom == 0:
        raise FamilyError("beta*a1 + gamma = 0 admits no solution (obstructed case)")
    slope_y = alpha / denom

    def evaluator(x, y):
        return x / a1f - slope_y * y + constf

    return SolutionFamily(
        "case22",
        "Case2_2",
        p,
        {"a1": _jsonable(a1), "const": constf},
        evaluator,
        lambda x, y: True,
        note="affine solution; coincides with a single-mode linearization profile",
    )


# --- Case 3.1a / 3.1b: traveling waves ----------------------------------------


def case31a_solution(p: ThomasParams, k0=5.0, const=0.0) -> SolutionFamily:
    """u = (1/gamma) log(gamma (x - y/a2) + k0) + const with a2 = beta/alpha."""
    alpha, beta, gamma = p.floats()
    if alpha == 0:
        raise FamilyError("this branch needs alpha != 0 (a2 = beta/alpha)")
    a2f = beta / alpha
    if a2f == 0:
        raise FamilyError("beta = 0 collapses the invariant direction")
    k0f, constf = _numeric(k0), _numeric(const)

    def evaluator(x, y):
        return log_(gamma * (x - y / a2f) + k0f) / gamma + constf

    def domain(x: float, y: float) -> bool:
        return gamma * (x - y / a2f) + k0f > 1e-9

    return SolutionFamily(
        "case31a",
        "Case3_1a",
        p,
        {"k0": k0f, "const": constf},
        evaluator,
        domain,
        note="logarithmic traveling wave along the balanced direction",
    )


def case31b_solution(p: ThomasParams, a2=2, k=1.0, const=0.0) -> SolutionFamily:
    """u = -(1/gamma) log(1 + gamma/(k w e^{w chi} - gamma)) + const with
    w = beta - alpha*a2 and chi = x - y/a2; w = 0 falls back to the
    logarithmic form of the balanced branch."""
    alpha, beta, gamma = p.floats()
    a2f = _numeric(a2)
    kf, constf = _numeric(k), _numeric(const)
    if a2f == 0:
        raise FamilyError("a2 must be nonzero")
    w = beta - alpha * a2f
    constants = {"a2": _jsonable(a2), "k": kf, "const": constf}

    if w == 0:

        def evaluator(x, y):
            return log_(gamma * (x - y / a2f) + kf) / gamma + constf

        def domain(x: float, y: float) -> bool:
            return gamma * (x - y / a2f) + kf > 1e-9

        note = "drift-free limit; logarithmic profile"
    else:

        def evaluator(x, y):
            chi = x - y / a2f
            denom = kf * w * exp_(w * chi) - gamma
            return -log_(1.0 + gamma / denom) / gamma + constf

        def domain(x: float, y: float) -> bool:
            chi = x - y / a2f
            denom = kf * w * math.exp(w * chi) - gamma
            if abs(denom) < 1e-9:
                return False
            return 1.0 + gamma / denom > 1e-12

        note = "exponential-profile traveling wave"

    return SolutionFamily(
        "case31b", "Case3_1b", p, constants, evaluator, domain, note
    )


# --- trivial content ----------------------------------------------------------


def constant_solution(p: ThomasParams, c=0.0, tag="Case3_2") -> SolutionFamily:
    p.floats()  # like every family, a constant state needs numeric parameters
    cf = _numeric(c)
    return SolutionFamily(
        "constant",
        tag,
        p,
        {"c": cf, "tag": tag},
        lambda x, y: cf + 0.0 * x * y,
        lambda x, y: True,
        note="constant state",
    )


def trivial_solutions(p: ThomasParams, c=0.0):
    """Constant families for the translation-invariant cases plus the
    recorded obstructions."""
    return [
        constant_solution(p, c, tag="Case3_2"),
        constant_solution(p, c, tag="Case2_4"),
        Obstruction("Case2_3", "reduction forces alpha*beta = 0; no solution otherwise"),
        Obstruction("Case2_4", "invariants (y, x) involve no u; no reduction ansatz"),
    ]


SOLUTION_BUILDERS = {
    "case1": case1_solution,
    "case21a": case21a_solution,
    "case21_affine": case21_affine,
    "case21b": case21b_solution,
    "case22": case22_solution,
    "case31a": case31a_solution,
    "case31b": case31b_solution,
    "constant": constant_solution,
}

# builder key of each canonical tag that has a solution family; Case2_3 is
# obstructed and Zero has no reduction
TAG_BUILDERS = {
    "Case1": "case1",
    "Case2_1a": "case21a",
    "Case2_1b": "case21b",
    "Case2_2": "case22",
    "Case3_1a": "case31a",
    "Case3_1b": "case31b",
    "Case2_4": "constant",
    "Case3_2": "constant",
}
