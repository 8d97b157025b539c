"""Evaluable invariant solutions for each canonical case.

Under w = exp(gamma u) the equation turns linear, and every closed form
(Cases 2.1a, 2.1b, 2.2, 3.1a, 3.1b and the constants) is one ModeMix:

    u = lam x + mu y + k + (1/gamma) log(a + c f(p x + q y + r)),

with f = exp, |cos| or the identity.  The mix evaluates elementwise on
floats or hyper-dual grid rows (a single point is a row of one), both
linear forms through ``hyperdual.affine``.  Its domain is
the log argument w above a floor, computed directly on floats with the
operations of w in their order, so it decides a point as w itself would.
Case 1 is a ratio of Frobenius series with its own evaluator, lifted onto
chi by ``hyperdual.lift``; its domain keeps the sums at each chi until the
evaluator has read them, so each distinct chi of a grid block makes one
pass over both series for y_p, y_p', y_p'' and the second solution's value
y_2; y_2' is summed at the base point only.  Where printed source formulas
for a case disagree internally, the variant kept here is the one
rederived from the reduced ODE; the residual tests are the arbiter.

Builders: a body registered by ``@_builder(key, tag)`` only computes the
coefficients: floats in, (evaluator, domain, note) out.  Its first three
arguments are alpha, beta, gamma, which the builder converts from the
ThomasParams once per build; no body sees the ThomasParams.  The type of
each constant's default sets how it is passed and recorded: an int
default is an exact coordinate (a1, a2), passed as a float and recorded
as given (a Fraction as an int or "n/d"); a float default is a number,
passed and recorded as a float; a str default is a choice (root, tag),
passed and recorded as given.  Each tag's builder is the first registered
for it (TAG_BUILDERS); the case table `cases.CASES` records the tags that
have none, and the tags under which the constant family is invariant.

Descriptors: ``descriptor()`` emits a JSON-able dict that rebuilds the
family bit-for-bit through ``from_descriptor``; the sha256 digest of the
canonical JSON identifies a family across processes.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .cases import CASES
from .errors import DomainError, Record
from .fuchs import fuchs_series, joint_table, second_solution, series_sums, zero_bracket
from .hyperdual import affine, cos_, exp_, lift, log_
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
        out = float(Fraction(v)) if isinstance(v, str) else float(v)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise FamilyError("constant %r is not a number" % (v,)) from None
    if not math.isfinite(out):  # a descriptor's NaN or Infinity
        raise FamilyError("constant %r is not a finite number" % (v,))
    return out


def _choice(v):
    if not isinstance(v, str):
        raise FamilyError("constant %r is not a string" % (v,))
    return v


def _param_strings(p: ThomasParams):
    a, b, g = (getattr(p, n).value for n in ("alpha", "beta", "gamma"))
    return {"alpha": str(a), "beta": str(b), "gamma": str(g)}


def params_from_strings(d) -> ThomasParams:
    try:
        values = [Fraction(d[n]) for n in ("alpha", "beta", "gamma")]
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        raise FamilyError("descriptor parameters %r are not rationals" % (d,)) from None
    return ThomasParams(*values)


class SolutionFamily(Record, hidden=("evaluator", "domain")):
    family: str  # builder key in SOLUTION_BUILDERS
    tag: str  # canonical case the family solves
    params: ThomasParams
    constants: dict
    evaluator: object
    domain: object  # (x, y) -> bool on floats
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
        import hashlib  # here, so that commands printing no digest never load OpenSSL

        return hashlib.sha256(self.descriptor_json().encode()).hexdigest()


def _identity(t):
    return t


def _abs_cos(t):
    return abs(cos_(t))


class ModeMix(Record):
    """u = lam x + mu y + k + (1/gamma) log w,  w = a + c f(p x + q y + r).

    w is exp(gamma u) over the positive mode exp(gamma (lam x + mu y + k)),
    and the domain is w > floor.  Without f, u is the affine part alone and
    the domain is the whole plane."""

    gamma: float
    lam: float
    mu: float
    k: float
    a: float = 0.0
    c: float = 0.0
    f: object = None
    p: float = 0.0
    q: float = 0.0
    r: float = 0.0
    floor: float = 1e-9

    def w(self, x, y):
        return self.a + self.c * self.f(affine(self.p, x, self.q, y, self.r))

    def __call__(self, x, y):
        u = affine(self.lam, x, self.mu, y, self.k)
        if self.f is None:
            return u
        return u + log_(self.w(x, y)) / self.gamma

    def domain(self, x: float, y: float) -> bool:
        """w(x, y) > floor on floats: the operations of ``w`` in its order,
        with f read as math.exp, abs(math.cos) or the identity, so without
        the hyper-dual dispatch of ``affine`` and f."""
        f = self.f
        if f is None:
            return True
        t = self.p * x + self.q * y + self.r
        if f is exp_:
            t = math.exp(t)
        elif f is _abs_cos:
            t = abs(math.cos(t))
        return self.a + self.c * t > self.floor


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
    """SOLUTION_BUILDERS[key](p, **constants); an unknown key is a FamilyError."""
    builder = SOLUTION_BUILDERS.get(key) if isinstance(key, str) else None
    if builder is None:
        raise FamilyError("unknown family %r" % (key,))
    return builder(p, **constants)


# builder key -> builder, in registration order; TAG_BUILDERS maps each
# canonical tag to the first builder registered for it (the tags with an
# obstruction in cases.CASES have none, and Zero has no reduction)
SOLUTION_BUILDERS = {}
TAG_BUILDERS = {}


def _builder(key, tag=None):
    """Register body(alpha, beta, gamma, *constants) as
    SOLUTION_BUILDERS[key](p, *constants) (see the module docstring).  The
    builder checks the constant names, then converts the parameters, so
    symbolic ones fail before any constant, then converts the constants;
    without a tag, the ``tag`` constant names the case the family solves."""

    def register(body):
        code = body.__code__
        names = code.co_varnames[3:code.co_argcount]
        defaults = dict(zip(names, body.__defaults__))
        rules = {n: type(v) for n, v in defaults.items()}
        TAG_BUILDERS.setdefault(tag or defaults["tag"], key)

        def build(p: ThomasParams, *args, **kwargs) -> SolutionFamily:
            given = dict(zip(names, args))
            if len(args) > len(names) or given.keys() & kwargs.keys():
                raise TypeError("%s() takes each of %s once" % (body.__name__, ", ".join(names)))
            unknown = sorted(set(kwargs) - set(names))
            if unknown:
                raise FamilyError("family %r takes no constant %s" % (key, ", ".join(unknown)))
            floats = p.floats()
            given = {**defaults, **given, **kwargs}
            values = {n: _choice(v) if rules[n] is str else _numeric(v)
                      for n, v in given.items()}
            evaluator, domain, note = body(*floats, **values)
            constants = {n: _jsonable(v) if rules[n] is int else values[n]
                         for n, v in given.items()}
            return SolutionFamily(key, tag or values["tag"], p, constants, evaluator, domain,
                                  note)

        build.__name__ = build.__qualname__ = body.__name__
        build.__doc__ = body.__doc__
        SOLUTION_BUILDERS[key] = build
        return build

    return register


# --- Case 1: Frobenius series assembly ----------------------------------------


@_builder("case1", "Case1")
def case1_solution(alpha, beta, gamma, a1=0, a2=0, c0=1.0, const=0.0, chi_lo=-4.5,
                   chi_hi=-0.005):
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
    if not chi_lo < chi_hi:
        raise FamilyError("empty chi interval")
    if chi_lo < 0 < chi_hi:
        raise FamilyError("chi interval must avoid the singular point chi = 0")

    e = (gamma - beta * a1 - alpha * a2) / gamma
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
    table, memo = joint_table(series, second), {}

    def sums(v: float):
        """(y_p, y_p', y_p'', g_p + c0) at v from one pass, kept until the
        evaluator clears them: domain() and the evaluator read the same chi
        at a grid point, and the sums of a whole grid block stay while it
        has at most 1024 points.  Calls to domain() alone keep at most 1024
        sums."""
        out = memo.get(v)
        if out is None:
            if len(memo) >= 1024:
                memo.clear()
            y0, y1, y2, s, log_s = series_sums(table, v)
            out = memo[v] = y0, y1, y2, scale * (second.value(v, s, log_s) / y0 - q_base) + c0
        return out

    k_log = (beta * a1 + alpha * a2) / gamma**2

    def pieces(v: float):
        y0, y1, y2, G = sums(v)
        zp = y1 / (gamma * y0)
        f = abs(v) ** e * y0 * y0 * G
        theta = zp + 1.0 / f
        zp_prime = y2 / (gamma * y0) - gamma * zp * zp
        f_prime = gamma + (2.0 * gamma * zp + e / v) * f
        theta_prime = zp_prime - f_prime / (f * f)
        varsigma = (math.log(abs(y0)) + math.log(abs(G))) / gamma
        return varsigma, theta, theta_prime

    def evaluator(x, y):
        lin_x = a1 - gamma * x
        lin_y = a2 + gamma * y
        out = lift(lin_x * lin_y, pieces)
        memo.clear()
        out = out - (beta / gamma) * x - (alpha / gamma**2) * lin_y
        if k_log != 0.0:
            out = out - k_log * log_(lin_x)
        return out + const

    margin = 0.01 * (chi_hi - chi_lo)

    def domain(x: float, y: float) -> bool:
        lin_x = a1 - gamma * x
        chi = lin_x * (a2 + gamma * y)
        if not (chi_lo + margin < chi < chi_hi - margin):
            return False
        if k_log != 0.0 and lin_x < 1e-9:
            return False
        return abs(sums(chi)[3]) > 1e-4

    return evaluator, domain, "series branch with quadrature-defined second factor"


# --- Case 2.1a: real constant root plus exponential correction ---------------


def _case21_root(alpha, beta, gamma, a1, a2, root: str):
    b_lin = alpha * a2 - beta * a1 + gamma
    disc = b_lin**2 + 4 * gamma * beta * a1
    if disc < 0:
        raise FamilyError("negative discriminant %g; no real constant root" % disc)
    sqrt_d = math.sqrt(disc)
    sign = {"+": 1.0, "-": -1.0}.get(root)
    if sign is None:
        raise FamilyError("root must be '+' or '-'")
    theta0 = (b_lin + sign * sqrt_d) / (2 * a1 * a2 * gamma)
    c_rate = sign * sqrt_d / (a1 * a2)
    return theta0, c_rate


def _case21_degenerate(alpha, beta, gamma, a2, const):
    """a1 = 0: the constant root of the algebraic reduction, no correction.
    Where alpha*a2 + gamma = beta = 0 every theta solves it (the identity
    stratum), and the theta = 0 member u = y/a2 + const stands for them."""
    b0 = alpha * a2 + gamma
    if b0 == 0:
        if beta != 0:
            raise FamilyError("alpha*a2 + gamma = 0 leaves no constant root")
        mix = ModeMix(gamma, 0.0, 1 / a2, const)
        return mix, mix.domain, "identity stratum: every theta solves; the theta = 0 member"
    mix = ModeMix(gamma, -beta / (a2 * b0) * a2, 1 / a2, const)
    return mix, mix.domain, "degenerate stratum: affine solution of the algebraic reduction"


@_builder("case21a", "Case2_1a")
def case21a_solution(alpha, beta, gamma, a1=1, a2=2, A=5000.0, root="+", const=0.0):
    """u = (1/gamma) log(A - (gamma/C) e^{-C chi}) + theta0 chi + y/a2 + const
    on chi = a2 x - a1 y, where theta0 is a constant root of the reduced
    Riccati equation and C = (2 a1 a2 gamma theta0 - B)/(a1 a2).

    Degenerate branches: a1 = 0 gives the affine solution of the algebraic
    reduction; a double root (C = 0) falls back to the logarithmic
    correction u = theta0 chi + (1/gamma) log|gamma chi + A| + y/a2."""
    if a2 == 0:
        raise FamilyError("a2 must be nonzero for the 2.1 invariants")
    if a1 == 0:
        return _case21_degenerate(alpha, beta, gamma, a2, const)
    theta0, c_rate = _case21_root(alpha, beta, gamma, a1, a2, root)
    lam, mu = theta0 * a2, 1 / a2 - theta0 * a1
    if c_rate == 0.0:
        mix = ModeMix(gamma, lam, mu, const, A, gamma, _identity, a2, -a1)
        return mix, mix.domain, "double-root fallback with logarithmic correction"
    mix = ModeMix(gamma, lam, mu, const, A, -gamma / c_rate, exp_, -c_rate * a2, c_rate * a1)
    return mix, mix.domain, "constant Riccati root with exponential correction"


@_builder("case21_affine", "Case2_1a")
def case21_affine(alpha, beta, gamma, a1=1, a2=2, root="+", const=0.0):
    """The correction-free limit: u = theta0 chi + y/a2 + const."""
    if a2 == 0:
        raise FamilyError("a2 must be nonzero")
    if a1 == 0:
        return _case21_degenerate(alpha, beta, gamma, a2, const)
    theta0, _ = _case21_root(alpha, beta, gamma, a1, a2, root)
    mix = ModeMix(gamma, theta0 * a2, 1 / a2 - theta0 * a1, const)
    return mix, mix.domain, "constant-root solution (limit of unbounded correction amplitude)"


# --- Case 2.1b: oscillatory branch -------------------------------------------


@_builder("case21b", "Case2_1b")
def case21b_solution(alpha, beta, gamma, a1=-1, a2=-1, A0=0.0, const=0.0):
    """Negative-discriminant branch:

        theta = sqrt(Xi) tan(phi) - A1/(2 A2),  phi = A2 sqrt(Xi) chi + A0,
        varsigma = (1/(2 A2)) log(1 + tan(phi)^2) - (A1/(2 A2)) chi,

    and since A2 = -gamma, (1/(2 A2)) log(1 + tan^2) = (1/gamma) log|cos|,
    so w = |cos(phi)|.  The domain |cos(phi)| > 0.05 keeps away from the
    poles of tan."""
    if a1 == 0 or a2 == 0:
        raise FamilyError("the oscillatory branch needs a1*a2 != 0")
    A1 = (alpha * a2 - beta * a1 + gamma) / (a1 * a2)
    A2 = -gamma
    A3 = beta / (a1 * a2**2)
    Xi = (4 * A2 * A3 - A1 * A1) / (4 * A2 * A2)
    if Xi <= 0:
        raise FamilyError(
            "Xi = %g is not positive; these constants belong to the real-root branch"
            % Xi
        )
    rate = A2 * math.sqrt(Xi)
    drift = A1 / (2 * A2)
    mix = ModeMix(gamma, -drift * a2, drift * a1 + 1 / a2, const, 0.0, 1.0, _abs_cos,
                  rate * a2, -rate * a1, A0, floor=0.05)
    return mix, mix.domain, "tangent separation branch; antiderivative taken as -log|cos|"


# --- Case 2.2: affine ---------------------------------------------------------


@_builder("case22", "Case2_2")
def case22_solution(alpha, beta, gamma, a1=1, const=0.0):
    if a1 == 0:
        raise FamilyError("a1 = 0 has no 2.2 reduction")
    denom = beta * a1 + gamma
    if denom == 0:
        raise FamilyError("beta*a1 + gamma = 0 admits no solution (obstructed case)")
    mix = ModeMix(gamma, 1 / a1, -alpha / denom, const)
    return mix, mix.domain, "affine solution; coincides with a single-mode linearization profile"


# --- Case 3.1a / 3.1b: traveling waves ----------------------------------------


@_builder("case31a", "Case3_1a")
def case31a_solution(alpha, beta, gamma, k0=5.0, const=0.0):
    """u = (1/gamma) log(gamma (x - y/a2) + k0) + const with a2 = beta/alpha."""
    if alpha == 0:
        raise FamilyError("this branch needs alpha != 0 (a2 = beta/alpha)")
    a2 = beta / alpha
    if a2 == 0:
        raise FamilyError("beta = 0 collapses the invariant direction")
    mix = ModeMix(gamma, 0.0, 0.0, const, k0, gamma, _identity, 1.0, -1 / a2)
    return mix, mix.domain, "logarithmic traveling wave along the balanced direction"


@_builder("case31b", "Case3_1b")
def case31b_solution(alpha, beta, gamma, a2=2, k=1.0, const=0.0):
    """u = -(1/gamma) log(1 + gamma/(k s e^{s chi} - gamma)) + const with
    s = beta - alpha*a2 and chi = x - y/a2, that is w = 1 - (gamma/(k s))
    e^{-s chi}; k = 0 leaves no point with w > 0.  s = 0 is a Case3_1a
    vector where alpha != 0, and at alpha = beta = 0 it falls back to the
    logarithmic form of the balanced branch."""
    if a2 == 0:
        raise FamilyError("a2 must be nonzero")
    s = beta - alpha * a2
    if s == 0 and alpha:
        raise FamilyError("a2 = beta/alpha makes (1, a2, 0, 0) a Case3_1a vector; "
                          "its family is case31a")
    if s == 0:
        mix = ModeMix(gamma, 0.0, 0.0, const, k, gamma, _identity, 1.0, -1 / a2)
        return mix, mix.domain, "drift-free limit; logarithmic profile"
    c = -gamma / (k * s) if k else -math.inf
    mix = ModeMix(gamma, 0.0, 0.0, const, 1.0, c, exp_, -s, s / a2)
    return mix, mix.domain, "exponential-profile traveling wave"


# --- constants ----------------------------------------------------------------


@_builder("constant")
def constant_solution(alpha, beta, gamma, c=0.0, tag="Case3_2"):
    translations = [t for t, case in CASES.items() if case.constant]
    if tag not in translations:
        raise FamilyError("a constant is invariant only for %s, not %r"
                          % (", ".join(translations), tag))
    mix = ModeMix(gamma, 0.0, 0.0, c)
    return mix, mix.domain, "constant state"
