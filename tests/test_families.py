"""Closed-form solution families: residuals, descriptors, error paths."""

import functools
import inspect
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from scipy.integrate import quad

from lie_thomas import cases, families, fuchs
from lie_thomas.cases import CASES, TAGS
from lie_thomas.determining import ThomasParams
from lie_thomas.families import (
    SOLUTION_BUILDERS,
    TAG_BUILDERS,
    FamilyError,
    ModeMix,
    SolutionFamily,
    build_family,
    case1_solution,
    case21_affine,
    case21a_solution,
    case21b_solution,
    case22_solution,
    case31a_solution,
    case31b_solution,
    constant_solution,
    from_descriptor,
    _numeric,
)
from lie_thomas.fuchs import (
    FuchsError,
    FuchsSeries,
    fuchs_series,
    second_solution,
)
from lie_thomas.hyperdual import HyperDualRow, exp_, log_
from lie_thomas.verification import BLOCK, GridReport, GridSpec, VerificationError, residual_grid
from test_verification import BLOCK_GRIDS, _grid_bits, _pointwise_residual_grid

F = Fraction
P = ThomasParams(1, 1, 1)


def _max_residual(fam, grid):
    return residual_grid(fam, grid=grid).max_residual


def test_case1_residual():
    fam = case1_solution(P, a1=F(0), a2=F(0), c0=F(1))
    grid = GridSpec(-2.0, -0.1, 20, -2.0, -0.1, 20)
    assert _max_residual(fam, grid) < 1e-9


def test_case1_with_log_term():
    # a1, a2 nonzero turns on the log(a1 - gamma x) part of the lift
    fam = case1_solution(P, a1=F(1), a2=F(-2), c0=F(1))
    grid = GridSpec(-3.5, -0.5, 16, 0.2, 1.8, 16)
    assert _max_residual(fam, grid) < 1e-9


@pytest.mark.parametrize("params", [(1, 1, 1), (F(1, 2), 1, 2)])
def test_case1_residual_sees_a_bent_series_coefficient(monkeypatch, params):
    """The Case 1 residual checks the series independently: with a_2 of
    y_p bent by 1 %, criterion 5's inner grid reads above its 1e-6 bound."""
    exact = families.fuchs_series

    def bent(*args):
        s = exact(*args)
        c = list(s.coefficients)
        c[2] *= 1.01
        return FuchsSeries(s.e, s.m, tuple(c), s.truncation, s.tail_bound)

    monkeypatch.setattr(families, "fuchs_series", bent)
    fam = case1_solution(ThomasParams(*params), a1=F(0), a2=F(0), c0=F(1))
    assert _max_residual(fam, GridSpec(-2.0, -0.1, 50, -2.0, -0.1, 50)) > 1e-6


@pytest.mark.parametrize("a1, a2", [(1, 0), (3, -1)], ids=["e=0", "e=-1"])
def test_case1_exponent_pole_rejected(a1, a2):
    # e = (gamma - beta a1 - alpha a2)/gamma must avoid {0, -1, -2, ...}
    with pytest.raises(FuchsError, match="recurrence poles"):
        case1_solution(P, a1=F(a1), a2=F(a2), c0=F(1))


def test_case21a_residual():
    fam = case21a_solution(P, a1=F(1), a2=F(2), A=F(5000), root="+")
    assert _max_residual(fam, GridSpec(-2, 2, 20, -2, 2, 20)) < 1e-9


def test_case21a_negative_discriminant_rejected():
    # B^2 + 4 gamma beta a1 < 0 at a1=-1, a2=-1 (B = -1+1+1 = 1, D = 1-4 = -3)
    with pytest.raises(FamilyError):
        case21a_solution(P, a1=F(-1), a2=F(-1), A=F(1), root="+")


def test_case21a_double_root_falls_back_to_the_log_correction():
    # B = alpha*a2 - beta*a1 + gamma = -2 and B^2 + 4 gamma beta a1 = 0
    fam = case21a_solution(P, a1=F(-1), a2=F(-4))
    assert fam.note == "double-root fallback with logarithmic correction"
    assert fam.evaluator.f.__name__ == "_identity"
    assert _max_residual(fam, GridSpec(-2, 2, 50, -2, 2, 50)) < 1e-14


def test_case21a_degenerate_a1():
    fam = case21a_solution(P, a1=F(0), a2=F(3), A=F(100), root="+")
    assert _max_residual(fam, GridSpec(-2, 2, 15, -2, 2, 15)) < 1e-9


@pytest.mark.parametrize("build", [case21a_solution, case21_affine])
def test_case21a_identity_stratum_builds_the_theta_zero_member(build):
    # a1 = 0 and alpha*a2 + gamma = beta = 0: every theta solves the
    # algebraic reduction, and the family is u = y/a2 + const
    fam = build(ThomasParams(1, 0, 1), a1=F(0), a2=F(-1), const=F(1, 2))
    assert fam.note == "identity stratum: every theta solves; the theta = 0 member"
    assert fam(0.3, -1.2) == pytest.approx(1.7, abs=1e-15)
    assert _max_residual(fam, GridSpec(-2, 2, 50, -2, 2, 50)) < 1e-14


@pytest.mark.parametrize("build", [case21a_solution, case21_affine])
def test_case21a_inconsistent_stratum_refuses(build):
    # alpha*a2 + gamma = 0 with beta != 0 leaves beta/a2 = 0: no theta
    with pytest.raises(FamilyError, match="alpha\\*a2 \\+ gamma = 0 leaves no constant root"):
        build(ThomasParams(1, 2, 1), a1=F(0), a2=F(-1))


def test_case21_affine_limit():
    fam = case21_affine(P, a1=F(1), a2=F(2))
    assert _max_residual(fam, GridSpec(-2, 2, 15, -2, 2, 15)) < 1e-11


def test_case21b_residual():
    fam = case21b_solution(P, a1=F(-1), a2=F(-1), A0=F(0))
    assert _max_residual(fam, GridSpec(-1, 1, 20, -1, 1, 20)) < 1e-9


def test_case21b_requires_negative_discriminant():
    # (1,2) gives D > 0; oscillatory branch undefined
    with pytest.raises(FamilyError):
        case21b_solution(P, a1=F(1), a2=F(2), A0=F(0))


def test_case22_residual():
    fam = case22_solution(P, a1=F(2))
    assert _max_residual(fam, GridSpec(-2, 2, 15, -2, 2, 15)) < 1e-12


def test_case22_bad_slope():
    with pytest.raises(FamilyError):
        case22_solution(P, a1=F(0))
    with pytest.raises(FamilyError):
        case22_solution(P, a1=F(-1))  # a1 = -gamma/beta


def test_case31a_residual():
    fam = case31a_solution(P, k0=F(10))
    assert _max_residual(fam, GridSpec(0.5, 2, 15, -2, -0.5, 15)) < 1e-10


def test_case31b_residual():
    fam = case31b_solution(P, a2=F(2), k=F(1))
    assert _max_residual(fam, GridSpec(0.5, 3, 20, -1, 1, 20)) < 1e-10


def test_case31b_refuses_a_case31a_slope():
    """s = beta - alpha a2 = 0 with alpha != 0 makes (1, a2, 0, 0) a Case3_1a
    vector, so case31b refuses it; at alpha = beta = 0 every a2 gives s = 0
    and a Case3_1b vector, and the logarithmic profile is its family."""
    with pytest.raises(FamilyError, match="Case3_1a vector; its family is case31a"):
        case31b_solution(P, a2=F(1), k=F(10))
    drift_free = ThomasParams(0, 0, 1)
    assert cases.tag((1, 1, 0, 0), (0, 0, 1)) == "Case3_1b"
    fam = case31b_solution(drift_free, a2=F(1), k=F(10))
    assert fam.note == "drift-free limit; logarithmic profile"
    assert fam.digest() == "bd9a965fd05db782e567eef975dfaae0086193dad72d9d11503be8b9ed64518f"
    assert _max_residual(fam, GridSpec(0.5, 2, 12, -2, -0.5, 12)) < 1e-10


def test_constant_solution():
    fam = constant_solution(P, c=F(3, 2), tag="Case3_2")
    assert fam(0.3, -0.7) == 1.5
    assert _max_residual(fam, GridSpec(-1, 1, 5, -1, 1, 5)) == 0.0


def test_constant_solution_needs_a_translation_tag():
    # a constant u is invariant only under a vector with a3 = a4 = 0
    for tag in TAGS:
        if tag in ("Case3_1a", "Case3_1b", "Case3_2"):
            assert constant_solution(P, tag=tag).tag == tag
        else:
            with pytest.raises(FamilyError, match="not %r" % tag):
                constant_solution(P, tag=tag)


def test_descriptor_roundtrip():
    fam = case21a_solution(P, a1=F(1), a2=F(2), A=F(5000), root="+")
    desc = fam.descriptor()
    assert desc["schema"] == "lie-thomas/1"
    assert desc["kind"] == "solution-family"
    clone = from_descriptor(json.loads(fam.descriptor_json()))
    assert clone.digest() == fam.digest()
    for x, y in [(0.3, 0.4), (-1.2, 0.8)]:
        assert abs(clone(x, y) - fam(x, y)) < 1e-14


def test_descriptor_digest_is_content_hash():
    a = case22_solution(P, a1=F(2))
    b = case22_solution(P, a1=F(2))
    c = case22_solution(P, a1=F(3))
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()
    assert len(a.digest()) == 64


def test_builder_registry_covers_families():
    # registration order is the order `solve --family` lists the keys in
    assert list(SOLUTION_BUILDERS) == [
        "case1", "case21a", "case21_affine", "case21b", "case22",
        "case31a", "case31b", "constant",
    ]
    assert TAG_BUILDERS == {
        "Case1": "case1",
        "Case2_1a": "case21a",
        "Case2_1b": "case21b",
        "Case2_2": "case22",
        "Case3_1a": "case31a",
        "Case3_1b": "case31b",
        "Case3_2": "constant",
    }


# (builder key, constants) -> descriptor digest at P; every builder at its
# defaults and the branches that record a degenerate stratum
DIGESTS = [
    ("case1", {}, "b8cd9d0d46e8ca599a57e09a309169674a4e114d147139e654341df80cf617e7"),
    ("case21a", {}, "6574f15a6c800a38eb3444ae583ce797d42068fedcbce3cf2d4ca6ea2ba01146"),
    ("case21_affine", {}, "caca365f8bc8c713ae96b3d081753436ac2c3739f03106c19c5998017325ac3a"),
    ("case21b", {}, "35664e23be1ffcfd26f80b4013c5eb0e4af2f75dbf857d915b1a2426cb62596a"),
    ("case22", {}, "12c3cd3aac842949360c776a84df52d392069fb024a4eccfc8c7e8feb2e8cd9f"),
    ("case31a", {}, "3cdb56a9f96514df2ad50a9e88157f3221b010dcb4193c88fbe69237ab3b704c"),
    ("case31b", {}, "9b6c8fd972f9f5808d5bf144d5fdb7de01e32a0433d8eb294ae7f66f9427bb05"),
    ("constant", {}, "e5788a71b9b47e314714666d9ecd36ac800349875a710d159468a4576d275459"),
    ("case21a", {"a1": F(0)}, "6c6fb80745359e006eb3463fc53020ff6805620c1b24637e1cbdea9844946bd0"),
    ("constant", {"tag": "Case3_1a"},
     "8700397e8b9e1f64536533f467ba5bd516ad8add614c41f76874c8566359f349"),
    # names its own builder and records only the constants case21_affine takes
    ("case21_affine", {"a1": F(0)},
     "a5e1a105ec82c5ddec83a91dbff3c2fdc747093e61751b7b37a643692e8fd74e"),
]


@pytest.mark.parametrize("key, constants, digest", DIGESTS, ids=[
    "-".join([k, *("%s=%s" % kv for kv in c.items())]) for k, c, _ in DIGESTS])
def test_descriptor_digests_pinned(key, constants, digest):
    """Every builder's digest, and the digest of the family its descriptor
    rebuilds."""
    fam = build_family(key, P, constants)
    assert fam.family == key
    assert fam.digest() == digest
    assert from_descriptor(json.loads(fam.descriptor_json())).digest() == digest


def test_degenerate_affine_records_its_own_constants():
    fam = case21_affine(P, a1=F(0), a2=F(3))
    assert fam.family == "case21_affine" and fam.tag == "Case2_1a"
    assert fam.constants == {"a1": 0, "a2": 3, "root": "+", "const": 0.0}
    # a case21a descriptor at a1 = 0, as case21_affine emitted before it kept its own key,
    # rebuilds the same function
    old = case21a_solution(P, a1=F(0), a2=F(3), A=0.0)
    assert old.note == fam.note
    for x, y in [(0.3, 0.4), (-1.2, 0.8)]:
        assert from_descriptor(old.descriptor())(x, y) == fam(x, y)


@pytest.mark.parametrize("build, args", [
    (case1_solution, (F(1), F(-2), F(1), 0.5)),
    (case21a_solution, (F(1), F(2), F(100), "-", F(1, 2))),
    (case21_affine, (F(1), F(2), "+", 1.25)),
    (case21b_solution, (F(-1), F(-1), F(1, 3))),
    (case22_solution, (F(2), "1/4")),
    (case31a_solution, (F(10),)),
    (case31b_solution, (F(2), F(3))),
    (constant_solution, (F(3, 2), "Case3_1b")),
])
def test_positional_and_keyword_constants_agree(build, args):
    fam = build(P, *args)
    assert fam.digest() != build(P).digest()
    keyword = dict(zip(fam.constants, args))  # the constants in signature order
    assert build(P, **keyword).digest() == fam.digest()
    first, *rest = keyword.items()
    assert build(P, first[1], **dict(rest)).digest() == fam.digest()
    with pytest.raises(TypeError):
        build(P, *args, **dict([first]))


@pytest.mark.parametrize("key", list(SOLUTION_BUILDERS))
def test_unknown_constant_is_a_family_error(key):
    message = "family %r takes no constant bogus" % key
    with pytest.raises(FamilyError, match=message):
        build_family(key, P, {"bogus": 1})
    with pytest.raises(FamilyError, match=message):
        SOLUTION_BUILDERS[key](P, bogus=1)
    with pytest.raises(FamilyError, match=message):  # before the parameters are read
        SOLUTION_BUILDERS[key](ThomasParams(), bogus=1)


def test_from_descriptor_rejects_unknown():
    with pytest.raises(FamilyError):
        from_descriptor({"schema": "lie-thomas/1", "kind": "solution-family",
                         "family": "nope", "params": {"alpha": "1", "beta": "1",
                                                      "gamma": "1"},
                         "constants": {}})


def test_case1_domain_excludes_invariant_zero():
    fam = case1_solution(P, a1=F(0), a2=F(0), c0=F(1))
    # chi = (a2 + gamma y)(a1 - gamma x) = -xy here; window wants chi < 0
    assert fam.domain(1.0, 1.0)
    assert not fam.domain(-1.0, 1.0)
    assert not fam.domain(1.0, 0.0)  # chi = 0 sits on the singular line


def test_symbolic_params_rejected():
    from lie_thomas.determining import ParameterError

    with pytest.raises(ParameterError):
        case22_solution(ThomasParams(), a1=F(2))


@pytest.mark.parametrize("key", list(SOLUTION_BUILDERS))
def test_symbolic_params_fail_before_the_constants(key):
    from lie_thomas.determining import ParameterError

    first = next(iter(SOLUTION_BUILDERS[key](P).constants))
    with pytest.raises(FamilyError, match="is not a number"):
        build_family(key, P, {first: "two"})
    with pytest.raises(ParameterError):
        build_family(key, ThomasParams(), {first: "two"})


def _quadrature_case1(p, a1, a2, c0):
    """Case 1 u and domain with g_p integrated by adaptive quadrature, an
    independent reference for the Frobenius-ratio form in case1_solution
    (same defaults: chi window [-4.5, -0.005], base point -1)."""
    alpha, beta, gamma = p.floats()
    a1, a2, c0 = float(a1), float(a2), float(c0)
    e = (gamma - beta * a1 - alpha * a2) / gamma
    series = fuchs_series(e, alpha * beta / gamma**2, 4.5)
    k_log = (beta * a1 + alpha * a2) / gamma**2
    margin = 0.01 * (4.5 - 0.005)

    @functools.lru_cache(maxsize=None)
    def big_g(chi):
        g, _ = quad(lambda s: gamma * abs(s) ** (-e) * series(s) ** (-2), -1.0, chi,
                    epsabs=1e-13, epsrel=1e-13, limit=200)
        return g + c0

    def u(x, y):
        lin_x, lin_y = a1 - gamma * x, a2 + gamma * y
        chi = lin_x * lin_y
        out = (math.log(abs(series(chi))) + math.log(abs(big_g(chi)))) / gamma
        out -= (beta / gamma) * x + (alpha / gamma**2) * lin_y
        return out - k_log * math.log(lin_x) if k_log else out

    def domain(x, y):
        lin_x = a1 - gamma * x
        chi = lin_x * (a2 + gamma * y)
        if not -4.5 + margin < chi < -0.005 - margin:
            return False
        if k_log and lin_x < 1e-9:
            return False
        return abs(big_g(chi)) > 1e-4

    return u, domain


CASE1_CONSTANTS = [
    (F(0), F(0), F(1)),  # e = 1, log branch
    (F(1), F(-2), F(1)),  # e = 2, log branch with the log(a1 - gamma x) term
    (F(1, 2), F(0), F(1)),  # e = 1/2
    (F(0), F(0), F(-3, 10)),  # g_p + c0 changes sign inside the window
    (F(-1), F(0), F(1)),  # e = 2
]


@pytest.mark.parametrize("a1,a2,c0", CASE1_CONSTANTS)
def test_case1_matches_quadrature_reference(a1, a2, c0):
    fam = case1_solution(P, a1=a1, a2=a2, c0=c0)
    u_ref, domain_ref = _quadrature_case1(P, a1, a2, c0)
    checked = 0
    for x, y in GridSpec(-2.0, -0.1, 50, -2.0, -0.1, 50).points():
        assert fam.domain(x, y) == domain_ref(x, y), (x, y)
        if fam.domain(x, y):
            assert abs(fam(x, y) - u_ref(x, y)) < 1e-12, (x, y)
            checked += 1
    assert checked > 0
    for x, y in GridSpec(-2.0, 2.0, 50, -2.0, 2.0, 50).points():
        assert fam.domain(x, y) == domain_ref(x, y), (x, y)


def test_case1_descriptor_digest_pinned():
    fam = case1_solution(P)
    assert fam.descriptor_json() == (
        '{"constants":{"a1":0,"a2":0,"c0":1.0,"chi_hi":-0.005,"chi_lo":-4.5,'
        '"const":0.0},"family":"case1","kind":"solution-family","note":"series '
        'branch with quadrature-defined second factor","params":{"alpha":"1",'
        '"beta":"1","gamma":"1"},"schema":"lie-thomas/1","tag":"Case1"}'
    )
    assert fam.digest() == (
        "b8cd9d0d46e8ca599a57e09a309169674a4e114d147139e654341df80cf617e7"
    )


def test_builder_default_coordinates_are_the_tables():
    # a builder's default a1, a2 are the coordinates of its tag's default vector
    checked = set()
    for key in SOLUTION_BUILDERS:
        fam = build_family(key, P, {})
        for i, name in enumerate(("a1", "a2")):
            if name in fam.constants:
                assert fam.constants[name] == CASES[fam.tag].coords[i], (key, name)
                checked.add(key)
    assert checked == {"case1", "case21a", "case21_affine", "case21b", "case22", "case31b"}


def test_tag_builders_name_real_tags_and_builders():
    # every tag has a record, and every one without an obstruction but Zero a builder
    assert set(CASES) == set(TAGS)
    unobstructed = {tag for tag in TAGS if not CASES[tag].obstruction}
    assert unobstructed == set(TAGS) - {"Case2_3", "Case2_4"}
    assert set(TAG_BUILDERS) == unobstructed - {"Zero"}
    assert set(TAG_BUILDERS.values()) <= set(SOLUTION_BUILDERS)
    for tag, key in TAG_BUILDERS.items():
        constants = {"tag": tag} if key == "constant" else {}
        assert SOLUTION_BUILDERS[key](P, **constants).tag == tag


# --- the hand-written closed forms the ModeMix builders replaced -------------
#
# Each reference below is a builder's validation, evaluator and domain
# predicate as they were before every closed form became one ModeMix, kept
# as an independent statement of the printed formulas.


def _ref_root(p, a1f, a2f, root):
    alpha, beta, gamma = p.floats()
    b_lin = alpha * a2f - beta * a1f + gamma
    disc = b_lin**2 + 4 * gamma * beta * a1f
    if disc < 0:
        raise FamilyError("negative discriminant %g; no real constant root" % disc)
    sqrt_d = math.sqrt(disc)
    sign = {"+": 1.0, "-": -1.0}.get(root)
    if sign is None:
        raise FamilyError("root must be '+' or '-'")
    return (b_lin + sign * sqrt_d) / (2 * a1f * a2f * gamma), sign * sqrt_d / (a1f * a2f)


def _everywhere(x, y):
    return True


def _ref_case21a(p, a1=1, a2=2, A=5000.0, root="+", const=0.0):
    alpha, beta, gamma = p.floats()
    a1f, a2f, Af, constf = _numeric(a1), _numeric(a2), _numeric(A), _numeric(const)
    if a2f == 0:
        raise FamilyError("a2 must be nonzero for the 2.1 invariants")
    if a1f == 0:
        b0 = alpha * a2f + gamma
        if b0 == 0:
            raise FamilyError("alpha*a2 + gamma = 0 leaves no constant root")
        theta0 = -beta / (a2f * b0)
        return (lambda x, y: theta0 * (a2f * x) + y / a2f + constf), _everywhere
    theta0, c_rate = _ref_root(p, a1f, a2f, root)
    if c_rate == 0.0:
        def u(x, y):
            chi = a2f * x - a1f * y
            return theta0 * chi + log_(gamma * chi + Af) / gamma + y / a2f + constf

        return u, lambda x, y: gamma * (a2f * x - a1f * y) + Af > 1e-9

    def u(x, y):
        chi = a2f * x - a1f * y
        inner = Af - (gamma / c_rate) * exp_(-c_rate * chi)
        return log_(inner) / gamma + theta0 * chi + y / a2f + constf

    def domain(x, y):
        chi = a2f * x - a1f * y
        return Af - (gamma / c_rate) * math.exp(-c_rate * chi) > 1e-9

    return u, domain


def _ref_case21_affine(p, a1=1, a2=2, root="+", const=0.0):
    a1f, a2f, constf = _numeric(a1), _numeric(a2), _numeric(const)
    if a2f == 0:
        raise FamilyError("a2 must be nonzero")
    if a1f == 0:
        return _ref_case21a(p, a1, a2, A=0.0, root=root, const=const)
    theta0, _ = _ref_root(p, a1f, a2f, root)
    return (lambda x, y: theta0 * (a2f * x - a1f * y) + y / a2f + constf), _everywhere


def _ref_case21b(p, a1=-1, a2=-1, A0=0.0, const=0.0):
    alpha, beta, gamma = p.floats()
    a1f, a2f, A0f, constf = _numeric(a1), _numeric(a2), _numeric(A0), _numeric(const)
    if a1f == 0 or a2f == 0:
        raise FamilyError("the oscillatory branch needs a1*a2 != 0")
    A1 = (alpha * a2f - beta * a1f + gamma) / (a1f * a2f)
    A2 = -gamma
    A3 = beta / (a1f * a2f**2)
    Xi = (4 * A2 * A3 - A1 * A1) / (4 * A2 * A2)
    if Xi <= 0:
        raise FamilyError(
            "Xi = %g is not positive; these constants belong to the real-root branch" % Xi)
    rate, drift = A2 * math.sqrt(Xi), A1 / (2 * A2)

    def u(x, y):  # through tan: log|cos| = -(1/2) log(1 + tan^2)
        chi = a2f * x - a1f * y
        phase = rate * chi + A0f
        t = math.tan(phase)
        return log_(1.0 + t * t) / (2 * A2) - drift * chi + y / a2f + constf

    return u, lambda x, y: abs(math.cos(rate * (a2f * x - a1f * y) + A0f)) > 0.05


def _ref_case22(p, a1=1, const=0.0):
    alpha, beta, gamma = p.floats()
    a1f, constf = _numeric(a1), _numeric(const)
    if a1f == 0:
        raise FamilyError("a1 = 0 has no 2.2 reduction")
    denom = beta * a1f + gamma
    if denom == 0:
        raise FamilyError("beta*a1 + gamma = 0 admits no solution (obstructed case)")
    return (lambda x, y: x / a1f - alpha / denom * y + constf), _everywhere


def _ref_log_wave(gamma, a2f, k0f, constf):
    return (lambda x, y: log_(gamma * (x - y / a2f) + k0f) / gamma + constf,
            lambda x, y: gamma * (x - y / a2f) + k0f > 1e-9)


def _ref_case31a(p, k0=5.0, const=0.0):
    alpha, beta, gamma = p.floats()
    if alpha == 0:
        raise FamilyError("this branch needs alpha != 0 (a2 = beta/alpha)")
    a2f = beta / alpha
    if a2f == 0:
        raise FamilyError("beta = 0 collapses the invariant direction")
    return _ref_log_wave(gamma, a2f, _numeric(k0), _numeric(const))


def _ref_case31b(p, a2=2, k=1.0, const=0.0):
    alpha, beta, gamma = p.floats()
    a2f, kf, constf = _numeric(a2), _numeric(k), _numeric(const)
    if a2f == 0:
        raise FamilyError("a2 must be nonzero")
    s = beta - alpha * a2f
    if s == 0 and alpha:
        raise FamilyError("a2 = beta/alpha makes (1, a2, 0, 0) a Case3_1a vector; "
                          "its family is case31a")
    if s == 0:
        return _ref_log_wave(gamma, a2f, kf, constf)

    def denom(x, y):
        return kf * s * exp_(s * (x - y / a2f)) - gamma

    def domain(x, y):
        d = denom(x, y)
        return abs(d) >= 1e-9 and 1.0 + gamma / d > 1e-12

    return (lambda x, y: -log_(1.0 + gamma / denom(x, y)) / gamma + constf), domain


def _ref_constant(p, c=0.0, tag="Case3_2"):
    p.floats()
    cf = _numeric(c)
    return (lambda x, y: cf + 0.0 * x * y), _everywhere


def _rat(rng, span=4, zero_share=0.15):
    if rng.random() < zero_share:
        return F(0)
    return F(rng.choice([-1, 1]) * rng.randint(1, 3 * span), rng.randint(1, 3))


def _real(rng, lo, hi):
    return rng.choice([F(0), F(rng.randint(lo, hi)), rng.uniform(lo, hi)])


def _oscillatory(rng, p):
    """(a1, a2), three times in four redrawn until Xi > 0, that is
    -4 gamma beta a1 > (alpha a2 - beta a1 + gamma)^2 with a1 a2 != 0, since
    few random pairs reach the oscillatory branch; the rest exercise the
    builder's errors."""
    alpha, beta, gamma = p.alpha.value, p.beta.value, p.gamma.value
    a1, a2 = _rat(rng), _rat(rng)
    tries = 100 if rng.random() < 0.75 else 0
    while tries and not (a1 * a2 != 0
                         and -4 * gamma * beta * a1 > (alpha * a2 - beta * a1 + gamma) ** 2):
        a1, a2 = _rat(rng), _rat(rng)
        tries -= 1
    return {"a1": a1, "a2": a2}


# builder key -> (reference, draw of its constants at parameters p)
REFERENCES = {
    "case21a": (_ref_case21a, lambda rng, p: {
        "a1": _rat(rng), "a2": _rat(rng), "A": _real(rng, -20, 5000),
        "root": rng.choice("+-"), "const": _real(rng, -3, 3)}),
    "case21_affine": (_ref_case21_affine, lambda rng, p: {
        "a1": _rat(rng), "a2": _rat(rng), "root": rng.choice("+-"),
        "const": _real(rng, -3, 3)}),
    "case21b": (_ref_case21b, lambda rng, p: {
        **_oscillatory(rng, p), "A0": _real(rng, -3, 3), "const": _real(rng, -3, 3)}),
    "case22": (_ref_case22, lambda rng, p: {"a1": _rat(rng), "const": _real(rng, -3, 3)}),
    "case31a": (_ref_case31a, lambda rng, p: {
        "k0": _real(rng, -5, 20), "const": _real(rng, -3, 3)}),
    "case31b": (_ref_case31b, lambda rng, p: {
        "a2": _rat(rng), "k": _real(rng, -5, 5), "const": _real(rng, -3, 3)}),
    "constant": (_ref_constant, lambda rng, p: {"c": _real(rng, -3, 3)}),
}


def _outcome(build, p, constants):
    try:
        return build(p, **constants), None
    except Exception as exc:  # the builders must fail alike
        return None, (type(exc), str(exc))


@pytest.mark.parametrize("key", sorted(REFERENCES))
def test_mode_mix_matches_the_hand_written_closed_form(key):
    """400 seeded constant sets on a 9x9 grid: the same builder errors, the
    same domain decisions, and values within 1e-9 relative.

    case31b departs where its old form was ill-conditioned.  That form,
    u = -(1/gamma) log(1 + gamma/denom), cancels where u is large, so its
    values get a tolerance for that round-off, 4 eps/(|gamma| e^{-gamma (u - const)}).
    Its two checks |denom| >= 1e-9 and 1 + gamma/denom > 1e-12 became
    w > 1e-9 on w = 1 - gamma/(k s e^{s chi}), the reciprocal of the old log
    argument, so the new domain also keeps the points where w exceeds
    ~1e12, which the old guard against that cancellation dropped; no other
    decision differs."""
    reference, draw = REFERENCES[key]
    rng = random.Random(20261018)
    grid = list(GridSpec(-2.0, 2.0, 9, -2.0, 2.0, 9).points())
    built = compared = 0
    for _ in range(400):
        p = ThomasParams(_rat(rng), _rat(rng), _rat(rng, zero_share=0.0))
        gamma = float(p.gamma.value)
        constants = draw(rng, p)
        fam, fam_error = _outcome(SOLUTION_BUILDERS[key], p, constants)
        ref, ref_error = _outcome(reference, p, constants)
        assert fam_error == ref_error, (p, constants)
        if fam is None:
            continue
        built += 1
        assert isinstance(fam.evaluator, ModeMix) and fam.domain == fam.evaluator.domain
        u_ref, domain_ref = ref
        for x, y in grid:
            inside = fam.domain(x, y)
            if inside != domain_ref(x, y):
                assert key == "case31b" and inside, (p, constants, x, y)
                assert fam.evaluator.w(x, y) > 1e11, (p, constants, x, y)
                continue
            if not inside:
                continue
            want, got = u_ref(x, y), fam(x, y)
            tol = 1e-9 * max(1.0, abs(want))
            if key == "case31b":
                log_part = want - _numeric(constants["const"])
                tol += 4 * 2.0**-52 / (abs(gamma) * math.exp(-gamma * log_part))
            assert abs(got - want) <= tol, (p, constants, x, y, got, want)
            compared += 1
    assert built >= 100 and compared >= 4000, (built, compared)


# --- one hyper-dual pass per grid point ----------------------------------------
#
# References for the residual-grid reports: the ModeMix linear forms composed
# from separate products and sums, and case 1 with g_p summing both series
# again at every call, as both were before affine() and the shared sums.


def _composed_mix(mix):
    def w(x, y):
        return mix.a + mix.c * mix.f(mix.p * x + mix.q * y + mix.r)

    def u(x, y):
        out = mix.lam * x + mix.mu * y + mix.k
        return out if mix.f is None else out + log_(w(x, y)) / mix.gamma

    return u, lambda x, y: mix.f is None or w(x, y) > mix.floor


def value_of(t):
    """The real part of a float or of a row of one."""
    return t.value[0] if isinstance(t, HyperDualRow) else float(t)


def lift_with_derivatives(t, f, fp, fpp):
    """f(t) given f, f', f'' at the real part of t, a float or a row of one
    (the package's helper before hyperdual.lift)."""
    return t._lift([float(f)], [fp], [fpp]) if isinstance(t, HyperDualRow) else f


def _summing_case1(p, a1=0, a2=0, c0=1.0, const=0.0, chi_lo=-4.5, chi_hi=-0.005):
    alpha, beta, gamma = p.floats()
    a1f, a2f, c0f, constf = (_numeric(v) for v in (a1, a2, c0, const))
    e = (gamma - beta * a1f - alpha * a2f) / gamma
    m = alpha * beta / gamma**2
    chi_far = max(abs(chi_lo), abs(chi_hi))
    series, second = fuchs_series(e, m, chi_far), second_solution(e, m, chi_far)
    base = -1.0 if chi_hi < 0 else 1.0
    if not (chi_lo <= base <= chi_hi):
        base = 0.5 * (chi_lo + chi_hi)
    y_base, yp_base, _ = series.eval(base)
    y2_base, y2p_base = second.eval(base)
    scale = gamma / ((y_base * y2p_base - yp_base * y2_base) * abs(base) ** e)
    q_base = y2_base / y_base

    def g_p(v):
        return scale * (second.eval(v)[0] / series(v) - q_base)

    k_log = (beta * a1f + alpha * a2f) / gamma**2

    def pieces(v):
        y0, y1, y2 = series.eval(v)
        zp = y1 / (gamma * y0)
        G = g_p(v) + c0f
        f = abs(v) ** e * y0 * y0 * G
        zp_prime = y2 / (gamma * y0) - gamma * zp * zp
        f_prime = gamma + (2.0 * gamma * zp + e / v) * f
        varsigma = (math.log(abs(y0)) + math.log(abs(G))) / gamma
        return varsigma, zp + 1.0 / f, zp_prime - f_prime / (f * f)

    def u(x, y):
        lin_x = a1f - gamma * x
        lin_y = a2f + gamma * y
        chi = lin_x * lin_y
        out = lift_with_derivatives(chi, *pieces(value_of(chi)))
        out = out - (beta / gamma) * x - (alpha / gamma**2) * lin_y
        if k_log != 0.0:
            out = out - k_log * log_(lin_x)
        return out + constf

    margin = 0.01 * (chi_hi - chi_lo)

    def domain(x, y):
        lin_x = a1f - gamma * x
        chi = lin_x * (a2f + gamma * y)
        if not (chi_lo + margin < chi < chi_hi - margin):
            return False
        if k_log != 0.0 and lin_x < 1e-9:
            return False
        return abs(g_p(chi) + c0f) > 1e-4

    return u, domain


def _report(fam, grid, check=residual_grid):
    try:
        return check(fam, grid=grid)
    except VerificationError as exc:  # an empty domain must be empty for both
        return str(exc)


GRIDS_20 = (GridSpec(-2.0, 2.0, 20, -2.0, 2.0, 20), GridSpec(-2.0, -0.1, 20, -2.0, -0.1, 20))


@pytest.mark.parametrize("key", sorted(REFERENCES))
def test_mode_mix_grid_reports_equal_the_composed_linear_forms(key):
    _, draw = REFERENCES[key]
    rng = random.Random(20261020)
    compared = 0
    for _ in range(60):
        p = ThomasParams(_rat(rng), _rat(rng), _rat(rng, zero_share=0.0))
        fam, _ = _outcome(SOLUTION_BUILDERS[key], p, draw(rng, p))
        if fam is None:
            continue
        u, domain = _composed_mix(fam.evaluator)
        ref = SolutionFamily(fam.family, fam.tag, fam.params, fam.constants, u, domain,
                             fam.note)
        for grid in GRIDS_20:
            want = _report(ref, grid, _pointwise_residual_grid)
            assert _report(fam, grid) == want, (key, fam.constants)
            compared += isinstance(want, GridReport)
    assert compared >= 20, compared


@pytest.mark.parametrize("key", sorted(REFERENCES))
def test_mode_mix_domain_is_w_above_its_floor(key):
    """ModeMix.domain, computed on the floats directly with f read as
    math.exp, abs(math.cos) or the identity, decides every point of seeded
    grids as the test-side w(x, y) > floor, the mix's own w on floats, and
    the real part of its w on a row of the grid's points do."""
    _, draw = REFERENCES[key]
    rng = random.Random(20261017)
    decided = Counter()
    for _ in range(60):
        p = ThomasParams(_rat(rng), _rat(rng), _rat(rng, zero_share=0.0))
        fam, _ = _outcome(SOLUTION_BUILDERS[key], p, draw(rng, p))
        if fam is None:
            continue
        mix = fam.evaluator
        _, composed_domain = _composed_mix(mix)
        x0, y0 = rng.uniform(-4.0, 1.0), rng.uniform(-4.0, 1.0)
        grid = GridSpec(x0, x0 + rng.uniform(0.5, 6.0), 15, y0, y0 + rng.uniform(0.5, 6.0), 15)
        for x, y in grid.points():
            inside = mix.domain(x, y)
            assert type(inside) is bool and inside == composed_domain(x, y), (p, x, y)
            assert inside == (mix.f is None or mix.w(x, y) > mix.floor), (p, x, y)
            decided[inside] += 1
        if mix.f is not None:
            xs, ys = zip(*grid.points())
            row = mix.w(*HyperDualRow.seed(xs, ys))
            assert [mix.domain(x, y) for x, y in grid.points()] == [
                w > mix.floor for w in row.value], p
    assert decided[True] > 1000, decided
    if key not in ("case21_affine", "case22", "constant"):  # these have no f
        assert decided[False] > 0, decided


def test_mode_mix_domain_excludes_w_on_its_floor():
    """w > floor is strict: with w = x and the floor on the grid tick x = 1,
    that tick's points are outside the domain, and residual_grid counts them
    as skipped.  (This mix solves the equation only where alpha = 0; its
    residual is not checked here.)"""
    mix = ModeMix(1.0, 0.0, 0.0, 0.0, a=0.0, c=1.0, f=families._identity, p=1.0, floor=1.0)
    assert [mix.domain(x, 0.5) for x in (0.5, 1.0, 2.0)] == [False, False, True]
    report = residual_grid(mix, P, GridSpec(-2.0, 2.0, 5, -2.0, 2.0, 5))
    assert (report.evaluated, report.skipped) == (5, 20)


CASE1_GRID_CONSTANTS = [
    {"a1": a1, "a2": a2, "c0": c0} for a1, a2, c0 in CASE1_CONSTANTS
] + [
    {"const": 0.75, "chi_lo": -3.0, "chi_hi": -0.5},
    {"a1": F(1, 2), "chi_lo": 0.01, "chi_hi": 0.5},
]


@pytest.mark.parametrize("constants", CASE1_GRID_CONSTANTS)
def test_case1_grid_reports_equal_the_summing_reference(constants):
    for p in (P, ThomasParams(F(1, 2), 1, 2)):
        fam = case1_solution(p, **constants)
        u, domain = _summing_case1(p, **constants)
        ref = SolutionFamily(fam.family, fam.tag, fam.params, fam.constants, u, domain,
                             fam.note)
        evaluated = 0
        for grid in GRIDS_20 + (GridSpec(-3.5, -0.5, 20, 0.2, 1.8, 20),):
            want = _report(ref, grid, _pointwise_residual_grid)
            assert _report(fam, grid) == want, (p, constants, grid)
            evaluated += want.evaluated if isinstance(want, GridReport) else 0
        assert evaluated > 0


def _with_hole(fam):
    """fam with a disc also cut out of its domain, so that some grid rows
    lose a run of points and every family has gaps."""
    def domain(x, y):
        return (x - 0.5) ** 2 + (y + 0.5) ** 2 > 0.8 and fam.domain(x, y)

    return SolutionFamily(fam.family, fam.tag, fam.params, fam.constants, fam.evaluator,
                          domain, fam.note)


GRID_DRAWS = {
    **{key: draw for key, (_, draw) in REFERENCES.items()},
    "case1": lambda rng, p: {"a1": _rat(rng, 1), "a2": _rat(rng, 1),
                             "c0": _real(rng, -2, 2), "const": _real(rng, -3, 3)},
}


@pytest.mark.parametrize("key", sorted(SOLUTION_BUILDERS))
def test_row_batched_grid_reports_equal_the_pointwise_kernel(key):
    """Seeded constants for every builder, on grids with domain gaps: the
    row-batched report equals the one-point-at-a-time report bit for bit."""
    rng = random.Random(20261021)
    gapped = 0
    for _ in range(10):
        p = ThomasParams(_rat(rng), _rat(rng), _rat(rng, zero_share=0.0))
        fam, _ = _outcome(SOLUTION_BUILDERS[key], p, GRID_DRAWS[key](rng, p))
        if fam is None:
            continue
        fam = _with_hole(fam)
        for grid in GRIDS_20:
            want = _report(fam, grid, _pointwise_residual_grid)
            assert repr(_report(fam, grid)) == repr(want), (key, p, fam.constants, grid)
            gapped += isinstance(want, GridReport) and want.skipped > 0
    assert gapped >= 4, gapped


def test_case1_sums_each_distinct_chi_once_per_block(monkeypatch):
    """fuchs.series_sums is the one entry that sums a series, so every sum is
    counted, by the table it walks.  The domain keeps the sums at each chi
    until the block's evaluation reads and clears them, so each block sums
    the joint table of both series once per distinct chi among its
    evaluated points, which is fewer sums than points here, as chi = -x y
    repeats on this square grid.  The second solution's own table, whose
    sums carry y_2', is summed at the base point only, when the family is
    built."""
    records, calls = {}, Counter()

    def keeping(name):
        build = getattr(families, name)

        def kept(*args):
            records[name] = build(*args)
            return records[name]

        monkeypatch.setattr(families, name, kept)

    def counting(table, chi):
        owner = {id(r._table): name for name, r in records.items()}
        calls[owner.get(id(table), "joint")] += 1
        return kernel(table, chi)

    kernel = fuchs.series_sums
    keeping("fuchs_series")
    keeping("second_solution")
    monkeypatch.setattr(fuchs, "series_sums", counting)
    monkeypatch.setattr(families, "series_sums", counting)
    fam = case1_solution(P, a1=F(0), a2=F(0), c0=F(1))
    assert calls["second_solution"] == 1 and calls["joint"] == 0, calls
    calls.clear()
    grid = GridSpec(-2.0, -0.1, 30, -2.0, -0.1, 30)
    report = residual_grid(fam, grid=grid)
    summed = dict(calls)
    distinct, chis, size = [], set(), 0  # the blocks as residual_grid cuts them
    for x, row in grid.rows():
        if size and size + len(row) > BLOCK:
            distinct.append(len(chis))
            chis, size = set(), 0
        kept = [y for y in row if fam.domain(x, y)]
        chis.update(-x * y for y in kept)  # the domain's chi at a1 = a2 = 0, gamma = 1
        size += len(kept)
    distinct.append(len(chis))
    assert report.evaluated + report.skipped == 900 and len(distinct) == 2, distinct
    assert summed == {"joint": sum(distinct)}, (summed, distinct)
    assert sum(distinct) < report.evaluated


def test_case1_memo_holds_the_sums_of_a_whole_block():
    """A block of residual_grid fits in the sums memo: the domain keeps the
    sums of BLOCK distinct chi values, none cleared before an evaluator
    could read them, so BLOCK is within the memo's bound."""
    fam = case1_solution(P, a1=F(0), a2=F(0), c0=F(1))
    sums = inspect.getclosurevars(fam.domain).nonlocals["sums"]
    memo = inspect.getclosurevars(sums).nonlocals["memo"]
    chis = set()
    for x, y in GridSpec(-2.0, -0.1, 60, -2.0, -0.1, 60).points():
        if fam.domain(x, y):
            chis.add(-x * y)
            if len(chis) == BLOCK:
                break
    assert len(chis) == BLOCK and chis <= memo.keys(), (len(chis), len(memo))


def test_case1_domain_alone_keeps_a_bounded_memo():
    """Only the evaluator clears the sums memo, so a caller that asks the
    domain alone, over thousands of points, must not keep every sum."""
    fam = case1_solution(P, a1=F(0), a2=F(0), c0=F(1))
    sums = inspect.getclosurevars(fam.domain).nonlocals["sums"]
    memo = inspect.getclosurevars(sums).nonlocals["memo"]
    accepted = sum(fam.domain(x, y) for x, y in GridSpec(-2.0, -0.1, 60, -2.0, -0.1, 60).points())
    assert accepted > 2000
    assert 0 < len(memo) <= 1024, len(memo)


@pytest.mark.parametrize("key", sorted(SOLUTION_BUILDERS))
def test_block_grid_reports_equal_the_pointwise_kernel(key, rng):
    """Each builder's default constants at (1, 1, 1) and (1, 2, 3), and two
    draws from the test seed with a disc cut out of their domain, on grids
    that cut rows at block edges, hold rows longer than a block, or make
    many blocks: float.hex of the max and the worst point, and both counts,
    equal the one point at a time report."""
    built = [fam for fam, _ in (_outcome(SOLUTION_BUILDERS[key], p, {})
                                for p in (P, ThomasParams(1, 2, 3))) if fam is not None]
    drawn = 0
    for _ in range(40):
        if drawn == 2:
            break
        p = ThomasParams(_rat(rng), _rat(rng), _rat(rng, zero_share=0.0))
        fam, _ = _outcome(SOLUTION_BUILDERS[key], p, GRID_DRAWS[key](rng, p))
        if fam is not None:
            built.append(_with_hole(fam))
            drawn += 1
    assert len(built) >= 3, key
    for fam in built:
        for grid in BLOCK_GRIDS:
            want = _grid_bits(fam, None, grid, _pointwise_residual_grid)
            assert _grid_bits(fam, None, grid) == want, (key, fam.params, fam.constants, grid)


@pytest.mark.parametrize("params", [(1, 2, 3), (F(1, 2), -1, 2), (1, 1, 1)],
                         ids=["1,2,3", "1/2,-1,2", "1,1,1"])
def test_float_and_row_values_agree_bit_for_bit(params):
    """Every builder with its default constants, at each in-domain point of
    the default grid: the value on floats, which ``solve --format csv``
    prints, has the bits of the value on a row of that grid row's points,
    the value whose derivatives ``verify`` checks."""
    p = ThomasParams(*params)
    built = 0
    for key, build in SOLUTION_BUILDERS.items():
        fam, _ = _outcome(build, p, {})
        if fam is None:
            continue
        built += 1
        for x, ys in GridSpec().rows():
            kept = [y for y in ys if fam.domain(x, y)]
            if kept:
                row = fam(*HyperDualRow.seed([x] * len(kept), kept))
                values = row.value if isinstance(row, HyperDualRow) else [row] * len(kept)
                assert ([float.hex(v) for v in values]
                        == [float.hex(fam(x, y)) for y in kept]), (key, x)
    assert built >= 6, built
