"""Closed-form solution families: residuals, descriptors, error paths."""

import functools
import json
import math
from fractions import Fraction

import pytest
from scipy.integrate import quad

from lie_thomas.classifier import TAGS
from lie_thomas.determining import ThomasParams
from lie_thomas.families import (
    SOLUTION_BUILDERS,
    TAG_BUILDERS,
    FamilyError,
    Obstruction,
    SolutionFamily,
    case1_solution,
    case21_affine,
    case21a_solution,
    case21b_solution,
    case22_solution,
    case31a_solution,
    case31b_solution,
    constant_solution,
    from_descriptor,
    trivial_solutions,
)
from lie_thomas.fuchs import fuchs_series
from lie_thomas.verification import GridSpec, residual_grid

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


def test_case1_exponent_pole_rejected():
    # e = (gamma - beta a1 - alpha a2)/gamma must avoid {0, -1, -2, ...}
    with pytest.raises((FamilyError, Exception)):
        fam = case1_solution(P, a1=F(3), a2=F(-1), c0=F(1))  # e = -1
        fam(-1.0, -1.0)


def test_case21a_residual():
    fam = case21a_solution(P, a1=F(1), a2=F(2), A=F(5000), root="+")
    assert _max_residual(fam, GridSpec(-2, 2, 20, -2, 2, 20)) < 1e-9


def test_case21a_negative_discriminant_rejected():
    # B^2 + 4 gamma beta a1 < 0 at a1=-1, a2=-1 (B = -1+1+1 = 1, D = 1-4 = -3)
    with pytest.raises(FamilyError):
        case21a_solution(P, a1=F(-1), a2=F(-1), A=F(1), root="+")


def test_case21a_degenerate_a1():
    fam = case21a_solution(P, a1=F(0), a2=F(3), A=F(100), root="+")
    assert _max_residual(fam, GridSpec(-2, 2, 15, -2, 2, 15)) < 1e-9


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


def test_case31b_resonant_slope_falls_back_to_log():
    # w = beta - alpha a2 = 0 at a2 = 1 collapses to the a2 = beta/alpha form
    fam = case31b_solution(P, a2=F(1), k=F(10))
    assert _max_residual(fam, GridSpec(0.5, 2, 12, -2, -0.5, 12)) < 1e-10


def test_constant_solution():
    fam = constant_solution(P, c=F(3, 2), tag="Case3_2")
    assert fam(0.3, -0.7) == 1.5
    assert _max_residual(fam, GridSpec(-1, 1, 5, -1, 1, 5)) == 0.0


def test_trivial_solutions():
    out = trivial_solutions(P)
    fams = [o for o in out if isinstance(o, SolutionFamily)]
    obs = [o for o in out if isinstance(o, Obstruction)]
    assert {f.tag for f in fams} == {"Case3_2", "Case2_4"}
    assert {o.tag for o in obs} == {"Case2_3", "Case2_4"}
    for o in obs:
        assert o.note


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
    assert set(SOLUTION_BUILDERS) == {
        "case1", "case21a", "case21_affine", "case21b", "case22",
        "case31a", "case31b", "constant",
    }


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


def test_tag_builders_name_real_tags_and_builders():
    assert set(TAG_BUILDERS) == set(TAGS) - {"Case2_3", "Zero"}
    assert set(TAG_BUILDERS.values()) <= set(SOLUTION_BUILDERS)
    for tag, key in TAG_BUILDERS.items():
        constants = {"tag": tag} if key == "constant" else {}
        assert SOLUTION_BUILDERS[key](P, **constants).tag == tag
