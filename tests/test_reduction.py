"""Invariant coordinates, reduced equations, and substitution checks."""

import re
from fractions import Fraction

import pytest

from lie_thomas import reduction
from lie_thomas.classifier import CanonicalCase
from lie_thomas.determining import ThomasParams, general_symmetry
from lie_thomas.expr import X, add
from lie_thomas.normal import is_zero
from lie_thomas.printer import to_text
from lie_thomas.reduction import (
    InvariantPair,
    ReductionError,
    invariants,
    reduced_ode,
    verify_reduction,
)
from oracles import annihilation_residuals

F = Fraction
SYM = ThomasParams()
NUM = ThomasParams(1, 1, 1)

# (tag, coords, params): param-dependent strata pinned at alpha=beta=gamma=1
ALL_CASES = [
    ("Case1", (4, 1, 0, 1), SYM),
    ("Case1", (0, 0, 0, 1), SYM),
    ("Case2_1a", (1, 2, 1, 0), SYM),
    ("Case2_1a", (0, 5, 1, 0), SYM),
    ("Case2_1b", (-1, -1, 1, 0), NUM),
    ("Case2_2", (1, 0, 1, 0), SYM),
    ("Case2_3", (-1, 0, 1, 0), NUM),
    ("Case2_4", (0, 0, 1, 0), SYM),
    ("Case3_1a", (1, 1, 0, 0), NUM),
    ("Case3_1b", (1, 2, 0, 0), SYM),
    ("Case3_2", (0, 1, 0, 0), SYM),
    ("Case3_2", (1, 0, 0, 0), SYM),
]


def _case(tag, coords):
    return CanonicalCase(tag, tuple(F(c) for c in coords), ())


@pytest.mark.parametrize("tag,coords,p", ALL_CASES,
                         ids=[f"{t}-{c}" for t, c, _ in ALL_CASES])
def test_invariants_annihilated(tag, coords, p):
    res = annihilation_residuals(_case(tag, coords), p)
    assert len(res) == 2
    assert all(is_zero(r) for r in res)


@pytest.mark.parametrize("tag,coords,p", ALL_CASES[:1] + ALL_CASES[2:],
                         ids=[f"{t}-{c}" for t, c, _ in ALL_CASES[:1] + ALL_CASES[2:]])
def test_verify_reduction(tag, coords, p):
    case = _case(tag, coords)
    if tag == "Case2_4":
        with pytest.raises(ReductionError):
            verify_reduction(case, p)
    else:
        assert verify_reduction(case, p)


# Every entry whose varsigma involves u, each shifted by chi.  Case2_3 is
# shifted by x instead: its reduced equation alpha*beta = 0 holds no
# derivative of varsigma, so varsigma + chi, itself an invariant, reduces to
# the same equation.
SHIFTED = [(t, c, p) for t, c, p in ALL_CASES if t != "Case2_4"]


@pytest.mark.parametrize("tag,coords,p", SHIFTED, ids=[f"{t}-{c}" for t, c, _ in SHIFTED])
def test_the_printed_varsigma_is_the_proved_one(monkeypatch, cold, tag, coords, p):
    """invariants returns the varsigma its stratum's proof covers: formulas
    whose varsigma is shifted fail that proof from a cold cache, for the
    certificate and the pair alike, and once the stratum is proved a call
    reads the proved pair and never runs them."""
    original = reduction._reduction

    def shifted(c, p):
        pair, ode, m = original(c, p)
        shift = X if c.tag == "Case2_3" else pair.chi
        return InvariantPair(pair.chi, add(pair.varsigma, shift), pair.domain), ode, m

    case = _case(tag, coords)
    monkeypatch.setattr(reduction, "_reduction", shifted)
    for read in (verify_reduction, invariants):
        with pytest.raises(ReductionError, match="^reduction mismatch for %s " % tag):
            read(case, p)
    monkeypatch.undo()
    proved = invariants(case, p)
    monkeypatch.setattr(reduction, "_reduction", shifted)
    assert invariants(case, p) == proved and verify_reduction(case, p)


def test_case1_ode_shape():
    ode = reduced_ode(_case("Case1", (4, 1, 0, 1)), NUM)
    assert ode.order == 2
    assert ode.kind == "fuchs"
    assert ode.dependent == "varsigma"
    assert dict(ode.aux) == {"e": -4, "m": 1}
    # chi s'' + e s' + chi (s')^2 + m = 0 written in varsigma_chi
    text = to_text(ode.lhs)
    assert "varsigma_chichi" in text and "varsigma_chi^2" in text


def test_case1_aux_tracks_coords():
    # e = (gamma - beta*a1 - alpha*a2)/gamma, m = alpha*beta/gamma^2
    p = ThomasParams(2, 3, 1)
    ode = reduced_ode(_case("Case1", (1, -2, 0, 1)), p)
    aux = dict(ode.aux)
    assert aux["e"] == F(1 - 3 * 1 - 2 * (-2), 1)
    assert aux["m"] == F(6)


def test_case21_riccati():
    ode = reduced_ode(_case("Case2_1a", (1, 2, 1, 0)), NUM)
    assert ode.order == 1
    assert ode.kind == "riccati"
    assert ode.dependent == "theta"


def test_case21_degenerate_translation_is_algebraic():
    ode = reduced_ode(_case("Case2_1a", (0, 5, 1, 0)), NUM)
    assert ode.order == 0
    assert ode.kind == "algebraic"


def test_case22_linear():
    ode = reduced_ode(_case("Case2_2", (1, 0, 1, 0)), NUM)
    assert ode.kind == "linear-first-order"
    assert ode.dependent == "varsigma"


def test_case23_inconsistent():
    # invariants solve the field but contradict the equation: lhs reduces to 1
    ode = reduced_ode(_case("Case2_3", (-1, 0, 1, 0)), NUM)
    assert ode.kind == "inconsistent"
    assert ode.order == 0
    assert to_text(ode.lhs) == "1"


def test_case23_is_an_identity_where_alpha_beta_vanishes():
    # the residual of u = (F(y) - beta x)/gamma is -alpha*beta/gamma, so at
    # alpha*beta = 0 every F solves the equation
    case = _case("Case2_3", (-1, 0, 1, 0))
    for params in (ThomasParams(0, 1, 1), ThomasParams(1, 0, 2), ThomasParams(alpha=0, gamma=1)):
        ode = reduced_ode(case, params)
        assert (ode.kind, ode.order, to_text(ode.lhs)) == ("identity", 0, "0")
        assert "every varsigma = F(chi) solves the equation" in ode.note
        assert verify_reduction(case, params)
    assert reduced_ode(case, SYM).kind == "inconsistent"


@pytest.mark.parametrize("tag, coords, params, kind, lhs", [
    # Case3_2's coefficient (alpha for d/dy, beta for d/dx) vanishes
    ("Case3_2", (0, 1, 0, 0), ThomasParams(0, 1, 1), "identity", "0"),
    ("Case3_2", (1, 0, 0, 0), ThomasParams(1, 0, 1), "identity", "0"),
    # a1 = 0 and alpha*a2 + gamma = 0 leave lhs = beta/a2
    ("Case2_1a", (0, -1, 1, 0), ThomasParams(1, 0, 1), "identity", "0"),
    ("Case2_1a", (0, -1, 1, 0), ThomasParams(1, 2, 1), "inconsistent", "-2"),
], ids=["Case3_2-y", "Case3_2-x", "Case2_1a-identity", "Case2_1a-inconsistent"])
def test_degenerate_strata_name_their_kind(tag, coords, params, kind, lhs):
    case = _case(tag, coords)
    ode = reduced_ode(case, params)
    assert (ode.kind, ode.order, to_text(ode.lhs)) == (kind, 0, lhs)
    if kind == "identity":
        assert "every varsigma = F(chi) solves the equation" in ode.note
    assert verify_reduction(case, params)
    # off the stratum, the kinds stay as they were
    assert reduced_ode(case, SYM).kind == ("linear-first-order" if tag == "Case3_2"
                                           else "algebraic")


def test_case24_has_no_ansatz():
    with pytest.raises(ReductionError):
        reduced_ode(_case("Case2_4", (0, 0, 1, 0)), NUM)
    inv = invariants(_case("Case2_4", (0, 0, 1, 0)), NUM)
    # both invariants are base coordinates; u cannot be expressed
    assert {to_text(inv.chi), to_text(inv.varsigma)} == {"x", "y"}


def test_case31_bernoulli():
    for coords, p in [((1, 1, 0, 0), NUM), ((1, 2, 0, 0), SYM)]:
        ode = reduced_ode(_case("Case3_1a" if coords[1] == 1 else "Case3_1b",
                                coords), p)
        assert ode.order == 1
        assert ode.kind == "bernoulli"


def test_case32_mirrors():
    ox = reduced_ode(_case("Case3_2", (0, 1, 0, 0)), SYM)
    oy = reduced_ode(_case("Case3_2", (1, 0, 0, 0)), SYM)
    assert ox.kind == oy.kind == "linear-first-order"
    cx = invariants(_case("Case3_2", (0, 1, 0, 0)), SYM)
    cy = invariants(_case("Case3_2", (1, 0, 0, 0)), SYM)
    assert to_text(cx.chi) == "x" and to_text(cy.chi) == "y"


def test_canonical_field_matches_coords():
    vf = general_symmetry(0, 1, 4, 1, p=SYM)  # a1 = 4, a2 = 1, a3 = 0, a4 = 1
    assert to_text(vf.xi) == "4 - x*gamma"
    assert to_text(vf.eta) == "1 + y*gamma"
    assert to_text(vf.phi) == "x*beta - y*alpha"


def test_chain_rule_jets_are_consistent():
    # the (u_x, u_y, u_xy) substitutions that verify_reduction puts into the
    # equation must satisfy it whenever the reduced one holds; that check
    # runs there, so here just pin the shape and the Case2_2 closed form
    c = _case("Case2_2", (1, 0, 1, 0))
    jets = reduction._jets(invariants(c, SYM), c.tag)
    assert len(jets) == 3
    ux, uy, uxy = jets
    assert to_text(ux) == "1"  # u = x + f(y) ansatz
    assert is_zero(uxy)


def test_unknown_tag_rejected():
    with pytest.raises(ReductionError):
        invariants(CanonicalCase("Case9", (F(1), F(0), F(0), F(0)), ()), NUM)


@pytest.mark.parametrize("tag,coords", [
    ("Case2_1a", (1, 0, 1, 0)),
    ("Case2_1b", (-1, 0, 1, 0)),
    ("Case2_2", (0, 0, 1, 0)),
    ("Case3_1a", (1, 0, 0, 0)),
    ("Case3_1b", (2, 0, 0, 0)),
    ("Zero", (0, 0, 0, 0)),
])
def test_reduced_ode_refuses_what_invariants_refuses(tag, coords):
    """A case without invariants has no reduced ODE either, with the same
    ReductionError, at numeric and symbolic parameters alike."""
    case = _case(tag, coords)
    for p in (NUM, SYM):
        with pytest.raises(ReductionError) as refused:
            invariants(case, p)
        with pytest.raises(ReductionError, match="^%s$" % re.escape(str(refused.value))):
            reduced_ode(case, p)
