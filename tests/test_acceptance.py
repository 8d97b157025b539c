"""Release gate: one test per acceptance criterion, timed where required.

Each test records a PASS/FAIL line in the terminal summary so the whole
contract is auditable from a single pytest run.
"""

import functools
import random
import time
from fractions import Fraction
from pathlib import Path

from conftest import record_criterion

from lie_thomas.algebra import (
    AlgebraElement,
    adjoint,
    adjoint_table,
    basis_element,
    commutator_table,
    g_element,
    transform_solution,
)
from lie_thomas.cases import TAGS
from lie_thomas.classifier import (
    CanonicalCase,
    apply_word,
    classify,
    orbit_invariance_check,
)
from lie_thomas.determining import (
    ThomasParams,
    check_symmetry,
    determining_equations,
    exponential_g,
    v1,
    v2,
    v3,
    v4,
    v_g,
)
from lie_thomas.expr import (
    ALPHA,
    BETA,
    GAMMA,
    R,
    UFunc,
    X,
    Y,
    differentiate,
    evaluate,
    exp,
    param,
    pow_,
)
from lie_thomas.families import (
    case1_solution,
    case21a_solution,
    case21b_solution,
    case22_solution,
    case31a_solution,
    case31b_solution,
)
from lie_thomas.fuchs import coefficients_recurrence, fuchs_series
from lie_thomas.jetpoly import mono_expr
from lie_thomas.normal import equal, is_zero
from lie_thomas.printer import to_text
from lie_thomas.reduction import verify_reduction
from lie_thomas.verification import GridSpec, oracle_solutions, residual, residual_grid
from oracles import (
    annihilation_residuals,
    coefficient_closed,
    lie_series_adjoint,
    ode_residual,
)

F = Fraction
SYM = ThomasParams()
NUM = ThomasParams(1, 1, 1)
SEED = 20260815


def criterion(number: int, description: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                record_criterion(number, description, False)
                raise
            record_criterion(number, description, True)

        return wrapper

    return deco


def _el_equal(a: AlgebraElement, b: AlgebraElement) -> bool:
    if not all(equal(x, y) for x, y in zip(a.coords(), b.coords())):
        return False
    return is_zero(a.g - b.g)


GOLDEN_ROWS = [
    ("1", "phi_xy + alpha*phi_x + beta*phi_y"),
    ("u_x", "phi_yu - xi_xy + alpha*eta_y - beta*xi_y + gamma*phi_y"),
    ("u_y", "-eta_xy + phi_xu - alpha*eta_x + beta*xi_x + gamma*phi_x"),
    ("u_x*u_y", "-eta_yu + phi_uu - xi_xu + alpha*eta_u + beta*xi_u + gamma*phi_u"),
    ("u_x^2", "-xi_yu + alpha*xi_u - gamma*xi_y"),
    ("u_y^2", "-eta_xu + beta*eta_u - gamma*eta_x"),
    ("u_y*u_x^2", "-xi_uu"),
    ("u_x*u_y^2", "-eta_uu"),
    ("u_xx", "-xi_y"),
    ("u_yy", "-eta_x"),
    ("u_xx*u_y", "-xi_u"),
    ("u_x*u_yy", "-eta_u"),
]


@criterion(1, "determining system reproduces the 12 golden coefficient rows (< 1 s)")
def test_criterion_01_determining_rows():
    t0 = time.perf_counter()
    rows = [
        (to_text(mono_expr(mono)), to_text(coeff))
        for mono, coeff in determining_equations(SYM).rows
    ]
    assert rows == GOLDEN_ROWS
    assert time.perf_counter() - t0 < 1.0


@criterion(2, "commutator table matches all 25 golden entries with symbolic g (< 1 s)")
def test_criterion_02_commutator_table():
    t0 = time.perf_counter()
    g = UFunc("g", ("x", "y"))()
    gx, gy = differentiate(g, X), differentiate(g, Y)
    psi = -GAMMA * X * gx + GAMMA * Y * gy - GAMMA * (BETA * X - ALPHA * Y) * g
    z = AlgebraElement(0, 0, 0, 0)
    expected = [
        [z, z, z, AlgebraElement(-GAMMA, 0, BETA, 0), g_element(gx)],
        [z, z, z, AlgebraElement(0, GAMMA, -ALPHA, 0), g_element(gy)],
        [z, z, z, z, g_element(-GAMMA * g)],
        [AlgebraElement(GAMMA, 0, -BETA, 0), AlgebraElement(0, -GAMMA, ALPHA, 0),
         z, z, g_element(psi)],
        [g_element(-gx), g_element(-gy), g_element(GAMMA * g), g_element(-psi), z],
    ]
    table = commutator_table(SYM, g)
    count = 0
    for i in range(5):
        for j in range(5):
            assert _el_equal(table[i][j], expected[i][j]), (i, j)
            count += 1
    assert count == 25
    assert time.perf_counter() - t0 < 1.0


@criterion(3, "adjoint table matches 16 golden entries and the Lie series (< 5 s)")
def test_criterion_03_adjoint_table():
    t0 = time.perf_counter()
    eps = param("epsilon")
    table = adjoint_table(SYM, eps)
    v = [None] + [basis_element(i) for i in (1, 2, 3, 4)]
    decay, grow = exp(-GAMMA * eps), exp(GAMMA * eps)
    expected = [
        [v[1], v[2], v[3], AlgebraElement(eps * GAMMA, 0, -BETA * eps, 1)],
        [v[1], v[2], v[3], AlgebraElement(0, -eps * GAMMA, ALPHA * eps, 1)],
        [v[1], v[2], v[3], v[4]],
        [AlgebraElement(decay, 0, BETA * pow_(GAMMA, -1) * (R(1) - decay), 0),
         AlgebraElement(0, grow, -ALPHA * pow_(GAMMA, -1) * (grow - R(1)), 0),
         v[3], v[4]],
    ]
    count = 0
    for i in range(4):
        for j in range(4):
            assert _el_equal(table[i][j], expected[i][j]), (i, j)
            count += 1
    assert count == 16
    # nilpotent adjoints terminate: the truncated series is already exact
    for i in (1, 2, 3):
        for j in (1, 2, 3, 4):
            closed = adjoint(i, eps, basis_element(j), SYM)
            series = lie_series_adjoint(i, eps, basis_element(j), SYM, order=6)
            assert _el_equal(closed, series), (i, j)
    # scaling row reproduces the exponential expansions numerically
    for e in (R(1, 10), R(1)):
        for j in (1, 2, 3, 4):
            closed = adjoint(4, e, basis_element(j), NUM)
            series = lie_series_adjoint(4, e, basis_element(j), NUM, order=25)
            for ce, se in zip(closed.coords(), series.coords()):
                assert abs(float(evaluate(ce, {})) - float(evaluate(se, {}))) < 1e-12
    assert time.perf_counter() - t0 < 5.0


@criterion(4, "check_symmetry certifies v1..v4 and 10 sampled exponential generators")
def test_criterion_04_symmetry_certificates():
    for vf in (v1(), v2(), v3(), v4(SYM)):
        ok, residual = check_symmetry(vf, SYM)
        assert ok, residual
    rng = random.Random(SEED)
    seen = 0
    while seen < 10:
        lam = F(rng.randint(-8, 8), rng.randint(1, 4))
        if lam == 0 or lam == -1:  # beta = 1 pole
            continue
        g, mu = exponential_g(lam, NUM)
        ok, residual = check_symmetry(v_g(g, NUM), NUM)
        assert ok, residual
        # dispersion locus: lam*mu + alpha*lam + beta*mu = 0
        assert lam * mu + lam + mu == 0
        seen += 1


@criterion(5, "solution families meet residual tolerances on 50x50 domain grids")
def test_criterion_05_residual_suite():
    wide = GridSpec(-2.0, 2.0, 50, -2.0, 2.0, 50)
    closed_forms = [
        case21a_solution(NUM, a1=F(1), a2=F(2), A=F(5000), root="+"),
        case21b_solution(NUM, a1=F(-1), a2=F(-1), A0=F(0)),
        case22_solution(NUM, a1=F(1)),
        case31a_solution(NUM, k0=F(5)),
        case31b_solution(NUM, a2=F(2), k=F(1)),
    ]
    for fam in closed_forms:
        rep = residual_grid(fam, grid=wide)
        assert rep.max_residual < 1e-9, (fam.family, str(rep))
    quad = case1_solution(NUM, a1=F(0), a2=F(0), c0=F(1))
    rep = residual_grid(quad, grid=GridSpec(-2.0, -0.1, 50, -2.0, -0.1, 50))
    assert rep.max_residual < 1e-6, str(rep)


@criterion(6, "series coefficients agree both routes (n<=60) and solve the ODE")
def test_criterion_06_fuchs_series():
    rec = coefficients_recurrence(F(1), F(1), 60)
    for n in range(61):
        clo = coefficient_closed(F(1), F(1), n)
        assert clo == rec[n]
        if clo:
            assert abs(float(clo) / float(rec[n]) - 1.0) < 1e-14
    s = fuchs_series(1.0, 1.0, 2.0)
    for chi in (0.5, 1.0, 2.0):
        assert abs(ode_residual(s, chi)) < 1e-8


@criterion(7, "transported solutions keep residual < 1e-8 for every generator")
def test_criterion_07_transport():
    bases = list(oracle_solutions(NUM, count=3))
    bases.append(case22_solution(NUM, a1=F(1)))
    bases.append(case31b_solution(NUM, a2=F(2), k=F(1)))
    pts = [(0.3, -0.2), (-0.8, 0.5), (1.1, 0.9)]
    for f in bases:
        for i in (1, 2, 3, 4):
            for eps in (0.3, -0.3):
                moved = transform_solution(i, eps, f, NUM)
                for x, y in pts:
                    assert abs(residual(moved, x, y, NUM)) < 1e-8, (i, eps)
        moved = transform_solution("g", 0.05, f, NUM, g=lambda x, y: 1.0)
        for x, y in pts:
            assert abs(residual(moved, x, y, NUM)) < 1e-8


@criterion(8, "10k random vectors: one tag, exact replay, orbit invariance (< 30 s)")
def test_criterion_08_classification_coverage():
    t0 = time.perf_counter()
    rng = random.Random(SEED)
    sample = []
    for _ in range(10000):
        coords = tuple(
            F(rng.randint(-9, 9), rng.randint(1, 5))
            if rng.random() > 0.25
            else F(0)
            for _ in range(4)
        )
        case = classify(AlgebraElement(*coords), NUM)
        assert case.tag in TAGS
        assert apply_word(coords, case.word, NUM) == case.coords
        sample.append(coords)
    for coords in sample[::40]:  # 250-vector orbit subsample
        el = AlgebraElement(*coords)
        assert orbit_invariance_check(el, NUM, trials=8, rng=rng)
    assert time.perf_counter() - t0 < 30.0


@criterion(9, "invariants annihilated in all nine cases; reductions verified")
def test_criterion_09_reduction_certificates():
    nine = [
        ("Case1", (4, 1, 0, 1), SYM),
        ("Case2_1a", (1, 2, 1, 0), SYM),
        ("Case2_1b", (-1, -1, 1, 0), NUM),
        ("Case2_2", (1, 0, 1, 0), SYM),
        ("Case2_3", (-1, 0, 1, 0), NUM),
        ("Case2_4", (0, 0, 1, 0), SYM),
        ("Case3_1a", (1, 1, 0, 0), NUM),
        ("Case3_1b", (1, 2, 0, 0), SYM),
        ("Case3_2", (0, 1, 0, 0), SYM),
    ]
    for tag, coords, p in nine:
        case = CanonicalCase(tag, tuple(F(c) for c in coords), ())
        assert all(is_zero(r) for r in annihilation_residuals(case, p)), tag
    for tag, coords, p in nine:
        if tag in ("Case1", "Case2_1a", "Case2_1b", "Case2_2", "Case3_1a",
                   "Case3_1b"):
            case = CanonicalCase(tag, tuple(F(c) for c in coords), ())
            assert verify_reduction(case, p), tag


@criterion(10, "adjudication ledger present with every required entry")
def test_criterion_10_discrepancy_ledger():
    ledger = Path(__file__).resolve().parent.parent / "docs" / "discrepancies.md"
    assert ledger.is_file()
    text = ledger.read_text(encoding="utf-8")
    required = [
        "case1-solution-log-exponent",
        "case21a-exponential-coefficient-signs",
        "case21b-tan-antiderivative",
        "case1-riccati-trailing-term",
        "case21-discriminant-variable-mix",
        "most-general-symmetry-alpha-beta-zero",
    ]
    for slug in required:
        assert f"## {slug}" in text, slug
    assert text.count("## ") >= 5
    assert "residual" in text  # resolutions cite the adjudicating check
