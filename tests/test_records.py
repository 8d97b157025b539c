"""The package's record classes behave as frozen dataclasses of the same
fields: binding, errors, equality, hashing, repr and immutability.

Each record is compared with a twin built here by ``dataclasses`` from a
field list written out below, so a record whose fields, defaults or
hidden repr fields drift from the list fails."""

import dataclasses
import importlib
from fractions import Fraction

import pytest

import lie_thomas
from lie_thomas.algebra import AlgebraElement, AlgebraError
from lie_thomas.cases import Case
from lie_thomas.classifier import CanonicalCase
from lie_thomas.determining import DeterminingSystem
from lie_thomas.errors import Record
from lie_thomas.expr import ALPHA, BETA, GAMMA, ZERO, Rat, U, X, Y
from lie_thomas.families import ModeMix, SolutionFamily
from lie_thomas.fuchs import FuchsSeries, SecondSolution
from lie_thomas.params import ParameterError, ThomasParams
from lie_thomas.reduction import InvariantPair, ReducedODE, Stratum
from lie_thomas.vectorfield import ProlongedField, VectorField
from lie_thomas.verification import GridReport, GridSpec, VerificationError

def _hidden():
    return dataclasses.field(repr=False)


def _default(value):
    return dataclasses.field(default=value)


def _evaluator(x, y):
    return x + y


def _domain(x, y):
    return True


# record -> (twin field specs, sample field values); a spec is a name or
# (name, field); every sample value is one the record's __post_init__ keeps
RECORDS = {
    ThomasParams: (
        [("alpha", _default(ALPHA)), ("beta", _default(BETA)), ("gamma", _default(GAMMA))],
        (Rat(1), Rat(Fraction(1, 2)), Rat(-3)),
    ),
    DeterminingSystem: (["rows"], ((((0, 0, 1), Rat(2)), ((1, 0, 0), X)),)),
    VectorField: (["xi", "eta", "phi"], (X, Y, U)),
    ProlongedField: (["base", "coefficients"], (VectorField(X, Y, U), {(0, 0): None})),
    AlgebraElement: (
        [(n, _default(ZERO)) for n in ("a1", "a2", "a3", "a4", "g")],
        (Rat(1), Rat(2), Rat(3), Rat(Fraction(1, 2)), X),
    ),
    CanonicalCase: (
        ["tag", "coords", "word"],
        ("Case1", (Fraction(4), Fraction(1), Fraction(0), Fraction(1)),
         (("scale", Fraction(1, 2)),)),
    ),
    Case: (
        ["coords", ("divisor", _default(0)), ("obstruction", _default("")),
         ("constant", _default(False))],
        ((1, 2, 0, 0), 2, "a note", True),
    ),
    InvariantPair: (["chi", "varsigma", "domain"], (X, U, "x != 0")),
    ReducedODE: (
        ["order", "dependent", "lhs", "kind", ("note", _default("")), ("aux", _default(()))],
        (2, "varsigma", X, "fuchs", "a note", (("e", 1.0),)),
    ),
    Stratum: (["tag", "coords", "params"], ("Case1", (X, Y), ThomasParams())),
    SolutionFamily: (
        ["family", "tag", "params", "constants", ("evaluator", _hidden()),
         ("domain", _hidden()), ("note", _default(""))],
        ("case22", "Case2_2", ThomasParams(1, 1, 1), {"a1": Fraction(2)}, _evaluator,
         _domain, "a note"),
    ),
    ModeMix: (
        ["gamma", "lam", "mu", "k", ("a", _default(0.0)), ("c", _default(0.0)),
         ("f", _default(None)), ("p", _default(0.0)), ("q", _default(0.0)),
         ("r", _default(0.0)), ("floor", _default(1e-9))],
        (1.0, -0.5, 0.25, 2.0, 1.5, -1.0, abs, 0.5, -2.0, 0.125, 1e-6),
    ),
    FuchsSeries: (["e", "m", "coefficients", "truncation", "tail_bound"],
                  (1.0, 0.5, (1.0, -0.25), 2, 1e-17)),
    SecondSolution: (["rho", "log_coefficients", "coefficients", "truncation", "tail_bound"],
                     (0.0, (1.0,), (0.5, 0.125), 2, 1e-16)),
    GridSpec: (
        [(n, _default(v)) for n, v in (("xmin", -2.0), ("xmax", 2.0), ("nx", 50),
                                       ("ymin", -2.0), ("ymax", 2.0), ("ny", 50))],
        (-1.0, 1.5, 3, 0.0, 2.0, 4),
    ),
    GridReport: (["max_residual", "worst_point", "evaluated", "skipped"],
                 (1e-15, (0.5, -0.5), 12, 4)),
}

IDS = [cls.__name__ for cls in RECORDS]


def _twin(cls):
    specs = [(s, object) if isinstance(s, str) else (s[0], object, s[1])
             for s in RECORDS[cls][0]]
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True)


def _values(obj):
    """The field values of a record or of its twin, in field order."""
    names = [f.name for f in dataclasses.fields(obj)] if dataclasses.is_dataclass(obj) \
        else obj._fields
    return tuple(getattr(obj, n) for n in names)


def _outcome(fn):
    """fn()'s value, or the type and message of the TypeError it raised."""
    try:
        return fn()
    except TypeError as exc:
        return type(exc), str(exc)


def _same_raise(record_call, twin_call, expected):
    with pytest.raises(expected) as got:
        record_call()
    with pytest.raises(expected) as want:
        twin_call()
    assert str(got.value) == str(want.value)


def _required(cls):
    return sum(f.default is dataclasses.MISSING for f in dataclasses.fields(_twin(cls)))


def test_every_record_class_of_the_package_has_a_twin():
    for name in lie_thomas._SUBMODULES:
        importlib.import_module("lie_thomas." + name)
    ours = {c for c in Record.__subclasses__() if c.__module__.startswith("lie_thomas.")}
    assert ours == set(RECORDS)
    assert len(RECORDS) == 16


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_fields_and_defaults_match_the_twin(cls):
    twin = _twin(cls)
    assert cls._fields == tuple(f.name for f in dataclasses.fields(twin))
    for f in dataclasses.fields(twin):
        if f.default is not dataclasses.MISSING:
            default = getattr(cls, f.name)
            assert type(default) is type(f.default) and default == f.default


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_repr_equality_and_hash_match_the_twin(cls):
    values = RECORDS[cls][1]
    rec, twin = cls(*values), _twin(cls)(*values)
    assert repr(rec) == repr(twin)
    assert rec == cls(*values) and not rec != cls(*values)
    assert rec != twin and twin != rec
    other = Case(None) if cls is not Case else GridReport(0.0, (), 0, 0)
    assert rec != other and not rec == other
    assert (rec == other) == (twin == other)
    assert _outcome(lambda: hash(rec)) == _outcome(lambda: hash(twin))
    assert _outcome(lambda: hash(cls(*values))) == _outcome(lambda: hash(rec))


def test_hidden_fields_stay_out_of_the_repr_only():
    values = RECORDS[SolutionFamily][1]
    fam = SolutionFamily(*values)
    assert "evaluator" not in repr(fam) and "domain" not in repr(fam)
    assert fam != SolutionFamily(*values[:4], _domain, _evaluator, values[6])


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_fields_can_be_neither_assigned_nor_deleted(cls):
    values = RECORDS[cls][1]
    rec, twin = cls(*values), _twin(cls)(*values)
    for name in (*cls._fields, "not_a_field"):
        _same_raise(lambda: setattr(rec, name, 1), lambda: setattr(twin, name, 1),
                    AttributeError)
        _same_raise(lambda: delattr(rec, name), lambda: delattr(twin, name), AttributeError)
    assert _values(rec) == values


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_positional_keyword_and_default_binding_match_the_twin(cls):
    values, twin, names = RECORDS[cls][1], _twin(cls), cls._fields
    calls = [(values, {}), ((), dict(zip(names, values))),
             (values[:1], dict(zip(names[1:], values[1:])))]
    required = _required(cls)
    if required < len(names):
        calls += [(values[:required], {}), (values[:required], {names[-1]: values[-1]})]
    for args, kwargs in calls:
        rec, want = cls(*args, **kwargs), twin(*args, **kwargs)
        assert _values(rec) == _values(want)
        assert repr(rec) == repr(want)


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_bad_arguments_raise_the_twins_type_error(cls):
    values, twin, names = RECORDS[cls][1], _twin(cls), cls._fields
    bad = [
        (values + (None,), {}),  # one positional too many
        (values, {"not_a_field": 1}),  # unknown keyword
        (values[:1], {names[0]: values[0]}),  # a field given twice
    ]
    if _required(cls):
        bad.append((values[:_required(cls) - 1], {}))  # a required field missing
    for args, kwargs in bad:
        _same_raise(lambda: cls(*args, **kwargs), lambda: twin(*args, **kwargs), TypeError)


def test_post_init_checks_still_raise():
    with pytest.raises(VerificationError):
        GridSpec(1.0, -1.0)
    with pytest.raises(VerificationError):
        GridSpec(nx=1)
    with pytest.raises(ParameterError, match="gamma must be nonzero"):
        ThomasParams(1, 1, 0)
    with pytest.raises(ParameterError, match="gamma must be nonzero"):
        ThomasParams(gamma=Fraction(0))
    with pytest.raises(AlgebraError, match="depend on"):
        AlgebraElement(g=U)
    with pytest.raises(AlgebraError, match="depend on"):
        AlgebraElement(1, 0, 0, 0, X * U)
    assert ThomasParams(1, 2, 3) == ThomasParams(Rat(1), Rat(2), Rat(3))
    assert AlgebraElement(1) == AlgebraElement(Rat(1), ZERO, ZERO, ZERO, ZERO)


def test_post_init_is_looked_up_at_each_construction():
    """A wrapper set on the class after it is defined runs on every
    construction, as a tracer that patches ``__post_init__`` needs."""
    raw = AlgebraElement.__dict__["__post_init__"]
    seen = []

    def traced(self):
        seen.append(self)
        raw(self)

    AlgebraElement.__post_init__ = traced
    try:
        el = AlgebraElement(1, 2)
    finally:
        AlgebraElement.__post_init__ = raw
    assert seen == [el] and el.a2 == Rat(2)


def test_a_required_field_after_a_default_is_refused():
    """As in a dataclass; the generated __init__ would otherwise bind the
    defaults to the wrong fields."""
    with pytest.raises(TypeError, match="'b' follows default"):
        class Misordered(Record):  # noqa: F841
            a: int = 0
            b: int
